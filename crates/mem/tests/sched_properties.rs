//! Properties of the FR-FCFS drain-order scheduler.
//!
//! Four load-bearing claims:
//!
//! * each request [`ChannelSet::row_first_order`] issues is the
//!   **first-ready, then row-hit, then oldest** of the requests still
//!   waiting, ranked with [`BankSet::grant`] against the live fabric as
//!   the window replays — the prediction and the issue share one bank
//!   model, bus occupancy included;
//! * [`ChannelSet::row_first_order`] is a true **permutation** of the
//!   window — every request still issues exactly once — that, when
//!   every request is ready at once, keeps each *bank's* requests
//!   grouped by row in arrival order (different banks interleave
//!   freely: overlapping their activates is the point), and it
//!   degenerates to the identity on a flat fabric (so `RowFirst`
//!   collapses to `Fifo` there);
//! * *replaying the reordered window issues exactly the same
//!   transactions* — per-class counts match a FIFO replay,
//!   the row-outcome total is conserved, and the reorder never reports
//!   fewer row hits than arrival order when every request is ready at
//!   once;
//! * a [`PagePolicy::Closed`] bank set never grants a row hit and
//!   charges every access the flat closed-page latency, regardless of
//!   the access pattern.

use padlock_mem::{BankConfig, BankSet, ChannelSet, PagePolicy, TrafficClass};
use proptest::prelude::*;

const LINE: u64 = 128;

fn banked(channels: usize, banks: usize, page: PagePolicy) -> ChannelSet {
    ChannelSet::new(channels, 100, 8, 8)
        .with_banks(BankConfig::banked(banks).with_page_policy(page))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying the scheduler's order on the fabric it was computed
    /// from, every issued request minimises `(start, !hit, index)` over
    /// the requests not yet issued, each ranked by the live channel's
    /// bank grant behind its bus: the order is exactly FR-FCFS against
    /// the state the issue sees.
    #[test]
    fn each_issue_is_first_ready_then_row_hit_then_oldest(
        reqs in proptest::collection::vec((0u64..=400, 0u64..192), 1..40),
        channels in prop::sample::select(vec![1usize, 2, 4]),
        banks in prop::sample::select(vec![2usize, 4]),
        closed in any::<bool>(),
    ) {
        let page = if closed { PagePolicy::Closed } else { PagePolicy::Open };
        let reqs: Vec<(u64, u64)> = reqs.into_iter().map(|(at, l)| (at, l * LINE)).collect();
        let mut fabric = banked(channels, banks, page);
        let order = fabric.row_first_order(&reqs);
        let mut issued = vec![false; reqs.len()];
        for &i in &order {
            let key = |j: usize| {
                let (ready, addr) = reqs[j];
                let ch = &fabric.channels()[fabric.channel_of(addr)];
                let bank_set = ch.banks().expect("banked fabric");
                let grant = bank_set.grant(ready.max(ch.mem().busy_until()), addr);
                (grant.start, !grant.hit, j)
            };
            let best = (0..reqs.len())
                .filter(|&j| !issued[j])
                .map(key)
                .min()
                .expect("a request is still waiting");
            prop_assert_eq!(key(i), best, "request {} issued out of FR-FCFS order", i);
            issued[i] = true;
            let (ready, addr) = reqs[i];
            fabric.demand_read(ready, addr, TrafficClass::LineRead);
        }
    }

    /// With every request ready at once on an idle fabric, each bank
    /// serves its requests grouped by row, groups anchored oldest-first
    /// and members in arrival order: once a bank moves off a row it
    /// never returns to it (there was nothing left to hit). Different
    /// banks interleave freely — overlapping activates is the point.
    #[test]
    fn simultaneous_requests_group_by_row_within_each_bank(
        lines in proptest::collection::vec(0u64..128, 0..48),
        channels in prop::sample::select(vec![1usize, 2, 4]),
        banks in prop::sample::select(vec![2usize, 4]),
    ) {
        let reqs: Vec<(u64, u64)> = lines.iter().map(|&l| (0u64, l * LINE)).collect();
        let fabric = banked(channels, banks, PagePolicy::Open);
        let order = fabric.row_first_order(&reqs);
        let coords: Vec<(usize, usize, u64)> = reqs
            .iter()
            .map(|&(_, addr)| fabric.coordinates_of(addr))
            .collect();
        for ch in 0..channels {
            for bk in 0..banks {
                let served: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| (coords[i].0, coords[i].1) == (ch, bk))
                    .collect();
                let mut seen_done: Vec<u64> = Vec::new();
                let mut i = 0;
                while i < served.len() {
                    let row = coords[served[i]].2;
                    prop_assert!(
                        !seen_done.contains(&row),
                        "bank ({ch},{bk}) returned to row {row}"
                    );
                    let mut last = served[i];
                    let mut j = i + 1;
                    while j < served.len() && coords[served[j]].2 == row {
                        prop_assert!(served[j] > last, "row group not in arrival order");
                        last = served[j];
                        j += 1;
                    }
                    seen_done.push(row);
                    i = j;
                }
            }
        }
    }

    /// The fabric scheduler is a permutation; on a flat fabric it is
    /// the identity (RowFirst collapses to Fifo there).
    #[test]
    fn fabric_order_is_a_permutation_and_identity_when_flat(
        reqs in proptest::collection::vec((0u64..500, 0u64..2048), 0..48),
        channels in prop::sample::select(vec![1usize, 2, 4]),
        banks in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let reqs: Vec<(u64, u64)> = reqs.into_iter().map(|(at, l)| (at, l * LINE)).collect();
        let fabric = banked(channels, banks, PagePolicy::Open);
        let order = fabric.row_first_order(&reqs);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..reqs.len()).collect::<Vec<_>>());
        let flat = ChannelSet::new(channels, 100, 8, 8);
        prop_assert_eq!(
            flat.row_first_order(&reqs),
            (0..reqs.len()).collect::<Vec<_>>(),
            "flat fabric must keep arrival order"
        );
    }

    /// Replaying a window in the scheduler's order issues the same
    /// transactions (counts, row-outcome total) as arrival
    /// order, and — with every request ready at once — never fewer row
    /// hits.
    #[test]
    fn reordered_replay_conserves_traffic_and_does_not_lose_hits(
        lines in proptest::collection::vec(0u64..96, 1..40),
        channels in prop::sample::select(vec![1usize, 2]),
        banks in prop::sample::select(vec![2usize, 4]),
    ) {
        let reqs: Vec<(u64, u64)> = lines.iter().map(|&l| (0u64, l * LINE)).collect();
        let mut fifo = banked(channels, banks, PagePolicy::Open);
        for &(at, addr) in &reqs {
            fifo.demand_read(at, addr, TrafficClass::LineRead);
        }
        let mut rowf = banked(channels, banks, PagePolicy::Open);
        let order = rowf.row_first_order(&reqs);
        for &i in &order {
            let (at, addr) = reqs[i];
            rowf.demand_read(at, addr, TrafficClass::LineRead);
        }
        let sf = fifo.stats();
        let sr = rowf.stats();
        prop_assert_eq!(sf.get("line_reads"), sr.get("line_reads"));
        prop_assert_eq!(sf.get("transactions"), sr.get("transactions"));
        prop_assert_eq!(
            sf.get("row_hits") + sf.get("row_conflicts"),
            sr.get("row_hits") + sr.get("row_conflicts"),
            "row-outcome total changed"
        );
        prop_assert!(
            sr.get("row_hits") >= sf.get("row_hits"),
            "reorder lost hits: {} vs {}", sr.get("row_hits"), sf.get("row_hits")
        );
    }

    /// Closed-page banks never hit and always charge the closed-page
    /// latency.
    #[test]
    fn closed_page_bank_set_never_grants_a_hit(
        accesses in proptest::collection::vec((0u64..(1 << 22), 0u64..300), 1..150),
        banks in prop::sample::select(vec![1usize, 2, 4, 8]),
        closed in 60u64..140,
    ) {
        let config = BankConfig::banked(banks)
            .with_page_policy(PagePolicy::Closed)
            .with_closed_cycles(closed);
        let mut set = BankSet::new(config);
        let mut now = 0u64;
        for &(addr, gap) in &accesses {
            now += gap;
            let predicted = set.grant(now, addr);
            let grant = set.access(now, addr);
            prop_assert_eq!(predicted, grant, "grant and access disagree at {addr:#x}");
            prop_assert!(!grant.hit, "closed-page access hit at {addr:#x}");
            prop_assert_eq!(grant.done - grant.start, closed);
            prop_assert_eq!(set.open_row(grant.bank), None, "row left open");
        }
    }
}
