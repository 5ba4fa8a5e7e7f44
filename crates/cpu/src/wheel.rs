//! The run loop's event calendar: a 64-cycle hashed timing wheel
//! (Varghese & Lauck, SOSP '87) in front of two small min-heaps.
//!
//! The calendar holds two kinds of future events: *completions*, the
//! cycles at which an issued op finishes (wake-ups for the no-progress
//! time jump, which only needs the earliest one), and *readiness*
//! entries, the ROB ring position of an op that may issue from a given
//! cycle on. Nearly every event lands a few cycles after the current
//! one, so the wheel keeps events fewer than [`SPAN`] cycles out in the
//! bucket named by the low six bits of their cycle: a completion is one
//! bit of a mask, and a readiness entry is one bit of that bucket's
//! bitmap over ring positions. Only events [`SPAN`] or more cycles out
//! (L2-miss completions and their consumers) go to a heap, and move onto
//! the wheel as the clock approaches them.
//!
//! Coming due is a bit operation: each bucket also keeps a summary with
//! one bit per non-empty word of its bitmap, and advancing past a bucket
//! ORs just those words into the caller's ready set. A push costs O(1)
//! and an advance costs the non-empty words it moves, plus one summary
//! word per 4096 ring positions for each bucket that holds an entry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel spans: an event `d` cycles after the wheel's
/// cycle, `1 <= d < SPAN`, sits on the wheel; a later one waits in a
/// heap.
const SPAN: u64 = 64;

/// The bucket of `cycle`: its low six bits.
fn bucket(cycle: u64) -> u32 {
    // lint: bounded masked to the 64 buckets
    (cycle % SPAN) as u32
}

/// A timing wheel of completion cycles and readiness entries over a ROB
/// ring of a fixed number of positions.
///
/// The wheel sits at a cycle, `now`, and holds events after it. Each
/// call names the cycle the caller has reached; [`TimingWheel::advance`]
/// moves the wheel there (it never moves back), dropping completions
/// and setting the ring positions whose readiness has come due in the
/// caller's ready set, a bitmap of one bit per position.
#[derive(Debug)]
pub(crate) struct TimingWheel {
    /// The cycle the wheel has been advanced to. Every wheel entry
    /// lies in `now + 1 ..= now + SPAN - 1`, so a bucket names exactly
    /// one cycle.
    now: u64,
    /// Bit `b`: a completion falls on the window cycle of bucket `b`.
    done: u64,
    /// Bit `b`: bucket `b` holds a readiness entry.
    ready: u64,
    /// Words in one bucket's position bitmap.
    words: usize,
    /// Words in one bucket's summary.
    summary_words: usize,
    /// Bucket `b`'s position bitmap is `positions[b * words..][..words]`:
    /// bit `p % 64` of word `p / 64` marks ring position `p` ready on the
    /// bucket's cycle.
    positions: Vec<u64>,
    /// Bucket `b`'s summary is `summaries[b * summary_words..]`: bit
    /// `i % 64` of word `i / 64` marks word `i` of its bitmap non-empty.
    summaries: Vec<u64>,
    /// Readiness entries per bucket, so that `advance` tells the caller
    /// how many positions it set without counting bits.
    filed: [usize; SPAN as usize],
    /// Completions at least [`SPAN`] cycles after `now`.
    far_done: BinaryHeap<Reverse<u64>>,
    /// Readiness entries, `(cycle, position)`, at least [`SPAN`] cycles
    /// after `now`.
    far_ready: BinaryHeap<Reverse<(u64, usize)>>,
}

impl TimingWheel {
    /// An empty wheel at cycle `now` over a ring of `ring` positions.
    pub(crate) fn new(now: u64, ring: usize) -> Self {
        let words = ring.div_ceil(64);
        let summary_words = words.div_ceil(64);
        Self {
            now,
            done: 0,
            ready: 0,
            words,
            summary_words,
            positions: vec![0; words * SPAN as usize],
            summaries: vec![0; summary_words * SPAN as usize],
            filed: [0; SPAN as usize],
            far_done: BinaryHeap::new(),
            far_ready: BinaryHeap::new(),
        }
    }

    /// Moves the wheel to cycle `now`, dropping every completion at or
    /// before it and setting in `ready` (one bit per ring position) every
    /// position whose readiness cycle is at or before it. Returns how
    /// many positions it set. Far events that come within [`SPAN`]
    /// cycles move onto the wheel.
    #[inline(always)]
    pub(crate) fn advance(&mut self, now: u64, ready: &mut [u64]) -> usize {
        debug_assert!(now >= self.now, "the wheel never moves back");
        let gap = now - self.now;
        if gap == 0 {
            return 0;
        }
        // The buckets of cycles `self.now + 1 ..= now`; a gap of a full
        // turn or more passes every wheel entry.
        let passed = if gap >= SPAN {
            u64::MAX
        } else {
            ((1 << gap) - 1_u64).rotate_left(bucket(self.now + 1))
        };
        self.done &= !passed;
        let mut hit = self.ready & passed;
        self.ready &= !passed;
        let mut added = 0;
        while hit != 0 {
            let b = hit.trailing_zeros() as usize;
            hit &= hit - 1;
            let positions = &mut self.positions[b * self.words..][..self.words];
            let summary = &mut self.summaries[b * self.summary_words..][..self.summary_words];
            for (s, sum) in summary.iter_mut().enumerate() {
                let mut nonempty = std::mem::take(sum);
                while nonempty != 0 {
                    let w = s * 64 + nonempty.trailing_zeros() as usize;
                    nonempty &= nonempty - 1;
                    debug_assert_eq!(ready[w] & positions[w], 0, "slot filed twice");
                    ready[w] |= std::mem::take(&mut positions[w]);
                }
            }
            added += std::mem::take(&mut self.filed[b]);
        }
        self.now = now;
        let horizon = now + SPAN;
        while let Some(&Reverse(cycle)) = self.far_done.peek() {
            if cycle >= horizon {
                break;
            }
            self.far_done.pop();
            if cycle > now {
                self.done |= 1 << bucket(cycle);
            }
        }
        while let Some(&Reverse((cycle, pos))) = self.far_ready.peek() {
            if cycle >= horizon {
                break;
            }
            self.far_ready.pop();
            if cycle > now {
                self.file(cycle, pos);
            } else {
                debug_assert_eq!(ready[pos / 64] >> (pos % 64) & 1, 0, "slot filed twice");
                ready[pos / 64] |= 1 << (pos % 64);
                added += 1;
            }
        }
        added
    }

    /// Enters a completion at `cycle`, which must lie after the wheel's
    /// cycle.
    #[inline(always)]
    pub(crate) fn push_done(&mut self, cycle: u64) {
        debug_assert!(cycle > self.now, "completion not in the future");
        if cycle - self.now < SPAN {
            self.done |= 1 << bucket(cycle);
        } else {
            self.far_done.push(Reverse(cycle));
        }
    }

    /// Files ring position `pos` to become ready at `cycle`, which must
    /// lie after the wheel's cycle.
    #[inline(always)]
    pub(crate) fn push_ready(&mut self, cycle: u64, pos: usize) {
        debug_assert!(cycle > self.now, "readiness not in the future");
        if cycle - self.now < SPAN {
            self.file(cycle, pos);
        } else {
            self.far_ready.push(Reverse((cycle, pos)));
        }
    }

    /// Sets a window cycle's readiness entry in its bucket's bitmap and
    /// summary.
    fn file(&mut self, cycle: u64, pos: usize) {
        let b = bucket(cycle) as usize;
        let w = pos / 64;
        let word = &mut self.positions[b * self.words + w];
        debug_assert_eq!(*word >> (pos % 64) & 1, 0, "slot filed twice");
        *word |= 1 << (pos % 64);
        self.summaries[b * self.summary_words + w / 64] |= 1 << (w % 64);
        self.filed[b] += 1;
        self.ready |= 1 << b;
    }

    /// The earliest completion after the wheel's cycle, if any: the
    /// first set bit of the mask from the bucket of `now + 1` on, else
    /// the far heap's minimum (every far event lies past the window).
    pub(crate) fn next_done(&self) -> Option<u64> {
        if self.done == 0 {
            return self.far_done.peek().map(|&Reverse(cycle)| cycle);
        }
        let ahead = self
            .done
            .rotate_right(bucket(self.now + 1))
            .trailing_zeros();
        Some(self.now + 1 + u64::from(ahead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The calendar the wheel replaces: one min-heap of completion
    /// cycles and one of `(ready cycle, position)`, with stale
    /// completions popped lazily.
    struct HeapModel {
        now: u64,
        done: BinaryHeap<Reverse<u64>>,
        ready: BinaryHeap<Reverse<(u64, usize)>>,
    }

    impl HeapModel {
        fn new(now: u64) -> Self {
            Self {
                now,
                done: BinaryHeap::new(),
                ready: BinaryHeap::new(),
            }
        }

        fn advance(&mut self, now: u64, due: &mut Vec<usize>) {
            self.now = now;
            while let Some(&Reverse((cycle, pos))) = self.ready.peek() {
                if cycle > now {
                    break;
                }
                self.ready.pop();
                due.push(pos);
            }
        }

        fn next_done(&mut self) -> Option<u64> {
            while self.done.peek().is_some_and(|&Reverse(t)| t <= self.now) {
                self.done.pop();
            }
            self.done.peek().map(|&Reverse(t)| t)
        }
    }

    /// Ring positions for readiness entries, unique among the entries
    /// still held, as a ROB's are: an odd stride scatters them over
    /// every word of the ring, and a position is handed out again only
    /// after its entry has come due.
    struct Positions {
        ring: usize,
        next: usize,
        live: Vec<bool>,
    }

    impl Positions {
        fn new(ring: usize) -> Self {
            Self {
                ring,
                next: 0,
                live: vec![false; ring],
            }
        }

        /// A free position, or `None` when every one is held.
        fn take(&mut self) -> Option<usize> {
            for _ in 0..self.ring {
                let pos = self.next.wrapping_mul(0x9E37_79B9) & (self.ring - 1);
                self.next += 1;
                if !self.live[pos] {
                    self.live[pos] = true;
                    return Some(pos);
                }
            }
            None
        }
    }

    /// Empties a position bitmap, returning its members in order.
    fn drain(ready: &mut [u64]) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, word) in ready.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }

    /// One step of a random calendar session.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A completion this many cycles out.
        Done(u64),
        /// A readiness entry this many cycles out.
        Ready(u64),
        /// Advance the clock by this many cycles.
        Step(u64),
        /// Advance the clock to the next completion, as the run loop's
        /// no-progress jump does (or by one cycle when there is none).
        Jump,
    }

    /// Event distances: the wheel's edges (1, 63, 64, 65), near events,
    /// and far ones (500 cycles or more).
    fn distance() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(1u64),
            Just(63u64),
            Just(64u64),
            Just(65u64),
            1u64..64,
            1u64..200,
            500u64..5_000,
        ]
    }

    /// Clock steps: none, short ones, the edges of a turn, and jumps
    /// past one or many full turns.
    fn step() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1u64),
            1u64..8,
            Just(63u64),
            Just(64u64),
            Just(65u64),
            100u64..300,
            1_000u64..10_000,
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            distance().prop_map(Op::Done),
            distance().prop_map(Op::Done),
            distance().prop_map(Op::Ready),
            distance().prop_map(Op::Ready),
            step().prop_map(Op::Step),
            Just(Op::Jump),
        ]
    }

    /// Session start cycles: zero, a bucket boundary, and large clocks
    /// on and off a boundary.
    fn start() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(64u64),
            0u64..1_000,
            (1u64 << 40)..(1u64 << 40) + 200,
            Just(u64::MAX / 4),
        ]
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push, advance and next-event sequences give the wheel
        /// and the two-heap model the same next completion after every
        /// call, and every advance sets exactly the ring positions the
        /// model hands out, on the paper's 16-position ring, a
        /// one-summary-word ring of 2048 and a two-summary-word ring of
        /// 8192.
        #[test]
        fn wheel_matches_the_binary_heap_reference_model(
            at in start(),
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            for ring in [16usize, 2048, 8192] {
                let mut wheel = TimingWheel::new(at, ring);
                let mut model = HeapModel::new(at);
                let mut positions = Positions::new(ring);
                let mut ready = vec![0u64; ring.div_ceil(64)];
                let mut want = Vec::new();
                let mut now = at;
                for &op in &ops {
                    let to = match op {
                        Op::Done(d) => {
                            wheel.push_done(now + d);
                            model.done.push(Reverse(now + d));
                            now
                        }
                        Op::Ready(d) => {
                            if let Some(pos) = positions.take() {
                                wheel.push_ready(now + d, pos);
                                model.ready.push(Reverse((now + d, pos)));
                            }
                            now
                        }
                        Op::Step(d) => now + d,
                        Op::Jump => model.next_done().unwrap_or(now + 1),
                    };
                    let added = wheel.advance(to, &mut ready);
                    model.advance(to, &mut want);
                    now = to;
                    let got = drain(&mut ready);
                    let due = sorted(std::mem::take(&mut want));
                    for &pos in &due {
                        positions.live[pos] = false;
                    }
                    prop_assert_eq!(
                        added, got.len(),
                        "ring {}: count at cycle {} after {:?}", ring, now, op
                    );
                    prop_assert_eq!(
                        got, due,
                        "ring {}: promoted slots at cycle {} after {:?}", ring, now, op
                    );
                    prop_assert_eq!(
                        wheel.next_done(),
                        model.next_done(),
                        "ring {}: next completion at cycle {} after {:?}", ring, now, op
                    );
                }
                // Drain: every entry still held comes due exactly once.
                let end = now + 20_000;
                let added = wheel.advance(end, &mut ready);
                model.advance(end, &mut want);
                let got = drain(&mut ready);
                prop_assert_eq!(added, got.len());
                prop_assert_eq!(got, sorted(want));
                prop_assert_eq!(wheel.next_done(), model.next_done());
            }
        }
    }
}
