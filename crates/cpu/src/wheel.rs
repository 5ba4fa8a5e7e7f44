//! The run loop's event calendar: a 64-cycle hashed timing wheel
//! (Varghese & Lauck, SOSP '87) in front of two small min-heaps.
//!
//! The calendar holds two kinds of future events: *completions*, the
//! cycles at which an issued op finishes (wake-ups for the no-progress
//! time jump, which only needs the earliest one), and *readiness*
//! entries, a slot that may issue from a given cycle on. Nearly every
//! event lands a few cycles after the current one, so the wheel keeps
//! events fewer than [`SPAN`] cycles out in the bucket named by the low
//! six bits of their cycle: a completion is one bit of a mask, and a
//! readiness entry is a sequence number on that bucket's list. Only
//! events [`SPAN`] or more cycles out (L2-miss completions and their
//! consumers) go to a heap, and move onto the wheel as the clock
//! approaches them. Every operation costs O(1) per event, independent
//! of the ROB size.

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

/// A timing wheel of completion cycles and readiness entries.
///
/// The wheel sits at a cycle, `now`, and holds events after it. Each
/// call names the cycle the caller has reached; [`TimingWheel::advance`]
/// moves the wheel there (it never moves back), dropping completions
/// and handing out readiness entries that have come due.
#[derive(Debug)]
pub(crate) struct TimingWheel {
    /// The cycle the wheel has been advanced to. Every wheel entry
    /// lies in `now + 1 ..= now + SPAN - 1`, so a bucket names exactly
    /// one cycle.
    now: u64,
    /// Bit `b`: a completion falls on the window cycle of bucket `b`.
    done: u64,
    /// Bit `b`: bucket `b`'s readiness list is non-empty.
    ready: u64,
    /// Per bucket, the sequence numbers of the slots that become ready
    /// on its cycle. Each list keeps its buffer across turns.
    lists: [Vec<u64>; SPAN as usize],
    /// Completions at least [`SPAN`] cycles after `now`.
    far_done: BinaryHeap<Reverse<u64>>,
    /// Readiness entries, `(cycle, seq)`, at least [`SPAN`] cycles
    /// after `now`.
    far_ready: BinaryHeap<Reverse<(u64, u64)>>,
}

impl TimingWheel {
    /// An empty wheel at cycle `now`.
    pub(crate) fn new(now: u64) -> Self {
        Self {
            now,
            done: 0,
            ready: 0,
            lists: std::array::from_fn(|_| Vec::new()),
            far_done: BinaryHeap::new(),
            far_ready: BinaryHeap::new(),
        }
    }

    /// Moves the wheel to cycle `now`, dropping every completion at or
    /// before it and appending to `due` the sequence number of every
    /// slot whose readiness cycle is at or before it (in no particular
    /// order). Far events that come within [`SPAN`] cycles move onto
    /// the wheel.
    pub(crate) fn advance(&mut self, now: u64, due: &mut Vec<u64>) {
        debug_assert!(now >= self.now, "the wheel never moves back");
        let gap = now - self.now;
        if gap == 0 {
            return;
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
        while hit != 0 {
            let list = &mut self.lists[hit.trailing_zeros() as usize];
            due.append(list);
            hit &= hit - 1;
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
        while let Some(&Reverse((cycle, seq))) = self.far_ready.peek() {
            if cycle >= horizon {
                break;
            }
            self.far_ready.pop();
            if cycle > now {
                self.file(cycle, seq);
            } else {
                due.push(seq);
            }
        }
    }

    /// Enters a completion at `cycle`, which must lie after the wheel's
    /// cycle.
    pub(crate) fn push_done(&mut self, cycle: u64) {
        debug_assert!(cycle > self.now, "completion not in the future");
        if cycle - self.now < SPAN {
            self.done |= 1 << bucket(cycle);
        } else {
            self.far_done.push(Reverse(cycle));
        }
    }

    /// Files slot `seq` to become ready at `cycle`, which must lie
    /// after the wheel's cycle.
    pub(crate) fn push_ready(&mut self, cycle: u64, seq: u64) {
        debug_assert!(cycle > self.now, "readiness not in the future");
        if cycle - self.now < SPAN {
            self.file(cycle, seq);
        } else {
            self.far_ready.push(Reverse((cycle, seq)));
        }
    }

    /// Puts a readiness entry for a window cycle on its bucket's list.
    fn file(&mut self, cycle: u64, seq: u64) {
        let b = bucket(cycle);
        self.lists[b as usize].push(seq);
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
    /// cycles and one of `(ready cycle, seq)`, with stale completions
    /// popped lazily.
    struct HeapModel {
        now: u64,
        done: BinaryHeap<Reverse<u64>>,
        ready: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl HeapModel {
        fn new(now: u64) -> Self {
            Self {
                now,
                done: BinaryHeap::new(),
                ready: BinaryHeap::new(),
            }
        }

        fn advance(&mut self, now: u64, due: &mut Vec<u64>) {
            self.now = now;
            while let Some(&Reverse((cycle, seq))) = self.ready.peek() {
                if cycle > now {
                    break;
                }
                self.ready.pop();
                due.push(seq);
            }
        }

        fn next_done(&mut self) -> Option<u64> {
            while self.done.peek().is_some_and(|&Reverse(t)| t <= self.now) {
                self.done.pop();
            }
            self.done.peek().map(|&Reverse(t)| t)
        }
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

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push, advance and next-event sequences give the wheel
        /// and the two-heap model the same next completion after every
        /// call and the same promoted slots on every advance.
        #[test]
        fn wheel_matches_the_binary_heap_reference_model(
            at in start(),
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let mut wheel = TimingWheel::new(at);
            let mut model = HeapModel::new(at);
            let mut now = at;
            let mut seq = 0u64;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for op in ops {
                let to = match op {
                    Op::Done(d) => {
                        wheel.push_done(now + d);
                        model.done.push(Reverse(now + d));
                        now
                    }
                    Op::Ready(d) => {
                        seq += 1;
                        wheel.push_ready(now + d, seq);
                        model.ready.push(Reverse((now + d, seq)));
                        now
                    }
                    Op::Step(d) => now + d,
                    Op::Jump => model.next_done().unwrap_or(now + 1),
                };
                wheel.advance(to, &mut got);
                model.advance(to, &mut want);
                now = to;
                prop_assert_eq!(
                    sorted(std::mem::take(&mut got)),
                    sorted(std::mem::take(&mut want)),
                    "promoted slots at cycle {} after {:?}", now, op
                );
                prop_assert_eq!(
                    wheel.next_done(),
                    model.next_done(),
                    "next completion at cycle {} after {:?}", now, op
                );
            }
            // Drain: every entry still held comes due exactly once.
            let end = now + 20_000;
            wheel.advance(end, &mut got);
            model.advance(end, &mut want);
            prop_assert_eq!(sorted(got), sorted(want));
            prop_assert_eq!(wheel.next_done(), model.next_done());
        }
    }
}
