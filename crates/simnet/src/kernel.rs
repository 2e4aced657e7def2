//! Discrete-event kernel.
//!
//! A deliberately small core: the simulation *engine* (in `sagrid-simgrid`)
//! owns all world state and encodes behaviour in an event enum; this module
//! only guarantees a total, deterministic execution order.
//!
//! Ordering is `(time, seq)` where `seq` is a monotonically increasing
//! sequence number assigned at push time. Two events scheduled for the same
//! instant therefore execute in scheduling order, which (a) is deterministic
//! and (b) preserves intuitive causality: an event scheduled as a consequence
//! of another never runs before it.
//!
//! # Queue backends
//!
//! Two implementations share the `(time, seq)` contract and pop *identical*
//! sequences for identical push sequences:
//!
//! * [`QueueBackend::Wheel`] (default, used at every grid size) — a
//!   monotone radix heap over 1 µs timestamps. Events due at exactly
//!   `last` (the time of the last pop, i.e. the queue's `now`) wait in a
//!   FIFO head; every other event sits in one of 64 buckets, bucket `i`
//!   holding the events whose timestamp first differs from `last` at bit
//!   `i` (the highest set bit of `at XOR last`). When the head runs dry,
//!   the lowest occupied bucket (found in a `u64` bitmap) is taken,
//!   `last` moves to its minimum timestamp, and its events are re-filed:
//!   the minimum's events into the head, the rest into strictly lower
//!   buckets. Every event therefore moves at most 64 times, push is O(1)
//!   and pop O(1) amortized, and there is no horizon: any `u64` timestamp
//!   is filed the same way. Buckets store `(timestamp, payload)` pairs
//!   inline.
//! * [`QueueBackend::Heap`] — the original `BinaryHeap<ScheduledEvent>`;
//!   O(log n), kept as the oracle for equivalence tests.
//!
//! Why the pop order is identical: a bucket index is a pure function of
//! `at` and `last`, so all pending events with one timestamp sit in one
//! bucket (or all in the head). They entered it in push (= seq) order,
//! either pushed there directly or re-filed together, front to back, from
//! the bucket they shared before, so that bucket order is preserved. The
//! head is popped front to back and only ever holds timestamp `last`, and
//! every bucket holds only timestamps above `last`, so "head first, else
//! the minimum of the lowest occupied bucket" is always the global
//! `(time, seq)` minimum: all timestamps in bucket `i` agree with `last`
//! above bit `i` and have bit `i` set where `last` has it clear, so they
//! are smaller than every timestamp in bucket `i + 1` and above.

use sagrid_core::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which future-event-list implementation an [`EventQueue`] uses.
///
/// Both backends implement the same `(time, seq)` total order and are
/// observationally identical; `Wheel` is the fast default, `Heap` is the
/// reference implementation kept for equivalence testing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Monotone radix heap, O(1) amortized (default). The name predates
    /// the radix heap, which replaced a hierarchical timer wheel.
    #[default]
    Wheel,
    /// Binary min-heap oracle, O(log n).
    Heap,
}

/// An event plus its scheduled execution time.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-breaking sequence number (unique per queue).
    pub seq: u64,
    /// The engine-defined payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Monotone radix heap state (see module docs for the invariants).
#[derive(Debug)]
struct RadixHeap<E> {
    /// Events due at exactly `last`, in push order.
    head: VecDeque<E>,
    /// Bucket `i`: events whose timestamp first differs from `last` at
    /// bit `i`, in push order per timestamp.
    buckets: [Vec<(u64, E)>; 64],
    /// Smallest timestamp in each bucket (`u64::MAX` when empty), kept up
    /// to date on push so that taking a bucket needs no scan.
    mins: [u64; 64],
    /// Bucket-occupancy bitmap (bit `i` set ⇔ `buckets[i]` non-empty).
    occupied: u64,
    /// Timestamp of the last pop; no pending event is earlier.
    last: u64,
}

impl<E> RadixHeap<E> {
    fn new() -> Self {
        Self {
            head: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            occupied: 0,
            last: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: u64, event: E) {
        debug_assert!(at >= self.last);
        let x = at ^ self.last;
        if x == 0 {
            self.head.push_back(event);
        } else {
            let i = (63 - x.leading_zeros()) as usize;
            self.occupied |= 1u64 << i;
            self.mins[i] = self.mins[i].min(at);
            self.buckets[i].push((at, event));
        }
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        if self.head.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            // Advance `last` to the lowest bucket's minimum and re-file the
            // bucket: the minimum's events land in the head, the rest in
            // lower buckets (they now agree with `last` on bit `i` too).
            let i = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1u64 << i);
            let mut bucket = std::mem::take(&mut self.buckets[i]);
            self.last = std::mem::replace(&mut self.mins[i], u64::MAX);
            for (at, event) in bucket.drain(..) {
                self.push(at, event);
            }
            // Hand the (now empty) allocation back to avoid churn.
            self.buckets[i] = bucket;
        }
        let event = self.head.pop_front()?;
        Some((self.last, event))
    }

    fn peek_time(&self) -> Option<u64> {
        if !self.head.is_empty() {
            return Some(self.last);
        }
        (self.occupied != 0).then(|| self.mins[self.occupied.trailing_zeros() as usize])
    }
}

/// The future-event list behind an [`EventQueue`].
#[derive(Debug)]
enum Backend<E> {
    Radix(Box<RadixHeap<E>>),
    Heap(BinaryHeap<ScheduledEvent<E>>),
}

/// A deterministic future-event list with a virtual clock.
///
/// The clock only moves forward: popping an event advances `now()` to the
/// event's timestamp. Scheduling into the past is a logic error: it trips a
/// `debug_assert!` in debug builds, and in release builds the timestamp is
/// clamped to `now()` (the event still runs, at the earliest legal time, and
/// both backends agree on the resulting order — see [`EventQueue::push`]).
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero (radix-heap backend).
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Wheel)
    }

    /// An empty queue using the given backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self {
            backend: match backend {
                QueueBackend::Wheel => Backend::Radix(Box::new(RadixHeap::new())),
                QueueBackend::Heap => Backend::Heap(BinaryHeap::new()),
            },
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            len: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Radix(_) => QueueBackend::Wheel,
            Backend::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (for throughput benches).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// `at` must not be before `now()`: scheduling into the past violates
    /// causality. Debug builds assert; release builds clamp `at` to `now()`,
    /// so the event fires immediately after the current one (and, like any
    /// same-time tie, in push order). The clamp is part of the contract —
    /// both queue backends apply it before ordering, so they stay
    /// pop-for-pop identical even on this edge.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} < now={:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        match &mut self.backend {
            Backend::Radix(r) => r.push(at.0, event),
            Backend::Heap(h) => h.push(ScheduledEvent { at, seq, event }),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (simulation end).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = match &mut self.backend {
            Backend::Radix(r) => {
                let (at, event) = r.pop()?;
                (SimTime(at), event)
            }
            Backend::Heap(h) => {
                let ev = h.pop()?;
                (ev.at, ev.event)
            }
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        self.len -= 1;
        Some((at, event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Radix(r) => r.peek_time().map(SimTime),
            Backend::Heap(h) => h.peek().map(|e| e.at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
    use sagrid_core::time::SimDuration;

    fn both() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_backend(QueueBackend::Wheel),
            EventQueue::with_backend(QueueBackend::Heap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(3), "c");
            q.push(SimTime::from_secs(1), "a");
            q.push(SimTime::from_secs(2), "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{backend:?}");
        }
    }

    /// Equal-time events pop in push order, also when the tie is pushed in
    /// several rounds with a pop between them: each pop of an earlier event
    /// in the tie's radix bucket re-files that bucket, and the later rounds
    /// must still queue behind the earlier ones.
    #[test]
    fn ties_break_in_push_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(5);
            for (round, early_us) in [4_900_000u64, 4_990_000, 4_999_000, 4_999_900]
                .into_iter()
                .enumerate()
            {
                for i in 0..25 {
                    q.push(t, 25 * round as u64 + i);
                }
                let early = (SimTime(early_us), 1_000 + round as u64);
                q.push(early.0, early.1);
                assert_eq!(q.pop(), Some(early), "{backend:?}");
            }
            assert_eq!(q.peek_time(), Some(t), "{backend:?}");
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(2), ());
            q.push(SimTime::from_secs(1), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(1));
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(2));
            assert_eq!(q.processed(), 2);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_the_past_clamps_in_release() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(10), "first");
            q.push(SimTime::from_secs(10), "tie");
            q.push(SimTime::from_secs(12), "later");
            q.pop();
            q.push(SimTime::from_secs(5), "late-a"); // clamped to now = 10s
            q.push(SimTime::from_secs(3), "late-b"); // ditto, after late-a
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)), "{backend:?}");
            let order: Vec<(SimTime, &str)> = std::iter::from_fn(|| q.pop()).collect();
            let secs = SimTime::from_secs;
            assert_eq!(
                order,
                vec![
                    (secs(10), "tie"),
                    (secs(10), "late-a"),
                    (secs(10), "late-b"),
                    (secs(12), "later"),
                ],
                "{backend:?}"
            );
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_secs(1), 1u32);
            let (t, e) = q.pop().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(1), 1));
            // Schedule relative to now.
            q.push(q.now() + SimDuration::from_secs(1), 2);
            q.push(q.now() + SimDuration::from_millis(500), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 2);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(4), ());
            q.push(SimTime::from_secs(2), ());
            q.push(SimTime::from_secs(2), ());
            q.push(SimTime::from_secs(3), ());
            // Peeking never moves the clock or drops an event.
            while let Some(t) = q.peek_time() {
                assert_eq!(q.peek_time(), Some(t), "{backend:?}");
                assert_eq!(q.pop().map(|(at, _)| at), Some(t), "{backend:?}");
                assert_eq!(q.now(), t, "{backend:?}");
            }
            assert!(q.is_empty());
        }
    }

    /// Bits 36 and up: the horizon of the 6×64 timer wheel that the radix
    /// heap replaced. The radix heap has no horizon; events past it, up to
    /// `u64::MAX`, are filed like any other.
    const OLD_HORIZON_US: u64 = 1 << 36;

    /// Far-future events, up to `u64::MAX`, pop in exact `(time, seq)`
    /// order.
    #[test]
    fn far_future_events_keep_total_order() {
        let far = SimTime(OLD_HORIZON_US) + SimDuration::from_secs(7);
        let max = SimTime(u64::MAX);
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(max, "max-a");
            q.push(far, "far-a");
            q.push(SimTime::from_secs(1), "near");
            q.push(far, "far-b"); // same instant: push order must hold
            q.push(SimTime(u64::MAX - 1), "max-1");
            q.push(far + SimDuration::from_micros(1), "far-c");
            q.push(max, "max-b");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)), "{backend:?}");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(
                order,
                vec!["near", "far-a", "far-b", "far-c", "max-1", "max-a", "max-b"],
                "{backend:?}"
            );
            assert_eq!(q.now(), max);
            // A tie at the largest timestamp still queues in push order.
            q.push(max, "end-a");
            q.push(max, "end-b");
            assert_eq!(q.pop(), Some((max, "end-a")), "{backend:?}");
            assert_eq!(q.pop(), Some((max, "end-b")), "{backend:?}");
        }
    }

    /// Pushing while popping with a mix of near and multi-day offsets: the
    /// radix heap and the heap pop identical sequences.
    #[test]
    fn far_events_interleave_with_near_events() {
        let [mut radix, mut heap] = both();
        let mut rng = Xoshiro256StarStar::seeded(0xB10C);
        let mut pushes: Vec<(SimTime, u64)> = Vec::new();
        for i in 0..2_000u64 {
            // Mix of near (µs..s) and far (multi-day) offsets.
            let offset = if rng.gen_index(4) == 0 {
                OLD_HORIZON_US * (1 + rng.gen_range(3))
            } else {
                1 + rng.gen_range(1_000_000)
            };
            pushes.push((SimTime(offset), i));
        }
        for &(t, i) in &pushes {
            radix.push(t, i);
            heap.push(t, i);
        }
        let mut popped = 0u64;
        while let Some((rt, ri)) = radix.pop() {
            let (ht, hi) = heap.pop().expect("heap ran dry first");
            assert_eq!((rt, ri), (ht, hi), "divergence after {popped} pops");
            popped += 1;
            // Keep some churn going mid-drain.
            if popped.is_multiple_of(7) && popped < 1_000 {
                let t = radix.now() + SimDuration::from_micros(1 + rng.gen_range(1u64 << 37));
                let tag = 1_000_000 + popped;
                radix.push(t, tag);
                heap.push(t, tag);
            }
        }
        assert!(heap.pop().is_none());
        assert_eq!(radix.len(), 0);
    }

    /// Steady-state churn with realistic inter-event gaps: the radix heap
    /// and the heap pop byte-identical `(time, payload)` sequences.
    #[test]
    fn wheel_matches_heap_under_churn() {
        let mut rng = Xoshiro256StarStar::seeded(0x5EED_0001);
        let [mut wheel, mut heap] = both();
        for i in 0..200u64 {
            let t = SimTime(rng.gen_range(2_000_000));
            wheel.push(t, i);
            heap.push(t, i);
        }
        for step in 0..20_000u64 {
            let (wt, wi) = wheel.pop().expect("wheel empty");
            let (ht, hi) = heap.pop().expect("heap empty");
            assert_eq!((wt, wi), (ht, hi), "divergence at step {step}");
            // 1-in-8 chance of a same-time push (tie churn), otherwise a
            // spread of near-future gaps like the grid engine produces.
            let gap = match rng.gen_index(8) {
                0 => 0,
                1..=4 => 100 + rng.gen_range(10_000),
                5 | 6 => 1 + rng.gen_range(1_000_000),
                _ => 1 + rng.gen_range(100_000_000),
            };
            let t = wheel.now() + SimDuration::from_micros(gap);
            wheel.push(t, step);
            heap.push(t, step);
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
        }
    }
}
