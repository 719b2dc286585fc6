//! The simulator's future-event set: the scheduler interface, the
//! reference binary heap, and the enum that selects an implementation.
//!
//! Events are ordered by `(time, seq)` — delivery time with insertion
//! order as the total-order tie-break. Two interchangeable
//! implementations sit behind the [`Scheduler`] trait:
//!
//! * [`HeapScheduler`] — a `BinaryHeap`, O(log n) per operation. Kept as
//!   the differential-testing reference: CI runs the golden-counter
//!   suite under both schedulers and diffs the outputs.
//! * [`WheelScheduler`] — the hierarchical timer wheel (the default):
//!   O(1) amortized push and pop from per-level occupancy bitmaps, at
//!   every site count from 9 to 10⁵ (see [`crate::timer_wheel`]).
//!
//! **Determinism contract**: both schedulers pop the exact minimum by
//! `(time, seq)` — not merely *a* minimum-time event — so a replay
//! produces the identical event order under either implementation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::timer_wheel::WheelScheduler;

/// An item with the `(time, seq)` scheduling key.
///
/// Implementors must order their `Ord` exactly by `(time(), seq())` —
/// [`HeapScheduler`] sorts by `Ord` while [`WheelScheduler`] sorts by
/// the key pair, and the two must agree for differential testing to be
/// meaningful.
pub trait Timed {
    /// Scheduled virtual time.
    fn time(&self) -> u64;
    /// Insertion-order tie-break (unique per item).
    fn seq(&self) -> u64;
}

/// Which event-scheduler implementation the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The reference `BinaryHeap` scheduler.
    Heap,
    /// The hierarchical timer wheel (default).
    Wheel,
}

impl SchedulerKind {
    /// Parses `"heap"` / `"wheel"`; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(SchedulerKind::Heap),
            "wheel" => Some(SchedulerKind::Wheel),
            _ => None,
        }
    }

    /// The name [`SchedulerKind::parse`] accepts for this kind.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        }
    }

    /// Reads the `QMX_SCHEDULER` environment variable (`heap` or
    /// `wheel`), defaulting to [`SchedulerKind::Wheel`] when unset. This
    /// is how CI runs the *entire* golden-counter test suite under every
    /// scheduler without code changes.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typo in a CI matrix must fail
    /// loudly, not silently fall back to the default.
    pub fn from_env() -> Self {
        match std::env::var("QMX_SCHEDULER") {
            Ok(v) => Self::parse(&v)
                .unwrap_or_else(|| panic!("QMX_SCHEDULER must be 'heap' or 'wheel', got '{v}'")),
            Err(_) => SchedulerKind::Wheel,
        }
    }
}

impl Default for SchedulerKind {
    /// [`SchedulerKind::from_env`], so one environment variable switches
    /// every default-configured simulator in the process.
    fn default() -> Self {
        Self::from_env()
    }
}

/// A future-event set ordered by `(time, seq)`.
pub trait Scheduler<T: Timed + Ord> {
    /// Inserts one item.
    fn push(&mut self, item: T);
    /// Removes and returns the minimum item by `(time, seq)`.
    fn pop(&mut self) -> Option<T>;
    /// Number of queued items.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Inserts a batch (one heapify for the heap; the wheel's inserts
    /// are O(1) each, so it simply pushes them in order).
    fn bulk_load(&mut self, items: Vec<T>);
}

/// The reference scheduler: a min-heap over the item's `Ord`.
#[derive(Debug)]
pub struct HeapScheduler<T> {
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Ord> HeapScheduler<T> {
    /// Creates an empty heap with room for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapScheduler {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }
}

impl<T: Timed + Ord> Scheduler<T> for HeapScheduler<T> {
    fn push(&mut self, item: T) {
        self.heap.push(Reverse(item));
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(item)| item)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        if self.heap.is_empty() {
            // O(n) heapify instead of n * O(log n) sift-ups.
            self.heap = items.into_iter().map(Reverse).collect::<Vec<_>>().into();
        } else {
            // `BinaryHeap::extend` already rebuilds in bulk when the
            // batch is large relative to the existing heap.
            self.heap.extend(items.into_iter().map(Reverse));
        }
    }
}

/// The simulator's event queue: one of the two [`Scheduler`]s, selected
/// by [`SchedulerKind`] at construction. An enum rather than a boxed
/// trait object so the per-event hot path stays statically dispatched.
#[derive(Debug)]
pub enum EventQueue<T> {
    /// Reference binary heap.
    Heap(HeapScheduler<T>),
    /// Hierarchical timer wheel.
    Wheel(WheelScheduler<T>),
}

impl<T: Timed + Ord> EventQueue<T> {
    /// Creates the selected scheduler with room for `capacity` items.
    pub fn new(kind: SchedulerKind, capacity: usize) -> Self {
        match kind {
            SchedulerKind::Heap => EventQueue::Heap(HeapScheduler::with_capacity(capacity)),
            SchedulerKind::Wheel => EventQueue::Wheel(WheelScheduler::with_capacity(capacity)),
        }
    }
}

impl<T: Timed + Ord> Scheduler<T> for EventQueue<T> {
    fn push(&mut self, item: T) {
        match self {
            EventQueue::Heap(q) => q.push(item),
            EventQueue::Wheel(q) => q.push(item),
        }
    }

    fn pop(&mut self) -> Option<T> {
        match self {
            EventQueue::Heap(q) => q.pop(),
            EventQueue::Wheel(q) => q.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventQueue::Heap(q) => q.len(),
            EventQueue::Wheel(q) => q.len(),
        }
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        match self {
            EventQueue::Heap(q) => q.bulk_load(items),
            EventQueue::Wheel(q) => q.bulk_load(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Item {
        time: u64,
        seq: u64,
    }

    impl Timed for Item {
        fn time(&self) -> u64 {
            self.time
        }
        fn seq(&self) -> u64 {
            self.seq
        }
    }

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

    fn drain<S: Scheduler<Item>>(q: &mut S) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(it) = q.pop() {
            out.push(it);
        }
        out
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in KINDS {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("calendar"), None);
        assert_eq!(SchedulerKind::parse("splay"), None);
    }

    #[test]
    fn drains_in_time_seq_order() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind, 8);
            // Same time twice: seq must break the tie; plus out-of-order
            // inserts across several wheel levels.
            for (time, seq) in [(500, 1), (500, 2), (3, 3), (70_000, 4), (1024, 5), (500, 6)] {
                q.push(Item { time, seq });
            }
            let order: Vec<(u64, u64)> = drain(&mut q).iter().map(|i| (i.time, i.seq)).collect();
            assert_eq!(
                order,
                vec![(3, 3), (500, 1), (500, 2), (500, 6), (1024, 5), (70_000, 4)],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn bulk_load_matches_sequential_pushes() {
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<Item> = (1..=5_000)
            .map(|seq| Item {
                time: rng.gen_range(0..200_000),
                seq,
            })
            .collect();
        for kind in KINDS {
            let mut pushed = EventQueue::new(kind, 16);
            let mut loaded = EventQueue::new(kind, 16);
            for &it in &items {
                pushed.push(it);
            }
            loaded.bulk_load(items.clone());
            assert_eq!(loaded.len(), items.len());
            assert_eq!(drain(&mut pushed), drain(&mut loaded), "{kind:?}");
        }
    }

    #[test]
    fn bulk_load_on_top_of_existing_items_keeps_order() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind, 4);
            q.push(Item { time: 900, seq: 1 });
            q.push(Item { time: 100, seq: 2 });
            q.bulk_load((3..200).map(|seq| Item { time: seq * 7, seq }).collect());
            let drained = drain(&mut q);
            assert_eq!(drained.len(), 199);
            let mut sorted = drained.clone();
            sorted.sort();
            assert_eq!(drained, sorted, "{kind:?}");
        }
    }

    /// After a pop far out, pushes at exactly the popped tick and just
    /// after it (the simulator's zero-delay re-arms) must pop in
    /// `(time, seq)` order, as must one pushed behind it.
    #[test]
    fn pushes_at_and_behind_the_cursor_keep_order() {
        for kind in KINDS {
            let mut q = EventQueue::new(kind, 8);
            q.push(Item { time: 5, seq: 1 });
            q.push(Item {
                time: 80_000_000,
                seq: 2,
            });
            assert_eq!(q.pop().map(|i| i.seq), Some(1));
            assert_eq!(q.pop().map(|i| i.seq), Some(2));
            q.push(Item {
                time: 80_000_001,
                seq: 4,
            });
            q.push(Item {
                time: 80_000_000,
                seq: 3,
            });
            q.push(Item {
                time: 79_999_999,
                seq: 5,
            });
            let seqs: Vec<u64> = drain(&mut q).iter().map(|i| i.seq).collect();
            assert_eq!(seqs, vec![5, 3, 4], "{kind:?}");
        }
    }
}
