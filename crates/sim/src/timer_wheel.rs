//! Hierarchical timer wheel: the simulator's default event scheduler.
//!
//! The fast [`Scheduler`] implementation, selected by
//! [`SchedulerKind::Wheel`](crate::SchedulerKind). Each of `LEVELS`
//! levels holds `SLOTS` slots of width `SLOTS^level` ticks, a `u64`
//! occupancy bitmap per level turns "earliest non-empty slot" into one
//! `trailing_zeros`, and a pop either reads a level-0 slot (whose items
//! all share one exact time — only the `seq` tie-break needs a scan) or
//! cascades one higher-level slot down. Every item cascades at most
//! `LEVELS` times over its lifetime, so push and pop are O(1) amortized
//! with no per-pop scans of unrelated items — from a 9-site contended
//! run to the hundreds of thousands of heartbeat, lease and deadline
//! ticks queued at N = 10⁵ sites.
//!
//! **Determinism contract** (same as the heap): pops return the exact
//! minimum by `(time, seq)`, so replays are byte-identical across heap
//! and wheel scheduling. Slot coordinates are absolute
//! (`(time >> 6·level) & 63`), derived only from item times and the
//! monotone pop cursor — never from wall-clock state.
//!
//! Items beyond the wheel horizon (a different `SLOTS^LEVELS`-tick
//! block than the cursor's) wait in an *overflow* min-heap and migrate
//! into the wheel when the cursor's block reaches them; items pushed
//! behind the cursor (the simulator never does, but the scheduler
//! contract tolerates it) wait in a *past* min-heap that pops first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::scheduler::{Scheduler, Timed};

/// Bits per level: each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. Level `l` slots are `64^l` ticks wide, so the
/// wheel spans `64^LEVELS = 2^30 ≈ 1.07e9` ticks — comfortably past the
/// largest in-repo delay scripts (1e8-tick detection windows) before the
/// overflow heap is involved at all.
const LEVELS: usize = 5;
/// Chain terminator / empty slot marker.
const NONE: u32 = u32::MAX;

/// Index of the wheel level an item at `time` belongs to, given the
/// current cursor: the lowest level whose slot coordinate still
/// distinguishes `time` from `base`. `LEVELS` means "outside the
/// cursor's top-level block" (overflow).
#[inline]
fn level_of(time: u64, base: u64) -> usize {
    let xor = time ^ base;
    if xor == 0 {
        return 0;
    }
    ((63 - xor.leading_zeros()) / SLOT_BITS) as usize
}

/// Absolute slot coordinate of `time` at `level`.
#[inline]
fn slot_of(time: u64, level: usize) -> usize {
    ((time >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1)
}

/// The hierarchical timer-wheel scheduler.
///
/// Storage is a slot arena: items live in one flat `slots` array, each
/// (level, slot) pair heads an intrusive singly linked chain through the
/// parallel `next` array, and freed indices recycle through a free list
/// — steady state allocates nothing.
///
/// Invariants (all consequences of "the cursor never passes the minimum
/// wheel item"):
///
/// * every wheel item's time is `≥ base` and shares `base`'s top-level
///   block, so occupied slots are never *behind* the per-level cursor
///   coordinate and `trailing_zeros` of the raw bitmap finds the
///   earliest slot without masking;
/// * a level-0 slot holds items of exactly one time, so the in-slot
///   scan only minimizes `seq`;
/// * overflow items are in a *later* top-level block than every wheel
///   item, and past items are strictly *earlier* than everything else,
///   so the three stores never need cross-comparison at pop time.
#[derive(Debug)]
pub struct WheelScheduler<T> {
    /// Chain head per (level, slot), flattened: `heads[level * SLOTS + slot]`.
    heads: Vec<u32>,
    /// One occupancy bitmap per level; bit `s` set iff slot `s` has a chain.
    occ: [u64; LEVELS],
    /// Next slot index in the chain, parallel to `slots`.
    next: Vec<u32>,
    /// The arena. `None` slots are on the free list.
    slots: Vec<Option<T>>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// Scratch for cascades (reused, so cascades allocate only on growth).
    cascade_buf: Vec<u32>,
    /// Pop cursor: the last popped time (never decreases). Every wheel
    /// item's time is `≥ base` and in `base`'s top-level block.
    base: u64,
    /// Items in the wheel proper.
    wheel_len: usize,
    /// Items beyond the wheel horizon, ordered by the item `Ord`.
    overflow: BinaryHeap<Reverse<T>>,
    /// Items pushed behind the cursor, ordered by the item `Ord`.
    past: BinaryHeap<Reverse<T>>,
}

impl<T: Timed + Ord> WheelScheduler<T> {
    /// Creates an empty wheel with arena room for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        WheelScheduler {
            heads: vec![NONE; LEVELS * SLOTS],
            occ: [0; LEVELS],
            next: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            cascade_buf: Vec::new(),
            base: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            past: BinaryHeap::new(),
        }
    }

    /// Allocates an arena slot for `item` and returns its index.
    #[inline]
    fn alloc(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(item);
                s
            }
            None => {
                self.slots.push(Some(item));
                self.next.push(NONE);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Links arena index `idx` (holding an item at `time`) into its
    /// wheel chain. Caller guarantees `time ≥ base` and same top block.
    #[inline]
    fn link(&mut self, idx: u32, time: u64) {
        let level = level_of(time, self.base);
        debug_assert!(level < LEVELS, "linked item is within the wheel span");
        let slot = slot_of(time, level);
        let h = level * SLOTS + slot;
        self.next[idx as usize] = self.heads[h];
        self.heads[h] = idx;
        self.occ[level] |= 1 << slot;
        self.wheel_len += 1;
    }

    /// Whether `time` falls in the cursor's top-level block (i.e. the
    /// wheel proper can hold it).
    #[inline]
    fn in_span(&self, time: u64) -> bool {
        (time >> (SLOT_BITS * LEVELS as u32)) == (self.base >> (SLOT_BITS * LEVELS as u32))
    }

    /// Moves every overflow item that now fits the cursor's top-level
    /// block into the wheel.
    fn drain_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if !self.in_span(head.time()) {
                break;
            }
            let Reverse(item) = self.overflow.pop().expect("peeked overflow item");
            let time = item.time();
            let idx = self.alloc(item);
            self.link(idx, time);
        }
    }

    /// Unlinks the chain at `(level, slot)` and relinks each item at its
    /// new (lower) level after the cursor advanced into that slot's range.
    fn cascade(&mut self, level: usize, slot: usize) {
        let h = level * SLOTS + slot;
        let mut idx = self.heads[h];
        self.heads[h] = NONE;
        self.occ[level] &= !(1 << slot);
        self.cascade_buf.clear();
        while idx != NONE {
            self.cascade_buf.push(idx);
            idx = self.next[idx as usize];
        }
        self.wheel_len -= self.cascade_buf.len();
        // Relink by rewiring `next` pointers only; payloads never move.
        let mut buf = std::mem::take(&mut self.cascade_buf);
        for &i in &buf {
            let time = self.slots[i as usize]
                .as_ref()
                .expect("linked slot is occupied")
                .time();
            debug_assert!(
                level_of(time, self.base) < level,
                "cascade moves items down"
            );
            self.link(i, time);
        }
        buf.clear();
        self.cascade_buf = buf;
    }

    /// Pops the minimum-`seq` item from the level-0 slot `slot` (all its
    /// items share one exact time).
    fn pop_level0(&mut self, slot: usize) -> T {
        let h = slot;
        let mut best = NONE;
        let mut best_prev = NONE;
        let mut best_seq = u64::MAX;
        let mut prev = NONE;
        let mut idx = self.heads[h];
        while idx != NONE {
            let seq = self.slots[idx as usize]
                .as_ref()
                .expect("linked slot is occupied")
                .seq();
            if seq < best_seq {
                best_seq = seq;
                best = idx;
                best_prev = prev;
            }
            prev = idx;
            idx = self.next[idx as usize];
        }
        let after = self.next[best as usize];
        if best_prev == NONE {
            self.heads[h] = after;
        } else {
            self.next[best_prev as usize] = after;
        }
        if self.heads[h] == NONE {
            self.occ[0] &= !(1 << slot);
        }
        self.free.push(best);
        self.wheel_len -= 1;
        let item = self.slots[best as usize]
            .take()
            .expect("linked slot is occupied");
        self.base = item.time();
        item
    }
}

impl<T: Timed + Ord> Scheduler<T> for WheelScheduler<T> {
    fn push(&mut self, item: T) {
        let time = item.time();
        if time < self.base {
            self.past.push(Reverse(item));
        } else if !self.in_span(time) {
            self.overflow.push(Reverse(item));
        } else {
            let idx = self.alloc(item);
            self.link(idx, time);
        }
    }

    fn pop(&mut self) -> Option<T> {
        // Past items are strictly earlier than everything in the wheel
        // and the overflow (they were behind the cursor when pushed, and
        // the cursor never decreases), so they drain first — without
        // moving the cursor backwards.
        if let Some(Reverse(item)) = self.past.pop() {
            return Some(item);
        }
        loop {
            if self.wheel_len == 0 {
                // Wheel exhausted: jump the cursor to the overflow
                // minimum's block and migrate what now fits.
                let Reverse(head) = self.overflow.peek()?;
                self.base = head.time();
                self.drain_overflow();
                continue;
            }
            // Lowest non-empty level; its earliest occupied slot holds
            // (or leads to, via cascade) the global minimum: lower
            // levels are empty and everything at this level or above
            // sits at a later absolute coordinate.
            let level = self
                .occ
                .iter()
                .position(|&b| b != 0)
                .expect("wheel_len > 0 implies an occupied level");
            let slot = self.occ[level].trailing_zeros() as usize;
            if level == 0 {
                return Some(self.pop_level0(slot));
            }
            // Advance the cursor to the slot's range start, then spill
            // its chain into lower levels and retry.
            let width = SLOT_BITS * level as u32;
            let block = SLOT_BITS * (level + 1) as u32;
            self.base = ((self.base >> block) << block) | ((slot as u64) << width);
            self.cascade(level, slot);
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + self.past.len()
    }

    fn bulk_load(&mut self, items: Vec<T>) {
        // Insert order fixes the arena layout but not the pop order
        // (level-0 scans minimize `seq` explicitly), so a plain loop is
        // already byte-equivalent to sequential pushes — and each insert
        // is O(1), so there is no heapify-style batch win to chase.
        for item in items {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::HeapScheduler;
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

    fn drain<S: Scheduler<Item>>(q: &mut S) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(it) = q.pop() {
            out.push(it);
        }
        out
    }

    /// Differential under the simulator-shaped workload (pops
    /// interleaved with pushes at ever-later times, ties, far timers):
    /// the wheel must emit the byte-identical pop sequence as the
    /// reference heap.
    #[test]
    fn wheel_matches_heap_differentially() {
        let mut rng = StdRng::seed_from_u64(0xCA1E5DA2);
        let mut heap = HeapScheduler::with_capacity(16);
        let mut wheel = WheelScheduler::with_capacity(16);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut queued = 0usize;
        for _ in 0..20_000 {
            // Bias towards pushes while small, pops while large, so the
            // queue sweeps through growth and drain phases.
            let push = queued < 4 || (queued < 600 && rng.gen_bool(0.55));
            if push {
                seq += 1;
                // Mostly clustered near now + T, occasionally far out
                // (timer-like), occasionally at exactly `now` (tie-heavy).
                let dt = match rng.gen_range(0..10) {
                    0 => 0,
                    1..=7 => rng.gen_range(800..1200),
                    8 => rng.gen_range(0..100),
                    _ => rng.gen_range(50_000..500_000),
                };
                let item = Item {
                    time: now + dt,
                    seq,
                };
                heap.push(item);
                wheel.push(item);
                queued += 1;
            } else {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "heap and wheel diverged");
                now = a.expect("queued > 0").time;
                queued -= 1;
            }
        }
        assert_eq!(drain(&mut heap), drain(&mut wheel));
    }

    /// Items beyond the 2^30-tick top-level block go to the overflow
    /// heap and migrate back once the cursor's block reaches them.
    #[test]
    fn overflow_items_migrate_into_the_wheel() {
        let mut q = WheelScheduler::with_capacity(8);
        q.push(Item { time: 5, seq: 1 });
        q.push(Item {
            time: 3 << 30, // two top-level blocks out
            seq: 2,
        });
        assert_eq!(q.overflow.len(), 1, "far item waits in overflow");
        assert_eq!(q.pop().map(|i| i.seq), Some(1));
        // After the cursor jumps blocks, a push near the far item must
        // land in the wheel and still pop in exact order.
        q.push(Item {
            time: (3 << 30) + 10,
            seq: 3,
        });
        assert_eq!(
            q.pop(),
            Some(Item {
                time: 3 << 30,
                seq: 2
            })
        );
        assert_eq!(q.pop().map(|i| i.seq), Some(3));
        assert!(q.pop().is_none());
    }

    /// A push that lands inside the wheel span *later* than an item
    /// still sitting in overflow: the overflow item must still pop
    /// first (the drain runs against the live cursor, not insert-time
    /// state).
    #[test]
    fn overflow_item_beats_later_wheel_item() {
        let mut q = WheelScheduler::with_capacity(8);
        let block = 1u64 << 30;
        q.push(Item { time: 2, seq: 1 });
        q.push(Item {
            time: block + 100,
            seq: 2,
        });
        assert_eq!(q.pop().map(|i| i.seq), Some(1));
        assert_eq!(q.pop().map(|i| i.seq), Some(2)); // cursor now in block 1
        q.push(Item {
            time: 2 * block + 50, // overflow relative to block 1
            seq: 3,
        });
        q.push(Item {
            time: 2 * block + 80, // still overflow
            seq: 4,
        });
        assert_eq!(q.pop().map(|i| i.seq), Some(3));
        // seq 4 now drains into the wheel; a fresh same-block push after
        // it must not overtake it.
        q.push(Item {
            time: 2 * block + 60,
            seq: 5,
        });
        assert_eq!(q.pop().map(|i| i.seq), Some(5));
        assert_eq!(q.pop().map(|i| i.seq), Some(4));
    }

    #[test]
    fn sparse_times_cascade_across_levels() {
        // One item per level width: every pop exercises a cascade chain.
        let mut q = WheelScheduler::with_capacity(8);
        let times = [0u64, 63, 64, 4_095, 4_096, 262_143, 262_144, 16_777_215];
        for (i, &t) in times.iter().enumerate() {
            q.push(Item {
                time: t,
                seq: i as u64,
            });
        }
        let popped: Vec<u64> = drain(&mut q).iter().map(|i| i.time).collect();
        assert_eq!(popped, times);
    }

    /// A time step that crosses a high-level coordinate boundary by one
    /// tick briefly places near items at a high level; cascading must
    /// still pop them in exact order.
    #[test]
    fn boundary_crossing_keeps_exact_order() {
        let mut q = WheelScheduler::with_capacity(8);
        let b = (1u64 << 24) - 1; // top coordinate flips at +1
        q.push(Item { time: b, seq: 1 });
        q.push(Item {
            time: b + 1,
            seq: 2,
        });
        q.push(Item {
            time: b + 2,
            seq: 3,
        });
        assert_eq!(
            drain(&mut q),
            vec![
                Item { time: b, seq: 1 },
                Item {
                    time: b + 1,
                    seq: 2
                },
                Item {
                    time: b + 2,
                    seq: 3
                },
            ]
        );
    }
}
