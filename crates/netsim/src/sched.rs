//! Pluggable event schedulers for the engine hot loop.
//!
//! The engine's contract is a *total order* over queued events: they fire in
//! ascending `(time, seq)`, where `seq` is allocated monotonically at
//! enqueue. Every byte of a run's output depends on that order, so the
//! scheduler is swappable only behind a differential harness
//! (`crates/core/tests/sched_equivalence.rs`) that proves two
//! implementations observationally identical.
//!
//! Two implementations ship:
//!
//! * [`HeapSched`] — the reference oracle: a plain `BinaryHeap` of
//!   [`QueuedEvent`]s. Trivially correct, `O(log n)` per operation, one
//!   allocation path per push (heap growth).
//! * [`WheelSched`] — the production default: a hierarchical timing wheel
//!   (calendar queue) with slab-allocated event storage. Events live in a
//!   reusable arena (`Vec` slab with an intrusive free list — no per-event
//!   heap traffic once warm), buckets are intrusive singly-linked lists,
//!   and dequeue drains a whole bucket at once into a sorted *batch* that
//!   subsequent pops consume in `(time, seq)` order.
//!
//! ## Why the wheel reproduces the heap's order exactly
//!
//! * Within a bucket, the drained batch is sorted by `(time, seq)` — the
//!   heap's exact tie-break. `(time, seq)` pairs are unique (`seq` is
//!   unique), so the sort is a total order and `sort_unstable` is safe.
//! * Across buckets, the wheel maintains the aligned-window invariant:
//!   level `l` holds exactly the events whose level-`(l+1)` tick equals the
//!   cursor's (level 0 is the cursor's current level-1 slot, level 1 the
//!   cursor's current level-2 slot, ...). A bucket is drained only after
//!   every lower-time bucket was drained or cascaded down, so batch `k`'s
//!   times all precede batch `k+1`'s.
//! * Events enqueued *while a batch is being consumed* either land at or
//!   after the wheel floor (simulation time never goes backwards, and a new
//!   event's `seq` exceeds every already-queued one, so a same-instant
//!   insert sorts after the batch's same-instant remainder) — or, for
//!   externally scheduled absolute times behind the floor, are spliced into
//!   the pending batch at their sorted position. Both paths preserve the
//!   global `(time, seq)` order.
//!
//! Geometry: 3 levels × 1024 slots, level-0 buckets of 2^16 ns ≈ 65.5 µs.
//! Level 0 spans ~67 ms (one core-link RTT fits), level 1 ~68.7 s (poll
//! timers), level 2 ~19.5 h (the human-noise +2 h timers and any survey
//! horizon). Anything further out sits in an overflow calendar keyed by
//! 19.5 h epochs and enters the wheel when its epoch begins.

use crate::node::HostId;
use crate::packet::Packet;
use crate::time::SimTime;
use crate::topology::Asn;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// What a queued event does when it fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a packet to the destination-side pipeline.
    Deliver {
        pkt: Packet,
        /// Origin AS recorded at send time, so destination-side border
        /// filters know whether a border is being crossed.
        from_asn: Asn,
        /// Destination AS resolved at send time. Routes are immutable
        /// during a run, so re-deriving it at delivery would do a second
        /// longest-prefix match for the same answer.
        dst_asn: Asn,
    },
    /// Fire a host timer.
    Timer { host: HostId, token: u64 },
}

/// One scheduled event. Ordering is **only** `(at, seq)` — the payload must
/// never influence it (equal-time events fire in enqueue order, which is
/// what makes runs reproducible and schedulers interchangeable).
#[derive(Debug)]
pub struct QueuedEvent {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Which scheduler implementation an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Binary-heap reference scheduler (the differential oracle).
    Heap,
    /// Hierarchical timing wheel (production default).
    #[default]
    Wheel,
}

/// The scheduler contract the engine drives.
///
/// `pop` must return queued events in ascending `(time, seq)` order —
/// byte-determinism of every run rests on that. `peek_time` may reorganize
/// internal storage (the wheel cascades), hence `&mut`.
pub trait EngineSched {
    /// Enqueue an event.
    fn push(&mut self, ev: QueuedEvent);
    /// Dequeue the `(time, seq)`-minimal event.
    fn pop(&mut self) -> Option<QueuedEvent>;
    /// Time of the next event without dequeuing it.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of queued events.
    fn len(&self) -> usize;
    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Drop every queued event.
    fn clear(&mut self);
    /// Number of queued `Deliver` events (in-flight packets).
    fn pending_delivers(&self) -> u64;
}

// ---------------------------------------------------------------------------
// HeapSched — the reference oracle
// ---------------------------------------------------------------------------

/// The classic `BinaryHeap` scheduler: the simplest thing that satisfies
/// the contract, kept as the differential oracle (tests select it with
/// [`SchedKind::Heap`]).
#[derive(Default)]
pub struct HeapSched {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    delivers: u64,
}

impl HeapSched {
    pub fn new() -> HeapSched {
        HeapSched::default()
    }
}

impl EngineSched for HeapSched {
    fn push(&mut self, ev: QueuedEvent) {
        if matches!(ev.kind, EventKind::Deliver { .. }) {
            self.delivers += 1;
        }
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        let Reverse(ev) = self.heap.pop()?;
        if matches!(ev.kind, EventKind::Deliver { .. }) {
            self.delivers -= 1;
        }
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.delivers = 0;
    }

    fn pending_delivers(&self) -> u64 {
        self.delivers
    }
}

// ---------------------------------------------------------------------------
// WheelSched — hierarchical timing wheel with slab storage
// ---------------------------------------------------------------------------

/// log2 of the level-0 bucket width in nanoseconds (2^16 ns ≈ 65.5 µs).
const SHIFT: u32 = 16;
/// log2 of the slot count per level.
const BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Slot-index mask.
const MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels (level 2 spans ~19.5 h).
const LEVELS: usize = 3;
/// Bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Null slab index.
const NIL: u32 = u32::MAX;

struct SlabEntry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
    /// Next entry in the same bucket list, or the free list.
    next: u32,
}

/// Hierarchical timing-wheel scheduler.
///
/// See the module docs for the geometry and the ordering argument. All
/// event payloads live in a slab arena reused across the run; buckets and
/// the free list are intrusive `u32` links, so a warm wheel performs no
/// allocation on push or pop.
pub struct WheelSched {
    slab: Vec<SlabEntry>,
    /// Free-list head into `slab`.
    free: u32,
    /// Bucket heads: `levels[l][slot]` is a slab index or `NIL`.
    levels: Vec<[u32; SLOTS]>,
    /// Occupancy bitmaps mirroring `levels` (find-next-set in O(words)).
    occupied: Vec<[u64; WORDS]>,
    /// Wheel floor in level-0 ticks: every event at a tick `< cursor` has
    /// been drained into `batch` (or popped).
    cursor: u64,
    /// The drained current bucket, sorted ascending by `(at, seq)`;
    /// consumed from `batch_pos`.
    batch: Vec<(SimTime, u64, u32)>,
    batch_pos: usize,
    /// Events beyond level 2's span, keyed by level-3 epoch (~19.5 h).
    overflow: BTreeMap<u64, Vec<u32>>,
    len: usize,
    delivers: u64,
}

impl Default for WheelSched {
    fn default() -> Self {
        WheelSched::new()
    }
}

impl WheelSched {
    pub fn new() -> WheelSched {
        WheelSched {
            slab: Vec::new(),
            free: NIL,
            levels: vec![[NIL; SLOTS]; LEVELS],
            occupied: vec![[0u64; WORDS]; LEVELS],
            cursor: 0,
            batch: Vec::new(),
            batch_pos: 0,
            overflow: BTreeMap::new(),
            len: 0,
            delivers: 0,
        }
    }

    fn alloc(&mut self, ev: QueuedEvent) -> u32 {
        let QueuedEvent { at, seq, kind } = ev;
        if self.free != NIL {
            let idx = self.free;
            let e = &mut self.slab[idx as usize];
            self.free = e.next;
            e.at = at;
            e.seq = seq;
            e.kind = kind;
            e.next = NIL;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(SlabEntry {
                at,
                seq,
                kind,
                next: NIL,
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> EventKind {
        let e = &mut self.slab[idx as usize];
        // Drop the payload now rather than when the slot is reused, so a
        // freed delivery does not pin its packet buffer.
        let kind = std::mem::replace(&mut e.kind, EventKind::Timer { host: 0, token: 0 });
        e.next = self.free;
        self.free = idx;
        kind
    }

    /// Link a slab entry into its bucket. The event's time must be at or
    /// past the wheel floor.
    fn insert_raw(&mut self, idx: u32) {
        let tick0 = self.slab[idx as usize].at.as_nanos() >> SHIFT;
        debug_assert!(tick0 >= self.cursor, "insert behind the wheel floor");
        for l in 0..LEVELS as u32 {
            // Aligned-window rule: level l holds the events sharing the
            // cursor's level-(l+1) tick.
            if (tick0 >> ((l + 1) * BITS)) == (self.cursor >> ((l + 1) * BITS)) {
                let slot = ((tick0 >> (l * BITS)) & MASK) as usize;
                let l = l as usize;
                self.slab[idx as usize].next = self.levels[l][slot];
                self.levels[l][slot] = idx;
                self.occupied[l][slot / 64] |= 1u64 << (slot % 64);
                return;
            }
        }
        let epoch = tick0 >> (LEVELS as u32 * BITS);
        self.overflow.entry(epoch).or_default().push(idx);
    }

    /// First occupied slot of `level` at index `start` or later.
    fn find_occupied(&self, level: usize, start: usize) -> Option<usize> {
        if start >= SLOTS {
            return None;
        }
        let words = &self.occupied[level];
        let mut w = start / 64;
        let mut word = words[w] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = words[w];
        }
    }

    /// Unlink and return the whole list at `levels[level][slot]`.
    fn take_bucket(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.levels[level][slot];
        self.levels[level][slot] = NIL;
        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        head
    }

    /// Cascade every event in `levels[level][slot]` down (re-routed by
    /// `insert_raw`, which places each at the lowest level whose aligned
    /// window now contains it).
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut idx = self.take_bucket(level, slot);
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.insert_raw(idx);
            idx = next;
        }
    }

    /// Ensure `batch` holds the next pending event. Returns false iff the
    /// wheel is empty.
    fn refill(&mut self) -> bool {
        if self.batch_pos < self.batch.len() {
            return true;
        }
        self.batch.clear();
        self.batch_pos = 0;
        if self.len == 0 {
            return false;
        }
        loop {
            // Top-down sync: pull everything belonging to the cursor's
            // current windows down before scanning level 0. Draining a
            // window's last bucket steps the cursor across a parent
            // boundary (always landing exactly on the new window's start),
            // and the new parent slot may hold events that must reach
            // level 0 before anything in the new window fires. Mid-window
            // these slots are empty by the insertion rule, so the check is
            // a bitmap read.
            if !self.overflow.is_empty() {
                let epoch = self.cursor >> (LEVELS as u32 * BITS);
                if let Some(idxs) = self.overflow.remove(&epoch) {
                    for idx in idxs {
                        self.insert_raw(idx);
                    }
                }
            }
            for level in (1..LEVELS).rev() {
                let slot = ((self.cursor >> (level as u32 * BITS)) & MASK) as usize;
                if self.occupied[level][slot / 64] & (1u64 << (slot % 64)) != 0 {
                    self.cascade(level, slot);
                }
            }
            // Drain the earliest occupied level-0 bucket of the current
            // window as one batch.
            if let Some(slot) = self.find_occupied(0, (self.cursor & MASK) as usize) {
                let tick = (self.cursor & !MASK) + slot as u64;
                let mut idx = self.take_bucket(0, slot);
                while idx != NIL {
                    let e = &self.slab[idx as usize];
                    self.batch.push((e.at, e.seq, idx));
                    idx = e.next;
                }
                // (at, seq) pairs are unique, so unstable sort is a total
                // order — this is the heap's exact tie-break.
                self.batch.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                self.cursor = tick + 1;
                return true;
            }
            // Current window exhausted: jump to the next occupied slot,
            // nearest level first (level-1 slots precede any level-2 slot,
            // which precede any overflow epoch — all are strictly beyond
            // the cursor's current window). The landing slot is cascaded
            // by the sync at the top of the next iteration.
            let cur1 = self.cursor >> BITS;
            if let Some(s) = self.find_occupied(1, ((cur1 & MASK) + 1) as usize) {
                self.cursor = ((cur1 & !MASK) + s as u64) << BITS;
                continue;
            }
            let cur2 = self.cursor >> (2 * BITS);
            if let Some(s) = self.find_occupied(2, ((cur2 & MASK) + 1) as usize) {
                self.cursor = ((cur2 & !MASK) + s as u64) << (2 * BITS);
                continue;
            }
            if let Some((&epoch, _)) = self.overflow.iter().next() {
                self.cursor = epoch << (LEVELS as u32 * BITS);
                continue;
            }
            debug_assert!(false, "len > 0 but no event found");
            return false;
        }
    }
}

impl EngineSched for WheelSched {
    fn push(&mut self, ev: QueuedEvent) {
        if matches!(ev.kind, EventKind::Deliver { .. }) {
            self.delivers += 1;
        }
        self.len += 1;
        let (at, seq) = (ev.at, ev.seq);
        let idx = self.alloc(ev);
        if (at.as_nanos() >> SHIFT) < self.cursor {
            // Behind the wheel floor: the event belongs to the region the
            // current batch was drained from. Splice it into the unconsumed
            // remainder at its sorted position. (The engine only enqueues
            // at or after `now`; this path exists for externally scheduled
            // absolute times and for same-bucket inserts mid-batch.)
            let pos = match self.batch[self.batch_pos..]
                .binary_search_by_key(&(at, seq), |&(a, s, _)| (a, s))
            {
                Ok(p) | Err(p) => self.batch_pos + p,
            };
            self.batch.insert(pos, (at, seq, idx));
        } else {
            self.insert_raw(idx);
        }
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        if !self.refill() {
            return None;
        }
        let (at, seq, idx) = self.batch[self.batch_pos];
        self.batch_pos += 1;
        if self.batch_pos == self.batch.len() {
            self.batch.clear();
            self.batch_pos = 0;
        }
        let kind = self.release(idx);
        self.len -= 1;
        if matches!(kind, EventKind::Deliver { .. }) {
            self.delivers -= 1;
        }
        Some(QueuedEvent { at, seq, kind })
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.refill() {
            Some(self.batch[self.batch_pos].0)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        for l in 0..LEVELS {
            self.levels[l] = [NIL; SLOTS];
            self.occupied[l] = [0u64; WORDS];
        }
        self.batch.clear();
        self.batch_pos = 0;
        self.cursor = 0;
        self.overflow.clear();
        self.len = 0;
        self.delivers = 0;
    }

    fn pending_delivers(&self) -> u64 {
        self.delivers
    }
}

// ---------------------------------------------------------------------------
// EventQueue — static dispatch over the two implementations
// ---------------------------------------------------------------------------

/// The engine's queue: one of the two schedulers, dispatched statically
/// (an enum, not a `dyn` object — the pop loop is the hottest code in the
/// simulator).
pub enum EventQueue {
    Heap(HeapSched),
    Wheel(WheelSched),
}

impl EventQueue {
    pub fn new(kind: SchedKind) -> EventQueue {
        match kind {
            SchedKind::Heap => EventQueue::Heap(HeapSched::new()),
            SchedKind::Wheel => EventQueue::Wheel(WheelSched::new()),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            EventQueue::Heap($q) => $body,
            EventQueue::Wheel($q) => $body,
        }
    };
}

impl EngineSched for EventQueue {
    fn push(&mut self, ev: QueuedEvent) {
        delegate!(self, q => q.push(ev))
    }
    fn pop(&mut self) -> Option<QueuedEvent> {
        delegate!(self, q => q.pop())
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        delegate!(self, q => q.peek_time())
    }
    fn len(&self) -> usize {
        delegate!(self, q => q.len())
    }
    fn clear(&mut self) {
        delegate!(self, q => q.clear())
    }
    fn pending_delivers(&self) -> u64 {
        delegate!(self, q => q.pending_delivers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(at_ns: u64, seq: u64) -> QueuedEvent {
        QueuedEvent {
            at: SimTime::from_nanos(at_ns),
            seq,
            kind: EventKind::Timer {
                host: 0,
                token: seq,
            },
        }
    }

    fn drain(q: &mut impl EngineSched) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push((ev.at.as_nanos(), ev.seq));
        }
        out
    }

    #[test]
    fn ordering_ignores_payload() {
        let a = timer(5, 1);
        let b = QueuedEvent {
            at: SimTime::from_nanos(5),
            seq: 1,
            kind: EventKind::Timer { host: 9, token: 7 },
        };
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn wheel_pops_in_time_seq_order() {
        let mut w = WheelSched::new();
        // Same tick, sub-bucket spread, cross-bucket, cross-level, overflow.
        let times = [
            7u64,
            7,
            7,
            100,
            65_537,
            10_000_000,
            60_000_000_000,
            7_200_000_000_000,
            1 << 47,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.push(timer(t, seq as u64));
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_matches_heap_on_interleaved_ops() {
        let mut w = WheelSched::new();
        let mut h = HeapSched::new();
        let mut x = 12345u64;
        let mut now = 0u64;
        for seq in 0..50_000u64 {
            x = crate::hash::splitmix64(x);
            let delta = match x % 7 {
                0 => 0,
                1 => x % 1_000,
                2 => x % 100_000,
                3 => 1_000_000 + x % 50_000_000,
                4 => 60_000_000_000,
                5 => 7_200_000_000_000,
                _ => (1 << 46) + (x % (1 << 46)),
            };
            w.push(timer(now + delta, seq));
            h.push(timer(now + delta, seq));
            if x.is_multiple_of(3) {
                let a = w.pop().map(|e| (e.at, e.seq));
                let b = h.pop().map(|e| (e.at, e.seq));
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        assert_eq!(w.len(), h.len());
        assert_eq!(drain(&mut w), drain(&mut h));
    }

    #[test]
    fn push_behind_floor_splices_into_batch() {
        let mut w = WheelSched::new();
        w.push(timer(10, 0));
        w.push(timer(20, 1));
        assert_eq!(w.pop().unwrap().seq, 0);
        // 10 and 20 share a 65 µs bucket, so the wheel floor has passed
        // both; an external absolute-time schedule behind the floor must
        // still fire before 20.
        w.push(timer(15, 2));
        assert_eq!(w.pop().map(|e| (e.at.as_nanos(), e.seq)), Some((15, 2)));
        assert_eq!(w.pop().map(|e| (e.at.as_nanos(), e.seq)), Some((20, 1)));
        assert!(w.pop().is_none());
    }

    #[test]
    fn clear_resets_and_counts_delivers() {
        let mut w = WheelSched::new();
        w.push(timer(1, 0));
        w.push(QueuedEvent {
            at: SimTime::from_nanos(2),
            seq: 1,
            kind: EventKind::Deliver {
                pkt: Packet::udp(
                    "192.0.2.1".parse().unwrap(),
                    "192.0.2.2".parse().unwrap(),
                    1,
                    1,
                    vec![],
                ),
                from_asn: Asn(1),
                dst_asn: Asn(1),
            },
        });
        assert_eq!(w.len(), 2);
        assert_eq!(w.pending_delivers(), 1);
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.pending_delivers(), 0);
        assert!(w.pop().is_none());
        // Still usable after a clear.
        w.push(timer(5, 2));
        assert_eq!(w.pop().unwrap().seq, 2);
    }

    #[test]
    fn peek_time_agrees_with_pop() {
        for kind in [SchedKind::Heap, SchedKind::Wheel] {
            let mut q = EventQueue::new(kind);
            for (seq, t) in [500u64, 3, 3, 90_000_000_000].into_iter().enumerate() {
                q.push(timer(t, seq as u64));
            }
            while let Some(t) = q.peek_time() {
                let ev = q.pop().unwrap();
                assert_eq!(ev.at, t);
            }
            assert!(q.is_empty());
        }
    }
}
