//! The time-ordered event queue.
//!
//! Since PR 8 the production [`EventQueue`] is a hierarchical timer wheel
//! (Varghese–Lauck style): O(1) amortized schedule/cancel/pop instead of
//! the `BinaryHeap`'s O(log n), which is what lets the simulator hold
//! 100k nodes' worth of in-flight events without the scheduler becoming
//! the bottleneck. A heap-backed queue survives as the oracle in
//! `tests/queue_oracle.rs`, which the property tests drive in lockstep
//! with the wheel to prove the pop sequences are identical. See
//! DESIGN.md §16 for the full design notes.

use crate::hash::FastSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-global source of queue identities. Every [`EventQueue`] mints
/// a distinct nonce at construction so an [`EventId`] can name the queue
/// that issued it. The value itself carries no meaning (it is only
/// compared for equality), so the allocation order across threads cannot
/// leak nondeterminism into a simulation.
static NEXT_QUEUE_NONCE: AtomicU64 = AtomicU64::new(0);

/// An opaque handle identifying a scheduled event, used to cancel it.
///
/// Ids are unique within one [`EventQueue`] and are never reused. An id
/// also remembers *which* queue minted it: passing it to a different
/// queue's [`EventQueue::cancel`] returns `false` instead of cancelling
/// an unrelated event that happens to share the sequence number. A
/// cloned queue keeps its parent's identity, so ids minted before the
/// clone remain valid on both copies (each side cancels independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    queue: u64,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// Firing time in microseconds (the raw [`SimTime`] value).
    at: u64,
    seq: u64,
    event: E,
}

// Ordering: earliest time first; ties broken FIFO by sequence number.
// Used by the `past` side-heap, a max-heap, so the comparison is
// reversed.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Number of wheel levels. Level `k` has 64 slots of width `64^k` µs, so
/// six levels cover `64^6` µs ≈ 19 hours of simulated time ahead of
/// `base`; anything further out waits in the unsorted overflow list.
const LEVELS: usize = 6;
/// log2 of the slots-per-level (64 slots ⇒ 6 bits of the timestamp per
/// level).
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Horizon of the wheel: deltas at or beyond `64^LEVELS` µs from `base`
/// go to the overflow list until the wheel turns far enough.
const SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Queues storing fewer than this many entries are never compacted: the
/// rebuild would cost more than the tombstones it reclaims.
const COMPACT_MIN_STORED: usize = 64;

/// A deterministic, time-ordered event queue with cancellation, backed by
/// a hierarchical timer wheel.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled (FIFO), which keeps simulations reproducible regardless of
/// the wheel's internals. Cancellation is lazy: a cancelled event stays in
/// its slot until the wheel reaches it — but when tombstones outnumber
/// live entries the storage is compacted in place, so a schedule/cancel
/// storm (e.g. MAC defer churn) cannot grow the queue far beyond [`len`].
///
/// Cloning a queue clones every pending event; the clone keeps the
/// parent's identity, so [`EventId`]s minted before the clone cancel on
/// either copy (independently), which is what forked simulations need.
///
/// [`len`]: Self::len
///
/// # Examples
///
/// ```
/// use pqs_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_secs(2), "late");
/// let id = queue.schedule(SimTime::from_secs(1), "early");
/// queue.schedule(SimTime::from_secs(1), "early-second");
/// assert!(queue.cancel(id));
/// assert_eq!(queue.pop().map(|(_, e)| e), Some("early-second"));
/// assert_eq!(queue.pop().map(|(_, e)| e), Some("late"));
/// assert!(queue.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` slot deques, level-major (`level * SLOTS + slot`).
    /// Invariant: every deque is sorted ascending by `(at, seq)` — direct
    /// schedules append (their seq is the largest alive), cascades merge.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One occupancy bit per slot, per level. A set bit may cover only
    /// tombstones; a clear bit always means an empty deque.
    occupied: [u64; LEVELS],
    /// The wheel's origin: no wheel entry fires before `base`. Advanced
    /// only by [`pop`](Self::pop) (to the next event's time or slot band)
    /// — never beyond a stored entry, so slot membership stays stable.
    base: u64,
    /// Entries scheduled strictly before `base`. The raw queue has no
    /// clock, so "past" schedules are legal; they are strictly earlier
    /// than every wheel entry and drain first. Empty in practice (the
    /// `Scheduler` clamps to `now`).
    past: BinaryHeap<Entry<E>>,
    /// Entries ≥ `SPAN` ahead of `base`, unsorted; reseated into the
    /// wheel once `base` turns close enough.
    overflow: Vec<Entry<E>>,
    /// Minimum `at` over `overflow` (including tombstones); `u64::MAX`
    /// when the list is empty.
    overflow_min: u64,
    /// Sequence numbers of events that are scheduled and not yet popped or
    /// cancelled. Makes `cancel` O(1); the stored entry of a cancelled
    /// event is discarded lazily when the wheel reaches it (or in bulk by
    /// the tombstone compaction). Seed-free hashing: iteration order is
    /// never observed, so determinism is unaffected.
    pending: FastSet<u64>,
    /// Total entries across slots + past + overflow; `stored -
    /// pending.len()` is the tombstone count driving compaction.
    stored: usize,
    next_seq: u64,
    /// This queue's identity, stamped into every [`EventId`] it mints so
    /// foreign ids are rejected instead of aliasing a local event.
    nonce: u64,
}

/// Inserts `entry` into a slot deque, keeping it sorted by `(at, seq)`.
/// Direct schedules always take the `push_back` fast path (their seq is
/// the maximum alive); only cascades and overflow reseats ever merge.
fn slot_insert<E>(deque: &mut VecDeque<Entry<E>>, entry: Entry<E>) {
    match deque.back() {
        Some(b) if (b.at, b.seq) > (entry.at, entry.seq) => {
            let pos = deque.partition_point(|e| (e.at, e.seq) < (entry.at, entry.seq));
            deque.insert(pos, entry);
        }
        _ => deque.push_back(entry),
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; LEVELS],
            base: 0,
            past: BinaryHeap::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            pending: FastSet::default(),
            stored: 0,
            next_seq: 0,
            nonce: NEXT_QUEUE_NONCE.fetch_add(1, AtomicOrdering::Relaxed),
        }
    }

    /// Schedules `event` to fire at instant `at` and returns a handle that
    /// can later be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.stored += 1;
        self.insert_entry(Entry {
            at: at.as_micros(),
            seq,
            event,
        });
        EventId {
            queue: self.nonce,
            seq,
        }
    }

    /// Routes an entry to the past heap, a wheel slot, or the overflow
    /// list according to its distance from `base`.
    fn insert_entry(&mut self, entry: Entry<E>) {
        let at = entry.at;
        if at < self.base {
            self.past.push(entry);
            return;
        }
        let delta = at - self.base;
        if delta >= SPAN {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push(entry);
            return;
        }
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        slot_insert(&mut self.slots[level * SLOTS + slot], entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending; `false` if it has
    /// already fired, was already cancelled, or was minted by a
    /// *different* queue (sequence numbers are per-queue, so honouring a
    /// foreign id would silently cancel an unrelated event).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.queue != self.nonce {
            return false;
        }
        let cancelled = self.pending.remove(&id.seq);
        if cancelled {
            self.maybe_compact();
        }
        cancelled
    }

    /// Rebuilds the storage without its tombstones once they outnumber the
    /// live entries. Pop order is unaffected: slot deques retain their
    /// relative order and entries never change slots.
    fn maybe_compact(&mut self) {
        if self.stored < COMPACT_MIN_STORED || self.stored - self.pending.len() <= self.stored / 2 {
            return;
        }
        let pending = &self.pending;
        for (level, bits) in self.occupied.iter_mut().enumerate() {
            let mut occupied = 0u64;
            for slot in 0..SLOTS {
                let deque = &mut self.slots[level * SLOTS + slot];
                deque.retain(|e| pending.contains(&e.seq));
                if !deque.is_empty() {
                    occupied |= 1 << slot;
                }
            }
            *bits = occupied;
        }
        self.past.retain(|e| pending.contains(&e.seq));
        self.overflow.retain(|e| pending.contains(&e.seq));
        self.overflow_min = self.overflow.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
        self.stored = self.pending.len();
    }

    /// Drops every stored entry (they are all tombstones once `pending`
    /// is empty) so a drained queue holds no memory of its churn. `base`,
    /// `next_seq` and the nonce are preserved.
    fn clear_storage(&mut self) {
        if self.stored == 0 {
            return;
        }
        for deque in &mut self.slots {
            deque.clear();
        }
        self.occupied = [0; LEVELS];
        self.past.clear();
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.stored = 0;
    }

    /// Moves every overflow entry within `SPAN` of `base` into the wheel,
    /// dropping tombstones along the way.
    fn reseat_due_overflow(&mut self) {
        let mut kept = Vec::new();
        let mut min = u64::MAX;
        for entry in std::mem::take(&mut self.overflow) {
            if !self.pending.contains(&entry.seq) {
                self.stored -= 1;
            } else if entry.at - self.base < SPAN {
                self.insert_entry(entry);
            } else {
                min = min.min(entry.at);
                kept.push(entry);
            }
        }
        self.overflow = kept;
        self.overflow_min = min;
    }

    /// Empties the slot at (`level`, `slot`) into the levels below it.
    /// Caller guarantees `base` equals the slot's band start, so every
    /// live entry lands strictly below `level` (or fires at `base`
    /// itself, i.e. level 0's current slot).
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let mut deque = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.occupied[level] &= !(1 << slot);
        for entry in deque.drain(..) {
            if self.pending.contains(&entry.seq) {
                debug_assert!(entry.at >= self.base && entry.at - self.base < SPAN);
                self.insert_entry(entry);
            } else {
                self.stored -= 1;
            }
        }
    }

    /// Finds the next slot the wheel must visit: the earliest level-0
    /// instant and, per upper level, the earliest occupied band start.
    /// Returns `(time, level, slot)`; the caller cascades if `level > 0`
    /// (ties prefer the *highest* level so same-instant entries finish
    /// cascading, in seq order, before any of them pops). At least one
    /// occupancy bit must be set.
    ///
    /// Every entry in a slot provably shares one band (all stored times
    /// lie in `[base, base + rotation)` for that level), so a slot's band
    /// start is read off its front entry rather than inferred from the
    /// cursor — inference goes wrong for the cursor slot itself, which
    /// can hold either the band containing `base` (entries that became
    /// due lazily) or a full rotation later.
    fn find_next(&self) -> (u64, usize, usize) {
        let mut best_t = u64::MAX;
        let mut best_level = 0usize;
        let mut best_slot = 0usize;
        let cur0 = (self.base & (SLOTS as u64 - 1)) as u32;
        let rot = self.occupied[0].rotate_right(cur0);
        if rot != 0 {
            let off = rot.trailing_zeros();
            best_t = self.base + u64::from(off);
            best_slot = ((cur0 + off) as usize) & (SLOTS - 1);
        }
        for level in 1..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let band_mask = !((1u64 << shift) - 1);
            let cur = ((self.base >> shift) & (SLOTS as u64 - 1)) as u32;
            let band_start = |slot: usize| {
                let front = self.slots[level * SLOTS + slot]
                    .front()
                    .expect("occupied slot is non-empty");
                front.at & band_mask
            };
            // The cursor slot is either the earliest band at this level
            // or the latest; every other occupied slot falls in circular
            // cursor order, so the first of those is their minimum.
            let mut t = u64::MAX;
            let mut slot = 0usize;
            if self.occupied[level] & (1 << cur) != 0 {
                slot = cur as usize;
                t = band_start(slot);
            }
            let rest = self.occupied[level] & !(1 << cur);
            if rest != 0 {
                let start = (cur + 1) & (SLOTS as u32 - 1);
                let off = rest.rotate_right(start).trailing_zeros();
                let s = (((start + off) & (SLOTS as u32 - 1)) as usize) & (SLOTS - 1);
                let ts = band_start(s);
                if ts < t {
                    t = ts;
                    slot = s;
                }
            }
            if t <= best_t {
                best_t = t;
                best_level = level;
                best_slot = slot;
            }
        }
        (best_t, best_level, best_slot)
    }

    /// Removes and returns the earliest pending event with its firing time.
    ///
    /// Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending.is_empty() {
            self.clear_storage();
            return None;
        }
        // Past entries (scheduled before `base`) are strictly earlier
        // than everything in the wheel, so they drain first.
        while let Some(top) = self.past.peek() {
            if self.pending.contains(&top.seq) {
                let entry = self.past.pop().expect("peeked entry exists");
                self.stored -= 1;
                self.pending.remove(&entry.seq);
                return Some((SimTime::from_micros(entry.at), entry.event));
            }
            self.past.pop();
            self.stored -= 1;
        }
        loop {
            if self.occupied == [0; LEVELS] {
                if self.overflow.is_empty() {
                    // pending is non-empty, so a live entry must be stored
                    // somewhere; reaching here would be a bookkeeping bug.
                    debug_assert!(false, "live events pending but none stored");
                    return None;
                }
                // The wheel is idle: jump straight to the overflow's
                // earliest entry instead of turning through empty spans.
                self.base = self.base.max(self.overflow_min);
                self.reseat_due_overflow();
                continue;
            }
            if !self.overflow.is_empty() && self.overflow_min - self.base < SPAN {
                self.reseat_due_overflow();
            }
            let (t, level, slot) = self.find_next();
            // An upper level's band start can lie at or before `base`
            // (entries that became due while lower levels were busy);
            // `base` itself never moves backwards.
            self.base = self.base.max(t);
            if level > 0 {
                self.cascade_slot(level, slot);
                continue;
            }
            let deque = &mut self.slots[slot];
            while let Some(entry) = deque.pop_front() {
                self.stored -= 1;
                if self.pending.remove(&entry.seq) {
                    if deque.is_empty() {
                        self.occupied[0] &= !(1 << slot);
                    }
                    return Some((SimTime::from_micros(entry.at), entry.event));
                }
            }
            // The slot held only tombstones; keep turning.
            self.occupied[0] &= !(1 << slot);
        }
    }

    /// Returns the firing time of the earliest pending event without
    /// removing it — and without mutating the queue, so read-only
    /// deadline probes no longer force an exclusive borrow.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.pending.is_empty() {
            return None;
        }
        let mut best = u64::MAX;
        let mut found = false;
        for entry in self.past.iter() {
            if self.pending.contains(&entry.seq) {
                best = best.min(entry.at);
                found = true;
            }
        }
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            // Walk occupied slots in circular (= chronological) order;
            // the first slot holding a live entry yields this level's
            // minimum, because slot deques are sorted by `(at, seq)`.
            // Above level 0 the cursor slot sits outside that order (it
            // holds either the earliest band or the latest), so it is
            // probed separately and min-merged.
            let shift = SLOT_BITS * level as u32;
            let cur = ((self.base >> shift) & (SLOTS as u64 - 1)) as u32;
            let live_min = |slot: usize| {
                self.slots[level * SLOTS + slot]
                    .iter()
                    .find(|e| self.pending.contains(&e.seq))
                    .map(|e| e.at)
            };
            let mut bits = self.occupied[level];
            let start = if level == 0 {
                cur
            } else {
                if bits & (1 << cur) != 0 {
                    if let Some(at) = live_min(cur as usize) {
                        best = best.min(at);
                        found = true;
                    }
                    bits &= !(1 << cur);
                }
                (cur + 1) & (SLOTS as u32 - 1)
            };
            let mut rot = bits.rotate_right(start);
            while rot != 0 {
                let off = rot.trailing_zeros();
                let slot = ((start + off) & (SLOTS as u32 - 1)) as usize;
                if let Some(at) = live_min(slot) {
                    best = best.min(at);
                    found = true;
                    break;
                }
                rot &= rot - 1;
            }
        }
        for entry in &self.overflow {
            if self.pending.contains(&entry.seq) {
                best = best.min(entry.at);
                found = true;
            }
        }
        debug_assert!(found, "pending non-empty but no live entry stored");
        found.then(|| SimTime::from_micros(best))
    }

    /// Returns the number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total stored entries including tombstones — the compaction
    /// bookkeeping, exposed for the storm tests.
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.stored
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(!q.cancel(b), "fired events cannot be cancelled");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.next_deadline(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn next_deadline_is_readonly_and_agrees_with_pop() {
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            let id = q.schedule(SimTime::from_micros(i % 29 * 1000), i);
            if i % 5 == 0 {
                q.cancel(id);
            }
        }
        // Heavy peeking between pops must not change what pops.
        let mut reference = q.clone();
        let mut peeked = Vec::new();
        let mut popped = Vec::new();
        while let Some(deadline) = q.next_deadline() {
            for _ in 0..3 {
                assert_eq!(q.next_deadline(), Some(deadline));
            }
            let (at, e) = q.pop().expect("deadline implies a live event");
            assert_eq!(at, deadline);
            peeked.push((at, e));
        }
        while let Some(p) = reference.pop() {
            popped.push(p);
        }
        assert_eq!(peeked, popped, "peeking perturbed pop order");
    }

    #[test]
    fn cancel_foreign_id_is_false() {
        let mut q1: EventQueue<()> = EventQueue::new();
        let mut q2 = EventQueue::new();
        let id = q2.schedule(SimTime::ZERO, ());
        let _ = q2;
        assert!(!q1.cancel(id));
    }

    #[test]
    fn cancel_foreign_id_never_hits_a_local_event() {
        // Regression: seq numbers are per-queue, so before ids carried a
        // queue nonce, a foreign id aliased whichever local event shared
        // its seq. Both queues are non-empty here so the alias exists.
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let local = q1.schedule(SimTime::from_secs(1), "local");
        let foreign = q2.schedule(SimTime::from_secs(1), "foreign");
        assert!(
            !q1.cancel(foreign),
            "a foreign id must be rejected, not alias seq {:?}",
            foreign
        );
        assert_eq!(
            q1.pop(),
            Some((SimTime::from_secs(1), "local")),
            "the local event must survive a foreign cancel"
        );
        assert!(!q2.cancel(local), "and symmetrically");
        assert_eq!(q2.pop(), Some((SimTime::from_secs(1), "foreign")));
    }

    #[test]
    fn cloned_queue_honours_parent_ids_independently() {
        let mut parent = EventQueue::new();
        let keep = parent.schedule(SimTime::from_secs(1), "keep");
        let drop_ = parent.schedule(SimTime::from_secs(2), "drop");
        let mut fork = parent.clone();
        // The fork cancels one event; the parent is unaffected.
        assert!(fork.cancel(drop_));
        assert_eq!(fork.len(), 1);
        assert_eq!(parent.len(), 2);
        // Parent-minted ids still work on the parent too.
        assert!(parent.cancel(drop_));
        assert!(parent.cancel(keep));
        assert_eq!(fork.pop(), Some((SimTime::from_secs(1), "keep")));
        // Events scheduled after the clone are private to each copy.
        let late = fork.schedule(SimTime::from_secs(3), "late");
        assert!(fork.cancel(late));
        assert!(parent.is_empty());
    }

    #[test]
    fn tombstone_storm_keeps_storage_bounded() {
        let mut q = EventQueue::new();
        // A few long-lived events keep the queue non-trivial.
        for i in 0..10u64 {
            q.schedule(SimTime::from_secs(1000 + i), i as i64);
        }
        // Storm: schedule far-future events and cancel them immediately,
        // so none is ever reached for lazy reclamation.
        for i in 0..100_000 {
            let id = q.schedule(SimTime::from_secs(2000), i);
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 10);
        assert!(
            q.stored_entries() <= 2 * COMPACT_MIN_STORED,
            "storage grew to {} entries under a cancel storm of 100k",
            q.stored_entries()
        );
        // Live events are all still there, in order.
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let mut live = Vec::new();
        // Interleave live and cancelled entries at one instant so the
        // compaction rebuild happens with ties in flight.
        for i in 0..512 {
            let id = q.schedule(t, i);
            if i % 3 == 0 {
                q.cancel(id);
            } else {
                live.push(i);
            }
        }
        for i in 512..4096 {
            let id = q.schedule(SimTime::from_secs(5), i);
            q.cancel(id);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, live, "FIFO tie order survives compaction");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn past_schedules_fire_before_wheel_entries() {
        // The raw queue has no clock: after popping at t=100s, scheduling
        // at t=1s is legal and must still fire before anything later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), "now");
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), "now")));
        q.schedule(SimTime::from_secs(200), "future");
        q.schedule(SimTime::from_secs(1), "past");
        q.schedule(SimTime::from_secs(2), "past-2");
        assert_eq!(q.next_deadline(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "past-2")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(200), "future")));
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut q = EventQueue::new();
        // One event beyond the wheel span, a sentinel at the far end of
        // time, and near-term traffic.
        q.schedule(SimTime::from_micros(SPAN + 5), "beyond-span");
        q.schedule(SimTime::MAX, "sentinel");
        q.schedule(SimTime::from_micros(10), "near");
        assert_eq!(q.next_deadline(), Some(SimTime::from_micros(10)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "near")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_micros(SPAN + 5), "beyond-span"))
        );
        assert_eq!(q.next_deadline(), Some(SimTime::MAX));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_survives_cascades() {
        // Schedule an event far enough out to sit in an upper level, then
        // (after the wheel turns close) a same-instant event that lands in
        // level 0 directly. The earlier seq must still pop first.
        let target = 1_000_000u64;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(target), "first");
        q.schedule(SimTime::from_micros(target - 3000), "mover");
        assert_eq!(q.pop().map(|(_, e)| e), Some("mover"));
        // The wheel's base is now close to `target`; this lands in a
        // lower level than "first".
        q.schedule(SimTime::from_micros(target), "second");
        assert_eq!(q.pop(), Some((SimTime::from_micros(target), "first")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(target), "second")));
    }
}
