//! The time-ordered event queue.
//!
//! The production [`EventQueue`] is a hierarchical timer wheel
//! (Varghese–Lauck style): O(1) schedule and amortized O(1) pop instead
//! of the `BinaryHeap`'s O(log n), which is what lets the simulator hold
//! 100k nodes' worth of in-flight events without the scheduler becoming
//! the bottleneck. Cancellation is eager: an [`EventId`] carries its
//! event's firing time, which names the one slot per wheel level the
//! entry can sit in, so `cancel` binary-searches those slots and removes
//! the entry on the spot. A heap-backed queue survives as the oracle in
//! `tests/queue_oracle.rs`, which the property tests drive in lockstep
//! with the wheel to prove the pop sequences are identical. See
//! DESIGN.md §16 for the full design notes.

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
    /// Firing time in microseconds: where `cancel` looks for the entry.
    at: u64,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// Firing time in microseconds (the raw [`SimTime`] value).
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

// Ordering: earliest time first; ties broken FIFO by sequence number.
// Used by the `past` side-heap, a max-heap, so the comparison is
// reversed.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
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

/// The slot an entry firing at `at` occupies on `level`: that level's
/// digit of the timestamp, whatever `base` is.
fn slot_of(at: u64, level: usize) -> usize {
    ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// A deterministic, time-ordered event queue with cancellation, backed by
/// a hierarchical timer wheel.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled (FIFO), which keeps simulations reproducible regardless of
/// the wheel's internals. Cancellation removes the entry at once, so the
/// queue stores exactly [`len`] entries however many schedule/cancel
/// pairs (e.g. MAC defer churn) it has seen.
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
/// assert_eq!(queue.pop_until(SimTime::from_secs(1)), None);
/// assert_eq!(queue.pop().map(|(_, e)| e), Some("late"));
/// assert!(queue.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` slot deques, level-major (`level * SLOTS + slot`).
    /// Invariant: every deque is sorted ascending by `(at, seq)` — direct
    /// schedules append (their seq is the largest stored), cascades merge.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One occupancy bit per slot, per level: set exactly when the
    /// slot's deque is non-empty.
    occupied: [u64; LEVELS],
    /// The wheel's origin: no wheel or overflow entry fires before
    /// `base`. Advanced only by [`pop_until`](Self::pop_until) (to the
    /// next event's time or slot band, never past its `until`) — never
    /// beyond a stored entry, so slot membership stays stable.
    base: u64,
    /// Entries scheduled strictly before `base`. The raw queue has no
    /// clock, so "past" schedules are legal; they are strictly earlier
    /// than every wheel entry and drain first. Empty in practice (the
    /// `Scheduler` clamps to `now`).
    past: BinaryHeap<Entry<E>>,
    /// Entries ≥ `SPAN` ahead of `base` when scheduled, unsorted;
    /// reseated into the wheel once `base` turns close enough.
    overflow: Vec<Entry<E>>,
    /// Minimum `at` over `overflow`; `u64::MAX` when the list is empty.
    overflow_min: u64,
    /// Entries stored across slots + past + overflow: the pending events.
    len: usize,
    next_seq: u64,
    /// This queue's identity, stamped into every [`EventId`] it mints so
    /// foreign ids are rejected instead of aliasing a local event.
    nonce: u64,
}

/// Inserts `entry` into a slot deque, keeping it sorted by `(at, seq)`.
/// Direct schedules always take the `push_back` fast path (their seq is
/// the maximum stored); only cascades and overflow reseats ever merge.
fn slot_insert<E>(deque: &mut VecDeque<Entry<E>>, entry: Entry<E>) {
    match deque.back() {
        Some(b) if b.key() > entry.key() => {
            let pos = deque.partition_point(|e| e.key() < entry.key());
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
            len: 0,
            next_seq: 0,
            nonce: NEXT_QUEUE_NONCE.fetch_add(1, AtomicOrdering::Relaxed),
        }
    }

    /// Schedules `event` to fire at instant `at` and returns a handle that
    /// can later be passed to [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let at = at.as_micros();
        self.insert_entry(Entry { at, seq, event });
        EventId {
            queue: self.nonce,
            at,
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
        let slot = slot_of(at, level);
        slot_insert(&mut self.slots[level * SLOTS + slot], entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancels a previously scheduled event, removing it from the queue.
    ///
    /// Returns `true` if the event was still pending; `false` if it has
    /// already fired, was already cancelled, or was minted by a
    /// *different* queue (sequence numbers are per-queue, so honouring a
    /// foreign id would silently cancel an unrelated event).
    ///
    /// Costs a binary search in the one slot `at` maps to on each
    /// occupied level, then a shift within the slot the entry leaves.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.queue != self.nonce {
            return false;
        }
        let removed = if id.at < self.base {
            // Only `past` holds entries before `base`.
            let before = self.past.len();
            self.past.retain(|e| e.seq != id.seq);
            self.past.len() < before
        } else {
            self.remove_from_wheel(id.at, id.seq) || self.remove_from_overflow(id.at, id.seq)
        };
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Removes the entry `(at, seq)` from whichever wheel level holds it.
    fn remove_from_wheel(&mut self, at: u64, seq: u64) -> bool {
        for level in 0..LEVELS {
            let slot = slot_of(at, level);
            if self.occupied[level] & (1 << slot) == 0 {
                continue;
            }
            let deque = &mut self.slots[level * SLOTS + slot];
            if let Ok(i) = deque.binary_search_by(|e| e.key().cmp(&(at, seq))) {
                deque.remove(i);
                if deque.is_empty() {
                    self.occupied[level] &= !(1 << slot);
                }
                return true;
            }
        }
        false
    }

    /// Removes the entry `(at, seq)` from the overflow list.
    fn remove_from_overflow(&mut self, at: u64, seq: u64) -> bool {
        if at < self.overflow_min {
            return false;
        }
        let Some(i) = self.overflow.iter().position(|e| e.seq == seq) else {
            return false;
        };
        self.overflow.swap_remove(i);
        self.overflow_min = self.overflow.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
        true
    }

    /// Moves every overflow entry within `SPAN` of `base` into the wheel.
    fn reseat_due_overflow(&mut self) {
        let mut kept = Vec::new();
        let mut min = u64::MAX;
        for entry in std::mem::take(&mut self.overflow) {
            if entry.at - self.base < SPAN {
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
    /// entry lands strictly below `level` (or fires at `base` itself,
    /// i.e. level 0's current slot).
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let mut deque = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.occupied[level] &= !(1 << slot);
        for entry in deque.drain(..) {
            debug_assert!(entry.at >= self.base && entry.at - self.base < SPAN);
            self.insert_entry(entry);
        }
    }

    /// The earliest occupied slot of `level` and its start: the instant
    /// itself on level 0, the band start above it. `None` when the
    /// level is empty.
    ///
    /// Every entry in a slot provably shares one band (all stored times
    /// lie in `[base, base + rotation)` for that level), so a slot's band
    /// start is read off its front entry rather than inferred from the
    /// cursor — inference goes wrong for the cursor slot itself, which
    /// can hold either the band containing `base` (entries that became
    /// due while lower levels were busy) or a full rotation later.
    fn level_next(&self, level: usize) -> Option<(u64, usize)> {
        let bits = self.occupied[level];
        if bits == 0 {
            return None;
        }
        let cur = slot_of(self.base, level) as u32;
        if level == 0 {
            let off = bits.rotate_right(cur).trailing_zeros();
            return Some((
                self.base + u64::from(off),
                ((cur + off) as usize) & (SLOTS - 1),
            ));
        }
        let band_mask = !((1u64 << (SLOT_BITS * level as u32)) - 1);
        let band_start = |slot: usize| {
            let front = self.slots[level * SLOTS + slot]
                .front()
                .expect("occupied slot is non-empty");
            (front.at & band_mask, slot)
        };
        // The cursor slot is either the earliest band at this level or
        // the latest; every other occupied slot falls in circular cursor
        // order, so the first of those is their minimum.
        let at_cursor = (bits & (1 << cur) != 0).then(|| band_start(cur as usize));
        let rest = bits & !(1 << cur);
        let after_cursor = (rest != 0).then(|| {
            let start = (cur + 1) & (SLOTS as u32 - 1);
            let off = rest.rotate_right(start).trailing_zeros();
            band_start(((start + off) as usize) & (SLOTS - 1))
        });
        at_cursor.into_iter().chain(after_cursor).min()
    }

    /// Finds the next slot the wheel must visit: the earliest level-0
    /// instant and, per upper level, the earliest occupied band start.
    /// Returns `(time, level, slot)`; the caller cascades if `level > 0`
    /// (ties prefer the *highest* level so same-instant entries finish
    /// cascading, in seq order, before any of them pops). `None` when
    /// the wheel is empty.
    fn find_next(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 0..LEVELS {
            if let Some((t, slot)) = self.level_next(level) {
                if best.is_none_or(|(best_t, _, _)| t <= best_t) {
                    best = Some((t, level, slot));
                }
            }
        }
        best
    }

    /// Removes and returns the earliest pending event with its firing time.
    ///
    /// Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `until`; otherwise returns `None` and leaves the pending
    /// events, [`len`](Self::len) and
    /// [`next_deadline`](Self::next_deadline) as they were.
    ///
    /// One wheel scan per event, where a deadline probe followed by
    /// [`pop`](Self::pop) takes two; and the wheel's origin never
    /// advances past `until`, so events the caller schedules next,
    /// relative to a clock still at or before `until`, enter the wheel.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let until = until.as_micros();
        // Past entries (scheduled before `base`) are strictly earlier
        // than everything in the wheel, so they drain first.
        if let Some(top) = self.past.peek() {
            if top.at > until {
                return None;
            }
            let entry = self.past.pop().expect("peeked entry exists");
            self.len -= 1;
            return Some((SimTime::from_micros(entry.at), entry.event));
        }
        loop {
            if self.occupied == [0; LEVELS] {
                // The wheel is idle: jump straight to the overflow's
                // earliest entry instead of turning through empty spans.
                if self.overflow_min > until {
                    return None;
                }
                self.base = self.base.max(self.overflow_min);
                self.reseat_due_overflow();
                continue;
            }
            if !self.overflow.is_empty() && self.overflow_min - self.base < SPAN {
                self.reseat_due_overflow();
            }
            let (t, level, slot) = self.find_next().expect("the wheel is occupied");
            if t > until {
                return None;
            }
            // An upper level's band start can lie at or before `base`
            // (entries that became due while lower levels were busy);
            // `base` itself never moves backwards.
            self.base = self.base.max(t);
            if level > 0 {
                self.cascade_slot(level, slot);
                continue;
            }
            let deque = &mut self.slots[slot];
            let entry = deque.pop_front().expect("occupied slot is non-empty");
            if deque.is_empty() {
                self.occupied[0] &= !(1 << slot);
            }
            self.len -= 1;
            return Some((SimTime::from_micros(entry.at), entry.event));
        }
    }

    /// Returns the firing time of the earliest pending event without
    /// removing it — and without mutating the queue: the front entry of
    /// each level's earliest slot, against `past` and the overflow.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(top) = self.past.peek() {
            return Some(SimTime::from_micros(top.at));
        }
        let earliest = (0..LEVELS)
            .filter_map(|level| {
                let (_, slot) = self.level_next(level)?;
                self.slots[level * SLOTS + slot].front().map(|e| e.at)
            })
            .fold(self.overflow_min, u64::min);
        Some(SimTime::from_micros(earliest))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Every entry the queue stores, wherever it sits.
    fn stored_entries<E>(q: &EventQueue<E>) -> usize {
        q.slots.iter().map(VecDeque::len).sum::<usize>() + q.past.len() + q.overflow.len()
    }

    #[test]
    fn tombstone_storm_keeps_storage_bounded() {
        let mut q = EventQueue::new();
        // A few long-lived events keep the queue non-trivial.
        for i in 0..10u64 {
            q.schedule(SimTime::from_secs(1000 + i), i as i64);
        }
        // Storm: schedule far-future events and cancel them immediately,
        // so none is ever reached by a pop.
        for i in 0..100_000 {
            let id = q.schedule(SimTime::from_secs(2000), i);
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 10);
        assert_eq!(
            stored_entries(&q),
            q.len(),
            "a cancel leaves nothing behind"
        );
        // Live events are all still there, in order.
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let mut live = Vec::new();
        // Interleave live and cancelled entries at one instant, so every
        // removal shifts a slot with ties in flight.
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
        assert_eq!(stored_entries(&q), live.len());
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, live, "FIFO tie order survives cancellation");
    }

    #[test]
    fn cancel_from_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), "now");
        q.pop();
        let past = q.schedule(SimTime::from_secs(1), "past");
        q.schedule(SimTime::from_secs(2), "past-2");
        q.schedule(SimTime::from_secs(200), "future");
        assert_eq!(q.past.len(), 2, "both land before the wheel's origin");
        assert!(q.cancel(past));
        assert!(!q.cancel(past), "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(stored_entries(&q), 2);
        assert_eq!(q.next_deadline(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "past-2")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(200), "future")));
    }

    #[test]
    fn cancel_from_overflow() {
        let mut q = EventQueue::new();
        let beyond = q.schedule(SimTime::from_micros(SPAN + 100), "beyond");
        let later = q.schedule(SimTime::from_micros(SPAN + 200), "later");
        q.schedule(SimTime::MAX, "sentinel");
        q.schedule(SimTime::from_micros(150), "near");
        assert_eq!(q.overflow.len(), 3);
        assert!(q.cancel(beyond));
        assert_eq!(
            q.overflow_min,
            SPAN + 200,
            "the minimum follows the removal"
        );
        assert_eq!(q.pop(), Some((SimTime::from_micros(150), "near")));
        // The wheel has turned to within `SPAN` of `later`, which still
        // waits in the overflow list: cancel finds it there.
        assert_eq!(q.overflow.len(), 2);
        assert!(q.cancel(later));
        assert!(!q.cancel(later));
        assert_eq!(q.next_deadline(), Some(SimTime::MAX));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
        assert_eq!(stored_entries(&q), 0);
    }

    #[test]
    fn cancel_from_upper_level_beside_a_level0_twin() {
        // "first" cascades from level 3 down to level 1 while "mover"
        // fires 10 µs before it; "second", scheduled then for the same
        // instant, lands at level 0. Each twin cancels from where it sits.
        let target = 1_000_000u64;
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_micros(target), "first");
        q.schedule(SimTime::from_micros(target - 10), "mover");
        assert_eq!(q.pop().map(|(_, e)| e), Some("mover"));
        let second = q.schedule(SimTime::from_micros(target), "second");
        assert_eq!(q.occupied[0], 1 << slot_of(target, 0));
        assert_eq!(q.occupied[1], 1 << slot_of(target, 1));

        let mut fork = q.clone();
        assert!(q.cancel(first), "found at level 1 past the level-0 twin");
        assert_eq!(q.occupied[1], 0);
        assert_eq!(q.pop(), Some((SimTime::from_micros(target), "second")));
        assert!(q.is_empty());

        assert!(fork.cancel(second), "found at level 0");
        assert_eq!(fork.occupied[0], 0);
        assert_eq!(fork.pop(), Some((SimTime::from_micros(target), "first")));
        assert!(fork.is_empty());
    }

    #[test]
    fn pop_until_leaves_later_events_and_the_origin_alone() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_000_000), "late");
        q.schedule(SimTime::from_micros(300), "early");
        let bound = SimTime::from_micros(500);
        assert_eq!(
            q.pop_until(bound),
            Some((SimTime::from_micros(300), "early"))
        );
        assert_eq!(q.pop_until(bound), None);
        assert_eq!(q.len(), 1);
        assert!(q.base <= 500, "the origin stayed at or before the bound");
        // What the caller schedules next, after the bound, enters the
        // wheel rather than the past heap.
        q.schedule(SimTime::from_micros(600), "next");
        assert!(q.past.is_empty());
        assert_eq!(q.next_deadline(), Some(SimTime::from_micros(600)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(600), "next")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(1_000_000), "late")));
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
