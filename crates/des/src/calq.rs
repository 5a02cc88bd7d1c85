//! The banded calendar queue, generic over its payload.
//!
//! The scheduler's pending queue is this structure over `WakeWhat`
//! payloads; it is generic so that its ordering and recycling can be
//! tested here with plain payloads, away from the scheduler.
//!
//! Keys live in one of three bands:
//! - `batch`: the *near* band — every key below `boundary` when the band
//!   was sealed, sorted once and popped front to back.
//! - `late`: keys pushed below `boundary` after the seal, in a binary
//!   min-heap: a push is one sift up from the bottom, a pop of its head
//!   one sift down, wherever in the band the key sorts.
//! - `far`: every key at or past `boundary`, unsorted — O(1) pushes,
//!   scanned linearly only when the near and late bands are both empty.
//!
//! A pop takes the smaller of the two heads, so the deep part of the
//! queue is only ever touched by batched linear scans. If the late heap
//! reaches [`LATE_CAP`] keys, both near bands go back to `far` and the
//! next pop seals a narrower window, so the heap is never more than 11
//! levels deep and the window follows wherever events are dense.
//!
//! Payloads sit still in the slab from push to pop (exactly two touches
//! each); slots recycle through a free list, so the steady state
//! allocates nothing no matter how deep the queue gets. A slot holds a
//! `T` itself, not an `Option<T>`, so an entry costs the payload's bytes
//! and no tag: a vacant slot holds `T::default()`. Pop order is the
//! total order on `(time, seq)` whichever band a key is in.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queue key: fires at `time`; its tie-break `seq` makes the schedule
/// deterministic, and `(time, seq)` is unique per entry. The payload lives
/// in the queue's slab under a slot, so a sort or an insert moves keys
/// only — payloads never travel through a band. `tag` is one word,
/// `seq << SLOT_BITS | slot`: as `(time, seq)` is unique, `(time, tag)`
/// orders exactly as `(time, seq)`, and a key is 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub time: Time,
    tag: u64,
}

/// Low bits of a key's tag that name its slot: 2^24 pending entries
/// (≈ 16.7 M: 1.3 GB of `WakeWhat` slots, keys and free list); the 40
/// above hold the tie-break (≈ 1.1 × 10^12 pushes a world).
const SLOT_BITS: u32 = 24;

impl Key {
    /// Panics, in every build, on a `seq` or a `slot` its bits cannot hold
    /// rather than silently changing the schedule.
    fn new(time: Time, seq: u64, slot: usize) -> Key {
        assert!(
            seq < 1 << 40,
            "tie-break {seq} overflows a queue key: a simulation schedules at most 2^40 entries"
        );
        assert!(
            slot < 1 << SLOT_BITS,
            "slot {slot} overflows a queue key: a simulation holds at most 2^24 pending entries"
        );
        let tag = seq << SLOT_BITS | slot as u64;
        Key { time, tag }
    }

    fn seq(self) -> u64 {
        self.tag >> SLOT_BITS
    }

    fn slot(self) -> usize {
        (self.tag & ((1 << SLOT_BITS) - 1)) as usize
    }
}

/// Migration batch sizing: aim for roughly this many keys per sorted
/// batch (scaled up for very deep queues so the linear far-scan stays
/// amortized against a proportionally larger batch).
const BATCH_TARGET: u64 = 1024;

/// When the late heap holds this many keys, the near band is flushed
/// back to `far` and re-migrated with a freshly (and therefore
/// narrower) computed window.
const LATE_CAP: usize = 2048;

/// A banded calendar queue over a slab of `T` payloads, ordered by the
/// total order on `(time, seq)`.
pub(crate) struct CalendarQueue<T> {
    /// Sorted near-band keys; `batch[cursor..]` are still pending.
    batch: Vec<Key>,
    cursor: usize,
    /// In-window pushes that arrived after the batch was sealed, a
    /// min-heap on `(time, seq)`.
    late: BinaryHeap<Reverse<Key>>,
    /// Out-of-window keys, unsorted.
    far: Vec<Key>,
    /// Smallest fire time in `far` (`Time::MAX` when empty).
    far_min: Time,
    /// Times `>= boundary` route to `far`; below it, to `late`.
    boundary: Time,
    /// Payloads by slot; a slot on `free` holds `T::default()`.
    slots: Vec<T>,
    free: Vec<u32>,
    /// Payloads ever written to the slab, for the unit tests that pin
    /// which entries skip it.
    #[cfg(test)]
    pushes: u64,
}

impl<T: Default> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            batch: Vec::new(),
            cursor: 0,
            late: BinaryHeap::new(),
            far: Vec::new(),
            far_min: Time::MAX,
            boundary: 0,
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(test)]
            pushes: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        (self.batch.len() - self.cursor) + self.late.len() + self.far.len()
    }

    /// Number of slab slots ever allocated (test observability: a
    /// recycling steady state must not grow this).
    #[cfg(test)]
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of entries ever pushed (test observability).
    #[cfg(test)]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// What a key must sort below to be the one the next
    /// [`Self::pop_due`]`(horizon)` returns, were it pushed: the smaller of
    /// the near band's head and the late heap's; `(far_min, 0)` while the
    /// far band holds anything — it keeps its minimum's time but not its
    /// tie-break, so a key on `far_min` must count as behind it; and
    /// `(horizon, u64::MAX)`, past which nothing pops. An empty far band
    /// bounds nothing. A caller about to push such a key only to pop it
    /// again can skip both.
    pub fn bound(&self, horizon: Time) -> (Time, u64) {
        let far = if self.far.is_empty() {
            (Time::MAX, u64::MAX)
        } else {
            (self.far_min, 0)
        };
        let heads = self
            .batch
            .get(self.cursor)
            .into_iter()
            .chain(self.late.peek().map(|k| &k.0));
        heads
            .map(|k| (k.time, k.seq()))
            .fold(far.min((horizon, u64::MAX)), Ord::min)
    }

    pub fn push(&mut self, time: Time, seq: u64, what: T) {
        #[cfg(test)]
        {
            self.pushes += 1;
        }
        let slot = self.free.pop().map_or(self.slots.len(), |i| i as usize);
        let key = Key::new(time, seq, slot);
        match self.slots.get_mut(slot) {
            Some(vacant) => *vacant = what,
            None => self.slots.push(what),
        }
        if time >= self.boundary {
            self.far_min = self.far_min.min(time);
            self.far.push(key);
        } else {
            self.late.push(Reverse(key));
            if self.late.len() >= LATE_CAP {
                self.flush_near();
            }
        }
    }

    /// Remove and return the earliest entry.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.pop_due(Time::MAX).map(|(time, _, what)| (time, what))
    }

    /// Remove and return the earliest entry — its time, its tie-break
    /// value and its payload — unless it fires after `horizon`.
    pub fn pop_due(&mut self, horizon: Time) -> Option<(Time, u64, T)> {
        loop {
            let near = self.batch.get(self.cursor).copied();
            let late = self.late.peek().map(|k| k.0);
            let use_late = match (near, late) {
                (Some(a), Some(b)) => b < a,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => {
                    if self.far.is_empty() || self.far_min > horizon {
                        return None;
                    }
                    self.migrate();
                    continue;
                }
            };
            let k = if use_late { late } else { near }.expect("head checked above");
            if k.time > horizon {
                return None;
            }
            // Every slot is pending or free, so a key naming a free slot
            // is one pending entry too many.
            let occupied = self.slots.len() - self.free.len();
            debug_assert!(self.len() == occupied, "pending slab slot occupied");
            let what = std::mem::take(&mut self.slots[k.slot()]);
            self.free.push(k.slot() as u32);
            if use_late {
                self.late.pop();
            } else {
                self.cursor += 1;
            }
            return Some((k.time, k.seq(), what));
        }
    }

    /// Seal a fresh near band: pick a time window starting at the far
    /// band's minimum, sized so roughly [`BATCH_TARGET`] keys fall in it
    /// (assuming an even spread), move those keys over, and sort them.
    fn migrate(&mut self) {
        debug_assert!(self.cursor == self.batch.len() && self.late.is_empty());
        let n = self.far.len() as u64;
        let mut t0 = Time::MAX;
        let mut t1 = 0;
        for k in &self.far {
            t0 = t0.min(k.time);
            t1 = t1.max(k.time);
        }
        let target = BATCH_TARGET.max(n / 8);
        let width = ((t1 - t0).saturating_mul(target) / n).max(1);
        let b = t0.saturating_add(width);
        self.batch.clear();
        self.cursor = 0;
        let mut far_min = Time::MAX;
        let mut i = 0;
        while i < self.far.len() {
            if self.far[i].time < b {
                let k = self.far.swap_remove(i);
                self.batch.push(k);
            } else {
                far_min = far_min.min(self.far[i].time);
                i += 1;
            }
        }
        self.boundary = b;
        self.far_min = far_min;
        self.batch.sort_unstable();
    }

    /// The near window turned out to sit in a dense region (the late
    /// heap filled up): return everything near to `far` and drop the
    /// boundary, so the next pop re-migrates with a window computed
    /// from the actual local density.
    fn flush_near(&mut self) {
        let late = self.late.drain().map(|Reverse(k)| k);
        for k in self.batch.drain(self.cursor..).chain(late) {
            self.far_min = self.far_min.min(k.time);
            self.far.push(k);
        }
        self.cursor = 0;
        self.batch.clear();
        self.boundary = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest tie-break value and slot a key holds.
    const MAX_SEQ: u64 = (1 << (64 - SLOT_BITS)) - 1;
    const MAX_SLOT: usize = (1 << SLOT_BITS) - 1;

    /// A tie-break value past the 40 bits a key keeps for it panics at the
    /// push, in optimised code too, rather than wrapping into a wrong order.
    #[test]
    #[should_panic(
        expected = "tie-break 1099511627776 overflows a queue key: a simulation schedules at most 2^40"
    )]
    fn a_seq_past_its_bits_panics() {
        CalendarQueue::new().push(0, MAX_SEQ + 1, ());
    }

    /// Likewise a slot past its 24 bits: a queue of zero-sized payloads
    /// whose slab already holds 2^24 of them (no storage), pushed once more.
    #[test]
    #[should_panic(
        expected = "slot 16777216 overflows a queue key: a simulation holds at most 2^24 pending"
    )]
    fn a_slot_past_its_bits_panics() {
        let mut q = CalendarQueue::new();
        q.slots = vec![(); MAX_SLOT + 1];
        q.push(0, 0, ());
    }

    #[test]
    fn pop_order_is_total_on_time_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(30, 2, "c");
        q.push(10, 1, "a");
        q.push(10, 0, "z");
        q.push(20, 3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["z", "a", "b", "c"]);
    }

    use proptest::prelude::*;

    /// A tie-break value over the packing's full range, its top edge often.
    fn any_seq() -> impl Strategy<Value = u64> {
        prop_oneof![0..=MAX_SEQ, Just(MAX_SEQ), Just(0)]
    }

    /// A slot over the packing's full range, its top edge often.
    fn any_slot() -> impl Strategy<Value = usize> {
        prop_oneof![0..=MAX_SLOT, Just(MAX_SLOT), Just(0)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

        /// Keys order exactly as their `(time, seq)` whatever slots they
        /// name, and hand all three back, over the packing's full ranges,
        /// both edges included. Times are drawn close, so ties on time are
        /// common; two entries never share a `(time, seq)`.
        #[test]
        fn keys_order_as_time_then_seq(
            a in (0..4u64, any_seq(), any_slot()),
            b in (0..4u64, any_seq(), any_slot()),
        ) {
            if (a.0, a.1) == (b.0, b.1) {
                return Ok(());
            }
            let (ka, kb) = (Key::new(a.0, a.1, a.2), Key::new(b.0, b.1, b.2));
            prop_assert_eq!(ka.cmp(&kb), (a.0, a.1).cmp(&(b.0, b.1)));
            prop_assert_eq!(ka == kb, false);
            prop_assert_eq!((ka.time, ka.seq(), ka.slot()), a);
        }

        /// A key below `bound(horizon)` is "next" exactly when pushing it
        /// and popping once up to `horizon` would hand it straight back —
        /// but for a successor's key on the far band's minimum time, which
        /// it leaves to the queue. Keys are sealed into the near band by a
        /// first pop, then pushed into the late heap and, when `far` says
        /// so, the far band. The probe is a process's `Resume`, on a fresh
        /// tie-break value (above every queued one), or a link's successor,
        /// on one a series reserved before some of the queued ones (odd,
        /// theirs even). Its time is drawn at random or equal to a band's
        /// head, and the horizon at random, at the probe, or just before it.
        #[test]
        fn bound_is_the_next_pop(
            sealed in prop::collection::vec(0..4u64, 1..8),
            pops in 1..4usize,
            later in prop::collection::vec(0..600u64, 0..12),
            far in any::<bool>(),
            which in 0..4u8,
            time in 0..600u64,
            fresh in any::<bool>(),
            reserved in 0..40u64,
            edge in 0..3u8,
            horizon in 0..700u64,
        ) {
            let mut q = CalendarQueue::new();
            let mut next_seq = 0;
            for t in sealed {
                q.push(t, next_seq, false);
                next_seq += 2;
            }
            for _ in 0..pops {
                q.pop();
            }
            // Without `far`, everything lands inside the sealed window.
            let window = if far { Time::MAX } else { q.boundary };
            for t in later.into_iter().map(|t| t % window).chain(far.then_some(1_000_000)) {
                q.push(t, next_seq, false);
                next_seq += 2;
            }
            prop_assert_eq!(far, !q.far.is_empty());
            let time = match which {
                1 => q.batch.get(q.cursor).map(|k| k.time),
                2 => q.late.peek().map(|k| k.0.time),
                3 => far.then_some(q.far_min),
                _ => None,
            }
            .unwrap_or(time);
            let seq = if fresh { next_seq } else { 2 * reserved + 1 };
            let horizon = match edge {
                1 => time,
                2 => time.saturating_sub(1),
                _ => horizon,
            };
            let said = (time, seq) < q.bound(horizon);
            let far_tie = far && time == q.far_min;
            q.push(time, seq, true);
            let was_next = q.pop_due(horizon) == Some((time, seq, true));
            prop_assert!(
                said == was_next || (!fresh && was_next && far_tie),
                "({time}, {seq}) up to {horizon}: below the bound {said}, next pop {was_next}"
            );
        }
    }

    /// The reference: every pending entry by `(time, seq)`.
    type Model = std::collections::BTreeMap<(Time, u64), u32>;

    /// Push `(time, seq)` with payload `id` into the queue and the model,
    /// unless the model already holds that key (a reserved tie-break drawn
    /// twice on one time).
    fn push_both(q: &mut CalendarQueue<u32>, model: &mut Model, time: Time, seq: u64, id: u32) {
        if let std::collections::btree_map::Entry::Vacant(at) = model.entry((time, seq)) {
            at.insert(id);
            q.push(time, seq, id);
        }
    }

    /// Whether the near or the late band holds anything: if not, the next
    /// pop migrates.
    fn near_held(q: &CalendarQueue<u32>) -> bool {
        q.cursor < q.batch.len() || !q.late.is_empty()
    }

    /// What `q.bound(horizon)` must say of the model's first entry: the
    /// entry itself while it sits in the near or the late band, its time
    /// alone while it sits in the far band (the `far_min` tie rule), and
    /// never more than `(horizon, u64::MAX)`.
    fn bound_of(q: &CalendarQueue<u32>, model: &Model, horizon: Time) -> (Time, u64) {
        let near = near_held(q);
        let first = model
            .keys()
            .next()
            .map(|&(t, s)| (t, if near { s } else { 0 }));
        first.map_or((horizon, u64::MAX), |k| k.min((horizon, u64::MAX)))
    }

    /// One `pop_due(horizon)` checked against the model: `bound` names the
    /// entry first, and the pop hands back the model's first entry due by
    /// `horizon`, or nothing when none is. Returns the popped time.
    fn pop_both(
        q: &mut CalendarQueue<u32>,
        model: &mut Model,
        horizon: Time,
    ) -> Result<Option<Time>, TestCaseError> {
        prop_assert_eq!(q.bound(horizon), bound_of(q, model, horizon));
        let due = model.first_key_value().filter(|(k, _)| k.0 <= horizon);
        let want = due.map(|(&(t, s), &id)| (t, s, id));
        prop_assert_eq!(q.pop_due(horizon), want);
        if let Some((t, s, _)) = want {
            model.remove(&(t, s));
        }
        Ok(want.map(|w| w.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// The queue against a reference model, a map on `(time, seq)`,
        /// through random interleavings of pushes inside the sealed window,
        /// past it and on the far band's minimum — on fresh tie-break
        /// values (even, above every queued one) and on reserved ones (odd,
        /// below some) — of pops up to random horizons, and of drains that
        /// empty the near and late bands so the next pop seals a fresh
        /// window; in about a quarter of the cases one burst of
        /// [`LATE_CAP`] in-window pushes flushes them. After every step `len` matches, and
        /// `bound` names the model's first entry; every pop hands back that
        /// entry when it is due by the pop's horizon, and nothing when not.
        #[test]
        fn the_queue_pops_as_its_reference_model(
            ops in prop::collection::vec((0..10u8, 0..1_000u64, any::<bool>(), 0..40u64), 1..160),
            burst in 0..320usize,
        ) {
            let mut q = CalendarQueue::new();
            let mut model = Model::new();
            let (mut now, mut next_seq, mut id) = (0, 0, 0u32);
            for (step, (op, x, fresh, reserved)) in ops.into_iter().enumerate() {
                let seq = if fresh { next_seq } else { 2 * reserved + 1 };
                next_seq += 2;
                id += 1;
                let horizon = now + x;
                match op {
                    0..=2 if q.boundary > now => {
                        let time = now + x % (q.boundary - now);
                        push_both(&mut q, &mut model, time, seq, id);
                    }
                    0..=3 => {
                        let time = q.boundary.max(now) + x;
                        push_both(&mut q, &mut model, time, seq, id);
                    }
                    4 if !q.far.is_empty() => {
                        let time = q.far_min;
                        push_both(&mut q, &mut model, time, seq, id);
                    }
                    4..=7 => {
                        if let Some(t) = pop_both(&mut q, &mut model, horizon)? {
                            now = t;
                        }
                    }
                    8 => {
                        while near_held(&q) {
                            now = pop_both(&mut q, &mut model, Time::MAX)?.expect("pending");
                        }
                    }
                    _ => {
                        while let Some(t) = pop_both(&mut q, &mut model, Time::MAX)? {
                            now = t;
                        }
                    }
                }
                if step == burst && q.boundary > now {
                    let window = q.boundary - now;
                    for i in 0..LATE_CAP as u64 {
                        let time = now + i * 7_919 % window;
                        id += 1;
                        push_both(&mut q, &mut model, time, next_seq, id);
                        next_seq += 2;
                    }
                    prop_assert_eq!((q.boundary, q.late.len()), (0, 0), "the burst flushed");
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.bound(horizon), bound_of(&q, &model, horizon));
            }
        }
    }

    #[test]
    fn bound_breaks_ties_by_full_key_and_defers_on_far_min() {
        let mut q = CalendarQueue::new();
        q.push(10, 4, ());
        q.push(20, 6, ());
        q.pop(); // seals a near band holding both keys
        assert_eq!(q.bound(Time::MAX), (20, 6), "batch head");
        q.push(15, 8, ()); // into the late heap
        assert_eq!(q.bound(Time::MAX), (15, 8), "late head");
        assert_eq!(q.bound(12), (12, u64::MAX), "horizon");
        q.push(10_000, 10, ()); // into the far band
        assert_eq!(q.bound(Time::MAX), (15, 8), "far band");
        q.pop();
        q.pop();
        assert_eq!(q.bound(Time::MAX), (10_000, 0), "far min");
        q.pop();
        assert_eq!(q.bound(Time::MAX), (Time::MAX, u64::MAX), "empty");
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.push(100, 0, 1u32);
        q.push(200, 1, 2u32);
        assert_eq!(q.pop_due(150), Some((100, 0, 1)));
        assert_eq!(q.pop_due(150), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(200), Some((200, 1, 2)));
    }

    /// A pop leaves its slot holding the default and puts it on the free
    /// list; the next push takes that slot and the pop after hands back
    /// the new payload, not the default, with the slab no larger.
    #[test]
    fn a_vacated_slot_holds_the_next_push() {
        let mut q = CalendarQueue::new();
        q.push(10, 0, "first");
        q.push(20, 1, "second");
        assert_eq!(q.pop(), Some((10, "first")));
        assert_eq!((q.slots[0], q.free.as_slice()), ("", &[0][..]));
        q.push(15, 2, "third");
        assert_eq!((q.slots[0], q.free.len(), q.slab_slots()), ("third", 0, 2));
        assert_eq!(q.pop(), Some((15, "third")));
        assert_eq!(q.pop(), Some((20, "second")));
        assert_eq!(q.pop(), None);
    }

    /// A key that names a vacant slot is a broken queue, caught at the pop
    /// in a debug build rather than handing out the vacant default.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pending slab slot occupied")]
    fn popping_a_vacant_slot_panics() {
        let mut q = CalendarQueue::new();
        q.push(10, 0, 1u32);
        q.pop();
        q.far.push(Key::new(20, 1, 0));
        q.far_min = 20;
        q.pop();
    }

    /// More than [`LATE_CAP`] in-window keys in mixed order: the late heap
    /// takes both appends (a key past every one pushed so far) and inserts
    /// (a key below one of them), the flush fires at the cap, and the
    /// pops that follow — across the flush's re-migration — come out in
    /// `(time, seq)` order with `bound` naming each one before it pops.
    #[test]
    fn a_full_late_run_flushes_and_pops_in_order() {
        let mut q = CalendarQueue::new();
        q.push(0, 0, ());
        q.push(1_000_000, 1, ());
        q.pop(); // seals a window reaching far past every key below
        let window = q.boundary;
        let (mut appends, mut inserts) = (0, 0);
        let mut largest = None;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut keys = vec![(1_000_000, 1)];
        for seq in 2..LATE_CAP as u64 + 102 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Every fourth key climbs past all the others; the rest land
            // anywhere in the first 100 µs.
            let time = if seq % 4 == 0 {
                200_000 + seq
            } else {
                1 + state % 100_000
            };
            assert!(time < window);
            if q.boundary == window {
                match largest {
                    Some(top) if (time, seq) < top => inserts += 1,
                    _ => appends += 1,
                }
                largest = largest.max(Some((time, seq)));
            }
            q.push(time, seq, ());
            keys.push((time, seq));
        }
        assert_eq!(appends + inserts, LATE_CAP, "the cap's push flushed");
        assert!(
            appends > 100 && inserts > 100,
            "{appends} appends, {inserts} inserts"
        );
        assert_eq!(
            (q.boundary, q.late.len()),
            (0, 0),
            "flushed to the far band"
        );
        keys.sort_unstable();
        let horizon = keys[keys.len() - 50].0;
        for &(time, seq) in keys.iter().take_while(|k| k.0 <= horizon) {
            let sorted_heads = q.cursor < q.batch.len() || !q.late.is_empty();
            let want = if sorted_heads { (time, seq) } else { (time, 0) };
            assert_eq!(q.bound(horizon), want);
            assert_eq!(q.pop_due(horizon), Some((time, seq, ())));
        }
        assert_eq!(q.bound(horizon), (horizon, u64::MAX));
        assert_eq!(q.pop_due(horizon), None);
        assert_eq!(q.len(), 49);
    }
}
