//! `SimQueue`: a virtual-time-aware FIFO channel between simulation
//! entities. Items are pushed with a *visibility time* (e.g. the instant a
//! frame finishes arriving at a NIC) and poppers block until an item
//! becomes visible. Used by `netsim`'s TCP stack model, one queue per
//! connection direction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::process::ProcCtx;
use crate::sched::SimHandle;
use crate::signal::Signal;
use crate::time::Time;

struct Entry<T> {
    visible_at: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.visible_at == other.visible_at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.visible_at, self.seq).cmp(&(other.visible_at, other.seq))
    }
}

/// The queued items, and the insertion count that orders equal times.
struct Items<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    pushed: u64,
}

struct Inner<T> {
    items: Mutex<Items<T>>,
    signal: Signal,
    handle: SimHandle,
}

/// A cloneable, timestamped FIFO. FIFO order is by (visibility time,
/// insertion order), deterministic like everything else in the kernel.
pub struct SimQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for SimQueue<T> {
    fn clone(&self) -> Self {
        SimQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static> SimQueue<T> {
    /// Create a queue bound to the simulation behind `handle`.
    pub fn new(handle: &SimHandle) -> Self {
        SimQueue {
            inner: Arc::new(Inner {
                items: Mutex::new(Items {
                    heap: BinaryHeap::new(),
                    pushed: 0,
                }),
                signal: handle.new_signal(),
                handle: handle.clone(),
            }),
        }
    }

    /// Enqueue `item`, becoming visible to poppers at time `t`.
    pub fn push_at(&self, t: Time, item: T) {
        {
            let mut items = self.inner.items.lock();
            let seq = items.pushed;
            items.pushed += 1;
            items.heap.push(Reverse(Entry {
                visible_at: t,
                seq,
                item,
            }));
        }
        // Wake any popper once the item becomes visible.
        let signal = self.inner.signal.clone();
        self.inner
            .handle
            .schedule_at(t, move |fire| signal.notify_at(fire));
    }

    /// Pop the earliest visible item, blocking in virtual time until one
    /// exists.
    pub fn pop(&self, ctx: &mut ProcCtx) -> T {
        loop {
            let ticket = ctx.ticket(&self.inner.signal);
            if let Some(item) = self.try_pop(ctx.now()) {
                return item;
            }
            match self.head_at() {
                Some(t) => ctx.wait_until(t),
                None => ctx.wait(ticket),
            }
        }
    }

    /// Pop the earliest item already visible at `now`, if any.
    pub fn try_pop(&self, now: Time) -> Option<T> {
        self.inner.handle.assert_settled("polling a SimQueue");
        let mut items = self.inner.items.lock();
        let heap = &mut items.heap;
        match heap.peek() {
            Some(Reverse(e)) if e.visible_at <= now => heap.pop().map(|Reverse(e)| e.item),
            _ => None,
        }
    }

    /// When the earliest queued item becomes visible (`None` when nothing
    /// is queued).
    pub fn head_at(&self) -> Option<Time> {
        let items = self.inner.items.lock();
        items.heap.peek().map(|Reverse(e)| e.visible_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::Simulation;

    #[test]
    fn pop_blocks_until_visible() {
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        q.push_at(us(10), 42);
        let q2 = q.clone();
        sim.spawn("popper", move |ctx| {
            let v = q2.pop(ctx);
            assert_eq!(v, 42);
            assert_eq!(ctx.now(), us(10));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn pop_wakes_on_later_push() {
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        let q2 = q.clone();
        sim.spawn("popper", move |ctx| {
            let v = q2.pop(ctx);
            assert_eq!(v, 7);
            assert_eq!(ctx.now(), us(30));
        });
        let q3 = q.clone();
        sim.handle().schedule_at(us(30), move |t| q3.push_at(t, 7));
        assert!(sim.run().is_clean());
    }

    #[test]
    fn fifo_order_among_equal_times() {
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        q.push_at(us(1), 1);
        q.push_at(us(1), 2);
        q.push_at(us(1), 3);
        let q2 = q.clone();
        sim.spawn("popper", move |ctx| {
            assert_eq!(q2.pop(ctx), 1);
            assert_eq!(q2.pop(ctx), 2);
            assert_eq!(q2.pop(ctx), 3);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn earlier_visibility_wins_regardless_of_push_order() {
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        q.push_at(us(20), 20);
        q.push_at(us(5), 5);
        let q2 = q.clone();
        sim.spawn("popper", move |ctx| {
            assert_eq!(q2.pop(ctx), 5);
            assert_eq!(q2.pop(ctx), 20);
            assert_eq!(ctx.now(), us(20));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn try_pop_respects_visibility() {
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        q.push_at(us(10), 1);
        assert_eq!(q.try_pop(us(5)), None);
        assert_eq!(q.head_at(), Some(us(10)));
        assert_eq!(q.try_pop(us(10)), Some(1));
        assert_eq!(q.head_at(), None);
        drop(sim.run());
    }

    #[test]
    fn queue_drains_in_visibility_order_for_random_plans() {
        // Deterministic pseudo-random plan: push items with scattered
        // visibility times from an event; a single popper must receive
        // them sorted by (visibility, insertion order).
        let mut sim = Simulation::new();
        let q: SimQueue<(u64, u32)> = SimQueue::new(&sim.handle());
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut plan = Vec::new();
        for i in 0..50u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = us(1) + state % us(500);
            plan.push((t, i));
        }
        for &(t, i) in &plan {
            q.push_at(t, (t, i));
        }
        let mut expect = plan.clone();
        expect.sort_by_key(|&(t, i)| (t, i));
        let q2 = q.clone();
        sim.spawn("popper", move |ctx| {
            for &(t, i) in &expect {
                let (gt, gi) = q2.pop(ctx);
                assert_eq!((gt, gi), (t, i));
                assert!(ctx.now() >= gt, "popped before visibility");
            }
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn two_poppers_each_get_one_item() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut sim = Simulation::new();
        let q: SimQueue<u32> = SimQueue::new(&sim.handle());
        let sum = Arc::new(AtomicU32::new(0));
        for i in 0..2 {
            let q2 = q.clone();
            let sum = Arc::clone(&sum);
            sim.spawn(format!("p{i}"), move |ctx| {
                let v = q2.pop(ctx);
                sum.fetch_add(v, Ordering::Relaxed);
            });
        }
        q.push_at(us(1), 10);
        q.push_at(us(2), 32);
        assert!(sim.run().is_clean());
        assert_eq!(sum.load(Ordering::Relaxed), 42);
    }
}
