//! An all-to-all flag barrier — the shared-memory counterpart of the
//! paper's BBP barrier.
//!
//! Each process owns one word holding its *arrival count* (a monotonic
//! epoch number). To pass the barrier, a process publishes its new count
//! and polls until every peer's count has caught up. Monotonic counters
//! (rather than sense-reversal bits) make reuse safe on replicated
//! memory: a fast process that has already entered a later epoch shows a
//! count *greater* than the one a slow peer is waiting for, which still
//! satisfies the wait condition — stale replicas can only delay, never
//! deadlock.

use des::{ProcCtx, Time};
use scramnet::{Nic, WordAddr};

/// Layout: one arrival-count word per process, written only by its owner.
#[derive(Debug, Clone)]
pub struct SenseBarrier {
    base: WordAddr,
    n: usize,
}

impl SenseBarrier {
    /// Place a barrier for `n` processes at word offset `base`
    /// (occupies `n` words).
    pub fn layout(base: WordAddr, n: usize) -> Self {
        assert!(n >= 1);
        SenseBarrier { base, n }
    }

    /// Words this barrier occupies.
    pub fn words(&self) -> usize {
        self.n
    }

    fn flag(&self, p: usize) -> WordAddr {
        self.base + p
    }

    /// Bind to one process's NIC.
    pub fn handle(&self, nic: Nic) -> SenseBarrierHandle {
        assert!(nic.node() < self.n, "node outside the barrier's slots");
        SenseBarrierHandle {
            barrier: self.clone(),
            me: nic.node(),
            nic,
            epoch: 0,
        }
    }
}

/// Pause between poll rounds while waiting for the others.
const BACKOFF_NS: Time = 400;

/// One process's handle on a [`SenseBarrier`].
pub struct SenseBarrierHandle {
    barrier: SenseBarrier,
    nic: Nic,
    me: usize,
    /// Completed epochs (== the count this process has published).
    epoch: u32,
}

impl SenseBarrierHandle {
    /// Epochs completed so far by this process.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Enter the barrier; returns when every process has entered this
    /// epoch (or a later one).
    pub fn wait(&mut self, ctx: &mut ProcCtx) {
        let target = self
            .epoch
            .checked_add(1)
            .expect("barrier epoch overflow: re-create the barrier");
        self.nic.write_word(ctx, self.barrier.flag(self.me), target);
        for p in 0..self.barrier.n {
            if p == self.me {
                continue;
            }
            while self.nic.read_word(ctx, self.barrier.flag(p)) < target {
                ctx.advance(BACKOFF_NS);
            }
        }
        self.epoch = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use scramnet::{CostModel, Ring};

    #[test]
    fn no_one_exits_before_the_last_arrival() {
        let mut sim = Simulation::new();
        let n = 4;
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let b = SenseBarrier::layout(0, n);
        let mut procs: Vec<_> = (0..n)
            .map(|node| {
                let mut h = b.handle(ring.nic(node));
                sim.spawn(format!("p{node}"), move |ctx| {
                    ctx.wait_until(des::us(37 * node as u64));
                    let entered = ctx.now();
                    h.wait(ctx);
                    (entered, ctx.now())
                })
            })
            .collect();
        assert!(sim.run().is_clean());
        let (enters, exits): (Vec<_>, Vec<_>) = procs.iter_mut().map(|p| p.take().unwrap()).unzip();
        let last_in = *enters.iter().max().unwrap();
        let first_out = *exits.iter().min().unwrap();
        assert!(first_out >= last_in, "{first_out} < {last_in}");
    }

    #[test]
    fn barrier_is_reusable_across_epochs() {
        let mut sim = Simulation::new();
        let n = 3;
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let b = SenseBarrier::layout(8, n);
        let mut procs: Vec<_> = (0..n)
            .map(|node| {
                let mut h = b.handle(ring.nic(node));
                sim.spawn(format!("p{node}"), move |ctx| {
                    let mut log = Vec::new();
                    for round in 0..5u32 {
                        ctx.advance(1_000 * (node as u64 + 1));
                        h.wait(ctx);
                        log.push((round, node, ctx.now()));
                    }
                    assert_eq!(h.epoch(), 5);
                    log
                })
            })
            .collect();
        assert!(sim.run().is_clean());
        // No process exits round r+1 before every process entered round
        // r+1, which in turn is after it exited round r: rounds can
        // overlap in wall-clock (a fast process runs ahead) but each
        // process's own log must be strictly ordered and all exits of
        // round r must precede the LAST exit of round r+1.
        let log: Vec<_> = procs.iter_mut().flat_map(|p| p.take().unwrap()).collect();
        for r in 0..4u32 {
            let min_r = log.iter().filter(|e| e.0 == r).map(|e| e.2).min().unwrap();
            let max_next = log
                .iter()
                .filter(|e| e.0 == r + 1)
                .map(|e| e.2)
                .max()
                .unwrap();
            assert!(min_r <= max_next);
        }
        for node in 0..n {
            let times: Vec<u64> = log.iter().filter(|e| e.1 == node).map(|e| e.2).collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]), "per-process order");
        }
    }

    #[test]
    fn fast_process_reentry_cannot_deadlock_slow_peers() {
        // The exact scenario that breaks sense-reversal bits on
        // replicated memory: one process races ahead through many epochs
        // while another is slow. Monotonic counts must stay live.
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let b = SenseBarrier::layout(0, 2);
        let mut fast = b.handle(ring.nic(0));
        let mut slow = b.handle(ring.nic(1));
        sim.spawn("fast", move |ctx| {
            for _ in 0..10 {
                fast.wait(ctx); // no think time at all
            }
        });
        sim.spawn("slow", move |ctx| {
            for _ in 0..10 {
                ctx.advance(50_000);
                slow.wait(ctx);
            }
        });
        let report = sim.run();
        assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    }

    #[test]
    fn single_process_barrier_is_immediate() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let b = SenseBarrier::layout(0, 1);
        let mut h = b.handle(ring.nic(0));
        sim.spawn("p0", move |ctx| {
            h.wait(ctx);
            assert!(ctx.now() < 1_000, "one flag write only");
        });
        assert!(sim.run().is_clean());
    }
}
