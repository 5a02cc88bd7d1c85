//! Lamport's bakery algorithm over replicated memory.
//!
//! The bakery algorithm needs only single-writer *safe* registers, so it
//! is one of the few mutual-exclusion algorithms that is correct on a
//! non-coherent reflective-memory network, where a remote read may
//! return a stale value during propagation (our words are *regular*,
//! which is stronger than safe).

use des::{ProcCtx, Time};
use scramnet::{Nic, WordAddr};

/// Shared-memory layout of one bakery lock for `n` processes:
/// `choosing[n]` then `number[n]`, each word written only by its owner.
#[derive(Debug, Clone)]
pub struct BakeryLock {
    base: WordAddr,
    n: usize,
}

impl BakeryLock {
    /// Place a lock for `n` processes at word offset `base`.
    pub fn layout(base: WordAddr, n: usize) -> Self {
        assert!(n >= 1, "a lock needs at least one participant");
        BakeryLock { base, n }
    }

    /// Words this lock occupies (reserve them when planning memory).
    pub fn words(&self) -> usize {
        2 * self.n
    }

    fn choosing(&self, p: usize) -> WordAddr {
        self.base + p
    }

    fn number(&self, p: usize) -> WordAddr {
        self.base + self.n + p
    }

    /// Bind the lock to one process's NIC. The NIC's node id is the
    /// process's identity in the lock (must be `< n`).
    pub fn handle(&self, nic: Nic) -> BakeryHandle {
        assert!(
            nic.node() < self.n,
            "node {} outside the lock's {} slots",
            nic.node(),
            self.n
        );
        // Worst-case one-way propagation of a doorway write: full ring
        // transit plus queueing behind every other contender's doorway
        // writes (3 words each) — then doubled, per the correctness
        // argument in `lock()`.
        let c = nic.cost_model();
        let ring_n = nic.ring_nodes() as u64;
        let transit = (ring_n - 1) * c.hop_ns + c.fixed_word_ns;
        let queueing = 3 * ring_n * c.fixed_word_ns;
        let settle = 2 * (transit + queueing);
        BakeryHandle {
            lock: self.clone(),
            me: nic.node(),
            nic,
            settle_ns: settle,
        }
    }
}

/// Pause between poll rounds while waiting (PIO reads are costly).
const BACKOFF_NS: Time = 400;

/// One process's handle on a [`BakeryLock`].
pub struct BakeryHandle {
    lock: BakeryLock,
    nic: Nic,
    me: usize,
    /// Post-doorway settle delay covering write propagation (see
    /// [`BakeryHandle::lock`]).
    settle_ns: Time,
}

impl BakeryHandle {
    /// Acquire the lock (doorway + waiting phase). Virtual time passes
    /// while contending; deadlock-free and FIFO by ticket order.
    pub fn lock(&mut self, ctx: &mut ProcCtx) {
        let l = &self.lock;
        // Doorway: pick a number one larger than anything visible.
        self.nic.write_word(ctx, l.choosing(self.me), 1);
        let mut max = 0;
        for p in 0..l.n {
            let num = self.nic.read_word(ctx, l.number(p));
            max = max.max(num);
        }
        let ticket = max
            .checked_add(1)
            .expect("bakery ticket overflow: re-create the lock between epochs");
        self.nic.write_word(ctx, l.number(self.me), ticket);
        self.nic.write_word(ctx, l.choosing(self.me), 0);
        // Settle: Lamport's proof needs a read that *starts after a write
        // ends* to return the new value. On replicated memory a write
        // "ends" (the store is posted) long before it is visible
        // remotely, so two near-simultaneous doorways can mutually miss
        // each other's tickets AND the later waiting-phase reads can
        // still be stale, defeating the (ticket, id) tie-break. Waiting
        // 2× the worst-case propagation after the doorway restores the
        // proof: if peer j missed our number in its doorway scan, its
        // number was written within one propagation delay of ours, so
        // after the settle both tickets are visible everywhere and the
        // tie-break decides. (The property tests in
        // `tests/exclusion_properties.rs` catch the violation within a
        // few cases if this delay is removed.)
        ctx.advance(self.settle_ns);
        // Wait phase: for every peer, wait until it is not choosing and
        // we precede it in (ticket, id) order.
        for p in 0..l.n {
            if p == self.me {
                continue;
            }
            while self.nic.read_word(ctx, l.choosing(p)) != 0 {
                ctx.advance(BACKOFF_NS);
            }
            loop {
                let their = self.nic.read_word(ctx, l.number(p));
                if their == 0 || (ticket, self.me) < (their, p) {
                    break;
                }
                ctx.advance(BACKOFF_NS);
            }
        }
    }

    /// Release the lock.
    pub fn unlock(&mut self, ctx: &mut ProcCtx) {
        self.nic.write_word(ctx, self.lock.number(self.me), 0);
    }

    /// Convenience: run `f` inside the lock.
    pub fn with_lock<R>(&mut self, ctx: &mut ProcCtx, f: impl FnOnce(&mut ProcCtx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use scramnet::{CostModel, Ring};

    /// N processes hammer a critical section; verify mutual exclusion by
    /// interval disjointness and progress by total count.
    fn exclusion_run(n: usize, rounds: usize, think_ns: u64) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let lock = BakeryLock::layout(0, n);
        let mut procs: Vec<_> = (0..n)
            .map(|node| {
                let mut h = lock.handle(ring.nic(node));
                sim.spawn(format!("p{node}"), move |ctx| {
                    let mut intervals = Vec::new();
                    for r in 0..rounds {
                        // Desynchronize arrivals.
                        ctx.advance(think_ns * ((node + r) as u64 % 5 + 1));
                        h.lock(ctx);
                        let t_in = ctx.now();
                        ctx.advance(2_000); // critical section work
                        let t_out = ctx.now();
                        h.unlock(ctx);
                        intervals.push((t_in, t_out));
                    }
                    intervals
                })
            })
            .collect();
        let report = sim.run();
        assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        let mut iv: Vec<_> = procs.iter_mut().flat_map(|p| p.take().unwrap()).collect();
        assert_eq!(iv.len(), n * rounds, "every acquisition completed");
        iv.sort_unstable();
        for w in iv.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "critical sections overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn two_processes_exclude() {
        exclusion_run(2, 10, 1_000);
    }

    #[test]
    fn five_processes_exclude_under_contention() {
        exclusion_run(5, 6, 100);
    }

    #[test]
    fn simultaneous_arrivals_exclude() {
        exclusion_run(4, 4, 0);
    }

    #[test]
    fn uncontended_lock_is_fast() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let lock = BakeryLock::layout(0, 2);
        let mut h = lock.handle(ring.nic(0));
        let mut p0 = sim.spawn("p0", move |ctx| {
            let t0 = ctx.now();
            h.lock(ctx);
            let took = ctx.now() - t0;
            h.unlock(ctx);
            took
        });
        assert!(sim.run().is_clean());
        let t = p0.take().unwrap();
        // Doorway (~2 reads + 3 writes + peer scan) plus the mandatory
        // 2×propagation settle — the inherent price of mutual exclusion
        // on reflective memory, and part of why the paper's message
        // passing outperforms lock-based sharing.
        assert!(
            (5_000..20_000).contains(&t),
            "uncontended acquire took {t} ns"
        );
    }

    #[test]
    fn with_lock_returns_value() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let lock = BakeryLock::layout(0, 2);
        let mut h = lock.handle(ring.nic(1));
        sim.spawn("p1", move |ctx| {
            let v = h.with_lock(ctx, |ctx| {
                ctx.advance(100);
                42
            });
            assert_eq!(v, 42);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn single_writer_discipline_holds_under_lock_traffic() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 3, 64, CostModel::default());
        let lock = BakeryLock::layout(0, 3);
        for node in 0..3 {
            let mut h = lock.handle(ring.nic(node));
            sim.spawn(format!("p{node}"), move |ctx| {
                for _ in 0..4 {
                    h.lock(ctx);
                    ctx.advance(500);
                    h.unlock(ctx);
                }
            });
        }
        assert!(sim.run().is_clean());
        assert!(ring.conflicts().is_empty(), "{:?}", ring.conflicts());
    }

    #[test]
    #[should_panic(expected = "outside the lock")]
    fn handle_requires_participant_node() {
        let sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 4, 64, CostModel::default());
        let lock = BakeryLock::layout(0, 2);
        let _ = lock.handle(ring.nic(3));
    }
}
