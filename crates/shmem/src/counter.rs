//! A distributed counter: the standard reflective-memory idiom for a
//! shared counter without read-modify-write hardware. Each process owns
//! an addend cell; the counter's value is the sum of all cells. Reads
//! are eventually consistent (bounded by one ring transit).

use des::ProcCtx;
use scramnet::{Nic, Word, WordAddr};

/// Layout: one addend word per process.
#[derive(Debug, Clone)]
pub struct DistributedCounter {
    base: WordAddr,
    n: usize,
}

impl DistributedCounter {
    /// Place a counter for `n` processes at word offset `base`
    /// (occupies `n` words).
    pub fn layout(base: WordAddr, n: usize) -> Self {
        assert!(n >= 1);
        DistributedCounter { base, n }
    }

    /// Words this counter occupies.
    pub fn words(&self) -> usize {
        self.n
    }

    fn cell(&self, p: usize) -> WordAddr {
        self.base + p
    }

    /// Bind to one process's NIC.
    pub fn handle(&self, nic: Nic) -> CounterHandle {
        assert!(nic.node() < self.n, "node outside the counter's slots");
        CounterHandle {
            counter: self.clone(),
            me: nic.node(),
            nic,
            local: 0,
        }
    }
}

/// One process's handle on a [`DistributedCounter`].
pub struct CounterHandle {
    counter: DistributedCounter,
    nic: Nic,
    me: usize,
    /// Our own contribution (mirrors our cell; avoids a PIO read).
    local: Word,
}

impl CounterHandle {
    /// Add `delta` to the counter (wrapping, like the hardware would).
    pub fn add(&mut self, ctx: &mut ProcCtx, delta: Word) {
        self.local = self.local.wrapping_add(delta);
        self.nic
            .write_word(ctx, self.counter.cell(self.me), self.local);
    }

    /// Read the counter: sum of every process's cell as replicated here.
    /// Monotone per contributor; the total is exact once the ring is
    /// quiescent.
    pub fn read(&self, ctx: &mut ProcCtx) -> Word {
        let mut sum: Word = 0;
        for p in 0..self.counter.n {
            sum = sum.wrapping_add(self.nic.read_word(ctx, self.counter.cell(p)));
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{ms, Simulation};
    use scramnet::{CostModel, Ring};

    #[test]
    fn converges_to_the_exact_total() {
        let mut sim = Simulation::new();
        let n = 4;
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let c = DistributedCounter::layout(0, n);
        for node in 0..n {
            let mut h = c.handle(ring.nic(node));
            sim.spawn(format!("p{node}"), move |ctx| {
                for i in 0..10 {
                    h.add(ctx, (node + 1) as Word);
                    ctx.advance(500 * (i + 1));
                }
                assert_eq!(h.local, 10 * (node + 1) as Word);
            });
        }
        // An observer reads after quiescence.
        let h0 = c.handle(ring.nic(0));
        sim.spawn("observer", move |ctx| {
            ctx.wait_until(ms(5));
            let total = h0.read(ctx);
            assert_eq!(total, 10 * (1 + 2 + 3 + 4));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn own_contribution_is_immediately_visible_locally() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let c = DistributedCounter::layout(4, 2);
        let mut h = c.handle(ring.nic(0));
        sim.spawn("p0", move |ctx| {
            h.add(ctx, 7);
            assert_eq!(h.read(ctx), 7, "read-your-own-writes");
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn reads_are_monotone_per_contributor() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let c = DistributedCounter::layout(0, 2);
        let mut w = c.handle(ring.nic(0));
        let r = c.handle(ring.nic(1));
        sim.spawn("writer", move |ctx| {
            for _ in 0..20 {
                w.add(ctx, 1);
                ctx.advance(2_000);
            }
        });
        sim.spawn("reader", move |ctx| {
            let mut last = 0;
            for _ in 0..30 {
                let v = r.read(ctx);
                assert!(v >= last, "counter went backwards: {v} < {last}");
                last = v;
                ctx.advance(1_500);
            }
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn wrapping_is_well_defined() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let c = DistributedCounter::layout(0, 2);
        let mut h = c.handle(ring.nic(0));
        sim.spawn("p0", move |ctx| {
            h.add(ctx, Word::MAX);
            h.add(ctx, 2);
            assert_eq!(h.local, 1);
            assert_eq!(h.read(ctx), 1);
        });
        assert!(sim.run().is_clean());
    }
}
