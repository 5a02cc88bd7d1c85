//! Property-based verification of the shared-memory primitives under
//! randomized (but seeded, reproducible) schedules: bakery mutual
//! exclusion, barrier epoch integrity and counter convergence, with the
//! wire-level single-writer audit running underneath everything.

use des::rng::SimRng;
use des::Simulation;
use proptest::prelude::*;
use scramnet::{CostModel, Ring};
use shmem::{BakeryLock, DistributedCounter, SenseBarrier};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn bakery_excludes_under_random_schedules(
        n in 2usize..6,
        rounds in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let lock = BakeryLock::layout(0, n);
        let mut procs = Vec::with_capacity(n);
        for node in 0..n {
            let mut h = lock.handle(ring.nic(node));
            procs.push(sim.spawn(format!("p{node}"), move |ctx| {
                let mut rng = SimRng::seeded(seed ^ (node as u64).wrapping_mul(0x9E37_79B9));
                let mut intervals = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    ctx.advance(rng.below(20_000));
                    h.lock(ctx);
                    let t_in = ctx.now();
                    ctx.advance(rng.below(3_000) + 1);
                    let t_out = ctx.now();
                    h.unlock(ctx);
                    intervals.push((t_in, t_out));
                }
                intervals
            }));
        }
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        let mut iv: Vec<_> = procs.iter_mut().flat_map(|p| p.take().unwrap()).collect();
        prop_assert_eq!(iv.len(), n * rounds);
        iv.sort_unstable();
        for w in iv.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
        prop_assert!(ring.conflicts().is_empty(), "single-writer violated");
    }

    #[test]
    fn barrier_rounds_never_interleave_per_process(
        n in 2usize..6,
        epochs in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let b = SenseBarrier::layout(0, n);
        // Each process returns when it entered and left each epoch.
        let mut procs = Vec::with_capacity(n);
        for node in 0..n {
            let mut h = b.handle(ring.nic(node));
            procs.push(sim.spawn(format!("p{node}"), move |ctx| {
                let mut rng = SimRng::seeded(seed ^ node as u64);
                let mut visits = Vec::with_capacity(epochs);
                for _ in 0..epochs {
                    ctx.advance(rng.below(30_000));
                    let entered = ctx.now();
                    h.wait(ctx);
                    visits.push((entered, ctx.now()));
                }
                visits
            }));
        }
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        // Barrier property per epoch: nobody exits epoch e before the
        // last process entered epoch e.
        let visits: Vec<_> = procs.iter_mut().map(|p| p.take().unwrap()).collect();
        for e in 0..epochs {
            let last_enter = visits.iter().map(|v| v[e].0).max().unwrap();
            let first_exit = visits.iter().map(|v| v[e].1).min().unwrap();
            prop_assert!(first_exit >= last_enter, "epoch {} leaked", e);
        }
    }

    #[test]
    fn counter_total_is_exact_after_quiescence(
        n in 2usize..6,
        adds in prop::collection::vec((0usize..6, 1u32..100), 0..30),
    ) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), n, 64, CostModel::default());
        let c = DistributedCounter::layout(0, n);
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut expected: u64 = 0;
        for (node, delta) in adds {
            if node < n {
                per_node[node].push(delta);
                expected += delta as u64;
            }
        }
        for (node, deltas) in per_node.into_iter().enumerate() {
            let mut h = c.handle(ring.nic(node));
            sim.spawn(format!("p{node}"), move |ctx| {
                for d in deltas {
                    h.add(ctx, d);
                    ctx.advance(700);
                }
            });
        }
        let reader = c.handle(ring.nic(0));
        sim.spawn("reader", move |ctx| {
            ctx.wait_until(des::ms(10));
            let got = reader.read(ctx) as u64;
            assert_eq!(got, expected);
        });
        prop_assert!(sim.run().is_clean());
    }
}
