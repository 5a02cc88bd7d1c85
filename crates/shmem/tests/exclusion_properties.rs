//! Property-based verification of the shared-memory primitives under
//! randomized (but seeded, reproducible) schedules: bakery mutual
//! exclusion, barrier epoch integrity and counter convergence, with the
//! wire-level single-writer audit running underneath everything.

use std::sync::Arc;

use des::rng::SimRng;
use des::Simulation;
use parking_lot::Mutex;
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
        let intervals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        for node in 0..n {
            let mut h = lock.handle(ring.nic(node));
            let intervals = Arc::clone(&intervals);
            sim.spawn(format!("p{node}"), move |ctx| {
                let mut rng = SimRng::seeded(seed ^ (node as u64).wrapping_mul(0x9E37_79B9));
                for _ in 0..rounds {
                    ctx.advance(rng.below(20_000));
                    h.lock(ctx);
                    let t_in = ctx.now();
                    ctx.advance(rng.below(3_000) + 1);
                    let t_out = ctx.now();
                    h.unlock(ctx);
                    intervals.lock().push((t_in, t_out));
                }
            });
        }
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        let mut iv = intervals.lock().clone();
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
        let exits: Arc<Mutex<Vec<(usize, u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let enters: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        for node in 0..n {
            let mut h = b.handle(ring.nic(node));
            let exits = Arc::clone(&exits);
            let enters = Arc::clone(&enters);
            sim.spawn(format!("p{node}"), move |ctx| {
                let mut rng = SimRng::seeded(seed ^ node as u64);
                for e in 0..epochs as u32 {
                    ctx.advance(rng.below(30_000));
                    enters.lock().push((e, ctx.now()));
                    h.wait(ctx);
                    exits.lock().push((node, e, ctx.now()));
                }
            });
        }
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        // Barrier property per epoch: nobody exits epoch e before the
        // last process entered epoch e.
        let exits = exits.lock();
        let enters = enters.lock();
        for e in 0..epochs as u32 {
            let last_enter = enters.iter().filter(|x| x.0 == e).map(|x| x.1).max().unwrap();
            let first_exit = exits.iter().filter(|x| x.1 == e).map(|x| x.2).min().unwrap();
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
