//! Randomized full-stack stress: seeded sequences of mixed MPI
//! operations (point-to-point storms + every collective) executed over
//! the SCRAMNet device AND over the Fast Ethernet device; the numeric
//! results must agree exactly (the network can only change timing,
//! never values).

use std::sync::Arc;

use proptest::prelude::*;
use scramnet_cluster::des::{SimHandle, Simulation};
use scramnet_cluster::smpi::{MpiWorld, ReduceOp};

const RANKS: usize = 4;

/// One step of the generated program.
#[derive(Debug, Clone)]
enum Step {
    RingShift(u8),
    Allreduce(u8),
    Bcast { root: usize, len: usize },
    Alltoall(u8),
    Scan(u8),
    Barrier,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(Step::RingShift),
        any::<u8>().prop_map(Step::Allreduce),
        (0..RANKS, 0usize..300).prop_map(|(root, len)| Step::Bcast { root, len }),
        any::<u8>().prop_map(Step::Alltoall),
        any::<u8>().prop_map(Step::Scan),
        Just(Step::Barrier),
    ]
}

/// Run the program on a world; every rank folds its observations into a
/// checksum, returned per rank.
fn run_program(build: impl Fn(&SimHandle) -> MpiWorld, program: Vec<Step>) -> Vec<u64> {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let program = Arc::new(program);
    let mut ranks = Vec::with_capacity(RANKS);
    for rank in 0..RANKS {
        let mut mpi = world.proc(rank);
        let program = Arc::clone(&program);
        ranks.push(sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let me = comm.rank();
            let mut check: u64 = 0;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    check = check.wrapping_mul(31).wrapping_add(b as u64);
                }
            };
            for step in program.iter() {
                match step {
                    Step::RingShift(seed) => {
                        let right = (me + 1) % RANKS;
                        let left = (me + RANKS - 1) % RANKS;
                        let payload = [*seed, me as u8];
                        let (_, m) = mpi
                            .sendrecv(ctx, &comm, right, 3, &payload, Some(left), Some(3))
                            .unwrap();
                        fold(&m);
                    }
                    Step::Allreduce(seed) => {
                        let v =
                            mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[*seed as f64 + me as f64]);
                        fold(&v[0].to_le_bytes());
                    }
                    Step::Bcast { root, len } => {
                        let data = (me == *root)
                            .then(|| (0..*len).map(|i| (i ^ root) as u8).collect::<Vec<u8>>());
                        let out = mpi.bcast(ctx, &comm, *root, data.as_deref());
                        fold(&out);
                    }
                    Step::Alltoall(seed) => {
                        let blocks: Vec<Vec<u8>> =
                            (0..RANKS).map(|d| vec![*seed, me as u8, d as u8]).collect();
                        let got = mpi.alltoall(ctx, &comm, &blocks);
                        for g in &got {
                            fold(g);
                        }
                    }
                    Step::Scan(seed) => {
                        let v = mpi.scan(ctx, &comm, ReduceOp::Max, &[*seed as f64, me as f64]);
                        fold(&v[1].to_le_bytes());
                    }
                    Step::Barrier => mpi.barrier(ctx, &comm),
                }
            }
            check
        }));
    }
    let report = sim.run();
    assert!(
        report.is_clean(),
        "stress deadlocked: {:?}",
        report.deadlocked
    );
    ranks.iter_mut().map(|r| r.take().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn scramnet_and_ethernet_compute_identical_results(
        program in prop::collection::vec(step_strategy(), 1..12),
    ) {
        let scr = run_program(|h| MpiWorld::scramnet(h, RANKS), program.clone());
        let eth = run_program(|h| MpiWorld::fast_ethernet(h, RANKS), program.clone());
        prop_assert_eq!(&scr, &eth, "devices disagree for {:?}", program);
        // And the hybrid agrees too.
        let hyb = run_program(|h| MpiWorld::hybrid(h, RANKS, 1024), program.clone());
        prop_assert_eq!(&scr, &hyb, "hybrid disagrees for {:?}", program);
    }
}
