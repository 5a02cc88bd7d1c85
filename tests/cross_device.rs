//! The same MPI program must compute identical results over every
//! device (SCRAMNet/BBP, Fast Ethernet, ATM) and with both collective
//! implementations — only the virtual clock differs. Also checks the
//! paper's headline performance ordering between the stacks.

use scramnet_cluster::des::{SimHandle, Simulation, Time};
use scramnet_cluster::smpi::{CollectiveImpl, MpiWorld, ReduceOp};

/// A composite MPI program touching p2p, collectives and subcomms.
/// Returns (per-rank result vector, end time).
fn composite_program(build: impl Fn(&SimHandle) -> MpiWorld) -> (Vec<f64>, Time) {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let n = world.nprocs();
    let mut ranks: Vec<_> = (0..n)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                let me = comm.rank();
                // Ring shift.
                let right = (me + 1) % comm.size();
                let left = (me + comm.size() - 1) % comm.size();
                let (_, m) = mpi
                    .sendrecv(ctx, &comm, right, 1, &[me as u8], Some(left), Some(1))
                    .unwrap();
                let neighbour = m[0] as f64;
                // Allreduce.
                let sum = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[neighbour])[0];
                // Split into odd/even, reduce within.
                let sub = mpi
                    .comm_split(ctx, &comm, (me % 2) as i64, me as i64)
                    .unwrap();
                let sub_sum = mpi.allreduce(ctx, &sub, ReduceOp::Sum, &[me as f64])[0];
                // Broadcast a correction from world root.
                let corr = mpi.bcast(ctx, &comm, 0, (me == 0).then_some(&[7u8][..]));
                mpi.barrier(ctx, &comm);
                sum * 100.0 + sub_sum + corr[0] as f64
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let r = ranks.iter_mut().map(|r| r.take().unwrap()).collect();
    (r, report.end_time)
}

#[test]
fn all_stacks_compute_identical_results() {
    let (scr, t_scr) = composite_program(|h| MpiWorld::scramnet(h, 4));
    let (scr_p2p, _) = composite_program(|h| {
        let mut w = MpiWorld::scramnet(h, 4);
        w.set_collectives(CollectiveImpl::PointToPoint);
        w
    });
    let (eth, t_eth) = composite_program(|h| MpiWorld::fast_ethernet(h, 4));
    let (atm, t_atm) = composite_program(|h| MpiWorld::atm(h, 4));

    assert_eq!(scr, scr_p2p, "native vs p2p collectives disagree");
    assert_eq!(scr, eth, "SCRAMNet vs Ethernet disagree");
    assert_eq!(scr, atm, "SCRAMNet vs ATM disagree");

    // Performance ordering on this latency-bound program (paper's core
    // claim for short messages).
    assert!(
        t_scr < t_eth,
        "SCRAMNet ({t_scr}) should beat Ethernet ({t_eth})"
    );
    assert!(
        t_scr < t_atm,
        "SCRAMNet ({t_scr}) should beat ATM ({t_atm})"
    );
}

#[test]
fn native_collectives_accelerate_the_composite_program() {
    let (_, t_native) = composite_program(|h| MpiWorld::scramnet(h, 4));
    let (_, t_p2p) = composite_program(|h| {
        let mut w = MpiWorld::scramnet(h, 4);
        w.set_collectives(CollectiveImpl::PointToPoint);
        w
    });
    assert!(
        t_native < t_p2p,
        "native collectives ({t_native}) should beat p2p ({t_p2p})"
    );
}

#[test]
fn adi_direct_extension_is_faster_than_channel_interface() {
    use bbp::BbpConfig;
    use scramnet::CostModel;
    use smpi::SmpiCosts;
    let (r_ch, t_ch) = composite_program(|h| MpiWorld::scramnet(h, 4));
    let (r_adi, t_adi) = composite_program(|h| {
        MpiWorld::scramnet_with(
            h,
            BbpConfig::for_nodes(4),
            CostModel::default(),
            SmpiCosts::adi_direct(),
            CollectiveImpl::Native,
        )
    });
    assert_eq!(r_ch, r_adi);
    assert!(
        t_adi < t_ch,
        "ADI-direct ({t_adi}) should beat channel interface ({t_ch})"
    );
}

#[test]
fn per_rank_results_depend_on_rank() {
    // Sanity: the composite program actually distinguishes ranks (the
    // equality assertions above are not comparing constants).
    let (r, _) = composite_program(|h| MpiWorld::scramnet(h, 4));
    assert_eq!(r.len(), 4);
    assert!(
        r.windows(2).any(|w| w[0] != w[1]),
        "degenerate program: {r:?}"
    );
}
