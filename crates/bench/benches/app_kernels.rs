//! Application kernels across networks — the workload classes the
//! paper's introduction motivates for cluster computing, run end-to-end
//! on every transport so the microbenchmark story (Figures 1–6) can be
//! read as application-level outcomes:
//!
//! - **halo**: a 2-D stencil's neighbour exchange (8-byte messages,
//!   latency-bound — SCRAMNet's sweet spot);
//! - **cg-step**: a conjugate-gradient-style iteration (two allreduces
//!   plus a small halo per step — collective-latency-bound);
//! - **shuffle**: a bulk all-to-all redistribution (16 KB per pair —
//!   bandwidth-bound, where the commodity networks win and the hybrid
//!   shines).

use std::sync::Arc;

use des::{SimHandle, Simulation, Time, TimeExt};
use smpi::{MpiWorld, ReduceOp};

const RANKS: usize = 4;

type WorldBuilder = Box<dyn Fn(&SimHandle) -> MpiWorld>;

fn run_kernel(
    build: &dyn Fn(&SimHandle) -> MpiWorld,
    body: impl Fn(&mut smpi::Mpi, &mut des::ProcCtx) + Send + Sync + 'static,
) -> Time {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let body = Arc::new(body);
    let mut ranks: Vec<_> = (0..RANKS)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            let body = Arc::clone(&body);
            sim.spawn(format!("rank{rank}"), move |ctx| {
                body(&mut mpi, ctx);
                ctx.now()
            })
        })
        .collect();
    let report = sim.run();
    assert!(
        report.is_clean(),
        "kernel deadlocked: {:?}",
        report.deadlocked
    );
    ranks.iter_mut().filter_map(|r| r.take()).max().unwrap_or(0)
}

/// 50 steps of ring halo exchange with 5 µs of compute per step.
fn halo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx) {
    let comm = mpi.comm_world();
    let me = comm.rank();
    let right = (me + 1) % comm.size();
    let left = (me + comm.size() - 1) % comm.size();
    for step in 0..50u64 {
        ctx.advance(5_000);
        let (_, _h) = mpi
            .sendrecv(
                ctx,
                &comm,
                right,
                1,
                &step.to_le_bytes(),
                Some(left),
                Some(1),
            )
            .unwrap();
        let (_, _h) = mpi
            .sendrecv(
                ctx,
                &comm,
                left,
                2,
                &step.to_le_bytes(),
                Some(right),
                Some(2),
            )
            .unwrap();
    }
}

/// 30 CG-ish iterations: local SpMV (20 µs) + halo + two allreduces.
fn cg_step(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx) {
    let comm = mpi.comm_world();
    let me = comm.rank();
    let right = (me + 1) % comm.size();
    let left = (me + comm.size() - 1) % comm.size();
    let mut rho = 1.0f64;
    for _ in 0..30 {
        ctx.advance(20_000); // SpMV on the local block
        let (_, _h) = mpi
            .sendrecv(
                ctx,
                &comm,
                right,
                1,
                &rho.to_le_bytes(),
                Some(left),
                Some(1),
            )
            .unwrap();
        let dot = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[rho])[0];
        let norm = mpi.allreduce(ctx, &comm, ReduceOp::Max, &[dot.abs()])[0];
        rho = dot / norm.max(1.0);
    }
}

/// 4 rounds of bulk all-to-all: 16 KB to every peer per round.
fn shuffle(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx) {
    let comm = mpi.comm_world();
    let blocks: Vec<Vec<u8>> = (0..comm.size()).map(|d| vec![d as u8; 16 * 1024]).collect();
    for _ in 0..4 {
        let got = mpi.alltoall(ctx, &comm, &blocks);
        assert_eq!(got.len(), comm.size());
        ctx.advance(10_000); // process the received partition
    }
}

fn main() {
    // Size the SCRAMNet partitions so a whole shuffle block fits one
    // frame (the ADI would otherwise segment the rendezvous data).
    let scramnet = |h: &SimHandle| {
        let mut cfg = bbp::BbpConfig::for_nodes(RANKS);
        cfg.data_words = 16 * 1024;
        MpiWorld::scramnet_with(
            h,
            cfg,
            scramnet::CostModel::default(),
            smpi::SmpiCosts::channel_interface(),
            smpi::CollectiveImpl::Native,
        )
    };
    let builders: Vec<(&str, WorldBuilder)> = vec![
        ("SCRAMNet", Box::new(scramnet)),
        (
            "Fast Ethernet",
            Box::new(|h: &SimHandle| MpiWorld::fast_ethernet(h, RANKS)),
        ),
        ("ATM", Box::new(|h: &SimHandle| MpiWorld::atm(h, RANKS))),
        (
            "Hybrid (SCR+Myri)",
            Box::new(|h: &SimHandle| MpiWorld::hybrid(h, RANKS, 1024)),
        ),
    ];

    println!("== Application kernels, {RANKS} ranks, total virtual wall-clock ==\n");
    println!(
        "{:>20} {:>14} {:>14} {:>14}",
        "network", "halo", "cg-step", "shuffle"
    );
    for (name, build) in &builders {
        let t_halo = run_kernel(build.as_ref(), halo);
        let t_cg = run_kernel(build.as_ref(), cg_step);
        let t_shuffle = run_kernel(build.as_ref(), shuffle);
        println!(
            "{:>20} {:>14} {:>14} {:>14}",
            name,
            t_halo.pretty(),
            t_cg.pretty(),
            t_shuffle.pretty()
        );
    }
    println!("\n(SCRAMNet dominates the latency-bound kernels; the commodity networks");
    println!(" win the bandwidth-bound shuffle; the hybrid takes both crowns)");
}
