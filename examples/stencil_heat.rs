#![allow(clippy::needless_range_loop)]

//! 1-D heat diffusion with halo exchange — the classic message-passing
//! workload the paper's introduction motivates (cluster computing on
//! low-latency interconnects).
//!
//! A rod of `N` cells is split across 4 ranks; each iteration exchanges
//! one-cell halos with both neighbours (`sendrecv`) and applies an
//! explicit Euler step. Because halos are tiny, the run is
//! latency-dominated — exactly the regime where SCRAMNet beats the
//! commodity networks. The example runs the same computation over the
//! SCRAMNet world and the Fast Ethernet world and compares virtual
//! wall-clock, then verifies both against a serial reference.
//!
//! Run with: `cargo run --release --example stencil_heat`

use scramnet_cluster::des::{Simulation, Time, TimeExt};
use scramnet_cluster::smpi::{Comm, Mpi, MpiWorld};

const RANKS: usize = 4;
const CELLS_PER_RANK: usize = 64;
const N: usize = RANKS * CELLS_PER_RANK;
const STEPS: usize = 200;
const ALPHA: f64 = 0.25;

fn initial(i: usize) -> f64 {
    // A hot spike in the middle of the rod.
    if (N / 2 - 4..N / 2 + 4).contains(&i) {
        100.0
    } else {
        0.0
    }
}

/// Serial reference solution.
fn serial() -> Vec<f64> {
    let mut u: Vec<f64> = (0..N).map(initial).collect();
    let mut next = u.clone();
    for _ in 0..STEPS {
        for i in 0..N {
            let left = if i == 0 { 0.0 } else { u[i - 1] };
            let right = if i == N - 1 { 0.0 } else { u[i + 1] };
            next[i] = u[i] + ALPHA * (left - 2.0 * u[i] + right);
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

/// One rank's stencil loop with halo exchange.
fn rank_body(mpi: &mut Mpi, ctx: &mut scramnet_cluster::des::ProcCtx, comm: &Comm) -> Vec<f64> {
    let me = comm.rank();
    let lo = me * CELLS_PER_RANK;
    let mut u: Vec<f64> = (lo..lo + CELLS_PER_RANK).map(initial).collect();
    let mut next = u.clone();
    for _ in 0..STEPS {
        // Exchange halos with neighbours (boundary ranks talk to walls).
        let left_halo = if me > 0 {
            let (_, bytes) = mpi
                .sendrecv(
                    ctx,
                    comm,
                    me - 1,
                    1,
                    &u[0].to_le_bytes(),
                    Some(me - 1),
                    Some(2),
                )
                .unwrap();
            f64::from_le_bytes(bytes.try_into().unwrap())
        } else {
            0.0
        };
        let right_halo = if me < comm.size() - 1 {
            let (_, bytes) = mpi
                .sendrecv(
                    ctx,
                    comm,
                    me + 1,
                    2,
                    &u[CELLS_PER_RANK - 1].to_le_bytes(),
                    Some(me + 1),
                    Some(1),
                )
                .unwrap();
            f64::from_le_bytes(bytes.try_into().unwrap())
        } else {
            0.0
        };
        for i in 0..CELLS_PER_RANK {
            let left = if i == 0 { left_halo } else { u[i - 1] };
            let right = if i == CELLS_PER_RANK - 1 {
                right_halo
            } else {
                u[i + 1]
            };
            next[i] = u[i] + ALPHA * (left - 2.0 * u[i] + right);
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

/// Run the distributed solve on a world; returns (virtual time, solution).
fn run_world(
    build: impl Fn(&scramnet_cluster::des::SimHandle) -> MpiWorld,
    label: &str,
) -> (Time, Vec<f64>) {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let mut ranks: Vec<_> = (0..RANKS)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("{label}-rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                let u = rank_body(&mut mpi, ctx, &comm);
                mpi.barrier(ctx, &comm);
                u
            })
        })
        .collect();
    let report = sim.run();
    assert!(
        report.is_clean(),
        "{label} deadlocked: {:?}",
        report.deadlocked
    );
    let solution: Vec<f64> = ranks.iter_mut().flat_map(|r| r.take().unwrap()).collect();
    (report.end_time, solution)
}

fn main() {
    println!("1-D heat diffusion, {N} cells on {RANKS} ranks, {STEPS} steps, 8-byte halos\n");
    let reference = serial();

    let (t_scr, u_scr) = run_world(|h| MpiWorld::scramnet(h, RANKS), "scramnet");
    let (t_eth, u_eth) = run_world(|h| MpiWorld::fast_ethernet(h, RANKS), "ethernet");

    for (label, u) in [("SCRAMNet", &u_scr), ("Fast Ethernet", &u_eth)] {
        let err = u
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            err < 1e-9,
            "{label} diverged from the serial reference: {err}"
        );
        println!("{label:>14}: matches serial reference (max |err| = {err:.1e})");
    }
    println!("\nvirtual wall-clock for the whole solve:");
    println!("{:>14}: {}", "SCRAMNet", t_scr.pretty());
    println!("{:>14}: {}", "Fast Ethernet", t_eth.pretty());
    println!(
        "\nSCRAMNet speed-up on this latency-bound exchange: {:.1}x",
        t_eth as f64 / t_scr as f64
    );
}
