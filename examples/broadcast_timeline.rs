//! Visualizing WHY the native broadcast wins (paper §3): an ASCII
//! timeline of when each rank's `MPI_Bcast` completes under the binomial
//! point-to-point tree versus the single-step hardware multicast, on an
//! 8-node SCRAMNet ring.
//!
//! Run with: `cargo run --release --example broadcast_timeline`

use scramnet_cluster::des::{ms, SimHandle, Simulation, Time, TimeExt};
use scramnet_cluster::smpi::{CollectiveImpl, MpiWorld};

const RANKS: usize = 8;
const PAYLOAD: usize = 64;

/// Per-rank completion times of one aligned broadcast.
fn run(build: impl Fn(&SimHandle) -> MpiWorld) -> Vec<Time> {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let align = ms(5);
    let mut ranks: Vec<_> = (0..RANKS)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("r{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                // Warm-up round.
                let warm = (rank == 0).then(|| vec![0u8; 4]);
                let _ = mpi.bcast(ctx, &comm, 0, warm.as_deref());
                ctx.wait_until(align);
                let data = (rank == 0).then(|| vec![0xEEu8; PAYLOAD]);
                let out = mpi.bcast(ctx, &comm, 0, data.as_deref());
                assert_eq!(out.len(), PAYLOAD);
                ctx.now() - align
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    ranks.iter_mut().map(|r| r.take().unwrap()).collect()
}

fn draw(label: &str, times: &[Time], scale: Time) {
    println!("\n{label}");
    for (rank, &t) in times.iter().enumerate() {
        let cols = (t / scale) as usize;
        let bar = "#".repeat(cols.min(70));
        println!(
            "  rank {rank}: {bar}{} {}",
            if cols > 70 { "…" } else { "" },
            t.pretty()
        );
    }
}

fn main() {
    println!("when does each of {RANKS} ranks finish one {PAYLOAD}-byte MPI_Bcast from rank 0?");
    let p2p = run(|h| {
        let mut w = MpiWorld::scramnet(h, RANKS);
        w.set_collectives(CollectiveImpl::PointToPoint);
        w
    });
    let native = run(|h| MpiWorld::scramnet(h, RANKS));
    let max = *p2p.iter().chain(&native).max().unwrap();
    let scale = (max / 68).max(1);
    draw(
        "binomial point-to-point tree (stock MPICH): log2(n) sequential hops",
        &p2p,
        scale,
    );
    draw(
        "native bbp_Mcast (the paper's §4 algorithm): one post, n-1 flag writes",
        &native,
        scale,
    );
    let worst_p2p = *p2p.iter().max().unwrap();
    let worst_native = *native.iter().max().unwrap();
    println!(
        "\nlast receiver: {} (tree) vs {} (native) — {:.1}x",
        worst_p2p.pretty(),
        worst_native.pretty(),
        worst_p2p as f64 / worst_native as f64
    );
    let spread_native = *native[1..].iter().max().unwrap() - *native[1..].iter().min().unwrap();
    println!(
        "native receivers finish within {} of each other — the paper's\n\
         'potentially, all the receivers could receive the multicast message\n\
         simultaneously' in action",
        spread_native.pretty()
    );
}
