//! Shared-memory vs message-passing synchronization — quantifying the
//! paper's implicit claim that message passing is the better fit for
//! SCRAMNet by comparing every barrier implementation in the repository
//! on the same simulated hardware, plus lock costs.
//!
//! Barrier implementations compared (4 nodes unless noted):
//!  - `shmem` all-to-all flag barrier (shared-memory model, paper ref [10])
//!  - BBP native multicast barrier through MPI (the paper's §4 algorithm)
//!  - MPI point-to-point barrier over SCRAMNet (stock MPICH)
//!  - MPI point-to-point barrier over Fast Ethernet (baseline)

use bench::{mpi_barrier_us, MpiNet};
use des::{ms, Simulation, Time, TimeExt};
use scramnet::{CostModel, Ring};
use shmem::{BakeryLock, SenseBarrier};
use smpi::CollectiveImpl;

/// Aligned-entry latency of the shmem flag barrier.
fn shmem_barrier_us(nodes: usize) -> f64 {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), nodes, 64, CostModel::default());
    let b = SenseBarrier::layout(0, nodes);
    let align: Time = ms(1);
    let mut procs: Vec<_> = (0..nodes)
        .map(|node| {
            let mut h = b.handle(ring.nic(node));
            sim.spawn(format!("p{node}"), move |ctx| {
                h.wait(ctx); // warm-up epoch
                ctx.wait_until(align);
                h.wait(ctx);
                ctx.now()
            })
        })
        .collect();
    assert!(sim.run().is_clean());
    let last = procs.iter_mut().filter_map(|p| p.take()).max();
    (last.expect("a rank returned") - align).as_us()
}

/// Uncontended and contended bakery lock costs.
fn bakery_costs_us(nodes: usize, rounds: usize) -> (f64, f64) {
    // Uncontended: a single process locks/unlocks.
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), nodes, 64, CostModel::default());
    let lock = BakeryLock::layout(0, nodes);
    let mut h = lock.handle(ring.nic(0));
    let mut solo = sim.spawn("solo", move |ctx| {
        let t0 = ctx.now();
        h.lock(ctx);
        h.unlock(ctx);
        ctx.now() - t0
    });
    assert!(sim.run().is_clean());
    let uncontended = solo.take().unwrap().as_us();

    // Contended: every node does `rounds` acquisitions; report the mean
    // time per acquisition.
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), nodes, 64, CostModel::default());
    let lock = BakeryLock::layout(0, nodes);
    for node in 0..nodes {
        let mut h = lock.handle(ring.nic(node));
        sim.spawn(format!("p{node}"), move |ctx| {
            for _ in 0..rounds {
                h.lock(ctx);
                ctx.advance(1_000); // 1 µs critical section
                h.unlock(ctx);
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean());
    // Aggregate handoff rate: total time over total acquisitions. Under
    // contention doorways overlap with critical sections, so this can
    // undercut the uncontended latency — it is a throughput figure.
    let per_acq = report.end_time.as_us() / (nodes * rounds) as f64;
    (uncontended, per_acq)
}

fn main() {
    println!("== Synchronization on SCRAMNet: shared memory vs message passing ==\n");
    println!(
        "{:>7} {:>16} {:>16} {:>16} {:>18}",
        "nodes", "shmem flags", "BBP mcast", "MPI p2p", "FastE MPI p2p"
    );
    for nodes in [2usize, 3, 4, 8] {
        let flags = shmem_barrier_us(nodes);
        let native = mpi_barrier_us(MpiNet::Scramnet, nodes, CollectiveImpl::Native);
        let p2p = mpi_barrier_us(MpiNet::Scramnet, nodes, CollectiveImpl::PointToPoint);
        let fe = mpi_barrier_us(MpiNet::FastEthernet, nodes, CollectiveImpl::PointToPoint);
        println!("{nodes:>7} {flags:>13.1} µs {native:>13.1} µs {p2p:>13.1} µs {fe:>15.1} µs");
    }
    println!("\n(the raw flag barrier beats even the BBP multicast barrier — it is the");
    println!(" same hardware trick without the MPI envelope — but offers no payloads,");
    println!(" no ordering with data, and burns the I/O bus while waiting)");

    println!("\n== Bakery lock on replicated memory ==");
    println!(
        "{:>7} {:>18} {:>22}",
        "nodes", "uncontended", "contended handoff"
    );
    for nodes in [2usize, 4, 8] {
        let (u, c) = bakery_costs_us(nodes, 6);
        println!("{nodes:>7} {u:>15.1} µs {c:>16.1} µs");
    }
    println!("\n(the mandatory 2x-propagation doorway settle makes even uncontended");
    println!(" acquisition cost more than a BBP message — the quantified case for the");
    println!(" paper's message-passing approach over lock-based sharing)");
}
