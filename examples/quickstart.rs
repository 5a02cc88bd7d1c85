//! Quickstart: a 4-node SCRAMNet cluster in a deterministic simulation.
//!
//! Demonstrates the three layers of the reproduction:
//!  1. raw replicated memory (`scramnet`),
//!  2. the BillBoard Protocol (`bbp`) with point-to-point and multicast,
//!  3. MPI (`smpi`) with native-multicast collectives.
//!
//! Run with: `cargo run --release --example quickstart`

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{Simulation, TimeExt};
use scramnet_cluster::smpi::MpiWorld;

fn main() {
    raw_memory();
    billboard_protocol();
    mpi_collectives();
}

/// Layer 1: a store on one node appears in every node's NIC bank.
fn raw_memory() {
    println!("== layer 1: replicated shared memory ==");
    let mut sim = Simulation::new();
    let ring = scramnet_cluster::scramnet::Ring::new(
        &sim.handle(),
        4,
        1024,
        scramnet_cluster::scramnet::CostModel::default(),
    );
    let writer = ring.nic(0);
    sim.spawn("writer", move |ctx| {
        writer.write_word(ctx, 42, 0xCAFE);
        println!(
            "  node 0 stored 0xCAFE at word 42 at t={}",
            ctx.now().pretty()
        );
    });
    for node in 1..4 {
        let nic = ring.nic(node);
        sim.spawn(format!("reader{node}"), move |ctx| {
            ctx.wait_until(scramnet_cluster::des::us(20));
            let v = nic.read_word(ctx, 42);
            println!("  node {node} reads 0x{v:X} from its own bank");
            assert_eq!(v, 0xCAFE);
        });
    }
    sim.run();
}

/// Layer 2: zero-copy message passing and single-step multicast.
fn billboard_protocol() {
    println!("\n== layer 2: the BillBoard Protocol ==");
    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
    let mut root = cluster.endpoint(0);
    sim.spawn("root", move |ctx| {
        root.send(ctx, 1, b"point-to-point hello").unwrap();
        root.mcast(ctx, &[1, 2, 3], b"multicast hello").unwrap();
    });
    let mut nodes: Vec<_> = (1..4)
        .map(|r| {
            let mut ep = cluster.endpoint(r);
            sim.spawn(format!("node{r}"), move |ctx| {
                if r == 1 {
                    let m = ep.recv(ctx, 0).unwrap();
                    println!(
                        "  node 1 got '{}' at {}",
                        String::from_utf8_lossy(&m),
                        ctx.now().pretty()
                    );
                }
                let m = ep.recv(ctx, 0).unwrap();
                assert_eq!(m, b"multicast hello");
                ctx.now()
            })
        })
        .collect();
    sim.run();
    // In the order the multicast arrived.
    let mut arrivals: Vec<_> = (1..)
        .zip(&mut nodes)
        .map(|(r, n)| (n.take().unwrap(), r))
        .collect();
    arrivals.sort_unstable();
    for (t, r) in arrivals {
        println!("  node {r} got the multicast at {}", t.pretty());
    }
}

/// Layer 3: MPI with the paper's native collectives.
fn mpi_collectives() {
    println!("\n== layer 3: MPI over the BillBoard Protocol ==");
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 4);
    for rank in 0..4 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            // Broadcast rides bbp_Mcast: one post, three flag writes.
            let data = (mpi.rank() == 0).then_some(&b"model state v1"[..]);
            let state = mpi.bcast(ctx, &comm, 0, data);
            assert_eq!(state, b"model state v1");
            // Allreduce a local measurement.
            let sum = mpi.allreduce(
                ctx,
                &comm,
                scramnet_cluster::smpi::ReduceOp::Sum,
                &[mpi.rank() as f64],
            );
            mpi.barrier(ctx, &comm);
            if mpi.rank() == 0 {
                println!("  allreduce sum across ranks = {} (expect 6)", sum[0]);
                println!("  all ranks passed the barrier by t={}", ctx.now().pretty());
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean());
    println!(
        "  simulation finished after {} scheduler dispatches",
        report.dispatches
    );
}
