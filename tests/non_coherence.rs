//! The network's non-coherence, observed and contained: raw concurrent
//! writers can be seen in different orders at different nodes, yet the
//! whole protocol stack (BBP + MPI) never writes one word from two nodes
//! — verified under load by the ring's owner check, which every inject
//! passes.

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{Simulation, TimeExt};
use scramnet_cluster::scramnet::{CostModel, Ring};
use scramnet_cluster::smpi::{MpiWorld, ReduceOp};

#[test]
fn concurrent_raw_writers_disagree_across_nodes() {
    // Nodes 0 and 2 write the same word at the same virtual instant on a
    // 4-node ring; by ring geometry node 1 applies 0's write first and
    // 2's last, node 3 the reverse — their final values differ.
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 4, 64, CostModel::default());
    let a = ring.nic(0);
    let b = ring.nic(2);
    sim.spawn("w0", move |ctx| a.write_word(ctx, 5, 111));
    sim.spawn("w2", move |ctx| b.write_word(ctx, 5, 222));
    sim.run();
    let finals: Vec<u32> = (0..4).map(|n| ring.snapshot(n)[5]).collect();
    assert!(
        finals.contains(&111) && finals.contains(&222),
        "expected disagreement, got {finals:?}"
    );
    let conflicts = ring.conflicts();
    assert_eq!(conflicts.len(), 1, "{conflicts:?}");
    assert_eq!(conflicts[0].0, 5, "the shared word");
}

#[test]
fn last_writer_timestamps_reflect_ring_distance() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 6, 64, CostModel::default());
    let logs: Vec<_> = (0..6).map(|n| ring.record_deliveries(n)).collect();
    let nic = ring.nic(2);
    sim.spawn("w", move |ctx| nic.write_word(ctx, 9, 1));
    sim.run();
    // Applied times strictly increase with hop distance from node 2.
    let order: Vec<usize> = [3, 4, 5, 0, 1].to_vec();
    let mut last = 0;
    for n in order {
        let t = logs[n].lock()[0].time;
        assert!(
            t > last,
            "node {n} applied at {} not after {}",
            t.pretty(),
            last.pretty()
        );
        last = t;
    }
}

#[test]
fn full_mpi_workload_never_violates_single_writer() {
    // An all-to-all + collectives MPI storm: the BillBoard layout must
    // keep every word single-writer.
    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
    // Drive MPI over endpoints minted from this cluster by assembling the
    // device stack manually.
    for rank in 0..4 {
        let dev = scramnet_cluster::smpi::Device::Bbp(Box::new(cluster.endpoint(rank)));
        let mut mpi = scramnet_cluster::smpi::Mpi::new(
            dev,
            scramnet_cluster::smpi::SmpiCosts::channel_interface(),
            scramnet_cluster::smpi::CollectiveImpl::Native,
        );
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            for round in 0..4u8 {
                let blocks: Vec<Vec<u8>> = (0..4)
                    .map(|d| vec![round.wrapping_add(d as u8); 16])
                    .collect();
                let got = mpi.alltoall(ctx, &comm, &blocks);
                assert_eq!(got.len(), 4);
                let s = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[1.0]);
                assert_eq!(s, vec![4.0]);
                mpi.barrier(ctx, &comm);
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert!(
        cluster.ring().conflicts().is_empty(),
        "MPI stack violated the single-writer discipline: {:?}",
        cluster.ring().conflicts()
    );
}

#[test]
fn scramnet_world_exposes_ring_for_inspection() {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 2);
    assert!(world.bbp_cluster().is_some());
    assert!(world.tcp_net().is_none());
    let mut mpi = world.proc(0);
    let mut peer = world.proc(1);
    sim.spawn("r0", move |ctx| {
        let comm = mpi.comm_world();
        mpi.send(ctx, &comm, 1, 0, b"traffic").unwrap();
    });
    sim.spawn("r1", move |ctx| {
        let comm = peer.comm_world();
        let _ = peer.recv(ctx, &comm, Some(0), Some(0)).unwrap();
    });
    sim.run();
    let stats = world.bbp_cluster().unwrap().ring().stats();
    assert!(stats.injections > 0);
    assert!(stats.pio_reads > 0);
}
