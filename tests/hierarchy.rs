//! The paper's §2 scaling path, end to end: the BillBoard Protocol and
//! the full MPI stack running unchanged across a two-level ring
//! hierarchy (writes cross leaf rings through backbone bridges).

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{Simulation, Time, TimeExt};
use scramnet_cluster::scramnet::{HierarchyConfig, RingHierarchy};
use scramnet_cluster::smpi::{CollectiveImpl, Device, Mpi, ReduceOp, SmpiCosts};

fn hierarchy(sim: &Simulation, leaves: usize, hosts: usize, words: usize) -> RingHierarchy {
    RingHierarchy::new(
        &sim.handle(),
        HierarchyConfig {
            leaves,
            hosts_per_leaf: hosts,
            words,
        },
    )
}

fn bbp_endpoints(h: &RingHierarchy, config: &BbpConfig) -> Vec<scramnet_cluster::bbp::BbpEndpoint> {
    (0..h.hosts())
        .map(|id| BbpCluster::endpoint_over(h.nic(id), config.clone()))
        .collect()
}

#[test]
fn bbp_ping_pong_across_leaf_rings() {
    let mut sim = Simulation::new();
    let config = BbpConfig::for_nodes(6);
    let layout_words = scramnet_cluster::bbp::Layout::new(&config).total_words();
    let h = hierarchy(&sim, 2, 3, layout_words);
    let mut eps = bbp_endpoints(&h, &config);
    let mut far = eps.remove(5); // leaf 1
    let mut near = eps.remove(0); // leaf 0
    let mut near = sim.spawn("near", move |ctx| {
        let t0 = ctx.now();
        near.send(ctx, 5, b"across the bridge").unwrap();
        let back = near.recv(ctx, 5).unwrap();
        assert_eq!(back, b"and back");
        ctx.now() - t0
    });
    sim.spawn("far", move |ctx| {
        let m = far.recv(ctx, 0).unwrap();
        assert_eq!(m, b"across the bridge");
        far.send(ctx, 0, b"and back").unwrap();
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert!(
        h.conflicts().is_empty(),
        "single-writer discipline held across rings"
    );
    let t: Time = near.take().unwrap();
    // Crossing two bridges each way adds noticeable latency over the
    // ~15 µs same-ring round trip, but stays tens of µs.
    assert!(
        t > des::us(18) && t < des::us(80),
        "cross-leaf RTT {}",
        t.pretty()
    );
}

#[test]
fn bbp_multicast_spans_the_hierarchy() {
    let mut sim = Simulation::new();
    let config = BbpConfig::for_nodes(6);
    let layout_words = scramnet_cluster::bbp::Layout::new(&config).total_words();
    let h = hierarchy(&sim, 3, 2, layout_words);
    let mut eps = bbp_endpoints(&h, &config);
    // Root on leaf 0 multicasts to one host on each leaf.
    let r5 = eps.remove(5);
    let r3 = eps.remove(3);
    let r1 = eps.remove(1);
    let mut root = eps.remove(0);
    sim.spawn("root", move |ctx| {
        root.mcast(ctx, &[1, 3, 5], b"hierarchy-wide").unwrap();
    });
    for (name, mut ep) in [("r1", r1), ("r3", r3), ("r5", r5)] {
        sim.spawn(name, move |ctx| {
            assert_eq!(ep.recv(ctx, 0).unwrap(), b"hierarchy-wide");
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn mpi_collectives_across_the_hierarchy() {
    let mut sim = Simulation::new();
    let n = 8;
    let config = BbpConfig::for_nodes(n);
    let layout_words = scramnet_cluster::bbp::Layout::new(&config).total_words();
    let h = hierarchy(&sim, 2, 4, layout_words);
    for rank in 0..n {
        let ep = BbpCluster::endpoint_over(h.nic(rank), config.clone());
        let mut mpi = Mpi::new(
            Device::Bbp(Box::new(ep)),
            SmpiCosts::channel_interface(),
            CollectiveImpl::Native,
        );
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let data = (mpi.rank() == 0).then_some(&b"over two rings"[..]);
            let out = mpi.bcast(ctx, &comm, 0, data);
            assert_eq!(out, b"over two rings");
            let sum = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[1.0])[0];
            assert_eq!(sum, n as f64);
            mpi.barrier(ctx, &comm);
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert!(h.conflicts().is_empty());
}

/// Hosts on two leaves write one word, the second long after the first has
/// crossed: each of the three rings sees both writes, and each reports the
/// conflict by the hosts' global ids, never by a bridge's.
#[test]
fn writers_on_two_leaves_conflict_by_their_host_ids() {
    let mut sim = Simulation::new();
    let h = hierarchy(&sim, 2, 3, 64);
    let (a, b) = (h.nic(1), h.nic(4));
    sim.spawn("a", move |ctx| a.write_word(ctx, 9, 1));
    sim.spawn("b", move |ctx| {
        ctx.advance(des::us(100));
        b.write_word(ctx, 9, 2);
    });
    assert!(sim.run().is_clean());
    assert_eq!(h.conflicts(), [(9, 1, 4); 3], "leaf 0, leaf 1, backbone");
    assert!((0..6).all(|host| h.snapshot(host)[9] == 2));
}
