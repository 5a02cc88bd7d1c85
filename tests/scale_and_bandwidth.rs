//! Large-ring correctness (SCRAMNet scales to 256 nodes; the paper's
//! testbed had 4) and end-to-end bandwidth validation against the
//! hardware's published throughput figures.

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{Simulation, Time};
use scramnet_cluster::scramnet::TxMode;
use scramnet_cluster::smpi::{MpiWorld, ReduceOp};

#[test]
fn broadcast_on_a_64_node_ring() {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(64);
    cfg.data_words = 256;
    let cluster = BbpCluster::new(&sim.handle(), cfg);
    let targets: Vec<usize> = (1..64).collect();
    let mut root = cluster.endpoint(0);
    sim.spawn("root", move |ctx| {
        root.mcast(ctx, &targets, b"ring-wide").unwrap();
    });
    for r in 1..64 {
        let mut ep = cluster.endpoint(r);
        sim.spawn(format!("r{r}"), move |ctx| {
            assert_eq!(ep.recv(ctx, 0).unwrap(), b"ring-wide");
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn allreduce_on_16_ranks() {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 16);
    for rank in 0..16 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let s = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[mpi.rank() as f64]);
            assert_eq!(s, vec![120.0]);
            mpi.barrier(ctx, &comm);
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

/// Measure sustained one-directional BBP throughput by streaming a lot of
/// data and timing at the receiver.
fn measured_mb_s(mode: TxMode) -> f64 {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.data_words = 16 * 1024;
    cfg.bufs_per_proc = 32;
    let cluster = BbpCluster::new(&sim.handle(), cfg);
    cluster.set_tx_mode(mode);
    let total_bytes = 512 * 1024usize;
    let chunk = 16 * 1024usize;
    let mut tx = cluster.endpoint(0);
    sim.spawn("tx", move |ctx| {
        let payload = vec![0xEEu8; chunk];
        for _ in 0..total_bytes / chunk {
            tx.send(ctx, 1, &payload).unwrap();
        }
    });
    let mut rx = cluster.endpoint(1);
    let mut rx = sim.spawn("rx", move |ctx| {
        let mut got = 0usize;
        while got < total_bytes {
            got += rx.recv(ctx, 0).unwrap().len();
        }
        ctx.now()
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let t: Time = rx.take().unwrap();
    total_bytes as f64 / (t as f64 / 1e9) / 1e6
}

#[test]
fn fixed_mode_throughput_approaches_the_published_6_5_mb_s() {
    let mb_s = measured_mb_s(TxMode::Fixed4);
    // End-to-end includes receive-side PIO, so it lands under the wire
    // rate but must be in its neighbourhood.
    assert!(
        (4.0..=6.5).contains(&mb_s),
        "fixed-mode end-to-end throughput {mb_s:.2} MB/s"
    );
}

#[test]
fn variable_mode_throughput_approaches_the_published_16_7_mb_s() {
    let mb_s = measured_mb_s(TxMode::Variable);
    assert!(
        (8.0..=16.7).contains(&mb_s),
        "variable-mode end-to-end throughput {mb_s:.2} MB/s"
    );
    assert!(mb_s > measured_mb_s(TxMode::Fixed4) * 1.5);
}

#[test]
fn ethernet_stream_throughput_is_wire_limited() {
    use scramnet_cluster::netsim::{NetSpec, TcpCosts, TcpNet};
    let mut sim = Simulation::new();
    let net = TcpNet::new(
        &sim.handle(),
        NetSpec::fast_ethernet(2),
        TcpCosts::fast_ethernet(),
    );
    let (a, b) = net.socket_pair(0, 1);
    let total = 2 * 1024 * 1024usize;
    let chunk = 32 * 1024usize;
    sim.spawn("a", move |ctx| {
        let payload = vec![1u8; chunk];
        for _ in 0..total / chunk {
            a.send(ctx, &payload);
        }
    });
    let mut b = sim.spawn("b", move |ctx| {
        let mut got = 0usize;
        while got < total {
            got += b.recv(ctx).len();
        }
        ctx.now()
    });
    assert!(sim.run().is_clean());
    let t: Time = b.take().unwrap();
    let mb_s = total as f64 / (t as f64 / 1e9) / 1e6;
    // 100 Mb/s = 12.5 MB/s wire; stack costs and framing land it below.
    assert!(
        (6.0..=12.5).contains(&mb_s),
        "FastE streaming {mb_s:.2} MB/s"
    );
}
