//! Device-layer integration tests: the channel-interface contract
//! (reliable per-pair FIFO frames, round-robin progress) over each real
//! transport, below the ADI.

use des::{Simulation, Time};
use netsim::{NetSpec, TcpCosts, TcpNet};
use smpi::{Device, HybridDevice, TcpDevice};

fn tcp_device_pairs(sim: &Simulation, hosts: usize) -> Vec<Device> {
    let net = TcpNet::new(
        &sim.handle(),
        NetSpec::fast_ethernet(hosts),
        TcpCosts::fast_ethernet(),
    );
    (0..hosts)
        .map(|rank| Device::Tcp(TcpDevice::new(&net, rank, hosts)))
        .collect()
}

/// Two hosts on Myrinet under its native API (`TcpCosts::myrinet_api`).
fn myrinet_api(sim: &Simulation) -> TcpNet {
    TcpNet::new(&sim.handle(), NetSpec::myrinet(2), TcpCosts::myrinet_api())
}

#[test]
fn tcp_device_preserves_per_pair_fifo() {
    let mut sim = Simulation::new();
    let mut devs = tcp_device_pairs(&sim, 3);
    let d2 = devs.pop().unwrap();
    let d1 = devs.pop().unwrap();
    let mut d0 = devs.pop().unwrap();
    for (mut dev, label) in [(d1, 1u8), (d2, 2u8)] {
        sim.spawn(format!("tx{label}"), move |ctx| {
            for i in 0..15u8 {
                dev.send_frame(ctx, 0, &[label, i]).unwrap();
            }
        });
    }
    sim.spawn("rx", move |ctx| {
        let mut next = [0u8; 3];
        let mut got = 0;
        while got < 30 {
            if let Some((src, frame)) = d0.try_recv_frame(ctx) {
                assert_eq!(frame[0] as usize, src);
                assert_eq!(frame[1], next[src], "per-pair FIFO broken for {src}");
                next[src] += 1;
                got += 1;
            } else {
                ctx.advance(5_000);
            }
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn tcp_device_round_robin_serves_all_peers() {
    // With frames waiting from two peers, consecutive try_recv calls
    // must not starve either source.
    let mut sim = Simulation::new();
    let mut devs = tcp_device_pairs(&sim, 3);
    let d2 = devs.pop().unwrap();
    let d1 = devs.pop().unwrap();
    let mut d0 = devs.pop().unwrap();
    for (mut dev, label) in [(d1, 1u8), (d2, 2u8)] {
        sim.spawn(format!("tx{label}"), move |ctx| {
            for i in 0..8u8 {
                dev.send_frame(ctx, 0, &[label, i]).unwrap();
            }
        });
    }
    let mut rx = sim.spawn("rx", move |ctx| {
        ctx.wait_until(des::ms(5)); // let everything arrive first
        let mut order = Vec::new();
        while order.len() < 16 {
            if let Some((src, _)) = d0.try_recv_frame(ctx) {
                order.push(src);
            } else {
                ctx.advance(1_000);
            }
        }
        order
    });
    assert!(sim.run().is_clean());
    let order = rx.take().unwrap();
    // With both queues full, RR must alternate: no source appears three
    // times consecutively.
    for w in order.windows(3) {
        assert!(
            !(w[0] == w[1] && w[1] == w[2]),
            "round-robin starved a source: {order:?}"
        );
    }
}

#[test]
fn myrinet_device_carries_frames() {
    let mut sim = Simulation::new();
    let net = myrinet_api(&sim);
    let mut tx = Device::Tcp(TcpDevice::api_port(&net, 0, 2));
    let mut rx = Device::Tcp(TcpDevice::api_port(&net, 1, 2));
    assert_eq!(tx.rank(), 0);
    assert_eq!(rx.nprocs(), 2);
    assert!(!rx.has_native_mcast());
    sim.spawn("tx", move |ctx| {
        tx.send_frame(ctx, 1, b"over myrinet").unwrap()
    });
    sim.spawn("rx", move |ctx| loop {
        if let Some((src, frame)) = rx.try_recv_frame(ctx) {
            assert_eq!(src, 0);
            assert_eq!(frame, b"over myrinet");
            break;
        }
        ctx.advance(5_000);
    });
    assert!(sim.run().is_clean());
}

fn hybrid(cluster: &bbp::BbpCluster, net: &TcpNet, rank: usize, threshold: usize) -> Device {
    let fast = Device::Bbp(Box::new(cluster.endpoint(rank)));
    let bulk = Device::Tcp(TcpDevice::api_port(net, rank, 2));
    Device::Hybrid(Box::new(HybridDevice::new(fast, bulk, threshold)))
}

#[test]
fn hybrid_device_reports_fast_path_capabilities() {
    let mut sim = Simulation::new();
    let cluster = bbp::BbpCluster::new(&sim.handle(), bbp::BbpConfig::for_nodes(2));
    let net = myrinet_api(&sim);
    let fast = Device::Bbp(Box::new(cluster.endpoint(0)));
    let bulk = Device::Tcp(TcpDevice::api_port(&net, 0, 2));
    let hy = HybridDevice::new(fast, bulk, 512);
    assert_eq!(hy.threshold(), 512);
    let hy = Device::Hybrid(Box::new(hy));
    assert!(hy.has_native_mcast(), "mcast comes from the BBP fast path");
    assert_eq!(hy.rank(), 0);
    // Bulk path (Myrinet) is unlimited, minus the 5-byte wrapper = None.
    assert_eq!(hy.max_frame(), None);
    // A multicast rides the fast path: its partition minus the wrapper.
    let partition = bbp::BbpConfig::for_nodes(2).max_payload_bytes();
    assert_eq!(hy.max_mcast_frame(), Some(partition - 5));
    drop(sim.run());
}

#[test]
fn hybrid_device_mixed_sizes_stay_ordered_at_device_level() {
    let mut sim = Simulation::new();
    let cluster = bbp::BbpCluster::new(&sim.handle(), {
        let mut c = bbp::BbpConfig::for_nodes(2);
        c.data_words = 4096;
        c
    });
    let net = myrinet_api(&sim);
    let mut tx = hybrid(&cluster, &net, 0, 256);
    let mut rx = hybrid(&cluster, &net, 1, 256);
    sim.spawn("tx", move |ctx| {
        for i in 0..20u8 {
            // Alternate tiny (fast path) and 1 KB (bulk path) frames.
            let len = if i % 2 == 0 { 8 } else { 1024 };
            let mut frame = vec![i; len];
            frame[0] = i;
            tx.send_frame(ctx, 1, &frame).unwrap();
        }
    });
    let mut rx = sim.spawn("rx", move |ctx| {
        let mut seen = Vec::new();
        while seen.len() < 20 {
            if let Some((_, frame)) = rx.try_recv_frame(ctx) {
                seen.push(frame[0]);
            } else {
                ctx.advance(2_000);
            }
        }
        seen
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let expect: Vec<u8> = (0..20).collect();
    assert_eq!(
        rx.take().unwrap(),
        expect,
        "resequencer must restore send order"
    );
}

/// The Myrinet-path timing matters: a tiny frame right behind a bulk one
/// must not be delayed by it (it overtakes on the fast network and waits
/// in the resequencer only as long as the bulk frame's true transit).
#[test]
fn small_frames_overtake_on_the_wire_but_deliver_in_order() {
    let mut sim = Simulation::new();
    let cluster = bbp::BbpCluster::new(&sim.handle(), bbp::BbpConfig::for_nodes(2));
    let net = myrinet_api(&sim);
    let mut tx = hybrid(&cluster, &net, 0, 256);
    let mut rx = hybrid(&cluster, &net, 1, 256);
    sim.spawn("tx", move |ctx| {
        tx.send_frame(ctx, 1, &vec![1u8; 8 * 1024]).unwrap(); // bulk
        tx.send_frame(ctx, 1, &[2u8; 8]).unwrap(); // tiny, right behind
    });
    let mut rx = sim.spawn("rx", move |ctx| {
        let mut times: Vec<(u8, Time)> = Vec::new();
        while times.len() < 2 {
            if let Some((_, frame)) = rx.try_recv_frame(ctx) {
                times.push((frame[0], ctx.now()));
            } else {
                ctx.advance(2_000);
            }
        }
        times
    });
    assert!(sim.run().is_clean());
    let times = rx.take().unwrap();
    assert_eq!(times[0].0, 1, "bulk first (order preserved)");
    assert_eq!(times[1].0, 2);
    assert!(times[1].1 >= times[0].1);
}

/// Every `Layer::Device` span a traced run recorded, one `(node, name)`
/// per enter/exit pair; panics on an exit that closes no open span of its
/// node, or a span left open.
fn device_spans(sim: &Simulation) -> Vec<(u32, &'static str)> {
    use des::obs::{Event, Layer};
    let mut open = std::collections::HashMap::new();
    let mut pairs = Vec::new();
    for e in sim.recorder().take_events() {
        match e {
            Event::SpanEnter {
                node,
                layer: Layer::Device,
                name,
                ..
            } => {
                assert_eq!(open.insert(node, name), None, "device spans nest");
            }
            Event::SpanExit {
                node,
                layer: Layer::Device,
                name,
                ..
            } => {
                assert_eq!(open.remove(&node), Some(name), "unpaired device span");
                pairs.push((node, name));
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "device spans left open: {open:?}");
    pairs
}

/// Rank 0 sends one eager message of each length to rank 1 on `world`.
fn send_each(sim: &mut Simulation, world: &smpi::MpiWorld, lens: &'static [usize]) {
    let mut tx = world.proc(0);
    let mut rx = world.proc(1);
    sim.spawn("tx", move |ctx| {
        let comm = tx.comm_world();
        for &len in lens {
            tx.send(ctx, &comm, 1, 3, &vec![7u8; len]).unwrap();
        }
    });
    sim.spawn("rx", move |ctx| {
        let comm = rx.comm_world();
        for &len in lens {
            let (_, m) = rx.recv(ctx, &comm, Some(0), Some(3)).unwrap();
            assert_eq!(m.len(), len);
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn a_hybrid_frame_is_one_device_span_on_either_path() {
    // 16 B rides SCRAMNet, 4 KB Myrinet (threshold 1 KB); both are eager,
    // so each is one frame and the receiver sends nothing back.
    let mut sim = Simulation::new();
    sim.enable_trace();
    let world = smpi::MpiWorld::hybrid(&sim.handle(), 2, 1024);
    send_each(&mut sim, &world, &[16, 4096]);
    assert_eq!(device_spans(&sim), [(0, "frame_send"), (0, "frame_send")]);
}

#[test]
fn a_hybrid_native_broadcast_is_one_multicast_span() {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let world = smpi::MpiWorld::hybrid(&sim.handle(), 4, 1024);
    for rank in 0..4 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let data = (rank == 0).then_some(&[5u8; 256][..]);
            assert_eq!(mpi.bcast(ctx, &comm, 0, data), [5u8; 256]);
        });
    }
    assert!(sim.run().is_clean());
    assert_eq!(device_spans(&sim), [(0, "frame_mcast")]);
}

#[test]
fn a_fast_ethernet_frame_is_one_device_span() {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let world = smpi::MpiWorld::fast_ethernet(&sim.handle(), 2);
    send_each(&mut sim, &world, &[0, 64, 1024]);
    assert_eq!(device_spans(&sim), [(0, "frame_send"); 3]);
}
