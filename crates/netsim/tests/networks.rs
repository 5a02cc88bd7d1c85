//! Cross-network integration tests: relative latency/bandwidth ordering
//! between the era's fabrics, duplex interaction with windowing, and
//! contention behaviour through the shared switch.

use des::{Simulation, Time, TimeExt};
use netsim::{NetSpec, TcpCosts, TcpNet};

fn tcp_one_way(spec: NetSpec, costs: TcpCosts, len: usize) -> Time {
    let mut sim = Simulation::new();
    let net = TcpNet::new(&sim.handle(), spec, costs);
    let (a, b) = net.socket_pair(0, 1);
    let payload = vec![0u8; len];
    sim.spawn("a", move |ctx| a.send(ctx, &payload));
    let mut b = sim.spawn("b", move |ctx| {
        let _ = b.recv(ctx);
        ctx.now()
    });
    assert!(sim.run().is_clean());
    b.take().unwrap()
}

#[test]
fn latency_ordering_matches_the_era() {
    // Small messages: Myrinet API < Fast Ethernet TCP < ATM TCP.
    let fe = tcp_one_way(NetSpec::fast_ethernet(2), TcpCosts::fast_ethernet(), 16);
    let atm = tcp_one_way(NetSpec::atm_oc3(2), TcpCosts::atm(), 16);
    let myr_tcp = tcp_one_way(NetSpec::myrinet(2), TcpCosts::myrinet_tcp(), 16);
    assert!(fe < atm, "FastE {} vs ATM {}", fe.pretty(), atm.pretty());
    assert!(
        myr_tcp < atm,
        "MyriTCP {} vs ATM {}",
        myr_tcp.pretty(),
        atm.pretty()
    );
}

#[test]
fn bandwidth_ordering_inverts_for_bulk() {
    // 32 KB messages: the fat pipes win despite worse small-message
    // latency.
    let fe = tcp_one_way(
        NetSpec::fast_ethernet(2),
        TcpCosts::fast_ethernet(),
        32 * 1024,
    );
    let atm = tcp_one_way(NetSpec::atm_oc3(2), TcpCosts::atm(), 32 * 1024);
    let myr = tcp_one_way(NetSpec::myrinet(2), TcpCosts::myrinet_tcp(), 32 * 1024);
    assert!(atm < fe, "ATM {} vs FastE {}", atm.pretty(), fe.pretty());
    assert!(
        myr < atm,
        "Myrinet {} vs ATM {}",
        myr.pretty(),
        atm.pretty()
    );
}

#[test]
fn switch_contention_serializes_same_destination_flows() {
    // Two senders to one receiver see ~2x the completion time of two
    // senders to distinct receivers (downlink is the bottleneck).
    let run = |same_dst: bool| {
        let mut sim = Simulation::new();
        let net = TcpNet::new(
            &sim.handle(),
            NetSpec::fast_ethernet(4),
            TcpCosts::fast_ethernet(),
        );
        let payload = vec![0u8; 64 * 1024];
        let mut receivers = Vec::new();
        for src in 0..2usize {
            let dst = if same_dst { 2 } else { 2 + src };
            let (tx, rx) = net.socket_pair(src, dst);
            let p = payload.clone();
            sim.spawn(format!("tx{src}"), move |ctx| tx.send(ctx, &p));
            receivers.push(sim.spawn(format!("rx{src}"), move |ctx| {
                let _ = rx.recv(ctx);
                ctx.now()
            }));
        }
        assert!(sim.run().is_clean());
        receivers
            .iter_mut()
            .filter_map(|r| r.take())
            .max()
            .expect("a rank returned")
    };
    let contended = run(true);
    let spread = run(false);
    assert!(
        contended as f64 > 1.5 * spread as f64,
        "contended {} vs spread {}",
        contended.pretty(),
        spread.pretty()
    );
}

#[test]
fn myrinet_api_duplex_streams_share_no_wire() {
    // Full-duplex links: simultaneous opposite-direction bulk transfers
    // pay no *wire* penalty. The measured duplex time exceeds one-way
    // only by the host-side receive copy (the host's CPU serializes its
    // own tx and rx copies), never by a second wire serialization —
    // which would push it past 2x.
    let run = |duplex: bool| {
        let mut sim = Simulation::new();
        let net = TcpNet::new(&sim.handle(), NetSpec::myrinet(2), TcpCosts::myrinet_api());
        let (a, b) = net.socket_pair(0, 1);
        let len = 64 * 1024;
        let mut a = sim.spawn("a", move |ctx| {
            a.send(ctx, &vec![1u8; len]);
            let m = a.recv(ctx);
            assert!(!duplex || m.len() == len);
            ctx.now()
        });
        sim.spawn("b", move |ctx| {
            if duplex {
                b.send(ctx, &vec![2u8; len]);
            } else {
                b.send(ctx, b"tiny");
            }
            let m = b.recv(ctx);
            assert_eq!(m.len(), len);
        });
        assert!(sim.run().is_clean());
        a.take().unwrap()
    };
    let one_way = run(false);
    let duplex = run(true);
    assert!(
        (duplex as f64) < 1.8 * one_way as f64,
        "duplex {} must stay under 2x one-way {} (wire is full duplex)",
        duplex.pretty(),
        one_way.pretty()
    );
    assert!(duplex > one_way, "the receive copy is real work");
}

#[test]
fn windowed_and_unwindowed_sockets_agree_on_payload() {
    for window in [None, Some(8 * 1024)] {
        let mut sim = Simulation::new();
        let mut costs = TcpCosts::fast_ethernet();
        costs.window_bytes = window;
        let net = TcpNet::new(&sim.handle(), NetSpec::fast_ethernet(2), costs);
        let (a, b) = net.socket_pair(0, 1);
        let payload: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        sim.spawn("a", move |ctx| a.send(ctx, &payload));
        sim.spawn("b", move |ctx| {
            assert_eq!(b.recv(ctx), expect);
        });
        assert!(sim.run().is_clean());
    }
}
