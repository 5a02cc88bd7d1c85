//! An executable walk through the paper's claims, section by section.
//! Each claim is re-verified against the simulation and scored — run it
//! to see the reproduction's state in one screen.
//!
//! Run with: `cargo run --release --example paper_walkthrough`

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{SimHandle, Simulation, Time, TimeExt};
use scramnet_cluster::scramnet::{CostModel, Ring, TxMode};
use scramnet_cluster::smpi::{CollectiveImpl, MpiWorld};

struct Claim {
    section: &'static str,
    text: &'static str,
    pass: bool,
    detail: String,
}

fn check(
    claims: &mut Vec<Claim>,
    section: &'static str,
    text: &'static str,
    pass: bool,
    detail: String,
) {
    claims.push(Claim {
        section,
        text,
        pass,
        detail,
    });
}

/// One-way BBP latency, send-call → recv-return.
fn bbp_one_way(len: usize) -> f64 {
    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
    let mut a = cluster.endpoint(0);
    let mut b = cluster.endpoint(1);
    let payload = vec![0u8; len];
    sim.spawn("a", move |ctx| a.send(ctx, 1, &payload).unwrap());
    let mut b = sim.spawn("b", move |ctx| {
        let _ = b.recv(ctx, 0);
        ctx.now()
    });
    sim.run();
    b.take().unwrap().as_us()
}

fn mpi_one_way(build: impl Fn(&SimHandle) -> MpiWorld, len: usize) -> f64 {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let payload = vec![0u8; len];
    let mut tx = world.proc(0);
    let mut rx = world.proc(1);
    sim.spawn("tx", move |ctx| {
        let comm = tx.comm_world();
        tx.send(ctx, &comm, 1, 0, &payload).unwrap();
    });
    let mut rx = sim.spawn("rx", move |ctx| {
        let comm = rx.comm_world();
        let _ = rx.recv(ctx, &comm, Some(0), Some(0)).unwrap();
        ctx.now()
    });
    sim.run();
    rx.take().unwrap().as_us()
}

fn barrier_us(build: impl Fn(&SimHandle) -> MpiWorld, nodes: usize) -> f64 {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let align = scramnet_cluster::des::ms(5);
    let mut ranks: Vec<_> = (0..nodes)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("r{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                mpi.barrier(ctx, &comm);
                ctx.wait_until(align);
                mpi.barrier(ctx, &comm);
                ctx.now()
            })
        })
        .collect();
    sim.run();
    let last: Time = ranks
        .iter_mut()
        .filter_map(|r| r.take())
        .max()
        .expect("a rank returned");
    (last - align).as_us()
}

fn main() {
    let mut claims = Vec::new();

    // §2: hardware characteristics.
    let c = CostModel::default();
    let fixed = c.throughput_mb_s(TxMode::Fixed4);
    check(
        &mut claims,
        "§2",
        "fixed 4-byte packets give ~6.5 MB/s",
        (fixed - 6.5).abs() < 0.2,
        format!("model: {fixed:.2} MB/s"),
    );
    let var = c.throughput_mb_s(TxMode::Variable);
    check(
        &mut claims,
        "§2",
        "variable packets give ~16.7 MB/s",
        (var - 16.7).abs() < 1.0,
        format!("model: {var:.2} MB/s"),
    );
    check(
        &mut claims,
        "§2",
        "hop latency 250-800 ns; writes replicate in bounded time",
        (250..=800).contains(&c.hop_ns),
        format!("model hop: {} ns", c.hop_ns),
    );

    // §2: non-coherence.
    {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 4, 64, CostModel::default());
        let a = ring.nic(0);
        let b = ring.nic(2);
        sim.spawn("a", move |ctx| a.write_word(ctx, 5, 1));
        sim.spawn("b", move |ctx| b.write_word(ctx, 5, 2));
        sim.run();
        let finals: Vec<u32> = (0..4).map(|n| ring.snapshot(n)[5]).collect();
        let disagree = finals.iter().any(|&v| v != finals[0]);
        check(
            &mut claims,
            "§2",
            "memory is shared but NOT coherent (concurrent writers can disagree)",
            disagree,
            format!("final values per node: {finals:?}"),
        );
    }

    // §5: headline latencies.
    let b0 = bbp_one_way(0);
    check(
        &mut claims,
        "§5",
        "0-byte BBP message in ~6.5 µs",
        (b0 - 6.5).abs() < 1.0,
        format!("{b0:.2} µs"),
    );
    let b4 = bbp_one_way(4);
    check(
        &mut claims,
        "§5",
        "4-byte BBP message in ~7.8 µs",
        (b4 - 7.8).abs() < 1.2,
        format!("{b4:.2} µs"),
    );
    let m0 = mpi_one_way(|h| MpiWorld::scramnet(h, 4), 0);
    check(
        &mut claims,
        "§5",
        "0-byte MPI message in ~44 µs",
        (m0 - 44.0).abs() < 7.0,
        format!("{m0:.1} µs"),
    );
    check(
        &mut claims,
        "§5",
        "MPI adds (roughly) constant overhead over the API",
        (m0 - b0) > 30.0 && (m0 - b0) < 55.0,
        format!("layer tax at 0 B: {:.1} µs", m0 - b0),
    );

    // §5: SCRAMNet wins short messages vs Fast Ethernet / ATM at MPI level.
    let fe0 = mpi_one_way(|h| MpiWorld::fast_ethernet(h, 4), 16);
    let atm0 = mpi_one_way(|h| MpiWorld::atm(h, 4), 16);
    let scr16 = mpi_one_way(|h| MpiWorld::scramnet(h, 4), 16);
    check(
        &mut claims,
        "§5",
        "short messages: SCRAMNet beats Fast Ethernet and ATM",
        scr16 < fe0 && scr16 < atm0,
        format!("16 B: SCR {scr16:.0} µs, FastE {fe0:.0} µs, ATM {atm0:.0} µs"),
    );
    // ... and loses bulk (complementarity, §7).
    let scr8k = mpi_one_way(|h| MpiWorld::scramnet(h, 4), 8192);
    let fe8k = mpi_one_way(|h| MpiWorld::fast_ethernet(h, 4), 8192);
    check(
        &mut claims,
        "§7",
        "bulk messages: the commodity network wins (complementary strengths)",
        fe8k < scr8k,
        format!("8 KB: SCR {scr8k:.0} µs, FastE {fe8k:.0} µs"),
    );

    // §5: broadcast adds little; barriers order correctly.
    let p2p = bbp_one_way(4);
    let bcast = {
        let mut sim = Simulation::new();
        let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
        let mut root = cluster.endpoint(0);
        sim.spawn("root", move |ctx| {
            root.mcast(ctx, &[1, 2, 3], b"beef").unwrap()
        });
        let mut receivers: Vec<_> = (1..4)
            .map(|r| {
                let mut ep = cluster.endpoint(r);
                sim.spawn(format!("r{r}"), move |ctx| {
                    let _ = ep.recv(ctx, 0);
                    ctx.now()
                })
            })
            .collect();
        sim.run();
        let last: Time = receivers
            .iter_mut()
            .filter_map(|r| r.take())
            .max()
            .expect("a rank returned");
        last.as_us()
    };
    check(
        &mut claims,
        "§5",
        "4-node broadcast adds very little over point-to-point",
        bcast - p2p < 3.0,
        format!("bcast {bcast:.1} µs vs p2p {p2p:.1} µs"),
    );
    let native = barrier_us(|h| MpiWorld::scramnet(h, 4), 4);
    let p2p_bar = barrier_us(
        |h| {
            let mut w = MpiWorld::scramnet(h, 4);
            w.set_collectives(CollectiveImpl::PointToPoint);
            w
        },
        4,
    );
    let fe_bar = barrier_us(|h| MpiWorld::fast_ethernet(h, 4), 4);
    check(
        &mut claims,
        "§5",
        "barrier: native multicast << SCRAMNet p2p << Fast Ethernet",
        native < p2p_bar && p2p_bar < fe_bar,
        format!("{native:.0} / {p2p_bar:.0} / {fe_bar:.0} µs"),
    );

    // Print the scorecard.
    println!("executable walkthrough of the paper's claims\n");
    let mut passed = 0;
    for c in &claims {
        let mark = if c.pass { "PASS" } else { "FAIL" };
        if c.pass {
            passed += 1;
        }
        println!("[{mark}] {:>3}  {:<62} {}", c.section, c.text, c.detail);
    }
    println!("\n{passed}/{} claims reproduce", claims.len());
    assert_eq!(passed, claims.len(), "a paper claim failed to reproduce");
}
