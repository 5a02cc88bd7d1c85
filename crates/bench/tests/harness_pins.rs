//! The measurement harnesses of `bench::lib`, pinned to the bit: every
//! constant below was captured at commit 1741961, before the ping-pong,
//! aligned-collective and stream procedures each became one body. The
//! paper-anchor tests in `lib.rs` only hold these numbers to ±1–8 µs; a
//! refactor of the procedures has to hold them exactly. Re-capture only
//! for a deliberate change of simulated behaviour.

use bbp::BbpConfig;
use bench::{
    api_one_way_us, bbp_bcast_us, bbp_one_way_us, bbp_pingpong, mpi_barrier_run,
    mpi_bcast_events_telemetry, mpi_bcast_us, mpi_one_way_us, mpi_pingpong, one_way_us, pingpong,
    ApiNet, MpiNet,
};
use des::{ProcCtx, SimHandle, Simulation};
use scramnet::CostModel;
use smpi::CollectiveImpl::{Native, PointToPoint};
use smpi::{MpiWorld, SmpiCosts};

#[track_caller]
fn pin(what: &str, measured_us: f64, bits: u64) {
    assert_eq!(
        measured_us.to_bits(),
        bits,
        "{what}: measured {measured_us} µs ({:#018x}), pinned {} µs",
        measured_us.to_bits(),
        f64::from_bits(bits)
    );
}

#[test]
fn one_way_latencies_are_bit_identical() {
    for (len, bits) in [
        (0, 0x401b333333333333),
        (4, 0x401e4ccccccccccd),
        (1024, 0x406d600000000000),
    ] {
        pin(&format!("bbp {len} B"), bbp_one_way_us(len, 4), bits);
    }
    for (net, bits) in [
        (ApiNet::ScramnetBbp, 0x40350ccccccccccd),
        (ApiNet::FastEthernetTcp, 0x40632e147ae147ae),
        (ApiNet::AtmTcp, 0x4065e3f7ced91687),
        (ApiNet::MyrinetApi, 0x40541d70a3d70a3d),
        (ApiNet::MyrinetTcp, 0x405fbcac083126e9),
    ] {
        pin(&format!("{net:?} 64 B"), api_one_way_us(net, 64), bits);
    }
    for (net, at_0, at_1024) in [
        (MpiNet::Scramnet, 0x4047f33333333333, 0x4073dc7ae147ae14),
        (
            MpiNet::ScramnetAdiDirect,
            0x403b8ccccccccccd,
            0x407049ef9db22d0e,
        ),
        (MpiNet::FastEthernet, 0x4064beb851eb851f, 0x4077370a3d70a3d7),
        (MpiNet::Atm, 0x40678eb851eb851f, 0x4071fb0a3d70a3d7),
    ] {
        pin(&format!("mpi {net:?} 0 B"), mpi_one_way_us(net, 0), at_0);
        pin(
            &format!("mpi {net:?} 1024 B"),
            mpi_one_way_us(net, 1024),
            at_1024,
        );
    }
}

/// One-way MPI latency between ranks 0 and 1 of the world `build` makes,
/// through the same [`pingpong`] procedure as `mpi_one_way_us`.
fn world_one_way_us(build: impl FnOnce(&SimHandle) -> MpiWorld, len: usize) -> f64 {
    let sim = Simulation::new();
    let world = build(&sim.handle());
    let (mut p0, mut p1) = (world.proc(0), world.proc(1));
    let comm = p0.comm_world();
    let payload = vec![0xA5u8; len];
    let ping = move |ctx: &mut ProcCtx| {
        p0.send(ctx, &comm, 1, 1, &payload).unwrap();
        let _ = p0.recv(ctx, &comm, Some(1), Some(2)).unwrap();
    };
    let comm = p1.comm_world();
    let pong = move |ctx: &mut ProcCtx| {
        let (_, m) = p1.recv(ctx, &comm, Some(0), Some(1)).unwrap();
        p1.send(ctx, &comm, 0, 2, &m).unwrap();
    };
    one_way_us(&pingpong(sim, ping, pong))
}

/// The two preset worlds no figure pins: MPI over TCP on Myrinet, and
/// the hybrid cluster, whose 8 KB frame rides the Myrinet API. Captured
/// at commit 089fdad, before the calibration's unvaried fields became
/// constants.
#[test]
fn preset_worlds_are_bit_identical() {
    for (len, bits) in [(0, 0x406198c49ba5e354), (1024, 0x4067b8e560418937)] {
        pin(
            &format!("mpi myrinet_tcp {len} B"),
            world_one_way_us(|h| MpiWorld::myrinet_tcp(h, 4), len),
            bits,
        );
    }
    for (len, bits) in [(0, 0x40497ccccccccccd), (8192, 0x40896c7ae147ae14)] {
        pin(
            &format!("mpi hybrid {len} B"),
            world_one_way_us(|h| MpiWorld::hybrid(h, 4, 1024), len),
            bits,
        );
    }
}

/// What running the native Myrinet API as a `TcpCosts` preset could
/// move: its one-way latency empty and at 32 KB (four 8 KB segments, where
/// a per-segment cost would show), and a hybrid world's 32 KB message,
/// which goes by rendezvous with its data on the bulk path. Captured at
/// commit b57a318.
#[test]
fn myrinet_api_paths_are_bit_identical() {
    for (len, bits) in [(0, 0x4053600000000000), (32 * 1024, 0x4098e547ae147ae1)] {
        pin(
            &format!("MyrinetApi {len} B"),
            api_one_way_us(ApiNet::MyrinetApi, len),
            bits,
        );
    }
    pin(
        "mpi hybrid 32 KB",
        world_one_way_us(|h| MpiWorld::hybrid(h, 4, 1024), 32 * 1024),
        0x40a7951dc28f5c29,
    );
}

#[test]
fn pingpong_samples_are_exact() {
    assert_eq!(bbp_pingpong(0, 4), [13_600; 8]);
    assert_eq!(mpi_pingpong(MpiNet::Scramnet, 0), [95_800; 8]);
}

#[test]
fn collectives_are_bit_identical() {
    pin("bbp bcast", bbp_bcast_us(4, 4), 0x402299999999999a);
    for (coll, bits) in [
        (Native, 0x405d07ae147ae148),
        (PointToPoint, 0x406c83d70a3d70a4),
    ] {
        pin(
            &format!("mpi bcast {coll:?}"),
            mpi_bcast_us(MpiNet::Scramnet, 256, 4, coll),
            bits,
        );
    }
    // `dispatches` is the simulation's and was captured with the latencies.
    // `relayed` and `handoffs` count what the host did with those
    // dispatches — how many `Resume`s the dispatch loop answered for a
    // sleeping process, how often the baton changed threads — and were
    // re-captured when poll sweeps stopped waking their process per word
    // (before: 354 / 344 on 4 nodes, 7 764 / 7 614 on 16), and again when
    // a rank blocked in a collective stopped being woken per idle sweep
    // (before: 520 / 168 and 14 426 / 814).
    for (nodes, bits, dispatches, host) in [
        (4, 0x40462ccccccccccd, 828, (592, 82)),
        (16, 0x406764cccccccccd, 18_178, (14_842, 382)),
    ] {
        let (us, run) = mpi_barrier_run(MpiNet::Scramnet, nodes, Native);
        pin(&format!("mpi barrier {nodes} nodes"), us, bits);
        assert_eq!(run.dispatches, dispatches, "barrier on {nodes} nodes");
        assert_eq!(
            (run.relayed, run.handoffs),
            host,
            "barrier on {nodes} nodes: (relayed, handoffs)"
        );
    }
}

#[test]
fn observed_bcast_records_the_same_run() {
    let (us, events, series) = mpi_bcast_events_telemetry(MpiNet::Scramnet, 256, 4, Native);
    pin("observed mpi bcast", us, 0x405d07ae147ae148);
    assert_eq!((events.len(), series.len()), (2_282, 9));
}

/// The 16-rank barrier pair of `collectives_are_bit_identical` (the
/// counts `bench-report` prints) with the event log recording throughout:
/// the host gets through it the same way, hand-off for hand-off. 382
/// hand-offs since a rank blocked in a collective sleeps until a flag
/// word changes (814 while it was woken once per idle sweep, 7 614 once
/// per word).
#[test]
fn a_recorded_barrier_takes_the_same_host_path() {
    let mut sim = Simulation::new();
    sim.recorder().enable();
    let mut cfg = BbpConfig::for_nodes(16);
    cfg.data_words = 16 * 1024;
    let costs = SmpiCosts::channel_interface();
    let world = MpiWorld::scramnet_with(&sim.handle(), cfg, CostModel::default(), costs, Native);
    for rank in 0..16 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            mpi.barrier(ctx, &comm);
            ctx.wait_until(des::ms(5));
            mpi.barrier(ctx, &comm);
        });
    }
    let run = sim.run();
    assert!(run.is_clean(), "deadlocked: {:?}", run.deadlocked);
    assert!(!sim.recorder().is_empty(), "the run recorded nothing");
    assert_eq!(
        (run.dispatches, (run.relayed, run.handoffs)),
        (18_178, (14_842, 382)),
        "recorded barrier on 16 nodes: (dispatches, (relayed, handoffs))"
    );
}
