#![forbid(unsafe_code)]

//! Shared measurement machinery for the experiment harnesses, plus
//! table/crossover reporting helpers.
//!
//! The paper measures two things and this crate has one body for each:
//! [`pingpong`] — one-way latency as half a round trip (Figures 1–3) —
//! and `aligned` — a collective timed from a common entry instant to the
//! last rank's exit (Figures 5–6; [`bbp_bcast_us`], Figure 4, is the same
//! idea at the BBP level with its own body, see there). A third,
//! [`bbp_stream_us`], is the one-way stream the ablations time. Every
//! `*_one_way_us`, `*_pingpong`, `mpi_bcast_*` and `mpi_barrier_*`
//! function is one of those procedures on one transport.
//!
//! Each `benches/figN_*.rs` target (run by `cargo bench`) regenerates one
//! figure of the paper by sweeping these functions and printing the
//! series next to the paper's reference values.

use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig};
use des::{ProcCtx, RunReport, Simulation, Time, TimeExt};
use netsim::{NetSpec, TcpCosts, TcpNet};
use scramnet::{CostModel, RingConfig};
use smpi::{CollectiveImpl, Comm, Mpi, MpiWorld, SmpiCosts};

pub mod report;

/// The API-level transports of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiNet {
    /// The BillBoard Protocol on SCRAMNet.
    ScramnetBbp,
    /// TCP/IP on switched Fast Ethernet.
    FastEthernetTcp,
    /// TCP/IP on ATM OC-3.
    AtmTcp,
    /// The native user-level Myrinet API.
    MyrinetApi,
    /// TCP/IP on Myrinet.
    MyrinetTcp,
}

impl ApiNet {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ApiNet::ScramnetBbp => "SCRAMNet (API)",
            ApiNet::FastEthernetTcp => "Fast Ethernet (TCP/IP)",
            ApiNet::AtmTcp => "ATM (TCP/IP)",
            ApiNet::MyrinetApi => "Myrinet API",
            ApiNet::MyrinetTcp => "Myrinet (TCP/IP)",
        }
    }
}

/// The MPI-level configurations of Figures 3, 5, 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiNet {
    /// MPICH/channel-interface over the BillBoard Protocol.
    Scramnet,
    /// The ADI-direct extension (paper §7 future work).
    ScramnetAdiDirect,
    /// MPICH over TCP on Fast Ethernet.
    FastEthernet,
    /// MPICH over TCP on ATM.
    Atm,
}

impl MpiNet {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            MpiNet::Scramnet => "SCRAMNet",
            MpiNet::ScramnetAdiDirect => "SCRAMNet (ADI-direct)",
            MpiNet::FastEthernet => "Fast Ethernet",
            MpiNet::Atm => "ATM",
        }
    }

    fn world(self, sim: &Simulation, nodes: usize, coll: CollectiveImpl) -> MpiWorld {
        let costs = match self {
            MpiNet::Scramnet => SmpiCosts::channel_interface(),
            MpiNet::ScramnetAdiDirect => SmpiCosts::adi_direct(),
            MpiNet::FastEthernet => return MpiWorld::fast_ethernet(&sim.handle(), nodes),
            MpiNet::Atm => return MpiWorld::atm(&sim.handle(), nodes),
        };
        let cfg = sweep_config(nodes);
        MpiWorld::scramnet_with(&sim.handle(), cfg, CostModel::default(), costs, coll)
    }
}

/// The BBP configuration every sweep runs on: `nodes` processes and
/// room for the 8 KB messages plus headers.
fn sweep_config(nodes: usize) -> BbpConfig {
    let mut cfg = BbpConfig::for_nodes(nodes);
    cfg.data_words = 16 * 1024;
    cfg
}

/// Number of timed round trips per latency measurement (after warm-up).
const PING_REPS: u32 = 8;
/// Warm-up round trips excluded from timing.
const WARMUP: u32 = 2;

/// The paper's latency procedure (Figures 1–3): two processes exchange
/// `WARMUP` untimed round trips and then `PING_REPS` timed ones, back to
/// back. `ping` is one round trip as its initiator makes it (send, then
/// receive the echo), `pong` as the echoing side does (receive, then send
/// back). Returns the timed round trips in repetition order,
/// nanoseconds; [`one_way_us`] reads the paper's number off them.
pub fn pingpong(
    mut sim: Simulation,
    mut ping: impl FnMut(&mut ProcCtx) + Send + 'static,
    mut pong: impl FnMut(&mut ProcCtx) + Send + 'static,
) -> Vec<Time> {
    let mut trips = sim.spawn("ping", move |ctx| {
        let mut timed = Vec::new();
        for i in 0..WARMUP + PING_REPS {
            let t0 = ctx.now();
            ping(ctx);
            if i >= WARMUP {
                timed.push(ctx.now() - t0);
            }
        }
        timed
    });
    sim.spawn("pong", move |ctx| {
        for _ in 0..WARMUP + PING_REPS {
            pong(ctx);
        }
    });
    let report = sim.run();
    assert!(
        report.is_clean(),
        "ping-pong deadlocked: {:?}",
        report.deadlocked
    );
    trips.take().expect("ping returned")
}

/// One-way latency, microseconds: half the mean of [`pingpong`]'s round
/// trips. They run back to back, so their sum is the span the paper
/// times — first timed send to last timed receive.
pub fn one_way_us(round_trips: &[Time]) -> f64 {
    round_trips.iter().sum::<Time>().as_us() / (2.0 * round_trips.len() as f64)
}

/// One-way latency at the messaging-API level (Figure 2), microseconds.
pub fn api_one_way_us(net: ApiNet, len: usize) -> f64 {
    let tcp = |spec: NetSpec, costs: TcpCosts| {
        let sim = Simulation::new();
        let (a, b) = TcpNet::new(&sim.handle(), spec, costs).socket_pair(0, 1);
        let payload = vec![0xA5u8; len];
        let ping = move |ctx: &mut ProcCtx| {
            a.send(ctx, &payload);
            let _ = a.recv(ctx);
        };
        let pong = move |ctx: &mut ProcCtx| {
            let m = b.recv(ctx);
            b.send(ctx, &m);
        };
        one_way_us(&pingpong(sim, ping, pong))
    };
    match net {
        ApiNet::ScramnetBbp => bbp_one_way_us(len, 4),
        ApiNet::FastEthernetTcp => tcp(NetSpec::fast_ethernet(4), TcpCosts::fast_ethernet()),
        ApiNet::AtmTcp => tcp(NetSpec::atm_oc3(4), TcpCosts::atm()),
        ApiNet::MyrinetApi => tcp(NetSpec::myrinet(4), TcpCosts::myrinet_api()),
        ApiNet::MyrinetTcp => tcp(NetSpec::myrinet(4), TcpCosts::myrinet_tcp()),
    }
}

/// Round trips of a BBP ping-pong between ring neighbours 0 and 1 under
/// an arbitrary protocol and ring configuration.
pub fn bbp_pingpong_with(len: usize, cfg: BbpConfig, ring: RingConfig) -> Vec<Time> {
    let sim = Simulation::new();
    let cluster = BbpCluster::with_hardware(&sim.handle(), cfg, CostModel::default(), ring);
    let (mut a, mut b) = (cluster.endpoint(0), cluster.endpoint(1));
    let payload = vec![0xA5u8; len];
    let ping = move |ctx: &mut ProcCtx| {
        a.send(ctx, 1, &payload).unwrap();
        let _ = a.recv(ctx, 1);
    };
    let pong = move |ctx: &mut ProcCtx| {
        let m = b.recv(ctx, 0).unwrap();
        debug_assert_eq!(m.len(), len);
        b.send(ctx, 0, &m).unwrap();
    };
    pingpong(sim, ping, pong)
}

/// Round trips of the BBP ping-pong on an `nodes`-node ring.
pub fn bbp_pingpong(len: usize, nodes: usize) -> Vec<Time> {
    bbp_pingpong_with(len, sweep_config(nodes), RingConfig::default())
}

/// BBP ping-pong between ring neighbours on an `nodes`-node ring.
pub fn bbp_one_way_us(len: usize, nodes: usize) -> f64 {
    one_way_us(&bbp_pingpong(len, nodes))
}

/// Round trips of the MPI ping-pong between ranks 0 and 1 of 4.
pub fn mpi_pingpong(net: MpiNet, len: usize) -> Vec<Time> {
    let sim = Simulation::new();
    let world = net.world(&sim, 4, CollectiveImpl::Native);
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
    pingpong(sim, ping, pong)
}

/// One-way MPI latency (Figures 1 and 3), microseconds.
pub fn mpi_one_way_us(net: MpiNet, len: usize) -> f64 {
    one_way_us(&mpi_pingpong(net, len))
}

/// Sender-completion time, microseconds, for rank 0 to stream `count`
/// messages of `len` bytes to rank 1 — it exposes allocator and
/// garbage-collection stalls, which a round trip hides.
pub fn bbp_stream_us(count: u32, len: usize, cfg: BbpConfig) -> f64 {
    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), cfg);
    let (mut a, mut b) = (cluster.endpoint(0), cluster.endpoint(1));
    let payload = vec![3u8; len];
    let mut sent = sim.spawn("a", move |ctx| {
        for _ in 0..count {
            a.send(ctx, 1, &payload).unwrap();
        }
        ctx.now()
    });
    sim.spawn("b", move |ctx| {
        for _ in 0..count {
            let _ = b.recv(ctx, 0);
        }
    });
    assert!(sim.run().is_clean());
    sent.take().expect("a returned").as_us()
}

/// BBP-level multicast latency (Figure 4): root posts once to all
/// `nodes - 1` receivers; reported is last-receiver delivery time,
/// microseconds.
///
/// Not an `aligned` run, on purpose: only the root waits for the
/// alignment instant, the receivers poll straight on from the end of
/// warm-up, and that poll phase is part of the number Figure 4 prints.
pub fn bbp_bcast_us(len: usize, nodes: usize) -> f64 {
    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), sweep_config(nodes));
    let align: Time = des::us(300);
    let mut root = cluster.endpoint(0);
    let targets: Vec<usize> = (1..nodes).collect();
    let payload = vec![0x5Au8; len];
    sim.spawn("root", move |ctx| {
        // Warm-up exchange to settle allocator state.
        root.mcast(ctx, &targets, b"warm").unwrap();
        ctx.wait_until(align);
        root.mcast(ctx, &targets, &payload).unwrap();
    });
    let mut receivers: Vec<_> = (1..nodes)
        .map(|r| {
            let mut ep = cluster.endpoint(r);
            sim.spawn(format!("r{r}"), move |ctx| {
                let _ = ep.recv(ctx, 0);
                let m = ep.recv(ctx, 0).unwrap();
                assert_eq!(m.len(), len);
                ctx.now()
            })
        })
        .collect();
    assert!(sim.run().is_clean());
    let last = receivers.iter_mut().filter_map(|r| r.take()).max();
    (last.expect("a rank returned") - align).as_us()
}

/// The paper's collective procedure (Figures 5–6): every rank makes one
/// warm-up `call`, waits for the common instant `align`, and makes the
/// timed one. `call(mpi, ctx, comm, timed)` is the collective on one
/// rank and says whether that rank's exit counts. Returns the last
/// counted exit minus `align`, microseconds, the run's report, and the
/// simulation's recorder.
///
/// `observed` arms that recorder and its telemetry gate (enabling clears
/// any warm-up series) one microsecond before `align` — every rank is
/// parked in `wait_until(align)` long before — so the events and gauge
/// series it holds afterwards are exactly the timed call's. The arming
/// process is spawned first: process ids and tie-breaks are the goldens'.
fn aligned(
    net: MpiNet,
    nodes: usize,
    coll: CollectiveImpl,
    observed: bool,
    call: impl Fn(&mut Mpi, &mut ProcCtx, &Comm, bool) -> bool + Clone + Send + 'static,
) -> (f64, RunReport, Arc<obs::Recorder>) {
    let mut sim = Simulation::new();
    let world = net.world(&sim, nodes, coll);
    let align: Time = des::ms(5);
    if observed {
        let rec = sim.recorder_arc();
        sim.spawn("obs-arm", move |ctx| {
            ctx.wait_until(align - des::us(1));
            rec.enable();
            rec.telemetry().enable();
        });
    }
    let mut ranks: Vec<_> = (0..nodes)
        .map(|rank| {
            let (mut mpi, call) = (world.proc(rank), call.clone());
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                call(&mut mpi, ctx, &comm, false);
                ctx.wait_until(align);
                call(&mut mpi, ctx, &comm, true).then(|| ctx.now())
            })
        })
        .collect();
    let run = sim.run();
    assert!(
        run.is_clean(),
        "aligned collective deadlocked: {:?}",
        run.deadlocked
    );
    let last = ranks.iter_mut().filter_map(|r| r.take().flatten()).max();
    let us = (last.expect("a rank returned") - align).as_us();
    (us, run, sim.recorder_arc())
}

/// `MPI_Bcast` of `len` bytes from rank 0 (4 bytes in warm-up) as an
/// [`aligned`] call: the receivers' exits count.
fn bcast_call(
    len: usize,
) -> impl Fn(&mut Mpi, &mut ProcCtx, &Comm, bool) -> bool + Clone + Send + 'static {
    let payload = vec![0x5Au8; len];
    move |mpi, ctx, comm, timed| {
        let data = if timed { &payload[..] } else { &[1u8; 4] };
        let root = mpi.rank() == 0;
        let out = mpi.bcast(ctx, comm, 0, root.then_some(data));
        assert_eq!(out.len(), data.len());
        !root
    }
}

/// MPI_Bcast latency (Figure 5): aligned entry, last-receiver return,
/// microseconds. `coll` selects the point-to-point tree or the native
/// multicast implementation.
pub fn mpi_bcast_us(net: MpiNet, len: usize, nodes: usize, coll: CollectiveImpl) -> f64 {
    aligned(net, nodes, coll, false, bcast_call(len)).0
}

/// MPI_Barrier latency (Figure 6): aligned entry, last-rank exit,
/// microseconds.
pub fn mpi_barrier_us(net: MpiNet, nodes: usize, coll: CollectiveImpl) -> f64 {
    mpi_barrier_run(net, nodes, coll).0
}

/// [`mpi_barrier_us`] together with the run's [`des::RunReport`], whose
/// `handoffs` and `relayed` say how the host got through it: how often
/// the baton changed threads, and how many resumptions the dispatch loop
/// walked for a sleeping process (`ProcCtx::charge`).
pub fn mpi_barrier_run(net: MpiNet, nodes: usize, coll: CollectiveImpl) -> (f64, RunReport) {
    let (us, run, _) = aligned(net, nodes, coll, false, |mpi, ctx, comm, _| {
        mpi.barrier(ctx, comm);
        true
    });
    (us, run)
}

// ----------------------------------------------------------------------
// Instrumented runs (obs-backed)
// ----------------------------------------------------------------------

/// The MPI_Bcast of [`mpi_bcast_us`] with the obs recorder armed for the
/// timed (post-warm-up) broadcast. Returns the last-receiver latency in
/// microseconds and the recorded event stream: spans for every layer of
/// the stack plus scheduler entries, ready for
/// [`obs::attribute`] or [`obs::chrome_trace_json`].
pub fn mpi_bcast_events(
    net: MpiNet,
    len: usize,
    nodes: usize,
    coll: CollectiveImpl,
) -> (f64, Vec<obs::Event>) {
    let (us, events, _) = mpi_bcast_events_telemetry(net, len, nodes, coll);
    (us, events)
}

/// [`mpi_bcast_events`] with continuous telemetry: the timed broadcast
/// also samples every layer's gauge series (FIFO backlogs, send-slot
/// residency, unexpected-queue lengths, …), returned alongside the
/// span events for the Chrome trace's counter tracks.
pub fn mpi_bcast_events_telemetry(
    net: MpiNet,
    len: usize,
    nodes: usize,
    coll: CollectiveImpl,
) -> (f64, Vec<obs::Event>, Vec<obs::SeriesSnapshot>) {
    let (us, _, rec) = aligned(net, nodes, coll, true, bcast_call(len));
    rec.disable();
    let series = rec.telemetry().take();
    rec.telemetry().disable();
    (us, rec.take_events(), series)
}

// ----------------------------------------------------------------------
// Reporting
// ----------------------------------------------------------------------

/// One latency-vs-size curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(message bytes, latency µs)` points, ascending in bytes.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// Sweep `f` over `sizes`.
    pub fn sweep(
        label: impl Into<String>,
        sizes: &[usize],
        mut f: impl FnMut(usize) -> f64,
    ) -> Self {
        Series {
            label: label.into(),
            points: sizes.iter().map(|&s| (s, f(s))).collect(),
        }
    }
}

/// Print an aligned latency table, one row per size, one column per
/// series (values in µs), and return it as a report row.
pub fn print_table(title: &str, series: &[Series]) -> obs::report::Table {
    print_table_with_unit(title, series, "µs")
}

/// [`print_table`] with an explicit value unit (e.g. "MB/s").
pub fn print_table_with_unit(title: &str, series: &[Series], unit: &str) -> obs::report::Table {
    println!("\n== {title} ==");
    print!("{:>9}", "bytes");
    for s in series {
        print!("  {:>26}", s.label);
    }
    println!();
    let rows = series[0].points.len();
    for i in 0..rows {
        print!("{:>9}", series[0].points[i].0);
        for s in series {
            assert_eq!(s.points[i].0, series[0].points[i].0, "misaligned sweeps");
            print!("  {:>23.1} {unit}", s.points[i].1);
        }
        println!();
    }
    obs::report::Table {
        title: title.to_string(),
        unit: unit.to_string(),
        sizes: series[0].points.iter().map(|&(s, _)| s).collect(),
        series: series
            .iter()
            .map(|s| obs::report::Series {
                label: s.label.clone(),
                values: s.points.iter().map(|&(_, v)| v).collect(),
            })
            .collect(),
    }
}

/// First size at which `challenger` becomes faster than `incumbent`
/// (`None` if it never does within the sweep); [`report::crossover`] is
/// the same answer as a report row.
pub fn crossover(incumbent: &Series, challenger: &Series) -> Option<usize> {
    let sizes = |s: &Series| s.points.iter().map(|p| p.0).collect::<Vec<_>>();
    assert_eq!(sizes(incumbent), sizes(challenger), "misaligned sweeps");
    incumbent
        .points
        .iter()
        .zip(&challenger.points)
        .find(|((_, a), (_, b))| b < a)
        .map(|((size, _), _)| *size)
}

/// Print a paper-vs-measured anchor value with its deviation, and
/// return it as a report row.
pub fn report_anchor(what: &str, paper_us: f64, measured_us: f64) -> obs::report::Anchor {
    let dev = (measured_us - paper_us) / paper_us * 100.0;
    println!("{what:<58} paper {paper_us:>8.1} µs   measured {measured_us:>8.1} µs   ({dev:+.0}%)");
    obs::report::Anchor {
        name: report::slug(what),
        paper_us,
        measured_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_finds_first_win() {
        let a = Series {
            label: "a".into(),
            points: vec![(0, 10.0), (100, 20.0), (200, 30.0)],
        };
        let b = Series {
            label: "b".into(),
            points: vec![(0, 50.0), (100, 25.0), (200, 29.0)],
        };
        assert_eq!(crossover(&a, &b), Some(200));
        assert_eq!(crossover(&b, &a), Some(0));
    }

    #[test]
    #[should_panic(expected = "misaligned sweeps")]
    fn crossover_of_sweeps_over_different_sizes_panics() {
        let a = Series::sweep("a", &[0, 100, 200], |n| n as f64);
        let b = Series::sweep("b", &[0, 64, 200], |n| 150.0 - n as f64);
        crossover(&a, &b);
    }

    #[test]
    fn crossover_none_when_never_faster() {
        let a = Series {
            label: "a".into(),
            points: vec![(0, 10.0), (100, 20.0)],
        };
        let b = Series {
            label: "b".into(),
            points: vec![(0, 50.0), (100, 60.0)],
        };
        assert_eq!(crossover(&a, &b), None);
    }

    #[test]
    fn sweep_preserves_sizes() {
        let s = Series::sweep("x", &[0, 4, 8], |n| n as f64);
        assert_eq!(s.points, vec![(0, 0.0), (4, 4.0), (8, 8.0)]);
    }

    #[test]
    fn bbp_one_way_matches_paper_anchors() {
        assert!((bbp_one_way_us(0, 4) - 6.5).abs() < 1.0);
        assert!((bbp_one_way_us(4, 4) - 7.8).abs() < 1.2);
    }

    #[test]
    fn mpi_one_way_matches_paper_anchors() {
        assert!((mpi_one_way_us(MpiNet::Scramnet, 0) - 44.0).abs() < 7.0);
        assert!((mpi_one_way_us(MpiNet::Scramnet, 4) - 49.0).abs() < 8.0);
    }

    #[test]
    fn bcast_adds_little_over_p2p() {
        let p2p = bbp_one_way_us(4, 4);
        let bcast = bbp_bcast_us(4, 4);
        assert!(bcast > p2p, "bcast {bcast:.1} vs p2p {p2p:.1}");
        assert!(
            bcast < 2.5 * p2p,
            "bcast {bcast:.1} should be far below 2×p2p {p2p:.1}"
        );
    }

    #[test]
    fn native_barrier_beats_p2p_barrier() {
        let native = mpi_barrier_us(MpiNet::Scramnet, 4, CollectiveImpl::Native);
        let p2p = mpi_barrier_us(MpiNet::Scramnet, 4, CollectiveImpl::PointToPoint);
        assert!(native < p2p / 2.0, "native {native:.1} vs p2p {p2p:.1}");
    }
}
