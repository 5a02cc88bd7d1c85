//! Every call into the simulator's crates is in this file, so a change
//! to their public API has exactly one place in the benchmark to touch
//! (README.md lists the calls). Each driver builds a fresh `Simulation`,
//! runs one leg of a workload and returns plain numbers: host time from
//! `Instant` around the calls, simulated time from `ProcCtx::now` around
//! the same calls, and the exact counters the layers publish.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bbp::{BbpCluster, BbpConfig, BbpEndpoint, EndpointStats};
use des::{ProcCtx, SimHandle, Simulation, Time};
use scramnet::{CostModel, Ring, RingConfig};
use smpi::{CollectiveImpl, Comm, Mpi, MpiWorld, SmpiCosts};
use workload::{Shape, Sidecar, WorkloadPlan};

use crate::trace::{SpanId, Tracer};

/// Exact counters by metric name; legs of one repetition add up.
pub type Counters = BTreeMap<&'static str, f64>;

/// What one leg (one `Simulation`) of a repetition yields.
#[derive(Default)]
pub struct Leg {
    /// Host ns from entering the driver to the first timed op.
    pub setup_ns: u64,
    /// Host ns from the first timed op to the return of `Simulation::run`.
    pub timed_ns: u64,
    /// Simulated ns of the timed section.
    pub sim_ns: u64,
    /// Ops in the timed section.
    pub ops: u64,
    /// Timed ops whose output failed a check.
    pub bad: u64,
    /// Timed ops refused by design (scripted overload sheds).
    pub refused: u64,
    /// `RunReport::dispatches` of the whole leg, warm-up included; 0 when
    /// the driven call does not expose its `RunReport`.
    pub dispatches: u64,
    /// `RunReport::peak_queue_depth`; a maximum, so not among the counters.
    pub peak_queue_depth: u64,
    pub counters: Counters,
    pub tracks: Vec<Tracer>,
    /// The `obs` event log, when the leg ran with the recorder on.
    pub events: Vec<obs::Event>,
}

fn bump(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_default() += v;
}

fn report_counters(c: &mut Counters, report: &des::RunReport, procs: usize) {
    bump(c, "des.dispatches", report.dispatches as f64);
    bump(c, "des.sim_end_ns", report.end_time as f64);
    bump(c, "des.proc_threads", procs as f64);
    bump(c, "des.deadlocked", report.deadlocked.len() as f64);
}

fn ring_counters(c: &mut Counters, ring: &Ring, elapsed: Time) {
    let s = ring.stats();
    bump(c, "scramnet.injections", s.injections as f64);
    let hops = ring.nodes().saturating_sub(1) as u64;
    bump(c, "scramnet.hop_applies", (s.injections * hops) as f64);
    bump(c, "scramnet.words_carried", s.words_carried as f64);
    bump(c, "scramnet.pio_reads", s.pio_reads as f64);
    bump(c, "scramnet.pio_writes", s.pio_writes as f64);
    bump(c, "scramnet.bit_errors", s.bit_errors as f64);
    bump(c, "scramnet.link_busy_ns", s.link_busy_ns as f64);
    bump(c, "scramnet.link_ns", ring.nodes() as f64 * elapsed as f64);
}

fn bbp_counters(c: &mut Counters, s: &EndpointStats) {
    bump(c, "bbp.sends", s.sends as f64);
    bump(c, "bbp.recvs", s.recvs as f64);
    bump(c, "bbp.mcasts", s.mcasts as f64);
    bump(c, "bbp.polls", s.polls as f64);
    bump(c, "bbp.gc_sweeps", s.gc_sweeps as f64);
    bump(c, "bbp.send_stalls", s.send_stalls as f64);
    bump(c, "bbp.retries", s.retries as f64);
}

/// The byte pattern every message carries: a function of the run's seed
/// and the message's sequence number, so a receive can check content
/// without having seen the send.
pub fn fill_pattern(buf: &mut Vec<u8>, len: usize, seed: u64, seq: u64) {
    let mut k = seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    k = (k ^ (k >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    k ^= k >> 27;
    buf.clear();
    buf.extend((0..len).map(|i| (k.rotate_left(i as u32 % 64) as u8) ^ (i as u8)));
}

/// What simulated processes hand back to the driver thread.
#[derive(Default)]
struct Sink {
    /// Host instant and simulated time of the first timed op.
    start: Mutex<Option<(Instant, Time)>>,
    /// Latest simulated time any process left its timed loop.
    sim_end: AtomicU64,
    bad: AtomicU64,
    bbp: Mutex<Vec<EndpointStats>>,
    tracks: Mutex<Vec<Tracer>>,
}

impl Sink {
    fn stamp_start(&self, ctx: &ProcCtx) {
        *self.start.lock().expect("no process panics holding it") =
            Some((Instant::now(), ctx.now()));
    }

    /// End of a process body: its last timed instant, its endpoint's
    /// counters if the benchmark holds the endpoint, and its spans.
    fn finish(&self, ctx: &ProcCtx, bbp: Option<EndpointStats>, tracer: Tracer) {
        // Relaxed: plain statistics, read after `run` has joined the thread.
        self.sim_end.fetch_max(ctx.now(), Ordering::Relaxed);
        if let Some(s) = bbp {
            self.bbp.lock().expect("no panics holding it").push(s);
        }
        if tracer.is_on() {
            self.tracks
                .lock()
                .expect("no panics holding it")
                .push(tracer);
        }
    }
}

/// Close out a leg after `Simulation::run` returned at `t_end`.
#[allow(clippy::too_many_arguments)]
fn finish_leg(
    t0: Instant,
    t_end: Instant,
    report: &des::RunReport,
    procs: usize,
    ops: u64,
    sink: &Sink,
    ring: &Ring,
    driver: Tracer,
) -> Leg {
    let (host_start, sim_start) = sink
        .start
        .lock()
        .expect("no panics holding it")
        .expect("a process stamps the first timed op");
    let sim_end = sink.sim_end.load(Ordering::Relaxed);
    let mut counters = Counters::new();
    report_counters(&mut counters, report, procs);
    ring_counters(&mut counters, ring, report.end_time);
    for s in sink.bbp.lock().expect("no panics holding it").iter() {
        bbp_counters(&mut counters, s);
    }
    let mut tracks = std::mem::take(&mut *sink.tracks.lock().expect("no panics holding it"));
    if driver.is_on() {
        tracks.push(driver);
    }
    tracks.sort_by_key(|t| t.track);
    Leg {
        setup_ns: (host_start - t0).as_nanos() as u64,
        timed_ns: (t_end - host_start).as_nanos() as u64,
        sim_ns: sim_end - sim_start,
        ops,
        bad: (sink.bad.load(Ordering::Relaxed) + report.deadlocked.len() as u64).min(ops),
        refused: 0,
        dispatches: report.dispatches,
        peak_queue_depth: report.peak_queue_depth as u64,
        counters,
        tracks,
        events: Vec::new(),
    }
}

fn driver_tracer(trace: bool, epoch: Instant) -> Tracer {
    if trace {
        Tracer::on(epoch, 0, 8)
    } else {
        Tracer::off()
    }
}

// ----------------------------------------------------------------------
// ring_storm
// ----------------------------------------------------------------------

pub const STORM_NODES: usize = 16;
pub const STORM_PACKETS_PER_NODE: usize = 8_000;
const STORM_WORDS: u32 = 16;

/// Every node of a 16-node ring sources 8 000 sixteen-word packets from
/// event context, 1 µs apart, sources staggered 125 ns, seeded bit
/// errors on: the `des` queue and `scramnet` replication do all the work
/// and no simulated process exists. Op = one packet replicated to the 15
/// other banks.
pub fn ring_storm_leg(seed: u64, trace: bool) -> Leg {
    /// What every tick needs; cloned into each rescheduled event.
    #[derive(Clone)]
    struct Storm {
        ring: Ring,
        handle: SimHandle,
        /// Event-context spans share one buffer (events run on the
        /// driver's thread, one at a time); `None` when tracing is off,
        /// so the untraced pass takes no lock.
        tracer: Option<Arc<Mutex<Tracer>>>,
        salt: u32,
    }

    fn tick(storm: &Storm, node: usize, i: usize, t: Time) {
        let w = i as u32 ^ storm.salt;
        let data = Arc::new((0..STORM_WORDS).map(|k| w ^ k).collect());
        let addr = node * 32 + (i & 16);
        match &storm.tracer {
            None => storm.ring.source_packet(node, t, addr, data),
            Some(tracer) => {
                let mut tr = tracer.lock().expect("one entity runs at a time");
                let op_id = (node * STORM_PACKETS_PER_NODE + i) as u32;
                let op = tr.open("op", "bench", op_id, SpanId::NONE, t);
                let call = tr.open("scramnet.source_packet", "scramnet", op_id, op, t);
                storm.ring.source_packet(node, t, addr, data);
                tr.close(call, t);
                tr.close(op, t);
            }
        }
        if i + 1 < STORM_PACKETS_PER_NODE {
            let next = storm.clone();
            storm
                .handle
                .schedule_at(t + 1_000, move |t| tick(&next, node, i + 1, t));
        }
    }

    let t0 = Instant::now();
    let mut driver = driver_tracer(trace, t0);
    let ops = STORM_NODES * STORM_PACKETS_PER_NODE;
    let build = driver.open("setup.build", "scramnet", 0, SpanId::NONE, 0);
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let ring = Ring::with_config(
        &handle,
        STORM_NODES,
        8192,
        CostModel::default(),
        RingConfig {
            bit_error_rate: 1e-4,
            error_seed: seed,
            ..Default::default()
        },
    );
    let storm = Storm {
        ring: ring.clone(),
        handle: handle.clone(),
        tracer: trace.then(|| Arc::new(Mutex::new(driver.sibling(1, 2 * ops)))),
        salt: seed as u32,
    };
    for node in 0..STORM_NODES {
        let first = storm.clone();
        handle.schedule_at(node as Time * 125, move |t| tick(&first, node, 0, t));
    }
    driver.close(build, 0);

    let t_start = Instant::now();
    let run = driver.open("des.run", "des", 0, SpanId::NONE, 0);
    let report = sim.run();
    let t_end = Instant::now();
    driver.close(run, report.end_time);

    let mut counters = Counters::new();
    report_counters(&mut counters, &report, 0);
    ring_counters(&mut counters, &ring, report.end_time);
    // Every scheduled packet must have entered the ring.
    let missing = (ops as f64 - counters["scramnet.injections"]).abs() as u64;
    let mut tracks = Vec::new();
    if let Some(tracer) = storm.tracer {
        tracks.push(driver);
        tracks.push(std::mem::replace(
            &mut *tracer.lock().expect("one entity runs at a time"),
            Tracer::off(),
        ));
    }
    Leg {
        setup_ns: (t_start - t0).as_nanos() as u64,
        timed_ns: (t_end - t_start).as_nanos() as u64,
        sim_ns: report.end_time,
        ops: ops as u64,
        bad: missing.min(ops as u64),
        refused: 0,
        dispatches: report.dispatches,
        peak_queue_depth: report.peak_queue_depth as u64,
        counters,
        tracks,
        events: Vec::new(),
    }
}

// ----------------------------------------------------------------------
// Ping-pong (bbp_pingpong, mpi_pingpong)
// ----------------------------------------------------------------------

/// Message sizes of the ping-pong workloads, bytes.
pub const LADDER: [usize; 5] = [0, 4, 64, 256, 1024];
/// Untimed round trips before the first timed op.
const WARMUP: u32 = 2;
const PINGPONG_NODES: usize = 4;

/// One side of a ping-pong: the two calls under test.
trait Port: Send + 'static {
    const LAYER: &'static str;
    const SEND: &'static str;
    const RECV: &'static str;
    fn send(&mut self, ctx: &mut ProcCtx, peer: usize, data: &[u8]);
    fn recv(&mut self, ctx: &mut ProcCtx, peer: usize) -> Vec<u8>;
    fn bbp_stats(&self) -> Option<EndpointStats>;
}

// A typed error on these workloads means the stack is broken, and the
// peer blocked in a polling receive would spin in simulated time
// forever; panicking ends the run with a message (`Simulation::run`
// forwards it) and a non-zero exit.

struct BbpPort(BbpEndpoint);

impl Port for BbpPort {
    const LAYER: &'static str = "bbp";
    const SEND: &'static str = "bbp.send";
    const RECV: &'static str = "bbp.recv";
    fn send(&mut self, ctx: &mut ProcCtx, peer: usize, data: &[u8]) {
        self.0.send(ctx, peer, data).expect("BbpEndpoint::send");
    }
    fn recv(&mut self, ctx: &mut ProcCtx, peer: usize) -> Vec<u8> {
        self.0.recv(ctx, peer).expect("BbpEndpoint::recv")
    }
    fn bbp_stats(&self) -> Option<EndpointStats> {
        Some(self.0.stats().clone())
    }
}

struct MpiPort(Mpi, Comm);

impl Port for MpiPort {
    const LAYER: &'static str = "smpi";
    const SEND: &'static str = "smpi.send";
    const RECV: &'static str = "smpi.recv";
    fn send(&mut self, ctx: &mut ProcCtx, peer: usize, data: &[u8]) {
        let tag = self.0.rank() as u32 + 1;
        self.0
            .send(ctx, &self.1, peer, tag, data)
            .expect("Mpi::send");
    }
    fn recv(&mut self, ctx: &mut ProcCtx, peer: usize) -> Vec<u8> {
        let tag = peer as u32 + 1;
        let (status, data) = self
            .0
            .recv(ctx, &self.1, Some(peer), Some(tag))
            .expect("Mpi::recv");
        assert_eq!(status.len, data.len(), "Mpi::recv status length");
        data
    }
    // `MpiWorld` owns the endpoints and does not expose them.
    fn bbp_stats(&self) -> Option<EndpointStats> {
        None
    }
}

fn pingpong_config(nodes: usize) -> BbpConfig {
    let mut cfg = BbpConfig::for_nodes(nodes);
    cfg.data_words = 16 * 1024; // room for the 1 KB rung plus headers
    cfg
}

fn mpi_world(handle: &SimHandle, nodes: usize) -> MpiWorld {
    MpiWorld::scramnet_with(
        handle,
        pingpong_config(nodes),
        CostModel::default(),
        SmpiCosts::channel_interface(),
        CollectiveImpl::Native,
    )
}

fn world_ring(world: &MpiWorld) -> Ring {
    world
        .bbp_cluster()
        .expect("a SCRAMNet world has a BBP cluster")
        .ring()
        .clone()
}

/// Ranks 0 and 1 of a 4-node ring exchange `rounds` round trips of `len`
/// bytes through `BbpEndpoint::send`/`recv`. Op = one round trip.
pub fn bbp_pingpong_leg(len: usize, rounds: u32, seed: u64, trace: bool) -> Leg {
    let t0 = Instant::now();
    let mut driver = driver_tracer(trace, t0);
    let build = driver.open("setup.build", "bbp", 0, SpanId::NONE, 0);
    let sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), pingpong_config(PINGPONG_NODES));
    let ports = [BbpPort(cluster.endpoint(0)), BbpPort(cluster.endpoint(1))];
    driver.close(build, 0);
    pingpong(sim, t0, driver, cluster.ring(), ports, len, rounds, seed)
}

/// Which `obs` gates are open during an MPI ping-pong leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    Off,
    Log,
    Telemetry,
    Both,
}

/// The same exchange through `Mpi::send`/`recv` on the channel-interface
/// device: identical lower layers plus ADI matching.
pub fn mpi_pingpong_leg(len: usize, rounds: u32, seed: u64, trace: bool, obs: ObsMode) -> Leg {
    let t0 = Instant::now();
    let mut driver = driver_tracer(trace, t0);
    let build = driver.open("setup.build", "smpi", 0, SpanId::NONE, 0);
    let sim = Simulation::new();
    let world = mpi_world(&sim.handle(), PINGPONG_NODES);
    let ports = [0, 1].map(|rank| {
        let mpi = world.proc(rank);
        let comm = mpi.comm_world();
        MpiPort(mpi, comm)
    });
    driver.close(build, 0);
    let recorder = sim.recorder_arc();
    if matches!(obs, ObsMode::Log | ObsMode::Both) {
        recorder.enable();
    }
    if matches!(obs, ObsMode::Telemetry | ObsMode::Both) {
        recorder.telemetry().enable();
    }
    let mut leg = pingpong(
        sim,
        t0,
        driver,
        &world_ring(&world),
        ports,
        len,
        rounds,
        seed,
    );
    recorder.disable();
    recorder.telemetry().disable();
    leg.events = recorder.take_events();
    leg
}

#[allow(clippy::too_many_arguments)]
fn pingpong<P: Port>(
    mut sim: Simulation,
    t0: Instant,
    mut driver: Tracer,
    ring: &Ring,
    ports: [P; 2],
    len: usize,
    rounds: u32,
    seed: u64,
) -> Leg {
    let sink = Arc::new(Sink::default());
    let spawn = driver.open("setup.spawn", "des", 0, SpanId::NONE, 0);
    for (rank, mut port) in ports.into_iter().enumerate() {
        let sink = Arc::clone(&sink);
        let mut armed = Some(driver.sibling(rank as u32 + 1, 3 * rounds as usize));
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let peer = 1 - rank;
            let mut tracer = Tracer::off();
            let (mut out, mut want) = (Vec::with_capacity(len), Vec::with_capacity(len));
            for i in 0..WARMUP + rounds {
                if i == WARMUP {
                    // Warm-up is over: spans and the clocks start here.
                    tracer = armed.take().expect("armed once");
                    if rank == 0 {
                        sink.stamp_start(ctx);
                    }
                }
                let (ping, pong) = (2 * u64::from(i), 2 * u64::from(i) + 1);
                let op = tracer.open("op", "bench", i, SpanId::NONE, ctx.now());
                if rank == 0 {
                    fill_pattern(&mut out, len, seed, ping);
                    let s = tracer.open(P::SEND, P::LAYER, i, op, ctx.now());
                    port.send(ctx, peer, &out);
                    tracer.close(s, ctx.now());
                }
                let r = tracer.open(P::RECV, P::LAYER, i, op, ctx.now());
                let got = port.recv(ctx, peer);
                tracer.close(r, ctx.now());
                fill_pattern(&mut want, len, seed, if rank == 0 { pong } else { ping });
                if got != want && i >= WARMUP {
                    sink.bad.fetch_add(1, Ordering::Relaxed);
                }
                if rank == 1 {
                    fill_pattern(&mut out, len, seed, pong);
                    let s = tracer.open(P::SEND, P::LAYER, i, op, ctx.now());
                    port.send(ctx, peer, &out);
                    tracer.close(s, ctx.now());
                }
                tracer.close(op, ctx.now());
            }
            sink.finish(ctx, port.bbp_stats(), tracer);
        });
    }
    driver.close(spawn, 0);

    let run = driver.open("des.run", "des", 0, SpanId::NONE, 0);
    let report = sim.run();
    let t_end = Instant::now();
    driver.close(run, report.end_time);
    finish_leg(
        t0,
        t_end,
        &report,
        2,
        u64::from(rounds),
        &sink,
        ring,
        driver,
    )
}

// ----------------------------------------------------------------------
// mpi_collectives
// ----------------------------------------------------------------------

pub const BCAST_BYTES: usize = 256;

/// `iters` iterations of a 256-byte `bcast` from rank 0 followed by a
/// `barrier`, native multicast, on a ring of `ranks` nodes. Op = one
/// collective call completed by all ranks, so a leg has `2 * iters` ops;
/// even op ids are broadcasts, odd ones barriers.
pub fn collectives_leg(ranks: usize, iters: u32, seed: u64, trace: bool) -> Leg {
    let t0 = Instant::now();
    let mut driver = driver_tracer(trace, t0);
    let build = driver.open("setup.build", "smpi", 0, SpanId::NONE, 0);
    let mut sim = Simulation::new();
    let world = mpi_world(&sim.handle(), ranks);
    driver.close(build, 0);

    let sink = Arc::new(Sink::default());
    let spawn = driver.open("setup.spawn", "des", 0, SpanId::NONE, 0);
    for rank in 0..ranks {
        let mut mpi = world.proc(rank);
        let sink = Arc::clone(&sink);
        let mut armed = Some(driver.sibling(rank as u32 + 1, 4 * iters as usize));
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let mut tracer = Tracer::off();
            let mut want = Vec::with_capacity(BCAST_BYTES);
            for i in 0..1 + iters {
                if i == 1 {
                    tracer = armed.take().expect("armed once");
                    if rank == 0 {
                        sink.stamp_start(ctx);
                    }
                }
                fill_pattern(&mut want, BCAST_BYTES, seed, u64::from(i));
                let op = tracer.open("op", "bench", 2 * i, SpanId::NONE, ctx.now());
                let s = tracer.open("smpi.bcast", "smpi", 2 * i, op, ctx.now());
                let out = mpi.bcast(ctx, &comm, 0, (rank == 0).then_some(&want[..]));
                tracer.close(s, ctx.now());
                tracer.close(op, ctx.now());
                if out != want && i >= 1 {
                    sink.bad.fetch_add(1, Ordering::Relaxed);
                }
                let op = tracer.open("op", "bench", 2 * i + 1, SpanId::NONE, ctx.now());
                let s = tracer.open("smpi.barrier", "smpi", 2 * i + 1, op, ctx.now());
                mpi.barrier(ctx, &comm);
                tracer.close(s, ctx.now());
                tracer.close(op, ctx.now());
            }
            sink.finish(ctx, None, tracer);
        });
    }
    driver.close(spawn, 0);

    let run = driver.open("des.run", "des", 0, SpanId::NONE, 0);
    let report = sim.run();
    let t_end = Instant::now();
    driver.close(run, report.end_time);
    let ring = world_ring(&world);
    let ops = 2 * u64::from(iters);
    finish_leg(t0, t_end, &report, ranks, ops, &sink, &ring, driver)
}

// ----------------------------------------------------------------------
// Fidelity legs (untimed): the paper's collective anchors
// ----------------------------------------------------------------------

/// One rank's body in a fidelity leg; returns whether its exit instant
/// counts towards the measurement.
type Body = Box<dyn FnOnce(&mut ProcCtx) -> bool + Send>;

/// Run one body per rank and return the latest simulated instant a
/// counted rank left its body, minus `align`, in µs.
fn last_exit_us(mut sim: Simulation, align: Time, bodies: Vec<Body>) -> f64 {
    let last = Arc::new(AtomicU64::new(0));
    for (rank, body) in bodies.into_iter().enumerate() {
        let last = Arc::clone(&last);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            if body(ctx) {
                last.fetch_max(ctx.now(), Ordering::Relaxed);
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    (last.load(Ordering::Relaxed) - align) as f64 / 1e3
}

/// Native `MPI_Barrier` on `ranks` nodes: aligned entry after a warm-up
/// barrier, last-rank exit (the paper's Figure 6 measurement).
pub fn barrier_aligned_sim_us(ranks: usize) -> f64 {
    let sim = Simulation::new();
    let world = mpi_world(&sim.handle(), ranks);
    let align = des::ms(5);
    let bodies = (0..ranks)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            Box::new(move |ctx: &mut ProcCtx| {
                let comm = mpi.comm_world();
                mpi.barrier(ctx, &comm);
                ctx.wait_until(align);
                mpi.barrier(ctx, &comm);
                true
            }) as Body
        })
        .collect();
    last_exit_us(sim, align, bodies)
}

/// BBP multicast of `len` bytes from node 0 to all others on `nodes`
/// nodes: last-receiver delivery after an aligned post (Figure 4).
pub fn bbp_mcast_aligned_sim_us(nodes: usize, len: usize) -> f64 {
    let sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), pingpong_config(nodes));
    let align = des::us(300);
    let bodies = (0..nodes)
        .map(|rank| {
            let mut ep = cluster.endpoint(rank);
            let targets: Vec<usize> = (1..nodes).collect();
            Box::new(move |ctx: &mut ProcCtx| {
                if rank == 0 {
                    ep.mcast(ctx, &targets, b"warm").expect("mcast");
                    ctx.wait_until(align);
                    ep.mcast(ctx, &targets, &vec![0x5A; len]).expect("mcast");
                    false
                } else {
                    ep.recv(ctx, 0).expect("warm-up recv");
                    assert_eq!(ep.recv(ctx, 0).expect("recv").len(), len);
                    true
                }
            }) as Body
        })
        .collect();
    last_exit_us(sim, align, bodies)
}

// ----------------------------------------------------------------------
// serving_mixed
// ----------------------------------------------------------------------

/// Load multipliers of the two cells: nominal, and an overload that
/// exercises the shed path.
pub const SERVING_LOADS: [f64; 2] = [1.0, 4.0];
const SERVING_PINGPONG_ROUNDS: u32 = 80;

/// The representative campaign cell, built with the public DSL: 3 client
/// nodes of 16 channels offer Poisson arrivals to one server for 10 ms,
/// then 1 ms of quiesce, with an MPI ping-pong sidecar on the same ring;
/// run through `workload::run_cell` at each of [`SERVING_LOADS`]. Open
/// loop in simulated time. Op = one offered RPC; a shed one is refused by
/// design, an undrained one or any violated invariant is a failure. The
/// cell builds its own world, so that part of set-up is inside the timed
/// call; `setup_ns` is everything before it: building the plan and
/// counting the arrivals its script holds, which each cell must report
/// as offered.
pub fn serving_rep(seed: u64, trace: bool) -> Leg {
    let t0 = Instant::now();
    let mut driver = driver_tracer(trace, t0);
    let build = driver.open("setup.build", "workload", 0, SpanId::NONE, 0);
    let plan = WorkloadPlan::new(seed)
        .body_bytes(64)
        .clients(3, 16)
        .window(des::ms(10), Shape::Poisson { rate_hz: 350.0 })
        .window(des::ms(1), Shape::Off)
        .sidecar(Sidecar::PingPong {
            rounds: SERVING_PINGPONG_ROUNDS,
        })
        .p999_target(1_600.0);
    let scripted = SERVING_LOADS.map(|mult| {
        (0..plan.client_nodes)
            .flat_map(|node| (0..plan.channels_per_node).map(move |ch| (node, ch)))
            .map(|(node, ch)| plan.channel_arrivals(node, ch, mult).len() as u64)
            .sum::<u64>()
    });
    driver.close(build, 0);
    let t_start = Instant::now();

    let mut leg = Leg::default();
    let c = &mut leg.counters;
    let service = obs::LogHistogram::new();
    let residency = obs::LogHistogram::new();
    let mut max_residency = 0;
    for (load, mult) in SERVING_LOADS.into_iter().enumerate() {
        let call = driver.open(
            "workload.run_cell",
            "workload",
            load as u32,
            SpanId::NONE,
            0,
        );
        let out = workload::run_cell(&plan, mult, "benchmark-serving_mixed");
        driver.close(call, out.elapsed_ns);

        for v in &out.violations {
            eprintln!("serving_mixed x{mult}: violated: {v}");
        }
        let wrong_script = u64::from(out.offered != scripted[load]);
        let wrong_sidecar = u64::from(out.pingpong_rounds != Some(SERVING_PINGPONG_ROUNDS));
        leg.bad += out.undrained + out.violations.len() as u64 + wrong_script + wrong_sidecar;
        leg.ops += out.offered;
        leg.refused += out.shed + out.transport_shed;
        leg.sim_ns += out.elapsed_ns;
        service.merge(&out.service);
        residency.merge(&out.residency);
        max_residency = max_residency.max(out.max_residency);

        bump(c, "des.proc_threads", plan.nprocs() as f64);
        bump(c, "rpc.sent", out.sent as f64);
        bump(c, "rpc.completed", out.completed as f64);
        bump(c, "rpc.shed", out.shed as f64);
        bump(c, "rpc.transport_shed", out.transport_shed as f64);
        bump(c, "rpc.undrained", out.undrained as f64);
        bump(c, "workload.violations", out.violations.len() as f64);
        bump(
            c,
            "workload.health_violations",
            out.health_violations.len() as f64,
        );
        bump(
            c,
            "workload.pingpong_rounds",
            f64::from(out.pingpong_rounds.unwrap_or(0)),
        );
    }
    let t_end = Instant::now();
    // Factor-2 histogram buckets: step functions, reported, never gated.
    bump(c, "rpc.max_residency", max_residency as f64);
    bump(c, "rpc.sim_service_p50_ns", service.p50() as f64);
    bump(c, "rpc.sim_service_p99_ns", service.p99() as f64);
    bump(c, "rpc.sim_service_p999_ns", service.p999() as f64);
    bump(c, "rpc.sim_residency_p99_ns", residency.p99() as f64);

    leg.setup_ns = (t_start - t0).as_nanos() as u64;
    leg.timed_ns = (t_end - t_start).as_nanos() as u64;
    leg.bad = leg.bad.min(leg.ops);
    if trace {
        leg.tracks.push(driver);
    }
    leg
}

// ----------------------------------------------------------------------
// Probes: single-layer costs, measured the same way on every host
// ----------------------------------------------------------------------

/// Bare event chains: 16 self-rescheduling events, no ring, no process.
/// Host ns per dispatch of the `des` queue alone, as the median of five
/// short runs; taken before and after each workload it is also the
/// host-speed calibration.
pub fn chain_probe_ns_per_dispatch() -> f64 {
    fn tick(h: &SimHandle, t: Time, remaining: u32) {
        if remaining > 0 {
            let h2 = h.clone();
            h.schedule_at(t + 100, move |t| tick(&h2, t, remaining - 1));
        }
    }
    let mut runs = [0.0; 5];
    for ns in &mut runs {
        let mut sim = Simulation::new();
        let h = sim.handle();
        for c in 0..16 {
            tick(&h, c, 25_000);
        }
        let t0 = Instant::now();
        let report = sim.run();
        *ns = t0.elapsed().as_nanos() as f64 / report.dispatches as f64;
    }
    crate::stats::median(&runs)
}

/// Two processes alternating 1 ns `advance`s: each one finds the other
/// due first, so every dispatch is a forced thread hand-off. Host ns per
/// resume.
pub fn handoff_probe_ns_per_resume() -> f64 {
    const STEPS: u32 = 20_000;
    let mut sim = Simulation::new();
    for p in 0..2 {
        sim.spawn(format!("p{p}"), |ctx| {
            for _ in 0..STEPS {
                ctx.advance(1);
            }
        });
    }
    let t0 = Instant::now();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    t0.elapsed().as_nanos() as f64 / report.dispatches as f64
}

/// Host ns per `Nic::read_word` and per `Nic::write_word`, timed inside
/// a lone process on a 4-node ring.
pub fn pio_probe_ns() -> (f64, f64) {
    const CALLS: u32 = 20_000;
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), PINGPONG_NODES, 8192, CostModel::default());
    let nic = ring.nic(0);
    let out = Arc::new(Mutex::new((0.0, 0.0)));
    let out2 = Arc::clone(&out);
    sim.spawn("pio", move |ctx| {
        let t0 = Instant::now();
        let mut acc = 0u32;
        for i in 0..CALLS {
            acc ^= nic.read_word(ctx, (i & 1023) as usize);
        }
        std::hint::black_box(acc);
        let read = t0.elapsed().as_nanos() as f64 / f64::from(CALLS);
        let t1 = Instant::now();
        for i in 0..CALLS {
            nic.write_word(ctx, (i & 1023) as usize, i);
        }
        let write = t1.elapsed().as_nanos() as f64 / f64::from(CALLS);
        *out2.lock().expect("no panics holding it") = (read, write);
    });
    assert!(sim.run().is_clean());
    let r = *out.lock().expect("no panics holding it");
    r
}

/// `obs::attribute` over a recorded event log: simulated self time per
/// layer, µs, by layer name.
pub fn obs_sim_self_us(events: &[obs::Event]) -> Vec<(&'static str, f64)> {
    let breakdown = obs::attribute(events);
    obs::Layer::ALL
        .iter()
        .map(|&l| (l.name(), breakdown.layer_us(l)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_depend_on_seed_and_sequence_and_nothing_else() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fill_pattern(&mut a, 64, 1999, 7);
        fill_pattern(&mut b, 64, 1999, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        fill_pattern(&mut b, 64, 1999, 8);
        assert_ne!(a, b);
        fill_pattern(&mut b, 64, 2000, 7);
        assert_ne!(a, b);
        fill_pattern(&mut b, 0, 1999, 7);
        assert!(b.is_empty());
    }
}
