//! The five workloads as repetitions of fixed work, and the arithmetic
//! that turns repetitions into the metrics of `spec`.
//!
//! Every repetition of a workload is the same work on a fresh
//! `Simulation` (same seed, same shape), so everything read from the
//! simulation must repeat exactly — the fingerprint checks that — and
//! only the host clock varies. A run makes as many repetitions as fit
//! its time budget and reports host-time metrics as the median over
//! repetitions.

use std::time::Instant;

use crate::drivers::{self, Counters, Leg, ObsMode, LADDER};
use crate::host;
use crate::spec::{self, Workload, COLLECTIVE_RANKS, DIFFERENCED};
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};

/// Round trips per rung of [`LADDER`], sized so a rung takes 0.2-0.5 s.
const BBP_ROUNDS: [u32; 5] = [600, 600, 200, 80, 20];
const MPI_ROUNDS: [u32; 5] = [400, 400, 200, 100, 20];
/// Iterations of the 4-rank and the 16-rank collective leg.
const COLLECTIVE_ITERS: [u32; 2] = [60, 10];
/// Round trips of a fidelity leg: short, untimed, only its simulated
/// time is read.
const FIDELITY_ROUNDS: u32 = 50;

/// One repetition: the legs (one `Simulation` each) of the workload.
pub struct Rep {
    pub legs: Vec<Leg>,
    /// Voluntary context switches of the driver thread during the rep.
    pub ctx_switches: u64,
}

impl Rep {
    fn sum(&self, f: impl Fn(&Leg) -> u64) -> u64 {
        self.legs.iter().map(f).sum()
    }
    pub fn ops(&self) -> u64 {
        self.sum(|l| l.ops)
    }
    pub fn bad(&self) -> u64 {
        self.sum(|l| l.bad)
    }
    pub fn served(&self) -> u64 {
        self.sum(|l| l.ops.saturating_sub(l.bad + l.refused))
    }
    pub fn setup_s(&self) -> f64 {
        self.sum(|l| l.setup_ns) as f64 / 1e9
    }
    pub fn timed_s(&self) -> f64 {
        self.sum(|l| l.timed_ns) as f64 / 1e9
    }
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.timed_s()
    }
    pub fn sim_us(&self) -> f64 {
        self.sum(|l| l.sim_ns) as f64 / 1e3
    }
    pub fn dispatches(&self) -> u64 {
        self.sum(|l| l.dispatches)
    }
    pub fn peak_queue_depth(&self) -> u64 {
        self.legs
            .iter()
            .map(|l| l.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }
    pub fn counters(&self) -> Counters {
        let mut all = Counters::new();
        for (&name, &v) in self.legs.iter().flat_map(|l| &l.counters) {
            *all.entry(name).or_default() += v;
        }
        all
    }

    /// Everything read from the simulation, folded into one number
    /// (FNV-1a): identical across the repetitions of a run, and across
    /// runs of one seed on one commit.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for l in &self.legs {
            for v in [
                l.ops,
                l.bad,
                l.refused,
                l.sim_ns,
                l.dispatches,
                l.peak_queue_depth,
            ] {
                eat(&v.to_le_bytes());
            }
            for (name, v) in &l.counters {
                eat(name.as_bytes());
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// Run one repetition of `w`.
pub fn run_rep(w: Workload, seed: u64, trace: bool) -> Rep {
    let before = host::voluntary_ctx_switches();
    let legs = match w {
        Workload::RingStorm => vec![drivers::ring_storm_leg(seed, trace)],
        Workload::BbpPingpong => LADDER
            .iter()
            .zip(BBP_ROUNDS)
            .map(|(&len, rounds)| drivers::bbp_pingpong_leg(len, rounds, seed, trace))
            .collect(),
        Workload::MpiPingpong => LADDER
            .iter()
            .zip(MPI_ROUNDS)
            .map(|(&len, rounds)| drivers::mpi_pingpong_leg(len, rounds, seed, trace, ObsMode::Off))
            .collect(),
        Workload::MpiCollectives => COLLECTIVE_RANKS
            .iter()
            .zip(COLLECTIVE_ITERS)
            .map(|(&ranks, iters)| drivers::collectives_leg(ranks, iters, seed, trace))
            .collect(),
        Workload::ServingMixed => vec![drivers::serving_rep(seed, trace)],
    };
    Rep {
        legs,
        ctx_switches: host::voluntary_ctx_switches().saturating_sub(before),
    }
}

/// A paper number and what the simulation gives for it.
#[derive(Debug, Clone)]
pub struct Anchor {
    pub what: &'static str,
    pub paper: f64,
    pub measured: f64,
}

impl Anchor {
    pub fn dev_pct(&self) -> f64 {
        (self.measured - self.paper) / self.paper * 100.0
    }
}

fn one_way_sim_us(leg: &Leg) -> f64 {
    leg.sim_ns as f64 / 1e3 / (2.0 * leg.ops as f64)
}

fn fidelity_bbp(len: usize, seed: u64) -> f64 {
    one_way_sim_us(&drivers::bbp_pingpong_leg(
        len,
        FIDELITY_ROUNDS,
        seed,
        false,
    ))
}

fn fidelity_mpi(len: usize, seed: u64) -> f64 {
    let leg = drivers::mpi_pingpong_leg(len, FIDELITY_ROUNDS, seed, false, ObsMode::Off);
    one_way_sim_us(&leg)
}

/// The paper anchors of the layers `w` runs on. Ping-pong anchors are
/// read off the workload's own 0 B and 4 B rungs (`rep`); the rest come
/// from short untimed fidelity legs.
pub fn anchors(w: Workload, rep: &Rep, seed: u64) -> Vec<Anchor> {
    let a = |what, paper, measured| Anchor {
        what,
        paper,
        measured,
    };
    match w {
        Workload::RingStorm => {
            // Bytes a link carries per second it is busy: the fixed-mode
            // link rate the hardware is specified at.
            let c = &rep.legs[0].counters;
            let bytes_on_links = c["scramnet.words_carried"] * 4.0 * drivers::STORM_NODES as f64;
            let mb_s = bytes_on_links / c["scramnet.link_busy_ns"] * 1e3;
            vec![a("ring link rate, fixed mode, MB/s", 6.5, mb_s)]
        }
        Workload::BbpPingpong => vec![
            a("BBP one-way 0 B, us", 6.5, one_way_sim_us(&rep.legs[0])),
            a("BBP one-way 4 B, us", 7.8, one_way_sim_us(&rep.legs[1])),
        ],
        Workload::MpiPingpong => {
            let mpi0 = one_way_sim_us(&rep.legs[0]);
            vec![
                a("MPI one-way 0 B, us", 44.0, mpi0),
                a("MPI one-way 4 B, us", 49.0, one_way_sim_us(&rep.legs[1])),
                a(
                    "MPI-over-BBP layering 0 B, us",
                    37.5,
                    mpi0 - fidelity_bbp(0, seed),
                ),
            ]
        }
        Workload::MpiCollectives => vec![
            a(
                "3-node native MPI_Barrier, us",
                37.0,
                drivers::barrier_aligned_sim_us(3),
            ),
            a(
                "BBP 4-node 4 B multicast, us",
                10.1,
                drivers::bbp_mcast_aligned_sim_us(4, 4),
            ),
        ],
        // No paper number exists for the RPC layer; the cell's fidelity
        // rests on the BBP and MPI layers under it.
        Workload::ServingMixed => vec![
            a("BBP one-way 0 B, us", 6.5, fidelity_bbp(0, seed)),
            a("BBP one-way 4 B, us", 7.8, fidelity_bbp(4, seed)),
            a("MPI one-way 0 B, us", 44.0, fidelity_mpi(0, seed)),
            a("MPI one-way 4 B, us", 49.0, fidelity_mpi(4, seed)),
        ],
    }
}

fn anchor_dev_max_pct(anchors: &[Anchor]) -> f64 {
    anchors
        .iter()
        .map(|a| a.dev_pct().abs())
        .fold(0.0, f64::max)
}

/// How long a run measures: until `seconds` have passed and at least
/// `min_reps` repetitions are in.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_reps: usize,
}

impl Budget {
    fn spent(&self, since: Instant, reps: usize) -> bool {
        reps >= self.min_reps && since.elapsed().as_secs_f64() >= self.seconds
    }
}

/// The bare event-chain probe before and after the measurement: the
/// `des` queue's own cost, and the host-speed calibration.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub chain_before_ns: f64,
    pub chain_after_ns: f64,
}

impl Calibration {
    pub fn chain_ns(&self) -> f64 {
        (self.chain_before_ns + self.chain_after_ns) / 2.0
    }

    /// The host changed speed under the run: its two probes differ by
    /// more than a tenth.
    pub fn noisy(&self) -> bool {
        let (a, b) = (self.chain_before_ns, self.chain_after_ns);
        (a - b).abs() / a.min(b) > 0.10
    }
}

/// The untraced pass over one workload.
pub struct EndToEnd {
    pub reps: Vec<Rep>,
    pub anchors: Vec<Anchor>,
    pub calibration: Calibration,
    pub peak_rss_mb: f64,
    /// Set when a repetition's fingerprint differs from the first's.
    pub fingerprint_mismatch: bool,
}

pub fn measure_end_to_end(w: Workload, seed: u64, budget: Budget) -> EndToEnd {
    let chain_before_ns = drivers::chain_probe_ns_per_dispatch();
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while !budget.spent(started, reps.len()) {
        reps.push(run_rep(w, seed, false));
    }
    let first = reps[0].fingerprint();
    let fingerprint_mismatch = reps.iter().any(|r| r.fingerprint() != first);
    let anchors = anchors(w, &reps[0], seed);
    let chain_after_ns = drivers::chain_probe_ns_per_dispatch();
    EndToEnd {
        reps,
        anchors,
        calibration: Calibration {
            chain_before_ns,
            chain_after_ns,
        },
        peak_rss_mb: host::peak_rss_mb(),
        fingerprint_mismatch,
    }
}

impl EndToEnd {
    pub fn fingerprint(&self) -> u64 {
        self.reps[0].fingerprint()
    }
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(Rep::ops).sum()
    }
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(Rep::bad).sum()
    }
    pub fn correct(&self) -> bool {
        self.failed() == 0 && !self.fingerprint_mismatch
    }

    fn over_reps(&self, f: impl Fn(&Rep) -> f64) -> Summary {
        Summary::of(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Every end-to-end metric of `spec::end_to_end`, in its order: the
    /// value reported, and the summary over repetitions behind it.
    ///
    /// Repetitions are identical work, and what disturbs them on a shared
    /// host (a co-tenant's cache and memory traffic, a slow futex wake)
    /// only ever slows one down, in bursts that last longer than a
    /// repetition. So throughput is read off the fastest repetition, the
    /// estimator `bench::best_of` already uses for this simulator. Set-up
    /// is tens of microseconds on two workloads, short enough for one
    /// repetition to get lucky, so it is read off the lower quartile
    /// instead. README.md has the run-to-run numbers for the estimators.
    /// Exact metrics and the process-wide peak RSS are single readings.
    pub fn metrics(&self) -> Vec<(String, f64, Summary)> {
        let rep = &self.reps[0];
        let single = |v: f64| (v, Summary::of(&[v]));
        let ops_per_s = self.over_reps(|r| r.ops() as f64 / r.timed_s());
        let setup_s = self.over_reps(Rep::setup_s);
        let values = [
            (ops_per_s.max, ops_per_s),
            single(rep.sim_us() / rep.served() as f64),
            single(anchor_dev_max_pct(&self.anchors)),
            single(rep.served() as f64 / rep.ops() as f64),
            (setup_s.q1, setup_s),
            single(self.peak_rss_mb),
        ];
        spec::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(m, (value, summary))| (m.name, value, summary))
            .collect()
    }
}

/// `obs` measured on the `mpi_pingpong` shape: wall time of one rung
/// with each recorder gate open, over the same rung with both shut.
pub struct ObsOverhead {
    pub log_ratio: f64,
    pub telemetry_ratio: f64,
    pub both_ratio: f64,
    pub events_recorded: usize,
    pub sim_self_us: Vec<(&'static str, f64)>,
}

fn measure_obs(seed: u64) -> ObsOverhead {
    const ROUNDS: u32 = 150;
    const TIMES: usize = 3;
    let modes = [
        ObsMode::Off,
        ObsMode::Log,
        ObsMode::Telemetry,
        ObsMode::Both,
    ];
    let mut wall: [Vec<f64>; 4] = Default::default();
    let mut events = Vec::new();
    // Interleaved so slow drift of the host hits every mode alike.
    for _ in 0..TIMES {
        for (i, mode) in modes.into_iter().enumerate() {
            let leg = drivers::mpi_pingpong_leg(4, ROUNDS, seed, false, mode);
            wall[i].push(leg.timed_ns as f64);
            if mode == ObsMode::Log {
                events = leg.events;
            }
        }
    }
    let off = stats::median(&wall[0]);
    ObsOverhead {
        log_ratio: stats::median(&wall[1]) / off,
        telemetry_ratio: stats::median(&wall[2]) / off,
        both_ratio: stats::median(&wall[3]) / off,
        events_recorded: events.len(),
        sim_self_us: drivers::obs_sim_self_us(&events),
    }
}

/// The traced pass over one workload: repetitions in pairs, one with
/// spans off and one with spans on, plus the single-layer probes.
pub struct Traced {
    pub workload: Workload,
    pub plain: Vec<Rep>,
    pub traced: Vec<Rep>,
    pub anchors: Vec<Anchor>,
    pub calibration: Calibration,
    pub handoff_ns: f64,
    pub pio_read_ns: f64,
    pub pio_write_ns: f64,
    /// `mpi_pingpong` only.
    pub obs: Option<ObsOverhead>,
    /// `mpi_pingpong` only: host µs per BBP round trip at the sizes of
    /// `spec::DIFFERENCED`, for attribution by differencing.
    pub bbp_host_us_per_rt: Option<[f64; 2]>,
    pub host_cpu: f64,
    pub loadavg: f64,
}

pub fn measure_traced(w: Workload, seed: u64, budget: Budget, host_cpu: f64) -> Traced {
    let started = Instant::now();
    let loadavg = host::loadavg();
    let chain_before_ns = drivers::chain_probe_ns_per_dispatch();
    let handoff_ns = drivers::handoff_probe_ns_per_resume();
    let (pio_read_ns, pio_write_ns) = drivers::pio_probe_ns();
    let (obs, bbp_host_us_per_rt) = if w == Workload::MpiPingpong {
        let per_rt = DIFFERENCED.map(|len| {
            let rung = LADDER
                .iter()
                .position(|&l| l == len)
                .expect("a ladder size");
            let rounds = BBP_ROUNDS[rung] / 2;
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let leg = drivers::bbp_pingpong_leg(len, rounds, seed, false);
                    leg.timed_ns as f64 / 1e3 / leg.ops as f64
                })
                .collect();
            stats::median(&runs)
        });
        (Some(measure_obs(seed)), Some(per_rt))
    } else {
        (None, None)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while !budget.spent(started, plain.len()) {
        plain.push(run_rep(w, seed, false));
        traced.push(run_rep(w, seed, true));
    }
    let anchors = anchors(w, &plain[0], seed);
    let chain_after_ns = drivers::chain_probe_ns_per_dispatch();
    Traced {
        workload: w,
        plain,
        traced,
        anchors,
        calibration: Calibration {
            chain_before_ns,
            chain_after_ns,
        },
        handoff_ns,
        pio_read_ns,
        pio_write_ns,
        obs,
        bbp_host_us_per_rt,
        host_cpu,
        loadavg,
    }
}

/// Metric values by name while they are being worked out.
#[derive(Default)]
struct Bag(std::collections::BTreeMap<String, f64>);

impl Bag {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), v);
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Exact counters that are per-layer metrics under their own names.
const COUNTER_METRICS: [&str; 23] = [
    "des.dispatches",
    "des.proc_threads",
    "scramnet.injections",
    "scramnet.words_carried",
    "scramnet.pio_reads",
    "scramnet.pio_writes",
    "scramnet.bit_errors",
    "bbp.sends",
    "bbp.recvs",
    "bbp.mcasts",
    "bbp.polls",
    "bbp.gc_sweeps",
    "bbp.send_stalls",
    "bbp.retries",
    "rpc.sent",
    "rpc.completed",
    "rpc.shed",
    "rpc.transport_shed",
    "rpc.undrained",
    "rpc.max_residency",
    "workload.violations",
    "workload.health_violations",
    "workload.pingpong_rounds",
];

impl Traced {
    pub fn attempted(&self) -> u64 {
        self.plain.iter().chain(&self.traced).map(Rep::ops).sum()
    }
    pub fn failed(&self) -> u64 {
        self.plain.iter().chain(&self.traced).map(Rep::bad).sum()
    }
    /// Spans must not change what is simulated: traced and untraced
    /// repetitions share one fingerprint.
    pub fn correct(&self) -> bool {
        let first = self.plain[0].fingerprint();
        self.failed() == 0
            && self
                .plain
                .iter()
                .chain(&self.traced)
                .all(|r| r.fingerprint() == first)
    }

    /// The fastest untraced repetition's reading of a cost (lower is
    /// faster), as the end-to-end host metrics are taken.
    fn least(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.plain.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// The fastest untraced repetition's reading of a rate.
    fn most(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.plain.iter().map(f).fold(0.0, f64::max)
    }

    /// Every per-layer metric of `spec::per_layer`, in its order; a
    /// metric the workload does not exercise reads 0. The notes give each
    /// span-derived timing's sample count and the percentile it supports.
    pub fn metrics(&self) -> (Vec<(String, f64)>, Vec<String>) {
        let w = self.workload;
        let rep = &self.plain[0];
        let c = rep.counters();
        let count = |name: &str| c.get(name).copied().unwrap_or(0.0);
        let mut bag = Bag::default();
        let mut notes = Vec::new();

        for name in COUNTER_METRICS {
            bag.set(name, count(name));
        }
        bag.set("des.peak_queue_depth", rep.peak_queue_depth() as f64);
        bag.set(
            "des.dispatches_per_op",
            ratio(rep.dispatches() as f64, rep.ops() as f64),
        );
        bag.set(
            "scramnet.link_util",
            ratio(count("scramnet.link_busy_ns"), count("scramnet.link_ns")),
        );
        bag.set(
            "bbp.recvs_per_poll",
            ratio(count("bbp.recvs"), count("bbp.polls")),
        );
        bag.set(
            "rpc.sim_goodput_per_s",
            ratio(count("rpc.completed"), rep.sim_us() / 1e6),
        );
        for q in [
            "service_p50",
            "service_p99",
            "service_p999",
            "residency_p99",
        ] {
            let ns = count(&format!("rpc.sim_{q}_ns"));
            bag.set(format!("rpc.sim_{q}_us"), ns / 1e3);
        }

        // Host time, over the untraced repetitions of this pass.
        let host_ns_per_dispatch = self.least(|r| ratio(r.wall_s() * 1e9, r.dispatches() as f64));
        let chain_ns = self.calibration.chain_ns();
        bag.set("des.host_ns_per_dispatch", host_ns_per_dispatch);
        bag.set(
            "des.sim_us_per_host_s",
            self.most(|r| r.sim_us() / r.timed_s()),
        );
        bag.set("des.chain_ns_per_dispatch", chain_ns);
        bag.set("des.cost_x_chain", host_ns_per_dispatch / chain_ns);
        bag.set("des.proc_handoff_ns", self.handoff_ns);
        bag.set(
            "des.ctx_switches_per_dispatch",
            self.least(|r| ratio(r.ctx_switches as f64, r.dispatches() as f64)),
        );
        bag.set(
            "scramnet.hop_applies_per_host_s",
            self.most(|r| {
                let hops = r.counters().get("scramnet.hop_applies").copied();
                hops.unwrap_or(0.0) / r.wall_s()
            }),
        );
        bag.set("scramnet.pio_read_host_ns", self.pio_read_ns);
        bag.set("scramnet.pio_write_host_ns", self.pio_write_ns);
        if w == Workload::ServingMixed {
            bag.set(
                "rpc.host_us_per_rpc",
                self.least(|r| r.timed_s() * 1e6 / r.ops() as f64),
            );
            bag.set(
                "workload.cells_per_host_s",
                self.most(|r| drivers::SERVING_LOADS.len() as f64 / r.timed_s()),
            );
        }

        // The ping-pong ladders, rung by rung, and their call spans.
        let layer = match w {
            Workload::BbpPingpong => Some("bbp"),
            Workload::MpiPingpong => Some("smpi"),
            _ => None,
        };
        if let Some(layer) = layer {
            for (i, len) in LADDER.into_iter().enumerate() {
                bag.set(
                    format!("{layer}.one_way_sim_us.{len}"),
                    one_way_sim_us(&rep.legs[i]),
                );
                bag.set(
                    format!("{layer}.host_us_per_rt.{len}"),
                    self.least(|r| r.legs[i].timed_ns as f64 / 1e3 / r.legs[i].ops as f64),
                );
            }
            let tracks = self.traced_tracks();
            for call in ["send", "recv"] {
                let span = format!("{layer}.{call}");
                let samples = trace::host_us_samples(&tracks, &span);
                bag.set(format!("{span}_host_us_p50"), stats::median(&samples));
                bag.set(
                    format!("{span}_host_us_p99"),
                    stats::percentile(&samples, 99.0).unwrap_or(0.0),
                );
                if layer == "bbp" {
                    bag.set(format!("{span}_sim_us"), trace::mean_sim_us(&tracks, &span));
                }
                notes.push(format!(
                    "{span}: {} host samples, highest supported percentile {}",
                    samples.len(),
                    stats::highest_supported_percentile(samples.len())
                        .map_or("none".to_string(), |p| format!("p{p}")),
                ));
            }
        }
        if let (Some(bbp), Some(obs)) = (&self.bbp_host_us_per_rt, &self.obs) {
            for (len, bbp_us) in DIFFERENCED.into_iter().zip(bbp) {
                let mpi_us = bag.get(&format!("smpi.host_us_per_rt.{len}"));
                bag.set(format!("smpi.host_self_us_per_rt.{len}"), mpi_us - bbp_us);
            }
            let layering = self.anchors.iter().find(|a| a.what.contains("layering"));
            bag.set("smpi.layering_sim_us", layering.map_or(0.0, |a| a.measured));
            bag.set("obs.log_overhead_ratio", obs.log_ratio);
            bag.set("obs.telemetry_overhead_ratio", obs.telemetry_ratio);
            bag.set("obs.both_overhead_ratio", obs.both_ratio);
            bag.set("obs.events_recorded", obs.events_recorded as f64);
            for (layer, us) in &obs.sim_self_us {
                if spec::OBS_LAYERS.contains(layer) {
                    bag.set(format!("obs.sim_self_us.{layer}"), *us);
                }
            }
        }

        // Collectives, timed to the last rank out. Extents are taken leg
        // by leg (one host epoch each) and pooled over repetitions.
        if w == Workload::MpiCollectives {
            for (i, ranks) in COLLECTIVE_RANKS.into_iter().enumerate() {
                for call in ["bcast", "barrier"] {
                    let extents: Vec<(u64, u64)> = self
                        .traced
                        .iter()
                        .flat_map(|r| trace::op_extents(&r.legs[i].tracks, &format!("smpi.{call}")))
                        .collect();
                    let host_us: Vec<f64> = extents.iter().map(|e| e.0 as f64 / 1e3).collect();
                    let sim_us: f64 = extents.iter().map(|e| e.1 as f64 / 1e3).sum();
                    bag.set(
                        format!("smpi.{call}_host_us_p50.{ranks}"),
                        stats::median(&host_us),
                    );
                    bag.set(
                        format!("smpi.{call}_sim_us.{ranks}"),
                        sim_us / extents.len() as f64,
                    );
                    notes.push(format!(
                        "smpi.{call} on {ranks} ranks: {} host samples",
                        host_us.len()
                    ));
                }
            }
        }

        let traced_wall = self.traced.iter().map(Rep::wall_s);
        bag.set(
            "bench.trace_overhead_ratio",
            traced_wall.fold(f64::INFINITY, f64::min) / self.least(Rep::wall_s),
        );
        bag.set("bench.host_cpu", self.host_cpu);
        bag.set("bench.loadavg", self.loadavg);

        let own: Vec<String> = trace::self_host_ns(&self.traced_tracks())
            .into_iter()
            .map(|(name, ns)| format!("{name}={:.3}", ns as f64 / 1e6))
            .collect();
        notes.push(format!("host self ms by span: {}", own.join(" ")));

        let listed = spec::per_layer();
        debug_assert!(
            bag.0.keys().all(|k| listed.iter().any(|m| &m.name == k)),
            "a metric is computed that spec::per_layer does not list"
        );
        let metrics = listed
            .into_iter()
            .map(|m| {
                let v = bag.get(&m.name);
                (m.name, v)
            })
            .collect();
        (metrics, notes)
    }

    /// Every track of every traced repetition (durations only: tracks of
    /// different legs do not share a host epoch).
    fn traced_tracks(&self) -> Vec<&Tracer> {
        self.traced
            .iter()
            .flat_map(|r| r.legs.iter().flat_map(|l| l.tracks.iter()))
            .collect()
    }

    /// The first traced repetition as Chrome trace JSON.
    pub fn chrome_trace_json(&self) -> String {
        let legs: Vec<&[Tracer]> = self.traced[0]
            .legs
            .iter()
            .map(|l| l.tracks.as_slice())
            .collect();
        trace::chrome_trace_json(self.workload.name(), &legs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest run: one repetition, no time budget.
    const SMOKE: Budget = Budget {
        seconds: 0.0,
        min_reps: 1,
    };

    #[test]
    fn every_workload_passes_its_checks_and_repeats_exactly() {
        for w in Workload::ALL {
            let a = measure_end_to_end(w, 1999, SMOKE);
            let b = measure_end_to_end(w, 1999, SMOKE);
            assert!(a.correct() && b.correct(), "{}: output checks", w.name());
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert!(a.attempted() >= 1 && a.failed() == 0);
            for ((name, va, _), (_, vb, _)) in a.metrics().into_iter().zip(b.metrics()) {
                assert!(va.is_finite() && va > 0.0, "{}: {name} = {va}", w.name());
                let exact = spec::end_to_end().iter().any(|m| m.name == name && m.exact);
                if exact {
                    assert_eq!(va, vb, "{}: {name}", w.name());
                }
            }
        }
    }

    #[test]
    fn the_seed_reaches_the_simulation() {
        let a = run_rep(Workload::RingStorm, 1, false);
        let b = run_rep(Workload::RingStorm, 2, false);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn the_traced_pass_changes_nothing_simulated_and_fills_its_layers() {
        let t = measure_traced(Workload::BbpPingpong, 1999, SMOKE, 0.0);
        assert!(t.correct(), "traced and untraced fingerprints agree");
        let (metrics, notes) = t.metrics();
        assert_eq!(metrics.len(), spec::per_layer().len());
        let value = |name: &str| metrics.iter().find(|(n, _)| n == name).expect(name).1;
        assert_eq!(value("des.proc_threads"), 10.0, "two processes per rung");
        assert!(value("bbp.polls") > value("bbp.recvs"));
        assert!(value("bbp.send_host_us_p50") > 0.0);
        assert!(value("bbp.one_way_sim_us.0") > 0.0);
        assert_eq!(value("rpc.sent"), 0.0, "not this workload's layer");
        assert!(notes
            .iter()
            .any(|n| n.starts_with("bbp.send: 3000 host samples")));
        let doc = crate::json::parse(&t.chrome_trace_json()).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
    }
}
