//! The sharded ring: SCRAMNet on the conservative parallel engine.
//!
//! [`ParRing`] maps one ring node to one [`des::par`] shard. The node's
//! bank, egress occupancy, fault switches, and per-writer error
//! injectors are shard-local state; the only cross-node interaction is
//! a packet crossing the fiber to the downstream neighbour, posted over
//! the shard link with the calibrated lookahead
//! ([`CostModel::link_lookahead_ns`] — the bypass switch crossing, the
//! fastest any influence can travel between node positions).
//!
//! ## Timing model
//!
//! The hop arithmetic reproduces the sequential [`crate::Ring`]
//! exactly: a packet of `w` words serializes for `ser = serialize_ns(w)`,
//! the source applies locally at inject time, and each live downstream
//! node applies at `arrive_head + ser` while forwarding departs at
//! `max(arrive_head, egress_busy)`; bypassed nodes cost
//! `bypass_hop_ns`, apply nothing, and claim no egress. Because the
//! receiving node's bypass state decides the hop cost and only that
//! node knows it, the cross-shard post fires at `depart + lookahead`
//! (the earliest physically possible ingress) carrying the departure
//! time; the receiver adds its own actual hop cost on top. Every
//! derived time is `>= depart + lookahead`, so the conservative
//! contract holds by construction.
//!
//! ## What is deterministic, and against what
//!
//! Per-shard execution order is total on `(time, creator key)`, so a
//! given [`ParRing`] produces byte-identical delivered streams, bank
//! images, and membership view histories for **every thread count**
//! including the in-process sequential reference ([`ParRing::run_seq`])
//! — with fault injection and bit errors enabled (the injectors are
//! per-(node, writer) streams, untouched by scheduling).
//!
//! Against the sequential [`crate::Ring`], timing equality additionally
//! requires fault-free links (the global `Ring` error injector draws in
//! global event order, which is a different stream by construction) —
//! the cross-engine gates in `tests/par_determinism.rs` run with
//! `bit_error_rate = 0` and compare full timestamped streams, then
//! re-check content streams under contention.

use std::sync::Arc;

use des::par::{Link, ParReport, ParSim, ShardCtx};
use des::Time;

use crate::bank::Bank;
use crate::cost::{CostModel, TxMode};
use crate::ring::ErrorInjector;
use crate::{Word, WordAddr};

/// One observed bank apply: the unit of the delivered message stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual time of the apply (packet tail for transit applies).
    pub time: Time,
    /// Global id of the writing node.
    pub writer: usize,
    /// First word address of the write.
    pub addr: WordAddr,
    /// The applied words (after any transit corruption).
    pub data: Vec<Word>,
}

/// One membership view transition observed by a node's detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewRecord {
    /// Detector tick that produced this view.
    pub time: Time,
    /// Bitmask of nodes graded alive.
    pub alive: u64,
    /// Bitmask of nodes graded suspected (stale but not yet dead).
    pub suspected: u64,
    /// Bitmask of nodes graded dead.
    pub dead: u64,
}

/// Heartbeat/failure-detection option for the sharded ring: each live
/// node writes a counter word into the top-of-bank heartbeat region
/// every `period_ns` and grades its peers by staleness every period,
/// recording view transitions. This is the chaos-soak observable the
/// determinism gates compare across thread counts.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Publish/grade period.
    pub period_ns: Time,
    /// Staleness at which a peer is suspected.
    pub suspect_ns: Time,
    /// Staleness at which a peer is declared dead.
    pub dead_ns: Time,
    /// Stop publishing and grading past this virtual time (bounds the
    /// otherwise self-perpetuating tick events).
    pub horizon_ns: Time,
}

/// Configuration for [`ParRing`].
#[derive(Debug, Clone)]
pub struct ParRingConfig {
    /// Transmission mode (packet serialization model).
    pub mode: TxMode,
    /// Per-word transit bit-error probability (0 disables injection).
    pub bit_error_rate: f64,
    /// Seed from which every per-(node, writer) injector stream is
    /// derived.
    pub error_seed: u64,
    /// Record every bank apply into per-node [`Delivery`] logs. Off by
    /// default: the logs copy payloads and exist for the determinism
    /// gates, not for benchmarking.
    pub record_deliveries: bool,
    /// Enable the heartbeat/failure-detection layer.
    pub heartbeat: Option<HeartbeatConfig>,
}

impl Default for ParRingConfig {
    fn default() -> Self {
        ParRingConfig {
            mode: TxMode::default(),
            bit_error_rate: 0.0,
            error_seed: 0,
            record_deliveries: false,
            heartbeat: None,
        }
    }
}

/// Immutable per-run parameters, shared by every shard.
struct Params {
    cost: CostModel,
    mode: TxMode,
    n: usize,
    words: usize,
    ber: f64,
    error_seed: u64,
    record_deliveries: bool,
    hb: Option<HeartbeatConfig>,
    lookahead: Time,
}

impl Params {
    /// First word of the heartbeat region (one word per node, at the
    /// top of the bank).
    fn hb_base(&self) -> WordAddr {
        self.words - self.n
    }
}

/// One in-flight packet. `data` is shared (`Arc`) across all hops and
/// the scheduled applies; only a corrupting apply copies it.
#[derive(Clone)]
struct Packet {
    origin: usize,
    writer: usize,
    addr: WordAddr,
    data: Arc<Vec<Word>>,
    ser: Time,
}

/// Shard-local state of one ring node.
struct NodeState {
    id: usize,
    params: Arc<Params>,
    /// Egress link to the downstream neighbour (`None` for `n == 1`).
    out: Option<Link>,
    bank: Bank,
    /// Time until which this node's egress is claimed by earlier
    /// packets (the `links[node]` word of the sequential engine).
    egress_busy: Time,
    bypassed: bool,
    /// Crashed host behind a live NIC: injects nothing, forwards
    /// everything, heartbeats stop.
    silenced: bool,
    /// Severed egress fiber: packets die here.
    broken_egress: bool,
    /// Pending inject drops (armed by fault scripts, consumed per
    /// packet at inject time on this node).
    drops_armed: u64,
    /// Per-writer transit error injectors, created lazily.
    injectors: Vec<Option<ErrorInjector>>,
    deliveries: Vec<Delivery>,
    /// Own heartbeat counter.
    hb_count: u64,
    /// Last time each peer's heartbeat word was applied here.
    hb_last: Vec<Time>,
    cur_view: Option<(u64, u64, u64)>,
    views: Vec<ViewRecord>,
}

impl NodeState {
    /// Apply `data` to this node's bank, corrupting transit writes per
    /// the node's per-writer injector stream, and record the delivery
    /// and any heartbeat observation.
    fn apply_words(
        &mut self,
        t: Time,
        writer: usize,
        addr: WordAddr,
        data: &[Word],
        transit: bool,
    ) {
        let params = Arc::clone(&self.params);
        let mut owned: Option<Vec<Word>> = None;
        if transit && params.ber > 0.0 {
            let id = self.id;
            let inj = self.injectors[writer].get_or_insert_with(|| {
                ErrorInjector::new(params.ber, mix_seed(params.error_seed, id, writer))
            });
            inj.corrupt_span(data.len(), |i, bit| {
                owned.get_or_insert_with(|| data.to_vec())[i] ^= 1 << bit;
            });
        }
        let data: &[Word] = owned.as_deref().unwrap_or(data);
        self.bank.apply(addr, data, writer, t);
        if params.record_deliveries {
            self.deliveries.push(Delivery {
                time: t,
                writer,
                addr,
                data: data.to_vec(),
            });
        }
        if params.hb.is_some() {
            let hb_word = params.hb_base() + writer;
            if addr <= hb_word && hb_word < addr + data.len() {
                self.hb_last[writer] = t;
            }
        }
    }
}

/// Derive an independent injector seed per (receiving node, writer)
/// stream — splitmix64 finalization over the campaign seed.
fn mix_seed(seed: u64, node: usize, writer: usize) -> u64 {
    let mut z = seed ^ ((node as u64) << 32) ^ writer as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inject a packet from the executing shard's node at the current time:
/// local apply, fault checks, egress claim, first hop post.
fn do_inject(ctx: &mut ShardCtx<'_, NodeState>, addr: WordAddr, data: Arc<Vec<Word>>) {
    if data.is_empty() {
        return;
    }
    let now = ctx.now();
    let params = Arc::clone(&ctx.state.params);
    let writer = ctx.state.id;
    // The host wrote through its own NIC memory: the local apply happens
    // regardless of what the ring does with the packet, uncorrupted.
    ctx.state.apply_words(now, writer, addr, &data, false);
    if ctx.state.bypassed || ctx.state.silenced {
        // Out of the ring, or crashed: nothing replicates.
        return;
    }
    if ctx.state.drops_armed > 0 {
        // The whole packet is consumed at inject: it never replicates.
        ctx.state.drops_armed -= 1;
        return;
    }
    let ser = params.cost.serialize_ns(data.len(), params.mode);
    let depart = now.max(ctx.state.egress_busy);
    ctx.state.egress_busy = depart + ser;
    let pkt = Packet {
        origin: writer,
        writer,
        addr,
        data,
        ser,
    };
    forward(ctx, pkt, depart);
}

/// Post `pkt` to the downstream neighbour, departing this node's egress
/// at `depart`. The post fires at `depart + lookahead` — the earliest
/// physically possible ingress — and carries `depart` so the receiver
/// can add its actual hop cost (which depends on its own bypass state).
fn forward(ctx: &mut ShardCtx<'_, NodeState>, pkt: Packet, depart: Time) {
    if ctx.state.broken_egress {
        // Severed fiber: everything applied so far stands, the rest of
        // the itinerary never happens.
        return;
    }
    let Some(link) = ctx.state.out else {
        return; // single-node ring: nothing to replicate to
    };
    let n = ctx.state.params.n;
    if (ctx.state.id + 1) % n == pkt.origin {
        return; // full circle: the source removes its own packet
    }
    let lookahead = ctx.state.params.lookahead;
    ctx.post(link, depart + lookahead, move |c| arrive(c, pkt, depart));
}

/// A packet reaches this node's position, having departed upstream at
/// `depart_prev`.
fn arrive(ctx: &mut ShardCtx<'_, NodeState>, pkt: Packet, depart_prev: Time) {
    let params = Arc::clone(&ctx.state.params);
    if ctx.state.bypassed {
        // Bypass switch: no bank apply, no egress queueing, fast hop.
        let head = depart_prev + params.cost.bypass_hop_ns;
        forward(ctx, pkt, head);
        return;
    }
    let head = depart_prev + params.cost.hop_ns;
    let tail = head + pkt.ser;
    let applied = pkt.clone();
    ctx.schedule_at(tail, move |c| {
        let t = c.now();
        c.state
            .apply_words(t, applied.writer, applied.addr, &applied.data, true);
    });
    // Forwarding occupies this node's egress too (every packet crosses
    // every link: aggregate throughput = link rate).
    let depart = head.max(ctx.state.egress_busy);
    ctx.state.egress_busy = depart + pkt.ser;
    forward(ctx, pkt, depart);
}

/// One heartbeat publish tick: bump the counter, broadcast it, repeat.
fn hb_tick(ctx: &mut ShardCtx<'_, NodeState>) {
    if ctx.state.silenced {
        return; // dead host software: heartbeats stop
    }
    let params = Arc::clone(&ctx.state.params);
    let hb = params
        .hb
        .as_ref()
        .expect("hb_tick requires heartbeat config");
    ctx.state.hb_count += 1;
    let addr = params.hb_base() + ctx.state.id;
    let count = ctx.state.hb_count as Word;
    do_inject(ctx, addr, Arc::new(vec![count]));
    if ctx.now() + hb.period_ns <= hb.horizon_ns {
        ctx.schedule_in(hb.period_ns, hb_tick);
    }
}

/// One detector tick: grade every peer by heartbeat staleness, record a
/// view transition if the grading changed.
fn detector_tick(ctx: &mut ShardCtx<'_, NodeState>) {
    if ctx.state.silenced {
        return;
    }
    let now = ctx.now();
    let params = Arc::clone(&ctx.state.params);
    let hb = params
        .hb
        .as_ref()
        .expect("detector_tick requires heartbeat config");
    let st = &mut *ctx.state;
    let (mut alive, mut suspected, mut dead) = (0u64, 0u64, 0u64);
    for j in 0..params.n {
        if j == st.id {
            alive |= 1 << j;
            continue;
        }
        let staleness = now.saturating_sub(st.hb_last[j]);
        if staleness >= hb.dead_ns {
            dead |= 1 << j;
        } else if staleness >= hb.suspect_ns {
            suspected |= 1 << j;
        } else {
            alive |= 1 << j;
        }
    }
    if st.cur_view != Some((alive, suspected, dead)) {
        st.cur_view = Some((alive, suspected, dead));
        st.views.push(ViewRecord {
            time: now,
            alive,
            suspected,
            dead,
        });
    }
    if now + hb.period_ns <= hb.horizon_ns {
        ctx.schedule_in(hb.period_ns, detector_tick);
    }
}

/// The SCRAMNet ring on the conservative parallel engine: one shard per
/// node, linked downstream with the calibrated lookahead. See the
/// module docs for the timing model and determinism contract.
pub struct ParRing {
    sim: ParSim<NodeState>,
    n: usize,
}

impl ParRing {
    /// A ring of `n` nodes (each bank `words` 32-bit words) under the
    /// given cost model and configuration.
    pub fn new(n: usize, words: usize, cost: CostModel, config: ParRingConfig) -> Self {
        assert!(n >= 1, "ring needs at least one node");
        assert!(n <= 64, "view bitmasks cap the sharded ring at 64 nodes");
        if config.heartbeat.is_some() {
            assert!(words >= n, "bank too small for the heartbeat region");
        }
        let lookahead = cost.link_lookahead_ns();
        let params = Arc::new(Params {
            cost,
            mode: config.mode,
            n,
            words,
            ber: config.bit_error_rate,
            error_seed: config.error_seed,
            record_deliveries: config.record_deliveries,
            hb: config.heartbeat,
            lookahead,
        });
        let mut sim = ParSim::new((0..n).map(|id| NodeState {
            id,
            params: Arc::clone(&params),
            out: None,
            bank: Bank::new(words, false),
            egress_busy: 0,
            bypassed: false,
            silenced: false,
            broken_egress: false,
            drops_armed: 0,
            injectors: (0..n).map(|_| None).collect(),
            deliveries: Vec::new(),
            hb_count: 0,
            hb_last: vec![0; n],
            cur_view: None,
            views: Vec::new(),
        }));
        if n > 1 {
            for i in 0..n {
                let link = sim.link(i as u32, ((i + 1) % n) as u32, lookahead);
                sim.state_mut(i as u32).out = Some(link);
            }
        }
        let ring = ParRing { sim, n };
        if params.hb.is_some() {
            let mut ring = ring;
            for i in 0..n {
                // Stagger publishes so heartbeats don't all serialize on
                // the same egress instants; grade after one full period.
                let hb = ring.sim.state(i as u32).params.hb.clone().unwrap();
                ring.sim.schedule(i as u32, 1 + i as Time * 125, hb_tick);
                ring.sim.schedule(i as u32, hb.period_ns, detector_tick);
            }
            return ring;
        }
        ring
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Attach a telemetry sink to every shard (see
    /// [`des::par::ParSim::set_recorder`]): with the recorder's
    /// telemetry gate on, busy passes sample per-shard clock skew,
    /// queue/mailbox depth, and spill backlog as `par.*` gauge series
    /// keyed by shard id.
    pub fn set_recorder(&mut self, rec: Arc<des::obs::Recorder>) {
        self.sim.set_recorder(rec);
    }

    /// Schedule a packet inject from `node` at virtual time `t` — the
    /// staging-complete step of a DMA transfer, as
    /// [`crate::Ring::source_packet`].
    pub fn seed_packet(&mut self, node: usize, t: Time, addr: WordAddr, data: Vec<Word>) {
        assert!(node < self.n, "node {node} out of range");
        let data = Arc::new(data);
        self.sim
            .schedule(node as u32, t, move |c| do_inject(c, addr, data));
    }

    /// Script a host crash at `t`: `node` stops injecting (heartbeats
    /// included) but its NIC keeps forwarding — a silenced node.
    pub fn kill_at(&mut self, node: usize, t: Time) {
        assert!(node < self.n, "node {node} out of range");
        self.sim
            .schedule(node as u32, t, |c| c.state.silenced = true);
    }

    /// Script bypass engagement at `t`: `node` leaves the ring (no bank
    /// applies, fast bypass hops, cannot inject).
    pub fn bypass_at(&mut self, node: usize, t: Time) {
        assert!(node < self.n, "node {node} out of range");
        self.sim
            .schedule(node as u32, t, |c| c.state.bypassed = true);
    }

    /// Script an egress fiber cut at `t`: packets die at `node`'s
    /// outbound link until healed.
    pub fn break_egress_at(&mut self, node: usize, t: Time) {
        assert!(node < self.n, "node {node} out of range");
        self.sim
            .schedule(node as u32, t, |c| c.state.broken_egress = true);
    }

    /// Script the egress fiber healing at `t`.
    pub fn heal_egress_at(&mut self, node: usize, t: Time) {
        assert!(node < self.n, "node {node} out of range");
        self.sim
            .schedule(node as u32, t, |c| c.state.broken_egress = false);
    }

    /// Arm `count` inject drops on `node` at `t`: the next `count`
    /// packets injected there are consumed whole (never replicate).
    pub fn arm_drops_at(&mut self, node: usize, t: Time, count: u64) {
        assert!(node < self.n, "node {node} out of range");
        self.sim
            .schedule(node as u32, t, move |c| c.state.drops_armed += count);
    }

    /// Run to completion on `threads` workers.
    pub fn run(&mut self, threads: usize) -> ParReport {
        self.sim.run(threads)
    }

    /// Run to completion on the in-process sequential reference executor
    /// (the golden mode the parallel runs are gated against).
    pub fn run_seq(&mut self) -> ParReport {
        self.sim.run_seq()
    }

    /// The delivered message stream observed at `node` (empty unless
    /// [`ParRingConfig::record_deliveries`] was set).
    pub fn deliveries(&self, node: usize) -> &[Delivery] {
        &self.sim.state(node as u32).deliveries
    }

    /// The membership view history observed at `node` (empty without a
    /// heartbeat config).
    pub fn view_history(&self, node: usize) -> &[ViewRecord] {
        &self.sim.state(node as u32).views
    }

    /// Snapshot of `node`'s entire bank.
    pub fn snapshot(&self, node: usize) -> Vec<Word> {
        self.sim.state(node as u32).bank.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording_ring(n: usize) -> ParRing {
        ParRing::new(
            n,
            4096,
            CostModel::default(),
            ParRingConfig {
                record_deliveries: true,
                ..ParRingConfig::default()
            },
        )
    }

    #[test]
    fn single_packet_replicates_with_sequential_hop_arithmetic() {
        let mut ring = recording_ring(4);
        let c = CostModel::default();
        let data = vec![0xAB, 0xCD];
        let ser = c.serialize_ns(data.len(), TxMode::Fixed4);
        ring.seed_packet(0, 1_000, 64, data.clone());
        ring.run_seq();
        // Source applies at inject time; node k applies at the packet
        // tail after k uncontended hops.
        assert_eq!(ring.deliveries(0).len(), 1);
        assert_eq!(ring.deliveries(0)[0].time, 1_000);
        for k in 1..4usize {
            let d = ring.deliveries(k);
            assert_eq!(d.len(), 1, "node {k}");
            assert_eq!(d[0].time, 1_000 + k as Time * c.hop_ns + ser);
            assert_eq!(d[0].data, data);
            assert_eq!(d[0].writer, 0);
        }
        // Every bank holds the words.
        for k in 0..4 {
            assert_eq!(&ring.snapshot(k)[64..66], &[0xAB, 0xCD]);
        }
    }

    #[test]
    fn parallel_run_matches_reference_with_faults_and_errors() {
        let build = || {
            let mut ring = ParRing::new(
                8,
                4096,
                CostModel::default(),
                ParRingConfig {
                    bit_error_rate: 1e-3,
                    error_seed: 0xDEAD_BEEF,
                    record_deliveries: true,
                    ..ParRingConfig::default()
                },
            );
            for node in 0..8usize {
                for i in 0..40u64 {
                    let t = 500 + i * 2_000 + node as Time * 125;
                    let w = (node as Word) << 16 | i as Word;
                    ring.seed_packet(node, t, node * 64, vec![w, !w, w ^ 7]);
                }
            }
            ring.bypass_at(3, 20_000);
            ring.kill_at(5, 35_000);
            ring.arm_drops_at(1, 10_000, 2);
            ring
        };
        let mut golden = build();
        golden.run_seq();
        for threads in [1usize, 2, 4] {
            let mut par = build();
            let r = par.run(threads);
            assert_eq!(r.late_arrivals(), 0, "{threads} threads");
            for node in 0..8 {
                assert_eq!(
                    golden.deliveries(node),
                    par.deliveries(node),
                    "node {node} stream @ {threads} threads"
                );
                assert_eq!(
                    golden.snapshot(node),
                    par.snapshot(node),
                    "node {node} bank @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn killed_node_goes_dead_in_survivor_views() {
        let mut ring = ParRing::new(
            4,
            4096,
            CostModel::default(),
            ParRingConfig {
                heartbeat: Some(HeartbeatConfig {
                    period_ns: 50_000,
                    suspect_ns: 200_000,
                    dead_ns: 600_000,
                    horizon_ns: 2_000_000,
                }),
                ..ParRingConfig::default()
            },
        );
        ring.kill_at(2, 400_000);
        ring.run_seq();
        for node in [0usize, 1, 3] {
            let views = ring.view_history(node);
            assert!(!views.is_empty(), "node {node} recorded no views");
            let last = views.last().unwrap();
            assert_ne!(last.dead & (1 << 2), 0, "node {node} final view: {last:?}");
            assert_ne!(last.alive & (1 << node), 0);
            // The death was preceded by a suspicion.
            assert!(
                views.iter().any(|v| v.suspected & (1 << 2) != 0),
                "node {node} never suspected the killed node"
            );
        }
    }
}
