//! The chaos soak: a deterministic (scenario × seed) campaign over a
//! 4-node membership-enabled ring, driving kill, stall, kill+rejoin and
//! double-kill schedules through the [`FaultPlan`] DSL while a survivor
//! traffic stream runs underneath. Every cell checks the membership
//! contract:
//!
//! > survivors' traffic is delivered in order, byte-identical; every
//! > epoch transition is observed identically on every continuously
//! > live node; the cluster converges to the expected
//! > `{epoch, alive_mask}`; a rejoined node exchanges verified traffic
//! > in the new epoch.
//!
//! The matrix is walked by [`des::obs::campaign`] (filters, report,
//! per-cell budget, repro line); the report (default
//! `$CARGO_TARGET_TMPDIR/chaos_soak.json`) adds detection-latency
//! percentiles and campaign-wide suspicion/death staleness histograms
//! (aggregated from every endpoint's [`bbp::DetectionHists`]) to the
//! per-cell rows. A violating cell dumps its flight-recorder ring to
//! `$FLIGHT_DUMP_DIR` for postmortem, and its repro line reads:
//!
//! ```text
//! CAMPAIGN_KIND=double_kill CAMPAIGN_SEED=7 \
//!     cargo test -p bbp --test chaos_soak -- --nocapture
//! ```

use bbp::{BbpCluster, BbpConfig, MembershipView};
use des::obs::campaign::{self, Campaign, Cell, Coord};
use des::obs::json::Json;
use des::obs::{FlightGuard, LogHistogram};
use des::{ms, us, Simulation, Time};
use scramnet::fault::FOREVER;
use scramnet::{CostModel, FaultPlan};

const NODES: usize = 4;
const SEEDS: [u64; 3] = [1, 7, 42];
/// Stream messages per cell.
const MSGS: u32 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosKind {
    /// Rank 3 crashes (host dead, NIC still inserted) and never returns.
    Kill,
    /// Rank 3's NIC stalls for 300 µs — long enough to be Suspected,
    /// short of the dead threshold: no epoch change anywhere.
    Stall,
    /// Rank 3 crashes, reboots, and drives the full rejoin protocol.
    KillRejoin,
    /// Ranks 0 and 3 crash 50 µs apart — rank 0 is the coordinator, so
    /// rank 1 must take over proposing.
    DoubleKill,
}

const KINDS: [ChaosKind; 4] = [
    ChaosKind::Kill,
    ChaosKind::Stall,
    ChaosKind::KillRejoin,
    ChaosKind::DoubleKill,
];

impl ChaosKind {
    fn name(self) -> &'static str {
        match self {
            ChaosKind::Kill => "kill",
            ChaosKind::Stall => "stall",
            ChaosKind::KillRejoin => "kill_rejoin",
            ChaosKind::DoubleKill => "double_kill",
        }
    }

    /// Ranks whose host stops executing, with their crash times.
    fn victims(self, onset: Time) -> Vec<(usize, Time)> {
        match self {
            ChaosKind::Kill | ChaosKind::KillRejoin => vec![(3, onset)],
            ChaosKind::Stall => vec![],
            ChaosKind::DoubleKill => vec![(0, onset), (3, onset + us(50))],
        }
    }

    /// The survivor stream's (sender, receiver) ranks.
    fn stream(self) -> (usize, usize) {
        match self {
            ChaosKind::DoubleKill => (1, 2),
            _ => (0, 1),
        }
    }

    fn expected_mask(self) -> u32 {
        match self {
            ChaosKind::Kill => 0b0111,
            ChaosKind::Stall | ChaosKind::KillRejoin => 0b1111,
            ChaosKind::DoubleKill => 0b0110,
        }
    }

    fn plan(self, seed: u64, onset: Time, reboot_after: Time) -> FaultPlan {
        let plan = FaultPlan::new(seed);
        match self {
            ChaosKind::Kill => plan.at(onset).kill_node(3, FOREVER),
            ChaosKind::Stall => plan.at(onset).stall_node(3, us(300)),
            ChaosKind::KillRejoin => plan.at(onset).kill_node(3, reboot_after),
            ChaosKind::DoubleKill => plan
                .at(onset)
                .kill_node(0, FOREVER)
                .at(onset + us(50))
                .kill_node(3, FOREVER),
        }
    }
}

/// Deterministic stream payload: index word + seeded fill.
fn payload(index: u32, seed: u64) -> Vec<u8> {
    let mut p = vec![0u8; 32];
    p[..4].copy_from_slice(&index.to_le_bytes());
    for (j, b) in p[4..].iter_mut().enumerate() {
        *b = (index as u8)
            .wrapping_mul(37)
            .wrapping_add(seed as u8)
            .wrapping_add(j as u8);
    }
    p
}

struct CellOutcome {
    scenario: String,
    /// Per-rank final `{epoch, alive_mask}` (None for dead ranks).
    final_views: Vec<Option<MembershipView>>,
    /// Convergence latency: last continuous survivor's first epoch
    /// transition minus the first kill onset (kill kinds only).
    detect_ns: Option<u64>,
    sent_ok: u32,
    delivered: u32,
    violations: Vec<String>,
}

impl Cell for CellOutcome {
    fn violations(&self) -> &[String] {
        &self.violations
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scenario", self.scenario.as_str().into()),
            ("final_views", self.final_views.clone().into()),
            ("detect_ns", self.detect_ns.into()),
            ("sent_ok", self.sent_ok.into()),
            ("delivered", self.delivered.into()),
        ]
    }
}

type History = Vec<(Time, MembershipView)>;

/// Record a view transition (idempotent per distinct view).
fn record(h: &mut History, now: Time, v: MembershipView) {
    if h.last().map(|(_, last)| *last) != Some(v) {
        h.push((now, v));
    }
}

/// What one process returns: the views it held, its last, and its share
/// of the cell's counts and violations.
#[derive(Default)]
struct RankOutcome {
    history: History,
    view: Option<MembershipView>,
    sent_ok: u32,
    delivered: u32,
    rejoin_traffic_ok: bool,
    violations: Vec<String>,
}

fn run_cell(
    kind: ChaosKind,
    seed: u64,
    suspect: &LogHistogram,
    death: &LogHistogram,
) -> CellOutcome {
    let onset = us(100 + (seed % 7) * 30);
    let reboot_after = us(1_300);
    let end = ms(4);
    let (snd, rcv) = kind.stream();
    let victims = kind.victims(onset);

    let plan = kind.plan(seed, onset, reboot_after);
    let mut sim = Simulation::new();
    let flight = FlightGuard::new(
        format!("chaos_{}_seed{}", kind.name(), seed),
        sim.recorder_arc(),
    );
    let cluster = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::membership_for_nodes(NODES),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(cluster.ring());
    // Each endpoint owns its detection histograms; keep a handle to
    // every one so the campaign can aggregate after the cell ends.
    let mut det_hists = Vec::new();

    let mut ranks = Vec::with_capacity(NODES);
    for rank in 0..NODES {
        let mut ep = cluster.endpoint(rank);
        det_hists.extend(ep.detection_latency());
        let crash_at = victims.iter().find(|(v, _)| *v == rank).map(|(_, t)| *t);
        ranks.push(sim.spawn(format!("n{rank}"), move |ctx| {
            let mut out = RankOutcome::default();
            let mut next_send = us(20);
            let mut msg_i = 0u32;
            let mut greeted = false;
            loop {
                if let Some(t) = crash_at {
                    if ctx.now() >= t {
                        return out; // the host is dead; nothing more executes
                    }
                }
                if ctx.now() >= end {
                    break;
                }
                ep.membership_tick(ctx);
                record(&mut out.history, ctx.now(), ep.membership_view().unwrap());
                if rank == snd && msg_i < MSGS && ctx.now() >= next_send {
                    match ep.send(ctx, rcv, &payload(msg_i, seed)) {
                        Ok(()) => out.sent_ok += 1,
                        Err(e) => out
                            .violations
                            .push(format!("survivor send {msg_i} failed: {e}")),
                    }
                    msg_i += 1;
                    next_send += us(50);
                }
                if rank == rcv {
                    if let Some(bytes) = ep.try_recv(ctx, snd) {
                        let d = out.delivered;
                        if bytes != payload(d, seed) {
                            out.violations
                                .push(format!("stream delivery {d} mangled or out of order"));
                        }
                        out.delivered += 1;
                    }
                }
                // The rejoined node greets rank 2; rank 2 answers. Both
                // sides prove post-rejoin traffic flows in the new epoch.
                if kind == ChaosKind::KillRejoin && rank == 2 && !greeted {
                    if let Some(bytes) = ep.try_recv(ctx, 3) {
                        if bytes == b"fresh incarnation" {
                            greeted = true;
                            if let Err(e) = ep.send(ctx, 3, b"good as new") {
                                out.violations
                                    .push(format!("reply to rejoiner failed: {e}"));
                            }
                        } else {
                            out.violations.push("rejoin greeting mangled".into());
                        }
                    }
                }
                ctx.advance(us(10));
            }
            out.view = ep.membership_view();
            out
        }));
    }

    // The replacement incarnation for a kill+rejoin cell: a fresh
    // endpoint for rank 3, booting shortly after the scheduled reboot.
    let reborn = (kind == ChaosKind::KillRejoin).then(|| {
        let mut reborn = cluster.endpoint(3);
        det_hists.extend(reborn.detection_latency());
        sim.spawn("n3-reborn", move |ctx| {
            let mut out = RankOutcome::default();
            ctx.wait_until(onset + reboot_after + us(20));
            match reborn.rejoin(ctx, ms(2)) {
                Ok(view) => record(&mut out.history, ctx.now(), view),
                Err(e) => {
                    out.violations.push(format!("rejoin failed: {e}"));
                    return out;
                }
            }
            let sent = reborn.send(ctx, 2, b"fresh incarnation");
            let reply = reborn.recv(ctx, 2);
            if sent.is_ok() && reply.as_ref().is_ok_and(|r| r == b"good as new") {
                out.rejoin_traffic_ok = true;
            } else {
                out.violations.push(format!(
                    "rejoiner traffic failed: send {sent:?}, reply {reply:?}"
                ));
            }
            while ctx.now() < end {
                reborn.membership_tick(ctx);
                record(
                    &mut out.history,
                    ctx.now(),
                    reborn.membership_view().unwrap(),
                );
                ctx.advance(us(10));
            }
            out.view = reborn.membership_view();
            out
        })
    });

    let report = sim.run();

    // A process that did not return (the cell deadlocked) adds nothing;
    // the replacement incarnation carries on rank 3's history and view.
    let mut outs: Vec<RankOutcome> = ranks
        .iter_mut()
        .map(|r| r.take().unwrap_or_default())
        .collect();
    if let Some(mut reborn) = reborn {
        let (out, reborn) = (&mut outs[3], reborn.take().unwrap_or_default());
        for (t, v) in reborn.history {
            record(&mut out.history, t, v);
        }
        out.view = reborn.view;
        out.rejoin_traffic_ok = reborn.rejoin_traffic_ok;
        out.violations.extend(reborn.violations);
    }
    let mut cell = CellOutcome {
        scenario: plan.describe(),
        final_views: outs.iter().map(|o| o.view).collect(),
        detect_ns: None,
        sent_ok: outs.iter().map(|o| o.sent_ok).sum(),
        delivered: outs.iter().map(|o| o.delivered).sum(),
        violations: outs.iter().flat_map(|o| o.violations.clone()).collect(),
    };
    if !report.is_clean() {
        cell.violations
            .push(format!("simulation deadlocked: {:?}", report.deadlocked));
    }

    // Stream invariant: every send confirmed and delivered in order,
    // byte-identical (mangling/reorder was flagged at receipt).
    if cell.sent_ok != MSGS {
        cell.violations.push(format!(
            "only {}/{MSGS} survivor sends confirmed",
            cell.sent_ok
        ));
    }
    if cell.delivered != MSGS {
        cell.violations.push(format!(
            "only {}/{MSGS} stream messages delivered",
            cell.delivered
        ));
    }
    if kind == ChaosKind::KillRejoin && !outs[3].rejoin_traffic_ok {
        cell.violations
            .push("rejoined node exchanged no verified traffic".into());
    }

    // Membership invariant: every continuously-live node observed the
    // exact same sequence of views, and everyone still holding a view at
    // the end converged on the expected one.
    let continuous: Vec<usize> = (0..NODES)
        .filter(|r| !victims.iter().any(|(v, _)| v == r))
        .collect();
    let h = |r: usize| &outs[r].history;
    let reference: Vec<MembershipView> = h(continuous[0]).iter().map(|(_, v)| *v).collect();
    for &r in &continuous[1..] {
        let got: Vec<MembershipView> = h(r).iter().map(|(_, v)| *v).collect();
        if got != reference {
            cell.violations.push(format!(
                "rank {r} observed views {got:?} but rank {} observed {reference:?}",
                continuous[0]
            ));
        }
    }
    let expect_mask = kind.expected_mask();
    let finals = cell.final_views.clone();
    let mut final_epoch = None;
    for (r, f) in finals.iter().enumerate() {
        let Some(v) = *f else { continue };
        if v.alive_mask != expect_mask {
            cell.violations.push(format!(
                "rank {r} ended on alive_mask {:#06b}, expected {expect_mask:#06b}",
                v.alive_mask
            ));
        }
        if let Some(e) = final_epoch {
            if v.epoch != e {
                cell.violations
                    .push(format!("rank {r} ended on epoch {} != {e}", v.epoch));
            }
        } else {
            final_epoch = Some(v.epoch);
        }
    }
    match kind {
        ChaosKind::Stall => {
            if final_epoch != Some(0) {
                cell.violations
                    .push("a stall must not bump the epoch".into());
            }
        }
        _ => {
            if final_epoch == Some(0) {
                cell.violations.push("no epoch transition happened".into());
            }
        }
    }

    // Detection latency: the last continuous survivor's first epoch
    // transition, measured from the first kill.
    if kind != ChaosKind::Stall {
        cell.detect_ns = continuous
            .iter()
            .filter_map(|&r| h(r).iter().find(|(_, v)| v.epoch > 0).map(|(t, _)| *t))
            .max()
            .map(|t| t.saturating_sub(onset));
    }

    // Fold every endpoint's staleness histograms into the campaign-wide
    // distributions, and keep a postmortem of any violating cell.
    for d in &det_hists {
        suspect.merge(&d.suspect_ns);
        death.merge(&d.death_ns);
    }
    flight.dump_if_violated(&cell.violations);
    cell
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

const CAMPAIGN: Campaign = Campaign {
    name: "chaos_soak",
    command: "cargo test -p bbp --test chaos_soak -- --nocapture",
    default_report: concat!(env!("CARGO_TARGET_TMPDIR"), "/chaos_soak.json"),
};

#[test]
fn chaos_soak_converges_and_preserves_survivor_traffic() {
    let suspect = LogHistogram::new();
    let death = LogHistogram::new();
    let matrix = campaign::matrix(KINDS.map(ChaosKind::name), &SEEDS, &[], &[]);
    let cell = |c: &Coord| {
        let kind = KINDS.into_iter().find(|k| k.name() == c.kind).unwrap();
        run_cell(kind, c.seed, &suspect, &death)
    };
    CAMPAIGN.run(matrix, cell, |walk| {
        let mut detects: Vec<u64> = walk.cells.iter().filter_map(|r| r.cell.detect_ns).collect();
        detects.sort_unstable();
        let staleness = |h: &LogHistogram| {
            Json::obj([
                ("count", h.count().into()),
                ("p50", h.p50().into()),
                ("p99", h.p99().into()),
            ])
        };
        walk.document([
            (
                "detection_latency_ns",
                Json::obj([
                    ("p50", percentile(&detects, 50).into()),
                    ("p90", percentile(&detects, 90).into()),
                    ("p99", percentile(&detects, 99).into()),
                    ("max", percentile(&detects, 100).into()),
                ]),
            ),
            ("suspect_latency_ns", staleness(&suspect)),
            ("death_latency_ns", staleness(&death)),
        ])
    });
}
