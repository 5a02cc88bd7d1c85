//! The partition campaign: a deterministic (scenario × seed) matrix over
//! quorum-enforced membership ([`bbp::Membership::Quorum`]), driving
//! ring segmentation through the [`FaultPlan::partition`] DSL while
//! survivor traffic runs underneath. Every cell checks the partition
//! contract:
//!
//! > the majority side keeps its stream byte-identical and commits views
//! > through the quorum ack round; the minority side freezes at its last
//! > committed epoch and fails typed ([`BbpError::Partitioned`]) instead
//! > of diverging; the data plane fences stale-epoch traffic (zero
//! > leaks); an even split freezes *both* sides; after a heal the halves
//! > converge on a single view history — no node ever observes two
//! > different masks for the same epoch.
//!
//! The matrix is walked by [`des::obs::campaign`] (filters, report —
//! default `$CARGO_TARGET_TMPDIR/partition_campaign.json` — per-cell
//! budget, repro line). A violating cell dumps its flight-recorder ring
//! to `$FLIGHT_DUMP_DIR` for postmortem, and its repro line reads:
//!
//! ```text
//! CAMPAIGN_KIND=minority_persistent CAMPAIGN_SEED=7 \
//!     cargo test -p bbp --test partition_campaign -- --nocapture
//! ```

use std::collections::HashMap;

use bbp::{BbpCluster, BbpConfig, BbpError, EndpointStats, MembershipView};
use des::obs::campaign::{self, Campaign, Cell, Coord};
use des::obs::json::Json;
use des::obs::FlightGuard;
use des::{ms, us, Simulation, Time};
use scramnet::fault::FOREVER;
use scramnet::{CostModel, FaultPlan};

const SEEDS: [u64; 3] = [1, 7, 42];
/// How long a transient partition stays open.
const HEAL_AFTER: Time = 1_200_000; // 1.2 ms: past the dead threshold

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartitionKind {
    /// 5 nodes, cuts isolating {0,1}: the majority {2,3,4} excludes the
    /// minority through a quorum commit and keeps streaming; the cut
    /// heals and the majority readmits the frozen minority.
    MinorityTransient,
    /// Same split, never healing: the minority stays frozen at its last
    /// committed epoch forever, and a cross-cut message left in flight
    /// at the cut is fenced (stale epoch) instead of delivered.
    MinorityPersistent,
    /// 6 nodes cut 3/3: *neither* side has a quorum, both freeze, and
    /// the heal converges everyone on one fresh epoch.
    EvenSplitTransient,
    /// 6 nodes cut 3/3, never healing: both sides stay frozen at epoch
    /// 0 — no commit ever happens anywhere (the no-split-brain floor).
    EvenSplitPersistent,
}

const KINDS: [PartitionKind; 4] = [
    PartitionKind::MinorityTransient,
    PartitionKind::MinorityPersistent,
    PartitionKind::EvenSplitTransient,
    PartitionKind::EvenSplitPersistent,
];

impl PartitionKind {
    fn name(self) -> &'static str {
        match self {
            PartitionKind::MinorityTransient => "minority_transient",
            PartitionKind::MinorityPersistent => "minority_persistent",
            PartitionKind::EvenSplitTransient => "even_split_transient",
            PartitionKind::EvenSplitPersistent => "even_split_persistent",
        }
    }

    fn nodes(self) -> usize {
        match self {
            PartitionKind::MinorityTransient | PartitionKind::MinorityPersistent => 5,
            _ => 6,
        }
    }

    /// The two severed links (see [`FaultPlan::partition`]).
    fn cuts(self) -> (usize, usize) {
        match self {
            // 5 nodes, cut links 1→2 and 4→0: minority {0,1} vs {2,3,4}.
            PartitionKind::MinorityTransient | PartitionKind::MinorityPersistent => (1, 4),
            // 6 nodes, cut links 2→3 and 5→0: {0,1,2} vs {3,4,5}.
            _ => (2, 5),
        }
    }

    fn heals(self) -> bool {
        matches!(
            self,
            PartitionKind::MinorityTransient | PartitionKind::EvenSplitTransient
        )
    }

    /// The in-segment survivor stream's (sender, receiver).
    fn stream(self) -> (usize, usize) {
        match self {
            PartitionKind::MinorityTransient => (2, 3),
            PartitionKind::MinorityPersistent => (3, 4),
            _ => (0, 1),
        }
    }

    /// Stream length. Even-split senders spend the whole freeze window
    /// stalled (their stream crosses it), so they carry a shorter
    /// stream; majority-side streams never stall.
    fn msgs(self) -> u32 {
        match self {
            PartitionKind::MinorityTransient | PartitionKind::MinorityPersistent => 40,
            _ => 25,
        }
    }

    /// Simulated horizon. Transient cells need room past the heal for
    /// readmission, the resumed stream, and the cross-cut handshake.
    fn end(self) -> Time {
        match self {
            PartitionKind::MinorityPersistent => ms(4),
            PartitionKind::MinorityTransient => ms(5),
            _ => ms(6),
        }
    }

    /// Ranks expected to freeze at least once.
    fn frozen_ranks(self) -> Vec<usize> {
        match self {
            PartitionKind::MinorityTransient | PartitionKind::MinorityPersistent => vec![0, 1],
            _ => vec![0, 1, 2, 3, 4, 5],
        }
    }

    fn plan(self, seed: u64, onset: Time) -> FaultPlan {
        let (a, b) = self.cuts();
        let dur = if self.heals() { HEAL_AFTER } else { FOREVER };
        FaultPlan::new(seed).at(onset).partition(a, b, dur)
    }
}

/// Deterministic stream payload: index word + seeded fill.
fn payload(index: u32, seed: u64) -> Vec<u8> {
    let mut p = vec![0u8; 32];
    p[..4].copy_from_slice(&index.to_le_bytes());
    for (j, b) in p[4..].iter_mut().enumerate() {
        *b = (index as u8)
            .wrapping_mul(41)
            .wrapping_add(seed as u8)
            .wrapping_add(j as u8);
    }
    p
}

struct CellOutcome {
    scenario: String,
    final_views: Vec<Option<MembershipView>>,
    /// Per-rank `is_partitioned()` at cell end.
    final_frozen: Vec<bool>,
    /// Campaign counters summed over the ranks expected to produce them.
    partitions_detected: u64,
    stale_epoch_rejects: u64,
    sent_ok: u32,
    delivered: u32,
    partitioned_errors: u32,
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
            ("final_frozen", self.final_frozen.clone().into()),
            ("partitions_detected", self.partitions_detected.into()),
            ("stale_epoch_rejects", self.stale_epoch_rejects.into()),
            ("sent_ok", self.sent_ok.into()),
            ("delivered", self.delivered.into()),
            ("partitioned_errors", self.partitioned_errors.into()),
        ]
    }
}

type History = Vec<(Time, MembershipView)>;

fn record(h: &mut History, now: Time, v: MembershipView) {
    if h.last().map(|(_, last)| *last) != Some(v) {
        h.push((now, v));
    }
}

/// What one rank returns: every view it held, its end state, and its
/// share of the cell's counts and violations.
#[derive(Default)]
struct RankOutcome {
    history: History,
    view: Option<MembershipView>,
    frozen: bool,
    stats: EndpointStats,
    sent_ok: u32,
    delivered: u32,
    partitioned_errors: u32,
    bait_deliveries: u32,
    handshake_ok: bool,
    violations: Vec<String>,
}

#[allow(clippy::too_many_lines)]
fn run_cell(kind: PartitionKind, seed: u64) -> CellOutcome {
    let n = kind.nodes();
    let onset = us(100 + (seed % 7) * 30);
    let end = kind.end();
    let msgs = kind.msgs();
    let (snd, rcv) = kind.stream();
    let heal_at = onset + HEAL_AFTER;

    let plan = kind.plan(seed, onset);
    let mut sim = Simulation::new();
    let flight = FlightGuard::new(
        format!("partition_{}_seed{}", kind.name(), seed),
        sim.recorder_arc(),
    );
    let cluster = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::quorum_for_nodes(n),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(cluster.ring());

    // Even-split streams cross the freeze window: the sender retries an
    // index until it confirms. Majority streams must never fail at all.
    let stream_retries = matches!(
        kind,
        PartitionKind::EvenSplitTransient | PartitionKind::EvenSplitPersistent
    );
    // The cross-cut fencing bait (minority_persistent only): rank 0
    // posts toward rank 2 right before the cut; rank 2 only starts
    // polling that channel after it has committed the exclusion epoch,
    // so the pending descriptor is consumed under a stale sender epoch.
    let bait = kind == PartitionKind::MinorityPersistent;

    let mut ranks = Vec::with_capacity(n);
    for rank in 0..n {
        let mut ep = cluster.endpoint(rank);
        ranks.push(sim.spawn(format!("n{rank}"), move |ctx| {
            let mut out = RankOutcome::default();
            let mut next_send = us(20);
            let mut msg_i = 0u32;
            let mut next_probe = us(20);
            let mut bait_sent = false;
            let mut greeted = false;
            let mut shook = false;
            while ctx.now() < end {
                ep.membership_tick(ctx);
                record(&mut out.history, ctx.now(), ep.membership_view().unwrap());
                // The in-segment survivor stream.
                if rank == snd && msg_i < msgs && ctx.now() >= next_send {
                    match ep.send(ctx, rcv, &payload(msg_i, seed)) {
                        Ok(()) => {
                            out.sent_ok += 1;
                            msg_i += 1;
                            next_send = ctx.now() + us(50);
                        }
                        Err(BbpError::Partitioned { .. }) if stream_retries => {
                            // Frozen: hold this index and try again once
                            // the merge readmits us.
                            out.partitioned_errors += 1;
                            next_send = ctx.now() + us(100);
                        }
                        Err(e) => out
                            .violations
                            .push(format!("stream send {msg_i} failed: {e}")),
                    }
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
                // The minority prober: rank 0 keeps sending to its
                // in-segment neighbour; outcomes flip Ok → Partitioned
                // at the freeze and back to Ok after readmission.
                if bait && rank == 0 && !bait_sent && ctx.now() >= onset.saturating_sub(us(60)) {
                    // Post toward the far side so the descriptor is in
                    // flight when the cut lands. The confirm leg cannot
                    // succeed (rank 2 never polls us pre-cut, and the
                    // cut then freezes us mid-wait) — that failure is
                    // the scenario, not a violation.
                    bait_sent = true;
                    let _ = ep.send(ctx, 2, b"left in flight");
                }
                if kind.nodes() == 5 && rank == 0 && ctx.now() >= next_probe {
                    match ep.send(ctx, 1, b"minority probe") {
                        Ok(()) => {}
                        Err(BbpError::Partitioned { epoch }) => {
                            if epoch != 0 {
                                out.violations
                                    .push(format!("minority froze at epoch {epoch}, not 0"));
                            }
                            out.partitioned_errors += 1;
                        }
                        // A send straddling the cut can burn its retry
                        // budget before the detector freezes the node.
                        Err(BbpError::Timeout { .. }) => {}
                        Err(e) => out.violations.push(format!("probe failed oddly: {e}")),
                    }
                    next_probe = ctx.now() + us(100);
                }
                if kind.nodes() == 5 && rank == 1 {
                    let _ = ep.try_recv(ctx, 0); // drain the probes
                }
                // The fencing bait consumer: only look at rank 0's
                // channel once the exclusion epoch is committed, so the
                // pending descriptor hits the fence, not a delivery.
                if bait
                    && rank == 2
                    && ctx.now() >= onset + us(800)
                    && ep.try_recv(ctx, 0).is_some()
                {
                    out.bait_deliveries += 1;
                }
                // Post-heal handshake across the former cut.
                if kind.heals() && ctx.now() > heal_at && !ep.is_partitioned() {
                    let far = if kind.nodes() == 5 { 2 } else { 3 };
                    if rank == 0 && !shook {
                        shook = true;
                        let sent = ep.send(ctx, far, b"back from the cold");
                        let reply = ep.recv(ctx, far);
                        if sent.is_ok() && reply.as_ref().is_ok_and(|r| r == b"warm again") {
                            out.handshake_ok = true;
                        } else {
                            out.violations.push(format!(
                                "post-heal handshake failed: send {sent:?}, reply {reply:?}"
                            ));
                        }
                    }
                    if rank == far && !greeted {
                        if let Some(bytes) = ep.try_recv(ctx, 0) {
                            if bytes == b"back from the cold" {
                                greeted = true;
                                if let Err(e) = ep.send(ctx, 0, b"warm again") {
                                    out.violations.push(format!("handshake reply failed: {e}"));
                                }
                            } else {
                                out.violations.push("handshake greeting mangled".into());
                            }
                        }
                    }
                }
                ctx.advance(us(10));
            }
            out.view = ep.membership_view();
            out.frozen = ep.is_partitioned();
            out.stats = ep.stats().clone();
            out
        }));
    }

    let report = sim.run();

    // A rank that did not return (the cell deadlocked) adds nothing.
    let outs: Vec<RankOutcome> = ranks
        .iter_mut()
        .map(|r| r.take().unwrap_or_default())
        .collect();
    let sum = |count: fn(&RankOutcome) -> u32| outs.iter().map(count).sum::<u32>();
    let mut cell = CellOutcome {
        scenario: plan.describe(),
        final_views: outs.iter().map(|o| o.view).collect(),
        final_frozen: outs.iter().map(|o| o.frozen).collect(),
        partitions_detected: kind
            .frozen_ranks()
            .iter()
            .map(|&r| outs[r].stats.partitions_detected)
            .sum(),
        stale_epoch_rejects: outs.iter().map(|o| o.stats.stale_epoch_rejects).sum(),
        sent_ok: sum(|o| o.sent_ok),
        delivered: sum(|o| o.delivered),
        partitioned_errors: sum(|o| o.partitioned_errors),
        violations: outs.iter().flat_map(|o| o.violations.clone()).collect(),
    };
    if !report.is_clean() {
        cell.violations
            .push(format!("simulation deadlocked: {:?}", report.deadlocked));
    }

    // Stream invariant. Persistent even splits freeze the stream for the
    // rest of the cell: whatever confirmed must have arrived intact, and
    // the freeze must actually have stopped the sender short.
    if kind == PartitionKind::EvenSplitPersistent {
        if cell.sent_ok == msgs {
            cell.violations
                .push("even split never stopped the stream".into());
        }
    } else if cell.sent_ok != msgs {
        cell.violations.push(format!(
            "only {}/{msgs} stream sends confirmed",
            cell.sent_ok
        ));
    }
    if cell.delivered != cell.sent_ok {
        cell.violations.push(format!(
            "{} sends confirmed but {} delivered",
            cell.sent_ok, cell.delivered
        ));
    }

    // Typed-failure invariant: every cell scripts at least one frozen
    // sender, which must surface as BbpError::Partitioned.
    if cell.partitioned_errors == 0 {
        cell.violations
            .push("no sender ever observed BbpError::Partitioned".into());
    }
    if cell.partitions_detected < kind.frozen_ranks().len() as u64 {
        cell.violations.push(format!(
            "partitions_detected {} below the {} frozen ranks",
            cell.partitions_detected,
            kind.frozen_ranks().len()
        ));
    }

    // Fencing invariant (scripted cell only): the cross-cut descriptor
    // is rejected as stale, never delivered.
    if bait {
        if cell.stale_epoch_rejects == 0 {
            cell.violations
                .push("cross-cut bait was never fenced (stale_epoch_rejects == 0)".into());
        }
        if sum(|o| o.bait_deliveries) != 0 {
            cell.violations
                .push("stale-epoch bait leaked through the fence".into());
        }
    }
    if kind.heals() && !outs[0].handshake_ok {
        cell.violations
            .push("post-heal handshake never completed".into());
    }

    // Split-brain invariant: across every view any rank ever held, one
    // epoch maps to exactly one mask.
    let mut epoch_masks: HashMap<u32, u32> = HashMap::new();
    for (r, out) in outs.iter().enumerate() {
        for &(_, v) in &out.history {
            match epoch_masks.get(&v.epoch) {
                Some(&m) if m != v.alive_mask => cell.violations.push(format!(
                    "rank {r} held mask {:#b} at epoch {} where another rank held {m:#b}",
                    v.alive_mask, v.epoch
                )),
                _ => {
                    epoch_masks.insert(v.epoch, v.alive_mask);
                }
            }
        }
    }

    // Final-state invariants per kind.
    let finals = cell.final_views.clone();
    let frozen = cell.final_frozen.clone();
    let full: u32 = (1 << n) - 1;
    match kind {
        PartitionKind::MinorityTransient | PartitionKind::EvenSplitTransient => {
            let reference = finals[0];
            for (r, v) in finals.iter().enumerate() {
                if *v != reference {
                    cell.violations.push(format!(
                        "rank {r} ended on {v:?} but rank 0 on {reference:?} after the heal"
                    ));
                }
                if frozen[r] {
                    cell.violations
                        .push(format!("rank {r} still frozen after the heal"));
                }
            }
            match reference {
                Some(v) if v.alive_mask == full && v.epoch >= 1 => {}
                other => cell.violations.push(format!(
                    "post-heal view {other:?} is not a committed full-membership epoch"
                )),
            }
        }
        PartitionKind::MinorityPersistent => {
            let maj_mask = 0b11100;
            let mut maj_epoch = None;
            for r in [2, 3, 4] {
                match finals[r] {
                    Some(v) if v.alive_mask == maj_mask => {
                        if *maj_epoch.get_or_insert(v.epoch) != v.epoch {
                            cell.violations
                                .push(format!("majority rank {r} on a different epoch"));
                        }
                    }
                    other => cell.violations.push(format!(
                        "majority rank {r} ended on {other:?}, expected mask {maj_mask:#b}"
                    )),
                }
                if frozen[r] {
                    cell.violations
                        .push(format!("majority rank {r} froze — it holds the quorum"));
                }
            }
            for r in [0, 1] {
                if !frozen[r] {
                    cell.violations
                        .push(format!("minority rank {r} is not frozen"));
                }
                match finals[r] {
                    Some(v) if v.epoch == 0 && v.alive_mask == full => {}
                    other => cell.violations.push(format!(
                        "minority rank {r} moved off its frozen view: {other:?}"
                    )),
                }
            }
        }
        PartitionKind::EvenSplitPersistent => {
            for (r, v) in finals.iter().enumerate() {
                if !frozen[r] {
                    cell.violations
                        .push(format!("rank {r} is not frozen in an even split"));
                }
                match v {
                    Some(v) if v.epoch == 0 && v.alive_mask == full => {}
                    other => cell.violations.push(format!(
                        "rank {r} committed {other:?} without a quorum anywhere"
                    )),
                }
            }
        }
    }

    flight.dump_if_violated(&cell.violations);
    cell
}

const CAMPAIGN: Campaign = Campaign {
    name: "partition_campaign",
    command: "cargo test -p bbp --test partition_campaign -- --nocapture",
    default_report: concat!(env!("CARGO_TARGET_TMPDIR"), "/partition_campaign.json"),
};

#[test]
fn partition_campaign_freezes_minorities_and_heals_without_split_brain() {
    let matrix = campaign::matrix(KINDS.map(PartitionKind::name), &SEEDS, &[], &[]);
    let cell = |c: &Coord| {
        let kind = KINDS.into_iter().find(|k| k.name() == c.kind).unwrap();
        run_cell(kind, c.seed)
    };
    CAMPAIGN.run(matrix, cell, |w| w.document([]));
}
