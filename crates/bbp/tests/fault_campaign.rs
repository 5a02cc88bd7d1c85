//! The fault campaign: a deterministic (fault kind × seed × payload
//! size) matrix over a 4-node ring. Every cell runs one simulated
//! sender→receiver stream under a scripted [`FaultPlan`] and checks the
//! reliability invariant:
//!
//! > every message is either delivered byte-identical, in order, without
//! > duplication — or its send/recv reports a typed [`BbpError`].
//!
//! The matrix is walked by [`des::obs::campaign`], which owns the
//! filters, the report (default `$CARGO_TARGET_TMPDIR/fault_campaign.json`),
//! the per-cell budget and the repro line of a violating cell:
//!
//! ```text
//! CAMPAIGN_KIND=drop CAMPAIGN_SEED=7 CAMPAIGN_SIZE=64 \
//!     cargo test -p bbp --test fault_campaign -- --nocapture
//! ```

use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig, BbpError};
use des::obs::campaign::{self, Campaign, Cell, Coord};
use des::obs::json::Json;
use des::{us, Simulation};
use scramnet::fault::FOREVER;
use scramnet::{CostModel, FaultPlan};

/// Ranks in every campaign ring.
const NODES: usize = 4;
/// Sender and receiver world ranks (two hops apart so link faults can
/// land between them).
const SENDER: usize = 0;
const RECEIVER: usize = 2;
/// Messages per cell.
const K: u32 = 8;

const SEEDS: [u64; 3] = [1, 7, 42];
const SIZES: [usize; 4] = [0, 4, 64, 1024];

/// The fault kinds enumerated by the matrix. Each builds its scenario
/// deterministically from the cell's seed, so a (kind, seed, size)
/// triple pins the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    None,
    Corrupt,
    Drop,
    StallReceiver,
    StallSender,
    BreakLinkTemp,
    BreakLinkPerm,
}

const KINDS: [FaultKind; 7] = [
    FaultKind::None,
    FaultKind::Corrupt,
    FaultKind::Drop,
    FaultKind::StallReceiver,
    FaultKind::StallSender,
    FaultKind::BreakLinkTemp,
    FaultKind::BreakLinkPerm,
];

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Drop => "drop",
            FaultKind::StallReceiver => "stall_receiver",
            FaultKind::StallSender => "stall_sender",
            FaultKind::BreakLinkTemp => "break_link_temp",
            FaultKind::BreakLinkPerm => "break_link_perm",
        }
    }

    /// The scripted scenario for one cell. Onsets and magnitudes are
    /// seed-derived so different seeds hit different protocol phases.
    fn plan(self, seed: u64) -> FaultPlan {
        let onset = us(5 + (seed % 11) * 17);
        let plan = FaultPlan::new(seed);
        match self {
            FaultKind::None => plan,
            FaultKind::Corrupt => plan.corrupt_word(0.005),
            FaultKind::Drop => plan
                .at(onset)
                .drop_next(2 + seed % 4)
                .at(onset.saturating_mul(3))
                .drop_next(3),
            FaultKind::StallReceiver => plan.at(onset).stall_node(RECEIVER, us(300)),
            FaultKind::StallSender => plan.at(onset).stall_node(SENDER, us(300)),
            FaultKind::BreakLinkTemp => plan.at(onset).break_link(1, us(400)),
            FaultKind::BreakLinkPerm => plan.at(onset).break_link(1, FOREVER),
        }
    }
}

/// The deterministic payload for message `index` at `size` bytes: the
/// index in the first word (when it fits) and a seeded fill after it.
fn payload(index: u32, size: usize) -> Vec<u8> {
    let mut p = vec![0u8; size];
    if size >= 4 {
        p[..4].copy_from_slice(&index.to_le_bytes());
        for (j, b) in p[4..].iter_mut().enumerate() {
            *b = (index as u8).wrapping_mul(31).wrapping_add(j as u8);
        }
    }
    p
}

/// One cell's outcome, ready for the JSON report.
struct CellResult {
    scenario: String,
    sent_ok: Vec<u32>,
    send_errors: Vec<(u32, String)>,
    delivered: Vec<u32>,
    recv_errors: Vec<String>,
    /// Receiver-side phantom flag toggles rejected by the sequence layer
    /// (exercised deliberately in the corrupt cells — see the poke in
    /// `run_cell`).
    phantom_rejects: u64,
    violations: Vec<String>,
}

impl Cell for CellResult {
    fn violations(&self) -> &[String] {
        &self.violations
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scenario", self.scenario.as_str().into()),
            ("sent_ok", self.sent_ok.len().into()),
            ("send_errors", self.send_errors.len().into()),
            ("delivered", self.delivered.len().into()),
            ("recv_errors", self.recv_errors.len().into()),
            ("phantom_rejects", self.phantom_rejects.into()),
        ]
    }
}

/// Run one campaign cell and evaluate the invariant.
fn run_cell(kind: FaultKind, seed: u64, size: usize) -> CellResult {
    let plan = kind.plan(seed);
    let mut sim = Simulation::new();
    let flight = des::obs::FlightGuard::new(
        format!("fault_{}_seed{}_size{}", kind.name(), seed, size),
        sim.recorder_arc(),
    );
    let cluster = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::reliable_for_nodes(NODES),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(cluster.ring());

    let mut tx = cluster.endpoint(SENDER);
    let mut sender = sim.spawn("sender", move |ctx| {
        (0..K)
            .map(|i| (i, tx.send(ctx, RECEIVER, &payload(i, size))))
            .collect::<Vec<_>>()
    });

    // In the corrupt cells, poke the receiver's MESSAGE flag word from
    // the sender's ring identity at fixed times: a single-bit toggle of
    // slot 0's flag resurrects its stale — but CRC-clean — descriptor.
    // The sequence layer must reject the phantom, and the receiver's
    // `phantom_rejects` counter must see it (asserted campaign-wide
    // below). The flag word, not the descriptor, is poked: in-flight
    // descriptor corruption is the corrupt fault's own job.
    let poke = kind == FaultKind::Corrupt;
    if poke {
        let addr = bbp::Layout::new(cluster.config()).msg_flag(RECEIVER, SENDER);
        for t in [us(700), us(1_000), us(1_300)] {
            let ring = cluster.ring().clone();
            sim.handle().schedule_at(t, move |_| {
                let cur = ring.snapshot(RECEIVER)[addr];
                ring.source_packet(SENDER, t, addr, Arc::new(vec![cur ^ 1]));
            });
        }
    }

    let mut rx = cluster.endpoint(RECEIVER);
    let mut receiver = sim.spawn("receiver", move |ctx| {
        let mut recvs: Vec<_> = (0..K).map(|_| rx.recv(ctx, SENDER)).collect();
        // Poked cells: keep polling past the pokes so the phantom
        // toggles are actually observed (and any repaired stragglers
        // still land in the delivery record).
        while poke && ctx.now() < us(1_600) {
            if let Some(bytes) = rx.try_recv(ctx, SENDER) {
                recvs.push(Ok(bytes));
            }
            ctx.advance(us(5));
        }
        (recvs, rx.stats().clone())
    });

    // Idle processes on the bystander ranks would deadlock-flag the
    // report; the ring replicates into their banks regardless.
    let report = sim.run();
    // A process that did not return (the cell deadlocked) reports nothing.
    let sends = sender.take().unwrap_or_default();
    let (recvs, rx_stats) = receiver.take().unwrap_or_default();

    let mut cell = CellResult {
        scenario: plan.describe(),
        sent_ok: Vec::new(),
        send_errors: Vec::new(),
        delivered: Vec::new(),
        recv_errors: Vec::new(),
        phantom_rejects: rx_stats.phantom_rejects,
        violations: Vec::new(),
    };

    if !report.is_clean() {
        cell.violations
            .push(format!("simulation deadlocked: {:?}", report.deadlocked));
    }

    for (i, res) in &sends {
        match res {
            Ok(()) => cell.sent_ok.push(*i),
            Err(e) => {
                if !matches!(
                    e,
                    BbpError::Corrupt { .. } | BbpError::Timeout { .. } | BbpError::PeerDown { .. }
                ) {
                    cell.violations
                        .push(format!("send {i} failed with a non-fault error: {e}"));
                }
                cell.send_errors.push((*i, e.to_string()));
            }
        }
    }

    for res in &recvs {
        match res {
            Ok(bytes) => {
                if size >= 4 && bytes.len() == size {
                    let idx = u32::from_le_bytes(bytes[..4].try_into().unwrap());
                    if idx >= K {
                        cell.violations
                            .push(format!("delivered index {idx} was never sent"));
                    } else if *bytes != payload(idx, size) {
                        cell.violations
                            .push(format!("message {idx} delivered mangled"));
                    }
                    cell.delivered.push(idx);
                } else if bytes.len() != size {
                    cell.violations.push(format!(
                        "delivered {} bytes where every sent message has {size}",
                        bytes.len()
                    ));
                } else {
                    // Size 0/too small to carry an index: intactness is
                    // just the length check above.
                    cell.delivered.push(cell.delivered.len() as u32);
                }
            }
            Err(e) => {
                if !matches!(
                    e,
                    BbpError::Corrupt { .. } | BbpError::Timeout { .. } | BbpError::PeerDown { .. }
                ) {
                    cell.violations
                        .push(format!("recv failed with a non-fault error: {e}"));
                }
                cell.recv_errors.push(e.to_string());
            }
        }
    }

    if size >= 4 {
        if !cell.delivered.windows(2).all(|w| w[0] < w[1]) {
            cell.violations.push(format!(
                "delivery order violated (dup or reorder): {:?}",
                cell.delivered
            ));
        }
        // A confirmed send is a delivered message (the converse does not
        // hold: a lost ACK shows up as a sender timeout after delivery).
        for i in &cell.sent_ok {
            if !cell.delivered.contains(i) {
                cell.violations
                    .push(format!("send {i} was acknowledged but never delivered"));
            }
        }
    }
    if kind == FaultKind::None {
        if cell.sent_ok.len() != K as usize {
            cell.violations
                .push("fault-free cell must confirm every send".into());
        }
        if cell.delivered.len() != K as usize {
            cell.violations
                .push("fault-free cell must deliver every message".into());
        }
    }

    // A violating cell's recent lifecycle ring is the postmortem the
    // repro line starts from; dump it before the recorder goes away.
    flight.dump_if_violated(&cell.violations);

    cell
}

const CAMPAIGN: Campaign = Campaign {
    name: "fault_campaign",
    command: "cargo test -p bbp --test fault_campaign -- --nocapture",
    default_report: concat!(env!("CARGO_TARGET_TMPDIR"), "/fault_campaign.json"),
};

#[test]
fn fault_matrix_holds_the_reliability_invariant() {
    let matrix = campaign::matrix(KINDS.map(FaultKind::name), &SEEDS, &SIZES, &[]);
    let cell = |c: &Coord| {
        let kind = KINDS.into_iter().find(|k| k.name() == c.kind).unwrap();
        run_cell(kind, c.seed, c.size.unwrap())
    };
    let walk = CAMPAIGN.run(matrix, cell, |w| w.document([]));

    // The deliberate flag pokes in the corrupt cells must exercise the
    // phantom-rejection path (only meaningful over the full matrix — a
    // filtered single cell may legitimately see none).
    if walk.full {
        let phantoms: u64 = walk
            .cells
            .iter()
            .filter(|r| r.coord.kind == FaultKind::Corrupt.name())
            .map(|r| r.cell.phantom_rejects)
            .sum();
        assert!(
            phantoms > 0,
            "corrupt cells never hit the phantom-reject path — the poke is broken"
        );
    }
}
