//! Protocol configuration and the calibrated software-path costs.

use des::Time;

/// How the sender's data partition is managed (paper §3 footnote: "If a
/// buffer cannot be allocated garbage collection is first done").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Circular allocator, buffers freed strictly in allocation order
    /// (the classic ring-buffer discipline; cheapest bookkeeping, but an
    /// unacknowledged front buffer blocks all space behind it).
    #[default]
    FifoRing,
    /// The data partition is pre-cut into `bufs_per_proc` equal slots;
    /// any acknowledged slot is reusable immediately. No head-of-line
    /// blocking, but a message cannot exceed one slot.
    Slotted,
}

/// How a blocked receive waits for new `MESSAGE` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecvMode {
    /// Spin on PIO reads of the flag words (the paper's implementation;
    /// lowest latency, burns the CPU and the I/O bus).
    #[default]
    Polling,
    /// Block on the NIC's interrupt-on-write (the paper's "future work"
    /// extension): higher per-message latency (interrupt dispatch) but no
    /// polling traffic.
    Interrupt,
}

// The calibrated costs of the user-level software path, in nanoseconds.
// They model instruction-path lengths on the paper's 300 MHz Pentium II
// hosts; together with `scramnet::CostModel` they reproduce the headline
// latencies (see `EXPERIMENTS.md`).

/// `bbp_Send` entry: argument checks, partition math.
pub(crate) const SEND_ENTRY_NS: Time = 150;
/// Buffer/descriptor-slot allocation bookkeeping (no GC).
pub(crate) const ALLOC_NS: Time = 150;
/// One garbage-collection probe (local bookkeeping on top of the ACK word
/// PIO reads it triggers).
pub(crate) const GC_PROBE_NS: Time = 100;
/// Pause between GC retries while waiting for acknowledgements.
pub(crate) const GC_RETRY_GAP_NS: Time = 1_000;
/// Per-iteration receive-poll bookkeeping (on top of the flag-word PIO
/// read).
pub(crate) const POLL_ITER_NS: Time = 100;
/// Flag diffing + pending-queue insertion per detected message.
pub(crate) const MATCH_NS: Time = 300;
/// Delivery epilogue: ACK toggle bookkeeping, returning to caller.
pub(crate) const DELIVER_NS: Time = 150;
/// Extra sender-side bookkeeping per additional multicast target
/// (target-mask update; the flag-word write itself is charged by the NIC
/// model).
pub(crate) const MCAST_TARGET_NS: Time = 50;

/// Software cost of computing or verifying one message checksum (the
/// reliability extension's CRC pass, once at the sender and once at each
/// receiver).
pub(crate) const CHECKSUM_NS: Time = 200;
/// Exponential backoff multiplier between send attempts: attempt `k`
/// waits `ack_timeout_ns * BACKOFF_FACTOR^k`.
pub(crate) const BACKOFF_FACTOR: u64 = 2;
/// Cadence of heartbeat-word publishes under the membership extension
/// (a handful of ring transits).
pub(crate) const HEARTBEAT_PERIOD_NS: Time = 20_000;
/// Heartbeat staleness after which a peer is Suspected (10 missed
/// heartbeats; no failure action yet, observable through `obs` for
/// detection-latency studies).
pub(crate) const SUSPECT_AFTER_NS: Time = 200_000;
/// Heartbeat staleness after which a peer is declared Dead (30 missed
/// heartbeats): the coordinator engages its bypass and proposes an epoch
/// bump excluding it.
pub(crate) const DEAD_AFTER_NS: Time = 600_000;
const _: () = assert!(
    0 < HEARTBEAT_PERIOD_NS
        && HEARTBEAT_PERIOD_NS < SUSPECT_AFTER_NS
        && SUSPECT_AFTER_NS < DEAD_AFTER_NS,
    "membership thresholds must satisfy 0 < period < suspect < dead"
);

/// The reliability extension: per-message CRC verification, NACK-driven
/// repair, and bounded timeout/retry/backoff on both sides of the
/// protocol. The paper's BBP assumes SCRAMNet's hardware error detection
/// and never recovers from a lost or corrupted replication; enabling
/// this layer makes every operation either deliver intact data or fail
/// with a typed [`crate::BbpError`] within a closed-form time bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// How long the sender waits for all ACKs before the first
    /// retransmission; attempt `k` waits `ack_timeout_ns * 2^k`.
    pub ack_timeout_ns: Time,
    /// Retransmissions after the initial attempt before the send fails.
    pub max_retries: u32,
    /// How long a blocking receive waits before returning
    /// [`crate::BbpError::Timeout`].
    pub recv_timeout_ns: Time,
    /// How many times the receiver re-reads a message that failed CRC
    /// verification (each after NACKing the sender) before dropping it.
    pub verify_retries: u32,
    /// The membership extension on top of reliability (`None` = no
    /// heartbeat region in the layout, no detector — the paper's billboard
    /// bit-for-bit). Membership lives here because it needs reliability's
    /// typed failures and the sequence/ACK machinery degraded mode
    /// depends on.
    pub membership: Option<Membership>,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            ack_timeout_ns: 50_000, // 50 µs: several ring transits + sw path
            max_retries: 4,
            recv_timeout_ns: 2_000_000, // 2 ms: covers a full send retry budget
            verify_retries: 8,
            membership: None,
        }
    }
}

impl ReliabilityConfig {
    /// Closed-form bound on how long a send can wait for acknowledgement
    /// across all attempts: `Σ_{k=0..=max_retries} ack_timeout·2^k`.
    /// The property tests pin `bbp_Send` latency under injected losses
    /// against this sum (plus the per-attempt retransmission PIO cost).
    pub fn max_send_wait_ns(&self) -> Time {
        let mut total: Time = 0;
        let mut t = self.ack_timeout_ns;
        for _ in 0..=self.max_retries {
            total = total.saturating_add(t);
            t = t.saturating_mul(BACKOFF_FACTOR);
        }
        total
    }
}

/// The membership-and-failure-detection extension: each endpoint
/// publishes a monotonic heartbeat in a single-writer word of its own
/// partition every `HEARTBEAT_PERIOD_NS` (20 µs), a timeout detector
/// grades stale peers Alive → Suspected (`SUSPECT_AFTER_NS`, 200 µs) →
/// Dead (`DEAD_AFTER_NS`, 600 µs), and the lowest-ranked live node
/// proposes epoch-stamped [`crate::MembershipView`]s that every survivor
/// adopts and republishes through its own view words. It is chosen in
/// [`ReliabilityConfig::membership`]; without it
/// [`crate::BbpEndpoint::membership_tick`] is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The failure detector alone: the coordinator's proposals commit as
    /// soon as they are published.
    Detector,
    /// Quorum-enforced views:
    ///
    /// * a proposed view commits only once a strict majority of the
    ///   *seed* membership echoes the proposal words back (an explicit
    ///   ack round through each member's single-writer `prop` pair),
    /// * a node whose ring segment no longer reaches a strict majority
    ///   of the seed freezes at its last committed epoch — sends fail
    ///   with [`crate::BbpError::Partitioned`] instead of producing a
    ///   divergent view on the minority side,
    /// * the data plane fences epochs: descriptor traffic from a sender
    ///   whose published view is stale or divergent is rejected,
    /// * a healed partition merges deterministically — the majority
    ///   coordinator readmits the returning side at the next epoch
    ///   through the existing rejoin/pairwise-reset machinery.
    ///
    /// Note the quorum denominator is the seed membership size, not the
    /// current view: once half or more of the seed is gone (dead or cut
    /// away), no further view can commit anywhere — an even split
    /// freezes *both* sides by design.
    Quorum,
}

/// The credit-based flow-control extension: each sender holds a fixed
/// grant of send credits per peer, debits one credit per posted message
/// per target, and earns credits back on the very side channel the
/// protocol already has — the per-(receiver, sender) `ACK` flag word.
/// A consumed `ACK` toggle *is* the credit return, so no shared word,
/// descriptor field, or packet changes and the layout stays bit-for-bit
/// the paper's. `None` (the default) disables the ledger entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditConfig {
    /// Send credits granted per peer (messages in flight toward one
    /// receiver before the sender must wait for ACK-carried returns).
    pub per_peer: u32,
    /// Out-of-credit behaviour: `true` fails fast with
    /// [`crate::BbpError::NoCredit`]; `false` blocks in the GC loop
    /// until a credit comes back (bounded by the reliability deadline
    /// when that extension is on, unbounded otherwise — exactly like a
    /// full data partition in the paper's protocol).
    pub fail_fast: bool,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            per_peer: 8,
            fail_fast: false,
        }
    }
}

/// Full protocol configuration. [`BbpConfig::for_nodes`] gives the
/// paper-calibrated default for a given cluster size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbpConfig {
    /// Number of participating processes (one per ring node).
    pub nprocs: usize,
    /// Message buffers per process: one `MESSAGE`/`ACK` flag bit each, so
    /// at most 32.
    pub bufs_per_proc: usize,
    /// Words in each process's data partition.
    pub data_words: usize,
    /// Poll or block on interrupts while receiving.
    pub recv_mode: RecvMode,
    /// Data-partition allocation discipline.
    pub gc_policy: GcPolicy,
    /// The reliability extension (`None` = the paper's protocol exactly:
    /// no checksums, no retries, no timeouts — and no layout or timing
    /// changes, preserving the calibrated latencies).
    pub reliability: Option<ReliabilityConfig>,
    /// The credit-based flow-control extension (`None` = no ledger, no
    /// behaviour change; credits are sender-local bookkeeping over the
    /// existing ACK side channel, so the layout never changes either way).
    pub credit: Option<CreditConfig>,
}

impl BbpConfig {
    /// Paper-like defaults: 16 buffers and a 16 KB data partition per
    /// process.
    pub fn for_nodes(nprocs: usize) -> Self {
        BbpConfig {
            nprocs,
            bufs_per_proc: 16,
            data_words: 4096,
            recv_mode: RecvMode::Polling,
            gc_policy: GcPolicy::FifoRing,
            reliability: None,
            credit: None,
        }
    }

    /// [`BbpConfig::for_nodes`] with the default reliability extension
    /// enabled.
    pub fn reliable_for_nodes(nprocs: usize) -> Self {
        let mut config = Self::for_nodes(nprocs);
        config.reliability = Some(ReliabilityConfig::default());
        config
    }

    /// [`BbpConfig::reliable_for_nodes`] with the membership extension's
    /// failure detector ([`Membership::Detector`]) on top: typed failures
    /// need reliability's liveness checks, and detection needs heartbeats.
    pub fn membership_for_nodes(nprocs: usize) -> Self {
        Self::reliable_with(nprocs, Membership::Detector)
    }

    /// [`BbpConfig::membership_for_nodes`] with quorum-enforced views
    /// ([`Membership::Quorum`]): view commits need a strict seed-majority
    /// ack round, minority partitions freeze instead of diverging, and the
    /// data plane rejects stale-epoch traffic.
    pub fn quorum_for_nodes(nprocs: usize) -> Self {
        Self::reliable_with(nprocs, Membership::Quorum)
    }

    fn reliable_with(nprocs: usize, membership: Membership) -> Self {
        BbpConfig {
            reliability: Some(ReliabilityConfig {
                membership: Some(membership),
                ..ReliabilityConfig::default()
            }),
            ..Self::for_nodes(nprocs)
        }
    }

    /// The membership extension, if reliability carries one.
    pub(crate) fn membership(&self) -> Option<Membership> {
        self.reliability.as_ref().and_then(|rel| rel.membership)
    }

    /// Validate invariants (≥2 processes, 1–32 buffers, nonzero data
    /// partition). Panics with a descriptive message on misuse.
    pub fn validate(&self) {
        assert!(self.nprocs >= 2, "BBP needs at least two processes");
        assert!(
            (1..=32).contains(&self.bufs_per_proc),
            "bufs_per_proc must be in 1..=32 (one flag bit per buffer)"
        );
        assert!(self.data_words > 0, "data partition cannot be empty");
        if let Some(rel) = &self.reliability {
            assert!(rel.ack_timeout_ns > 0, "ack timeout cannot be zero");
            assert!(rel.recv_timeout_ns > 0, "recv timeout cannot be zero");
        }
        if let Some(m) = self.membership() {
            assert!(
                self.nprocs <= 32,
                "membership packs alive_mask into one 32-bit view word"
            );
            assert!(
                m != Membership::Quorum || self.nprocs >= 3,
                "quorum-enforced views need at least three seed members \
                 (a strict majority must survive a single loss)"
            );
        }
        if let Some(cr) = &self.credit {
            assert!(cr.per_peer >= 1, "credit grant must be at least one");
        }
    }

    /// Largest payload (bytes) a single message can carry. Under
    /// [`GcPolicy::FifoRing`], the whole data partition minus one word
    /// of allocator slack; under [`GcPolicy::Slotted`], one slot.
    pub fn max_payload_bytes(&self) -> usize {
        match self.gc_policy {
            GcPolicy::FifoRing => (self.data_words - 1) * 4,
            GcPolicy::Slotted => (self.data_words / self.bufs_per_proc) * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        BbpConfig::for_nodes(2).validate();
        BbpConfig::for_nodes(256).validate();
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_proc_rejected() {
        BbpConfig::for_nodes(1).validate();
    }

    #[test]
    #[should_panic(expected = "bufs_per_proc")]
    fn too_many_buffers_rejected() {
        let mut c = BbpConfig::for_nodes(4);
        c.bufs_per_proc = 33;
        c.validate();
    }

    #[test]
    fn max_payload_leaves_allocator_slack() {
        let c = BbpConfig::for_nodes(2);
        assert_eq!(c.max_payload_bytes(), (c.data_words - 1) * 4);
    }

    #[test]
    fn reliable_defaults_validate() {
        BbpConfig::reliable_for_nodes(4).validate();
    }

    #[test]
    fn max_send_wait_is_the_geometric_sum() {
        let rel = ReliabilityConfig {
            ack_timeout_ns: 100,
            max_retries: 3,
            ..Default::default()
        };
        // 100 + 200 + 400 + 800
        assert_eq!(rel.max_send_wait_ns(), 1_500);
    }

    #[test]
    fn credited_defaults_validate() {
        BbpConfig {
            credit: Some(CreditConfig::default()),
            ..BbpConfig::for_nodes(4)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "credit grant")]
    fn zero_credit_grant_rejected() {
        BbpConfig {
            credit: Some(CreditConfig {
                per_peer: 0,
                ..CreditConfig::default()
            }),
            ..BbpConfig::for_nodes(2)
        }
        .validate();
    }

    #[test]
    fn membership_defaults_validate() {
        let c = BbpConfig::membership_for_nodes(4);
        assert_eq!(c.membership(), Some(Membership::Detector));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alive_mask")]
    fn membership_beyond_32_nodes_rejected() {
        BbpConfig::membership_for_nodes(33).validate();
    }

    #[test]
    fn quorum_defaults_validate() {
        let c = BbpConfig::quorum_for_nodes(5);
        assert_eq!(c.membership(), Some(Membership::Quorum));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least three seed members")]
    fn quorum_on_two_nodes_rejected() {
        BbpConfig::quorum_for_nodes(2).validate();
    }
}
