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

/// The reliability extension: per-message CRC verification, NACK-driven
/// repair, and bounded timeout/retry/backoff on both sides of the
/// protocol. The paper's BBP assumes SCRAMNet's hardware error detection
/// and never recovers from a lost or corrupted replication; enabling
/// this layer makes every operation either deliver intact data or fail
/// with a typed [`crate::BbpError`] within a closed-form time bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// How long the sender waits for all ACKs before the first
    /// retransmission; attempt `k` waits `ack_timeout_ns * backoff_factor^k`.
    pub ack_timeout_ns: Time,
    /// Retransmissions after the initial attempt before the send fails.
    pub max_retries: u32,
    /// Exponential backoff multiplier between attempts (≥ 1).
    pub backoff_factor: u64,
    /// How long a blocking receive waits before returning
    /// [`crate::BbpError::Timeout`].
    pub recv_timeout_ns: Time,
    /// How many times the receiver re-reads a message that failed CRC
    /// verification (each after NACKing the sender) before dropping it.
    pub verify_retries: u32,
    /// Software cost of computing or verifying one message checksum.
    pub checksum_ns: Time,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            ack_timeout_ns: 50_000, // 50 µs: several ring transits + sw path
            max_retries: 4,
            backoff_factor: 2,
            recv_timeout_ns: 2_000_000, // 2 ms: covers a full send retry budget
            verify_retries: 8,
            checksum_ns: 200,
        }
    }
}

impl ReliabilityConfig {
    /// Closed-form bound on how long a send can wait for acknowledgement
    /// across all attempts: `Σ_{k=0..=max_retries} ack_timeout·factor^k`.
    /// The property tests pin `bbp_Send` latency under injected losses
    /// against this sum (plus the per-attempt retransmission PIO cost).
    pub fn max_send_wait_ns(&self) -> Time {
        let mut total: Time = 0;
        let mut t = self.ack_timeout_ns;
        for _ in 0..=self.max_retries {
            total = total.saturating_add(t);
            t = t.saturating_mul(self.backoff_factor);
        }
        total
    }
}

/// The membership-and-failure-detection extension: each endpoint
/// publishes a monotonic heartbeat in a single-writer word of its own
/// partition, a timeout detector grades stale peers Alive → Suspected →
/// Dead, and the lowest-ranked live node proposes epoch-stamped
/// [`crate::MembershipView`]s that every survivor adopts and republishes
/// through its own view words. `None` (the default) keeps the paper's
/// layout and timing bit-for-bit — no heartbeat words exist and
/// [`crate::BbpEndpoint::membership_tick`] is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Cadence of heartbeat-word publishes.
    pub heartbeat_period_ns: Time,
    /// Staleness after which a peer is Suspected (no failure action yet;
    /// observable through `obs` for detection-latency studies).
    pub suspect_after_ns: Time,
    /// Staleness after which a peer is declared Dead: the coordinator
    /// engages its bypass and proposes an epoch bump excluding it.
    pub dead_after_ns: Time,
    /// Quorum-enforced views (`false` = the legacy engine, byte-identical
    /// to the pre-quorum protocol). When on:
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
    pub quorum: bool,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            heartbeat_period_ns: 20_000, // 20 µs: a handful of ring transits
            suspect_after_ns: 200_000,   // 10 missed heartbeats
            dead_after_ns: 600_000,      // 30 missed heartbeats
            quorum: false,
        }
    }
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
    /// The membership extension (`None` = no heartbeat region in the
    /// layout, no detector — the paper's billboard bit-for-bit).
    pub membership: Option<MembershipConfig>,
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
            membership: None,
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

    /// [`BbpConfig::reliable_for_nodes`] with the default membership
    /// extension on top: typed failures need reliability's liveness
    /// checks, and detection needs heartbeats.
    pub fn membership_for_nodes(nprocs: usize) -> Self {
        let mut config = Self::reliable_for_nodes(nprocs);
        config.membership = Some(MembershipConfig::default());
        config
    }

    /// [`BbpConfig::membership_for_nodes`] with quorum-enforced views on
    /// top: view commits need a strict seed-majority ack round, minority
    /// partitions freeze instead of diverging, and the data plane rejects
    /// stale-epoch traffic.
    pub fn quorum_for_nodes(nprocs: usize) -> Self {
        let mut config = Self::membership_for_nodes(nprocs);
        config.membership.as_mut().expect("membership is on").quorum = true;
        config
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
            assert!(rel.backoff_factor >= 1, "backoff factor must be ≥ 1");
        }
        if let Some(m) = &self.membership {
            assert!(
                self.reliability.is_some(),
                "membership requires the reliability extension (typed failures \
                 and the sequence/ACK machinery degraded mode depends on)"
            );
            assert!(
                self.nprocs <= 32,
                "membership packs alive_mask into one 32-bit view word"
            );
            assert!(m.heartbeat_period_ns > 0, "heartbeat period cannot be zero");
            assert!(
                m.heartbeat_period_ns < m.suspect_after_ns && m.suspect_after_ns < m.dead_after_ns,
                "membership thresholds must satisfy period < suspect < dead"
            );
            assert!(
                !m.quorum || self.nprocs >= 3,
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
            backoff_factor: 2,
            ..Default::default()
        };
        // 100 + 200 + 400 + 800
        assert_eq!(rel.max_send_wait_ns(), 1_500);
        let flat = ReliabilityConfig {
            ack_timeout_ns: 100,
            max_retries: 2,
            backoff_factor: 1,
            ..Default::default()
        };
        assert_eq!(flat.max_send_wait_ns(), 300);
    }

    #[test]
    #[should_panic(expected = "backoff factor")]
    fn zero_backoff_factor_rejected() {
        let mut c = BbpConfig::reliable_for_nodes(2);
        c.reliability.as_mut().unwrap().backoff_factor = 0;
        c.validate();
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
        assert!(c.reliability.is_some(), "membership builds on reliability");
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
        assert!(c.membership.as_ref().unwrap().quorum);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least three seed members")]
    fn quorum_on_two_nodes_rejected() {
        BbpConfig::quorum_for_nodes(2).validate();
    }

    #[test]
    #[should_panic(expected = "period < suspect < dead")]
    fn inverted_membership_thresholds_rejected() {
        let mut c = BbpConfig::membership_for_nodes(4);
        c.membership.as_mut().unwrap().suspect_after_ns = 1_000_000;
        c.validate();
    }
}
