//! Membership and failure detection on the billboard.
//!
//! Each endpoint owns a six-word *member block* in its control partition
//! ([`crate::MEMBER_WORDS`]): a monotonic heartbeat counter, an
//! incarnation number, an epoch-stamped membership view (epoch + alive
//! mask), and a proposal pair used only by quorum mode. All six are
//! single-writer words, so the detector needs no coordination beyond
//! SCRAMNet's replication itself:
//!
//! * every node publishes its heartbeat on a configurable cadence
//!   ([`crate::MembershipConfig::heartbeat_period_ns`]),
//! * every node grades every peer Alive → Suspected → Dead from the
//!   staleness of that peer's heartbeat word in its *local* bank,
//! * the lowest-ranked node that is not locally Dead acts as
//!   coordinator: when its graded liveness disagrees with the current
//!   view it bumps the epoch and publishes `{epoch, alive_mask}` through
//!   its own view words,
//! * everyone else adopts any strictly newer view that still contains
//!   them, republishing it through their own view words — acknowledgement
//!   by single-writer echo.
//!
//! Epochs only ever increase and every node adopts the highest epoch it
//! sees, so survivors converge on identical `{epoch, alive_mask}` pairs
//! even across coordinator failure (the next-lowest survivor proposes
//! the following epoch). The types here are the data model; the engine
//! lives in [`crate::BbpEndpoint::membership_tick`] and
//! [`crate::BbpEndpoint::rejoin`].
//!
//! With [`crate::MembershipConfig::quorum`] on, the coordinator's
//! proposal additionally rides an explicit ack round: it is published
//! through the coordinator's `prop` words, every member echoes the pair
//! it acknowledges through its own `prop` words (at most one mask per
//! proposed epoch — the promise that makes two divergent commits at one
//! epoch impossible), and the view commits only once a strict majority
//! of the *seed* membership has echoed. A node whose ring segment stops
//! reaching a seed majority freezes at its last committed epoch until
//! the partition heals and the majority readmits it.

use std::sync::Arc;

use des::obs::LogHistogram;
use des::Time;
use scramnet::Word;

/// An epoch-stamped membership view: which ranks the cluster currently
/// believes are alive. Two nodes holding the same `epoch` hold the same
/// `alive_mask` (views are only ever published whole, epochs only ever
/// increase, and adopters echo the pair verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipView {
    /// Strictly increasing view number; bumped by the coordinator on
    /// every membership change.
    pub epoch: Word,
    /// Bit `r` set ⇔ rank `r` is a member of this view.
    pub alive_mask: Word,
}

/// `{"epoch":…,"mask":…}`: how campaign reports spell a view.
impl From<MembershipView> for des::obs::json::Json {
    fn from(v: MembershipView) -> Self {
        Self::obj([("epoch", v.epoch.into()), ("mask", v.alive_mask.into())])
    }
}

impl MembershipView {
    /// Is `rank` a member of this view?
    pub fn is_alive(&self, rank: usize) -> bool {
        rank < 32 && self.alive_mask & (1 << rank) != 0
    }

    /// Number of members in this view.
    pub fn live_count(&self) -> usize {
        self.alive_mask.count_ones() as usize
    }

    /// The member ranks, ascending.
    pub fn live_ranks(&self) -> Vec<usize> {
        (0..32).filter(|&r| self.is_alive(r)).collect()
    }
}

/// The detector's local grade for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerHealth {
    /// Heartbeat fresh (or the peer has not been stale long enough).
    #[default]
    Alive,
    /// Heartbeat stale past `suspect_after_ns`: no action taken yet,
    /// but the suspicion (and its latency) is observable through `obs`.
    Suspected,
    /// Heartbeat stale past `dead_after_ns`: the coordinator engages the
    /// peer's ring bypass and proposes an epoch excluding it.
    Dead,
}

/// Per-peer detector shadow state.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerTrack {
    /// Last heartbeat value seen in our bank.
    pub hb: Word,
    /// Last incarnation value seen (a change while Dead is a rejoin).
    pub incarnation: Word,
    /// Virtual time the heartbeat or incarnation last changed.
    pub last_change: Time,
    /// Current local grade.
    pub health: PeerHealth,
}

/// Always-on failure-detection latency distributions: how stale a
/// peer's heartbeat was when it crossed each grading threshold.
/// Log-bucket histograms rather than the scalar sums they replaced —
/// a sum reports an average and hides exactly the tail a detector's
/// operators care about. Shared via `Arc` so a harness can keep reading
/// after the endpoint moves into its simulated process
/// ([`crate::BbpEndpoint::detection_latency`]).
#[derive(Debug, Default)]
pub struct DetectionHists {
    /// Staleness (ns) observed at each Alive → Suspected transition.
    pub suspect_ns: LogHistogram,
    /// Staleness (ns) observed at each Suspected → Dead transition.
    pub death_ns: LogHistogram,
}

/// The per-endpoint membership engine state.
#[derive(Debug, Clone)]
pub(crate) struct MembershipState {
    /// Our own monotonic heartbeat counter (next publish writes +1).
    pub hb_counter: Word,
    /// Our incarnation: 0 until the first heartbeat publish, then ≥ 1;
    /// a rejoin bumps it past whatever the bank last saw.
    pub incarnation: Word,
    /// Virtual time of the next due heartbeat publish.
    pub next_hb_at: Time,
    /// The view we currently hold (and have republished).
    pub view: MembershipView,
    /// Detector state per peer (our own slot is unused).
    pub tracks: Vec<PeerTrack>,
    /// Detection-latency distributions (always on, shared with the
    /// harness via [`crate::BbpEndpoint::detection_latency`]).
    pub hists: Arc<DetectionHists>,
    /// Quorum mode: our ring segment currently fails to reach a strict
    /// majority of the seed — the node is frozen at `view.epoch`.
    pub partitioned: bool,
    /// Quorum mode: the partition healed but this node has not yet been
    /// readmitted into a committed view past `frozen_at`; it stays
    /// frozen (and scrubbed its pairwise channels) until then.
    pub merge_pending: bool,
    /// Quorum mode: the committed epoch held when the current freeze
    /// began (merge completion = adopting/committing an epoch past it).
    pub frozen_at: Word,
    /// Quorum mode, coordinator side: the `(epoch, mask)` proposal
    /// currently published through our prop words, if any.
    pub proposal: Option<(Word, Word)>,
    /// Quorum mode, member side: the `(epoch, mask)` we last echoed.
    /// A member never echoes a *different* mask for an epoch it already
    /// echoed — the single-writer promise that prevents two divergent
    /// views from both gathering a quorum at the same epoch.
    pub echoed: Option<(Word, Word)>,
    /// Quorum mode: bit `r` set ⇔ the ring currently cannot reach seed
    /// rank `r`. Tracked every tick so a heal is attributable: the bits
    /// that clear are exactly the peers whose pairwise channels must be
    /// restarted (their side either scrubbed or will be reset by a
    /// readmitting view — ours resets here, symmetrically).
    pub cut_peers: Word,
}

impl MembershipState {
    /// Initial state for a cluster of `n`: epoch 0, everyone a member,
    /// everyone graded Alive as of t = 0.
    pub fn new(n: usize) -> Self {
        debug_assert!(n <= 32);
        let alive_mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        MembershipState {
            hb_counter: 0,
            incarnation: 0,
            next_hb_at: 0,
            view: MembershipView {
                epoch: 0,
                alive_mask,
            },
            tracks: vec![PeerTrack::default(); n],
            hists: Arc::new(DetectionHists::default()),
            partitioned: false,
            merge_pending: false,
            frozen_at: 0,
            proposal: None,
            echoed: None,
            cut_peers: 0,
        }
    }

    /// Quorum mode: is this node frozen (cut off, or healed but not yet
    /// readmitted)? Frozen nodes neither send, poll, propose, nor commit.
    pub fn frozen(&self) -> bool {
        self.partitioned || self.merge_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_membership_queries() {
        let v = MembershipView {
            epoch: 3,
            alive_mask: 0b1011,
        };
        assert!(v.is_alive(0));
        assert!(v.is_alive(1));
        assert!(!v.is_alive(2));
        assert!(v.is_alive(3));
        assert!(!v.is_alive(31));
        assert_eq!(v.live_count(), 3);
        assert_eq!(v.live_ranks(), vec![0, 1, 3]);
    }

    #[test]
    fn initial_state_has_everyone_alive_at_epoch_zero() {
        let st = MembershipState::new(4);
        assert_eq!(st.view.epoch, 0);
        assert_eq!(st.view.alive_mask, 0b1111);
        assert_eq!(st.incarnation, 0, "incarnation published on first tick");
        assert!(st.tracks.iter().all(|t| t.health == PeerHealth::Alive));
        assert_eq!(MembershipState::new(32).view.alive_mask, u32::MAX);
    }
}
