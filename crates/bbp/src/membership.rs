//! Membership and failure detection on the billboard.
//!
//! Each endpoint owns a six-word *member block* in its control partition
//! ([`crate::MEMBER_WORDS`]): a monotonic heartbeat counter, an
//! incarnation number, an epoch-stamped membership view (epoch + alive
//! mask), and a proposal pair used only by quorum mode. All six are
//! single-writer words, so the detector needs no coordination beyond
//! SCRAMNet's replication itself:
//!
//! * every node publishes its heartbeat every
//!   [`crate::config::HEARTBEAT_PERIOD_NS`],
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
//! the following epoch). The types at the top of this module are the data
//! model; [`Members`] below them is the engine behind
//! [`crate::BbpEndpoint::membership_tick`] and
//! [`crate::BbpEndpoint::rejoin`] — one tick is six phases, one function
//! each: reachability, publish, grade, coordinate, echo, adopt.
//!
//! With [`crate::Membership::Quorum`], the coordinator's
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
use des::{ProcCtx, Time};
use scramnet::Word;

use crate::config::{Membership, DEAD_AFTER_NS, HEARTBEAT_PERIOD_NS, SUSPECT_AFTER_NS};
use crate::core::Core;
use crate::error::BbpError;
use crate::flow::Flow;
use crate::layout::{INCARNATION, MEMBER_WORDS, PROPOSAL, VIEW};
use crate::reliable::Reliable;

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
}

/// The detector's local grade for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerHealth {
    /// Heartbeat fresh (or the peer has not been stale long enough).
    #[default]
    Alive = 0,
    /// Heartbeat stale past `SUSPECT_AFTER_NS`: no action taken yet,
    /// but the suspicion (and its latency) is observable through `obs`.
    Suspected = 1,
    /// Heartbeat stale past `DEAD_AFTER_NS`: the coordinator engages the
    /// peer's ring bypass and proposes an epoch excluding it.
    Dead = 2,
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

/// The per-endpoint membership engine. Every step is handed the [`Core`]
/// whose writer and counters it uses and, where it restarts pairwise
/// channels, the [`Reliable`] and [`Flow`] state that restarts with them
/// (membership is part of `ReliabilityConfig`).
#[derive(Debug, Clone)]
pub(crate) struct Members {
    /// Quorum-enforced views ([`Membership::Quorum`]).
    quorum: bool,
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

/// What one grading scan read from every peer's member block.
struct Scan {
    /// Each peer's published `(epoch, mask)` view (`None` for ourselves).
    views: Vec<Option<(Word, Word)>>,
    /// Each peer's `(epoch, mask)` proposal pair (quorum mode only).
    props: Vec<(Word, Word)>,
}

/// One PIO block read of the view `r` currently publishes.
fn read_view(ctx: &mut ProcCtx, core: &Core, r: usize) -> MembershipView {
    let mut vw = [0; 2];
    core.io
        .read_block(ctx, core.layout.member_base(r) + VIEW, &mut vw);
    let [epoch, alive_mask] = vw;
    MembershipView { epoch, alive_mask }
}

/// Restart the pairwise channel with `peer` from the all-zero state a
/// rejoining peer re-initialized on its side.
fn reset_pairwise(ctx: &mut ProcCtx, core: &mut Core, rel: &mut Reliable, peer: usize) {
    core.reset_channel(ctx, peer);
    rel.reset_channel(ctx, core, peer);
}

/// Restart every pairwise channel and all local send state, as a process
/// whose protocol state is gone (a rejoin) or stale (a healed partition)
/// must. Zeroing the *bank* words is what matters to the survivors.
fn reset_send_state(ctx: &mut ProcCtx, core: &mut Core, rel: &mut Reliable, flow: &mut Flow) {
    for r in 0..core.n {
        if r != core.rank {
            reset_pairwise(ctx, core, rel, r);
        }
    }
    core.reset_send_state();
    rel.reset_send_state();
    flow.reset();
}

impl Members {
    /// Initial state for a cluster of `n`: epoch 0, everyone a member,
    /// everyone graded Alive as of t = 0.
    pub fn new(membership: Membership, n: usize) -> Self {
        debug_assert!(n <= 32);
        let alive_mask = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        Members {
            quorum: membership == Membership::Quorum,
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

    /// Fail fast with the typed partition error when frozen.
    pub fn check_frozen(&self) -> Result<(), BbpError> {
        if self.frozen() {
            return Err(BbpError::Partitioned {
                epoch: self.view.epoch,
            });
        }
        Ok(())
    }

    /// A peer our view already declared dead fails a send fast instead
    /// of burning the retry budget.
    pub fn check_alive(&self, targets: &[usize]) -> Result<(), BbpError> {
        match targets
            .iter()
            .find(|&&t| self.tracks[t].health == PeerHealth::Dead)
        {
            Some(&peer) => Err(BbpError::PeerDown { peer }),
            None => Ok(()),
        }
    }

    /// One step of the engine; see [`crate::BbpEndpoint::membership_tick`].
    pub fn tick(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        flow: &mut Flow,
    ) {
        if self.quorum {
            self.reachability(ctx, core, rel, flow);
        }
        if ctx.now() >= self.next_hb_at {
            self.publish_heartbeat(ctx, core, self.quorum);
        }
        let scan = self.grade(ctx, core);
        let coordinator = self.coordinate(ctx, core, rel, &scan);
        if self.quorum {
            self.echo(ctx, core, coordinator, &scan);
        }
        self.adopt(ctx, core, rel, &scan);
    }

    /// Phase 0 (quorum): reachability first. The NIC's reachable set tells
    /// us which ring segment we sit in; losing a strict seed majority
    /// freezes us at the committed epoch, and regaining it triggers the
    /// pre-merge scrub. The scrub runs *before* this tick's heartbeat so
    /// per-source FIFO guarantees any survivor that sees our returning
    /// heartbeat already sees our zeroed flag words — the same ordering
    /// the rejoin path relies on.
    fn reachability(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        flow: &mut Flow,
    ) {
        let (n, rank) = (core.n, core.rank);
        // The segment map is read without a PIO stall, and the caller
        // (a progress engine mid-receive) may still owe software time.
        ctx.settle();
        let reach = core.io.reachable_set();
        let mut now_cut: Word = 0;
        for r in 0..n {
            if r != rank && !reach.contains(r) {
                now_cut |= 1 << r;
            }
        }
        let returned = self.cut_peers & !now_cut;
        self.cut_peers = now_cut;
        let connected = n - now_cut.count_ones() as usize;
        let cut_off = connected * 2 <= n;
        let mut scrubbed = false;
        if cut_off && !self.partitioned {
            self.partitioned = true;
            if !self.merge_pending {
                self.frozen_at = self.view.epoch;
            }
            self.proposal = None;
            core.stats.partitions_detected += 1;
            core.count(ctx, "bbp.partitions_detected", 1);
            // Grade step series: 3 = Partitioned (self).
            ctx.obs()
                .gauge(ctx.now(), rank as u32, "bbp.membership_grade", 3);
        } else if !cut_off && self.partitioned {
            // The partition around this node just healed: scrub every
            // pairwise channel and all local send state, exactly as a
            // rejoining node does.
            self.partitioned = false;
            self.merge_pending = true;
            reset_send_state(ctx, core, rel, flow);
            scrubbed = true;
            ctx.obs()
                .gauge(ctx.now(), rank as u32, "bbp.membership_grade", 0);
        }
        // Peers the ring reaches again after a cut. Two symmetric
        // obligations, both ordered before anything else this tick
        // writes (per-source FIFO then sequences them for everyone):
        //
        // * restart the pairwise channel — the far side either
        //   scrubbed its whole send state at its own heal or will be
        //   reset when a view readmits it, so our receive-side seq
        //   expectations must restart too or its fresh sequence
        //   numbers would be dropped as phantoms forever (the scrub
        //   above already reset every channel, hence the skip);
        // * re-grade the peer Alive with a fresh staleness window —
        //   its heartbeats were unreachable, not absent, and a stale
        //   Dead grade here would poison the coordinator's first
        //   post-heal proposal (the echo promise would then pin the
        //   wrong mask for that epoch). A peer that truly died
        //   behind the cut is simply re-detected from this instant.
        for r in 0..n {
            if returned & (1 << r) == 0 {
                continue;
            }
            if !scrubbed {
                reset_pairwise(ctx, core, rel, r);
            }
            if self.tracks[r].health != PeerHealth::Alive {
                ctx.obs()
                    .gauge(ctx.now(), r as u32, "bbp.membership_grade", 0);
            }
            self.tracks[r].health = PeerHealth::Alive;
            self.tracks[r].last_change = ctx.now();
        }
    }

    /// Phase 1: publish our heartbeat (the caller checks the cadence).
    /// The first publish also announces incarnation 1 (one block write
    /// keeps both words in a single packet train). With `with_view`
    /// (quorum mode) the committed view words ride along on every
    /// heartbeat: a bank cut away during a partition missed our view
    /// writes, and only a rewrite can refresh it after the heal.
    fn publish_heartbeat(&mut self, ctx: &mut ProcCtx, core: &mut Core, with_view: bool) {
        self.hb_counter = self.hb_counter.wrapping_add(1);
        let first = self.incarnation == 0;
        if first {
            self.incarnation = 1;
        }
        let block = [
            self.hb_counter,
            self.incarnation,
            self.view.epoch,
            self.view.alive_mask,
        ];
        let words = if with_view { 4 } else { 1 + usize::from(first) };
        core.io.member(ctx, 0, &block[..words]);
        self.beat_published(ctx, core);
    }

    /// Book one published heartbeat and schedule the next.
    fn beat_published(&mut self, ctx: &mut ProcCtx, core: &mut Core) {
        self.next_hb_at = ctx.now() + HEARTBEAT_PERIOD_NS;
        core.stats.heartbeats += 1;
        core.count(ctx, "bbp.heartbeats", 1);
    }

    /// Phase 2: scan every peer's member block (one PIO block read each)
    /// and grade its heartbeat staleness against our local bank. Legacy
    /// mode reads only the four words it ever wrote, keeping its PIO
    /// timing identical; quorum mode reads the proposal pair too.
    fn grade(&mut self, ctx: &mut ProcCtx, core: &mut Core) -> Scan {
        let quorum = self.quorum;
        let member_words = if quorum { MEMBER_WORDS } else { 4 };
        let mut scan = Scan {
            views: vec![None; core.n],
            props: vec![(0, 0); core.n],
        };
        for r in 0..core.n {
            if r == core.rank {
                continue;
            }
            let mut blk = [0; MEMBER_WORDS];
            core.io
                .read_block(ctx, core.layout.member_base(r), &mut blk[..member_words]);
            let (hb, inc) = (blk[0], blk[1]);
            scan.views[r] = Some((blk[2], blk[3]));
            if quorum {
                scan.props[r] = (blk[4], blk[5]);
            }
            let t = &mut self.tracks[r];
            let grade_before = t.health;
            if hb != t.hb || inc != t.incarnation {
                if t.health == PeerHealth::Dead {
                    // A dead peer announcing a fresh incarnation is
                    // rejoining: grade it Alive so the coordinator's next
                    // proposal readmits it. A bare heartbeat change while
                    // Dead (a reboot that skipped the rejoin protocol) is
                    // ignored — except in quorum mode, where a silently
                    // resuming heartbeat is the signature of a healed
                    // partition: the peer never died, it was unreachable.
                    if inc != t.incarnation || quorum {
                        t.health = PeerHealth::Alive;
                    }
                } else {
                    t.health = PeerHealth::Alive; // Suspected → Alive recovery
                }
                t.hb = hb;
                t.incarnation = inc;
                t.last_change = ctx.now();
            } else {
                let stale = ctx.now().saturating_sub(t.last_change);
                if t.health == PeerHealth::Alive && stale >= SUSPECT_AFTER_NS {
                    t.health = PeerHealth::Suspected;
                    core.stats.suspicions += 1;
                    core.count(ctx, "bbp.suspicions", 1);
                    self.hists.suspect_ns.record(stale);
                }
                if t.health == PeerHealth::Suspected && stale >= DEAD_AFTER_NS {
                    t.health = PeerHealth::Dead;
                    core.stats.deaths += 1;
                    core.count(ctx, "bbp.deaths", 1);
                    self.hists.death_ns.record(stale);
                }
            }
            // Grade transitions as a step series keyed by the graded
            // peer, valued by `PeerHealth`'s discriminant (3 = Partitioned,
            // recorded at the freeze site): a counter track in a Chrome
            // trace.
            if t.health != grade_before {
                let grade = t.health as u64;
                ctx.obs()
                    .gauge(ctx.now(), r as u32, "bbp.membership_grade", grade);
            }
        }
        scan
    }

    /// Phase 3, coordinator duty: the lowest rank we do not grade Dead. If
    /// that is us and our grading disagrees with the view we hold, propose
    /// the next epoch. In quorum mode a peer whose *published* epoch is
    /// behind ours cannot coordinate (it missed at least one commit — e.g.
    /// it just returned from a partition), and we refuse the duty
    /// ourselves whenever a live peer publishes an epoch past ours.
    /// Returns who we take the coordinator to be.
    fn coordinate(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        scan: &Scan,
    ) -> usize {
        let (n, rank, quorum) = (core.n, core.rank, self.quorum);
        let alive = |st: &Self, r: usize| st.tracks[r].health != PeerHealth::Dead;
        let behind = quorum
            && scan
                .views
                .iter()
                .enumerate()
                .any(|(r, v)| alive(self, r) && v.is_some_and(|(e, _)| e > self.view.epoch));
        let coordinator = if quorum {
            // Quorum: the live candidate publishing the *highest* view
            // epoch wins, lowest rank breaking ties. A node returning
            // from a partition (epoch behind the majority's commits)
            // must defer to — and echo — the majority's coordinator, not
            // a fellow returnee that happens to be ranked lower.
            let mut best = (self.view.epoch, rank);
            for (r, view) in scan.views.iter().enumerate() {
                let Some((e, _)) = *view else { continue };
                if alive(self, r) && (e > best.0 || (e == best.0 && r < best.1)) {
                    best = (e, r);
                }
            }
            best.1
        } else {
            (0..n)
                .find(|&r| r == rank || alive(self, r))
                .expect("we never grade ourselves dead")
        };
        if coordinator != rank || (quorum && (self.partitioned || behind)) {
            return coordinator;
        }
        let mut alive_mask: Word = 0;
        for r in 0..n {
            if r == rank || alive(self, r) {
                alive_mask |= 1 << r;
            }
        }
        // A merge (healed partition) forces a fresh commit even when
        // the mask is unchanged — the new epoch is the single point
        // the re-joined halves agree on.
        if alive_mask == self.view.alive_mask && !(quorum && self.merge_pending) {
            self.proposal = None;
            return coordinator;
        }
        let epoch = self.view.epoch + 1;
        if !quorum {
            self.apply_view(ctx, core, rel, MembershipView { epoch, alive_mask });
            return coordinator;
        }
        // Quorum: publish the proposal through our prop words
        // and commit only once a strict majority of the seed
        // has echoed it verbatim. Our own echo promise binds
        // us too: if we already acked a different mask at
        // this epoch we keep pushing that one to completion.
        let prop = match self.echoed {
            Some((e, m)) if e == epoch => (e, m),
            _ => (epoch, alive_mask),
        };
        if self.proposal != Some(prop) {
            self.proposal = Some(prop);
            self.echoed = Some(prop);
            core.io.member(ctx, PROPOSAL, &[prop.0, prop.1]);
        }
        // Our own echo counts; `props[rank]` is never filled in.
        let acks = 1 + scan.props.iter().filter(|&&p| p == prop).count();
        if acks * 2 > n {
            let (epoch, alive_mask) = prop;
            self.apply_view(ctx, core, rel, MembershipView { epoch, alive_mask });
            self.proposal = None;
        }
        coordinator
    }

    /// Phase 3b (quorum), member duty: echo the coordinator's outstanding
    /// proposal through our own prop words — the ack the commit round
    /// counts. At most one mask per proposed epoch: the promise that makes
    /// two divergent commits at one epoch impossible. A partitioned node
    /// echoes nothing.
    fn echo(&mut self, ctx: &mut ProcCtx, core: &mut Core, coordinator: usize, scan: &Scan) {
        if self.partitioned || coordinator == core.rank {
            return;
        }
        let (pe, pm) = scan.props[coordinator];
        let contains_us = pm & (1 << core.rank) != 0;
        let already_promised_other = self.echoed.is_some_and(|(e, m)| e == pe && m != pm);
        if pe > self.view.epoch
            && contains_us
            && !already_promised_other
            && self.echoed != Some((pe, pm))
        {
            self.echoed = Some((pe, pm));
            core.io.member(ctx, PROPOSAL, &[pe, pm]);
        }
    }

    /// Phase 4, adoption: a strictly newer view from a peer we do not
    /// grade Dead, still containing us, supersedes ours (highest epoch
    /// wins — epochs only increase, so everyone converges). A partitioned
    /// node adopts nothing (frozen at its last committed epoch); a
    /// merge-pending node adopts only once every member of the readmitting
    /// view has republished it — their view echoes FIFO-follow their
    /// pairwise resets toward us, so our scrubbed shadows are safe to poll
    /// the moment we unfreeze.
    fn adopt(&mut self, ctx: &mut ProcCtx, core: &mut Core, rel: &mut Reliable, scan: &Scan) {
        let (n, rank, quorum) = (core.n, core.rank, self.quorum);
        let mut best: Option<MembershipView> = None;
        for (r, view) in scan.views.iter().enumerate() {
            let Some((epoch, alive_mask)) = *view else {
                continue;
            };
            if self.tracks[r].health == PeerHealth::Dead {
                continue;
            }
            if epoch > self.view.epoch
                && alive_mask & (1 << rank) != 0
                && best.is_none_or(|b| epoch > b.epoch)
            {
                best = Some(MembershipView { epoch, alive_mask });
            }
        }
        let Some(v) = best else { return };
        if quorum && self.partitioned {
            return; // frozen: no view changes while cut off
        }
        if quorum && self.merge_pending {
            // Unfreeze only when every member of the readmitting
            // view has visibly restarted its channel toward us:
            // either it adopted and republished the view (its
            // heal-time or admitted-member reset FIFO-precedes that
            // write), or it is a fellow frozen node — still at an
            // epoch no newer than our freeze point — whose prop-word
            // echo of this very view FIFO-follows its own heal-time
            // scrub. Without the second branch two merge-pending
            // nodes would wait on each other's republish forever.
            let all_members_echo = (0..n).all(|r| {
                r == rank
                    || v.alive_mask & (1 << r) == 0
                    || scan.views[r] == Some((v.epoch, v.alive_mask))
                    || (scan.views[r].is_some_and(|(e, _)| e <= self.frozen_at)
                        && scan.props[r] == (v.epoch, v.alive_mask))
            });
            if !all_members_echo {
                return;
            }
        }
        self.apply_view(ctx, core, rel, v);
    }

    /// Install `view` (an epoch strictly past the one we hold): reset
    /// pairwise protocol state toward newly admitted members *before*
    /// publishing the epoch through our own view words — per-source FIFO
    /// replication then guarantees every peer that sees our echo also
    /// sees our zeroed flag words — then grade newly removed members
    /// Dead and engage their ring bypass, detection's effect on the
    /// hardware (the ring heals around the dead node's hop).
    fn apply_view(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        view: MembershipView,
    ) {
        debug_assert!(view.epoch > self.view.epoch);
        let (n, rank, quorum) = (core.n, core.rank, self.quorum);
        let admitted = view.alive_mask & !self.view.alive_mask;
        let removed = self.view.alive_mask & !view.alive_mask;
        for r in 0..n {
            if r != rank && admitted & (1 << r) != 0 {
                reset_pairwise(ctx, core, rel, r);
                self.tracks[r].health = PeerHealth::Alive;
                self.tracks[r].last_change = ctx.now();
            }
        }
        // Quorum merge: committing or adopting an epoch past the one we
        // froze at completes the heal — unfreeze.
        if quorum && self.merge_pending && view.epoch > self.frozen_at {
            self.merge_pending = false;
        }
        self.view = view;
        core.io.member(ctx, VIEW, &[view.epoch, view.alive_mask]);
        for r in 0..n {
            if r != rank && removed & (1 << r) != 0 {
                self.tracks[r].health = PeerHealth::Dead;
                // Quorum mode distinguishes "dead" from "unreachable": a
                // removed peer on the far side of a partition is likely
                // alive, and its insertion register must stay in the ring
                // so its own segment keeps functioning. Only a peer we
                // can still reach — i.e. one that genuinely fell silent
                // inside our segment — gets bypassed.
                if !quorum || core.io.peer_reachable(r) {
                    core.io.engage_bypass(r);
                }
            }
        }
        self.view_installed(ctx, core);
    }

    /// Book one applied view transition.
    fn view_installed(&self, ctx: &mut ProcCtx, core: &mut Core) {
        core.stats.epoch_bumps += 1;
        core.count(ctx, "bbp.epoch_bumps", 1);
    }

    /// Quorum mode: service the engine from inside a blocking wait loop,
    /// paced at the heartbeat cadence. A reliable send or receive can
    /// outlast the detector's thresholds: unserviced, our heartbeat stalls
    /// (healthy peers grade *us* dead) and our published view freezes, so
    /// once a view change commits every receiver fences our
    /// retransmissions as stale until the retry budget dies. Ticking here
    /// keeps both flowing, and the frozen check turns "quorum lost
    /// mid-wait" into the typed [`BbpError::Partitioned`]
    /// (`docs/RELIABILITY.md`, "Epoch fencing on the data plane").
    ///
    /// A no-op outside quorum mode: the legacy detector has no fence, and
    /// staying out of its wait loops keeps the pre-quorum protocol
    /// byte-identical.
    pub fn service_in_wait(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        flow: &mut Flow,
    ) -> Result<(), BbpError> {
        if self.quorum && ctx.now() >= self.next_hb_at {
            self.tick(ctx, core, rel, flow);
            self.check_frozen()?;
        }
        Ok(())
    }

    /// Quorum mode: epoch fencing. Before a single payload byte from
    /// `src` is trusted, check the *sender's* published view: one whose
    /// epoch is behind ours, or that claims our epoch with a divergent
    /// mask, is held back unacked. A sender ahead of us is accepted (we
    /// are the laggard), as is a zero mask (no view published yet).
    /// Returns `true` when the message must be held (after pacing
    /// `hold_ns`) for the caller to re-queue rather than drop: a sender
    /// merely adopting late re-aligns within a tick; a partitioned one's
    /// pending entry dies with the pairwise reset when the view removing
    /// it commits.
    pub fn fence(&self, ctx: &mut ProcCtx, core: &mut Core, src: usize, hold_ns: Time) -> bool {
        if !self.quorum {
            return false;
        }
        let theirs = read_view(ctx, core, src);
        let stale = theirs.epoch < self.view.epoch;
        let divergent = theirs.epoch == self.view.epoch
            && theirs.alive_mask != 0
            && theirs.alive_mask != self.view.alive_mask;
        if !(stale || divergent) {
            return false;
        }
        core.stats.stale_epoch_rejects += 1;
        core.count(ctx, "bbp.stale_epoch_rejects", 1);
        ctx.advance(hold_ns);
        true
    }

    /// Rejoin the cluster; see [`crate::BbpEndpoint::rejoin`].
    pub fn rejoin(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        rel: &mut Reliable,
        flow: &mut Flow,
        wait_ns: Time,
    ) -> Result<MembershipView, BbpError> {
        let (n, rank) = (core.n, core.rank);
        core.io.reinsert_self();
        reset_send_state(ctx, core, rel, flow);
        // Announce the rejoin: a new incarnation, written after the
        // zeroed flag words so per-source FIFO shows every survivor a
        // clean channel before the announcement that makes it look.
        let prev_inc = core
            .io
            .read_word(ctx, core.layout.member_base(rank) + INCARNATION);
        self.hb_counter = 1;
        self.incarnation = prev_inc.wrapping_add(1).max(1);
        self.view = MembershipView {
            epoch: 0,
            alive_mask: 0,
        };
        self.partitioned = false;
        self.merge_pending = false;
        self.frozen_at = 0;
        self.proposal = None;
        self.echoed = None;
        // In quorum mode also zero the proposal pair: an echo left by our
        // previous incarnation must never be counted toward a fresh
        // commit.
        let block = [self.hb_counter, self.incarnation, 0, 0, 0, 0];
        let member_words = if self.quorum { MEMBER_WORDS } else { 4 };
        core.io.member(ctx, 0, &block[..member_words]);
        self.beat_published(ctx, core);
        // Wait for readmission: a view containing us, echoed identically
        // by every *other* member it names (their echoes FIFO-follow
        // their pairwise resets toward us, so traffic can start the
        // moment we adopt).
        let deadline = ctx.now().saturating_add(wait_ns);
        loop {
            let mut candidate: Option<MembershipView> = None;
            for r in (0..n).filter(|&r| r != rank) {
                let v = read_view(ctx, core, r);
                if v.is_alive(rank) && v.epoch > 0 && candidate.is_none_or(|c| v.epoch > c.epoch) {
                    candidate = Some(v);
                }
            }
            if let Some(v) = candidate {
                let echoed_by_all = (0..n)
                    .filter(|&r| r != rank && v.alive_mask & (1 << r) != 0)
                    .all(|r| read_view(ctx, core, r) == v);
                if echoed_by_all {
                    self.view = v;
                    core.io.member(ctx, VIEW, &[v.epoch, v.alive_mask]);
                    for r in (0..n).filter(|&r| r != rank) {
                        self.tracks[r].health = if v.is_alive(r) {
                            PeerHealth::Alive
                        } else {
                            PeerHealth::Dead
                        };
                        self.tracks[r].last_change = ctx.now();
                    }
                    self.view_installed(ctx, core);
                    return Ok(v);
                }
            }
            if ctx.now() >= deadline {
                let peer = (0..n).find(|&r| r != rank).unwrap_or(0);
                return Err(BbpError::Timeout { peer, attempts: 0 });
            }
            // Keep heartbeating so the survivors' detectors see us.
            if ctx.now() >= self.next_hb_at {
                self.publish_heartbeat(ctx, core, false);
            }
            ctx.advance(HEARTBEAT_PERIOD_NS / 2 + 1);
        }
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
    }

    #[test]
    fn initial_state_has_everyone_alive_at_epoch_zero() {
        let st = Members::new(Membership::Detector, 4);
        assert_eq!(st.view.epoch, 0);
        assert_eq!(st.view.alive_mask, 0b1111);
        assert_eq!(st.incarnation, 0, "incarnation published on first tick");
        assert!(st.tracks.iter().all(|t| t.health == PeerHealth::Alive));
        let full = Members::new(Membership::Detector, 32);
        assert_eq!(full.view.alive_mask, u32::MAX);
    }
}
