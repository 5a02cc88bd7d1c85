//! The public endpoint: [`BbpEndpoint`] composes the protocol's layers —
//! [`Core`] (the paper's five calls), [`Reliable`], [`Members`] and
//! [`Flow`] — and every public call below is a short, ordered sequence of
//! layer calls. The order *is* the protocol: it fixes the sequence of
//! software charges, PIO accesses and `obs` records the goldens pin, so it
//! is spelled out here, in one place, rather than inside any layer.

use std::sync::Arc;

use des::obs::{Layer, Stage};
use des::{ProcCtx, RoundGuard, Time};

use crate::config::{BbpConfig, SEND_ENTRY_NS};
use crate::core::{Core, Doorbell, PendingMsg, Slept, Wait};
use crate::error::BbpError;
use crate::flow::Flow;
use crate::layout::Writer;
use crate::membership::{DetectionHists, Members, MembershipView, PeerHealth};
use crate::reliable::Reliable;

/// Running counters for one endpoint (diagnostics and the ablation
/// benches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Completed point-to-point sends.
    pub sends: u64,
    /// Completed multicasts.
    pub mcasts: u64,
    /// Messages delivered to the application.
    pub recvs: u64,
    /// Payload bytes delivered.
    pub bytes_recved: u64,
    /// Flag-word poll reads performed.
    pub polls: u64,
    /// Garbage-collection sweeps.
    pub gc_sweeps: u64,
    /// Times a send had to stall for buffer space or descriptor slots.
    pub send_stalls: u64,
    /// Reliable mode: retransmissions performed by the send side.
    pub retries: u64,
    /// Reliable mode: sends that exhausted their retry budget.
    pub send_failures: u64,
    /// Reliable mode: messages that failed CRC verification on arrival
    /// (each detection triggers a NACK and a bounded re-read).
    pub corrupt_detected: u64,
    /// Reliable mode: messages dropped after exhausting verification
    /// retries without ever passing the CRC.
    pub corrupt_dropped: u64,
    /// Reliable mode: NACK toggles written back to senders.
    pub nacks_sent: u64,
    /// Reliable mode: duplicate or phantom messages rejected by the
    /// sequence check.
    pub dup_drops: u64,
    /// Reliable mode: the subset of `dup_drops` that were *not* the
    /// immediate predecessor of the expected sequence — i.e. phantom
    /// flag toggles resurrecting a stale descriptor rather than benign
    /// duplicate deliveries.
    pub phantom_rejects: u64,
    /// Reliable mode: blocking receives that returned a typed error.
    pub recv_timeouts: u64,
    /// Reliable mode: buffers of retry-exhausted sends whose data space
    /// was eagerly rolled back, once their quarantined descriptor slot
    /// was also resolved and freed (see `docs/RELIABILITY.md`).
    pub failed_slot_reclaims: u64,
    /// Membership: heartbeat words published.
    pub heartbeats: u64,
    /// Membership: peers graded Suspected.
    pub suspicions: u64,
    /// Membership: peers graded Dead.
    pub deaths: u64,
    /// Membership: views this endpoint proposed or adopted (epoch
    /// transitions observed locally).
    pub epoch_bumps: u64,
    /// Credit flow control: times a send stalled waiting for a credit to
    /// return on the ACK side channel.
    pub credit_stalls: u64,
    /// Credit flow control (fail-fast): sends rejected with
    /// [`crate::BbpError::NoCredit`].
    pub no_credit_failures: u64,
    /// Credit flow control: credits eagerly returned when a
    /// retry-exhausted send slot was reclaimed — a dead peer must not
    /// strand a channel's grant (see `docs/RPC.md`).
    pub credits_reclaimed: u64,
    /// Doorbell coalescing: MESSAGE flag-word writes saved by batching
    /// deferred posts behind one doorbell per receiver.
    pub flag_writes_coalesced: u64,
    /// Quorum mode: transitions into the partitioned (frozen) state —
    /// this node's ring segment stopped reaching a strict majority of
    /// the seed membership.
    pub partitions_detected: u64,
    /// Quorum mode: deliveries rejected by epoch fencing — the sender's
    /// published view was stale (behind ours) or divergent (our epoch,
    /// a different mask).
    pub stale_epoch_rejects: u64,
}

/// The BillBoard Protocol endpoint for one process.
///
/// Owned by (moved into) the simulated process; all methods take the
/// process's [`ProcCtx`] so every shared-memory access is charged its
/// PIO cost at the right virtual time.
///
/// One public, non-generic type over four layers. With all three
/// extensions off ([`BbpConfig::for_nodes`]) `reliable` and `members` are
/// `None` and `flow` is empty, and every call below is the paper's
/// protocol: the `core` steps in order, nothing in between.
pub struct BbpEndpoint {
    config: BbpConfig,
    core: Core,
    reliable: Option<Reliable>,
    members: Option<Members>,
    flow: Flow,
}

/// One garbage-collection sweep over every layer's slots: the core's
/// in-flight queue (each freed slot's credits go back to `flow`), then
/// `reliable`'s quarantined slots inside the same span, then the ledger
/// gauge behind the core's residency gauge.
fn collect(
    core: &mut Core,
    reliable: &mut Option<Reliable>,
    flow: &mut Flow,
    ctx: &mut ProcCtx,
) -> usize {
    let freed = core.gc(
        ctx,
        |core, ctx| {
            reliable
                .as_mut()
                .map_or(0, |rel| rel.sweep_quarantined(core, ctx))
        },
        |targets| flow.refund(targets),
    );
    if freed > 0 {
        flow.gauge_balance(ctx, core.rank);
    }
    freed
}

impl BbpEndpoint {
    pub(crate) fn new(io: Writer, config: BbpConfig) -> Self {
        let n = config.nprocs;
        BbpEndpoint {
            core: Core::new(io, &config),
            reliable: config.reliability.clone().map(|cfg| Reliable::new(cfg, n)),
            members: config.membership().map(|m| Members::new(m, n)),
            flow: Flow::new(&config),
            config,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.core.rank
    }

    /// Number of participating processes.
    pub fn nprocs(&self) -> usize {
        self.core.n
    }

    /// Counters so far.
    pub fn stats(&self) -> &EndpointStats {
        &self.core.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &BbpConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Send side
    // ------------------------------------------------------------------

    /// `bbp_Send`: post `payload` for `dst`. Blocks (in virtual time) only
    /// when buffer space or descriptor slots are exhausted and garbage
    /// collection has to wait for acknowledgements.
    ///
    /// In reliable mode the call additionally blocks until `dst`
    /// acknowledges, retransmitting with exponential backoff, and fails
    /// with a typed error ([`BbpError::Timeout`], [`BbpError::PeerDown`],
    /// [`BbpError::Corrupt`]) once the retry budget is exhausted — never
    /// later than [`crate::ReliabilityConfig::max_send_wait_ns`] plus the
    /// per-attempt transmission costs.
    pub fn send(&mut self, ctx: &mut ProcCtx, dst: usize, payload: &[u8]) -> Result<(), BbpError> {
        self.traced_post(ctx, "send", payload.len(), |ep, ctx| {
            let slot = ep.post(ctx, &[dst], payload, Doorbell::Now)?;
            ep.confirm(ctx, slot, &[dst], payload)
        })?;
        self.core.stats.sends += 1;
        Ok(())
    }

    /// `bbp_Mcast`: post `payload` once and flag every rank in `targets`.
    /// Each extra receiver costs one extra flag-word write — the
    /// single-step multicast the paper builds `MPI_Bcast` on. A target
    /// named twice is a [`BbpError::BadDestination`].
    pub fn mcast(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
    ) -> Result<(), BbpError> {
        if targets.is_empty() {
            return Err(BbpError::NoTargets);
        }
        self.traced_post(ctx, "mcast", payload.len(), |ep, ctx| {
            let slot = ep.post(ctx, targets, payload, Doorbell::Now)?;
            ep.confirm(ctx, slot, targets, payload)
        })?;
        self.core.stats.mcasts += 1;
        Ok(())
    }

    /// Post `payload` for `dst` with the doorbell deferred: the payload
    /// and descriptor replicate now, but the MESSAGE flag toggle only
    /// accumulates in our local copy until [`BbpEndpoint::ring_doorbell`]
    /// (or any immediate post to the same receiver) writes the flag
    /// word. Repeated deferred posts to one receiver thus cost a single
    /// flag-word write — the batched-send coalescing the RPC reply path
    /// uses.
    ///
    /// Fire-and-forget only: panics with the reliability extension on
    /// (per-send confirmation needs the flag written immediately). A
    /// deferred post the caller never flushes is invisible to the
    /// receiver and can never be acknowledged — always ring the doorbell
    /// before blocking on buffer space or credits.
    pub fn post_deferred(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        payload: &[u8],
    ) -> Result<(), BbpError> {
        self.flow.assert_deferrable();
        self.traced_post(ctx, "send", payload.len(), |ep, ctx| {
            ep.post(ctx, &[dst], payload, Doorbell::Deferred)
                .map(|_slot| ())
        })?;
        self.core.stats.sends += 1;
        Ok(())
    }

    /// What `send`, `mcast` and `post_deferred` share around their post:
    /// the trace-id protocol, the call's span, the settled return and the
    /// failure count. When no upper layer (the MPI binding) already
    /// published a trace id for this rank, this call is the message's
    /// entry into the stack: it mints an id, publishes it for the layers
    /// below, and clears it on the way out.
    fn traced_post(
        &mut self,
        ctx: &mut ProcCtx,
        span: &'static str,
        payload_len: usize,
        post: impl FnOnce(&mut Self, &mut ProcCtx) -> Result<(), BbpError>,
    ) -> Result<(), BbpError> {
        let (rec, rank) = (ctx.obs(), self.core.rank as u32);
        let owned = rec.current_trace(rank) == 0;
        if owned {
            let id = rec.mint_trace_id(rank);
            rec.set_current_trace(rank, id);
            rec.lifecycle(ctx.now(), rank, id, Stage::SendEnter, payload_len as u64);
        }
        let posted = ctx.span(rank, Layer::Bbp, span, |ctx| {
            let posted = post(self, ctx);
            // A post refused before its first PIO still owes its entry
            // cost; every public call returns settled.
            ctx.settle();
            posted
        });
        let rec = ctx.obs();
        let id = rec.current_trace(rank);
        if owned {
            rec.set_current_trace(rank, 0);
        }
        if let Err(err) = &posted {
            self.core.stats.send_failures += 1;
            // A fail-fast `NoCredit` is flow control working as designed
            // (an overloaded RPC client sheds on it hundreds of times per
            // run), not a fault: nothing to hold a postmortem over.
            if matches!(err, BbpError::NoCredit { .. }) {
                rec.lifecycle(ctx.now(), rank, id, Stage::Error, 0);
            } else {
                rec.postmortem(ctx.now(), rank, id, 0, &format!("bbp_send_error_n{rank}"));
            }
        }
        posted
    }

    /// A post, layer by layer. Nothing is debited or written before every
    /// check has passed; a frozen node (quorum mode) must not inject
    /// descriptor or flag traffic stamped with its stale epoch.
    fn post(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
        doorbell: Doorbell,
    ) -> Result<usize, BbpError> {
        ctx.charge(SEND_ENTRY_NS);
        self.check_frozen()?;
        self.core.check_targets(targets)?;
        if let Some(m) = &self.members {
            m.check_alive(targets)?;
        }
        self.core.check_size(payload.len())?;
        // Each stall below is bounded from its own start.
        let deadline = self.reliable.as_ref().map(|rel| rel.send_deadline(ctx));
        self.flow
            .acquire(ctx, &mut self.core, targets, deadline, |core, flow, ctx| {
                collect(core, &mut self.reliable, flow, ctx)
            })?;
        let deadline = self.reliable.as_ref().map(|rel| rel.send_deadline(ctx));
        let staged = self
            .core
            .stage(ctx, targets, payload, deadline, |core, ctx| {
                collect(core, &mut self.reliable, &mut self.flow, ctx)
            });
        if staged.is_err() {
            // Nothing was posted: the debited credits go straight back.
            self.flow.refund(targets);
        }
        let slot = staged?;
        self.flow.gauge_balance(ctx, self.core.rank);
        let crc = self
            .reliable
            .as_ref()
            .map(|rel| rel.seal(ctx, &self.core, slot));
        self.core.publish(ctx, slot, crc);
        self.core.flag(ctx, slot, targets, doorbell);
        self.flow.note_flags(targets, doorbell);
        Ok(slot)
    }

    /// Reliable mode: block until every target acknowledges `slot`,
    /// servicing the membership engine from inside the wait (a freeze
    /// mid-wait aborts the send typed). A failed send's slot is reclaimed
    /// and its credits come back at once. A no-op without the reliability
    /// extension (the paper's fire-and-forget send).
    fn confirm(
        &mut self,
        ctx: &mut ProcCtx,
        slot: usize,
        targets: &[usize],
        payload: &[u8],
    ) -> Result<(), BbpError> {
        let Some(rel) = &mut self.reliable else {
            return Ok(());
        };
        let (core, members, flow) = (&mut self.core, &mut self.members, &mut self.flow);
        let confirmed = rel.confirm(ctx, core, slot, targets, payload, |core, rel, ctx| {
            members
                .as_mut()
                .map_or(Ok(()), |m| m.service_in_wait(ctx, core, rel, flow))
        });
        if confirmed.is_err() {
            flow.reclaim(core, slot);
        }
        confirmed
    }

    /// Write `dst`'s accumulated MESSAGE flag toggles in one doorbell.
    /// Returns how many deferred posts the write covered (0 = nothing
    /// pending, no PIO issued).
    pub fn ring_doorbell(&mut self, ctx: &mut ProcCtx, dst: usize) -> usize {
        self.flow.ring_doorbell(ctx, &mut self.core, dst)
    }

    /// Ring every receiver's doorbell that has deferred posts pending.
    /// Returns the total number of posts flushed.
    pub fn ring_all_doorbells(&mut self, ctx: &mut ProcCtx) -> usize {
        (0..self.core.n)
            .map(|dst| self.ring_doorbell(ctx, dst))
            .sum()
    }

    /// Send credits currently available toward `peer`, or `None` when
    /// the credit extension is off.
    pub fn send_credits(&self, peer: usize) -> Option<u32> {
        assert!(peer < self.core.n, "rank {peer} out of range");
        self.flow.credits(peer)
    }

    /// True once every message this endpoint ever posted has been
    /// acknowledged by all of its receivers (drains with a GC sweep).
    pub fn all_acked(&mut self, ctx: &mut ProcCtx) -> bool {
        collect(&mut self.core, &mut self.reliable, &mut self.flow, ctx);
        ctx.settle(); // a sweep with nothing in flight reads nothing
        self.core.inflight.is_empty()
    }

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /// `bbp_Recv`: blocking receive of the next message from `src`
    /// (per-sender FIFO order).
    ///
    /// Without the reliability extension this never fails (the paper's
    /// semantics; the `Result` is always `Ok`). In reliable mode the wait
    /// is bounded by [`crate::ReliabilityConfig::recv_timeout_ns`] and
    /// every delivered payload has passed CRC and sequence verification;
    /// a message that kept failing its checksum surfaces as
    /// [`BbpError::Corrupt`], an empty wait as [`BbpError::Timeout`].
    pub fn recv(&mut self, ctx: &mut ProcCtx, src: usize) -> Result<Vec<u8>, BbpError> {
        self.assert_source(src);
        let (_, len) = self.recv_blocking(ctx, Some(src))?;
        Ok(self.core.delivered(len))
    }

    /// Blocking receive from any sender, round-robin fair across sources.
    /// Fails only in reliable mode, under the same bounds as
    /// [`BbpEndpoint::recv`] (a timeout reports the lowest-ranked
    /// candidate source as the peer).
    pub fn recv_any(&mut self, ctx: &mut ProcCtx) -> Result<(usize, Vec<u8>), BbpError> {
        let (src, len) = self.recv_blocking(ctx, None)?;
        Ok((src, self.core.delivered(len)))
    }

    fn assert_source(&self, src: usize) {
        assert!(
            src < self.core.n && src != self.core.rank,
            "bad source rank {src}"
        );
    }

    /// The one blocking receive loop, from `only` or from anyone: consume
    /// what is pending, else poll and (with nothing detected) wait; after
    /// every round, service the membership engine and check the typed
    /// ways out — frozen, a corrupt message dropped, the deadline.
    /// Returns the source and the length of the message [`Core::deliver`]
    /// left in place.
    fn recv_blocking(
        &mut self,
        ctx: &mut ProcCtx,
        only: Option<usize>,
    ) -> Result<(usize, usize), BbpError> {
        self.check_frozen()?;
        let rank = self.core.rank;
        let result = ctx.span(rank as u32, Layer::Bbp, "recv", |ctx| {
            let deadline = self
                .reliable
                .as_ref()
                .map(|rel| ctx.now().saturating_add(rel.cfg.recv_timeout_ns));
            let drops0 = self.core.stats.corrupt_dropped;
            loop {
                let ready = self
                    .core
                    .sources(only)
                    .find(|&s| self.core.has_pending(Some(s)));
                if let Some(s) = ready {
                    let msg = self.core.pop_pending(s).expect("just seen pending");
                    if let Some(len) = self.consume(ctx, s, msg) {
                        if only.is_none() {
                            self.core.served(s);
                        }
                        break Ok((s, len));
                    }
                    // Rejected: re-check the ways out before the next source.
                } else {
                    self.poll(ctx, only);
                    if !self.core.has_pending(only) {
                        self.core.pace(ctx, Wait::ForTraffic, deadline.is_some());
                    }
                }
                let failure = if let Err(e) = self.service_in_wait(ctx) {
                    e
                } else if self.core.stats.corrupt_dropped > drops0 {
                    let dropped = self.reliable.as_ref().and_then(|rel| rel.last_drop_src);
                    BbpError::Corrupt {
                        peer: dropped.expect("a drop records its source"),
                    }
                } else if deadline.is_some_and(|d| ctx.now() >= d) {
                    // From anyone: report the lowest-ranked candidate source.
                    let peer = only.unwrap_or(usize::from(rank == 0));
                    BbpError::Timeout { peer, attempts: 0 }
                } else {
                    continue;
                };
                self.core.stats.recv_timeouts += 1;
                break Err(failure);
            }
        });
        if result.is_err() {
            // Keep the events leading up to the timeout/corruption for the
            // postmortem.
            let label = format!("bbp_recv_error_n{rank}");
            ctx.obs().postmortem(ctx.now(), rank as u32, 0, 0, &label);
        }
        result
    }

    /// `bbp_MsgAvail`: one poll sweep; true if any message is deliverable.
    pub fn msg_avail(&mut self, ctx: &mut ProcCtx) -> bool {
        self.poll(ctx, None);
        self.core.has_pending(None)
    }

    /// Non-blocking receive from `src`: one poll sweep, then the next
    /// pending message if any. In reliable mode a message that fails
    /// verification is NACKed and re-queued (or dropped once its retries
    /// are spent) and the call reports "nothing deliverable".
    pub fn try_recv(&mut self, ctx: &mut ProcCtx, src: usize) -> Option<Vec<u8>> {
        self.assert_source(src);
        let (_, len) = self.try_take(ctx, Some(src))?;
        Some(self.core.delivered(len))
    }

    /// Non-blocking receive from any source (one sweep).
    pub fn try_recv_any(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        let (src, len) = self.try_take(ctx, None)?;
        Some((src, self.core.delivered(len)))
    }

    /// [`BbpEndpoint::try_recv_any`] straight into `buf`, with no `Vec` in
    /// between. Returns the source rank and the message's length, which
    /// the caller reads before it trusts `buf`: a message longer than
    /// `buf` is consumed all the same (acknowledged and counted, so its
    /// sender's slot comes back) but nothing of it is copied.
    pub fn try_recv_any_into(
        &mut self,
        ctx: &mut ProcCtx,
        buf: &mut [u8],
    ) -> Option<(usize, usize)> {
        let (src, len) = self.try_take(ctx, None)?;
        if let Some(dst) = buf.get_mut(..len) {
            self.core.copy_delivered(dst);
        }
        Some((src, len))
    }

    /// One sweep if nothing is pending, then the first deliverable message
    /// from `only`, or from anyone in round-robin order: its source and
    /// the length of what [`Core::deliver`] left in place.
    fn try_take(&mut self, ctx: &mut ProcCtx, only: Option<usize>) -> Option<(usize, usize)> {
        if !self.core.has_pending(only) {
            self.poll(ctx, only);
        }
        for s in self.core.sources(only) {
            if let Some(msg) = self.core.pop_pending(s) {
                if let Some(len) = self.consume(ctx, s, msg) {
                    if only.is_none() {
                        self.core.served(s);
                    }
                    return Some((s, len));
                }
            }
        }
        None
    }

    /// Park until new traffic may have arrived. In interrupt mode this
    /// blocks on the NIC's MESSAGE flag-block watch — on the ticket the
    /// last poll sweep took, so a flag written since that sweep began
    /// ends it — and returns `true`. Progress engines layered above the
    /// BBP use this so the paper's interrupt extension benefits them too.
    /// In polling mode there is nothing to park on: it returns `false` at
    /// once, and the caller either paces its own polling or, if polling
    /// is all it would do, asks for [`BbpEndpoint::sleep_until_flagged`].
    pub fn wait_for_traffic(&mut self, ctx: &mut ProcCtx) -> bool {
        self.core.wait_for_traffic(ctx)
    }

    /// For a caller whose loop would be "[`BbpEndpoint::try_recv_any`];
    /// nothing; check `guard`; `lead` ns of my own time; again": poll every
    /// peer's MESSAGE flag word, `lead` ns before each sweep, until one has
    /// changed, and finish that sweep — so the caller's next `try_recv_any`
    /// delivers ([`Slept::Flagged`]) — or until `guard` holds at the end of
    /// a sweep that found nothing ([`Slept::Guarded`], with the clock
    /// there: the caller leaves its loop as its check would have). In
    /// virtual time, in the schedule, in [`EndpointStats::polls`] and in
    /// the event log it is that loop; on the host the calling process
    /// sleeps in the dispatch loop until the word changes or the guard
    /// holds, instead of being woken after every idle sweep.
    ///
    /// Offered only where nothing else would run between two sweeps, which
    /// is a property of the endpoint and the world's size: polling mode,
    /// no reliability or membership engine to service, no detected message
    /// waiting, and at most [`ProcCtx::CYCLE_LOOKS`] peers. Otherwise it
    /// returns `None` having done nothing, and the caller paces itself.
    pub fn sleep_until_flagged(
        &mut self,
        ctx: &mut ProcCtx,
        lead: Time,
        guard: Option<&RoundGuard>,
    ) -> Option<Slept> {
        let engines = self.reliable.is_some() || self.members.is_some();
        if engines {
            return None;
        }
        self.core.sleep_until_flagged(ctx, lead, guard)
    }

    /// Receive from `src` with a virtual-time deadline: returns `None`
    /// if no message is deliverable by `deadline` (the real-time pattern
    /// SCRAMNet applications use for frame loops).
    pub fn recv_deadline(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        deadline: Time,
    ) -> Option<Vec<u8>> {
        self.assert_source(src);
        loop {
            if let Some(msg) = self.core.pop_pending(src) {
                if let Some(len) = self.consume(ctx, src, msg) {
                    return Some(self.core.delivered(len));
                }
            }
            if ctx.now() >= deadline {
                return None;
            }
            // Keep the heartbeat flowing across a long frame wait; a
            // freeze mid-wait simply means nothing becomes deliverable
            // and the deadline fires (this API has no error channel).
            let _ = self.service_in_wait(ctx);
            if let Some(m) = self.members.as_ref().filter(|m| m.frozen()) {
                // A frozen node polls nothing, so nothing below would
                // move the clock: sleep to the deadline or to the next
                // heartbeat (where the service above ticks and a heal can
                // unfreeze us), whichever comes first.
                ctx.wait_until(deadline.min(m.next_hb_at));
                continue;
            }
            if !self.core.has_pending(Some(src)) {
                self.poll(ctx, Some(src));
            }
            if !self.core.has_pending(Some(src)) {
                // Bounded wait: fall back to a poll tick so the deadline
                // can fire even with no traffic at all.
                self.core.pace(ctx, Wait::ForTraffic, true);
            }
        }
    }

    /// Blocking receive from `src` straight into a caller-provided
    /// buffer, with no `Vec` in between. Returns the message length;
    /// panics if `buf` is too small — size it with
    /// [`crate::BbpConfig::max_payload_bytes`].
    pub fn recv_into(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        buf: &mut [u8],
    ) -> Result<usize, BbpError> {
        self.assert_source(src);
        let (_, len) = self.recv_blocking(ctx, Some(src))?;
        assert!(
            buf.len() >= len,
            "recv_into buffer of {} bytes cannot hold a {len}-byte message",
            buf.len()
        );
        self.core.copy_delivered(&mut buf[..len]);
        Ok(len)
    }

    /// One poll sweep of `only`'s flag word, or of everyone's.
    ///
    /// Quorum mode: a frozen node's shadows were scrubbed while the far
    /// side's words are still stale — polling before readmission would
    /// manufacture phantom detections. The data plane is frozen in both
    /// directions.
    fn poll(&mut self, ctx: &mut ProcCtx, only: Option<usize>) {
        if !self.is_partitioned() {
            self.core.poll(ctx, only);
        }
    }

    /// Deliver a detected message to the application. Without the
    /// reliability extension this is unconditional ([`Core::deliver`], the
    /// paper's protocol); with it, the message must first pass the epoch
    /// fence (quorum mode) and [`Reliable::verify_and_deliver`]. Returns
    /// the delivered length, or `None` when the message was held back,
    /// re-queued or dropped.
    fn consume(&mut self, ctx: &mut ProcCtx, src: usize, msg: PendingMsg) -> Option<usize> {
        let Some(rel) = &mut self.reliable else {
            return Some(self.core.deliver(ctx, src, &msg, false));
        };
        if let Some(m) = &self.members {
            if m.fence(ctx, &mut self.core, src, rel.cfg.ack_timeout_ns) {
                self.core.requeue(src, msg);
                return None;
            }
        }
        rel.verify_and_deliver(ctx, &mut self.core, src, msg)
    }

    // ------------------------------------------------------------------
    // Membership and failure detection
    // ------------------------------------------------------------------

    /// The membership engine with everything its steps touch, or `None`
    /// when the extension is off (it requires reliability, so the two
    /// come and go together).
    fn engine(&mut self) -> Option<(&mut Members, &mut Core, &mut Reliable, &mut Flow)> {
        Some((
            self.members.as_mut()?,
            &mut self.core,
            self.reliable.as_mut()?,
            &mut self.flow,
        ))
    }

    /// The membership view this endpoint currently holds, or `None` when
    /// the membership extension is off.
    pub fn membership_view(&self) -> Option<MembershipView> {
        self.members.as_ref().map(|m| m.view)
    }

    /// This endpoint's local grade for `peer` (`None` when the
    /// membership extension is off).
    pub fn peer_health(&self, peer: usize) -> Option<PeerHealth> {
        assert!(peer < self.core.n, "rank {peer} out of range");
        self.members.as_ref().map(|m| m.tracks[peer].health)
    }

    /// The always-on detection-latency histograms (`None` when the
    /// membership extension is off). The returned handle is shared:
    /// clone it out before moving the endpoint into its simulated
    /// process and it keeps reading the live distributions.
    pub fn detection_latency(&self) -> Option<Arc<DetectionHists>> {
        self.members.as_ref().map(|m| Arc::clone(&m.hists))
    }

    /// Quorum mode: is this endpoint frozen (its segment cut from the
    /// seed majority, or healed but not yet readmitted into a committed
    /// view)? Always `false` with membership off or quorum off.
    pub fn is_partitioned(&self) -> bool {
        self.members.as_ref().is_some_and(Members::frozen)
    }

    /// Quorum mode: the committed epoch this endpoint froze at, while it
    /// is frozen. `None` whenever the endpoint is operational (including
    /// always with membership off or quorum off).
    pub fn frozen_epoch(&self) -> Option<u32> {
        self.members
            .as_ref()
            .filter(|m| m.frozen())
            .map(|m| m.view.epoch)
    }

    /// Fail fast with the typed partition error when frozen.
    fn check_frozen(&self) -> Result<(), BbpError> {
        self.members.as_ref().map_or(Ok(()), Members::check_frozen)
    }

    /// Quorum mode: keep the membership engine alive from inside a
    /// blocking wait ([`Members::service_in_wait`]).
    fn service_in_wait(&mut self, ctx: &mut ProcCtx) -> Result<(), BbpError> {
        match self.engine() {
            Some((m, core, rel, flow)) => m.service_in_wait(ctx, core, rel, flow),
            None => Ok(()),
        }
    }

    /// One step of the membership engine: publish our heartbeat on
    /// cadence, grade every peer's staleness, propose a new view if we
    /// are the coordinator and our grading disagrees with the view we
    /// hold, and adopt any strictly newer view that still contains us.
    ///
    /// Call this from the application's progress loop (the `smpi` device
    /// folds it into its receive path). With the extension off this is a
    /// **complete no-op** — it touches neither virtual time nor the
    /// trace, preserving the paper-mode golden traces bit-for-bit.
    pub fn membership_tick(&mut self, ctx: &mut ProcCtx) {
        if let Some((m, core, rel, flow)) = self.engine() {
            m.tick(ctx, core, rel, flow);
        }
    }

    /// Rejoin the cluster after this node was declared dead.
    ///
    /// Call on a **fresh endpoint** for the same rank — the crashed
    /// process's protocol state is gone, and endpoint construction does no
    /// PIO, so the replacement can be minted before the node even fails.
    /// The sequence leans entirely on SCRAMNet's per-source FIFO
    /// replication:
    ///
    /// 1. reinsert our NIC into the ring (undoing the bypass the
    ///    detector engaged),
    /// 2. zero every word we own in every peer's flag blocks — survivors
    ///    see these *before* anything we write later,
    /// 3. publish a fresh member block: heartbeat 1, an incarnation past
    ///    whatever our bank last saw (the rejoin announcement), view
    ///    epoch/mask 0 (we hold no view until readmitted),
    /// 4. keep heartbeating while waiting for every member of a view
    ///    that contains us to publish the same `{epoch, alive_mask}`,
    ///    then adopt and republish it.
    ///
    /// Returns the adopted view, or [`BbpError::Timeout`] if no
    /// readmission converged within `wait_ns`.
    pub fn rejoin(
        &mut self,
        ctx: &mut ProcCtx,
        wait_ns: des::Time,
    ) -> Result<MembershipView, BbpError> {
        let (m, core, rel, flow) = self
            .engine()
            .expect("rejoin requires the membership extension");
        m.rejoin(ctx, core, rel, flow, wait_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's endpoint is the core alone: none of the optional
    /// layers is built unless its configuration asks for it.
    #[test]
    fn paper_endpoints_carry_no_extension_state() {
        let sim = des::Simulation::new();
        let build = |config: BbpConfig| {
            let layout = crate::Layout::new(&config);
            let ring = scramnet::Ring::new(
                &sim.handle(),
                config.nprocs,
                layout.total_words(),
                scramnet::CostModel::default(),
            );
            BbpEndpoint::new(Writer::new(ring.nic(0), layout), config)
        };
        let paper = build(BbpConfig::for_nodes(4));
        assert!(paper.reliable.is_none() && paper.members.is_none() && paper.flow.is_empty());
        let full = build(BbpConfig {
            credit: Some(crate::CreditConfig::default()),
            ..BbpConfig::quorum_for_nodes(4)
        });
        assert!(full.reliable.is_some() && full.members.is_some() && !full.flow.is_empty());
    }
}
