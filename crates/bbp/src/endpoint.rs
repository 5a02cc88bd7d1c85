//! The per-process protocol engine: send/receive/multicast state machines,
//! the circular buffer allocator, and garbage collection of acknowledged
//! buffers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use des::obs::{Layer, Stage};
use des::{ProcCtx, Signal};
use scramnet::{Nic, Word};

use crate::config::{BbpConfig, GcPolicy, MembershipConfig, RecvMode, ReliabilityConfig};
use crate::error::BbpError;
use crate::layout::Layout;
use crate::membership::{DetectionHists, MembershipState, MembershipView, PeerHealth};

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

/// One message buffer slot's sender-side state.
#[derive(Debug, Clone, Default)]
struct SlotState {
    busy: bool,
    /// Word offset of the payload inside our data partition.
    data_off: usize,
    /// Payload length in words.
    words: usize,
    /// Payload length in bytes (the descriptor's length field).
    len_bytes: usize,
    /// The sequence number this slot's descriptor carries (needed to
    /// rebuild the descriptor verbatim on a retransmission).
    seq: Word,
    /// Receivers that must acknowledge before reuse.
    targets: Vec<usize>,
    /// The send exhausted its retries and its data space was rolled
    /// back, but a late ACK toggle from a still-alive target could yet
    /// land: the descriptor slot stays quarantined (busy, out of the
    /// in-flight queue) until every unacknowledged target's expectation
    /// is resolved by GC.
    tainted: bool,
    /// The trace id the message carried when posted (0 = untraced), so
    /// a retransmission can re-tag its ring packets with the same id.
    trace: u64,
}

/// A message detected by a poll but not yet delivered to the application.
#[derive(Debug, Clone)]
struct PendingMsg {
    slot: usize,
    data_off: usize,
    len_bytes: usize,
    /// This entry's key in the pending map (kept so a reliable-mode
    /// verification failure can reinsert it for a later retry).
    ext: u64,
    /// Reliable mode: verification attempts consumed so far.
    tries: u32,
    /// The sender's trace id for this message (0 when tracing was off
    /// at match time), resolved once at poll time so delivery can stamp
    /// its lifecycle checkpoint without another correlation lookup.
    trace: u64,
}

/// The BillBoard Protocol endpoint for one process.
///
/// Owned by (moved into) the simulated process; all methods take the
/// process's [`ProcCtx`] so every shared-memory access is charged its
/// PIO cost at the right virtual time.
pub struct BbpEndpoint {
    rank: usize,
    n: usize,
    nic: Nic,
    layout: Layout,
    config: BbpConfig,

    // ---- sender state ----
    /// Our copy of `msg_flag(r, me)` per receiver `r`.
    out_msg_flags: Vec<Word>,
    /// Per receiver `r`: the ACK word value that means "everything I ever
    /// sent to r is acknowledged" (bit flipped at each send, matched when
    /// the receiver's toggle lands).
    ack_expect: Vec<Word>,
    /// Per-slot sender-side state.
    slots: Vec<SlotState>,
    /// Slots in allocation (data-partition ring) order.
    inflight: VecDeque<usize>,
    /// Next free word in the circular data allocator.
    data_head: usize,
    /// Monotonic message sequence (shared across all destinations).
    next_seq: u32,
    /// Reliable mode: last processed value of `nack_flag(me, r)` per
    /// receiver `r` (a toggle against this shadow is a repair request).
    nack_shadow: Vec<Word>,
    /// Credit ledger: send credits available per peer. Non-empty iff the
    /// credit extension is on; every entry starts at the configured
    /// grant, is debited per posted message per target, and is refunded
    /// when the slot's ACK-carried return is consumed by GC (or eagerly
    /// by `reclaim_failed`).
    credit_avail: Vec<u32>,
    /// Deferred posts per receiver: MESSAGE flag toggles accumulated in
    /// `out_msg_flags` but not yet written to the bank. Flushed by
    /// `ring_doorbell` or by any immediate post to the same receiver.
    deferred_msgs: Vec<u32>,
    /// Reusable word buffer for payload packing: the post and
    /// retransmit paths must not allocate (the RPC reply path's
    /// zero-alloc guarantee rests on it).
    pack_scratch: Vec<Word>,

    // ---- receiver state ----
    /// Last processed value of `msg_flag(me, s)` per sender `s`.
    shadow_msg: Vec<Word>,
    /// Detected-but-undelivered messages per sender, ordered by extended
    /// sequence number (delivery is per-sender FIFO).
    pending: Vec<BTreeMap<u64, PendingMsg>>,
    /// Highest extended sequence seen per sender, for wrap handling.
    ext_seq_hi: Vec<u64>,
    /// Our copy of `ack_flag(s, me)` per sender `s`.
    out_ack_flags: Vec<Word>,
    /// Reliable mode: our copy of `nack_flag(s, me)` per sender `s`.
    out_nack_flags: Vec<Word>,
    /// Reliable mode: the next raw sequence number we will accept from
    /// each sender — anything (wrapping) behind it is a duplicate or a
    /// phantom from a corrupted flag word.
    expected_seq: Vec<Word>,
    /// Reliable mode: the source of the most recent corrupt-exhausted
    /// drop, so a timed-out receive can report `Corrupt` over `Timeout`.
    last_drop_src: Option<usize>,
    /// Round-robin cursor for `recv_any` fairness.
    rr_cursor: usize,
    /// Interrupt-mode wake-ups (armed over our MESSAGE flag block).
    recv_signal: Option<Signal>,
    /// Interrupt-mode wake-ups for ACKs (armed over our ACK flag block).
    ack_signal: Option<Signal>,
    /// Membership engine state (`Some` iff `config.membership` is).
    membership: Option<MembershipState>,

    stats: EndpointStats,
}

impl BbpEndpoint {
    pub(crate) fn new(
        nic: Nic,
        rank: usize,
        config: BbpConfig,
        recv_signal: Option<Signal>,
        ack_signal: Option<Signal>,
    ) -> Self {
        let n = config.nprocs;
        let layout = Layout::new(&config);
        BbpEndpoint {
            rank,
            n,
            nic,
            layout,
            out_msg_flags: vec![0; n],
            ack_expect: vec![0; n],
            slots: vec![SlotState::default(); config.bufs_per_proc],
            inflight: VecDeque::with_capacity(config.bufs_per_proc),
            data_head: 0,
            next_seq: 0,
            nack_shadow: vec![0; n],
            credit_avail: match &config.credit {
                Some(cr) => vec![cr.per_peer; n],
                None => Vec::new(),
            },
            deferred_msgs: vec![0; n],
            pack_scratch: Vec::new(),
            shadow_msg: vec![0; n],
            pending: (0..n).map(|_| BTreeMap::new()).collect(),
            ext_seq_hi: vec![0; n],
            out_ack_flags: vec![0; n],
            out_nack_flags: vec![0; n],
            expected_seq: vec![0; n],
            last_drop_src: None,
            rr_cursor: 0,
            recv_signal,
            ack_signal,
            membership: config.membership.as_ref().map(|_| MembershipState::new(n)),
            stats: EndpointStats::default(),
            config,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of participating processes.
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// Counters so far.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
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
        let owned = self.trace_enter(ctx, payload.len());
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "send");
        let posted = self
            .post(ctx, &[dst], payload)
            .and_then(|slot| self.confirm(ctx, slot, &[dst], payload));
        // A post refused before its first PIO still owes its entry cost;
        // every public call returns settled.
        ctx.settle();
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "send");
        self.trace_exit(ctx, owned, &posted);
        if posted.is_err() {
            self.stats.send_failures += 1;
        }
        posted?;
        self.stats.sends += 1;
        Ok(())
    }

    /// `bbp_Mcast`: post `payload` once and flag every rank in `targets`.
    /// Each extra receiver costs one extra flag-word write — the
    /// single-step multicast the paper builds `MPI_Bcast` on.
    pub fn mcast(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
    ) -> Result<(), BbpError> {
        if targets.is_empty() {
            return Err(BbpError::NoTargets);
        }
        let owned = self.trace_enter(ctx, payload.len());
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "mcast");
        let posted = self
            .post(ctx, targets, payload)
            .and_then(|slot| self.confirm(ctx, slot, targets, payload));
        ctx.settle();
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "mcast");
        self.trace_exit(ctx, owned, &posted);
        if posted.is_err() {
            self.stats.send_failures += 1;
        }
        posted?;
        self.stats.mcasts += 1;
        Ok(())
    }

    /// Send-entry half of the trace-id protocol: when no upper layer
    /// (the MPI binding) already published a trace id for this rank,
    /// this call is the message's entry into the stack — mint an id,
    /// publish it for the layers below, and record the `send_enter`
    /// checkpoint. Returns whether this call owns (and must clear) the
    /// published id.
    fn trace_enter(&self, ctx: &mut ProcCtx, payload_len: usize) -> bool {
        let rec = ctx.obs();
        if rec.current_trace(self.rank as u32) != 0 {
            return false;
        }
        let id = rec.mint_trace_id(self.rank as u32);
        rec.set_current_trace(self.rank as u32, id);
        rec.lifecycle(
            ctx.now(),
            self.rank as u32,
            id,
            Stage::SendEnter,
            payload_len as u64,
        );
        true
    }

    /// Send-exit half: clear the published id if we minted it, and on a
    /// typed error record the `error` checkpoint and, unless the error is
    /// a scripted refusal, snapshot the flight ring for the postmortem.
    fn trace_exit(&self, ctx: &mut ProcCtx, owned: bool, result: &Result<(), BbpError>) {
        let rec = ctx.obs();
        let id = rec.current_trace(self.rank as u32);
        if owned {
            rec.set_current_trace(self.rank as u32, 0);
        }
        if let Err(err) = result {
            rec.lifecycle(ctx.now(), self.rank as u32, id, Stage::Error, 0);
            // A fail-fast `NoCredit` is flow control working as designed
            // (an overloaded RPC client sheds on it hundreds of times per
            // run), not a fault: nothing to hold a postmortem over.
            if !matches!(err, BbpError::NoCredit { .. }) {
                rec.flight()
                    .dump_to_dir(&format!("bbp_send_error_n{}", self.rank));
            }
        }
    }

    fn post(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
    ) -> Result<usize, BbpError> {
        self.post_inner(ctx, targets, payload, true)
    }

    fn post_inner(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
        ring_now: bool,
    ) -> Result<usize, BbpError> {
        ctx.charge(self.config.sw.send_entry_ns);
        // Quorum mode: a frozen node must not inject descriptor or flag
        // traffic stamped with its stale epoch — fail fast instead.
        if let Some(st) = &self.membership {
            if st.frozen() {
                return Err(BbpError::Partitioned {
                    epoch: st.view.epoch,
                });
            }
        }
        for &t in targets {
            if t >= self.n || t == self.rank {
                return Err(BbpError::BadDestination { dst: t });
            }
            // With membership on, a peer our view already declared dead
            // fails fast instead of burning the retry budget.
            if let Some(st) = &self.membership {
                if st.tracks[t].health == PeerHealth::Dead {
                    return Err(BbpError::PeerDown { peer: t });
                }
            }
        }
        if payload.len() > self.config.max_payload_bytes() {
            return Err(BbpError::MessageTooLarge {
                len: payload.len(),
                max: self.config.max_payload_bytes(),
            });
        }
        let words = payload.len().div_ceil(4);
        self.acquire_credits(ctx, targets)?;
        let (slot, data_off) = match self.allocate(ctx, words, targets) {
            Ok(found) => found,
            Err(e) => {
                // Nothing was posted: the debited credits go straight back.
                self.refund_credits(targets);
                return Err(e);
            }
        };

        // 1. Payload into our data partition (via the reusable scratch:
        //    the post path must stay allocation-free after warm-up).
        let mut packed = std::mem::take(&mut self.pack_scratch);
        pack_words_into(payload, &mut packed);
        if words > 0 {
            self.nic
                .write_block(ctx, self.layout.data_base(self.rank) + data_off, &packed);
        }
        // 2. Descriptor: [offset, byte length, sequence] plus, in
        // reliable mode, a CRC over those fields and the payload. The
        // checksum lives in our own partition — single-writer preserved.
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let trace = ctx.obs().current_trace(self.rank as u32);
        let s = &mut self.slots[slot];
        s.busy = true;
        s.data_off = data_off;
        s.words = words;
        s.len_bytes = payload.len();
        s.seq = seq;
        s.targets.clear();
        s.targets.extend_from_slice(targets);
        s.trace = trace;
        self.inflight.push_back(slot);
        {
            // Send-slot residency and credit-ledger balance at the
            // moment of posting. One relaxed load when telemetry is off.
            let rec = ctx.obs();
            if rec.telemetry_on() {
                let now = ctx.now();
                let rank = self.rank as u32;
                rec.gauge(
                    now,
                    rank,
                    "bbp.send_slots_in_use",
                    self.inflight.len() as u64,
                );
                if !self.credit_avail.is_empty() {
                    let bal: u64 = self.credit_avail.iter().map(|&c| c as u64).sum();
                    rec.gauge(now, rank, "bbp.credit_balance", bal);
                }
            }
        }
        self.write_descriptor(ctx, slot, &packed);
        self.pack_scratch = packed;
        ctx.obs().lifecycle(
            ctx.now(),
            self.rank as u32,
            trace,
            Stage::DescriptorWrite,
            seq as u64,
        );
        // The receive side matches descriptors by (src, seq); register
        // the pair so its poll can recover the sender's trace id.
        ctx.obs().register_msg(self.rank as u32, seq, trace);
        // 3. One MESSAGE flag toggle per receiver (this ordering makes the
        // flag the last word to land at each receiver, so detection
        // implies the descriptor and payload already replicated).
        for (i, &t) in targets.iter().enumerate() {
            if i > 0 {
                ctx.charge(self.config.sw.mcast_target_ns);
            }
            self.out_msg_flags[t] ^= 1 << slot;
            if ring_now {
                // An immediate write publishes every accumulated toggle
                // for this receiver, so it flushes any deferred posts too.
                self.nic.write_word(
                    ctx,
                    self.layout.msg_flag(t, self.rank),
                    self.out_msg_flags[t],
                );
                self.deferred_msgs[t] = 0;
            } else {
                self.deferred_msgs[t] += 1;
            }
            self.ack_expect[t] ^= 1 << slot;
            ctx.obs()
                .lifecycle(ctx.now(), self.rank as u32, trace, Stage::FlagSet, t as u64);
        }
        Ok(slot)
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
        assert!(
            self.config.reliability.is_none(),
            "deferred posting is incompatible with the reliability extension"
        );
        let owned = self.trace_enter(ctx, payload.len());
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "send");
        let posted = self.post_inner(ctx, &[dst], payload, false).map(|_| ());
        ctx.settle();
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "send");
        self.trace_exit(ctx, owned, &posted);
        if posted.is_err() {
            self.stats.send_failures += 1;
        }
        posted?;
        self.stats.sends += 1;
        Ok(())
    }

    /// Write `dst`'s accumulated MESSAGE flag toggles in one doorbell.
    /// Returns how many deferred posts the write covered (0 = nothing
    /// pending, no PIO issued).
    pub fn ring_doorbell(&mut self, ctx: &mut ProcCtx, dst: usize) -> usize {
        let covered = self.deferred_msgs[dst] as usize;
        if covered == 0 {
            return 0;
        }
        self.deferred_msgs[dst] = 0;
        self.nic.write_word(
            ctx,
            self.layout.msg_flag(dst, self.rank),
            self.out_msg_flags[dst],
        );
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.doorbells", 1);
        if covered > 1 {
            let saved = (covered - 1) as u64;
            self.stats.flag_writes_coalesced += saved;
            ctx.obs().count(
                ctx.now(),
                self.rank as u32,
                "bbp.flag_writes_coalesced",
                saved,
            );
        }
        covered
    }

    /// Ring every receiver's doorbell that has deferred posts pending.
    /// Returns the total number of posts flushed.
    pub fn ring_all_doorbells(&mut self, ctx: &mut ProcCtx) -> usize {
        let mut total = 0;
        for dst in 0..self.n {
            total += self.ring_doorbell(ctx, dst);
        }
        total
    }

    /// Debit one send credit per target, blocking in the GC loop (or
    /// failing fast with [`BbpError::NoCredit`]) while any target's
    /// grant is exhausted. Credits return on the side channel the
    /// protocol already has — the ACK flag words: a GC sweep that frees
    /// an acknowledged slot refunds its targets. No-op when the credit
    /// extension is off.
    fn acquire_credits(&mut self, ctx: &mut ProcCtx, targets: &[usize]) -> Result<(), BbpError> {
        let Some(cr) = self.config.credit else {
            return Ok(());
        };
        let deadline = self
            .config
            .reliability
            .as_ref()
            .map(|rel| ctx.now().saturating_add(rel.max_send_wait_ns()));
        loop {
            if targets.iter().all(|&t| self.credit_avail[t] > 0) {
                for &t in targets {
                    self.credit_avail[t] -= 1;
                }
                return Ok(());
            }
            let starved = targets
                .iter()
                .copied()
                .find(|&t| self.credit_avail[t] == 0)
                .expect("some target is out of credit");
            if cr.fail_fast {
                // Fail fast forgoes *waiting*, not the free work of
                // collecting already-acknowledged slots: one sweep may
                // refund the starved peer right now. Only give up once a
                // sweep frees nothing.
                if self.gc(ctx) > 0 {
                    continue;
                }
                self.stats.no_credit_failures += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.no_credit", 1);
                return Err(BbpError::NoCredit { peer: starved });
            }
            self.stats.credit_stalls += 1;
            ctx.obs()
                .count(ctx.now(), self.rank as u32, "bbp.credit_stalls", 1);
            if self.gc(ctx) == 0 {
                match (self.config.recv_mode, deadline) {
                    (RecvMode::Polling, _) | (RecvMode::Interrupt, Some(_)) => {
                        ctx.advance(self.config.sw.gc_retry_gap_ns);
                    }
                    (RecvMode::Interrupt, None) => {
                        let sig = self
                            .ack_signal
                            .clone()
                            .expect("interrupt mode endpoints carry an ack signal");
                        ctx.wait(&sig);
                    }
                }
            }
            if let Some(d) = deadline {
                if ctx.now() >= d {
                    return Err(BbpError::Timeout {
                        peer: starved,
                        attempts: 0,
                    });
                }
            }
        }
    }

    /// Refund one credit per target (nothing was posted, or the slot
    /// terminated). No-op when the credit extension is off.
    fn refund_credits(&mut self, targets: &[usize]) {
        if self.credit_avail.is_empty() {
            return;
        }
        for &t in targets {
            self.credit_avail[t] += 1;
        }
    }

    /// Refund the credits a freed slot's targets were holding.
    fn return_slot_credits(&mut self, slot: usize) {
        if self.credit_avail.is_empty() {
            return;
        }
        for i in 0..self.slots[slot].targets.len() {
            let t = self.slots[slot].targets[i];
            self.credit_avail[t] += 1;
        }
    }

    /// Send credits currently available toward `peer`, or `None` when
    /// the credit extension is off.
    pub fn send_credits(&self, peer: usize) -> Option<u32> {
        assert!(peer < self.n, "rank {peer} out of range");
        if self.credit_avail.is_empty() {
            None
        } else {
            Some(self.credit_avail[peer])
        }
    }

    /// Write `slot`'s descriptor from its recorded state (`packed` is the
    /// payload in word form, consumed only by the CRC).
    fn write_descriptor(&mut self, ctx: &mut ProcCtx, slot: usize, packed: &[Word]) {
        let s = &self.slots[slot];
        let (off, len, seq) = (s.data_off as Word, s.len_bytes as Word, s.seq);
        if let Some(rel) = &self.config.reliability {
            ctx.advance(rel.checksum_ns);
            let crc = crate::crc::descriptor_crc(off, len, seq, packed);
            self.nic.write_block(
                ctx,
                self.layout.descriptor(self.rank, slot),
                &[off, len, seq, crc],
            );
        } else {
            self.nic.write_block(
                ctx,
                self.layout.descriptor(self.rank, slot),
                &[off, len, seq],
            );
        }
    }

    /// Reliable mode: block until every target acknowledges `slot`,
    /// retransmitting with exponential backoff; classify exhaustion as
    /// [`BbpError::PeerDown`] (target bypassed), [`BbpError::Corrupt`]
    /// (target kept NACKing), or [`BbpError::Timeout`]. A no-op without
    /// the reliability extension (the paper's fire-and-forget send).
    fn confirm(
        &mut self,
        ctx: &mut ProcCtx,
        slot: usize,
        targets: &[usize],
        payload: &[u8],
    ) -> Result<(), BbpError> {
        let Some(rel) = self.config.reliability.clone() else {
            return Ok(());
        };
        let bit = 1u32 << slot;
        let mut timeout = rel.ack_timeout_ns;
        let mut nack_seen = false;
        for attempt in 0..=rel.max_retries {
            let deadline = ctx.now() + timeout;
            loop {
                let mut all_acked = true;
                let mut repair = false;
                for &r in targets {
                    let ack = self.nic.read_word(ctx, self.layout.ack_flag(self.rank, r));
                    if ack & bit != self.ack_expect[r] & bit {
                        all_acked = false;
                    }
                    let nack = self.nic.read_word(ctx, self.layout.nack_flag(self.rank, r));
                    let diff = nack ^ self.nack_shadow[r];
                    if diff != 0 {
                        self.nack_shadow[r] = nack;
                        if diff & bit != 0 {
                            repair = true;
                        }
                    }
                }
                if all_acked {
                    return Ok(());
                }
                if repair {
                    nack_seen = true;
                    break; // retransmit immediately
                }
                if ctx.now() >= deadline {
                    break;
                }
                ctx.advance(self.config.sw.gc_retry_gap_ns);
                // Keep the membership engine alive across a long wait
                // (quorum mode only); a freeze mid-wait aborts the send
                // typed, with the slot reclaimed like any other failure.
                if let Err(e) = self.service_membership_in_wait(ctx) {
                    self.reclaim_failed(slot);
                    return Err(e);
                }
            }
            if attempt < rel.max_retries {
                self.retransmit(ctx, slot, targets, payload);
                timeout = timeout.saturating_mul(rel.backoff_factor);
            }
        }
        // Budget exhausted. Classify the failure, then eagerly roll the
        // slot's data space back out of the allocator — a dead peer must
        // not strand the partition behind an un-acknowledged buffer.
        let mut failure = None;
        for &r in targets {
            let ack = self.nic.read_word(ctx, self.layout.ack_flag(self.rank, r));
            if ack & bit == self.ack_expect[r] & bit {
                continue; // this target did acknowledge
            }
            failure = Some(if !self.nic.peer_alive(r) {
                BbpError::PeerDown { peer: r }
            } else if nack_seen {
                BbpError::Corrupt { peer: r }
            } else {
                BbpError::Timeout {
                    peer: r,
                    attempts: rel.max_retries + 1,
                }
            });
            break;
        }
        match failure {
            None => Ok(()), // the last poll raced an ACK in: delivered after all
            Some(err) => {
                self.reclaim_failed(slot);
                Err(err)
            }
        }
    }

    /// A send exhausted its retry budget: recover its resources. Reliable
    /// sends serialize, so the failed slot is always the *newest*
    /// allocation — popping it off the back of the in-flight queue and
    /// (under [`GcPolicy::FifoRing`]) rolling the allocator head back to
    /// its offset returns the data space immediately. The descriptor slot
    /// itself stays quarantined (`tainted`, still busy) until GC resolves
    /// every unacknowledged target: a late ACK toggle from a
    /// slow-but-alive receiver must not be misread against a reused slot
    /// bit.
    fn reclaim_failed(&mut self, slot: usize) {
        let popped = self.inflight.pop_back();
        debug_assert_eq!(popped, Some(slot), "failed send is the newest allocation");
        if self.config.gc_policy == GcPolicy::FifoRing {
            self.data_head = self.slots[slot].data_off;
        }
        self.slots[slot].tainted = true;
        // Credit flow control: return the slot's credits *now*, not when
        // the quarantined slot eventually resolves — a dead peer that
        // will never ACK must not strand the channel's grant. The
        // tainted-resolution sweep in `gc` frees the slot without
        // touching the ledger (the slot left the in-flight queue here),
        // so the credits cannot be returned twice.
        if !self.credit_avail.is_empty() {
            self.stats.credits_reclaimed += self.slots[slot].targets.len() as u64;
            self.return_slot_credits(slot);
        }
    }

    /// Rewrite `slot`'s payload, descriptor, and MESSAGE flags at their
    /// current *absolute* values. Receivers that already processed the
    /// original see identical words (no phantom redelivery); receivers
    /// that lost any part of it — dropped packet, stall window, break,
    /// corrupted replica — get a fresh, complete copy. Absolute rewrite
    /// rather than re-toggling is what makes retransmission idempotent
    /// under the flag-toggle discipline.
    fn retransmit(&mut self, ctx: &mut ProcCtx, slot: usize, targets: &[usize], payload: &[u8]) {
        self.stats.retries += 1;
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.retries", 1);
        // Re-publish the slot's original trace id for the duration of
        // the rewrite, so its repair packets join the same flow chain.
        let trace = self.slots[slot].trace;
        let prev = ctx.obs().current_trace(self.rank as u32);
        ctx.obs().set_current_trace(self.rank as u32, trace);
        ctx.obs().lifecycle(
            ctx.now(),
            self.rank as u32,
            trace,
            Stage::Retry,
            slot as u64,
        );
        let data_off = self.slots[slot].data_off;
        let mut packed = std::mem::take(&mut self.pack_scratch);
        pack_words_into(payload, &mut packed);
        if !packed.is_empty() {
            self.nic
                .write_block(ctx, self.layout.data_base(self.rank) + data_off, &packed);
        }
        self.write_descriptor(ctx, slot, &packed);
        self.pack_scratch = packed;
        for &t in targets {
            self.nic.write_word(
                ctx,
                self.layout.msg_flag(t, self.rank),
                self.out_msg_flags[t],
            );
        }
        ctx.obs().set_current_trace(self.rank as u32, prev);
    }

    /// Find a free descriptor slot and `words` contiguous data words,
    /// garbage-collecting and (if needed) stalling until space appears.
    ///
    /// Without the reliability extension this can only stall, never fail
    /// (the paper's behaviour). In reliable mode the stall is bounded by
    /// [`crate::ReliabilityConfig::max_send_wait_ns`] so a dead peer
    /// holding every buffer un-acknowledged cannot wedge the sender
    /// forever.
    fn allocate(
        &mut self,
        ctx: &mut ProcCtx,
        words: usize,
        targets: &[usize],
    ) -> Result<(usize, usize), BbpError> {
        let deadline = self
            .config
            .reliability
            .as_ref()
            .map(|rel| ctx.now().saturating_add(rel.max_send_wait_ns()));
        loop {
            ctx.charge(self.config.sw.alloc_ns);
            if let Some(found) = self.try_allocate(words) {
                return Ok(found);
            }
            self.stats.send_stalls += 1;
            // Garbage-collect acknowledged buffers, then retry; if nothing
            // freed, wait for acknowledgements to arrive.
            let freed = self.gc(ctx);
            if freed == 0 {
                match (self.config.recv_mode, deadline) {
                    (RecvMode::Polling, _) | (RecvMode::Interrupt, Some(_)) => {
                        // Reliable interrupt mode also paces by polling: a
                        // signal wait could outlive the deadline.
                        ctx.advance(self.config.sw.gc_retry_gap_ns);
                    }
                    (RecvMode::Interrupt, None) => {
                        let sig = self
                            .ack_signal
                            .clone()
                            .expect("interrupt mode endpoints carry an ack signal");
                        ctx.wait(&sig);
                    }
                }
            }
            if let Some(d) = deadline {
                if ctx.now() >= d {
                    return Err(BbpError::Timeout {
                        peer: targets.first().copied().unwrap_or(self.rank),
                        attempts: 0,
                    });
                }
            }
        }
    }

    fn try_allocate(&mut self, words: usize) -> Option<(usize, usize)> {
        match self.config.gc_policy {
            GcPolicy::FifoRing => self.try_allocate_ring(words),
            GcPolicy::Slotted => self.try_allocate_slotted(words),
        }
    }

    fn try_allocate_ring(&mut self, words: usize) -> Option<(usize, usize)> {
        let slot = self.slots.iter().position(|s| !s.busy)?;
        let cap = self.layout.data_words();
        if words == 0 {
            return Some((slot, self.data_head));
        }
        if words > cap {
            // Guarded earlier by max_payload_bytes; defensive.
            return None;
        }
        if self.inflight.is_empty() {
            self.data_head = words % cap;
            return Some((slot, 0));
        }
        let tail = self.slots[*self.inflight.front().unwrap()].data_off;
        let head = self.data_head;
        if head >= tail {
            // Free space is [head, cap) then [0, tail).
            if cap - head >= words {
                self.data_head = (head + words) % cap;
                return Some((slot, head));
            }
            if tail > words {
                self.data_head = words;
                return Some((slot, 0));
            }
        } else if tail - head > words {
            self.data_head = head + words;
            return Some((slot, head));
        }
        None
    }

    /// Slotted discipline: descriptor slot `i` owns the fixed data range
    /// `[i*slot_words, (i+1)*slot_words)`; any free slot fits any message
    /// up to one slot.
    fn try_allocate_slotted(&mut self, words: usize) -> Option<(usize, usize)> {
        let slot_words = self.layout.data_words() / self.config.bufs_per_proc;
        debug_assert!(words <= slot_words, "guarded by max_payload_bytes");
        let slot = self.slots.iter().position(|s| !s.busy)?;
        Some((slot, slot * slot_words))
    }

    /// One garbage-collection sweep. Under [`GcPolicy::FifoRing`], pops
    /// fully acknowledged buffers off the *front* of the in-flight queue
    /// (the ring discipline); under [`GcPolicy::Slotted`], frees every
    /// acknowledged buffer regardless of order. Returns how many were
    /// freed.
    fn gc(&mut self, ctx: &mut ProcCtx) -> usize {
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "gc");
        ctx.charge(self.config.sw.gc_probe_ns);
        self.stats.gc_sweeps += 1;
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.gc_sweeps", 1);
        // Read each relevant ACK word at most once per sweep.
        let mut ack_cache: Vec<Option<Word>> = vec![None; self.n];
        let mut check_slot = |slots: &[SlotState],
                              ack_expect: &[Word],
                              nic: &Nic,
                              layout: &crate::layout::Layout,
                              rank: usize,
                              ctx: &mut ProcCtx,
                              slot: usize|
         -> bool {
            for &r in &slots[slot].targets {
                let word = match ack_cache[r] {
                    Some(w) => w,
                    None => {
                        let w = nic.read_word(ctx, layout.ack_flag(rank, r));
                        ack_cache[r] = Some(w);
                        w
                    }
                };
                let bit = 1u32 << slot;
                if word & bit != ack_expect[r] & bit {
                    return false;
                }
            }
            true
        };
        let mut freed = 0;
        match self.config.gc_policy {
            GcPolicy::FifoRing => {
                while let Some(&slot) = self.inflight.front() {
                    if !check_slot(
                        &self.slots,
                        &self.ack_expect,
                        &self.nic,
                        &self.layout,
                        self.rank,
                        ctx,
                        slot,
                    ) {
                        break;
                    }
                    self.inflight.pop_front();
                    self.slots[slot].busy = false;
                    self.return_slot_credits(slot);
                    freed += 1;
                }
            }
            GcPolicy::Slotted => {
                let mut kept = VecDeque::with_capacity(self.inflight.len());
                while let Some(slot) = self.inflight.pop_front() {
                    if check_slot(
                        &self.slots,
                        &self.ack_expect,
                        &self.nic,
                        &self.layout,
                        self.rank,
                        ctx,
                        slot,
                    ) {
                        self.slots[slot].busy = false;
                        self.return_slot_credits(slot);
                        freed += 1;
                    } else {
                        kept.push_back(slot);
                    }
                }
                self.inflight = kept;
            }
        }
        // Resolve quarantined slots from retry-exhausted sends: each
        // unacknowledged target either delivered its late ACK (the toggle
        // now matches) or is out of the ring and can never deliver it —
        // in which case our expectation is resynced to the bank's current
        // value (a bypassed source produces no further toggles). A fully
        // resolved slot returns to the free pool; its data space was
        // already rolled back by `reclaim_failed`.
        for slot in 0..self.slots.len() {
            if !self.slots[slot].tainted {
                continue;
            }
            let bit = 1u32 << slot;
            let mut resolved = true;
            let targets = self.slots[slot].targets.clone();
            for r in targets {
                let word = self.nic.read_word(ctx, self.layout.ack_flag(self.rank, r));
                if word & bit == self.ack_expect[r] & bit {
                    continue; // late ACK landed (or this target had acked)
                }
                if !self.nic.peer_alive(r) {
                    self.ack_expect[r] = (self.ack_expect[r] & !bit) | (word & bit);
                    continue;
                }
                resolved = false;
            }
            if resolved {
                self.slots[slot].tainted = false;
                self.slots[slot].busy = false;
                self.stats.failed_slot_reclaims += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.failed_slot_reclaims", 1);
                freed += 1;
            }
        }
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "gc");
        if freed > 0 {
            let rec = ctx.obs();
            if rec.telemetry_on() {
                let now = ctx.now();
                let rank = self.rank as u32;
                rec.gauge(
                    now,
                    rank,
                    "bbp.send_slots_in_use",
                    self.inflight.len() as u64,
                );
                if !self.credit_avail.is_empty() {
                    let bal: u64 = self.credit_avail.iter().map(|&c| c as u64).sum();
                    rec.gauge(now, rank, "bbp.credit_balance", bal);
                }
            }
        }
        freed
    }

    /// True once every message this endpoint ever posted has been
    /// acknowledged by all of its receivers (drains with a GC sweep).
    pub fn all_acked(&mut self, ctx: &mut ProcCtx) -> bool {
        self.gc(ctx);
        ctx.settle(); // a sweep with nothing in flight reads nothing
        self.inflight.is_empty()
    }

    /// Quorum mode: is this endpoint frozen (its segment cut from the
    /// seed majority, or healed but not yet readmitted into a committed
    /// view)? Always `false` with membership off or quorum off.
    pub fn is_partitioned(&self) -> bool {
        self.frozen()
    }

    /// Quorum mode: the committed epoch this endpoint froze at, while it
    /// is frozen. `None` whenever the endpoint is operational (including
    /// always with membership off or quorum off).
    pub fn frozen_epoch(&self) -> Option<u32> {
        self.membership
            .as_ref()
            .filter(|st| st.frozen())
            .map(|st| st.view.epoch)
    }

    fn frozen(&self) -> bool {
        self.membership.as_ref().is_some_and(|st| st.frozen())
    }

    /// Fail fast with the typed partition error when frozen.
    fn check_frozen(&self) -> Result<(), BbpError> {
        match &self.membership {
            Some(st) if st.frozen() => Err(BbpError::Partitioned {
                epoch: st.view.epoch,
            }),
            _ => Ok(()),
        }
    }

    /// Quorum mode: service the membership engine from inside a blocking
    /// wait loop, paced at the heartbeat cadence.
    ///
    /// A reliable send or receive can hold this endpoint in its wait
    /// loop for longer than the failure detector's thresholds. Without
    /// servicing, two things go wrong at once: our heartbeat stalls, so
    /// healthy peers start grading *us* dead; and our published view
    /// words freeze at the epoch we entered the wait with, so if a view
    /// change commits meanwhile every receiver fences our
    /// retransmissions as stale — a livelock the retry budget converts
    /// into a spurious timeout (the receiver cannot know we would adopt
    /// the new view if we ever got back to
    /// [`BbpEndpoint::membership_tick`]). Ticking from inside the wait
    /// keeps the heartbeat flowing and adopts committed views, and the
    /// frozen check turns "quorum lost mid-wait" into the typed
    /// [`BbpError::Partitioned`] instead of a burned retry budget.
    ///
    /// A no-op outside quorum mode: the legacy detector has no fence,
    /// tolerates transient in-wait staleness (a dead grade lifts when
    /// the heartbeat resumes), and staying out of its wait loops keeps
    /// the pre-quorum protocol byte-identical.
    fn service_membership_in_wait(&mut self, ctx: &mut ProcCtx) -> Result<(), BbpError> {
        let due = match (&self.membership, &self.config.membership) {
            (Some(st), Some(m)) if m.quorum => ctx.now() >= st.next_hb_at,
            _ => false,
        };
        if due {
            self.membership_tick(ctx);
            self.check_frozen()?;
        }
        Ok(())
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
        assert!(src < self.n && src != self.rank, "bad source rank {src}");
        self.check_frozen()?;
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "recv");
        let deadline = self
            .config
            .reliability
            .as_ref()
            .map(|rel| ctx.now().saturating_add(rel.recv_timeout_ns));
        let drops0 = self.stats.corrupt_dropped;
        let result = loop {
            if let Some(msg) = self.pop_pending(src) {
                if let Some(data) = self.consume(ctx, src, msg) {
                    break Ok(data);
                }
            } else {
                self.poll_sender(ctx, src);
                if self.pending[src].is_empty() {
                    self.recv_wait(ctx, deadline.is_some());
                }
            }
            if let Err(e) = self.service_membership_in_wait(ctx) {
                self.stats.recv_timeouts += 1;
                break Err(e);
            }
            if self.stats.corrupt_dropped > drops0 {
                self.stats.recv_timeouts += 1;
                break Err(BbpError::Corrupt { peer: src });
            }
            if let Some(d) = deadline {
                if ctx.now() >= d {
                    self.stats.recv_timeouts += 1;
                    break Err(BbpError::Timeout {
                        peer: src,
                        attempts: 0,
                    });
                }
            }
        };
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "recv");
        if result.is_err() {
            self.recv_error_postmortem(ctx);
        }
        result
    }

    /// Blocking receive from any sender, round-robin fair across sources.
    /// Fails only in reliable mode, under the same bounds as
    /// [`BbpEndpoint::recv`] (a timeout reports the lowest-ranked
    /// candidate source as the peer).
    pub fn recv_any(&mut self, ctx: &mut ProcCtx) -> Result<(usize, Vec<u8>), BbpError> {
        self.check_frozen()?;
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "recv");
        let deadline = self
            .config
            .reliability
            .as_ref()
            .map(|rel| ctx.now().saturating_add(rel.recv_timeout_ns));
        let drops0 = self.stats.corrupt_dropped;
        let result = 'outer: loop {
            let mut consumed_none = true;
            for off in 0..self.n {
                let s = (self.rr_cursor + off) % self.n;
                if s == self.rank {
                    continue;
                }
                if let Some(msg) = self.pop_pending(s) {
                    consumed_none = false;
                    if let Some(data) = self.consume(ctx, s, msg) {
                        self.rr_cursor = (s + 1) % self.n;
                        break 'outer Ok((s, data));
                    }
                    break; // re-check error state before the next source
                }
            }
            if consumed_none {
                self.poll_all(ctx);
                if !self.has_pending() {
                    self.recv_wait(ctx, deadline.is_some());
                }
            }
            if let Err(e) = self.service_membership_in_wait(ctx) {
                self.stats.recv_timeouts += 1;
                break 'outer Err(e);
            }
            if self.stats.corrupt_dropped > drops0 {
                self.stats.recv_timeouts += 1;
                let peer = self.last_drop_src.expect("a drop records its source");
                break Err(BbpError::Corrupt { peer });
            }
            if let Some(d) = deadline {
                if ctx.now() >= d {
                    self.stats.recv_timeouts += 1;
                    let peer = if self.rank == 0 { 1 } else { 0 };
                    break Err(BbpError::Timeout { peer, attempts: 0 });
                }
            }
        };
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "recv");
        if result.is_err() {
            self.recv_error_postmortem(ctx);
        }
        result
    }

    /// A blocking receive is surfacing a typed error: record the
    /// `error` checkpoint and snapshot the flight ring so the events
    /// leading up to the timeout/corruption survive for the postmortem.
    fn recv_error_postmortem(&self, ctx: &ProcCtx) {
        ctx.obs()
            .lifecycle(ctx.now(), self.rank as u32, 0, Stage::Error, 0);
        ctx.obs()
            .flight()
            .dump_to_dir(&format!("bbp_recv_error_n{}", self.rank));
    }

    /// `bbp_MsgAvail`: one poll sweep; true if any message is deliverable.
    pub fn msg_avail(&mut self, ctx: &mut ProcCtx) -> bool {
        self.poll_all(ctx);
        self.has_pending()
    }

    /// Non-blocking receive from `src`: one poll sweep, then the next
    /// pending message if any. In reliable mode a message that fails
    /// verification is NACKed and re-queued (or dropped once its retries
    /// are spent) and the call reports "nothing deliverable".
    pub fn try_recv(&mut self, ctx: &mut ProcCtx, src: usize) -> Option<Vec<u8>> {
        assert!(src < self.n && src != self.rank, "bad source rank {src}");
        if self.pending[src].is_empty() {
            self.poll_sender(ctx, src);
        }
        let msg = self.pop_pending(src)?;
        self.consume(ctx, src, msg)
    }

    /// Park until new traffic may have arrived. In polling mode this is
    /// a no-op returning `false` (callers charge their own poll pacing);
    /// in interrupt mode it blocks on the NIC's flag-block watch and
    /// returns `true`. Progress engines layered above the BBP use this
    /// so the paper's interrupt extension benefits them too.
    pub fn wait_for_traffic(&mut self, ctx: &mut ProcCtx) -> bool {
        match self.config.recv_mode {
            RecvMode::Polling => false,
            RecvMode::Interrupt => {
                let sig = self
                    .recv_signal
                    .clone()
                    .expect("interrupt mode endpoints carry a recv signal");
                ctx.wait(&sig);
                true
            }
        }
    }

    /// Receive from `src` with a virtual-time deadline: returns `None`
    /// if no message is deliverable by `deadline` (the real-time pattern
    /// SCRAMNet applications use for frame loops).
    pub fn recv_deadline(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        deadline: des::Time,
    ) -> Option<Vec<u8>> {
        assert!(src < self.n && src != self.rank, "bad source rank {src}");
        loop {
            if let Some(msg) = self.pop_pending(src) {
                if let Some(data) = self.consume(ctx, src, msg) {
                    return Some(data);
                }
            }
            if ctx.now() >= deadline {
                return None;
            }
            // Keep the heartbeat flowing across a long frame wait; a
            // freeze mid-wait simply means nothing becomes deliverable
            // and the deadline fires (this API has no error channel).
            let _ = self.service_membership_in_wait(ctx);
            if self.pending[src].is_empty() {
                self.poll_sender(ctx, src);
            }
            if self.pending[src].is_empty() {
                match self.config.recv_mode {
                    RecvMode::Polling => {}
                    RecvMode::Interrupt => {
                        // Bounded wait: fall back to a poll tick so the
                        // deadline can fire even with no traffic at all.
                        ctx.advance(self.config.sw.gc_retry_gap_ns);
                    }
                }
            }
        }
    }

    /// Blocking receive from `src` into a caller-provided buffer
    /// (avoiding the return-value allocation on hot paths). Returns the
    /// message length; panics if `buf` is too small — size it with
    /// [`crate::BbpConfig::max_payload_bytes`].
    pub fn recv_into(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        buf: &mut [u8],
    ) -> Result<usize, BbpError> {
        let msg = self.recv(ctx, src)?;
        assert!(
            buf.len() >= msg.len(),
            "recv_into buffer of {} bytes cannot hold a {}-byte message",
            buf.len(),
            msg.len()
        );
        buf[..msg.len()].copy_from_slice(&msg);
        Ok(msg.len())
    }

    /// Non-blocking receive from any source into a caller-provided
    /// buffer. Returns the source rank and message length; panics if
    /// `buf` is too small — size it with
    /// [`crate::BbpConfig::max_payload_bytes`].
    pub fn try_recv_any_into(
        &mut self,
        ctx: &mut ProcCtx,
        buf: &mut [u8],
    ) -> Option<(usize, usize)> {
        let (src, msg) = self.try_recv_any(ctx)?;
        assert!(
            buf.len() >= msg.len(),
            "try_recv_any_into buffer of {} bytes cannot hold a {}-byte message",
            buf.len(),
            msg.len()
        );
        buf[..msg.len()].copy_from_slice(&msg);
        Some((src, msg.len()))
    }

    /// Non-blocking receive from any source (one sweep).
    pub fn try_recv_any(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        if !self.has_pending() {
            self.poll_all(ctx);
        }
        for off in 0..self.n {
            let s = (self.rr_cursor + off) % self.n;
            if s == self.rank {
                continue;
            }
            if let Some(msg) = self.pop_pending(s) {
                if let Some(data) = self.consume(ctx, s, msg) {
                    self.rr_cursor = (s + 1) % self.n;
                    return Some((s, data));
                }
            }
        }
        None
    }

    fn has_pending(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }

    fn pop_pending(&mut self, src: usize) -> Option<PendingMsg> {
        let (&seq, _) = self.pending[src].iter().next()?;
        self.pending[src].remove(&seq)
    }

    /// How a receive path waits when nothing is pending after a poll.
    /// `bounded` (reliable-mode deadlines) forces a poll tick even in
    /// interrupt mode, so a deadline can fire with no traffic at all.
    fn recv_wait(&mut self, ctx: &mut ProcCtx, bounded: bool) {
        match self.config.recv_mode {
            // Polling: the PIO reads of the sweep itself advanced time;
            // loop straight into the next sweep.
            RecvMode::Polling => {}
            RecvMode::Interrupt if bounded => {
                ctx.advance(self.config.sw.gc_retry_gap_ns);
            }
            RecvMode::Interrupt => {
                let sig = self
                    .recv_signal
                    .clone()
                    .expect("interrupt mode endpoints carry a recv signal");
                ctx.wait(&sig);
            }
        }
    }

    /// Poll one sender's MESSAGE flag word and enqueue newly flagged
    /// messages.
    fn poll_sender(&mut self, ctx: &mut ProcCtx, s: usize) {
        // Quorum mode: a frozen node's shadows were scrubbed while the
        // far side's words are still stale — polling before readmission
        // would manufacture phantom detections. The data plane is frozen
        // in both directions.
        if self.frozen() {
            return;
        }
        ctx.charge(self.config.sw.poll_iter_ns);
        self.stats.polls += 1;
        ctx.obs().count(ctx.now(), self.rank as u32, "bbp.polls", 1);
        let word = self.nic.read_word(ctx, self.layout.msg_flag(self.rank, s));
        let changed = word ^ self.shadow_msg[s];
        if changed == 0 {
            return;
        }
        self.shadow_msg[s] = word;
        for slot in 0..self.config.bufs_per_proc {
            if changed & (1 << slot) == 0 {
                continue;
            }
            ctx.charge(self.config.sw.match_ns);
            let desc = self.nic.read_block(
                ctx,
                self.layout.descriptor(s, slot),
                self.layout.desc_words(),
            );
            let (data_off, len_bytes, seq) = (desc[0] as usize, desc[1] as usize, desc[2]);
            let ext = extend_seq(self.ext_seq_hi[s], seq);
            self.ext_seq_hi[s] = self.ext_seq_hi[s].max(ext);
            let trace = ctx.obs().lookup_msg(s as u32, seq);
            ctx.obs().lifecycle(
                ctx.now(),
                self.rank as u32,
                trace,
                Stage::RecvMatch,
                seq as u64,
            );
            self.pending[s].insert(
                ext,
                PendingMsg {
                    slot,
                    data_off,
                    len_bytes,
                    ext,
                    tries: 0,
                    trace,
                },
            );
        }
    }

    fn poll_all(&mut self, ctx: &mut ProcCtx) {
        for s in 0..self.n {
            if s != self.rank {
                self.poll_sender(ctx, s);
            }
        }
    }

    /// Read the payload out of the sender's (replicated) data partition,
    /// toggle the ACK bit, and hand the bytes to the application.
    fn deliver(&mut self, ctx: &mut ProcCtx, src: usize, msg: PendingMsg) -> Vec<u8> {
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "deliver");
        let words = msg.len_bytes.div_ceil(4);
        let data = if words > 0 {
            self.nic
                .read_block(ctx, self.layout.data_base(src) + msg.data_off, words)
        } else {
            Vec::new()
        };
        ctx.advance(self.config.sw.deliver_ns);
        self.out_ack_flags[src] ^= 1 << msg.slot;
        self.nic.write_word(
            ctx,
            self.layout.ack_flag(src, self.rank),
            self.out_ack_flags[src],
        );
        self.stats.recvs += 1;
        self.stats.bytes_recved += msg.len_bytes as u64;
        ctx.obs().lifecycle(
            ctx.now(),
            self.rank as u32,
            msg.trace,
            Stage::Deliver,
            msg.len_bytes as u64,
        );
        ctx.obs().set_current_rx(self.rank as u32, msg.trace);
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "deliver");
        unpack_bytes(&data, msg.len_bytes)
    }

    /// Deliver a detected message to the application. Without the
    /// reliability extension this is unconditional ([`BbpEndpoint::deliver`],
    /// the paper's protocol); with it, the descriptor is re-read as
    /// authoritative, bounds- and CRC-verified, and checked against the
    /// per-sender sequence before a single payload byte is trusted.
    /// Returns `None` when the message was a duplicate/phantom (dropped)
    /// or failed verification (NACKed and re-queued, or dropped once its
    /// verification retries are spent).
    fn consume(&mut self, ctx: &mut ProcCtx, src: usize, msg: PendingMsg) -> Option<Vec<u8>> {
        let Some(rel) = self.config.reliability.clone() else {
            return Some(self.deliver(ctx, src, msg));
        };
        // Quorum mode: epoch fencing. Before trusting a single payload
        // byte, check the *sender's* published view words: traffic from
        // a node whose committed epoch is behind ours (it missed a view
        // change — e.g. it is on the wrong side of a partition) or that
        // claims our epoch with a divergent mask is held back, unacked.
        // A sender *ahead* of us is accepted — we are the laggard and
        // will adopt its view shortly. A zero mask means the sender has
        // not published any view yet (startup) and is accepted too. The
        // message is re-queued paced, not dropped: if the sender is
        // merely adopting late its epoch re-aligns within a tick and the
        // message delivers; if it is genuinely partitioned, the pending
        // entry dies with the pairwise reset when the view change
        // removing the sender commits.
        let fence = match (&self.membership, &self.config.membership) {
            (Some(st), Some(m)) if m.quorum => Some((st.view.epoch, st.view.alive_mask)),
            _ => None,
        };
        if let Some((my_epoch, my_mask)) = fence {
            let vw = self
                .nic
                .read_block(ctx, self.layout.view_epoch_word(src), 2);
            let (src_epoch, src_mask) = (vw[0], vw[1]);
            let stale = src_epoch < my_epoch;
            let divergent = src_epoch == my_epoch && src_mask != 0 && src_mask != my_mask;
            if stale || divergent {
                self.stats.stale_epoch_rejects += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.stale_epoch_rejects", 1);
                ctx.advance(rel.ack_timeout_ns);
                self.pending[src].insert(msg.ext, msg);
                return None;
            }
        }
        // Re-read the descriptor at delivery time: the posting flag only
        // proves *some* toggle replicated; the words we captured at poll
        // time may predate a retransmission repair.
        let desc = self.nic.read_block(
            ctx,
            self.layout.descriptor(src, msg.slot),
            self.layout.desc_words(),
        );
        let (data_off, len_bytes, seq, stored_crc) =
            (desc[0] as usize, desc[1] as usize, desc[2], desc[3]);
        let words = len_bytes.div_ceil(4);
        // Bounds before any data read: a corrupted length or offset must
        // not walk off the end of the sender's data partition.
        let in_bounds = len_bytes <= self.config.max_payload_bytes()
            && data_off <= self.layout.data_words()
            && data_off + words <= self.layout.data_words();
        let mut payload = Vec::new();
        let verified = in_bounds && {
            if words > 0 {
                payload = self
                    .nic
                    .read_block(ctx, self.layout.data_base(src) + data_off, words);
            }
            ctx.advance(rel.checksum_ns);
            crate::crc::descriptor_crc(desc[0], desc[1], desc[2], &payload) == stored_crc
        };
        if !verified {
            return self.reject_corrupt(ctx, src, msg, &rel);
        }
        // Sequence check: reliable sends block per message, so each sender
        // has at most one transfer outstanding and we expect exactly the
        // next sequence or later (later = an earlier send gave up).
        // Anything (wrapping) behind is a duplicate delivery or a phantom
        // flag toggle resurrecting a stale-but-valid descriptor.
        let delta = seq.wrapping_sub(self.expected_seq[src]);
        if delta >= u32::MAX / 2 {
            self.stats.dup_drops += 1;
            ctx.obs()
                .count(ctx.now(), self.rank as u32, "bbp.dup_drops", 1);
            // Anything other than the immediate predecessor (a benign
            // duplicate redelivery of the message we just consumed) is a
            // phantom: a corrupted or stale flag toggle resurrected an
            // old-but-valid descriptor.
            if delta != u32::MAX {
                self.stats.phantom_rejects += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.phantom_rejects", 1);
            }
            return None;
        }
        self.expected_seq[src] = seq.wrapping_add(1);
        // Delivery epilogue — as the unreliable path, but from the
        // already-verified payload copy.
        ctx.obs()
            .span_enter(ctx.now(), self.rank as u32, Layer::Bbp, "deliver");
        ctx.advance(self.config.sw.deliver_ns);
        self.out_ack_flags[src] ^= 1 << msg.slot;
        self.nic.write_word(
            ctx,
            self.layout.ack_flag(src, self.rank),
            self.out_ack_flags[src],
        );
        self.stats.recvs += 1;
        self.stats.bytes_recved += len_bytes as u64;
        ctx.obs().lifecycle(
            ctx.now(),
            self.rank as u32,
            msg.trace,
            Stage::Deliver,
            len_bytes as u64,
        );
        ctx.obs().set_current_rx(self.rank as u32, msg.trace);
        ctx.obs()
            .span_exit(ctx.now(), self.rank as u32, Layer::Bbp, "deliver");
        Some(unpack_bytes(&payload, len_bytes))
    }

    /// A message failed bounds or CRC verification: NACK the sender (our
    /// own word in its partition — single-writer preserved) and requeue
    /// the message for a paced re-read, dropping it for good once
    /// `verify_retries` are spent.
    fn reject_corrupt(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        mut msg: PendingMsg,
        rel: &ReliabilityConfig,
    ) -> Option<Vec<u8>> {
        self.stats.corrupt_detected += 1;
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.corrupt_detected", 1);
        self.out_nack_flags[src] ^= 1 << msg.slot;
        self.nic.write_word(
            ctx,
            self.layout.nack_flag(src, self.rank),
            self.out_nack_flags[src],
        );
        self.stats.nacks_sent += 1;
        msg.tries += 1;
        ctx.obs().lifecycle(
            ctx.now(),
            self.rank as u32,
            msg.trace,
            Stage::NackRepair,
            msg.tries as u64,
        );
        if msg.tries <= rel.verify_retries {
            // Pace the re-read so the sender's repair has time to land.
            ctx.advance(rel.ack_timeout_ns);
            self.pending[src].insert(msg.ext, msg);
        } else {
            self.stats.corrupt_dropped += 1;
            ctx.obs()
                .count(ctx.now(), self.rank as u32, "bbp.corrupt_dropped", 1);
            self.last_drop_src = Some(src);
        }
        None
    }

    // ------------------------------------------------------------------
    // Membership and failure detection
    // ------------------------------------------------------------------

    /// The membership view this endpoint currently holds, or `None` when
    /// the membership extension is off.
    pub fn membership_view(&self) -> Option<MembershipView> {
        self.membership.as_ref().map(|st| st.view)
    }

    /// This endpoint's local grade for `peer` (`None` when the
    /// membership extension is off).
    pub fn peer_health(&self, peer: usize) -> Option<PeerHealth> {
        assert!(peer < self.n, "rank {peer} out of range");
        self.membership.as_ref().map(|st| st.tracks[peer].health)
    }

    /// The always-on detection-latency histograms (`None` when the
    /// membership extension is off). The returned handle is shared:
    /// clone it out before moving the endpoint into its simulated
    /// process and it keeps reading the live distributions.
    pub fn detection_latency(&self) -> Option<Arc<DetectionHists>> {
        self.membership.as_ref().map(|st| Arc::clone(&st.hists))
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
        let Some(mut st) = self.membership.take() else {
            return;
        };
        let cfg = self
            .config
            .membership
            .clone()
            .expect("membership state implies membership config");
        self.tick_inner(ctx, &mut st, &cfg);
        self.membership = Some(st);
    }

    fn tick_inner(&mut self, ctx: &mut ProcCtx, st: &mut MembershipState, cfg: &MembershipConfig) {
        let quorum = cfg.quorum;
        // 0. Quorum: reachability first. The NIC's reachable set tells us
        //    which ring segment we sit in; losing a strict seed majority
        //    freezes us at the committed epoch, and regaining it triggers
        //    the pre-merge scrub. The scrub runs *before* this tick's
        //    heartbeat so per-source FIFO guarantees any survivor that
        //    sees our returning heartbeat already sees our zeroed flag
        //    words — the same ordering the rejoin path relies on.
        if quorum {
            // The segment map is read without a PIO stall, and the caller
            // (a progress engine mid-receive) may still owe software time.
            ctx.settle();
            let reach = self.nic.reachable_set();
            let mut now_cut: Word = 0;
            for r in 0..self.n {
                if r != self.rank && !reach.contains(r) {
                    now_cut |= 1 << r;
                }
            }
            let returned = st.cut_peers & !now_cut;
            st.cut_peers = now_cut;
            let connected = self.n - now_cut.count_ones() as usize;
            let cut_off = connected * 2 <= self.n;
            let mut scrubbed = false;
            if cut_off && !st.partitioned {
                st.partitioned = true;
                if !st.merge_pending {
                    st.frozen_at = st.view.epoch;
                }
                st.proposal = None;
                self.stats.partitions_detected += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.partitions_detected", 1);
                // Grade step series: 3 = Partitioned (self).
                ctx.obs()
                    .gauge(ctx.now(), self.rank as u32, "bbp.membership_grade", 3);
            } else if !cut_off && st.partitioned {
                st.partitioned = false;
                st.merge_pending = true;
                self.scrub_for_merge(ctx);
                scrubbed = true;
                ctx.obs()
                    .gauge(ctx.now(), self.rank as u32, "bbp.membership_grade", 0);
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
            if returned != 0 {
                for r in 0..self.n {
                    if returned & (1 << r) == 0 {
                        continue;
                    }
                    if !scrubbed {
                        self.reset_pairwise(ctx, r);
                    }
                    if st.tracks[r].health != PeerHealth::Alive {
                        ctx.obs()
                            .gauge(ctx.now(), r as u32, "bbp.membership_grade", 0);
                    }
                    st.tracks[r].health = PeerHealth::Alive;
                    st.tracks[r].last_change = ctx.now();
                }
            }
        }
        // 1. Publish our heartbeat on cadence. The first publish also
        //    announces incarnation 1 (one block write keeps both words in
        //    a single packet train). Quorum mode republishes the committed
        //    view words alongside every heartbeat: a bank cut away during
        //    a partition missed our view writes, and only a rewrite can
        //    refresh it after the heal.
        if ctx.now() >= st.next_hb_at {
            st.hb_counter = st.hb_counter.wrapping_add(1);
            let first = st.incarnation == 0;
            if first {
                st.incarnation = 1;
            }
            if quorum {
                self.nic.write_block(
                    ctx,
                    self.layout.hb_word(self.rank),
                    &[
                        st.hb_counter,
                        st.incarnation,
                        st.view.epoch,
                        st.view.alive_mask,
                    ],
                );
            } else if first {
                self.nic.write_block(
                    ctx,
                    self.layout.hb_word(self.rank),
                    &[st.hb_counter, st.incarnation],
                );
            } else {
                self.nic
                    .write_word(ctx, self.layout.hb_word(self.rank), st.hb_counter);
            }
            st.next_hb_at = ctx.now() + cfg.heartbeat_period_ns;
            self.stats.heartbeats += 1;
            ctx.obs()
                .count(ctx.now(), self.rank as u32, "bbp.heartbeats", 1);
        }
        // 2. Scan every peer's member block (one PIO block read each) and
        //    grade its heartbeat staleness against our local bank. Legacy
        //    mode reads only the four words it ever wrote, keeping its
        //    PIO timing identical; quorum mode reads the proposal pair
        //    too.
        let member_words = if quorum {
            crate::layout::MEMBER_WORDS
        } else {
            4
        };
        let mut peer_views: Vec<Option<(Word, Word)>> = vec![None; self.n];
        let mut peer_props: Vec<(Word, Word)> = vec![(0, 0); self.n];
        for (r, view) in peer_views.iter_mut().enumerate() {
            if r == self.rank {
                continue;
            }
            let blk = self
                .nic
                .read_block(ctx, self.layout.member_base(r), member_words);
            let (hb, inc) = (blk[0], blk[1]);
            *view = Some((blk[2], blk[3]));
            if quorum {
                peer_props[r] = (blk[4], blk[5]);
            }
            let t = &mut st.tracks[r];
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
                if t.health == PeerHealth::Alive && stale >= cfg.suspect_after_ns {
                    t.health = PeerHealth::Suspected;
                    self.stats.suspicions += 1;
                    ctx.obs()
                        .count(ctx.now(), self.rank as u32, "bbp.suspicions", 1);
                    st.hists.suspect_ns.record(stale);
                }
                if t.health == PeerHealth::Suspected && stale >= cfg.dead_after_ns {
                    t.health = PeerHealth::Dead;
                    self.stats.deaths += 1;
                    ctx.obs()
                        .count(ctx.now(), self.rank as u32, "bbp.deaths", 1);
                    st.hists.death_ns.record(stale);
                }
            }
            // Grade transitions as a step series keyed by the graded
            // peer: 0 Alive, 1 Suspected, 2 Dead (3 = Partitioned,
            // recorded at the freeze site). The health monitor's
            // `step_rate_below` reads this as a flap detector.
            if t.health != grade_before {
                let grade = match t.health {
                    PeerHealth::Alive => 0,
                    PeerHealth::Suspected => 1,
                    PeerHealth::Dead => 2,
                };
                ctx.obs()
                    .gauge(ctx.now(), r as u32, "bbp.membership_grade", grade);
            }
        }
        // 3. Coordinator duty: the lowest rank we do not grade Dead. If
        //    that is us and our grading disagrees with the view we hold,
        //    propose the next epoch. In quorum mode a peer whose
        //    *published* epoch is behind ours cannot coordinate (it
        //    missed at least one commit — e.g. it just returned from a
        //    partition), and we refuse the duty ourselves whenever a live
        //    peer publishes an epoch past ours.
        let behind = quorum
            && peer_views.iter().enumerate().any(|(r, v)| {
                st.tracks[r].health != PeerHealth::Dead && v.is_some_and(|(e, _)| e > st.view.epoch)
            });
        let coordinator = if quorum {
            // Quorum: the live candidate publishing the *highest* view
            // epoch wins, lowest rank breaking ties. A node returning
            // from a partition (epoch behind the majority's commits)
            // must defer to — and echo — the majority's coordinator, not
            // a fellow returnee that happens to be ranked lower.
            let mut best = (st.view.epoch, self.rank);
            for (r, view) in peer_views.iter().enumerate() {
                if r == self.rank || st.tracks[r].health == PeerHealth::Dead {
                    continue;
                }
                let Some((e, _)) = *view else { continue };
                if e > best.0 || (e == best.0 && r < best.1) {
                    best = (e, r);
                }
            }
            best.1
        } else {
            (0..self.n)
                .find(|&r| r == self.rank || st.tracks[r].health != PeerHealth::Dead)
                .expect("we never grade ourselves dead")
        };
        if coordinator == self.rank && !(quorum && (st.partitioned || behind)) {
            let mut desired: Word = 0;
            for r in 0..self.n {
                if r == self.rank || st.tracks[r].health != PeerHealth::Dead {
                    desired |= 1 << r;
                }
            }
            // A merge (healed partition) forces a fresh commit even when
            // the mask is unchanged — the new epoch is the single point
            // the re-joined halves agree on.
            if desired != st.view.alive_mask || (quorum && st.merge_pending) {
                let epoch = st.view.epoch + 1;
                if !quorum {
                    self.apply_view(
                        ctx,
                        st,
                        MembershipView {
                            epoch,
                            alive_mask: desired,
                        },
                    );
                } else {
                    // Quorum: publish the proposal through our prop words
                    // and commit only once a strict majority of the seed
                    // has echoed it verbatim. Our own echo promise binds
                    // us too: if we already acked a different mask at
                    // this epoch we keep pushing that one to completion.
                    let (pep, pmask) = match st.echoed {
                        Some((e, m)) if e == epoch => (e, m),
                        _ => (epoch, desired),
                    };
                    if st.proposal != Some((pep, pmask)) {
                        st.proposal = Some((pep, pmask));
                        st.echoed = Some((pep, pmask));
                        self.nic.write_block(
                            ctx,
                            self.layout.prop_epoch_word(self.rank),
                            &[pep, pmask],
                        );
                    }
                    let mut acks = 1usize; // our own
                    for (r, prop) in peer_props.iter().enumerate() {
                        if r != self.rank && *prop == (pep, pmask) {
                            acks += 1;
                        }
                    }
                    if acks * 2 > self.n {
                        self.apply_view(
                            ctx,
                            st,
                            MembershipView {
                                epoch: pep,
                                alive_mask: pmask,
                            },
                        );
                        st.proposal = None;
                    }
                }
            } else {
                st.proposal = None;
            }
        }
        // 3b. Quorum member duty: echo the coordinator's outstanding
        //     proposal through our own prop words — the ack the commit
        //     round counts. At most one mask per proposed epoch: the
        //     promise that makes two divergent commits at one epoch
        //     impossible. A partitioned node echoes nothing.
        if quorum && !st.partitioned && coordinator != self.rank {
            let (pe, pm) = peer_props[coordinator];
            let contains_us = pm & (1 << self.rank) != 0;
            let already_promised_other = st.echoed.is_some_and(|(e, m)| e == pe && m != pm);
            if pe > st.view.epoch
                && contains_us
                && !already_promised_other
                && st.echoed != Some((pe, pm))
            {
                st.echoed = Some((pe, pm));
                self.nic
                    .write_block(ctx, self.layout.prop_epoch_word(self.rank), &[pe, pm]);
            }
        }
        // 4. Adoption: a strictly newer view from a peer we do not grade
        //    Dead, still containing us, supersedes ours (highest epoch
        //    wins — epochs only increase, so everyone converges). A
        //    partitioned node adopts nothing (frozen at its last
        //    committed epoch); a merge-pending node adopts only once
        //    every member of the readmitting view has republished it —
        //    their view echoes FIFO-follow their pairwise resets toward
        //    us, so our scrubbed shadows are safe to poll the moment we
        //    unfreeze.
        let mut best: Option<MembershipView> = None;
        for (r, view) in peer_views.iter().enumerate() {
            let Some((epoch, mask)) = *view else {
                continue;
            };
            if st.tracks[r].health == PeerHealth::Dead {
                continue;
            }
            if epoch > st.view.epoch
                && mask & (1 << self.rank) != 0
                && best.is_none_or(|b| epoch > b.epoch)
            {
                best = Some(MembershipView {
                    epoch,
                    alive_mask: mask,
                });
            }
        }
        if let Some(v) = best {
            if quorum && st.partitioned {
                // frozen: no view changes while cut off
            } else if quorum && st.merge_pending {
                // Unfreeze only when every member of the readmitting
                // view has visibly restarted its channel toward us:
                // either it adopted and republished the view (its
                // heal-time or admitted-member reset FIFO-precedes that
                // write), or it is a fellow frozen node — still at an
                // epoch no newer than our freeze point — whose prop-word
                // echo of this very view FIFO-follows its own heal-time
                // scrub. Without the second branch two merge-pending
                // nodes would wait on each other's republish forever.
                let all_members_echo = (0..self.n).all(|r| {
                    r == self.rank
                        || v.alive_mask & (1 << r) == 0
                        || peer_views[r] == Some((v.epoch, v.alive_mask))
                        || (peer_views[r].is_some_and(|(e, _)| e <= st.frozen_at)
                            && peer_props[r] == (v.epoch, v.alive_mask))
                });
                if all_members_echo {
                    self.apply_view(ctx, st, v);
                }
            } else {
                self.apply_view(ctx, st, v);
            }
        }
    }

    /// A partition around this node just healed: scrub every pairwise
    /// channel and all local send state, exactly as a rejoining node
    /// does. Runs *before* the next heartbeat publish, so per-source
    /// FIFO replication shows every survivor our zeroed flag words no
    /// later than the returning heartbeat that makes it look.
    fn scrub_for_merge(&mut self, ctx: &mut ProcCtx) {
        for r in 0..self.n {
            if r != self.rank {
                self.reset_pairwise(ctx, r);
            }
        }
        self.slots
            .iter_mut()
            .for_each(|s| *s = SlotState::default());
        self.inflight.clear();
        self.data_head = 0;
        self.next_seq = 0;
        if let Some(cr) = &self.config.credit {
            self.credit_avail.fill(cr.per_peer);
        }
        self.deferred_msgs.fill(0);
    }

    /// Install `view` (an epoch strictly past the one we hold): reset
    /// pairwise protocol state toward newly admitted members *before*
    /// publishing the epoch through our own view words — per-source FIFO
    /// replication then guarantees every peer that sees our echo also
    /// sees our zeroed flag words — then grade newly removed members
    /// Dead and engage their ring bypass, detection's effect on the
    /// hardware (the ring heals around the dead node's hop).
    fn apply_view(&mut self, ctx: &mut ProcCtx, st: &mut MembershipState, view: MembershipView) {
        debug_assert!(view.epoch > st.view.epoch);
        let quorum = self.config.membership.as_ref().is_some_and(|m| m.quorum);
        let admitted = view.alive_mask & !st.view.alive_mask;
        let removed = st.view.alive_mask & !view.alive_mask;
        for r in 0..self.n {
            if r != self.rank && admitted & (1 << r) != 0 {
                self.reset_pairwise(ctx, r);
                st.tracks[r].health = PeerHealth::Alive;
                st.tracks[r].last_change = ctx.now();
            }
        }
        // Quorum merge: committing or adopting an epoch past the one we
        // froze at completes the heal — unfreeze.
        if quorum && st.merge_pending && view.epoch > st.frozen_at {
            st.merge_pending = false;
        }
        st.view = view;
        self.nic.write_block(
            ctx,
            self.layout.view_epoch_word(self.rank),
            &[view.epoch, view.alive_mask],
        );
        for r in 0..self.n {
            if r != self.rank && removed & (1 << r) != 0 {
                st.tracks[r].health = PeerHealth::Dead;
                // Quorum mode distinguishes "dead" from "unreachable": a
                // removed peer on the far side of a partition is likely
                // alive, and its insertion register must stay in the ring
                // so its own segment keeps functioning. Only a peer we
                // can still reach — i.e. one that genuinely fell silent
                // inside our segment — gets bypassed.
                if !quorum || self.nic.peer_reachable(r) {
                    self.nic.engage_bypass(r);
                }
            }
        }
        self.stats.epoch_bumps += 1;
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.epoch_bumps", 1);
    }

    /// Zero every word we own in `peer`'s flag blocks and every local
    /// shadow of `peer`'s toggles, restarting the pairwise channel from
    /// the all-zero state a rejoining peer re-initialized on its side.
    /// In-flight sends that were waiting on this peer resolve through
    /// the zeroed expectations on the next GC sweep.
    fn reset_pairwise(&mut self, ctx: &mut ProcCtx, peer: usize) {
        self.out_msg_flags[peer] = 0;
        self.nic
            .write_word(ctx, self.layout.msg_flag(peer, self.rank), 0);
        self.out_ack_flags[peer] = 0;
        self.nic
            .write_word(ctx, self.layout.ack_flag(peer, self.rank), 0);
        if self.config.reliability.is_some() {
            self.out_nack_flags[peer] = 0;
            self.nic
                .write_word(ctx, self.layout.nack_flag(peer, self.rank), 0);
            self.nack_shadow[peer] = 0;
            self.expected_seq[peer] = 0;
        }
        self.ack_expect[peer] = 0;
        self.shadow_msg[peer] = 0;
        self.ext_seq_hi[peer] = 0;
        self.pending[peer].clear();
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
        let cfg = self
            .config
            .membership
            .clone()
            .expect("rejoin requires the membership extension");
        let mut st = self
            .membership
            .take()
            .expect("membership config implies membership state");
        let result = self.rejoin_inner(ctx, &mut st, &cfg, wait_ns);
        self.membership = Some(st);
        result
    }

    fn rejoin_inner(
        &mut self,
        ctx: &mut ProcCtx,
        st: &mut MembershipState,
        cfg: &MembershipConfig,
        wait_ns: des::Time,
    ) -> Result<MembershipView, BbpError> {
        self.nic.reinsert_self();
        // Re-initialize our side of every pairwise channel, and all local
        // protocol state with it (a fresh endpoint is zeroed already;
        // zeroing the *bank* words is what matters to the survivors).
        for r in 0..self.n {
            if r != self.rank {
                self.reset_pairwise(ctx, r);
            }
        }
        self.slots
            .iter_mut()
            .for_each(|s| *s = SlotState::default());
        self.inflight.clear();
        self.data_head = 0;
        self.next_seq = 0;
        if let Some(cr) = &self.config.credit {
            self.credit_avail.fill(cr.per_peer);
        }
        self.deferred_msgs.fill(0);
        // Announce the rejoin: a new incarnation, written after the
        // zeroed flag words so per-source FIFO shows every survivor a
        // clean channel before the announcement that makes it look.
        let prev_inc = self
            .nic
            .read_word(ctx, self.layout.incarnation_word(self.rank));
        st.hb_counter = 1;
        st.incarnation = prev_inc.wrapping_add(1).max(1);
        st.view = MembershipView {
            epoch: 0,
            alive_mask: 0,
        };
        st.partitioned = false;
        st.merge_pending = false;
        st.frozen_at = 0;
        st.proposal = None;
        st.echoed = None;
        if cfg.quorum {
            // Also zero the proposal pair: an echo left by our previous
            // incarnation must never be counted toward a fresh commit.
            self.nic.write_block(
                ctx,
                self.layout.member_base(self.rank),
                &[st.hb_counter, st.incarnation, 0, 0, 0, 0],
            );
        } else {
            self.nic.write_block(
                ctx,
                self.layout.member_base(self.rank),
                &[st.hb_counter, st.incarnation, 0, 0],
            );
        }
        st.next_hb_at = ctx.now() + cfg.heartbeat_period_ns;
        self.stats.heartbeats += 1;
        ctx.obs()
            .count(ctx.now(), self.rank as u32, "bbp.heartbeats", 1);
        // Wait for readmission: a view containing us, echoed identically
        // by every *other* member it names (their echoes FIFO-follow
        // their pairwise resets toward us, so traffic can start the
        // moment we adopt).
        let deadline = ctx.now().saturating_add(wait_ns);
        loop {
            let mut candidate: Option<MembershipView> = None;
            for r in 0..self.n {
                if r == self.rank {
                    continue;
                }
                let vw = self.nic.read_block(ctx, self.layout.view_epoch_word(r), 2);
                let (epoch, mask) = (vw[0], vw[1]);
                if mask & (1 << self.rank) != 0
                    && epoch > 0
                    && candidate.is_none_or(|c| epoch > c.epoch)
                {
                    candidate = Some(MembershipView {
                        epoch,
                        alive_mask: mask,
                    });
                }
            }
            if let Some(v) = candidate {
                let mut echoed_by_all = true;
                for r in 0..self.n {
                    if r == self.rank || v.alive_mask & (1 << r) == 0 {
                        continue;
                    }
                    let vw = self.nic.read_block(ctx, self.layout.view_epoch_word(r), 2);
                    if vw[0] != v.epoch || vw[1] != v.alive_mask {
                        echoed_by_all = false;
                        break;
                    }
                }
                if echoed_by_all {
                    st.view = v;
                    self.nic.write_block(
                        ctx,
                        self.layout.view_epoch_word(self.rank),
                        &[v.epoch, v.alive_mask],
                    );
                    for r in 0..self.n {
                        if r == self.rank {
                            continue;
                        }
                        st.tracks[r].health = if v.is_alive(r) {
                            PeerHealth::Alive
                        } else {
                            PeerHealth::Dead
                        };
                        st.tracks[r].last_change = ctx.now();
                    }
                    self.stats.epoch_bumps += 1;
                    ctx.obs()
                        .count(ctx.now(), self.rank as u32, "bbp.epoch_bumps", 1);
                    return Ok(v);
                }
            }
            if ctx.now() >= deadline {
                let peer = (0..self.n).find(|&r| r != self.rank).unwrap_or(0);
                return Err(BbpError::Timeout { peer, attempts: 0 });
            }
            // Keep heartbeating so the survivors' detectors see us.
            if ctx.now() >= st.next_hb_at {
                st.hb_counter = st.hb_counter.wrapping_add(1);
                self.nic
                    .write_word(ctx, self.layout.hb_word(self.rank), st.hb_counter);
                st.next_hb_at = ctx.now() + cfg.heartbeat_period_ns;
                self.stats.heartbeats += 1;
                ctx.obs()
                    .count(ctx.now(), self.rank as u32, "bbp.heartbeats", 1);
            }
            ctx.advance(cfg.heartbeat_period_ns / 2 + 1);
        }
    }
}

/// Pack bytes into little-endian words, zero-padding the tail.
#[cfg(test)]
fn pack_words(bytes: &[u8]) -> Vec<Word> {
    let mut out = Vec::new();
    pack_words_into(bytes, &mut out);
    out
}

/// [`pack_words`] into a reused buffer (no allocation once the buffer's
/// capacity has warmed up to the payload size).
fn pack_words_into(bytes: &[u8], out: &mut Vec<Word>) {
    out.clear();
    out.extend(bytes.chunks(4).map(|c| {
        let mut w = [0u8; 4];
        w[..c.len()].copy_from_slice(c);
        Word::from_le_bytes(w)
    }));
}

/// Inverse of [`pack_words`], truncating to `len` bytes.
fn unpack_bytes(words: &[Word], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Extend a wrapping 32-bit sequence number against the highest extended
/// sequence seen so far. In-flight windows are tiny (≤ 32 buffers), so any
/// candidate within half the 32-bit space forward of `hi` is "new".
fn extend_seq(hi: u64, seq: u32) -> u64 {
    let hi_low = hi as u32;
    let delta = seq.wrapping_sub(hi_low);
    if delta < u32::MAX / 2 {
        hi + delta as u64
    } else {
        hi - hi_low.wrapping_sub(seq) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- circular-allocator unit tests (internal state access) ----

    fn test_endpoint(data_words: usize, bufs: usize) -> (des::Simulation, BbpEndpoint) {
        let sim = des::Simulation::new();
        let mut config = crate::BbpConfig::for_nodes(2);
        config.data_words = data_words;
        config.bufs_per_proc = bufs;
        let ring = scramnet::Ring::new(
            &sim.handle(),
            2,
            crate::Layout::new(&config).total_words(),
            scramnet::CostModel::default(),
        );
        let ep = BbpEndpoint::new(ring.nic(0), 0, config, None, None);
        (sim, ep)
    }

    /// Simulate an allocation bookkeeping-only (no ctx needed): mark the
    /// slot busy and push it in flight, as `post` would.
    fn take(ep: &mut BbpEndpoint, words: usize) -> Option<usize> {
        let (slot, off) = ep.try_allocate_ring(words)?;
        ep.slots[slot].busy = true;
        ep.slots[slot].data_off = off;
        ep.slots[slot].words = words;
        ep.inflight.push_back(slot);
        Some(off)
    }

    fn release_front(ep: &mut BbpEndpoint) {
        let slot = ep.inflight.pop_front().expect("something in flight");
        ep.slots[slot].busy = false;
    }

    #[test]
    fn ring_allocator_is_contiguous_and_bumping() {
        let (_sim, mut ep) = test_endpoint(64, 8);
        assert_eq!(take(&mut ep, 10), Some(0));
        assert_eq!(take(&mut ep, 10), Some(10));
        assert_eq!(take(&mut ep, 10), Some(20));
    }

    #[test]
    fn ring_allocator_wraps_after_frees() {
        let (_sim, mut ep) = test_endpoint(64, 8);
        assert_eq!(take(&mut ep, 30), Some(0));
        assert_eq!(take(&mut ep, 30), Some(30));
        // 4 words left at the end: a 10-word request fails...
        assert_eq!(take(&mut ep, 10), None);
        // ...until the oldest buffer frees, letting it wrap to offset 0.
        release_front(&mut ep);
        assert_eq!(take(&mut ep, 10), Some(0));
    }

    #[test]
    fn ring_allocator_never_overruns_the_tail() {
        let (_sim, mut ep) = test_endpoint(64, 8);
        assert_eq!(take(&mut ep, 30), Some(0));
        assert_eq!(take(&mut ep, 30), Some(30));
        release_front(&mut ep); // tail now at 30
        assert_eq!(take(&mut ep, 20), Some(0));
        // Head=20, tail=30: exactly 10 free, but head==tail is reserved
        // (full/empty ambiguity) so a 10-word request must fail...
        assert_eq!(take(&mut ep, 10), None);
        // ...while a 9-word request fits.
        assert_eq!(take(&mut ep, 9), Some(20));
    }

    #[test]
    fn ring_allocator_exhausts_descriptor_slots() {
        let (_sim, mut ep) = test_endpoint(1024, 2);
        assert!(take(&mut ep, 1).is_some());
        assert!(take(&mut ep, 1).is_some());
        assert_eq!(take(&mut ep, 1), None, "only 2 slots");
        release_front(&mut ep);
        assert!(take(&mut ep, 1).is_some());
    }

    #[test]
    fn zero_word_allocations_need_only_a_slot() {
        let (_sim, mut ep) = test_endpoint(8, 4);
        assert_eq!(take(&mut ep, 8), Some(0)); // fills the partition
        assert!(take(&mut ep, 0).is_some(), "empty message still sends");
    }

    #[test]
    fn pack_unpack_round_trip() {
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let words = pack_words(&bytes);
            assert_eq!(words.len(), len.div_ceil(4));
            assert_eq!(unpack_bytes(&words, len), bytes);
        }
    }

    #[test]
    fn pack_pads_with_zeros() {
        let words = pack_words(&[0xFF]);
        assert_eq!(words, vec![0x0000_00FF]);
    }

    #[test]
    fn extend_seq_monotonic_without_wrap() {
        assert_eq!(extend_seq(0, 0), 0);
        assert_eq!(extend_seq(0, 5), 5);
        assert_eq!(extend_seq(10, 12), 12);
    }

    #[test]
    fn extend_seq_handles_wraparound() {
        let hi = u32::MAX as u64; // last seq seen = u32::MAX
        let ext = extend_seq(hi, 2); // wrapped to 2
        assert_eq!(ext, u32::MAX as u64 + 3);
    }

    #[test]
    fn extend_seq_handles_reordered_lower_values() {
        // A slightly older seq (possible across different slots in one
        // poll) maps below hi, not 2^32 ahead.
        assert_eq!(extend_seq(100, 99), 99);
    }
}
