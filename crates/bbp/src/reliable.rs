//! The reliability extension: per-message CRC verification, NACK-driven
//! repair, per-sender sequence filtering and bounded timeout/retry/backoff
//! layered over [`Core`]'s steps (`docs/RELIABILITY.md` has the fault
//! model).
//!
//! [`Reliable`] owns the words and shadows the extension adds and reaches
//! the core through its neutral hooks: the fourth descriptor word
//! ([`Reliable::seal`]), the stall deadlines, the sweep run inside a
//! collection ([`Reliable::sweep_quarantined`]) and the pre-checked
//! payload a delivery can be handed ([`Reliable::verify_and_deliver`]).

use des::obs::Stage;
use des::{ProcCtx, Time};
use scramnet::Word;

use crate::config::{GcPolicy, ReliabilityConfig, BACKOFF_FACTOR, CHECKSUM_NS, GC_RETRY_GAP_NS};
use crate::core::{Core, PendingMsg};
use crate::crc::descriptor_crc;
use crate::error::BbpError;

/// Reliable-mode state for one endpoint.
pub(crate) struct Reliable {
    pub cfg: ReliabilityConfig,
    /// Last processed value of `nack_flag(me, r)` per receiver `r` (a
    /// toggle against this shadow is a repair request).
    nack_shadow: Vec<Word>,
    /// Our copy of `nack_flag(s, me)` per sender `s`.
    out_nack_flags: Vec<Word>,
    /// The next raw sequence number we will accept from each sender —
    /// anything (wrapping) behind it is a duplicate or a phantom from a
    /// corrupted flag word.
    expected_seq: Vec<Word>,
    /// The source of the most recent corrupt-exhausted drop, which a
    /// blocking receive reports as `Corrupt` rather than `Timeout`.
    pub last_drop_src: Option<usize>,
    /// Bit `s` set ⇔ slot `s`'s send exhausted its retries and its data
    /// space was rolled back, but a late ACK toggle from a still-alive
    /// target could yet land: the descriptor slot stays busy, out of the
    /// in-flight queue, until every unacknowledged target's expectation is
    /// resolved by [`Reliable::sweep_quarantined`].
    quarantined: Word,
}

impl Reliable {
    pub(crate) fn new(cfg: ReliabilityConfig, n: usize) -> Self {
        Reliable {
            cfg,
            nack_shadow: vec![0; n],
            out_nack_flags: vec![0; n],
            expected_seq: vec![0; n],
            last_drop_src: None,
            quarantined: 0,
        }
    }

    /// When a send that starts stalling now must give up: a dead peer
    /// holding every buffer un-acknowledged cannot wedge the sender
    /// longer than [`ReliabilityConfig::max_send_wait_ns`].
    pub(crate) fn send_deadline(&self, ctx: &ProcCtx) -> Time {
        ctx.now().saturating_add(self.cfg.max_send_wait_ns())
    }

    /// The fourth descriptor word for `slot`: a CRC over the descriptor
    /// fields and the staged payload. The checksum lives in our own
    /// partition — single-writer preserved.
    pub(crate) fn seal(&self, ctx: &mut ProcCtx, core: &Core, slot: usize) -> Word {
        ctx.advance(CHECKSUM_NS);
        let s = &core.slots[slot];
        descriptor_crc(s.data_off as Word, s.len_bytes as Word, s.seq, &core.staged)
    }

    /// Block until every target acknowledges `slot`, retransmitting with
    /// exponential backoff; classify exhaustion as [`BbpError::PeerDown`]
    /// (target bypassed), [`BbpError::Corrupt`] (target kept NACKing), or
    /// [`BbpError::Timeout`]. `in_wait` runs once per probe gap and can
    /// abort the wait with its own error. Every `Err` leaves the slot
    /// reclaimed.
    pub(crate) fn confirm(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        slot: usize,
        targets: &[usize],
        payload: &[u8],
        mut in_wait: impl FnMut(&mut Core, &mut Self, &mut ProcCtx) -> Result<(), BbpError>,
    ) -> Result<(), BbpError> {
        let bit = 1u32 << slot;
        let mut timeout = self.cfg.ack_timeout_ns;
        let mut nack_seen = false;
        for attempt in 0..=self.cfg.max_retries {
            let deadline = ctx.now() + timeout;
            loop {
                let mut all_acked = true;
                let mut repair = false;
                for &r in targets {
                    if core.read_ack(ctx, r) & bit != core.ack_expect[r] & bit {
                        all_acked = false;
                    }
                    let nack = core.io.read_word(ctx, core.layout.nack_flag(core.rank, r));
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
                ctx.advance(GC_RETRY_GAP_NS);
                if let Err(e) = in_wait(core, self, ctx) {
                    self.reclaim_failed(core, slot);
                    return Err(e);
                }
            }
            if attempt < self.cfg.max_retries {
                self.retransmit(ctx, core, slot, targets, payload);
                timeout = timeout.saturating_mul(BACKOFF_FACTOR);
            }
        }
        // Budget exhausted. Classify the failure, then eagerly roll the
        // slot's data space back out of the allocator — a dead peer must
        // not strand the partition behind an un-acknowledged buffer.
        for &r in targets {
            if core.read_ack(ctx, r) & bit == core.ack_expect[r] & bit {
                continue; // this target did acknowledge
            }
            self.reclaim_failed(core, slot);
            return Err(if !core.io.peer_alive(r) {
                BbpError::PeerDown { peer: r }
            } else if nack_seen {
                BbpError::Corrupt { peer: r }
            } else {
                BbpError::Timeout {
                    peer: r,
                    attempts: self.cfg.max_retries + 1,
                }
            });
        }
        Ok(()) // the last poll raced an ACK in: delivered after all
    }

    /// A send exhausted its retry budget: recover its resources. Reliable
    /// sends serialize, so the failed slot is always the *newest*
    /// allocation — popping it off the back of the in-flight queue and
    /// (under [`GcPolicy::FifoRing`]) rolling the allocator head back to
    /// its offset returns the data space immediately. The descriptor slot
    /// itself stays quarantined (still busy) until a sweep resolves every
    /// unacknowledged target: a late ACK toggle from a slow-but-alive
    /// receiver must not be misread against a reused slot bit.
    fn reclaim_failed(&mut self, core: &mut Core, slot: usize) {
        let popped = core.inflight.pop_back();
        debug_assert_eq!(popped, Some(slot), "failed send is the newest allocation");
        if core.gc_policy == GcPolicy::FifoRing {
            core.data_head = core.slots[slot].data_off;
        }
        self.quarantined |= 1 << slot;
    }

    /// Rewrite `slot`'s payload, descriptor, and MESSAGE flags at their
    /// current *absolute* values. Receivers that already processed the
    /// original see identical words (no phantom redelivery); receivers
    /// that lost any part of it — dropped packet, stall window, break,
    /// corrupted replica — get a fresh, complete copy. Absolute rewrite
    /// rather than re-toggling is what makes retransmission idempotent
    /// under the flag-toggle discipline.
    fn retransmit(
        &self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        slot: usize,
        targets: &[usize],
        payload: &[u8],
    ) {
        let rank = core.rank as u32;
        core.stats.retries += 1;
        core.count(ctx, "bbp.retries", 1);
        // Re-publish the slot's original trace id for the duration of
        // the rewrite, so its repair packets join the same flow chain.
        let trace = core.slots[slot].trace;
        let prev = ctx.obs().current_trace(rank);
        ctx.obs().set_current_trace(rank, trace);
        core.lifecycle(ctx, trace, Stage::Retry, slot as u64);
        core.write_payload(ctx, core.slots[slot].data_off, payload);
        let crc = self.seal(ctx, core, slot);
        core.write_descriptor(ctx, slot, Some(crc));
        for &t in targets {
            core.write_flag(ctx, t);
        }
        ctx.obs().set_current_trace(rank, prev);
    }

    /// Resolve quarantined slots, inside a collection sweep: each
    /// unacknowledged target either delivered its late ACK (the toggle
    /// now matches) or is out of the ring and can never deliver it — in
    /// which case our expectation is resynced to the bank's current value
    /// (a bypassed source produces no further toggles). A fully resolved
    /// slot returns to the free pool; its data space was already rolled
    /// back by [`Reliable::reclaim_failed`]. Returns how many it freed.
    pub(crate) fn sweep_quarantined(&mut self, core: &mut Core, ctx: &mut ProcCtx) -> usize {
        let mut freed = 0;
        for slot in 0..core.slots.len() {
            let bit = 1u32 << slot;
            if self.quarantined & bit == 0 {
                continue;
            }
            let mut resolved = true;
            for i in 0..core.slots[slot].targets.len() {
                let r = core.slots[slot].targets[i];
                let word = core.read_ack(ctx, r);
                if word & bit == core.ack_expect[r] & bit {
                    continue; // late ACK landed (or this target had acked)
                }
                if !core.io.peer_alive(r) {
                    core.ack_expect[r] = (core.ack_expect[r] & !bit) | (word & bit);
                    continue;
                }
                resolved = false;
            }
            if resolved {
                self.quarantined &= !bit;
                core.slots[slot].busy = false;
                core.stats.failed_slot_reclaims += 1;
                core.count(ctx, "bbp.failed_slot_reclaims", 1);
                freed += 1;
            }
        }
        freed
    }

    /// Deliver a detected message only once it checks out: the descriptor
    /// is re-read as authoritative, bounds- and CRC-verified, and checked
    /// against the per-sender sequence before a single payload byte is
    /// trusted. Returns the delivered length ([`Core::deliver`]), or
    /// `None` when the message was a duplicate/phantom (dropped) or failed
    /// verification (NACKed and re-queued, or dropped once its
    /// verification retries are spent).
    pub(crate) fn verify_and_deliver(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        src: usize,
        mut msg: PendingMsg,
    ) -> Option<usize> {
        // Re-read the descriptor at delivery time: the posting flag only
        // proves *some* toggle replicated; the words we captured at poll
        // time may predate a retransmission repair.
        let desc = core.read_descriptor(ctx, src, msg.slot);
        let (data_off, len_bytes, seq, stored_crc) =
            (desc[0] as usize, desc[1] as usize, desc[2], desc[3]);
        let words = len_bytes.div_ceil(4);
        // Bounds before any data read: a corrupted length or offset must
        // not walk off the end of the sender's data partition.
        let in_bounds = core.check_size(len_bytes).is_ok()
            && data_off <= core.layout.data_words()
            && data_off + words <= core.layout.data_words();
        let verified = in_bounds && {
            core.read_payload(ctx, src, data_off, words);
            ctx.advance(CHECKSUM_NS);
            descriptor_crc(desc[0], desc[1], desc[2], &core.payload) == stored_crc
        };
        if !verified {
            self.reject_corrupt(ctx, core, src, msg);
            return None;
        }
        // Sequence check: reliable sends block per message, so each sender
        // has at most one transfer outstanding and we expect exactly the
        // next sequence or later (later = an earlier send gave up).
        // Anything (wrapping) behind is a duplicate delivery or a phantom
        // flag toggle resurrecting a stale-but-valid descriptor.
        let delta = seq.wrapping_sub(self.expected_seq[src]);
        if delta >= u32::MAX / 2 {
            core.stats.dup_drops += 1;
            core.count(ctx, "bbp.dup_drops", 1);
            // Anything other than the immediate predecessor (a benign
            // duplicate redelivery of the message we just consumed) is a
            // phantom: a corrupted or stale flag toggle resurrected an
            // old-but-valid descriptor.
            if delta != u32::MAX {
                core.stats.phantom_rejects += 1;
                core.count(ctx, "bbp.phantom_rejects", 1);
            }
            return None;
        }
        self.expected_seq[src] = seq.wrapping_add(1);
        msg.len_bytes = len_bytes;
        Some(core.deliver(ctx, src, &msg, true))
    }

    /// A message failed bounds or CRC verification: NACK the sender (our
    /// own word in its partition — single-writer preserved) and requeue
    /// the message for a paced re-read, dropping it for good once
    /// `verify_retries` are spent.
    fn reject_corrupt(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        src: usize,
        mut msg: PendingMsg,
    ) {
        core.stats.corrupt_detected += 1;
        core.count(ctx, "bbp.corrupt_detected", 1);
        self.out_nack_flags[src] ^= 1 << msg.slot;
        core.io.nack_flag(ctx, src, self.out_nack_flags[src]);
        core.stats.nacks_sent += 1;
        msg.tries += 1;
        core.lifecycle(ctx, msg.trace, Stage::NackRepair, msg.tries as u64);
        if msg.tries <= self.cfg.verify_retries {
            // Pace the re-read so the sender's repair has time to land.
            ctx.advance(self.cfg.ack_timeout_ns);
            core.requeue(src, msg);
        } else {
            core.stats.corrupt_dropped += 1;
            core.count(ctx, "bbp.corrupt_dropped", 1);
            self.last_drop_src = Some(src);
        }
    }

    /// [`Core::reset_channel`]'s counterpart for the NACK word and shadows.
    pub(crate) fn reset_channel(&mut self, ctx: &mut ProcCtx, core: &Core, peer: usize) {
        self.out_nack_flags[peer] = 0;
        core.io.nack_flag(ctx, peer, 0);
        self.nack_shadow[peer] = 0;
        self.expected_seq[peer] = 0;
    }

    /// With [`Core::reset_send_state`]: no slot is quarantined any more.
    pub(crate) fn reset_send_state(&mut self) {
        self.quarantined = 0;
    }
}
