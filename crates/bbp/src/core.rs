//! The paper's protocol and nothing else: `bbp_Send`, `bbp_Recv`,
//! `bbp_Mcast` and `bbp_MsgAvail` over single-writer flag, descriptor and
//! data words (paper §3). [`Core`] owns the state the paper's safety
//! argument is about and the steps a send and a receive are made of:
//!
//! | step              | shared words touched                                 |
//! |-------------------|------------------------------------------------------|
//! | [`Core::stage`]   | our data partition (payload block)                   |
//! | [`Core::publish`] | our descriptor slot                                  |
//! | [`Core::flag`]    | `msg_flag(receiver, me)`, one word per receiver      |
//! | [`Core::gc`]      | reads `ack_flag(me, receiver)`                       |
//! | [`Core::poll`]    | reads `msg_flag(me, sender)` and its descriptors     |
//! | [`Core::deliver`] | reads the sender's data, writes `ack_flag(sender, me)` |
//!
//! Every word above has one writer: the steps write through [`Writer`]'s
//! roles, which name only our own words. Between calls the steps keep:
//!
//! * `ack_expect[r]` bit `s` differs from the bank's `ack_flag(me, r)` bit
//!   `s` iff slot `s` holds a message `r` has not acknowledged;
//! * `inflight` lists the busy slots whose data space is still allocated,
//!   in allocation order; `data_head` is the first free word after them;
//! * `shadow_msg[s]` is the last `msg_flag(me, s)` value whose toggles
//!   have all become `pending[s]` entries.

use std::collections::{BTreeMap, VecDeque};

use des::obs::{Layer, Stage};
use des::{ProcCtx, RoundGuard, Signal, Ticket, Time};
use scramnet::Word;

use crate::config::{
    BbpConfig, GcPolicy, RecvMode, ALLOC_NS, DELIVER_NS, GC_PROBE_NS, GC_RETRY_GAP_NS, MATCH_NS,
    MCAST_TARGET_NS, POLL_ITER_NS,
};
use crate::endpoint::EndpointStats;
use crate::error::BbpError;
use crate::layout::{Layout, Writer};

/// When a posted message's `MESSAGE` flag toggles reach the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Doorbell {
    /// Write each receiver's flag word as part of the post (the paper).
    Now,
    /// Toggle our local copy only; a later flag-word write publishes it.
    Deferred,
}

/// How a sleep until flagged ([`crate::BbpEndpoint::sleep_until_flagged`])
/// ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slept {
    /// A flag word changed: the sweep that saw it was finished, and what
    /// it flagged is waiting for the next receive.
    Flagged,
    /// The guard held at the end of a sweep that found nothing.
    Guarded,
}

/// The ticket to sleep on for an interrupt `watch`: the one its last sweep
/// took, or one taken now if none has been since the last wait.
fn ticket_of(ctx: &mut ProcCtx, watch: &mut Option<(Signal, Option<Ticket>)>) -> Ticket {
    let (signal, ticket) = watch
        .as_mut()
        .expect("interrupt mode endpoints arm watches");
    ticket.take().unwrap_or_else(|| ctx.ticket(signal))
}

/// What a blocked call is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Acknowledgements, to free buffer space.
    ForAcks,
    /// New `MESSAGE` flags.
    ForTraffic,
}

/// One message buffer slot's sender-side state.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotState {
    pub busy: bool,
    /// Word offset of the payload inside our data partition.
    pub data_off: usize,
    /// Payload length in bytes (the descriptor's length field).
    pub len_bytes: usize,
    /// The sequence number this slot's descriptor carries.
    pub seq: Word,
    /// Receivers that must acknowledge before reuse.
    pub targets: Vec<usize>,
    /// The trace id the message carried when posted (0 = untraced).
    pub trace: u64,
}

/// A message detected by a poll but not yet delivered to the application.
#[derive(Debug, Clone)]
pub(crate) struct PendingMsg {
    pub slot: usize,
    pub data_off: usize,
    pub len_bytes: usize,
    /// This entry's key in the pending map.
    ext: u64,
    /// Hand-over attempts put off so far.
    pub tries: u32,
    /// The sender's trace id (0 = untraced), resolved once at poll time so
    /// delivery needs no second correlation lookup.
    pub trace: u64,
}

/// The paper-mode protocol engine for one process.
pub(crate) struct Core {
    pub rank: usize,
    pub n: usize,
    /// Every shared-memory access goes through here; only our own words
    /// can be written.
    pub io: Writer,
    pub layout: Layout,
    recv_mode: RecvMode,
    pub gc_policy: GcPolicy,
    max_payload: usize,
    pub stats: EndpointStats,

    // ---- sender state ----
    /// Our copy of `msg_flag(r, me)` per receiver `r`.
    pub out_msg_flags: Vec<Word>,
    /// Per receiver `r`: the ACK word value that means "everything I ever
    /// sent to r is acknowledged" (bit flipped at each send, matched when
    /// the receiver's toggle lands).
    pub ack_expect: Vec<Word>,
    /// Per-slot sender-side state.
    pub slots: Vec<SlotState>,
    /// Slots in allocation (data-partition ring) order.
    pub inflight: VecDeque<usize>,
    /// Next free word in the circular data allocator.
    pub data_head: usize,
    /// Monotonic message sequence (shared across all destinations).
    next_seq: u32,
    /// The last written payload in word form. Reused so the post path
    /// does not allocate once warm (the RPC reply path's zero-alloc
    /// guarantee rests on it).
    pub staged: Vec<Word>,
    /// Per-sweep cache of ACK words already read, reused likewise.
    ack_scratch: Vec<Option<Word>>,

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
    /// Round-robin cursor for `recv_any` fairness.
    rr_cursor: usize,
    /// One sweep's `(flag word, shadow)` list, reused like `ack_scratch`.
    looks: Vec<(usize, Word)>,
    /// The last payload read, in word form, reused like `staged`.
    pub payload: Vec<Word>,
    /// Interrupt mode: the watch over our MESSAGE flag block, and the
    /// ticket on it that the last flag sweep took before its first read.
    recv_watch: Option<(Signal, Option<Ticket>)>,
    /// Likewise over our ACK flag block, for the GC sweep.
    ack_watch: Option<(Signal, Option<Ticket>)>,
}

impl Core {
    pub(crate) fn new(io: Writer, config: &BbpConfig) -> Self {
        let n = config.nprocs;
        let interrupts = config.recv_mode == RecvMode::Interrupt;
        let recv_watch = interrupts.then(|| (io.watch(Layout::msg_flag_range), None));
        let ack_watch = interrupts.then(|| (io.watch(Layout::ack_flag_range), None));
        Core {
            rank: io.me(),
            n,
            layout: Layout::new(config),
            io,
            recv_mode: config.recv_mode,
            gc_policy: config.gc_policy,
            max_payload: config.max_payload_bytes(),
            stats: EndpointStats::default(),
            out_msg_flags: vec![0; n],
            ack_expect: vec![0; n],
            slots: (0..config.bufs_per_proc)
                .map(|_| SlotState {
                    targets: Vec::with_capacity(n),
                    ..SlotState::default()
                })
                .collect(),
            inflight: VecDeque::with_capacity(config.bufs_per_proc),
            data_head: 0,
            next_seq: 0,
            staged: Vec::new(),
            ack_scratch: Vec::new(),
            shadow_msg: vec![0; n],
            pending: (0..n).map(|_| BTreeMap::new()).collect(),
            ext_seq_hi: vec![0; n],
            out_ack_flags: vec![0; n],
            rr_cursor: 0,
            looks: Vec::new(),
            payload: Vec::new(),
            recv_watch,
            ack_watch,
        }
    }

    /// An `obs` counter increment stamped with our rank and this instant.
    pub(crate) fn count(&self, ctx: &ProcCtx, name: &'static str, delta: u64) {
        ctx.obs().count(ctx.now(), self.rank as u32, name, delta);
    }

    /// An `obs` message-lifecycle checkpoint, stamped likewise.
    pub(crate) fn lifecycle(&self, ctx: &ProcCtx, trace: u64, stage: Stage, arg: u64) {
        ctx.obs()
            .lifecycle(ctx.now(), self.rank as u32, trace, stage, arg);
    }

    // ------------------------------------------------------------------
    // Send side
    // ------------------------------------------------------------------

    /// Every target is another rank, named once: a repeat would toggle its
    /// flag and expectation bits twice, and the slot would never free.
    pub(crate) fn check_targets(&self, targets: &[usize]) -> Result<(), BbpError> {
        for (i, &t) in targets.iter().enumerate() {
            if t >= self.n || t == self.rank || targets[..i].contains(&t) {
                return Err(BbpError::BadDestination { dst: t });
            }
        }
        Ok(())
    }

    pub(crate) fn check_size(&self, len: usize) -> Result<(), BbpError> {
        if len > self.max_payload {
            return Err(BbpError::MessageTooLarge {
                len,
                max: self.max_payload,
            });
        }
        Ok(())
    }

    /// Step 1 of a send: find a free descriptor slot and contiguous data
    /// words, `collect`ing acknowledged buffers and stalling while there
    /// are none, then write the payload. Without a `deadline` this can
    /// only stall, never fail (the paper's behaviour).
    pub(crate) fn stage(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        payload: &[u8],
        deadline: Option<Time>,
        mut collect: impl FnMut(&mut Self, &mut ProcCtx) -> usize,
    ) -> Result<usize, BbpError> {
        let words = payload.len().div_ceil(4);
        let (slot, data_off) = loop {
            ctx.charge(ALLOC_NS);
            if let Some(found) = self.try_allocate(words) {
                break found;
            }
            self.stats.send_stalls += 1;
            if collect(self, ctx) == 0 {
                self.pace(ctx, Wait::ForAcks, deadline.is_some());
            }
            if deadline.is_some_and(|d| ctx.now() >= d) {
                return Err(BbpError::Timeout {
                    peer: targets.first().copied().unwrap_or(self.rank),
                    attempts: 0,
                });
            }
        };
        self.write_payload(ctx, data_off, payload);
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let s = &mut self.slots[slot];
        s.busy = true;
        s.data_off = data_off;
        s.len_bytes = payload.len();
        s.seq = seq;
        s.targets.clear();
        s.targets.extend_from_slice(targets);
        s.trace = ctx.obs().current_trace(self.rank as u32);
        self.inflight.push_back(slot);
        self.gauge_slots_in_use(ctx);
        Ok(slot)
    }

    /// Write `payload`, packed into [`Core::staged`], at `data_off`.
    pub(crate) fn write_payload(&mut self, ctx: &mut ProcCtx, data_off: usize, payload: &[u8]) {
        pack_words_into(payload, &mut self.staged);
        self.io.data(ctx, data_off, &self.staged);
    }

    /// Send-slot residency; one relaxed load when telemetry is off.
    fn gauge_slots_in_use(&self, ctx: &ProcCtx) {
        let rec = ctx.obs();
        if rec.telemetry_on() {
            rec.gauge(
                ctx.now(),
                self.rank as u32,
                "bbp.send_slots_in_use",
                self.inflight.len() as u64,
            );
        }
    }

    /// Write `slot`'s descriptor: `[offset, byte length, sequence]`, plus
    /// `fourth` when the layout has a fourth word.
    pub(crate) fn write_descriptor(&self, ctx: &mut ProcCtx, slot: usize, fourth: Option<Word>) {
        let s = &self.slots[slot];
        let words = [
            s.data_off as Word,
            s.len_bytes as Word,
            s.seq,
            fourth.unwrap_or(0),
        ];
        self.io.descriptor(ctx, slot, &words);
    }

    /// Step 2 of a send: the descriptor, and the `(src, seq)` → trace id
    /// registration the receive side's poll recovers the id from.
    pub(crate) fn publish(&self, ctx: &mut ProcCtx, slot: usize, fourth: Option<Word>) {
        self.write_descriptor(ctx, slot, fourth);
        let (seq, trace) = (self.slots[slot].seq, self.slots[slot].trace);
        self.lifecycle(ctx, trace, Stage::DescriptorWrite, seq as u64);
        ctx.obs().register_msg(self.rank as u32, seq, trace);
    }

    /// Step 3 of a send: one `MESSAGE` flag toggle per receiver — the
    /// last word to land there, so detection implies the descriptor and
    /// payload already replicated.
    pub(crate) fn flag(
        &mut self,
        ctx: &mut ProcCtx,
        slot: usize,
        targets: &[usize],
        doorbell: Doorbell,
    ) {
        let trace = self.slots[slot].trace;
        for (i, &t) in targets.iter().enumerate() {
            if i > 0 {
                ctx.charge(MCAST_TARGET_NS);
            }
            self.out_msg_flags[t] ^= 1 << slot;
            if doorbell == Doorbell::Now {
                self.write_flag(ctx, t);
            }
            self.ack_expect[t] ^= 1 << slot;
            self.lifecycle(ctx, trace, Stage::FlagSet, t as u64);
        }
    }

    /// Write our copy of `msg_flag(dst, me)`: every toggle accumulated for
    /// `dst`, deferred ones included.
    pub(crate) fn write_flag(&self, ctx: &mut ProcCtx, dst: usize) {
        self.io.msg_flag(ctx, dst, self.out_msg_flags[dst]);
    }

    fn try_allocate(&mut self, words: usize) -> Option<(usize, usize)> {
        match self.gc_policy {
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
        debug_assert!(words <= cap, "guarded by the payload limit");
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
        let slot_words = self.layout.data_words() / self.slots.len();
        debug_assert!(words <= slot_words, "guarded by the payload limit");
        let slot = self.slots.iter().position(|s| !s.busy)?;
        Some((slot, slot * slot_words))
    }

    /// One garbage-collection sweep: pops acknowledged buffers off the
    /// *front* of the in-flight queue ([`GcPolicy::FifoRing`]) or frees
    /// every acknowledged buffer regardless of order
    /// ([`GcPolicy::Slotted`]). `on_free` is told each freed slot's
    /// receivers; `sweep` runs inside the span and adds what it freed. In
    /// interrupt mode it first takes the ticket an ACK wait after it
    /// sleeps on ([`Core::pace`]).
    pub(crate) fn gc(
        &mut self,
        ctx: &mut ProcCtx,
        sweep: impl FnOnce(&mut Self, &mut ProcCtx) -> usize,
        mut on_free: impl FnMut(&[usize]),
    ) -> usize {
        if let Some((signal, ticket)) = &mut self.ack_watch {
            *ticket = Some(ctx.ticket(signal));
        }
        let freed = ctx.span(self.rank as u32, Layer::Bbp, "gc", |ctx| {
            ctx.charge(GC_PROBE_NS);
            self.stats.gc_sweeps += 1;
            self.count(ctx, "bbp.gc_sweeps", 1);
            // Read each relevant ACK word at most once per sweep.
            let mut acks = std::mem::take(&mut self.ack_scratch);
            acks.clear();
            acks.resize(self.n, None);
            let mut freed = 0;
            // Under the ring discipline the first unacknowledged buffer
            // ends the sweep; slotted, it goes to the back of the queue,
            // which one full rotation leaves in its original order.
            for _ in 0..self.inflight.len() {
                let slot = self.inflight[0];
                if self.acked(ctx, slot, &mut acks) {
                    self.inflight.pop_front();
                    self.slots[slot].busy = false;
                    on_free(&self.slots[slot].targets);
                    freed += 1;
                } else if self.gc_policy == GcPolicy::FifoRing {
                    break;
                } else {
                    self.inflight.rotate_left(1);
                }
            }
            self.ack_scratch = acks;
            freed + sweep(self, ctx)
        });
        if freed > 0 {
            self.gauge_slots_in_use(ctx);
        }
        freed
    }

    fn acked(&self, ctx: &mut ProcCtx, slot: usize, acks: &mut [Option<Word>]) -> bool {
        let bit = 1u32 << slot;
        self.slots[slot].targets.iter().all(|&r| {
            let word = *acks[r].get_or_insert_with(|| self.read_ack(ctx, r));
            word & bit == self.ack_expect[r] & bit
        })
    }

    pub(crate) fn read_ack(&self, ctx: &mut ProcCtx, r: usize) -> Word {
        self.io.read_word(ctx, self.layout.ack_flag(self.rank, r))
    }

    /// How a blocked call lets time pass when a sweep found nothing. A
    /// `bounded` caller (it has a deadline) gets a timed pause even in
    /// interrupt mode: a signal wait could outlive the deadline. An
    /// unbounded one sleeps on the ticket its last sweep took (now, if
    /// none has since the last wait), so an interrupt raised while the
    /// sweep was reading is not lost.
    pub(crate) fn pace(&mut self, ctx: &mut ProcCtx, wait: Wait, bounded: bool) {
        match (self.recv_mode, bounded) {
            // A polling receive paces itself by its sweep's PIO reads;
            // a polling sender spaces its ACK probes.
            (RecvMode::Polling, _) => {
                if wait == Wait::ForAcks {
                    ctx.advance(GC_RETRY_GAP_NS);
                }
            }
            (RecvMode::Interrupt, true) => ctx.advance(GC_RETRY_GAP_NS),
            (RecvMode::Interrupt, false) => {
                let watch = match wait {
                    Wait::ForAcks => &mut self.ack_watch,
                    Wait::ForTraffic => &mut self.recv_watch,
                };
                let ticket = ticket_of(ctx, watch);
                ctx.wait(ticket);
            }
        }
    }

    /// In interrupt mode, sleep until a MESSAGE flag is written — or, while
    /// sends are outstanding, an ACK flag too, which that watch never sees:
    /// on the tickets the last sweep and the last garbage collection took
    /// (now, if none has since the last wait). `false` in polling mode.
    pub(crate) fn wait_for_traffic(&mut self, ctx: &mut ProcCtx) -> bool {
        if self.recv_mode != RecvMode::Interrupt {
            return false;
        }
        if self.inflight.is_empty() {
            self.pace(ctx, Wait::ForTraffic, false);
        } else {
            let traffic = ticket_of(ctx, &mut self.recv_watch);
            let acks = ticket_of(ctx, &mut self.ack_watch);
            ctx.wait_either(traffic, acks);
        }
        true
    }

    /// Forget every send in progress (a process restarting its channels).
    /// Each slot is cleared in place, so its target list keeps the
    /// capacity `new` gave it.
    pub(crate) fn reset_send_state(&mut self) {
        for s in &mut self.slots {
            s.targets.clear();
            *s = SlotState {
                targets: std::mem::take(&mut s.targets),
                ..SlotState::default()
            };
        }
        self.inflight.clear();
        self.data_head = 0;
        self.next_seq = 0;
    }

    /// Zero the `MESSAGE` and `ACK` words we own in `peer`'s flag blocks
    /// and every shadow of `peer`'s toggles; sends waiting on this peer
    /// resolve through the zeroed expectations on the next sweep.
    pub(crate) fn reset_channel(&mut self, ctx: &mut ProcCtx, peer: usize) {
        self.out_msg_flags[peer] = 0;
        self.write_flag(ctx, peer);
        self.out_ack_flags[peer] = 0;
        self.io.ack_flag(ctx, peer, 0);
        self.ack_expect[peer] = 0;
        self.shadow_msg[peer] = 0;
        self.ext_seq_hi[peer] = 0;
        self.pending[peer].clear();
    }

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /// The senders a receive considers: `only`, or every peer starting at
    /// the round-robin cursor.
    pub(crate) fn sources(&self, only: Option<usize>) -> impl Iterator<Item = usize> {
        let (n, rank) = (self.n, self.rank);
        let (start, count) = only.map_or((self.rr_cursor, n), |s| (s, 1));
        (0..count)
            .map(move |off| (start + off) % n)
            .filter(move |&s| s != rank)
    }

    /// Move the round-robin cursor past `src`.
    pub(crate) fn served(&mut self, src: usize) {
        self.rr_cursor = (src + 1) % self.n;
    }

    /// Is a detected message waiting (from `only`, or from anyone)?
    pub(crate) fn has_pending(&self, only: Option<usize>) -> bool {
        match only {
            Some(s) => !self.pending[s].is_empty(),
            None => self.pending.iter().any(|p| !p.is_empty()),
        }
    }

    pub(crate) fn pop_pending(&mut self, src: usize) -> Option<PendingMsg> {
        self.pending[src].pop_first().map(|(_, msg)| msg)
    }

    pub(crate) fn requeue(&mut self, src: usize, msg: PendingMsg) {
        self.pending[src].insert(msg.ext, msg);
    }

    /// One poll sweep: `only`'s flag word, or every peer's in rank order.
    ///
    /// A sweep of several words is handed to the NIC whole
    /// ([`scramnet::Nic::scan`]), so this process sleeps through the words
    /// that have not changed, and the event log is told of each poll once
    /// the sweep returns. A sweep of a single word is the loop written
    /// out: it costs what its one read costs either way. (A caller that
    /// would only sweep again and again until something is flagged:
    /// [`Core::sleep_until_flagged`].) In interrupt mode the sweep first
    /// takes the ticket a wait after it sleeps on ([`Core::pace`]).
    pub(crate) fn poll(&mut self, ctx: &mut ProcCtx, only: Option<usize>) {
        if let Some((signal, ticket)) = &mut self.recv_watch {
            *ticket = Some(ctx.ticket(signal));
        }
        let rank = self.rank;
        let (first, end) = only.map_or((0, self.n), |s| (s, s + 1));
        let senders = (first..end).filter(|&s| s != rank);
        let words = only.map_or(self.n - 1, |_| 1);
        if words == 1 {
            for s in senders {
                ctx.charge(POLL_ITER_NS);
                self.stats.polls += 1;
                self.count(ctx, "bbp.polls", 1);
                let word = self.io.read_word(ctx, self.layout.msg_flag(rank, s));
                self.flagged(ctx, s, word);
            }
            return;
        }
        let looks = self.every_flag();
        self.sweep_on(ctx, &looks, 0);
        self.looks = looks;
    }

    /// Every peer's `(flag word, shadow)` in rank order, in the buffer
    /// [`Core::looks`] lends (to be put back).
    fn every_flag(&mut self) -> Vec<(usize, Word)> {
        let rank = self.rank;
        let mut looks = std::mem::take(&mut self.looks);
        looks.clear();
        let senders = (0..self.n).filter(|&s| s != rank);
        looks.extend(senders.map(|s| (self.layout.msg_flag(rank, s), self.shadow_msg[s])));
        looks
    }

    /// The rest of a sweep over [`Core::every_flag`], from look `next` on.
    /// A changed word is handled as the loop would, then the sweep goes on
    /// after it: handling `s` touches no other sender's shadow.
    fn sweep_on(&mut self, ctx: &mut ProcCtx, looks: &[(usize, Word)], mut next: usize) {
        while next < looks.len() {
            let t0 = ctx.now();
            let hit = self.io.scan(ctx, POLL_ITER_NS, &looks[next..]);
            self.stats.polls += self.tell_polls(ctx, t0, looks.len() - next, hit);
            let Some((i, word)) = hit else { break };
            next = self.changed(ctx, next + i, word);
        }
    }

    /// Look `k` of [`Core::every_flag`] saw `word`, not its shadow: handle
    /// it, and return the look to go on from. We have no look of our own:
    /// look `k` is sender `k` below our rank and sender `k + 1` from it up.
    fn changed(&mut self, ctx: &mut ProcCtx, k: usize, word: Word) -> usize {
        self.flagged(ctx, k + usize::from(k >= self.rank), word);
        k + 1
    }

    /// Tell the event log of the polls of one sweep — `looks` words,
    /// entered at `t0`, ended at `hit` — and return how many it made.
    fn tell_polls(&self, ctx: &ProcCtx, t0: Time, looks: usize, hit: Option<(usize, Word)>) -> u64 {
        let reads = self.io.sweep_reads(t0, POLL_ITER_NS, looks, hit);
        reads.fold(0, |polls, at| {
            ctx.obs().count(at, self.rank as u32, "bbp.polls", 1);
            polls + 1
        })
    }

    /// Sweep every peer's flag word, with `lead` ns of our own time before
    /// each sweep, until one has changed, and finish that sweep as
    /// [`Core::poll`] does — or until `guard` holds at the end of a sweep
    /// that found nothing. What the caller's loop of "`poll`; nothing
    /// flagged; check `guard`; charge `lead`" computes — in time, in the
    /// schedule, in `polls` and, sweep by sweep, in the event log — but
    /// this process sleeps until the word changes or the guard holds
    /// ([`scramnet::Nic::scan_until`]) instead of being woken at the end of
    /// every idle sweep to ask for the next.
    ///
    /// `None`, with nothing done, unless sweeping is all there is to do
    /// until then: a polling endpoint, nothing flagged already, and few
    /// enough peers for one sleeping cycle. The caller paces itself.
    pub(crate) fn sleep_until_flagged(
        &mut self,
        ctx: &mut ProcCtx,
        lead: Time,
        guard: Option<&RoundGuard>,
    ) -> Option<Slept> {
        if self.recv_mode != RecvMode::Polling
            || !(1..=ProcCtx::CYCLE_LOOKS).contains(&(self.n - 1))
            || self.has_pending(None)
        {
            return None;
        }
        let looks = self.every_flag();
        let mut polls = 0;
        // Per sweep, the NIC tells the log of its reads, then we of ours.
        let hit = self
            .io
            .scan_until(ctx, lead, POLL_ITER_NS, &looks, guard, |ctx, t0, hit| {
                polls += self.tell_polls(ctx, t0, looks.len(), hit);
            });
        self.stats.polls += polls;
        let slept = match hit {
            Some((i, word)) => {
                let next = self.changed(ctx, i, word);
                self.sweep_on(ctx, &looks, next);
                Slept::Flagged
            }
            None => Slept::Guarded,
        };
        self.looks = looks;
        Some(slept)
    }

    /// Enqueue the messages that `word`, `s`'s MESSAGE flag word as just
    /// read, newly flags.
    fn flagged(&mut self, ctx: &mut ProcCtx, s: usize, word: Word) {
        let changed = word ^ self.shadow_msg[s];
        if changed == 0 {
            return;
        }
        self.shadow_msg[s] = word;
        for slot in 0..self.slots.len() {
            if changed & (1 << slot) == 0 {
                continue;
            }
            ctx.charge(MATCH_NS);
            let desc = self.read_descriptor(ctx, s, slot);
            let (data_off, len_bytes, seq) = (desc[0] as usize, desc[1] as usize, desc[2]);
            let ext = extend_seq(self.ext_seq_hi[s], seq);
            self.ext_seq_hi[s] = self.ext_seq_hi[s].max(ext);
            let trace = ctx.obs().lookup_msg(s as u32, seq);
            self.lifecycle(ctx, trace, Stage::RecvMatch, seq as u64);
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

    /// `slot`'s descriptor as `s` last wrote it; the fourth word is zero
    /// when the layout has three.
    pub(crate) fn read_descriptor(&self, ctx: &mut ProcCtx, s: usize, slot: usize) -> [Word; 4] {
        let mut desc = [0; 4];
        let used = self.layout.desc_words();
        self.io
            .read_block(ctx, self.layout.descriptor(s, slot), &mut desc[..used]);
        desc
    }

    /// Read `words` of `s`'s data partition into [`Core::payload`].
    pub(crate) fn read_payload(
        &mut self,
        ctx: &mut ProcCtx,
        s: usize,
        data_off: usize,
        words: usize,
    ) {
        // Every word is overwritten: only a longer payload's tail is new.
        self.payload.resize(words, 0);
        self.io
            .read_block(ctx, self.layout.data_base(s) + data_off, &mut self.payload);
    }

    /// Hand `msg` to the application: read its payload (unless the caller
    /// has just `fetched` it into [`Core::payload`], and checked it),
    /// toggle the ACK bit, return its length. The bytes stay in
    /// [`Core::payload`] for [`Core::copy_delivered`] or
    /// [`Core::delivered`] to take.
    pub(crate) fn deliver(
        &mut self,
        ctx: &mut ProcCtx,
        src: usize,
        msg: &PendingMsg,
        fetched: bool,
    ) -> usize {
        let rank = self.rank as u32;
        ctx.span(rank, Layer::Bbp, "deliver", |ctx| {
            if !fetched {
                self.read_payload(ctx, src, msg.data_off, msg.len_bytes.div_ceil(4));
            }
            ctx.advance(DELIVER_NS);
            self.out_ack_flags[src] ^= 1 << msg.slot;
            self.io.ack_flag(ctx, src, self.out_ack_flags[src]);
            self.stats.recvs += 1;
            self.stats.bytes_recved += msg.len_bytes as u64;
            self.lifecycle(ctx, msg.trace, Stage::Deliver, msg.len_bytes as u64);
            ctx.obs().set_current_rx(rank, msg.trace);
        });
        msg.len_bytes
    }

    /// The first `out.len()` bytes of the last delivery, into `out`.
    pub(crate) fn copy_delivered(&self, out: &mut [u8]) {
        unpack_into(&self.payload, out);
    }

    /// The last delivery, `len` bytes long, as a `Vec` of its own.
    pub(crate) fn delivered(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.copy_delivered(&mut out);
        out
    }
}

/// Pack bytes into little-endian words, zero-padding the tail, into a
/// reused buffer (no allocation once its capacity has warmed up).
fn pack_words_into(bytes: &[u8], out: &mut Vec<Word>) {
    out.clear();
    out.extend(bytes.chunks(4).map(|c| {
        let mut w = [0u8; 4];
        w[..c.len()].copy_from_slice(c);
        Word::from_le_bytes(w)
    }));
}

/// Inverse of [`pack_words_into`]: the first `out.len()` bytes `words`
/// carry, into `out`.
fn unpack_into(words: &[Word], out: &mut [u8]) {
    for (bytes, w) in out.chunks_mut(4).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes()[..bytes.len()]);
    }
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

    fn test_core(data_words: usize, bufs: usize) -> (des::Simulation, Core) {
        let sim = des::Simulation::new();
        let mut config = BbpConfig::for_nodes(2);
        config.data_words = data_words;
        config.bufs_per_proc = bufs;
        let ring = scramnet::Ring::new(
            &sim.handle(),
            2,
            Layout::new(&config).total_words(),
            scramnet::CostModel::default(),
        );
        let io = Writer::new(ring.nic(0), Layout::new(&config));
        let core = Core::new(io, &config);
        (sim, core)
    }

    /// Simulate an allocation bookkeeping-only (no ctx needed): mark the
    /// slot busy and push it in flight, as `stage` would.
    fn take(core: &mut Core, words: usize) -> Option<usize> {
        let (slot, off) = core.try_allocate_ring(words)?;
        core.slots[slot].busy = true;
        core.slots[slot].data_off = off;
        core.inflight.push_back(slot);
        Some(off)
    }

    fn release_front(core: &mut Core) {
        let slot = core.inflight.pop_front().expect("something in flight");
        core.slots[slot].busy = false;
    }

    #[test]
    fn ring_allocator_is_contiguous_and_bumping() {
        let (_sim, mut core) = test_core(64, 8);
        assert_eq!(take(&mut core, 10), Some(0));
        assert_eq!(take(&mut core, 10), Some(10));
        assert_eq!(take(&mut core, 10), Some(20));
    }

    #[test]
    fn ring_allocator_wraps_after_frees() {
        let (_sim, mut core) = test_core(64, 8);
        assert_eq!(take(&mut core, 30), Some(0));
        assert_eq!(take(&mut core, 30), Some(30));
        // 4 words left at the end: a 10-word request fails...
        assert_eq!(take(&mut core, 10), None);
        // ...until the oldest buffer frees, letting it wrap to offset 0.
        release_front(&mut core);
        assert_eq!(take(&mut core, 10), Some(0));
    }

    #[test]
    fn ring_allocator_never_overruns_the_tail() {
        let (_sim, mut core) = test_core(64, 8);
        assert_eq!(take(&mut core, 30), Some(0));
        assert_eq!(take(&mut core, 30), Some(30));
        release_front(&mut core); // tail now at 30
        assert_eq!(take(&mut core, 20), Some(0));
        // Head=20, tail=30: exactly 10 free, but head==tail is reserved
        // (full/empty ambiguity) so a 10-word request must fail...
        assert_eq!(take(&mut core, 10), None);
        // ...while a 9-word request fits.
        assert_eq!(take(&mut core, 9), Some(20));
    }

    #[test]
    fn ring_allocator_exhausts_descriptor_slots() {
        let (_sim, mut core) = test_core(1024, 2);
        assert!(take(&mut core, 1).is_some());
        assert!(take(&mut core, 1).is_some());
        assert_eq!(take(&mut core, 1), None, "only 2 slots");
        release_front(&mut core);
        assert!(take(&mut core, 1).is_some());
    }

    #[test]
    fn zero_word_allocations_need_only_a_slot() {
        let (_sim, mut core) = test_core(8, 4);
        assert_eq!(take(&mut core, 8), Some(0)); // fills the partition
        assert!(take(&mut core, 0).is_some(), "empty message still sends");
    }

    fn pack_words(bytes: &[u8]) -> Vec<Word> {
        let mut out = Vec::new();
        pack_words_into(bytes, &mut out);
        out
    }

    #[test]
    fn pack_unpack_round_trip() {
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let words = pack_words(&bytes);
            assert_eq!(words.len(), len.div_ceil(4));
            let mut back = vec![0xAA; len];
            unpack_into(&words, &mut back);
            assert_eq!(back, bytes);
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
