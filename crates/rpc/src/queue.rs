//! The server-side message queue: one per endpoint, multiplexing every
//! client channel onto a bounded pool of [`MessageBuffer`]s with two
//! priority classes and doorbell-coalesced batched replies.

use std::collections::VecDeque;
use std::sync::Arc;

use bbp::{BbpEndpoint, Slept};
use des::{ProcCtx, RoundGuard, Time};
use obs::lifecycle::Stage;
use obs::LogHistogram;

use crate::buffer::{MessageBuffer, Priority, Request, HEADER_BYTES};
use crate::{blocks_for_credit, RpcError};

/// Server-side queue configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Number of preallocated request buffers. This bounds queue
    /// residency: when the pool is empty, requests stay on the billboard
    /// (backpressure propagates to senders through BBP credits).
    pub pool: usize,
    /// Body capacity per buffer, bytes. `pool` and `body_capacity`
    /// together fix the server's entire steady-state memory footprint.
    pub body_capacity: usize,
    /// Maximum number of consecutive high-priority dispatches while
    /// normal-priority work is waiting. Bounds starvation: a normal
    /// request waits at most `max_high_streak` dispatches once it is at
    /// the head of its queue.
    pub max_high_streak: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            pool: 32,
            body_capacity: 256,
            max_high_streak: 8,
        }
    }
}

/// Counters the queue maintains as it runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Requests accepted off the billboard into the pool.
    pub polled: u64,
    /// Requests handed to the handler.
    pub dispatched: u64,
    /// … of which high priority.
    pub high_dispatched: u64,
    /// … of which normal priority.
    pub normal_dispatched: u64,
    /// Replies sent.
    pub replied: u64,
    /// Frames too short to carry a header or too long for a pool buffer,
    /// dropped on arrival.
    pub malformed: u64,
    /// High-water mark of buffers simultaneously out of the free pool.
    pub max_residency: usize,
}

/// A per-endpoint serving queue over BBP.
///
/// Lifecycle per request: [`MessageQueue::poll`] moves arrivals into the
/// class queues, [`MessageQueue::dispatch`] hands one to the handler as
/// a [`Request`], the handler writes the reply *in place* and gives the
/// handle back through [`MessageQueue::reply`], and
/// [`MessageQueue::flush`] posts what is staged (one doorbell per
/// destination where the transport can defer them).
pub struct MessageQueue {
    ep: BbpEndpoint,
    cfg: RpcConfig,
    free: Vec<MessageBuffer>,
    high: VecDeque<Request>,
    normal: VecDeque<Request>,
    staged: VecDeque<Request>,
    high_streak: u32,
    stats: QueueStats,
    residency_hist: Arc<LogHistogram>,
}

impl MessageQueue {
    /// Wrap a server endpoint with a preallocated buffer pool.
    pub fn new(ep: BbpEndpoint, cfg: RpcConfig) -> Self {
        assert!(cfg.pool >= 1, "the buffer pool needs at least one buffer");
        let max = ep.config().max_payload_bytes();
        assert!(
            HEADER_BYTES + cfg.body_capacity <= max,
            "a {}-byte frame exceeds the endpoint's {max}-byte payload limit",
            HEADER_BYTES + cfg.body_capacity
        );
        let mut free = Vec::with_capacity(cfg.pool);
        for _ in 0..cfg.pool {
            free.push(MessageBuffer::new(cfg.body_capacity));
        }
        MessageQueue {
            ep,
            high: VecDeque::with_capacity(cfg.pool),
            normal: VecDeque::with_capacity(cfg.pool),
            staged: VecDeque::with_capacity(cfg.pool),
            free,
            cfg,
            high_streak: 0,
            stats: QueueStats::default(),
            residency_hist: Arc::new(LogHistogram::new()),
        }
    }

    /// Accept arrived requests into the pool, classifying by priority.
    /// Stops when the pool is exhausted (remaining requests wait on the
    /// billboard — that is the backpressure). A frame too short to carry
    /// a header or too long for a buffer is counted
    /// ([`QueueStats::malformed`]) and dropped, its buffer back in the pool.
    /// Returns how many requests arrived.
    pub fn poll(&mut self, ctx: &mut ProcCtx) -> usize {
        let rank = self.ep.rank() as u32;
        let mut accepted = 0;
        while let Some(mut buf) = self.free.pop() {
            let Some((src, len)) = self.ep.try_recv_any_into(ctx, buf.frame_mut()) else {
                self.free.push(buf);
                break;
            };
            let trace = ctx.obs().current_rx(rank);
            let req = match Request::arrived(buf, src, len, ctx.now(), trace) {
                Ok(req) => req,
                Err(buf) => {
                    self.stats.malformed += 1;
                    self.free.push(buf);
                    continue;
                }
            };
            match req.header().priority {
                Priority::High => self.high.push_back(req),
                Priority::Normal => self.normal.push_back(req),
            }
            self.stats.polled += 1;
            accepted += 1;
            let residency = self.cfg.pool - self.free.len();
            self.stats.max_residency = self.stats.max_residency.max(residency);
            // The same residency the hand-rolled stat tracks, as a
            // gauge series: the series a workload cell dumps when the
            // stat breaks its pool bound.
            let rec = ctx.obs();
            if rec.telemetry_on() {
                let now = ctx.now();
                rec.gauge(now, rank, "rpc.buffers_in_use", residency as u64);
                rec.gauge(now, rank, "rpc.queued_high", self.high.len() as u64);
                rec.gauge(now, rank, "rpc.queued_normal", self.normal.len() as u64);
            }
        }
        accepted
    }

    /// Hand the next request to the handler. High priority wins, but
    /// after `max_high_streak` consecutive high dispatches with normal
    /// work waiting, one normal request is served — that bounds
    /// starvation.
    pub fn dispatch(&mut self, ctx: &mut ProcCtx) -> Option<Request> {
        let take_high = match (self.high.is_empty(), self.normal.is_empty()) {
            (true, true) => return None,
            (false, true) => true,
            (true, false) => false,
            (false, false) => self.high_streak < self.cfg.max_high_streak,
        };
        let req = if take_high {
            self.high_streak += 1;
            self.stats.high_dispatched += 1;
            self.high.pop_front().expect("checked non-empty")
        } else {
            self.high_streak = 0;
            self.stats.normal_dispatched += 1;
            self.normal.pop_front().expect("checked non-empty")
        };
        self.stats.dispatched += 1;
        self.residency_hist
            .record(ctx.now().saturating_sub(req.enqueued_at()));
        {
            let rec = ctx.obs();
            if rec.telemetry_on() {
                let now = ctx.now();
                let rank = self.ep.rank() as u32;
                rec.gauge(now, rank, "rpc.queued_high", self.high.len() as u64);
                rec.gauge(now, rank, "rpc.queued_normal", self.normal.len() as u64);
            }
        }
        ctx.obs().lifecycle(
            ctx.now(),
            self.ep.rank() as u32,
            req.trace(),
            Stage::RpcDispatch,
            req.header().channel as u64,
        );
        Some(req)
    }

    /// Take a finished reply back and stage it for the next
    /// [`MessageQueue::flush`]. Only a [`Request`] that
    /// [`MessageQueue::dispatch`] handed out can come back:
    ///
    /// ```
    /// use rpc::{MessageBuffer, MessageQueue, Request};
    /// fn answer(mq: &mut MessageQueue, req: Request, spare: MessageBuffer) {
    ///     mq.reply(req);
    /// }
    /// ```
    ///
    /// ```compile_fail,E0308
    /// use rpc::{MessageBuffer, MessageQueue, Request};
    /// fn answer(mq: &mut MessageQueue, req: Request, spare: MessageBuffer) {
    ///     mq.reply(spare);
    /// }
    /// ```
    pub fn reply(&mut self, mut req: Request) {
        req.mark_reply();
        self.staged.push_back(req);
    }

    /// Post the staged replies, oldest first, and return how many went
    /// out. Each rides its request's trace id, so the whole exchange
    /// renders as one causal chain. How a reply is posted is read from
    /// the endpoint's configuration:
    ///
    /// - without the reliability extension, with deferred doorbells and
    ///   one flag write per destination node at the end; with it, as a
    ///   confirmed `send` (a deferred post could never be confirmed);
    /// - on a transport that waits for credit (no ledger, or not
    ///   fail-fast), a destination whose ledger reads zero gets its
    ///   doorbell rung first: a deferred post is invisible to the
    ///   receiver until then, so the ACK that returns the credit could
    ///   never arrive.
    ///
    /// A reply the transport refuses for want of credit
    /// ([`bbp::BbpError::NoCredit`], fail-fast only) stays staged, in
    /// order, for a later call — reply pressure becomes bounded staging,
    /// visible through [`MessageQueue::in_flight`]. Any other transport
    /// error returns that one buffer to the pool, leaves the replies
    /// behind it staged, and is reported.
    pub fn flush(&mut self, ctx: &mut ProcCtx) -> Result<usize, RpcError> {
        let rank = self.ep.rank() as u32;
        // Staged-reply depth at its batch peak (`reply` has no sim clock,
        // so staging is sampled when the batch flushes) and, below, what
        // is left of it.
        {
            let rec = ctx.obs();
            if rec.telemetry_on() && !self.staged.is_empty() {
                rec.gauge(
                    ctx.now(),
                    rank,
                    "rpc.staged_replies",
                    self.staged.len() as u64,
                );
            }
        }
        let deferred = self.ep.config().reliability.is_none();
        let blocks = blocks_for_credit(self.ep.config());
        let mut flushed = 0usize;
        let mut failed: Option<RpcError> = None;
        // One turn of the deque in place: a reply that stays goes to the
        // back, so order and capacity are kept.
        for _ in 0..self.staged.len() {
            let req = self.staged.pop_front().expect("one turn of the deque");
            if failed.is_some() {
                self.staged.push_back(req);
                continue;
            }
            let dst = req.src();
            if blocks && self.ep.send_credits(dst) == Some(0) {
                self.ep.ring_doorbell(ctx, dst);
            }
            let prev = ctx.obs().current_trace(rank);
            ctx.obs().set_current_trace(rank, req.trace());
            // A fail-fast credit gate sweeps already-acknowledged slots
            // before giving up, so attempting the post is also what
            // reclaims credits the peer has returned.
            let posted = if deferred {
                self.ep.post_deferred(ctx, dst, req.frame())
            } else {
                self.ep.send(ctx, dst, req.frame())
            };
            ctx.obs().set_current_trace(rank, prev);
            match posted {
                Ok(()) => {
                    ctx.obs().lifecycle(
                        ctx.now(),
                        rank,
                        req.trace(),
                        Stage::RpcReply,
                        req.header().channel as u64,
                    );
                    flushed += 1;
                    self.stats.replied += 1;
                    self.free.push(req.into_buffer());
                }
                Err(bbp::BbpError::NoCredit { .. }) => self.staged.push_back(req),
                Err(e) => {
                    failed = Some(RpcError::Transport(e));
                    self.free.push(req.into_buffer());
                }
            }
        }
        self.ep.ring_all_doorbells(ctx);
        {
            let rec = ctx.obs();
            if rec.telemetry_on() && flushed > 0 {
                let now = ctx.now();
                rec.gauge(now, rank, "rpc.staged_replies", self.staged.len() as u64);
                rec.gauge(
                    now,
                    rank,
                    "rpc.buffers_in_use",
                    (self.cfg.pool - self.free.len()) as u64,
                );
            }
        }
        match failed {
            None => Ok(flushed),
            Some(e) => Err(e),
        }
    }

    /// One idle turn of a serving loop — "[`MessageQueue::poll`],
    /// [`MessageQueue::dispatch`] and [`MessageQueue::flush`] found
    /// nothing; check `guard`; `lead` ns; again" — from just after its
    /// check. Where that is all the loop would do until a request is
    /// flagged — nothing queued or staged, a free buffer to poll into, and
    /// an endpoint that can sleep ([`BbpEndpoint::sleep_until_flagged`]) —
    /// the server sleeps through the turns that find nothing, and is woken
    /// with the request flagged, for the next `poll` to take, or where
    /// `guard` holds after a sweep that found nothing. Otherwise it stalls
    /// `lead` and the loop goes round as written. The same virtual time,
    /// schedule, polls and event log either way.
    ///
    /// Returns `false` when the guard held: the loop leaves as its check
    /// would have, with no sweep more.
    pub fn idle(&mut self, ctx: &mut ProcCtx, lead: Time, guard: &RoundGuard) -> bool {
        let idle = self.queued() == 0 && self.staged.is_empty() && !self.free.is_empty();
        let slept = idle.then(|| self.ep.sleep_until_flagged(ctx, lead, Some(guard)));
        match slept.flatten() {
            Some(Slept::Guarded) => return false,
            Some(Slept::Flagged) => {}
            None => ctx.advance(lead),
        }
        true
    }

    /// Replies staged but not yet flushed.
    pub fn staged(&self) -> usize {
        self.staged.len()
    }

    /// Requests waiting for dispatch (both classes).
    pub fn queued(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Normal-priority requests waiting for dispatch.
    pub fn queued_normal(&self) -> usize {
        self.normal.len()
    }

    /// Buffers currently out of the free pool (queued + dispatched +
    /// staged replies).
    pub fn in_flight(&self) -> usize {
        self.cfg.pool - self.free.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Queue-residency histogram (ns from arrival to dispatch).
    pub fn residency_hist(&self) -> Arc<LogHistogram> {
        Arc::clone(&self.residency_hist)
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &BbpEndpoint {
        &self.ep
    }

    /// The underlying endpoint, mutably (for draining its own stats).
    pub fn endpoint_mut(&mut self) -> &mut BbpEndpoint {
        &mut self.ep
    }

    /// This server's BBP rank.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }
}
