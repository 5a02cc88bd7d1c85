//! The Abstract Device Interface: request objects, posted-receive and
//! unexpected-message queues, the eager/rendezvous protocols, and the
//! polling progress engine.

use std::collections::{HashMap, VecDeque};

use des::obs::{Layer, Stage};
use des::{ProcCtx, Time};

use crate::costs::{SmpiCosts, RENDEZVOUS_THRESHOLD};
use crate::device::{
    decode_null, encode_null, Device, DeviceError, PacketHeader, PacketKind, MAGIC_CHANNEL,
};
use crate::types::{fatal, RecvRequest, SendRequest, Status, Tag};

/// Null-frame phase reserved for communicator-revocation notices
/// (degraded mode). Revocations travel on the communicator's
/// point-to-point context, where no barrier traffic ever runs, so the
/// phase byte alone discriminates them; the barrier phase counter skips
/// this value anyway for defense in depth.
pub(crate) const REVOKE_PHASE: u8 = 0xFF;

/// What a progress iteration that found no frame does about it. Which one
/// a caller may ask for is a matter of what it is: a call that must come
/// back (`MPI_Iprobe`, one turn of an application's progress loop) paces;
/// a call that blocks until something arrives may wait for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idle {
    /// Pay for the empty iteration (`progress_poll_ns`) and return.
    Pace,
    /// Block on the device's interrupt where it has one; on a polling
    /// device, as `Pace`.
    Park,
    /// As `Park`, and on a polling device that can, sleep through the
    /// polling until a frame has arrived — the iterations the caller's
    /// loop would have made, without waking it for each. For a loop that
    /// does nothing else between iterations.
    Sleep,
}

impl Device {
    /// Wait out a progress iteration that found no frame, as `idle` says.
    /// Only the BBP endpoint has an interrupt to park on
    /// (`wait_for_traffic`) or a polling loop it can run for its caller
    /// (`sleep_until_flagged`: the same virtual time, schedule and
    /// counters as the caller's loop of polls `lead` ns apart). A caller
    /// that did not wait pays `lead` for the empty iteration, which is
    /// what paces its polling loop.
    fn idle(&mut self, ctx: &mut ProcCtx, idle: Idle, lead: Time) {
        let waited = match (self, idle) {
            (Device::Bbp(ep), Idle::Park) => ep.wait_for_traffic(ctx),
            (Device::Bbp(ep), Idle::Sleep) => {
                ep.wait_for_traffic(ctx) || ep.sleep_until_flagged(ctx, lead, None).is_some()
            }
            _ => false,
        };
        if !waited {
            ctx.charge(lead);
        }
    }
}

/// A posted (pending) receive.
struct Posted {
    req: u64,
    context: u16,
    src: Option<usize>, // world rank, None = ANY_SOURCE
    tag: Option<Tag>,   // None = ANY_TAG
}

/// A message that arrived before a matching receive was posted.
struct Unexpected {
    context: u16,
    src: usize,
    tag: Tag,
    /// Eager: the payload. Rendezvous RTS: empty until the data phase.
    payload: Vec<u8>,
    /// Full message length.
    len: usize,
    /// Sender's rendezvous request, if this is an RTS.
    rts_req: Option<u64>,
    /// Trace id of the delivered message this entry came from (0 when
    /// untraced), captured from the transport's receive side-channel at
    /// dispatch time.
    trace: u64,
    /// Virtual time this entry was parked, so a late match can report
    /// its unexpected-queue residency.
    parked_at: Time,
}

impl Unexpected {
    /// Whether a receive selector (`None` = wildcard) admits this message.
    fn matches(&self, context: u16, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.context == context
            && src.is_none_or(|s| s == self.src)
            && tag.is_none_or(|t| t == self.tag)
    }

    fn status(&self) -> Status {
        Status {
            source: self.src,
            tag: self.tag,
            len: self.len,
        }
    }
}

/// A request between the call that started it and the wait that redeems
/// it, one variant per state. An eager send is never here (it completed
/// as it started), nor is a receive still waiting in the posted queue.
enum Req {
    /// A rendezvous send whose RTS went out, its payload parked until
    /// the CTS arrives.
    Announced { dst: usize, payload: Vec<u8> },
    /// A receive whose CTS went out, reassembling its data (per-pair
    /// FIFO makes append-order correct); `status.len` is the full length.
    Collecting { status: Status, buf: Vec<u8> },
    /// A rendezvous send whose data left.
    Sent,
    /// A receive with its whole message.
    Received(Status, Vec<u8>),
}

/// The ADI engine for one rank. Owns the device.
pub struct Adi {
    dev: Device,
    costs: SmpiCosts,
    posted: VecDeque<Posted>,
    unexpected: VecDeque<Unexpected>,
    /// Every request started and not yet redeemed, by our request id.
    reqs: HashMap<u64, Req>,
    /// Native-collective null frames: (src world rank, context, phase).
    nulls: VecDeque<(usize, u16, u8)>,
    /// High-water mark of unexpected-queue residency (messages parked at
    /// once over the rank's lifetime) — the bound the workload campaigns
    /// assert against.
    unexpected_peak: usize,
    next_req: u64,
}

impl Adi {
    /// Build an ADI engine over `dev` with the given per-layer costs.
    pub fn new(dev: Device, costs: SmpiCosts) -> Self {
        Adi {
            dev,
            costs,
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            reqs: HashMap::new(),
            nulls: VecDeque::new(),
            unexpected_peak: 0,
            next_req: 1,
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.dev.rank()
    }

    /// World size.
    pub fn nprocs(&self) -> usize {
        self.dev.nprocs()
    }

    /// The per-layer cost model in force.
    pub fn costs(&self) -> &SmpiCosts {
        &self.costs
    }

    /// Messages currently parked in the unexpected queue (eager payloads
    /// and rendezvous announcements awaiting a matching receive).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// High-water mark of unexpected-queue residency over the rank's
    /// lifetime. A flood of `n` sends racing `k` preposted receives must
    /// peak at exactly `n - k` and drain back to zero once the remaining
    /// receives are posted.
    pub fn unexpected_peak(&self) -> usize {
        self.unexpected_peak
    }

    /// Whether the device offers hardware multicast.
    pub fn has_native_mcast(&self) -> bool {
        self.dev.has_native_mcast()
    }

    /// The device's failure-detector view, `(epoch, alive_mask)`.
    /// `None` on transports without a membership layer.
    pub fn membership(&self) -> Option<(u32, u32)> {
        self.dev.membership()
    }

    /// Quorum-enforced membership: `Some(epoch)` while the transport is
    /// frozen because this node's segment lost its quorum. `None` on
    /// transports that never partition.
    pub fn partitioned(&self) -> Option<u32> {
        self.dev.partitioned()
    }

    fn fresh_req(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Observability node label for this rank.
    fn node(&self) -> u32 {
        self.dev.rank() as u32
    }

    /// A channel header from this rank.
    fn header(&self, kind: PacketKind, tag: Tag, context: u16, len: u32, req: u64) -> PacketHeader {
        PacketHeader {
            kind,
            src: self.dev.rank(),
            tag,
            context,
            len,
            req,
        }
    }

    /// Largest payload a frame of at most `max` bytes (`None` =
    /// unlimited) carries behind the channel header.
    fn room(&self, max: Option<usize>) -> usize {
        max.map_or(usize::MAX, |max| {
            let c = max.saturating_sub(self.costs.header_bytes);
            assert!(c > 0, "device frame limit smaller than the channel header");
            c
        })
    }

    /// Whether an eager multicast of `len` payload bytes fits in one
    /// multicast frame (native broadcast cannot segment: it must post
    /// exactly once).
    pub fn eager_mcast_fits(&self, len: usize) -> bool {
        len <= self.room(self.dev.max_mcast_frame())
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Start a send. Eager sends complete immediately; rendezvous sends
    /// complete once the receiver's CTS is answered with the data. `Err`
    /// means the transport gave up before the message left this node —
    /// no request is created, so there is nothing to wait on.
    pub fn isend(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        context: u16,
        tag: Tag,
        payload: &[u8],
    ) -> Result<SendRequest, DeviceError> {
        ctx.span(self.node(), Layer::Adi, "isend", |ctx| {
            ctx.charge(self.costs.request_ns);
            let id = self.fresh_req();
            let eager = payload.len() < RENDEZVOUS_THRESHOLD
                && payload.len() <= self.room(self.dev.max_frame());
            // An eager frame carries the message; a rendezvous RTS
            // announces it under our request id.
            let (kind, req, body) = if eager {
                (PacketKind::Eager, 0, payload)
            } else {
                (PacketKind::RndzRts, id, &[][..])
            };
            let header = self.header(kind, tag, context, payload.len() as u32, req);
            let out = self.send_packet(ctx, dst, &header, body).map(|()| {
                if eager {
                    return SendRequest(None);
                }
                let payload = payload.to_vec();
                self.reqs.insert(id, Req::Announced { dst, payload });
                SendRequest(Some(id))
            });
            // Every public ADI call returns settled: a device that took
            // the frame without a stall of its own leaves our charges owed.
            ctx.settle();
            out
        })
    }

    /// Frame assembly + device hand-off, charging the channel costs.
    fn send_packet(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        header: &PacketHeader,
        payload: &[u8],
    ) -> Result<(), DeviceError> {
        ctx.span(self.node(), Layer::Channel, "packet_tx", |ctx| {
            ctx.charge(self.costs.header_build_ns + self.costs.pack_ns(payload.len()));
            let mut frame = header.encode(self.costs.header_bytes);
            frame.extend_from_slice(payload);
            self.dev.send_frame(ctx, dst, &frame)
        })
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Post a receive (checks the unexpected queue first, per MPI
    /// semantics). `Err` can only happen when the receive matches a
    /// parked rendezvous announcement and the clear-to-send reply fails;
    /// the message then stays undelivered and no request is created.
    pub fn irecv(
        &mut self,
        ctx: &mut ProcCtx,
        context: u16,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<RecvRequest, DeviceError> {
        ctx.span(self.node(), Layer::Adi, "irecv", |ctx| {
            ctx.charge(self.costs.request_ns + self.costs.queue_ns);
            let req = self.fresh_req();
            let found = self
                .unexpected
                .iter()
                .position(|u| u.matches(context, src, tag));
            let out = if let Some(idx) = found {
                // The receive was posted late: the message already sat in the
                // unexpected queue — the arrival path the paper's queue-
                // management overhead discussion is about.
                ctx.obs()
                    .count(ctx.now(), self.node(), "adi.unexpected_hits", 1);
                let u = self.unexpected.remove(idx).unwrap();
                ctx.obs().gauge(
                    ctx.now(),
                    self.node(),
                    "adi.unexpected_len",
                    self.unexpected.len() as u64,
                );
                ctx.obs().lifecycle(
                    ctx.now(),
                    self.node(),
                    u.trace,
                    Stage::UnexpectedHit,
                    ctx.now().saturating_sub(u.parked_at),
                );
                self.accept_matched(ctx, req, u).map(|()| RecvRequest(req))
            } else {
                self.posted.push_back(Posted {
                    req,
                    context,
                    src,
                    tag,
                });
                Ok(RecvRequest(req))
            };
            ctx.settle();
            out
        })
    }

    /// An unexpected entry just matched `req`: complete it (eager) or run
    /// the rendezvous CTS (long message).
    fn accept_matched(
        &mut self,
        ctx: &mut ProcCtx,
        req: u64,
        u: Unexpected,
    ) -> Result<(), DeviceError> {
        let status = u.status();
        let state = match u.rts_req {
            None => {
                ctx.charge(self.costs.unpack_ns(u.payload.len()));
                Req::Received(status, u.payload)
            }
            Some(rts) => {
                // Long message: grant the sender a clear-to-send, which
                // reuses the sender's request id in `req` and carries ours
                // in the payload; the data packets will complete `req`.
                let header = self.header(PacketKind::RndzCts, u.tag, u.context, u.len as u32, rts);
                self.send_packet(ctx, u.src, &header, &req.to_le_bytes())?;
                let buf = Vec::new();
                Req::Collecting { status, buf }
            }
        };
        self.reqs.insert(req, state);
        Ok(())
    }

    /// Block until the send `req` completes. `idle` is how to wait out an
    /// iteration with nothing to dispatch ([`Idle::Park`] or
    /// [`Idle::Sleep`]).
    pub fn wait_send(&mut self, ctx: &mut ProcCtx, req: SendRequest, idle: Idle) {
        self.redeem(ctx, req.0, idle);
    }

    /// Block until the receive `req` completes and yield its message;
    /// `idle` as for [`Adi::wait_send`].
    pub fn wait_recv(
        &mut self,
        ctx: &mut ProcCtx,
        req: RecvRequest,
        idle: Idle,
    ) -> (Status, Vec<u8>) {
        match self.redeem(ctx, Some(req.0), idle) {
            Some(Req::Received(status, data)) => (status, data),
            _ => unreachable!("a receive's id only ever names a receive"),
        }
    }

    /// The one wait: step until request `id` (none: an eager send, done
    /// as it started) has completed, then take it out of the table.
    fn redeem(&mut self, ctx: &mut ProcCtx, id: Option<u64>, idle: Idle) -> Option<Req> {
        ctx.span(self.node(), Layer::Adi, "wait", |ctx| {
            let done = id.map(|id| loop {
                if self.done(id) {
                    break self.reqs.remove(&id).expect("completed a line ago");
                }
                self.step(ctx, idle);
            });
            ctx.charge(self.costs.request_ns);
            ctx.settle();
            done
        })
    }

    /// True if request `id` has completed (does not progress).
    fn done(&self, id: u64) -> bool {
        matches!(self.reqs.get(&id), Some(Req::Sent | Req::Received(..)))
    }

    /// True if the send `req` already completed (does not progress).
    pub fn send_done(&self, req: &SendRequest) -> bool {
        req.0.is_none_or(|id| self.done(id))
    }

    /// True if the receive `req` already completed (does not progress).
    pub fn recv_done(&self, req: &RecvRequest) -> bool {
        self.done(req.0)
    }

    /// `MPI_Iprobe` at the ADI: one progress poll, then report — without
    /// consuming — the first unexpected message matching the selector.
    /// (Posted receives would have consumed matching arrivals already,
    /// so probing only ever inspects the unexpected queue, as in MPICH.)
    /// `idle`: [`Idle::Pace`], or [`Idle::Park`] from a loop that repeats
    /// this until it finds something (`MPI_Probe`).
    pub fn iprobe(
        &mut self,
        ctx: &mut ProcCtx,
        context: u16,
        src: Option<usize>,
        tag: Option<Tag>,
        idle: Idle,
    ) -> Option<Status> {
        self.step(ctx, idle);
        ctx.charge(self.costs.queue_ns);
        ctx.settle();
        self.unexpected
            .iter()
            .find(|u| u.matches(context, src, tag))
            .map(Unexpected::status)
    }

    // ------------------------------------------------------------------
    // Native-collective raw frames
    // ------------------------------------------------------------------

    /// Send a one-word null frame (native barrier traffic, revocation
    /// notices), bypassing the whole channel packet path.
    pub fn send_null(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        context: u16,
        phase: u8,
    ) -> Result<(), DeviceError> {
        self.dev.send_frame(ctx, dst, &encode_null(context, phase))
    }

    /// Multicast a null frame (callers check [`Adi::has_native_mcast`]).
    pub fn mcast_null(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        context: u16,
        phase: u8,
    ) -> Result<(), DeviceError> {
        self.dev
            .mcast_frame(ctx, targets, &encode_null(context, phase))
    }

    /// Multicast an eager channel packet (native broadcast; callers check
    /// [`Adi::has_native_mcast`] and [`Adi::eager_mcast_fits`]).
    pub fn mcast_eager(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        context: u16,
        tag: Tag,
        payload: &[u8],
    ) -> Result<(), DeviceError> {
        ctx.span(self.node(), Layer::Adi, "mcast", |ctx| {
            ctx.charge(self.costs.header_build_ns + self.costs.pack_ns(payload.len()));
            let header = self.header(PacketKind::Eager, tag, context, payload.len() as u32, 0);
            let mut frame = header.encode(self.costs.header_bytes);
            frame.extend_from_slice(payload);
            let out = self.dev.mcast_frame(ctx, targets, &frame);
            ctx.settle();
            out
        })
    }

    /// Remove every queued revocation notice and return the contexts
    /// they revoke (drained into [`crate::Mpi`]'s revoked set at each
    /// operation entry).
    pub(crate) fn drain_revocations(&mut self) -> Vec<u16> {
        let mut out = Vec::new();
        self.nulls.retain(|&(_, c, p)| {
            if p == REVOKE_PHASE {
                out.push(c);
                false
            } else {
                true
            }
        });
        out
    }

    /// Where the first queued null frame with this context and phase from
    /// `src` (or from anyone, with `None`) sits.
    fn null_at(&self, src: Option<usize>, context: u16, phase: u8) -> Option<usize> {
        self.nulls
            .iter()
            .position(|&(s, c, p)| c == context && p == phase && src.is_none_or(|w| w == s))
    }

    /// True if [`Adi::wait_null`] would return without polling (does not
    /// progress).
    pub fn has_null(&self, src: Option<usize>, context: u16, phase: u8) -> bool {
        self.null_at(src, context, phase).is_some()
    }

    /// Block until a null frame with this context and phase arrives from
    /// `src` (or from anyone, with `None`), waiting out idle iterations as
    /// `idle` says. Returns the actual source.
    pub fn wait_null(
        &mut self,
        ctx: &mut ProcCtx,
        src: Option<usize>,
        context: u16,
        phase: u8,
        idle: Idle,
    ) -> usize {
        loop {
            if let Some(idx) = self.null_at(src, context, phase) {
                let (s, _, _) = self.nulls.remove(idx).unwrap();
                ctx.settle(); // the queueing cost of the frame just found
                return s;
            }
            self.step(ctx, idle);
        }
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    /// One progress iteration: poll the device, dispatch at most one
    /// frame. Advances virtual time even when idle so blocked loops make
    /// progress: `idle` says how ([`Idle::Pace`] unless the caller is a
    /// loop that blocks until something arrives).
    pub fn progress(&mut self, ctx: &mut ProcCtx, idle: Idle) {
        self.step(ctx, idle);
        ctx.settle();
    }

    /// [`Adi::progress`] for the blocking loops in here: what dispatching
    /// a frame cost stays owed, to be walked together with whatever the
    /// loop charges next (or with its own closing settle).
    fn step(&mut self, ctx: &mut ProcCtx, idle: Idle) {
        let Some((src, frame)) = self.dev.try_recv_frame(ctx) else {
            self.dev.idle(ctx, idle, self.costs.progress_poll_ns);
            return;
        };
        if let Some((context, phase)) = decode_null(&frame) {
            // Even the one-word nulls pass through the progress engine's
            // dispatch queue (the paper: "each layer has to manage
            // received message queues").
            ctx.charge(self.costs.queue_ns);
            self.nulls.push_back((src, context, phase));
            return;
        }
        assert_eq!(
            frame[0], MAGIC_CHANNEL,
            "unknown frame type from rank {src}"
        );
        ctx.span(self.node(), Layer::Channel, "packet_rx", |ctx| {
            ctx.charge(self.costs.header_parse_ns);
            let header = PacketHeader::decode(&frame);
            let payload = frame[self.costs.header_bytes..].to_vec();
            match header.kind {
                PacketKind::Eager => self.dispatch_message(ctx, header, payload, None),
                PacketKind::RndzRts => {
                    let rts = header.req;
                    self.dispatch_message(ctx, header, Vec::new(), Some(rts));
                }
                PacketKind::RndzCts => {
                    let their_req = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    // The send is sent once its data frames below have left.
                    let state = self.reqs.get_mut(&header.req);
                    let state = state.map(|r| std::mem::replace(r, Req::Sent));
                    let Some(Req::Announced { dst, payload }) = state else {
                        panic!("CTS for unknown rendezvous send")
                    };
                    // Segment the data to the device's frame limit; per-pair
                    // FIFO keeps the chunks in order at the receiver. A
                    // rendezvous payload is never empty: an empty send is
                    // eager.
                    let chunk = self.room(self.dev.max_frame()).min(payload.len());
                    let data = self.header(
                        PacketKind::RndzData,
                        header.tag,
                        header.context,
                        payload.len() as u32,
                        their_req,
                    );
                    for piece in payload.chunks(chunk) {
                        self.send_packet(ctx, dst, &data, piece)
                            .unwrap_or_else(|e| fatal("the rendezvous data phase", e));
                    }
                }
                PacketKind::RndzData => {
                    let Some(Req::Collecting { status, buf }) = self.reqs.get_mut(&header.req)
                    else {
                        panic!("data for unknown rendezvous receive")
                    };
                    ctx.charge(self.costs.unpack_ns(payload.len()));
                    buf.extend_from_slice(&payload);
                    if buf.len() >= status.len {
                        debug_assert_eq!(buf.len(), status.len, "rendezvous over-delivery");
                        let done = Req::Received(status.clone(), std::mem::take(buf));
                        self.reqs.insert(header.req, done);
                    }
                }
            }
        });
    }

    /// Route an arrived message (eager payload or RTS) against the posted
    /// queue, else park it as unexpected.
    fn dispatch_message(
        &mut self,
        ctx: &mut ProcCtx,
        header: PacketHeader,
        payload: Vec<u8>,
        rts_req: Option<u64>,
    ) {
        ctx.charge(self.costs.queue_ns);
        let u = Unexpected {
            context: header.context,
            src: header.src,
            tag: header.tag,
            len: header.len as usize,
            payload,
            rts_req,
            trace: ctx.obs().current_rx(self.node()),
            parked_at: ctx.now(),
        };
        let found = self
            .posted
            .iter()
            .position(|p| u.matches(p.context, p.src, p.tag));
        if let Some(idx) = found {
            let p = self.posted.remove(idx).unwrap();
            // The CTS reply is the only send on this path.
            self.accept_matched(ctx, p.req, u)
                .unwrap_or_else(|e| fatal("a clear-to-send sent from the progress engine", e));
        } else {
            ctx.obs()
                .count(ctx.now(), self.node(), "adi.unexpected_parked", 1);
            ctx.obs().lifecycle(
                ctx.now(),
                self.node(),
                u.trace,
                Stage::UnexpectedPark,
                u.src as u64,
            );
            self.unexpected.push_back(u);
            self.unexpected_peak = self.unexpected_peak.max(self.unexpected.len());
            // The same depth the hand-rolled peak tracks, as a gauge
            // series — the series a workload cell dumps when the peak
            // breaks its flood bound.
            ctx.obs().gauge(
                ctx.now(),
                self.node(),
                "adi.unexpected_len",
                self.unexpected.len() as u64,
            );
        }
    }
}

#[cfg(test)]
impl Adi {
    /// Requests started and not yet redeemed: the table and the posted
    /// receives.
    pub(crate) fn requests_held(&self) -> usize {
        self.reqs.len() + self.posted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::SmpiCosts;
    use crate::device::{PacketHeader, PacketKind};
    use crate::testutil::{with_ctx, ScriptProbe, ScriptedDevice};

    fn adi(rank: usize, n: usize) -> (Adi, ScriptProbe) {
        let (dev, probe) = ScriptedDevice::new(rank, n);
        (
            Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface()),
            probe,
        )
    }

    fn eager_frame(
        costs: &SmpiCosts,
        src: usize,
        context: u16,
        tag: Tag,
        payload: &[u8],
    ) -> Vec<u8> {
        let header = PacketHeader {
            kind: PacketKind::Eager,
            src,
            tag,
            context,
            len: payload.len() as u32,
            req: 0,
        };
        let mut f = header.encode(costs.header_bytes);
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn eager_send_is_one_frame_and_completes_immediately() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            let req = a.isend(ctx, 1, 0, 5, b"hello").unwrap();
            assert!(a.send_done(&req));
            a.wait_send(ctx, req, Idle::Park);
            let sent = probe.sent();
            assert_eq!(sent.len(), 1);
            assert_eq!(sent[0].0, 1);
            let h = PacketHeader::decode(&sent[0].1);
            assert_eq!(h.kind, PacketKind::Eager);
            assert_eq!(h.tag, 5);
            assert_eq!(h.len, 5);
            assert_eq!(&sent[0].1[a.costs().header_bytes..], b"hello");
        });
    }

    #[test]
    fn posted_receive_matches_later_arrival() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            let req = a.irecv(ctx, 0, Some(1), Some(9)).unwrap();
            assert!(!a.recv_done(&req));
            let frame = eager_frame(a.costs(), 1, 0, 9, b"payload");
            probe.feed(1, frame);
            let (st, data) = a.wait_recv(ctx, req, Idle::Park);
            assert_eq!(st.source, 1);
            assert_eq!(st.tag, 9);
            assert_eq!(data, b"payload");
        });
    }

    #[test]
    fn unexpected_arrival_matches_later_receive() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            probe.feed(
                1,
                eager_frame(&SmpiCosts::channel_interface(), 1, 0, 3, b"early"),
            );
            a.progress(ctx, Idle::Pace); // parks it in the unexpected queue
            let req = a.irecv(ctx, 0, Some(1), Some(3)).unwrap();
            assert!(a.recv_done(&req), "irecv must drain the unexpected queue");
            let (_, data) = a.wait_recv(ctx, req, Idle::Park);
            assert_eq!(data, b"early");
        });
    }

    #[test]
    fn matching_respects_posting_order_for_equal_selectors() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            let r1 = a.irecv(ctx, 0, Some(1), Some(7)).unwrap();
            let r2 = a.irecv(ctx, 0, Some(1), Some(7)).unwrap();
            let costs = SmpiCosts::channel_interface();
            probe.feed(1, eager_frame(&costs, 1, 0, 7, b"first"));
            probe.feed(1, eager_frame(&costs, 1, 0, 7, b"second"));
            let (_, d1) = a.wait_recv(ctx, r1, Idle::Park);
            let (_, d2) = a.wait_recv(ctx, r2, Idle::Park);
            assert_eq!(d1, b"first");
            assert_eq!(d2, b"second");
        });
    }

    #[test]
    fn wildcard_receive_matches_any_source_and_tag() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 3);
            let req = a.irecv(ctx, 0, None, None).unwrap();
            probe.feed(
                2,
                eager_frame(&SmpiCosts::channel_interface(), 2, 0, 1234, b"w"),
            );
            let (st, _) = a.wait_recv(ctx, req, Idle::Park);
            assert_eq!(st.source, 2);
            assert_eq!(st.tag, 1234);
        });
    }

    #[test]
    fn context_isolation_prevents_cross_communicator_matching() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            let req = a.irecv(ctx, 5, Some(1), Some(1)).unwrap(); // context 5
            probe.feed(
                1,
                eager_frame(&SmpiCosts::channel_interface(), 1, 4, 1, b"ctx4"),
            );
            a.progress(ctx, Idle::Pace);
            assert!(!a.recv_done(&req), "context 4 must not match context 5");
            probe.feed(
                1,
                eager_frame(&SmpiCosts::channel_interface(), 1, 5, 1, b"ctx5"),
            );
            let (_, data) = a.wait_recv(ctx, req, Idle::Park);
            assert_eq!(data, b"ctx5");
        });
    }

    #[test]
    fn rendezvous_send_emits_rts_then_data_after_cts() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            let payload = vec![7u8; 20 * 1024]; // above the 16 KiB threshold
            let req = a.isend(ctx, 1, 0, 2, &payload).unwrap();
            assert!(!a.send_done(&req), "rendezvous waits for CTS");
            let sent = probe.sent();
            assert_eq!(sent.len(), 1);
            let rts = PacketHeader::decode(&sent[0].1);
            assert_eq!(rts.kind, PacketKind::RndzRts);
            assert_eq!(rts.len as usize, payload.len());
            // Fabricate the CTS the peer would send.
            let cts_header = PacketHeader {
                kind: PacketKind::RndzCts,
                src: 1,
                tag: 2,
                context: 0,
                len: payload.len() as u32,
                req: rts.req,
            };
            let mut cts = cts_header.encode(a.costs().header_bytes);
            cts.extend_from_slice(&999u64.to_le_bytes()); // receiver's req id
            probe.feed(1, cts);
            a.progress(ctx, Idle::Pace);
            assert!(a.send_done(&req), "send completes once data flies");
            let sent = probe.sent();
            assert_eq!(sent.len(), 2, "one data frame for an unlimited device");
            let data = PacketHeader::decode(&sent[1].1);
            assert_eq!(data.kind, PacketKind::RndzData);
            assert_eq!(data.req, 999);
        });
    }

    #[test]
    fn rendezvous_data_is_chunked_to_the_frame_limit() {
        with_ctx(|ctx| {
            let (dev, probe) = ScriptedDevice::new(0, 2);
            let mut dev = dev;
            dev.max_frame = Some(4 * 1024);
            let mut a = Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface());
            let payload = vec![3u8; 20 * 1024];
            let req = a.isend(ctx, 1, 0, 2, &payload).unwrap();
            let rts = PacketHeader::decode(&probe.sent()[0].1);
            let cts_header = PacketHeader {
                kind: PacketKind::RndzCts,
                src: 1,
                tag: 2,
                context: 0,
                len: payload.len() as u32,
                req: rts.req,
            };
            let mut cts = cts_header.encode(a.costs().header_bytes);
            cts.extend_from_slice(&1u64.to_le_bytes());
            probe.feed(1, cts);
            a.progress(ctx, Idle::Pace);
            assert!(a.send_done(&req));
            // chunkature: payload per frame = 4096 - 64 header = 4032.
            let frames = probe.sent_count() - 1;
            let chunk = 4 * 1024 - a.costs().header_bytes;
            assert_eq!(frames, (20 * 1024usize).div_ceil(chunk));
        });
    }

    #[test]
    fn iprobe_reports_without_consuming() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 2);
            assert!(a.iprobe(ctx, 0, Some(1), Some(8), Idle::Pace).is_none());
            probe.feed(
                1,
                eager_frame(&SmpiCosts::channel_interface(), 1, 0, 8, b"look"),
            );
            let st = a
                .iprobe(ctx, 0, Some(1), Some(8), Idle::Pace)
                .expect("probe should see it");
            assert_eq!(st.len, 4);
            // Still there for the actual receive.
            let req = a.irecv(ctx, 0, Some(1), Some(8)).unwrap();
            let (_, data) = a.wait_recv(ctx, req, Idle::Park);
            assert_eq!(data, b"look");
            assert!(a.iprobe(ctx, 0, Some(1), Some(8), Idle::Pace).is_none());
        });
    }

    #[test]
    fn nulls_queue_separately_and_match_phase_and_context() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 3);
            probe.feed(2, crate::device::encode_null(7, 1));
            probe.feed(1, crate::device::encode_null(7, 2));
            let src = a.wait_null(ctx, None, 7, 2, Idle::Sleep);
            assert_eq!(src, 1, "phase 2 null is from rank 1");
            let src = a.wait_null(ctx, None, 7, 1, Idle::Sleep);
            assert_eq!(src, 2);
        });
    }

    #[test]
    fn mcast_eager_uses_the_device_multicast() {
        with_ctx(|ctx| {
            let (mut a, probe) = adi(0, 4);
            a.mcast_eager(ctx, &[1, 2, 3], 1, 77, b"fanout").unwrap();
            let sent = probe.sent();
            assert_eq!(sent.len(), 3);
            for (i, (dst, frame)) in sent.iter().enumerate() {
                assert_eq!(*dst, i + 1);
                let h = PacketHeader::decode(frame);
                assert_eq!(h.tag, 77);
                assert_eq!(h.kind, PacketKind::Eager);
            }
        });
    }

    #[test]
    fn failed_eager_send_surfaces_the_device_error() {
        with_ctx(|ctx| {
            let (mut dev, probe) = ScriptedDevice::new(0, 2);
            dev.fail_sends = Some(crate::device::DeviceError::Timeout { peer: 1 });
            let mut a = Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface());
            let err = a.isend(ctx, 1, 0, 5, b"doomed").unwrap_err();
            assert_eq!(err, crate::device::DeviceError::Timeout { peer: 1 });
            assert_eq!(probe.sent_count(), 0, "nothing left the node");
        });
    }

    #[test]
    fn failed_rts_leaves_no_dangling_rendezvous_state() {
        with_ctx(|ctx| {
            let (mut dev, _probe) = ScriptedDevice::new(0, 2);
            dev.fail_sends = Some(crate::device::DeviceError::PeerDown { peer: 1 });
            let mut a = Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface());
            let err = a.isend(ctx, 1, 0, 5, &vec![0u8; 20 * 1024]).unwrap_err();
            assert_eq!(err, crate::device::DeviceError::PeerDown { peer: 1 });
            assert!(
                a.reqs.is_empty(),
                "a failed RTS must not park a pending send"
            );
        });
    }

    #[test]
    fn failed_cts_reply_surfaces_through_irecv() {
        with_ctx(|ctx| {
            let (mut dev, probe) = ScriptedDevice::new(0, 2);
            dev.fail_sends = Some(crate::device::DeviceError::Corrupt { peer: 1 });
            probe.feed(1, {
                // A rendezvous announcement parked in the unexpected
                // queue; matching it requires sending a CTS, which the
                // device refuses.
                let h = PacketHeader {
                    kind: PacketKind::RndzRts,
                    src: 1,
                    tag: 4,
                    context: 0,
                    len: 20 * 1024,
                    req: 77,
                };
                h.encode(SmpiCosts::channel_interface().header_bytes)
            });
            let mut a = Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface());
            a.progress(ctx, Idle::Pace);
            let err = a.irecv(ctx, 0, Some(1), Some(4)).unwrap_err();
            assert_eq!(err, crate::device::DeviceError::Corrupt { peer: 1 });
        });
    }

    #[test]
    fn eager_mcast_fits_respects_frame_limit() {
        let (dev, _probe) = ScriptedDevice::new(0, 2);
        let mut dev = dev;
        dev.max_frame = Some(1000);
        let a = Adi::new(Device::Scripted(dev), SmpiCosts::channel_interface());
        assert!(a.eager_mcast_fits(1000 - a.costs().header_bytes));
        assert!(!a.eager_mcast_fits(1000));
    }
}
