//! The MPI bindings: communicators and point-to-point operations.

use std::collections::{HashMap, HashSet};

use des::obs::{Layer, Stage};
use des::ProcCtx;

use crate::adi::{Adi, Idle};
use crate::collectives::CollectiveImpl;
use crate::costs::SmpiCosts;
use crate::degraded::SHRINK_CONTEXT_BASE;
use crate::device::Device;
use crate::types::{MpiError, RecvRequest, SendRequest, Status, Tag};

/// Highest tag value applications may use; tags above are reserved for
/// the collective implementations.
pub const MAX_USER_TAG: Tag = 0xEFFF_FFFF;

/// A communicator: a context id pair (point-to-point + collective, as in
/// MPICH) and an ordered group of world ranks.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) context: u16,
    pub(crate) coll_context: u16,
    /// World rank per communicator rank.
    pub(crate) ranks: Vec<usize>,
    /// Our communicator rank.
    pub(crate) me: usize,
    /// Collective algorithm selection.
    pub(crate) coll: CollectiveImpl,
}

impl Comm {
    /// Our rank within this communicator.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Number of processes in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, comm_rank: usize) -> usize {
        self.ranks[comm_rank]
    }

    /// Translate a world rank back to a communicator rank (None if the
    /// process is not in the group).
    pub fn comm_rank(&self, world: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == world)
    }

    /// A copy of this communicator pinned to the given collective
    /// implementation (the benches compare both on one world).
    pub fn with_collectives(&self, coll: CollectiveImpl) -> Comm {
        Comm {
            coll,
            ..self.clone()
        }
    }

    fn check(&self, rank: usize) -> Result<(), MpiError> {
        if rank < self.ranks.len() {
            Ok(())
        } else {
            Err(MpiError::BadRank {
                rank,
                size: self.ranks.len(),
            })
        }
    }
}

/// One rank's MPI library instance. Owns the ADI (and through it the
/// device); moved into the rank's simulated process.
pub struct Mpi {
    pub(crate) adi: Adi,
    default_coll: CollectiveImpl,
    pub(crate) next_context: u16,
    /// Per-collective-context barrier phase counters.
    pub(crate) barrier_phase: HashMap<u16, u8>,
    /// Contexts of revoked communicators (degraded mode): populated by
    /// a local [`Mpi::revoke`] or by a peer's revocation notice.
    pub(crate) revoked: HashSet<u16>,
}

impl Mpi {
    /// Build from a device. Most users go through
    /// [`crate::MpiWorld`] instead.
    pub fn new(dev: Device, costs: SmpiCosts, default_coll: CollectiveImpl) -> Self {
        Mpi {
            adi: Adi::new(dev, costs),
            default_coll,
            next_context: 2, // 0/1 belong to the world communicator
            barrier_phase: HashMap::new(),
            revoked: HashSet::new(),
        }
    }

    /// Our world rank.
    pub fn rank(&self) -> usize {
        self.adi.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.adi.nprocs()
    }

    /// The ADI (stats, device access).
    pub fn adi(&self) -> &Adi {
        &self.adi
    }

    /// `MPI_COMM_WORLD`.
    pub fn comm_world(&self) -> Comm {
        Comm {
            context: 0,
            coll_context: 1,
            ranks: (0..self.size()).collect(),
            me: self.rank(),
            coll: self.default_coll,
        }
    }

    /// Take `pairs` fresh context pairs and return the first context.
    /// Every rank takes the same ones because all ranks make their
    /// communicator-creating calls in the same collective order (the MPI
    /// requirement that makes this sound). Panics rather than reach the
    /// shrink-derived range, whose contexts the pairs would collide with.
    pub(crate) fn fresh_contexts(&mut self, pairs: usize) -> u16 {
        let base = self.next_context;
        let next = usize::from(base) + 2 * pairs;
        assert!(
            next <= usize::from(SHRINK_CONTEXT_BASE),
            "sequential context ids collided with the shrink-derived range"
        );
        self.next_context = next as u16;
        base
    }

    fn charge_binding(&self, ctx: &mut ProcCtx) {
        ctx.charge(self.adi.costs().binding_ns);
    }

    /// Run `body` inside an MPI-layer span named `name`, and settle what
    /// the call still owes before the span closes (the binding or
    /// collective-entry charge of a call that failed its argument checks,
    /// or had nobody to talk to, was never followed by a transport stall).
    pub(crate) fn span<R>(
        &mut self,
        ctx: &mut ProcCtx,
        name: &'static str,
        body: impl FnOnce(&mut Self, &mut ProcCtx) -> R,
    ) -> R {
        ctx.span(self.rank() as u32, Layer::Mpi, name, |ctx| {
            let out = body(self, ctx);
            ctx.settle();
            out
        })
    }

    /// A message is entering the stack here: mint its trace id, publish
    /// it for every layer below (the BBP descriptor, the ring's packet
    /// plans), and record the `send_enter` checkpoint.
    pub(crate) fn trace_send_enter(&self, ctx: &ProcCtx, payload_len: usize) -> u64 {
        let rec = ctx.obs();
        let id = rec.mint_trace_id(self.rank() as u32);
        rec.set_current_trace(self.rank() as u32, id);
        rec.lifecycle(
            ctx.now(),
            self.rank() as u32,
            id,
            Stage::SendEnter,
            payload_len as u64,
        );
        id
    }

    /// Close the send entry: clear the published id, and on a typed
    /// error record the `error` checkpoint and snapshot the flight ring
    /// for the postmortem.
    pub(crate) fn trace_send_exit<T>(&self, ctx: &ProcCtx, id: u64, result: &Result<T, MpiError>) {
        let (rec, rank) = (ctx.obs(), self.rank());
        rec.set_current_trace(rank as u32, 0);
        if result.is_err() {
            let label = format!("mpi_send_error_n{rank}");
            rec.postmortem(ctx.now(), rank as u32, id, 0, &label);
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking standard-mode send.
    pub fn send(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        dst: usize,
        tag: Tag,
        data: &[u8],
    ) -> Result<(), MpiError> {
        self.span(ctx, "send", |mpi, ctx| {
            let req = mpi.isend(ctx, comm, dst, tag, data)?;
            mpi.wait_send(ctx, req);
            Ok(())
        })
    }

    /// Blocking receive. `src`/`tag` of `None` are the wildcards.
    pub fn recv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(Status, Vec<u8>), MpiError> {
        self.span(ctx, "recv", |mpi, ctx| {
            let req = mpi.irecv(ctx, comm, src, tag)?;
            Ok(mpi.wait_recv(ctx, comm, req))
        })
    }

    /// Non-blocking send: the reserved-tag check, trace id, span, binding
    /// charge, rank check, degraded-mode check, then the ADI send.
    pub fn isend(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        dst: usize,
        tag: Tag,
        data: &[u8],
    ) -> Result<SendRequest, MpiError> {
        assert!(tag <= MAX_USER_TAG, "tag {tag:#x} is reserved");
        let trace = self.trace_send_enter(ctx, data.len());
        let out = self.span(ctx, "isend", |mpi, ctx| {
            mpi.charge_binding(ctx);
            comm.check(dst)?;
            mpi.degraded_entry(comm, [dst])?;
            let dst = comm.world_rank(dst);
            mpi.adi
                .isend(ctx, dst, comm.context, tag, data)
                .map_err(|e| mpi.transport_to_mpi(comm, e))
        });
        self.trace_send_exit(ctx, trace, &out);
        out
    }

    /// Resolve a receive selector's source to a world rank, refusing a
    /// rank outside the communicator and — in degraded mode — one the
    /// detector declared dead: a receive from it can never complete (ULFM
    /// raises PROC_FAILED on it). Wildcard receives stay valid; a live
    /// sender may match.
    fn recv_source(&mut self, comm: &Comm, src: Option<usize>) -> Result<Option<usize>, MpiError> {
        if let Some(s) = src {
            comm.check(s)?;
        }
        self.degraded_entry(comm, src)?;
        Ok(src.map(|s| comm.world_rank(s)))
    }

    /// Non-blocking receive.
    pub fn irecv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<RecvRequest, MpiError> {
        if let Some(t) = tag {
            assert!(t <= MAX_USER_TAG, "tag {t:#x} is reserved");
        }
        self.span(ctx, "irecv", |mpi, ctx| {
            mpi.charge_binding(ctx);
            let world_src = mpi.recv_source(comm, src)?;
            mpi.adi
                .irecv(ctx, comm.context, world_src, tag)
                .map_err(|e| mpi.transport_to_mpi(comm, e))
        })
    }

    /// Complete a send request.
    pub fn wait_send(&mut self, ctx: &mut ProcCtx, req: SendRequest) {
        self.span(ctx, "wait", |mpi, ctx| {
            mpi.adi.wait_send(ctx, req, Idle::Park)
        });
    }

    /// Complete a receive request, translating the source into the
    /// communicator's rank space.
    pub fn wait_recv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        req: RecvRequest,
    ) -> (Status, Vec<u8>) {
        let (mut status, data) = self.span(ctx, "wait", |mpi, ctx| {
            mpi.adi.wait_recv(ctx, req, Idle::Park)
        });
        status.source = comm
            .comm_rank(status.source)
            .expect("message from outside the communicator matched its context");
        (status, data)
    }

    /// Simultaneous send and receive (deadlock-free exchange). The
    /// argument count mirrors the MPI binding.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        dst: usize,
        send_tag: Tag,
        data: &[u8],
        src: Option<usize>,
        recv_tag: Option<Tag>,
    ) -> Result<(Status, Vec<u8>), MpiError> {
        let rreq = self.irecv(ctx, comm, src, recv_tag)?;
        let sreq = self.isend(ctx, comm, dst, send_tag, data)?;
        self.wait_send(ctx, sreq);
        Ok(self.wait_recv(ctx, comm, rreq))
    }

    /// Drive the progress engine once without blocking (lets applications
    /// overlap computation with rendezvous traffic).
    pub fn progress(&mut self, ctx: &mut ProcCtx) {
        self.adi.progress(ctx, Idle::Pace);
    }

    /// `MPI_Iprobe`: non-blocking check for a matching incoming message
    /// (does not consume it).
    pub fn iprobe(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Option<Status>, MpiError> {
        self.probe_once(ctx, comm, src, tag, Idle::Pace)
    }

    /// One probe; `idle` is what to do about having found no frame at all.
    fn probe_once(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<Tag>,
        idle: Idle,
    ) -> Result<Option<Status>, MpiError> {
        self.charge_binding(ctx);
        let out = self.recv_source(comm, src).map(|world_src| {
            self.adi
                .iprobe(ctx, comm.context, world_src, tag, idle)
                .map(|mut st| {
                    st.source = comm
                        .comm_rank(st.source)
                        .expect("probe matched foreign context");
                    st
                })
        });
        ctx.settle(); // a probe refused before the ADI saw it
        out
    }

    /// `MPI_Probe`: block until a matching message is available, and
    /// report it without consuming it.
    pub fn probe(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Status, MpiError> {
        loop {
            if let Some(st) = self.probe_once(ctx, comm, src, tag, Idle::Park)? {
                return Ok(st);
            }
        }
    }

    /// `MPI_Waitany` over receive requests: block until one completes
    /// and return `(index, status, payload)`. The slot it redeemed becomes
    /// `None`, as `MPI_Waitany` sets it to `MPI_REQUEST_NULL`, so the
    /// indexes stay stable from call to call.
    pub fn waitany_recv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        reqs: &mut [Option<RecvRequest>],
    ) -> (usize, Status, Vec<u8>) {
        assert!(
            reqs.iter().any(Option::is_some),
            "waitany on an empty request set"
        );
        loop {
            let adi = &self.adi;
            let done = reqs.iter_mut().enumerate().find_map(|(idx, slot)| {
                slot.take_if(|req| adi.recv_done(req)).map(|req| (idx, req))
            });
            if let Some((idx, req)) = done {
                let (st, data) = self.wait_recv(ctx, comm, req);
                return (idx, st, data);
            }
            self.adi.progress(ctx, Idle::Park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::CollectiveImpl;
    use crate::costs::SmpiCosts;
    use crate::testutil::ScriptedDevice;

    fn mpi(rank: usize, n: usize) -> Mpi {
        let (dev, _probe) = ScriptedDevice::new(rank, n);
        Mpi::new(
            Device::Scripted(dev),
            SmpiCosts::channel_interface(),
            CollectiveImpl::Native,
        )
    }

    #[test]
    fn comm_world_covers_all_ranks() {
        let m = mpi(2, 5);
        let comm = m.comm_world();
        assert_eq!(comm.size(), 5);
        assert_eq!(comm.rank(), 2);
        for r in 0..5 {
            assert_eq!(comm.world_rank(r), r);
            assert_eq!(comm.comm_rank(r), Some(r));
        }
        assert_eq!(comm.comm_rank(9), None);
    }

    #[test]
    fn with_collectives_overrides_only_the_algorithm() {
        let m = mpi(0, 3);
        let comm = m.comm_world();
        assert_eq!(comm.coll, CollectiveImpl::Native);
        let p2p = comm.with_collectives(CollectiveImpl::PointToPoint);
        assert_eq!(p2p.coll, CollectiveImpl::PointToPoint);
        assert_eq!(p2p.size(), comm.size());
        assert_eq!(p2p.rank(), comm.rank());
        assert_eq!(p2p.context, comm.context);
    }

    #[test]
    fn rank_and_size_mirror_the_device() {
        let m = mpi(3, 7);
        assert_eq!(m.rank(), 3);
        assert_eq!(m.size(), 7);
        assert!(m.adi().has_native_mcast());
    }
}
