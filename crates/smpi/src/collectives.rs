//! Collective operations: stock MPICH point-to-point algorithms, plus the
//! paper's native SCRAMNet-multicast implementations of broadcast and
//! barrier (§4).

use des::ProcCtx;

use crate::mpi::{Comm, Mpi};
use crate::types::{ReduceOp, Tag};

/// Which collective algorithms a communicator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveImpl {
    /// Binomial-tree broadcast, gather+release barrier — what MPICH runs
    /// on any device.
    PointToPoint,
    /// The paper's algorithms over `bbp_Mcast`: single-step broadcast and
    /// coordinator barrier. Falls back to `PointToPoint` on devices
    /// without hardware multicast.
    #[default]
    Native,
}

// Reserved tags (all above MAX_USER_TAG), used inside the collective
// context so they can never collide with application traffic.
const TAG_BCAST: Tag = 0xF000_0001;
const TAG_BARRIER_UP: Tag = 0xF000_0002;
const TAG_BARRIER_DOWN: Tag = 0xF000_0003;
const TAG_GATHER: Tag = 0xF000_0004;
const TAG_SCATTER: Tag = 0xF000_0005;
const TAG_REDUCE: Tag = 0xF000_0006;
const TAG_ALLTOALL: Tag = 0xF000_0007;
const TAG_SCAN: Tag = 0xF000_0008;

impl Mpi {
    fn native_collectives(&self, comm: &Comm) -> bool {
        comm.coll == CollectiveImpl::Native && self.adi.has_native_mcast()
    }

    /// Advance the barrier phase counter for a collective context,
    /// skipping the phase byte reserved for revocation notices.
    pub(crate) fn next_barrier_phase(&mut self, cctx: u16) -> u8 {
        let p = self.barrier_phase.entry(cctx).or_insert(0);
        *p = p.wrapping_add(1);
        if *p == crate::adi::REVOKE_PHASE {
            *p = 0;
        }
        *p
    }

    fn charge_collective(&self, ctx: &mut ProcCtx) {
        ctx.charge(self.adi.costs().collective_entry_ns);
    }

    // Collectives have no way to report a partial failure to the group
    // (MPI_ERR_* from a collective leaves the communicator in an
    // unspecified state), so a transport error inside one is fatal.
    fn coll_isend(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        context: u16,
        tag: Tag,
        payload: &[u8],
    ) -> crate::types::ReqId {
        self.adi
            .isend(ctx, dst, context, tag, payload)
            .expect("transport failed inside a collective")
    }

    fn coll_irecv(
        &mut self,
        ctx: &mut ProcCtx,
        context: u16,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> crate::types::ReqId {
        self.adi
            .irecv(ctx, context, src, tag)
            .expect("transport failed inside a collective")
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// `MPI_Bcast`: the root passes `Some(data)`, everyone else `None`;
    /// all ranks return the broadcast bytes.
    pub fn bcast(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
    ) -> Vec<u8> {
        self.span_enter(ctx, "bcast");
        self.charge_collective(ctx);
        let out = if comm.size() == 1 {
            data.expect("root must supply the broadcast data").to_vec()
        } else if self.native_collectives(comm) {
            self.bcast_native(ctx, comm, root, data)
        } else {
            self.bcast_binomial(ctx, comm, root, data)
        };
        self.leave(ctx, "bcast");
        out
    }

    /// The paper's `MPI_Bcast`: the root determines the group and posts
    /// the message once via `bbp_Mcast`; receivers wait for the root's
    /// message. Non-synchronizing; successive broadcasts match in order
    /// thanks to the BBP's in-order delivery.
    fn bcast_native(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
    ) -> Vec<u8> {
        if comm.rank() == root {
            let data = data.expect("root must supply the broadcast data");
            let targets: Vec<usize> = (0..comm.size())
                .filter(|&r| r != root)
                .map(|r| comm.world_rank(r))
                .collect();
            if self.adi.eager_mcast_fits(data.len()) {
                self.adi
                    .mcast_eager(ctx, &targets, comm.coll_context, TAG_BCAST, data);
            } else {
                // The single-step multicast cannot segment; oversized
                // payloads go out as root-driven point-to-point sends.
                // Receivers cannot tell the difference: either way one
                // TAG_BCAST message from the root arrives.
                let reqs: Vec<_> = targets
                    .iter()
                    .map(|&t| self.coll_isend(ctx, t, comm.coll_context, TAG_BCAST, data))
                    .collect();
                for req in reqs {
                    self.adi.wait(ctx, req);
                }
            }
            data.to_vec()
        } else {
            let root_world = comm.world_rank(root);
            let req = self.coll_irecv(ctx, comm.coll_context, Some(root_world), Some(TAG_BCAST));
            let (_, bytes) = self.adi.wait(ctx, req).expect("bcast receive");
            bytes
        }
    }

    /// Stock MPICH binomial-tree broadcast over point-to-point sends.
    fn bcast_binomial(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
    ) -> Vec<u8> {
        let size = comm.size();
        let vrank = (comm.rank() + size - root) % size;
        let mut buf = data.map(|d| d.to_vec());
        // Receive from the parent.
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % size;
                let req = self.coll_irecv(
                    ctx,
                    comm.coll_context,
                    Some(comm.world_rank(parent)),
                    Some(TAG_BCAST),
                );
                let (_, bytes) = self.adi.wait(ctx, req).expect("bcast receive");
                buf = Some(bytes);
                break;
            }
            mask <<= 1;
        }
        // Forward to children (waiting completions so rendezvous-sized
        // payloads finish their handshake before we leave the call).
        mask >>= 1;
        let payload = buf.expect("broadcast data must exist after the receive phase");
        let mut sends = Vec::new();
        while mask > 0 {
            if vrank + mask < size {
                let child = (vrank + mask + root) % size;
                sends.push(self.coll_isend(
                    ctx,
                    comm.world_rank(child),
                    comm.coll_context,
                    TAG_BCAST,
                    &payload,
                ));
            }
            mask >>= 1;
        }
        for req in sends {
            self.adi.wait(ctx, req);
        }
        payload
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, ctx: &mut ProcCtx, comm: &Comm) {
        self.span_enter(ctx, "barrier");
        self.charge_collective(ctx);
        if comm.size() > 1 {
            if self.native_collectives(comm) {
                self.barrier_native(ctx, comm);
            } else {
                self.barrier_p2p(ctx, comm);
            }
        }
        self.leave(ctx, "barrier");
    }

    /// The paper's `MPI_Barrier`: rank 0 coordinates — it waits for a
    /// null message from every other process, then releases the group
    /// with a single `bbp_Mcast` null.
    fn barrier_native(&mut self, ctx: &mut ProcCtx, comm: &Comm) {
        let cctx = comm.coll_context;
        let phase = self.next_barrier_phase(cctx);
        let root_world = comm.world_rank(0);
        if comm.rank() == 0 {
            for _ in 1..comm.size() {
                self.adi.wait_null(ctx, None, cctx, phase);
            }
            let targets: Vec<usize> = (1..comm.size()).map(|r| comm.world_rank(r)).collect();
            self.adi.mcast_null(ctx, &targets, cctx, phase);
        } else {
            self.adi.send_null(ctx, root_world, cctx, phase);
            self.adi.wait_null(ctx, Some(root_world), cctx, phase);
        }
    }

    /// Stock MPICH barrier: binomial gather of empty messages into rank
    /// 0, binomial broadcast of the release.
    fn barrier_p2p(&mut self, ctx: &mut ProcCtx, comm: &Comm) {
        let size = comm.size();
        let vrank = comm.rank(); // root is always comm rank 0
                                 // Gather phase (children → parents).
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                let parent = vrank - mask;
                self.coll_isend(
                    ctx,
                    comm.world_rank(parent),
                    comm.coll_context,
                    TAG_BARRIER_UP,
                    &[],
                );
                break;
            }
            let child = vrank + mask;
            if child < size {
                let req = self.coll_irecv(
                    ctx,
                    comm.coll_context,
                    Some(comm.world_rank(child)),
                    Some(TAG_BARRIER_UP),
                );
                self.adi.wait(ctx, req);
            }
            mask <<= 1;
        }
        // Release phase: binomial broadcast of an empty message.
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                let parent = vrank - mask;
                let req = self.coll_irecv(
                    ctx,
                    comm.coll_context,
                    Some(comm.world_rank(parent)),
                    Some(TAG_BARRIER_DOWN),
                );
                self.adi.wait(ctx, req);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < size {
                self.coll_isend(
                    ctx,
                    comm.world_rank(vrank + mask),
                    comm.coll_context,
                    TAG_BARRIER_DOWN,
                    &[],
                );
            }
            mask >>= 1;
        }
    }

    // ------------------------------------------------------------------
    // Degraded-mode (failure-aware) collectives
    // ------------------------------------------------------------------

    /// `MPI_Barrier` with ULFM error reporting: on a world with a
    /// failure detector it completes within the membership epoch it
    /// entered, or fails typed ([`crate::MpiError::PeerFailed`] /
    /// [`crate::MpiError::Revoked`]) for this caller. Individual
    /// callers may observe different outcomes — some complete, some
    /// raise — exactly as ULFM allows; after any caller fails, the
    /// communicator's collective context is poisoned and the group
    /// must [`Mpi::shrink`] before running another collective. On
    /// detector-less worlds this is exactly [`Mpi::barrier`].
    pub fn try_barrier(&mut self, ctx: &mut ProcCtx, comm: &Comm) -> Result<(), crate::MpiError> {
        let everyone: Vec<usize> = (0..comm.size()).collect();
        let Some((entry_epoch, _)) = self.degraded_entry(comm, &everyone)? else {
            self.barrier(ctx, comm);
            return Ok(());
        };
        self.span_enter(ctx, "barrier");
        self.charge_collective(ctx);
        let out = if comm.size() > 1 {
            self.try_barrier_native(ctx, comm, entry_epoch)
        } else {
            Ok(())
        };
        self.leave(ctx, "barrier");
        out
    }

    /// The coordinator barrier with cancellable waits: every blocking
    /// point polls instead, and aborts the moment the detector's epoch
    /// leaves `entry_epoch`. (Detection keeps progressing inside the
    /// poll loops because the device's progress path drives the
    /// membership engine.)
    fn try_barrier_native(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        entry_epoch: u32,
    ) -> Result<(), crate::MpiError> {
        let cctx = comm.coll_context;
        let phase = self.next_barrier_phase(cctx);
        let root_world = comm.world_rank(0);
        if comm.rank() == 0 {
            let mut gathered = 0;
            while gathered < comm.size() - 1 {
                if self.adi.poll_null(ctx, None, cctx, phase).is_some() {
                    gathered += 1;
                } else {
                    self.abort_if_epoch_moved(comm, entry_epoch)?;
                }
            }
            let targets: Vec<usize> = (1..comm.size()).map(|r| comm.world_rank(r)).collect();
            self.adi
                .try_mcast_null(ctx, &targets, cctx, phase)
                .map_err(|e| self.transport_to_mpi(comm, e))
        } else {
            self.adi
                .try_send_null(ctx, root_world, cctx, phase)
                .map_err(|e| self.transport_to_mpi(comm, e))?;
            while self
                .adi
                .poll_null(ctx, Some(root_world), cctx, phase)
                .is_none()
            {
                self.abort_if_epoch_moved(comm, entry_epoch)?;
            }
            Ok(())
        }
    }

    /// `MPI_Bcast` with ULFM error reporting (same contract as
    /// [`Mpi::try_barrier`]). The root passes `Some(data)` and gets its
    /// own bytes back on success; receivers pass `None`.
    pub fn try_bcast(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
    ) -> Result<Vec<u8>, crate::MpiError> {
        let everyone: Vec<usize> = (0..comm.size()).collect();
        let Some((entry_epoch, _)) = self.degraded_entry(comm, &everyone)? else {
            return Ok(self.bcast(ctx, comm, root, data));
        };
        self.span_enter(ctx, "bcast");
        self.charge_collective(ctx);
        let out = self.try_bcast_native(ctx, comm, root, data, entry_epoch);
        self.leave(ctx, "bcast");
        out
    }

    fn try_bcast_native(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
        entry_epoch: u32,
    ) -> Result<Vec<u8>, crate::MpiError> {
        if comm.size() == 1 {
            return Ok(data.expect("root must supply the broadcast data").to_vec());
        }
        if comm.rank() == root {
            let data = data.expect("root must supply the broadcast data");
            let targets: Vec<usize> = (0..comm.size())
                .filter(|&r| r != root)
                .map(|r| comm.world_rank(r))
                .collect();
            if self.adi.eager_mcast_fits(data.len()) {
                self.adi
                    .try_mcast_eager(ctx, &targets, comm.coll_context, TAG_BCAST, data)
                    .map_err(|e| self.transport_to_mpi(comm, e))?;
            } else {
                let mut reqs = Vec::with_capacity(targets.len());
                for &t in &targets {
                    reqs.push(
                        self.adi
                            .isend(ctx, t, comm.coll_context, TAG_BCAST, data)
                            .map_err(|e| self.transport_to_mpi(comm, e))?,
                    );
                }
                // Rendezvous-sized sends block on the receiver's CTS;
                // poll them cancellably so a receiver dying mid-bcast
                // fails this rank typed instead of wedging it.
                for req in reqs {
                    while !self.adi.is_complete(req) {
                        self.abort_if_epoch_moved(comm, entry_epoch)?;
                        self.adi.progress(ctx);
                    }
                    self.adi.wait(ctx, req);
                }
            }
            Ok(data.to_vec())
        } else {
            let root_world = comm.world_rank(root);
            let req = self
                .adi
                .irecv(ctx, comm.coll_context, Some(root_world), Some(TAG_BCAST))
                .map_err(|e| self.transport_to_mpi(comm, e))?;
            loop {
                if self.adi.is_complete(req) {
                    let (_, bytes) = self.adi.wait(ctx, req).expect("bcast receive");
                    return Ok(bytes);
                }
                self.abort_if_epoch_moved(comm, entry_epoch)?;
                self.adi.progress(ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Gather / scatter families
    // ------------------------------------------------------------------

    /// `MPI_Gather` (variable block sizes allowed): root returns all
    /// blocks ordered by communicator rank; others return `None`.
    pub fn gather(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        mine: &[u8],
    ) -> Option<Vec<Vec<u8>>> {
        self.span_enter(ctx, "gather");
        self.charge_collective(ctx);
        let out = if comm.rank() == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
            out[root] = mine.to_vec();
            let reqs: Vec<_> = (0..comm.size())
                .filter(|&r| r != root)
                .map(|r| {
                    (
                        r,
                        self.coll_irecv(
                            ctx,
                            comm.coll_context,
                            Some(comm.world_rank(r)),
                            Some(TAG_GATHER),
                        ),
                    )
                })
                .collect();
            for (r, req) in reqs {
                let (_, bytes) = self.adi.wait(ctx, req).expect("gather receive");
                out[r] = bytes;
            }
            Some(out)
        } else {
            let req = self.coll_isend(
                ctx,
                comm.world_rank(root),
                comm.coll_context,
                TAG_GATHER,
                mine,
            );
            self.adi.wait(ctx, req);
            None
        };
        self.leave(ctx, "gather");
        out
    }

    /// `MPI_Scatter`: root supplies one block per rank; everyone returns
    /// their block.
    pub fn scatter(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        blocks: Option<&[Vec<u8>]>,
    ) -> Vec<u8> {
        self.span_enter(ctx, "scatter");
        self.charge_collective(ctx);
        let out = if comm.rank() == root {
            let blocks = blocks.expect("root must supply scatter blocks");
            assert_eq!(blocks.len(), comm.size(), "one block per rank");
            let mut sends = Vec::new();
            for (r, block) in blocks.iter().enumerate() {
                if r != root {
                    sends.push(self.coll_isend(
                        ctx,
                        comm.world_rank(r),
                        comm.coll_context,
                        TAG_SCATTER,
                        block,
                    ));
                }
            }
            for req in sends {
                self.adi.wait(ctx, req);
            }
            blocks[root].clone()
        } else {
            let req = self.coll_irecv(
                ctx,
                comm.coll_context,
                Some(comm.world_rank(root)),
                Some(TAG_SCATTER),
            );
            let (_, bytes) = self.adi.wait(ctx, req).expect("scatter receive");
            bytes
        };
        self.leave(ctx, "scatter");
        out
    }

    /// `MPI_Allgather`: gather to rank 0 then broadcast the concatenation.
    pub fn allgather(&mut self, ctx: &mut ProcCtx, comm: &Comm, mine: &[u8]) -> Vec<Vec<u8>> {
        let gathered = self.gather(ctx, comm, 0, mine);
        let encoded = if comm.rank() == 0 {
            Some(encode_blocks(&gathered.unwrap()))
        } else {
            None
        };
        let bytes = self.bcast(ctx, comm, 0, encoded.as_deref());
        decode_blocks(&bytes)
    }

    /// `MPI_Alltoall` (variable block sizes): `blocks[r]` goes to rank
    /// `r`; returns the blocks received, indexed by source rank.
    pub fn alltoall(&mut self, ctx: &mut ProcCtx, comm: &Comm, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.span_enter(ctx, "alltoall");
        self.charge_collective(ctx);
        assert_eq!(blocks.len(), comm.size(), "one block per destination");
        let me = comm.rank();
        let rreqs: Vec<_> = (0..comm.size())
            .filter(|&r| r != me)
            .map(|r| {
                (
                    r,
                    self.coll_irecv(
                        ctx,
                        comm.coll_context,
                        Some(comm.world_rank(r)),
                        Some(TAG_ALLTOALL),
                    ),
                )
            })
            .collect();
        let mut sends = Vec::new();
        for (r, block) in blocks.iter().enumerate() {
            if r != me {
                sends.push(self.coll_isend(
                    ctx,
                    comm.world_rank(r),
                    comm.coll_context,
                    TAG_ALLTOALL,
                    block,
                ));
            }
        }
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
        out[me] = blocks[me].clone();
        for (r, req) in rreqs {
            let (_, bytes) = self.adi.wait(ctx, req).expect("alltoall receive");
            out[r] = bytes;
        }
        for req in sends {
            self.adi.wait(ctx, req);
        }
        self.leave(ctx, "alltoall");
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// `MPI_Reduce` over `f64` vectors: root returns the folded vector.
    pub fn reduce(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        op: ReduceOp,
        data: &[f64],
    ) -> Option<Vec<f64>> {
        self.span_enter(ctx, "reduce");
        self.charge_collective(ctx);
        let out = (|| {
            let size = comm.size();
            let vrank = (comm.rank() + size - root) % size;
            let mut acc = data.to_vec();
            let mut mask = 1;
            while mask < size {
                if vrank & mask == 0 {
                    let peer_v = vrank | mask;
                    if peer_v < size {
                        let peer = (peer_v + root) % size;
                        let req = self.coll_irecv(
                            ctx,
                            comm.coll_context,
                            Some(comm.world_rank(peer)),
                            Some(TAG_REDUCE),
                        );
                        let (_, bytes) = self.adi.wait(ctx, req).expect("reduce receive");
                        op.fold(&mut acc, &decode_f64s(&bytes));
                    }
                } else {
                    let peer_v = vrank & !mask;
                    let peer = (peer_v + root) % size;
                    let req = self.coll_isend(
                        ctx,
                        comm.world_rank(peer),
                        comm.coll_context,
                        TAG_REDUCE,
                        &encode_f64s(&acc),
                    );
                    self.adi.wait(ctx, req);
                    return None;
                }
                mask <<= 1;
            }
            Some(acc)
        })();
        self.leave(ctx, "reduce");
        out
    }

    /// `MPI_Allreduce` = reduce to rank 0 + broadcast.
    pub fn allreduce(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        op: ReduceOp,
        data: &[f64],
    ) -> Vec<f64> {
        let reduced = self.reduce(ctx, comm, 0, op, data);
        let encoded = reduced.map(|v| encode_f64s(&v));
        let bytes = self.bcast(ctx, comm, 0, encoded.as_deref());
        decode_f64s(&bytes)
    }

    /// `MPI_Scan`: inclusive prefix reduction over `f64` vectors — rank
    /// `r` returns `op` folded over ranks `0..=r`. Linear pipeline (the
    /// MPICH 1.x algorithm).
    pub fn scan(&mut self, ctx: &mut ProcCtx, comm: &Comm, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        self.span_enter(ctx, "scan");
        self.charge_collective(ctx);
        let me = comm.rank();
        let mut acc = data.to_vec();
        if me > 0 {
            let req = self.coll_irecv(
                ctx,
                comm.coll_context,
                Some(comm.world_rank(me - 1)),
                Some(TAG_SCAN),
            );
            let (_, bytes) = self.adi.wait(ctx, req).expect("scan receive");
            let prefix = decode_f64s(&bytes);
            let mut folded = prefix;
            op.fold(&mut folded, &acc);
            acc = folded;
        }
        if me + 1 < comm.size() {
            let req = self.coll_isend(
                ctx,
                comm.world_rank(me + 1),
                comm.coll_context,
                TAG_SCAN,
                &encode_f64s(&acc),
            );
            self.adi.wait(ctx, req);
        }
        self.leave(ctx, "scan");
        acc
    }

    /// `MPI_Exscan`: exclusive prefix reduction — rank `r` returns `op`
    /// folded over ranks `0..r` (`None` at rank 0, which has no prefix).
    pub fn exscan(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        op: ReduceOp,
        data: &[f64],
    ) -> Option<Vec<f64>> {
        self.charge_collective(ctx);
        let me = comm.rank();
        // Receive the running prefix from the left, forward prefix+mine
        // to the right.
        let prefix = if me > 0 {
            let req = self.coll_irecv(
                ctx,
                comm.coll_context,
                Some(comm.world_rank(me - 1)),
                Some(TAG_SCAN),
            );
            let (_, bytes) = self.adi.wait(ctx, req).expect("exscan receive");
            Some(decode_f64s(&bytes))
        } else {
            None
        };
        if me + 1 < comm.size() {
            let mut running = prefix.clone().unwrap_or_else(|| data.to_vec());
            if prefix.is_some() {
                op.fold(&mut running, data);
            }
            let req = self.coll_isend(
                ctx,
                comm.world_rank(me + 1),
                comm.coll_context,
                TAG_SCAN,
                &encode_f64s(&running),
            );
            self.adi.wait(ctx, req);
        }
        ctx.settle(); // a group of one talks to nobody
        prefix
    }

    /// `MPI_Reduce_scatter_block`: elementwise-reduce `comm.size()`
    /// blocks of `block_len` values, then hand block `r` to rank `r`.
    /// Implemented as reduce-to-root + scatter, like MPICH 1.x.
    pub fn reduce_scatter_block(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        op: ReduceOp,
        data: &[f64],
    ) -> Vec<f64> {
        let n = comm.size();
        assert!(
            data.len().is_multiple_of(n),
            "data must hold one equal block per rank"
        );
        let block_len = data.len() / n;
        let reduced = self.reduce(ctx, comm, 0, op, data);
        let blocks: Option<Vec<Vec<u8>>> =
            reduced.map(|full| full.chunks(block_len).map(encode_f64s).collect());
        let mine = self.scatter(ctx, comm, 0, blocks.as_deref());
        decode_f64s(&mine)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_split`: group by `color` (negative = undefined, returns
    /// `None`), order by `(key, old rank)`.
    pub fn comm_split(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        color: i64,
        key: i64,
    ) -> Option<Comm> {
        // Exchange (color, key, world rank) records.
        let mut record = Vec::with_capacity(24);
        record.extend_from_slice(&color.to_le_bytes());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(self.rank() as u64).to_le_bytes());
        let all = self.allgather(ctx, comm, &record);
        let mut parsed: Vec<(i64, i64, usize)> = all
            .iter()
            .map(|b| {
                (
                    i64::from_le_bytes(b[0..8].try_into().unwrap()),
                    i64::from_le_bytes(b[8..16].try_into().unwrap()),
                    u64::from_le_bytes(b[16..24].try_into().unwrap()) as usize,
                )
            })
            .collect();
        // Distinct non-negative colors, sorted, define context offsets so
        // every member computes identical context ids.
        let mut colors: Vec<i64> = parsed.iter().map(|p| p.0).filter(|&c| c >= 0).collect();
        colors.sort_unstable();
        colors.dedup();
        let base = self.next_context;
        self.next_context += 2 * colors.len() as u16;
        if color < 0 {
            return None;
        }
        let ci = colors.binary_search(&color).unwrap() as u16;
        parsed.retain(|p| p.0 == color);
        parsed.sort_by_key(|&(_, k, w)| (k, w));
        let ranks: Vec<usize> = parsed.iter().map(|p| p.2).collect();
        let me = ranks
            .iter()
            .position(|&w| w == self.rank())
            .expect("we are in our own color group");
        Some(Comm {
            context: base + 2 * ci,
            coll_context: base + 2 * ci + 1,
            ranks,
            me,
            coll: comm.coll,
        })
    }
}

/// Length-prefixed block concatenation (allgather wire format).
fn encode_blocks(blocks: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = blocks.iter().map(|b| b.len() + 4).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    }
    out
}

fn decode_blocks(bytes: &[u8]) -> Vec<Vec<u8>> {
    let n = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(n);
    let mut at = 4;
    for _ in 0..n {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        out.push(bytes[at..at + len].to_vec());
        at += len;
    }
    out
}

/// `f64` vector wire format (reductions).
pub(crate) fn encode_f64s(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

pub(crate) fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip() {
        let blocks = vec![vec![1, 2, 3], vec![], vec![9; 100]];
        assert_eq!(decode_blocks(&encode_blocks(&blocks)), blocks);
    }

    #[test]
    fn f64s_round_trip() {
        let v = vec![0.0, -1.5, std::f64::consts::PI];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
    }

    #[test]
    fn empty_blocks_round_trip() {
        let blocks: Vec<Vec<u8>> = vec![];
        assert_eq!(decode_blocks(&encode_blocks(&blocks)), blocks);
    }
}
