//! Collective operations: stock MPICH point-to-point algorithms, plus the
//! paper's native SCRAMNet-multicast implementations of broadcast and
//! barrier (§4).

use des::ProcCtx;

use crate::adi::{Adi, Idle};
use crate::mpi::{Comm, Mpi};
use crate::types::{fatal, MpiError, RecvRequest, ReduceOp, SendRequest, Tag};

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

    // ------------------------------------------------------------------
    // What every collective is made of
    // ------------------------------------------------------------------

    /// Run one leaf collective: the degraded-mode entry check over the
    /// whole group (vacuous on detector-less worlds), the MPI-layer span,
    /// the entry charge, then `body` with the membership epoch it entered
    /// in — the argument that makes every wait below cancellable.
    fn collective<T>(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        name: &'static str,
        body: impl FnOnce(&mut Self, &mut ProcCtx, Option<u32>) -> Result<T, MpiError>,
    ) -> Result<T, MpiError> {
        let view = self.degraded_entry(comm, 0..comm.size())?;
        self.span(ctx, name, |mpi, ctx| {
            ctx.charge(mpi.adi.costs().collective_entry_ns);
            body(mpi, ctx, view.map(|(epoch, _)| epoch))
        })
    }

    /// The one cancellable wait. Given the epoch a collective entered in,
    /// poll until `ready`, failing typed the moment the detector leaves
    /// that epoch (detection keeps progressing inside the loop because
    /// the device's progress path drives the membership engine). Given
    /// none it returns at once and the blocking ADI wait the caller makes
    /// next does the waiting — call for call the paper path.
    fn until(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        epoch: Option<u32>,
        ready: impl Fn(&Adi) -> bool,
    ) -> Result<(), MpiError> {
        let Some(entry) = epoch else { return Ok(()) };
        while !ready(&self.adi) {
            self.abort_if_epoch_moved(comm, entry)?;
            self.adi.progress(ctx, Idle::Pace);
        }
        Ok(())
    }

    /// Start a send to communicator rank `dst` on the collective context.
    fn coll_isend(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        dst: usize,
        tag: Tag,
        payload: &[u8],
    ) -> Result<SendRequest, MpiError> {
        self.adi
            .isend(ctx, comm.world_rank(dst), comm.coll_context, tag, payload)
            .map_err(|e| self.transport_to_mpi(comm, e))
    }

    /// Post a receive from communicator rank `src` on the collective
    /// context.
    fn coll_irecv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: usize,
        tag: Tag,
    ) -> Result<RecvRequest, MpiError> {
        let src = Some(comm.world_rank(src));
        self.adi
            .irecv(ctx, comm.coll_context, src, Some(tag))
            .map_err(|e| self.transport_to_mpi(comm, e))
    }

    /// Complete a send. (Rendezvous-sized sends block on the receiver's
    /// CTS, so they are waited cancellably too: a receiver dying
    /// mid-collective fails the sender typed instead of wedging it.)
    fn coll_wait_send(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        req: SendRequest,
        epoch: Option<u32>,
    ) -> Result<(), MpiError> {
        self.until(ctx, comm, epoch, |adi| adi.send_done(&req))?;
        self.adi.wait_send(ctx, req, Idle::Sleep);
        Ok(())
    }

    /// Complete a receive and yield its payload.
    fn coll_wait_recv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        req: RecvRequest,
        epoch: Option<u32>,
    ) -> Result<Vec<u8>, MpiError> {
        self.until(ctx, comm, epoch, |adi| adi.recv_done(&req))?;
        Ok(self.adi.wait_recv(ctx, req, Idle::Sleep).1)
    }

    fn coll_send(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        dst: usize,
        tag: Tag,
        payload: &[u8],
        epoch: Option<u32>,
    ) -> Result<(), MpiError> {
        let req = self.coll_isend(ctx, comm, dst, tag, payload)?;
        self.coll_wait_send(ctx, comm, req, epoch)
    }

    fn coll_recv(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: usize,
        tag: Tag,
        epoch: Option<u32>,
    ) -> Result<Vec<u8>, MpiError> {
        let req = self.coll_irecv(ctx, comm, src, tag)?;
        self.coll_wait_recv(ctx, comm, req, epoch)
    }

    /// Block until a null frame of this barrier phase arrives from world
    /// rank `src` (or from anyone, with `None`).
    fn coll_wait_null(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        src: Option<usize>,
        phase: u8,
        epoch: Option<u32>,
    ) -> Result<(), MpiError> {
        let cctx = comm.coll_context;
        self.until(ctx, comm, epoch, |adi| adi.has_null(src, cctx, phase))?;
        self.adi.wait_null(ctx, src, cctx, phase, Idle::Sleep);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// `MPI_Bcast`: the root passes `Some(data)`, everyone else `None`;
    /// all ranks return the broadcast bytes. A failure is fatal (see
    /// [`Mpi::try_bcast`] for the variant that reports it).
    pub fn bcast(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
    ) -> Vec<u8> {
        self.try_bcast(ctx, comm, root, data)
            .unwrap_or_else(|e| fatal("bcast", e))
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
    ) -> Result<Vec<u8>, MpiError> {
        self.collective(ctx, comm, "bcast", |mpi, ctx, epoch| {
            if comm.size() == 1 {
                Ok(data.expect("root must supply the broadcast data").to_vec())
            } else if mpi.native_collectives(comm) {
                mpi.bcast_native(ctx, comm, root, data, epoch)
            } else {
                mpi.bcast_binomial(ctx, comm, root, data, epoch)
            }
        })
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
        epoch: Option<u32>,
    ) -> Result<Vec<u8>, MpiError> {
        if comm.rank() != root {
            return self.coll_recv(ctx, comm, root, TAG_BCAST, epoch);
        }
        let data = data.expect("root must supply the broadcast data");
        let others = (0..comm.size()).filter(|&r| r != root);
        if self.adi.eager_mcast_fits(data.len()) {
            let targets: Vec<usize> = others.map(|r| comm.world_rank(r)).collect();
            self.adi
                .mcast_eager(ctx, &targets, comm.coll_context, TAG_BCAST, data)
                .map_err(|e| self.transport_to_mpi(comm, e))?;
        } else {
            // The single-step multicast cannot segment; oversized
            // payloads go out as root-driven point-to-point sends.
            // Receivers cannot tell the difference: either way one
            // TAG_BCAST message from the root arrives.
            let reqs = others
                .map(|r| self.coll_isend(ctx, comm, r, TAG_BCAST, data))
                .collect::<Result<Vec<_>, _>>()?;
            for req in reqs {
                self.coll_wait_send(ctx, comm, req, epoch)?;
            }
        }
        Ok(data.to_vec())
    }

    /// Stock MPICH binomial-tree broadcast over point-to-point sends.
    fn bcast_binomial(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        root: usize,
        data: Option<&[u8]>,
        epoch: Option<u32>,
    ) -> Result<Vec<u8>, MpiError> {
        let size = comm.size();
        let vrank = (comm.rank() + size - root) % size;
        let mut buf = data.map(|d| d.to_vec());
        // Receive from the parent.
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % size;
                buf = Some(self.coll_recv(ctx, comm, parent, TAG_BCAST, epoch)?);
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
                sends.push(self.coll_isend(ctx, comm, child, TAG_BCAST, &payload)?);
            }
            mask >>= 1;
        }
        for req in sends {
            self.coll_wait_send(ctx, comm, req, epoch)?;
        }
        Ok(payload)
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `MPI_Barrier`. A failure is fatal (see [`Mpi::try_barrier`] for
    /// the variant that reports it).
    pub fn barrier(&mut self, ctx: &mut ProcCtx, comm: &Comm) {
        self.try_barrier(ctx, comm)
            .unwrap_or_else(|e| fatal("barrier", e))
    }

    /// `MPI_Barrier` with ULFM error reporting: on a world with a
    /// failure detector it completes within the membership epoch it
    /// entered, or fails typed ([`crate::MpiError::PeerFailed`] /
    /// [`crate::MpiError::Revoked`]) for this caller. Individual
    /// callers may observe different outcomes — some complete, some
    /// raise — exactly as ULFM allows; after any caller fails, the
    /// communicator's collective context is poisoned and the group
    /// must [`Mpi::shrink`] before running another collective. On
    /// detector-less worlds only a transport failure can make it fail.
    pub fn try_barrier(&mut self, ctx: &mut ProcCtx, comm: &Comm) -> Result<(), MpiError> {
        self.collective(ctx, comm, "barrier", |mpi, ctx, epoch| {
            if comm.size() == 1 {
                Ok(())
            } else if mpi.native_collectives(comm) {
                mpi.barrier_native(ctx, comm, epoch)
            } else {
                mpi.barrier_p2p(ctx, comm, epoch)
            }
        })
    }

    /// The paper's `MPI_Barrier`: rank 0 coordinates — it waits for a
    /// null message from every other process, then releases the group
    /// with a single `bbp_Mcast` null.
    fn barrier_native(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        epoch: Option<u32>,
    ) -> Result<(), MpiError> {
        let cctx = comm.coll_context;
        let phase = self.next_barrier_phase(cctx);
        if comm.rank() == 0 {
            for _ in 1..comm.size() {
                self.coll_wait_null(ctx, comm, None, phase, epoch)?;
            }
            let targets: Vec<usize> = (1..comm.size()).map(|r| comm.world_rank(r)).collect();
            self.adi
                .mcast_null(ctx, &targets, cctx, phase)
                .map_err(|e| self.transport_to_mpi(comm, e))
        } else {
            let root = comm.world_rank(0);
            self.adi
                .send_null(ctx, root, cctx, phase)
                .map_err(|e| self.transport_to_mpi(comm, e))?;
            self.coll_wait_null(ctx, comm, Some(root), phase, epoch)
        }
    }

    /// Stock MPICH barrier: binomial gather of empty messages into rank
    /// 0, binomial broadcast of the release.
    fn barrier_p2p(
        &mut self,
        ctx: &mut ProcCtx,
        comm: &Comm,
        epoch: Option<u32>,
    ) -> Result<(), MpiError> {
        let size = comm.size();
        // The root is always comm rank 0, so ranks are their own vranks.
        let vrank = comm.rank();
        // Gather phase (children → parents). An empty send is eager: its
        // handle holds nothing, so dropping it unwaited, as both phases
        // do, is free.
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                drop(self.coll_isend(ctx, comm, vrank - mask, TAG_BARRIER_UP, &[])?);
                break;
            }
            if vrank + mask < size {
                self.coll_recv(ctx, comm, vrank + mask, TAG_BARRIER_UP, epoch)?;
            }
            mask <<= 1;
        }
        // Release phase: binomial broadcast of an empty message.
        let mut mask = 1;
        while mask < size {
            if vrank & mask != 0 {
                self.coll_recv(ctx, comm, vrank - mask, TAG_BARRIER_DOWN, epoch)?;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < size {
                drop(self.coll_isend(ctx, comm, vrank + mask, TAG_BARRIER_DOWN, &[])?);
            }
            mask >>= 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Gather and all-to-all
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
        self.collective(ctx, comm, "gather", |mpi, ctx, epoch| {
            if comm.rank() != root {
                mpi.coll_send(ctx, comm, root, TAG_GATHER, mine, epoch)?;
                return Ok(None);
            }
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
            out[root] = mine.to_vec();
            let reqs = (0..comm.size())
                .filter(|&r| r != root)
                .map(|r| Ok((r, mpi.coll_irecv(ctx, comm, r, TAG_GATHER)?)))
                .collect::<Result<Vec<_>, MpiError>>()?;
            for (r, req) in reqs {
                out[r] = mpi.coll_wait_recv(ctx, comm, req, epoch)?;
            }
            Ok(Some(out))
        })
        .unwrap_or_else(|e| fatal("gather", e))
    }

    /// `MPI_Allgather`: gather to rank 0 then broadcast the concatenation.
    pub fn allgather(&mut self, ctx: &mut ProcCtx, comm: &Comm, mine: &[u8]) -> Vec<Vec<u8>> {
        let gathered = self.gather(ctx, comm, 0, mine);
        let encoded = gathered.map(|blocks| encode_blocks(&blocks));
        let bytes = self.bcast(ctx, comm, 0, encoded.as_deref());
        decode_blocks(&bytes)
    }

    /// `MPI_Alltoall` (variable block sizes): `blocks[r]` goes to rank
    /// `r`; returns the blocks received, indexed by source rank.
    pub fn alltoall(&mut self, ctx: &mut ProcCtx, comm: &Comm, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.collective(ctx, comm, "alltoall", |mpi, ctx, epoch| {
            assert_eq!(blocks.len(), comm.size(), "one block per destination");
            let me = comm.rank();
            let rreqs = (0..comm.size())
                .filter(|&r| r != me)
                .map(|r| Ok((r, mpi.coll_irecv(ctx, comm, r, TAG_ALLTOALL)?)))
                .collect::<Result<Vec<_>, MpiError>>()?;
            let mut sends = Vec::new();
            for (r, block) in blocks.iter().enumerate() {
                if r != me {
                    sends.push(mpi.coll_isend(ctx, comm, r, TAG_ALLTOALL, block)?);
                }
            }
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
            out[me] = blocks[me].clone();
            for (r, req) in rreqs {
                out[r] = mpi.coll_wait_recv(ctx, comm, req, epoch)?;
            }
            for req in sends {
                mpi.coll_wait_send(ctx, comm, req, epoch)?;
            }
            Ok(out)
        })
        .unwrap_or_else(|e| fatal("alltoall", e))
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
        self.collective(ctx, comm, "reduce", |mpi, ctx, epoch| {
            let size = comm.size();
            let vrank = (comm.rank() + size - root) % size;
            let mut acc = data.to_vec();
            let mut mask = 1;
            while mask < size {
                if vrank & mask != 0 {
                    let peer = ((vrank & !mask) + root) % size;
                    mpi.coll_send(ctx, comm, peer, TAG_REDUCE, &encode_f64s(&acc), epoch)?;
                    return Ok(None);
                }
                if vrank | mask < size {
                    let peer = ((vrank | mask) + root) % size;
                    let bytes = mpi.coll_recv(ctx, comm, peer, TAG_REDUCE, epoch)?;
                    op.fold(&mut acc, &decode_f64s(&bytes));
                }
                mask <<= 1;
            }
            Ok(Some(acc))
        })
        .unwrap_or_else(|e| fatal("reduce", e))
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
        self.collective(ctx, comm, "scan", |mpi, ctx, epoch| {
            let me = comm.rank();
            let mut acc = data.to_vec();
            if me > 0 {
                let bytes = mpi.coll_recv(ctx, comm, me - 1, TAG_SCAN, epoch)?;
                let mut folded = decode_f64s(&bytes);
                op.fold(&mut folded, &acc);
                acc = folded;
            }
            if me + 1 < comm.size() {
                mpi.coll_send(ctx, comm, me + 1, TAG_SCAN, &encode_f64s(&acc), epoch)?;
            }
            Ok(acc)
        })
        .unwrap_or_else(|e| fatal("scan", e))
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
        let base = self.fresh_contexts(colors.len());
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
    fn point_to_point_barriers_leave_no_request_behind() {
        let mut sim = des::Simulation::new();
        let world = crate::MpiWorld::scramnet(&sim.handle(), 4);
        let mut ranks: Vec<_> = (0..4)
            .map(|rank| {
                let mut mpi = world.proc(rank);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let comm = mpi.comm_world();
                    let comm = comm.with_collectives(CollectiveImpl::PointToPoint);
                    for _ in 0..100 {
                        mpi.barrier(ctx, &comm);
                    }
                    mpi.adi.requests_held()
                })
            })
            .collect();
        assert!(sim.run().is_clean());
        let held: Vec<_> = ranks.iter_mut().map(|r| r.take().unwrap()).collect();
        assert_eq!(held, [0; 4], "requests each rank still holds");
    }

    #[test]
    #[should_panic(expected = "sequential context ids collided with the shrink-derived range")]
    fn a_split_past_the_sequential_contexts_panics() {
        use crate::costs::SmpiCosts;
        use crate::degraded::SHRINK_CONTEXT_BASE;
        use crate::device::Device;
        use crate::testutil::ScriptedDevice;

        let mut sim = des::Simulation::new();
        let (dev, _probe) = ScriptedDevice::new(0, 1);
        let mut mpi = Mpi::new(
            Device::Scripted(dev),
            SmpiCosts::default(),
            CollectiveImpl::Native,
        );
        mpi.next_context = SHRINK_CONTEXT_BASE - 2;
        sim.spawn("rank0", move |ctx| {
            let world = mpi.comm_world();
            // The last pair below the shrink-derived range, then one in it.
            mpi.comm_split(ctx, &world, 0, 0).expect("a color");
            mpi.comm_split(ctx, &world, 0, 0);
        });
        sim.run();
    }

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
