//! ULFM-style degraded mode: typed failure reporting, communicator
//! revocation, and shrink-based recovery — available on worlds whose
//! transport carries a membership layer
//! ([`crate::MpiWorld::scramnet_membership`]).
//!
//! The model follows MPI's User-Level Failure Mitigation proposal,
//! scaled to the simulator:
//!
//! - **Detection is the transport's job.** The BBP heartbeat detector
//!   publishes a `(epoch, alive_mask)` view; the MPI layer only reads
//!   it (through [`crate::Device::membership`]) and never guesses.
//! - **Failures are local and typed.** An operation involving a dead
//!   rank raises [`MpiError::PeerFailed`]; survivor-to-survivor traffic
//!   on the same communicator keeps working. The degraded collectives
//!   ([`Mpi::try_barrier`], [`Mpi::try_bcast`]) complete in the
//!   membership epoch they entered or fail typed for each live caller.
//! - **Recovery is explicit.** A caller that wants to interrupt the
//!   whole group calls [`Mpi::revoke`] (every live member then observes
//!   [`MpiError::Revoked`]), and the survivors call [`Mpi::shrink`] to
//!   build a dense re-ranked communicator and carry on.
//! - **Partitions fail typed, on both sides.** With quorum-enforced
//!   membership underneath, majority-side ranks see the minority graded
//!   dead ([`MpiError::PeerFailed`]) and can `revoke`/`shrink` as usual;
//!   minority-side ranks — whose transport froze — get
//!   [`MpiError::Partitioned`] from every operation (including blocked
//!   collectives, which would otherwise hang: a frozen rank's epoch
//!   never moves) until the partition heals and the majority readmits
//!   them.
//!
//! Shrink needs no negotiation traffic: epoch transitions are observed
//! identically on every live node (the membership layer's agreement
//! guarantee), so every survivor derives the same group and the same
//! context pair from its own local view.

use des::ProcCtx;

use crate::adi::REVOKE_PHASE;
use crate::device::DeviceError;
use crate::mpi::{Comm, Mpi};
use crate::types::MpiError;

/// Context-id base for shrink-derived communicators. Sequential
/// allocation (`Mpi::fresh_contexts`, for [`Mpi::comm_split`]) grows
/// upward from 2 and panics rather than reach this range.
pub(crate) const SHRINK_CONTEXT_BASE: u16 = 0x8000;

impl Mpi {
    /// The transport's failure-detector view, as `(epoch, alive_mask)`
    /// — `None` on worlds without a membership layer.
    pub fn membership(&self) -> Option<(u32, u32)> {
        self.adi.membership()
    }

    /// Fold any arrived revocation notices into the local revoked set.
    pub(crate) fn absorb_revocations(&mut self) {
        for context in self.adi.drain_revocations() {
            self.revoked.insert(context);
        }
    }

    /// Degraded-mode entry check for an operation on `comm` involving
    /// the given communicator ranks. Returns the detector view in force
    /// (so collectives can pin their entry epoch), or the typed failure
    /// that forbids the operation. Vacuous — always `Ok(None)` — on
    /// detector-less worlds.
    pub(crate) fn degraded_entry(
        &mut self,
        comm: &Comm,
        peers: impl IntoIterator<Item = usize>,
    ) -> Result<Option<(u32, u32)>, MpiError> {
        self.absorb_revocations();
        if let Some(epoch) = self.adi.partitioned() {
            return Err(MpiError::Partitioned { epoch });
        }
        let view = self.adi.membership();
        if self.revoked.contains(&comm.context) {
            return Err(MpiError::Revoked {
                epoch: view.map_or(0, |(e, _)| e),
            });
        }
        if let Some((epoch, mask)) = view {
            if let Some(rank) = peers
                .into_iter()
                .find(|&p| mask & (1 << comm.world_rank(p)) == 0)
            {
                return Err(MpiError::PeerFailed { rank, epoch });
            }
        }
        Ok(view)
    }

    /// Translate a transport failure, upgrading the reliability layer's
    /// `PeerDown` to the ULFM taxonomy when a failure detector is
    /// present to vouch for the death, and the quorum layer's freeze to
    /// the typed partition error.
    pub(crate) fn transport_to_mpi(&self, comm: &Comm, e: DeviceError) -> MpiError {
        if let DeviceError::Partitioned { epoch } = e {
            return MpiError::Partitioned { epoch };
        }
        if let DeviceError::PeerDown { peer } = e {
            if let (Some((epoch, _)), Some(rank)) = (self.adi.membership(), comm.comm_rank(peer)) {
                return MpiError::PeerFailed { rank, epoch };
            }
        }
        MpiError::Transport(e)
    }

    /// Between the polls of a collective's wait: fail typed the moment
    /// the operation could no longer be entered — a revocation notice
    /// arrived, this rank's segment lost its quorum (a frozen rank's epoch
    /// never moves, so without this a blocked collective would spin
    /// forever waiting for traffic the fence rejects), a member died — or
    /// the membership epoch left the one the collective entered in. This
    /// is what turns "a member died while we were blocked" from a hang
    /// into [`MpiError::PeerFailed`] at every live caller.
    pub(crate) fn abort_if_epoch_moved(
        &mut self,
        comm: &Comm,
        entry_epoch: u32,
    ) -> Result<(), MpiError> {
        match self.degraded_entry(comm, 0..comm.size())? {
            // The epoch moved without killing a member (a readmission):
            // no one died, but the one-epoch guarantee is broken — report
            // the interruption.
            Some((epoch, _)) if epoch != entry_epoch => Err(MpiError::Revoked { epoch }),
            _ => Ok(()),
        }
    }

    /// ULFM `MPI_Comm_revoke`: mark `comm` unusable group-wide. The
    /// local effect is immediate; every other live member receives a
    /// revocation notice and observes [`MpiError::Revoked`] at its next
    /// operation on `comm`. Idempotent; sends to already-dead members
    /// are skipped and a member dying mid-notice is tolerated.
    pub fn revoke(&mut self, ctx: &mut ProcCtx, comm: &Comm) {
        self.absorb_revocations();
        if !self.revoked.insert(comm.context) {
            return;
        }
        let mask = self.adi.membership().map(|(_, m)| m);
        for r in 0..comm.size() {
            if r == comm.rank() {
                continue;
            }
            let w = comm.world_rank(r);
            if mask.is_some_and(|m| m & (1 << w) == 0) {
                continue;
            }
            // A peer dying mid-notice is exactly the situation the notice
            // is about, so a transport error here is not one.
            let _ = self.adi.send_null(ctx, w, comm.context, REVOKE_PHASE);
        }
    }

    /// ULFM `MPI_Comm_shrink`: the dense re-ranked communicator of
    /// `comm`'s survivors, with collectives rebuilt on fresh contexts.
    /// Collective over the survivors (it ends with a synchronizing
    /// [`Mpi::try_barrier`] on the new communicator, which also proves
    /// the new contexts carry traffic).
    ///
    /// The context pair is derived from the membership epoch, so all
    /// survivors agree on it without negotiation. One shrink per epoch
    /// is the intended workflow (shrinking two *different* communicators
    /// in the same epoch would alias contexts).
    pub fn shrink(&mut self, ctx: &mut ProcCtx, comm: &Comm) -> Result<Comm, MpiError> {
        let Some((epoch, mask)) = self.adi.membership() else {
            // No failure detector means nothing can have failed.
            return Ok(comm.clone());
        };
        let ranks: Vec<usize> = comm
            .ranks
            .iter()
            .copied()
            .filter(|&w| mask & (1 << w) != 0)
            .collect();
        let my_world = comm.world_rank(comm.rank());
        let me = ranks
            .iter()
            .position(|&w| w == my_world)
            .expect("a rank the detector declared dead called shrink");
        let context = SHRINK_CONTEXT_BASE + ((epoch as u16) & 0x3FFF) * 2;
        let shrunk = Comm {
            context,
            coll_context: context + 1,
            ranks,
            me,
            coll: comm.coll,
        };
        self.try_barrier(ctx, &shrunk)?;
        Ok(shrunk)
    }
}
