//! Core MPI-facing types: ranks, tags, statuses, requests, errors.

use crate::device::DeviceError;

/// Message tag. `ANY_TAG` in a receive matches any tag.
pub type Tag = u32;

/// Wildcard source for receives.
pub const ANY_SOURCE: Option<usize> = None;

/// Wildcard tag for receives.
pub const ANY_TAG: Option<Tag> = None;

/// Completion information for a receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// Communicator-relative rank of the sender.
    pub source: usize,
    /// The message tag.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

/// A non-blocking send, returned by [`crate::Mpi::isend`] and redeemed by
/// the one [`crate::Mpi::wait_send`] that takes it by value. An eager send
/// has left when `isend` returns, so its handle holds nothing and
/// dropping it is free; a rendezvous send's handle names its entry in the
/// ADI's request table, which only the wait removes.
///
/// Redeeming a send once compiles:
///
/// ```
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx, comm: &smpi::Comm) {
/// let req = mpi.isend(ctx, comm, 1, 0, b"hi").unwrap();
/// mpi.wait_send(ctx, req);
/// # }
/// ```
///
/// and a second wait does not: the first one took the request.
///
/// ```compile_fail,E0382
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx, comm: &smpi::Comm) {
/// let req = mpi.isend(ctx, comm, 1, 0, b"hi").unwrap();
/// mpi.wait_send(ctx, req);
/// mpi.wait_send(ctx, req);
/// # }
/// ```
///
/// A handle comes from the call that started the operation:
///
/// ```
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx, comm: &smpi::Comm) {
/// let req: smpi::SendRequest = mpi.isend(ctx, comm, 1, 0, b"hi").unwrap();
/// mpi.wait_send(ctx, req);
/// # }
/// ```
///
/// and nowhere else: outside this crate none can be built.
///
/// ```compile_fail,E0603
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx) {
/// let req = smpi::SendRequest(None);
/// mpi.wait_send(ctx, req);
/// # }
/// ```
#[derive(Debug)]
#[must_use = "a send is redeemed by `wait_send`; only an eager send's handle may be dropped"]
pub struct SendRequest(pub(crate) Option<u64>);

/// A posted receive, returned by [`crate::Mpi::irecv`] and redeemed by the
/// one [`crate::Mpi::wait_recv`] (or [`crate::Mpi::waitany_recv`]) that
/// takes it by value and yields the message.
///
/// A receive's wait takes it:
///
/// ```
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx, comm: &smpi::Comm) {
/// let req = mpi.irecv(ctx, comm, None, None).unwrap();
/// let (_status, _data) = mpi.wait_recv(ctx, comm, req);
/// # }
/// ```
///
/// and a send's does not:
///
/// ```compile_fail,E0308
/// # fn demo(mpi: &mut smpi::Mpi, ctx: &mut des::ProcCtx, comm: &smpi::Comm) {
/// let req = mpi.irecv(ctx, comm, None, None).unwrap();
/// mpi.wait_send(ctx, req);
/// # }
/// ```
#[derive(Debug)]
#[must_use = "a receive is redeemed by `wait_recv` or `waitany_recv`"]
pub struct RecvRequest(pub(crate) u64);

/// Reduction operators for `reduce`/`allreduce` over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    /// Apply the operator elementwise: `acc[i] = op(acc[i], x[i])`.
    pub fn fold(self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len(), "reduce length mismatch");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(x).for_each(|(a, b)| *a += b),
            ReduceOp::Min => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.min(*b)),
            ReduceOp::Max => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.max(*b)),
            ReduceOp::Prod => acc.iter_mut().zip(x).for_each(|(a, b)| *a *= b),
        }
    }
}

/// MPI-level errors. Protocol-internal failures panic (they indicate bugs
/// in the stack, not conditions an application can handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination or source rank outside the communicator.
    BadRank {
        /// The offending communicator-relative rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// The transport gave up on the operation (the MPI-2 `MPI_ERR_*`
    /// class an error-handler would see): the device's reliability
    /// layer exhausted its budget.
    Transport(DeviceError),
    /// ULFM's `MPI_ERR_PROC_FAILED`: the transport's failure detector
    /// declared the peer dead, so the operation can never complete in
    /// the current membership epoch. Only produced on worlds with a
    /// membership layer ([`crate::MpiWorld::scramnet_membership`]).
    PeerFailed {
        /// Communicator-relative rank of the failed process.
        rank: usize,
        /// The membership epoch in which the failure was observed.
        epoch: u32,
    },
    /// ULFM's `MPI_ERR_REVOKED`: some member called
    /// [`crate::Mpi::revoke`] on this communicator to interrupt the
    /// group after a failure. [`crate::Mpi::shrink`] continues on the
    /// survivors.
    Revoked {
        /// The membership epoch at which the revocation was observed.
        epoch: u32,
    },
    /// This rank's network segment lost its quorum: the transport froze
    /// at its last committed membership epoch and every operation fails
    /// until the partition heals and the majority readmits the node.
    /// Only produced on worlds whose membership layer enforces quorum
    /// ([`bbp::Membership::Quorum`]). Unlike [`MpiError::PeerFailed`]
    /// this is a *local* condition — no peer is known dead; this rank is
    /// the one cut off.
    Partitioned {
        /// The membership epoch the transport froze at.
        epoch: u32,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::BadRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::Transport(e) => write!(f, "transport error: {e}"),
            MpiError::PeerFailed { rank, epoch } => {
                write!(f, "rank {rank} failed (membership epoch {epoch})")
            }
            MpiError::Revoked { epoch } => {
                write!(f, "communicator revoked (membership epoch {epoch})")
            }
            MpiError::Partitioned { epoch } => {
                write!(
                    f,
                    "this rank is cut off from the quorum (frozen at membership epoch {epoch})"
                )
            }
        }
    }
}

impl std::error::Error for MpiError {}

impl From<DeviceError> for MpiError {
    fn from(e: DeviceError) -> Self {
        match e {
            DeviceError::Partitioned { epoch } => MpiError::Partitioned { epoch },
            other => MpiError::Transport(other),
        }
    }
}

/// The one fatal funnel, for the two places a failure has no caller to
/// go to: a plain collective (MPI leaves the communicator in an
/// unspecified state after a collective fails, so the infallible
/// signatures have no partial outcome to return — the `try_*` variants
/// do) and the progress engine (the rendezvous data phase and the
/// clear-to-send reply run far from any application call).
pub(crate) fn fatal(phase: &str, err: impl std::fmt::Debug) -> ! {
    panic!("{phase} failed with nobody to report to: {err:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops_fold_elementwise() {
        let mut acc = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.fold(&mut acc, &[1.0, 1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 6.0, -1.0]);
        ReduceOp::Min.fold(&mut acc, &[0.0, 10.0, -5.0]);
        assert_eq!(acc, vec![0.0, 6.0, -5.0]);
        ReduceOp::Max.fold(&mut acc, &[3.0, 0.0, 0.0]);
        assert_eq!(acc, vec![3.0, 6.0, 0.0]);
        let mut p = vec![2.0, 3.0];
        ReduceOp::Prod.fold(&mut p, &[4.0, 0.5]);
        assert_eq!(p, vec![8.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_rejects_mismatched_lengths() {
        ReduceOp::Sum.fold(&mut [1.0], &[1.0, 2.0]);
    }

    #[test]
    fn errors_render() {
        assert!(MpiError::BadRank { rank: 9, size: 4 }
            .to_string()
            .contains('9'));
        let t = MpiError::from(DeviceError::PeerDown { peer: 2 });
        assert_eq!(t, MpiError::Transport(DeviceError::PeerDown { peer: 2 }));
        assert!(t.to_string().contains("transport"));
        assert!(t.to_string().contains('2'));
        let p = MpiError::from(DeviceError::Partitioned { epoch: 6 });
        assert_eq!(p, MpiError::Partitioned { epoch: 6 });
        assert!(p.to_string().contains("quorum"));
        assert!(p.to_string().contains('6'));
    }
}
