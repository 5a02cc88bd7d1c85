#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `rpc` — zero-copy request/reply serving over the BillBoard Protocol
//!
//! The paper's stack ends at rank-to-rank messaging; this crate layers a
//! serving abstraction on top, following the message-buffer /
//! message-queue design production kernels evolved for the same problem:
//!
//! - [`MessageBuffer`] and [`Request`]: a preallocated pool slot whose
//!   **ownership transfers** — pool → queue → callee and back — by who
//!   holds which type, so a misuse (answering twice, writing a queued
//!   frame, answering with a buffer nobody dispatched) does not compile.
//!   The request's slot is reused in place for the reply, so the
//!   server's reply path performs **zero copies and zero allocations**
//!   (pinned by a counting-allocator test).
//! - [`MessageQueue`]: one per server endpoint, multiplexing many client
//!   *channels* (logical streams multiplexed over BBP ranks) onto a
//!   bounded buffer pool, with two priority classes and a bounded
//!   anti-starvation discipline.
//! - Credit-based backpressure at two levels: per-channel grants in
//!   [`RpcClient`] (typed [`RpcError::OutOfCredit`] shedding), and the
//!   `bbp` credit extension underneath ([`bbp::CreditConfig`]), whose
//!   returns ride the protocol's existing ACK side channel. Grants that
//!   overcommit a transport that waits for credit are refused at
//!   construction ([`RpcError::Overcommit`]).
//! - One reply path: [`MessageQueue::reply`] stages,
//!   [`MessageQueue::flush`] posts — with deferred doorbells and one
//!   flag write per destination node where the endpoint's configuration
//!   allows, holding what a fail-fast transport has no credit for.
//!
//! See `docs/RPC.md` for who holds a slot when, the credit protocol,
//! priority semantics, and honest limitations.

mod buffer;
mod client;
mod queue;

pub use buffer::{Header, MessageBuffer, Priority, Request, HEADER_BYTES};
pub use client::{ClientStats, RpcClient};
pub use queue::{MessageQueue, QueueStats, RpcConfig};

/// Whether a post on this transport waits for send credit instead of
/// failing fast: no ledger (it waits for a slot), or one that blocks.
pub(crate) fn blocks_for_credit(cfg: &bbp::BbpConfig) -> bool {
    !cfg.credit.is_some_and(|cr| cr.fail_fast)
}

/// Errors surfaced by the RPC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The channel's credit grant is exhausted: every granted request is
    /// still outstanding. The typed fail-fast signal open-loop clients
    /// shed load on.
    OutOfCredit {
        /// The out-of-credit channel.
        channel: u32,
    },
    /// The request body exceeds the buffer's body capacity.
    BodyTooLarge {
        /// Requested body length in bytes.
        len: usize,
        /// The configured body capacity.
        max: usize,
    },
    /// The client's channel grants exceed the endpoint's send slots on a
    /// transport that waits for credit: client and server could each
    /// park waiting for an ACK only the other can produce, forever.
    Overcommit {
        /// `channels × credits_per_channel`.
        grants: u64,
        /// The endpoint's `bufs_per_proc`.
        slots: u64,
    },
    /// The BBP layer underneath failed (including its own
    /// [`bbp::BbpError::NoCredit`] when the transport-level credit
    /// extension is in fail-fast mode).
    Transport(bbp::BbpError),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::OutOfCredit { channel } => {
                write!(f, "channel {channel}'s credit grant is exhausted")
            }
            RpcError::BodyTooLarge { len, max } => {
                write!(f, "body of {len} bytes exceeds the {max}-byte capacity")
            }
            RpcError::Overcommit { grants, slots } => write!(
                f,
                "{grants} granted requests overcommit the {slots} send slots of a transport that waits for credit"
            ),
            RpcError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(RpcError::OutOfCredit { channel: 7 }
            .to_string()
            .contains('7'));
        assert!(RpcError::BodyTooLarge { len: 300, max: 256 }
            .to_string()
            .contains("300"));
        assert!(RpcError::Overcommit {
            grants: 20,
            slots: 16
        }
        .to_string()
        .contains("20"));
        assert!(RpcError::Transport(bbp::BbpError::NoCredit { peer: 1 })
            .to_string()
            .contains("credit"));
    }
}
