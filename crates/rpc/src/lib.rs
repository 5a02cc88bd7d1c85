#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `rpc` — zero-copy request/reply serving over the BillBoard Protocol
//!
//! The paper's stack ends at rank-to-rank messaging; this crate layers a
//! serving abstraction on top, following the message-buffer /
//! message-queue design production kernels evolved for the same problem:
//!
//! - [`MessageBuffer`]: a preallocated buffer whose **ownership
//!   transfers** explicitly — caller → queue → callee and back. The
//!   request buffer is reused in place for the reply, so the server's
//!   reply path performs **zero copies and zero allocations** (pinned by
//!   a counting-allocator test).
//! - [`MessageQueue`]: one per server endpoint, multiplexing many client
//!   *channels* (logical streams multiplexed over BBP ranks) onto a
//!   bounded buffer pool, with two priority classes and a bounded
//!   anti-starvation discipline.
//! - Credit-based backpressure at two levels: per-channel grants in
//!   [`RpcClient`] (typed [`RpcError::OutOfCredit`] shedding), and the
//!   `bbp` credit extension underneath ([`bbp::CreditConfig`]), whose
//!   returns ride the protocol's existing ACK side channel.
//! - Doorbell coalescing: [`MessageQueue::flush`] posts a batch of
//!   replies with deferred doorbells and rings one flag write per
//!   destination node.
//!
//! See `docs/RPC.md` for the buffer-ownership state machine, the credit
//! protocol, priority semantics, and honest limitations.

mod buffer;
mod client;
mod queue;

pub use buffer::{BufferState, Header, MessageBuffer, Priority, HEADER_BYTES};
pub use client::{ClientStats, RpcClient};
pub use queue::{MessageQueue, QueueStats, RpcConfig};

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
        assert!(RpcError::Transport(bbp::BbpError::NoCredit { peer: 1 })
            .to_string()
            .contains("credit"));
    }
}
