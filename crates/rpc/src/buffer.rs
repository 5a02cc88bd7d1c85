//! Message buffers with explicit ownership transfer.
//!
//! A [`MessageBuffer`] is allocated once and then cycles through a fixed
//! ownership state machine; every transition is checked, so a stale
//! handle (writing into a buffer already enqueued, replying twice)
//! panics at the violation instead of corrupting a frame in flight:
//!
//! ```text
//!   OwnedByCaller ──poll──▶ EnqueuedAsRequest ──dispatch──▶ OwnedByCallee
//!        ▲                                                      │
//!        └────────── flush/reply ◀── EnqueuedAsReply ◀── reply──┘
//! ```
//!
//! The frame layout is a fixed 16-byte header followed by the body. The
//! reply is written *in place* over the request body — same buffer, same
//! header words except the reply bit — which is what makes the server's
//! reply path zero-copy and zero-allocation.

use des::Time;

use crate::RpcError;

/// Frame header size in bytes: token (8) + channel (4) + flags (1) +
/// reserved (3).
pub const HEADER_BYTES: usize = 16;

const FLAG_HIGH: u8 = 1 << 0;
const FLAG_REPLY: u8 = 1 << 1;

/// Priority class of a request. High-priority requests are dispatched
/// first, up to the queue's anti-starvation bound
/// ([`crate::RpcConfig::max_high_streak`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Dispatched ahead of `Normal` while the streak bound allows.
    High,
    /// The default class.
    Normal,
}

/// Where a buffer currently is in the ownership cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferState {
    /// Owned by its home pool (server) or by the client that allocated
    /// it; free to (re)write.
    OwnedByCaller,
    /// Holds a received request, queued for dispatch; owned by the
    /// [`crate::MessageQueue`].
    EnqueuedAsRequest,
    /// Handed to the request handler, which writes the reply in place.
    OwnedByCallee,
    /// Holds a finished reply, awaiting transmission.
    EnqueuedAsReply,
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Per-channel request token, matched by the client on reply.
    pub token: u64,
    /// The logical client channel the request belongs to.
    pub channel: u32,
    /// Priority class.
    pub priority: Priority,
    /// Reply bit: set when the frame is a reply.
    pub is_reply: bool,
}

impl Header {
    /// Decode a frame's header; `None` if the frame is shorter than
    /// [`HEADER_BYTES`].
    pub fn decode(frame: &[u8]) -> Option<Header> {
        if frame.len() < HEADER_BYTES {
            return None;
        }
        let token = u64::from_le_bytes(frame[0..8].try_into().unwrap());
        let channel = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        let flags = frame[12];
        Some(Header {
            token,
            channel,
            priority: if flags & FLAG_HIGH != 0 {
                Priority::High
            } else {
                Priority::Normal
            },
            is_reply: flags & FLAG_REPLY != 0,
        })
    }
}

/// A preallocated request/reply buffer with checked ownership transfer.
#[derive(Debug)]
pub struct MessageBuffer {
    bytes: Box<[u8]>,
    /// Current frame length (header + body).
    len: usize,
    state: BufferState,
    /// BBP rank of the requesting client node (server side).
    src: usize,
    /// Trace id of the request (0 = untraced), re-published on reply so
    /// both directions form one causal chain.
    trace: u64,
    /// When the request was accepted off the billboard (for queue
    /// residency measurement).
    enqueued_at: Time,
}

impl MessageBuffer {
    /// Allocate a buffer able to carry a `body_capacity`-byte body.
    pub fn new(body_capacity: usize) -> Self {
        MessageBuffer {
            bytes: vec![0u8; HEADER_BYTES + body_capacity].into_boxed_slice(),
            len: HEADER_BYTES,
            state: BufferState::OwnedByCaller,
            src: usize::MAX,
            trace: 0,
            enqueued_at: 0,
        }
    }

    /// Body bytes this buffer can carry.
    pub fn capacity(&self) -> usize {
        self.bytes.len() - HEADER_BYTES
    }

    /// Current ownership state.
    pub fn state(&self) -> BufferState {
        self.state
    }

    /// The full frame (header + body) as currently set.
    pub fn frame(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The current body.
    pub fn body(&self) -> &[u8] {
        &self.bytes[HEADER_BYTES..self.len]
    }

    /// The full body capacity, writable in place (the reply is composed
    /// here, over the request's bytes).
    pub fn body_mut(&mut self) -> &mut [u8] {
        assert!(
            matches!(
                self.state,
                BufferState::OwnedByCaller | BufferState::OwnedByCallee
            ),
            "ownership violated: writing a buffer that is {:?}",
            self.state
        );
        &mut self.bytes[HEADER_BYTES..]
    }

    /// Set the body length after composing it via
    /// [`MessageBuffer::body_mut`]. A length past the capacity is
    /// [`RpcError::BodyTooLarge`] and leaves the buffer as it was.
    pub fn set_body_len(&mut self, len: usize) -> Result<(), RpcError> {
        let max = self.capacity();
        if len > max {
            return Err(RpcError::BodyTooLarge { len, max });
        }
        self.len = HEADER_BYTES + len;
        Ok(())
    }

    /// The decoded header.
    pub fn header(&self) -> Header {
        Header::decode(self.frame()).expect("a buffer frame always carries a header")
    }

    /// The request token (see [`Header::token`]).
    pub fn token(&self) -> u64 {
        self.header().token
    }

    /// The logical channel id.
    pub fn channel(&self) -> u32 {
        self.header().channel
    }

    /// The priority class.
    pub fn priority(&self) -> Priority {
        self.header().priority
    }

    /// BBP rank of the requesting client node (server side; `usize::MAX`
    /// before any request arrived).
    pub fn src(&self) -> usize {
        self.src
    }

    /// The request's trace id (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// When the request was accepted off the billboard.
    pub fn enqueued_at(&self) -> Time {
        self.enqueued_at
    }

    /// Encode a request header in place (client side; the caller then
    /// composes the body and sets its length).
    pub fn encode_request(&mut self, token: u64, channel: u32, priority: Priority) {
        assert_eq!(
            self.state,
            BufferState::OwnedByCaller,
            "ownership violated: encoding into a buffer that is {:?}",
            self.state
        );
        self.bytes[0..8].copy_from_slice(&token.to_le_bytes());
        self.bytes[8..12].copy_from_slice(&channel.to_le_bytes());
        self.bytes[12] = if priority == Priority::High {
            FLAG_HIGH
        } else {
            0
        };
        self.bytes[13..HEADER_BYTES].fill(0);
        self.len = HEADER_BYTES;
    }

    /// Raw frame storage for receiving into (the whole capacity).
    pub(crate) fn frame_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// A request landed in this buffer: OwnedByCaller → EnqueuedAsRequest.
    pub(crate) fn arrived(&mut self, src: usize, frame_len: usize, now: Time, trace: u64) {
        assert_eq!(
            self.state,
            BufferState::OwnedByCaller,
            "ownership violated: receiving into a buffer that is {:?}",
            self.state
        );
        assert!(
            frame_len >= HEADER_BYTES && frame_len <= self.bytes.len(),
            "malformed frame of {frame_len} bytes"
        );
        self.len = frame_len;
        self.src = src;
        self.trace = trace;
        self.enqueued_at = now;
        self.state = BufferState::EnqueuedAsRequest;
    }

    /// Dispatch to the handler: EnqueuedAsRequest → OwnedByCallee.
    pub(crate) fn transfer_to_callee(&mut self) {
        assert_eq!(
            self.state,
            BufferState::EnqueuedAsRequest,
            "ownership violated: dispatching a buffer that is {:?}",
            self.state
        );
        self.state = BufferState::OwnedByCallee;
    }

    /// The handler finished the in-place reply: OwnedByCallee →
    /// EnqueuedAsReply. Flips the header's reply bit; token and channel
    /// stay the request's, which is how the client matches it back.
    pub(crate) fn make_reply(&mut self) {
        assert_eq!(
            self.state,
            BufferState::OwnedByCallee,
            "ownership violated: replying with a buffer that is {:?}",
            self.state
        );
        self.bytes[12] |= FLAG_REPLY;
        self.state = BufferState::EnqueuedAsReply;
    }

    /// The reply left the endpoint: EnqueuedAsReply → OwnedByCaller
    /// (back to the pool).
    pub(crate) fn release(&mut self) {
        assert_eq!(
            self.state,
            BufferState::EnqueuedAsReply,
            "ownership violated: releasing a buffer that is {:?}",
            self.state
        );
        self.bytes[12] &= !FLAG_REPLY;
        self.state = BufferState::OwnedByCaller;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_the_frame() {
        let mut b = MessageBuffer::new(64);
        b.encode_request(0xDEAD_BEEF_0042, 7, Priority::High);
        b.body_mut()[..5].copy_from_slice(b"hello");
        b.set_body_len(5).unwrap();
        let h = Header::decode(b.frame()).unwrap();
        assert_eq!(h.token, 0xDEAD_BEEF_0042);
        assert_eq!(h.channel, 7);
        assert_eq!(h.priority, Priority::High);
        assert!(!h.is_reply);
        assert_eq!(b.body(), b"hello");
        assert_eq!(b.frame().len(), HEADER_BYTES + 5);
    }

    #[test]
    fn short_frames_do_not_decode() {
        assert_eq!(Header::decode(&[0u8; HEADER_BYTES - 1]), None);
    }

    #[test]
    fn ownership_cycle_round_trips() {
        let mut b = MessageBuffer::new(16);
        b.encode_request(1, 0, Priority::Normal);
        // Simulate the server-side cycle on a copy of the frame.
        let frame_len = b.frame().len();
        b.arrived(3, frame_len, 1_000, 42);
        assert_eq!(b.state(), BufferState::EnqueuedAsRequest);
        assert_eq!(b.src(), 3);
        assert_eq!(b.trace(), 42);
        b.transfer_to_callee();
        b.set_body_len(4).unwrap();
        b.make_reply();
        assert!(b.header().is_reply);
        assert_eq!(b.token(), 1, "reply keeps the request's token");
        b.release();
        assert_eq!(b.state(), BufferState::OwnedByCaller);
        assert!(!b.header().is_reply, "the reply bit clears on release");
    }

    #[test]
    #[should_panic(expected = "ownership violated")]
    fn replying_without_dispatch_panics() {
        let mut b = MessageBuffer::new(16);
        b.encode_request(1, 0, Priority::Normal);
        b.make_reply(); // still OwnedByCaller: forbidden
    }

    #[test]
    #[should_panic(expected = "ownership violated")]
    fn double_dispatch_panics() {
        let mut b = MessageBuffer::new(16);
        b.encode_request(1, 0, Priority::Normal);
        let frame_len = b.frame().len();
        b.arrived(1, frame_len, 0, 0);
        b.transfer_to_callee();
        b.transfer_to_callee();
    }

    #[test]
    fn oversized_body_is_a_typed_error_and_changes_nothing() {
        let mut b = MessageBuffer::new(8);
        b.set_body_len(3).unwrap();
        assert_eq!(
            b.set_body_len(9),
            Err(RpcError::BodyTooLarge { len: 9, max: 8 })
        );
        assert_eq!(b.body().len(), 3);
        b.set_body_len(8).unwrap();
    }
}
