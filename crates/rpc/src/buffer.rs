//! The frame and the two things that hold one.
//!
//! Who may touch a pool slot is a matter of which type one holds, so
//! the compiler checks the ownership cycle and nothing here asserts it:
//!
//! ```text
//!   MessageBuffer ──poll──▶ (queued, private) ──dispatch──▶ Request
//!        ▲                                                     │
//!        └────── flush ◀────── (staged, private) ◀────reply────┘
//! ```
//!
//! A [`MessageBuffer`] is a frame its holder may read and write: the
//! client's staging buffer, a slot in the server's free pool. A
//! [`Request`] is the callee's handle on one pool slot between
//! [`crate::MessageQueue::dispatch`], the only function that hands one
//! out, and [`crate::MessageQueue::reply`], the only one that takes it
//! back — by value, so sending the reply revokes the handle. Queued
//! requests and staged replies sit in the queue's private deques, where
//! no caller can reach their bytes.
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

/// A preallocated frame its holder may read and write: header plus up
/// to `capacity` body bytes.
#[derive(Debug)]
pub struct MessageBuffer {
    bytes: Box<[u8]>,
    /// Current frame length (header + body).
    len: usize,
}

impl MessageBuffer {
    /// Allocate a buffer able to carry a `body_capacity`-byte body.
    pub fn new(body_capacity: usize) -> Self {
        MessageBuffer {
            bytes: vec![0u8; HEADER_BYTES + body_capacity].into_boxed_slice(),
            len: HEADER_BYTES,
        }
    }

    /// Body bytes this buffer can carry.
    pub fn capacity(&self) -> usize {
        self.bytes.len() - HEADER_BYTES
    }

    /// The full frame (header + body) as currently set.
    pub fn frame(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The current body.
    pub fn body(&self) -> &[u8] {
        &self.bytes[HEADER_BYTES..self.len]
    }

    /// The full body capacity, writable in place.
    pub fn body_mut(&mut self) -> &mut [u8] {
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

    /// Encode a request header in place (client side; the caller then
    /// composes the body and sets its length).
    pub fn encode_request(&mut self, token: u64, channel: u32, priority: Priority) {
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
}

/// The callee's handle on one pool slot: the request as it arrived, and
/// the place its reply is written, over the request's bytes.
///
/// Move-only and constructible only inside this crate:
/// [`crate::MessageQueue::dispatch`] hands one out and
/// [`crate::MessageQueue::reply`] takes it back by value, so a request
/// cannot be answered twice, answered with a buffer that was never
/// dispatched, or written to once its reply is staged.
///
/// ```
/// use rpc::{MessageQueue, Request};
/// fn serve(mq: &mut MessageQueue, req: Request) -> usize {
///     let n = req.body().len();
///     mq.reply(req);
///     n
/// }
/// ```
///
/// The same with the body read after the reply took the handle:
///
/// ```compile_fail,E0382
/// use rpc::{MessageQueue, Request};
/// fn serve(mq: &mut MessageQueue, req: Request) -> usize {
///     mq.reply(req);
///     let n = req.body().len();
///     n
/// }
/// ```
///
/// A function may take a `Request`; nothing outside the crate can make
/// one:
///
/// ```
/// use rpc::Request;
/// fn forge(req: Request) -> Request {
///     req
/// }
/// ```
///
/// ```compile_fail,E0451
/// use rpc::Request;
/// fn forge(req: Request) -> Request {
///     Request { ..req }
/// }
/// ```
#[derive(Debug)]
#[must_use = "a dispatched request holds a pool slot until MessageQueue::reply takes it back"]
pub struct Request {
    buf: MessageBuffer,
    /// BBP rank of the requesting client node.
    src: usize,
    /// Trace id of the request (0 = untraced), re-published on reply so
    /// both directions form one causal chain.
    trace: u64,
    /// When the request was accepted off the billboard (for queue
    /// residency measurement).
    enqueued_at: Time,
}

impl Request {
    /// A `frame_len`-byte frame from `src` was received into `buf`
    /// ([`MessageBuffer::frame_mut`]). A frame that cannot carry a header,
    /// or that `buf` could not hold (and so holds nothing of), is input to
    /// reject, not a request: the buffer comes back.
    pub(crate) fn arrived(
        mut buf: MessageBuffer,
        src: usize,
        frame_len: usize,
        now: Time,
        trace: u64,
    ) -> Result<Request, MessageBuffer> {
        if !(HEADER_BYTES..=buf.bytes.len()).contains(&frame_len) {
            return Err(buf);
        }
        buf.len = frame_len;
        Ok(Request {
            buf,
            src,
            trace,
            enqueued_at: now,
        })
    }

    /// The handler finished the in-place reply: flip the header's reply
    /// bit. Token and channel stay the request's, which is how the
    /// client matches it back.
    pub(crate) fn mark_reply(&mut self) {
        self.buf.bytes[12] |= FLAG_REPLY;
    }

    /// The reply left the endpoint: the slot goes back to the pool.
    pub(crate) fn into_buffer(self) -> MessageBuffer {
        self.buf
    }

    /// The full frame (header + body) as currently set.
    pub(crate) fn frame(&self) -> &[u8] {
        self.buf.frame()
    }

    /// The current body: the request's, until the handler sets the
    /// reply's length.
    pub fn body(&self) -> &[u8] {
        self.buf.body()
    }

    /// The full body capacity, writable in place (the reply is composed
    /// here, over the request's bytes).
    pub fn body_mut(&mut self) -> &mut [u8] {
        self.buf.body_mut()
    }

    /// Set the reply's body length (see [`MessageBuffer::set_body_len`]).
    pub fn set_body_len(&mut self, len: usize) -> Result<(), RpcError> {
        self.buf.set_body_len(len)
    }

    /// The decoded header.
    pub fn header(&self) -> Header {
        self.buf.header()
    }

    /// BBP rank of the requesting client node.
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
    fn a_request_keeps_its_token_through_the_reply() {
        let mut b = MessageBuffer::new(16);
        b.encode_request(1, 0, Priority::Normal);
        let frame_len = b.frame().len();
        let mut req = Request::arrived(b, 3, frame_len, 1_000, 42).expect("a whole header");
        assert_eq!((req.src(), req.trace(), req.enqueued_at()), (3, 42, 1_000));
        req.set_body_len(4).unwrap();
        req.mark_reply();
        assert!(req.header().is_reply);
        assert_eq!(req.header().token, 1, "reply keeps the request's token");
        assert_eq!(req.into_buffer().capacity(), 16);
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
