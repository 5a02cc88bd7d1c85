//! The Channel Interface: the narrow device layer MPICH ports ride on,
//! plus the wire format of channel packets.

use des::{ProcCtx, Time};

use crate::types::Tag;

/// A transport failure the device surfaces instead of delivering. Only
/// produced by devices with a reliability layer underneath (the BBP
/// device over a faulted ring); plain devices always succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The frame (or its acknowledgement) was corrupted beyond the
    /// transport's repair budget.
    Corrupt {
        /// World rank of the peer involved.
        peer: usize,
    },
    /// The transport's retry budget expired without confirmation.
    Timeout {
        /// World rank of the peer involved.
        peer: usize,
    },
    /// The peer has left the network (bypassed or failed node).
    PeerDown {
        /// World rank of the dead peer.
        peer: usize,
    },
    /// This node's network segment lost its quorum: the transport froze
    /// at its last committed membership epoch and refuses all traffic
    /// until the partition heals and the majority readmits it. Unlike
    /// the other variants this failure names no peer — the whole node
    /// is cut off.
    Partitioned {
        /// The membership epoch the transport froze at.
        epoch: u32,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Corrupt { peer } => {
                write!(f, "frame to/from rank {peer} corrupted beyond repair")
            }
            DeviceError::Timeout { peer } => {
                write!(f, "transport timed out talking to rank {peer}")
            }
            DeviceError::PeerDown { peer } => write!(f, "rank {peer} is down"),
            DeviceError::Partitioned { epoch } => {
                write!(f, "network partitioned; frozen at membership epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Discriminates channel packets. A frame's first byte is a magic value
/// telling channel packets apart from the tiny raw frames the native
/// collectives use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Complete message, payload inline (short-message protocol).
    Eager,
    /// Rendezvous request-to-send: announces a long message.
    RndzRts,
    /// Rendezvous clear-to-send: receiver matched the RTS.
    RndzCts,
    /// Rendezvous payload, correlated to the receiver's request.
    RndzData,
}

impl PacketKind {
    fn to_byte(self) -> u8 {
        match self {
            PacketKind::Eager => 0,
            PacketKind::RndzRts => 1,
            PacketKind::RndzCts => 2,
            PacketKind::RndzData => 3,
        }
    }

    fn from_byte(b: u8) -> Self {
        match b {
            0 => PacketKind::Eager,
            1 => PacketKind::RndzRts,
            2 => PacketKind::RndzCts,
            3 => PacketKind::RndzData,
            other => panic!("corrupt packet kind {other}"),
        }
    }
}

/// First byte of every channel packet frame.
pub(crate) const MAGIC_CHANNEL: u8 = 0xC5;
/// First byte of a raw native-collective null frame.
pub(crate) const MAGIC_NULL: u8 = 0xB0;

/// The MPID packet header. Carried in the first `header_bytes` of every
/// channel frame (the real MPICH header is a 64-byte union; we encode the
/// live fields and pad to the configured size, paying the configured PIO
/// cost for all of it — faithfully unoptimized, like the paper's port).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketHeader {
    /// Packet type.
    pub kind: PacketKind,
    /// Sender's world rank.
    pub src: usize,
    /// MPI tag.
    pub tag: Tag,
    /// Communicator context id.
    pub context: u16,
    /// Full message payload length in bytes (for `RndzRts`, the length of
    /// the message being announced, not of this frame).
    pub len: u32,
    /// Request correlation id for the rendezvous handshake.
    pub req: u64,
}

/// Fields actually encoded; the rest of the configured header is padding.
pub(crate) const HEADER_MIN_BYTES: usize = 24;

impl PacketHeader {
    /// Encode into exactly `header_bytes` bytes (panics if smaller than
    /// the live fields — configuration error).
    pub fn encode(&self, header_bytes: usize) -> Vec<u8> {
        assert!(
            header_bytes >= HEADER_MIN_BYTES,
            "header too small to hold the packet fields"
        );
        let mut out = vec![0u8; header_bytes];
        out[0] = MAGIC_CHANNEL;
        out[1] = self.kind.to_byte();
        out[2..4].copy_from_slice(&self.context.to_le_bytes());
        out[4..8].copy_from_slice(&(self.src as u32).to_le_bytes());
        out[8..12].copy_from_slice(&self.tag.to_le_bytes());
        out[12..16].copy_from_slice(&self.len.to_le_bytes());
        out[16..24].copy_from_slice(&self.req.to_le_bytes());
        out
    }

    /// Decode from a frame (must start with the channel magic byte).
    pub fn decode(frame: &[u8]) -> Self {
        assert!(frame.len() >= HEADER_MIN_BYTES, "truncated channel frame");
        assert_eq!(frame[0], MAGIC_CHANNEL, "not a channel frame");
        PacketHeader {
            kind: PacketKind::from_byte(frame[1]),
            context: u16::from_le_bytes(frame[2..4].try_into().unwrap()),
            src: u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize,
            tag: u32::from_le_bytes(frame[8..12].try_into().unwrap()),
            len: u32::from_le_bytes(frame[12..16].try_into().unwrap()),
            req: u64::from_le_bytes(frame[16..24].try_into().unwrap()),
        }
    }
}

/// A raw native-collective null frame: one word on the wire.
/// `[MAGIC_NULL, phase, context_lo, context_hi]`.
pub(crate) fn encode_null(context: u16, phase: u8) -> Vec<u8> {
    let c = context.to_le_bytes();
    vec![MAGIC_NULL, phase, c[0], c[1]]
}

pub(crate) fn decode_null(frame: &[u8]) -> Option<(u16, u8)> {
    if frame.len() == 4 && frame[0] == MAGIC_NULL {
        Some((u16::from_le_bytes([frame[2], frame[3]]), frame[1]))
    } else {
        None
    }
}

/// The device under the Channel Interface. One instance per rank, owned
/// by that rank's process.
pub trait Device: Send {
    /// This device's world rank.
    fn rank(&self) -> usize;
    /// World size.
    fn nprocs(&self) -> usize;
    /// Per-pair-FIFO frame delivery to `dst`. `Err` means the transport
    /// gave up after exhausting whatever reliability budget it has; the
    /// ADI turns that into an MPI-level error.
    fn send_frame(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError>;
    /// One progress poll: the next arrived frame, if any, with its source.
    fn try_recv_frame(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)>;
    /// Hardware multicast of one frame. [`Device::has_native_mcast`] is
    /// the one capability bit: callers ask it first and fall back to
    /// point-to-point, so the default — for devices without the hardware
    /// — is never reached by a correct caller.
    fn mcast_frame(
        &mut self,
        _ctx: &mut ProcCtx,
        _targets: &[usize],
        _frame: &[u8],
    ) -> Result<(), DeviceError> {
        panic!("device has no native multicast")
    }
    /// Whether [`Device::mcast_frame`] works (the paper's "additional
    /// functionality provided by the underlying device").
    fn has_native_mcast(&self) -> bool;
    /// Largest frame this device can carry in one piece (`None` =
    /// unlimited). The ADI segments rendezvous data to fit.
    fn max_frame(&self) -> Option<usize> {
        None
    }
    /// Park until new traffic may be available, returning `true` if the
    /// device blocked (interrupt-capable transports). The default
    /// returns `false`: there is nothing to park on, and a blocking loop
    /// either asks for [`Device::idle_sleep`] or paces its own polling.
    /// Only for a caller that blocks: one-shot progress must not park.
    fn idle_wait(&mut self, _ctx: &mut ProcCtx) -> bool {
        false
    }
    /// For a blocking loop that would otherwise go "`try_recv_frame`;
    /// nothing; `lead` ns of my own time; again": do exactly that polling
    /// on the caller's behalf until the next `try_recv_frame` has a frame,
    /// and return `true`. Same virtual time, same schedule, same counters
    /// as the loop — the point is that the calling process can sleep
    /// through it. A device for which polling is not all that happens
    /// between two polls, or that cannot tell, returns `false` having done
    /// nothing (the default), and the caller paces itself.
    fn idle_sleep(&mut self, _ctx: &mut ProcCtx, _lead: Time) -> bool {
        false
    }
    /// The transport's failure-detector view, as `(epoch, alive_mask)`
    /// — bit `r` of the mask is set while world rank `r` is believed
    /// alive. `None` (the default) means the device has no membership
    /// layer: every peer is presumed alive forever and the degraded-mode
    /// checks are vacuous.
    fn membership(&self) -> Option<(u32, u32)> {
        None
    }
    /// Quorum-enforced membership only: `Some(epoch)` while the
    /// transport is frozen because this node's segment lost its quorum
    /// (the epoch is the last committed view it froze at). The default
    /// `None` means the device never partitions. The ADI checks this at
    /// operation entry and inside blocking waits so minority ranks fail
    /// typed instead of hanging.
    fn partitioned(&self) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_the_wire_format() {
        let h = PacketHeader {
            kind: PacketKind::RndzRts,
            src: 3,
            tag: 77,
            context: 9,
            len: 123_456,
            req: 0xDEAD_BEEF_u64,
        };
        let bytes = h.encode(64);
        assert_eq!(bytes.len(), 64);
        assert_eq!(PacketHeader::decode(&bytes), h);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            PacketKind::Eager,
            PacketKind::RndzRts,
            PacketKind::RndzCts,
            PacketKind::RndzData,
        ] {
            assert_eq!(PacketKind::from_byte(kind.to_byte()), kind);
        }
    }

    #[test]
    #[should_panic(expected = "header too small")]
    fn undersized_header_is_a_config_error() {
        let h = PacketHeader {
            kind: PacketKind::Eager,
            src: 0,
            tag: 0,
            context: 0,
            len: 0,
            req: 0,
        };
        let _ = h.encode(8);
    }

    #[test]
    fn null_frames_round_trip_and_do_not_look_like_packets() {
        let f = encode_null(513, 7);
        assert_eq!(f.len(), 4);
        assert_eq!(decode_null(&f), Some((513, 7)));
        assert_ne!(f[0], MAGIC_CHANNEL);
    }

    #[test]
    fn device_errors_render_their_peer() {
        for (e, needle) in [
            (DeviceError::Corrupt { peer: 3 }, "corrupted"),
            (DeviceError::Timeout { peer: 3 }, "timed out"),
            (DeviceError::PeerDown { peer: 3 }, "down"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
            assert!(e.to_string().contains('3'), "{e}");
        }
        let p = DeviceError::Partitioned { epoch: 5 };
        assert!(p.to_string().contains("partitioned"), "{p}");
        assert!(p.to_string().contains('5'), "{p}");
    }

    #[test]
    fn decode_null_rejects_channel_frames() {
        let h = PacketHeader {
            kind: PacketKind::Eager,
            src: 0,
            tag: 0,
            context: 0,
            len: 0,
            req: 0,
        };
        assert_eq!(decode_null(&h.encode(64)), None);
    }
}
