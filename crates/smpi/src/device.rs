//! The Channel Interface: the narrow device layer MPICH ports ride on,
//! plus the wire format of channel packets.

use bbp::{BbpEndpoint, BbpError};
use des::obs::Layer;
use des::{ProcCtx, Time};
use netsim::{TcpNet, TcpSock};

use crate::hybrid::HybridDevice;
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

/// Translate a BBP reliability-layer failure into the device-layer
/// taxonomy. Anything else out of the endpoint (oversized payload, bad
/// rank) is a configuration bug in the stack, not a fault, and panics.
fn map_bbp_err(e: BbpError) -> DeviceError {
    match e {
        BbpError::Corrupt { peer } => DeviceError::Corrupt { peer },
        BbpError::Timeout { peer, .. } => DeviceError::Timeout { peer },
        BbpError::PeerDown { peer } => DeviceError::PeerDown { peer },
        BbpError::Partitioned { epoch } => DeviceError::Partitioned { epoch },
        other => panic!("BBP configuration error under the channel device: {other}"),
    }
}

/// The device under the Channel Interface. One instance per rank, owned
/// by that rank's process: one of the transports the worlds are built on.
pub enum Device {
    /// The SCRAMNet device: frames ride the BillBoard Protocol, which
    /// already guarantees reliable per-pair-FIFO delivery and provides the
    /// hardware-replicated multicast the native collectives exploit.
    Bbp(Box<BbpEndpoint>),
    /// The socket device of MPICH over a host stack: TCP (Fast Ethernet,
    /// ATM, Myrinet), or the native Myrinet API a hybrid's bulk path
    /// rides. No multicast (none of these switches replicates).
    Tcp(TcpDevice),
    /// SCRAMNet for latency plus a bulk path for bandwidth.
    Hybrid(Box<HybridDevice>),
    /// An in-memory double with an inspectable outbox.
    #[cfg(test)]
    Scripted(crate::testutil::ScriptedDevice),
}

impl Device {
    /// This device's world rank.
    pub fn rank(&self) -> usize {
        match self {
            Device::Bbp(ep) => ep.rank(),
            Device::Tcp(tcp) => tcp.rank,
            Device::Hybrid(hy) => hy.fast.rank(),
            #[cfg(test)]
            Device::Scripted(s) => s.rank,
        }
    }

    /// World size.
    pub fn nprocs(&self) -> usize {
        match self {
            Device::Bbp(ep) => ep.nprocs(),
            Device::Tcp(tcp) => tcp.socks.len(),
            Device::Hybrid(hy) => hy.fast.nprocs(),
            #[cfg(test)]
            Device::Scripted(s) => s.n,
        }
    }

    /// Per-pair-FIFO frame delivery to `dst`. `Err` means the transport
    /// gave up after exhausting whatever reliability budget it has; the
    /// ADI turns that into an MPI-level error.
    pub fn send_frame(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        self.traced(ctx, "frame_send", |dev, ctx| dev.transmit(ctx, dst, frame))
    }

    /// Hardware multicast of one frame. [`Device::has_native_mcast`] is
    /// the one capability bit: callers ask it first and fall back to
    /// point-to-point, so a device without the hardware panics here.
    pub fn mcast_frame(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        self.traced(ctx, "frame_mcast", |dev, ctx| {
            dev.replicate(ctx, targets, frame)
        })
    }

    /// A frame's one `Layer::Device` span, and its `device.send_errors`
    /// count if the transport gave up, whatever the transport: a hybrid's
    /// paths are reached through the untraced `transmit`/`replicate`.
    fn traced(
        &mut self,
        ctx: &mut ProcCtx,
        name: &'static str,
        op: impl FnOnce(&mut Self, &mut ProcCtx) -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        let node = self.rank() as u32;
        ctx.span(node, Layer::Device, name, |ctx| {
            let out = op(self, ctx);
            if out.is_err() {
                ctx.obs().count(ctx.now(), node, "device.send_errors", 1);
            }
            out
        })
    }

    /// [`Device::send_frame`] without its span: what a hybrid's paths
    /// are sent through.
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        match self {
            Device::Bbp(ep) => ep.send(ctx, dst, frame).map_err(map_bbp_err),
            Device::Tcp(tcp) => {
                let sock = tcp.socks[dst].as_ref();
                sock.unwrap_or_else(|| panic!("no connection to rank {dst}"))
                    .send(ctx, frame);
                Ok(())
            }
            Device::Hybrid(hy) => hy.transmit(ctx, dst, frame),
            #[cfg(test)]
            Device::Scripted(s) => s.record(&[dst], frame),
        }
    }

    /// [`Device::mcast_frame`] without its span.
    pub(crate) fn replicate(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        match self {
            Device::Bbp(ep) => ep.mcast(ctx, targets, frame).map_err(map_bbp_err),
            Device::Hybrid(hy) => hy.replicate(ctx, targets, frame),
            #[cfg(test)]
            Device::Scripted(s) => s.record(targets, frame),
            Device::Tcp(_) => panic!("device has no native multicast"),
        }
    }

    /// One progress poll: the next arrived frame, if any, with its source.
    pub fn try_recv_frame(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        match self {
            Device::Bbp(ep) => {
                // The progress engine is the device's only periodic entry
                // point, so it doubles as the membership driver: heartbeat
                // publication and failure detection advance once per poll
                // (a no-op without the membership extension).
                ep.membership_tick(ctx);
                // No span: the progress engine polls this continuously and
                // a span per empty poll would drown the trace. A received
                // frame still shows up as the nested `bbp` deliver span.
                let got = ep.try_recv_any(ctx);
                if got.is_some() {
                    ctx.obs()
                        .count(ctx.now(), ep.rank() as u32, "device.frames_rx", 1);
                }
                got
            }
            Device::Tcp(tcp) => tcp.try_recv(ctx),
            Device::Hybrid(hy) => hy.try_recv(ctx),
            #[cfg(test)]
            Device::Scripted(s) => s.state.lock().incoming.pop_front(),
        }
    }

    /// Whether [`Device::mcast_frame`] works (the paper's "additional
    /// functionality provided by the underlying device").
    pub fn has_native_mcast(&self) -> bool {
        match self {
            Device::Bbp(_) => true,
            Device::Tcp(_) => false,
            Device::Hybrid(hy) => hy.fast.has_native_mcast(),
            #[cfg(test)]
            Device::Scripted(_) => true,
        }
    }

    /// Largest frame [`Device::send_frame`] carries in one piece (`None` =
    /// unlimited). The ADI segments rendezvous data to fit.
    pub fn max_frame(&self) -> Option<usize> {
        match self {
            Device::Bbp(ep) => Some(ep.config().max_payload_bytes()),
            Device::Tcp(_) => None,
            Device::Hybrid(hy) => hy.max_frame(),
            #[cfg(test)]
            Device::Scripted(s) => s.max_frame,
        }
    }

    /// Largest frame [`Device::mcast_frame`] carries in one piece: the
    /// limit of the path the multicast rides, which on a hybrid is not the
    /// one [`Device::max_frame`] reports.
    pub fn max_mcast_frame(&self) -> Option<usize> {
        match self {
            Device::Hybrid(hy) => hy.max_mcast_frame(),
            dev => dev.max_frame(),
        }
    }

    /// The transport's failure-detector view, as `(epoch, alive_mask)`
    /// — bit `r` of the mask is set while world rank `r` is believed
    /// alive. `None` means the device has no membership layer: every peer
    /// is presumed alive forever and the degraded-mode checks are vacuous.
    pub fn membership(&self) -> Option<(u32, u32)> {
        match self {
            Device::Bbp(ep) => ep.membership_view().map(|v| (v.epoch, v.alive_mask)),
            // Only the fast path (SCRAMNet) carries a failure detector; a
            // node dead on the billboard is dead, whatever the bulk path thinks.
            Device::Hybrid(hy) => hy.fast.membership(),
            _ => None,
        }
    }

    /// Quorum-enforced membership only: `Some(epoch)` while the
    /// transport is frozen because this node's segment lost its quorum
    /// (the epoch is the last committed view it froze at). `None` means
    /// the device never partitions. The ADI checks this at operation
    /// entry and inside blocking waits so minority ranks fail typed
    /// instead of hanging.
    pub fn partitioned(&self) -> Option<u32> {
        match self {
            Device::Bbp(ep) => ep.frozen_epoch(),
            // Quorum, too, lives on the billboard's detector.
            Device::Hybrid(hy) => hy.fast.partitioned(),
            _ => None,
        }
    }
}

/// The socket channel device: one connection per peer. Over TCP
/// (MPICH's `ch_p4`-style device) the connections are polled
/// round-robin; a native Myrinet API port has one receive queue, so its
/// frames come off in the order they arrived.
pub struct TcpDevice {
    rank: usize,
    /// `socks[p]` is the connection to peer `p` (`None` at `p == rank`).
    socks: Vec<Option<TcpSock>>,
    /// The peer the next round-robin poll starts at; `None` on an API
    /// port, which polls first the peer whose frame arrives first.
    rr: Option<usize>,
}

impl TcpDevice {
    /// `rank`'s end of a full socket mesh over `net` among `nprocs`
    /// ranks, one connection to every other rank, polled round-robin.
    pub fn new(net: &TcpNet, rank: usize, nprocs: usize) -> Self {
        Self::mesh(net, rank, nprocs, Some(0))
    }

    /// `rank`'s native Myrinet API port over `net` (built with
    /// [`netsim::TcpCosts::myrinet_api`]): the same connections, taken in
    /// arrival order.
    pub fn api_port(net: &TcpNet, rank: usize, nprocs: usize) -> Self {
        Self::mesh(net, rank, nprocs, None)
    }

    fn mesh(net: &TcpNet, rank: usize, nprocs: usize, rr: Option<usize>) -> Self {
        let socks = (0..nprocs)
            .map(|p| (p != rank).then(|| net.connect(rank, p)))
            .collect();
        TcpDevice { rank, socks, rr }
    }

    fn try_recv(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        let n = self.socks.len();
        let start = self.rr.unwrap_or_else(|| {
            ctx.settle(); // which frame arrives first depends on who has run
            let arrival = |p: usize| self.socks[p].as_ref()?.next_arrival();
            (0..n)
                .min_by_key(|&p| arrival(p).unwrap_or(Time::MAX))
                .unwrap_or(0)
        });
        let (p, frame) = (0..n)
            .map(|off| (start + off) % n)
            .find_map(|p| Some((p, self.socks[p].as_ref()?.try_recv(ctx)?)))?;
        self.rr = self.rr.map(|_| (p + 1) % n);
        Some((p, frame))
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
