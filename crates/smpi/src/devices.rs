//! Concrete devices: the BillBoard Protocol on SCRAMNet and TCP sockets
//! on the conventional networks.

use bbp::{BbpEndpoint, BbpError};
use des::obs::Layer;
use des::{ProcCtx, Time};
use netsim::{MyrinetApiPort, TcpSock};

use crate::device::{Device, DeviceError};

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

/// The SCRAMNet channel device: frames ride the BillBoard Protocol, which
/// already guarantees reliable per-pair-FIFO delivery and provides the
/// hardware-replicated multicast the native collectives exploit.
pub struct BbpDevice {
    ep: BbpEndpoint,
}

impl BbpDevice {
    /// Wrap a BillBoard endpoint as the channel device.
    pub fn new(ep: BbpEndpoint) -> Self {
        BbpDevice { ep }
    }

    /// Borrow the underlying endpoint (stats).
    pub fn endpoint(&self) -> &BbpEndpoint {
        &self.ep
    }
}

impl Device for BbpDevice {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn nprocs(&self) -> usize {
        self.ep.nprocs()
    }

    fn send_frame(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let node = self.ep.rank() as u32;
        ctx.obs()
            .span_enter(ctx.now(), node, Layer::Device, "frame_send");
        let out = self.ep.send(ctx, dst, frame).map_err(map_bbp_err);
        if out.is_err() {
            ctx.obs().count(ctx.now(), node, "device.send_errors", 1);
        }
        ctx.obs()
            .span_exit(ctx.now(), node, Layer::Device, "frame_send");
        out
    }

    fn try_recv_frame(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        // The progress engine is the device's only periodic entry point,
        // so it doubles as the membership driver: heartbeat publication
        // and failure detection advance once per poll (a complete no-op
        // when the endpoint has no membership extension).
        self.ep.membership_tick(ctx);
        // No span: the progress engine polls this continuously and a
        // span per empty poll would drown the trace. A received frame
        // still shows up as the nested `bbp` deliver span.
        let got = self.ep.try_recv_any(ctx);
        if got.is_some() {
            ctx.obs()
                .count(ctx.now(), self.ep.rank() as u32, "device.frames_rx", 1);
        }
        got
    }

    fn mcast_frame(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let node = self.ep.rank() as u32;
        ctx.obs()
            .span_enter(ctx.now(), node, Layer::Device, "frame_mcast");
        let out = self.ep.mcast(ctx, targets, frame).map_err(map_bbp_err);
        if out.is_err() {
            ctx.obs().count(ctx.now(), node, "device.send_errors", 1);
        }
        ctx.obs()
            .span_exit(ctx.now(), node, Layer::Device, "frame_mcast");
        out
    }

    fn has_native_mcast(&self) -> bool {
        true
    }

    fn max_frame(&self) -> Option<usize> {
        Some(self.ep.config().max_payload_bytes())
    }

    fn idle_wait(&mut self, ctx: &mut ProcCtx) -> bool {
        self.ep.wait_for_traffic(ctx)
    }

    fn idle_sleep(&mut self, ctx: &mut ProcCtx, lead: Time) -> bool {
        self.ep.sleep_until_flagged(ctx, lead)
    }

    fn membership(&self) -> Option<(u32, u32)> {
        self.ep.membership_view().map(|v| (v.epoch, v.alive_mask))
    }

    fn partitioned(&self) -> Option<u32> {
        self.ep.frozen_epoch()
    }
}

/// The TCP channel device (MPICH's `ch_p4`-style socket device): one
/// connection per peer, polled round-robin.
pub struct TcpDevice {
    rank: usize,
    /// `socks[p]` is the connection to peer `p` (`None` at `p == rank`).
    socks: Vec<Option<TcpSock>>,
    rr: usize,
}

impl TcpDevice {
    /// Build from a full mesh of sockets; `socks[rank]` must be `None`
    /// and every other slot connected to the matching peer.
    pub fn new(rank: usize, socks: Vec<Option<TcpSock>>) -> Self {
        assert!(socks[rank].is_none(), "no loopback socket at own rank");
        TcpDevice { rank, socks, rr: 0 }
    }
}

impl Device for TcpDevice {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.socks.len()
    }

    fn send_frame(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let node = self.rank as u32;
        ctx.obs()
            .span_enter(ctx.now(), node, Layer::Device, "frame_send");
        self.socks[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("no connection to rank {dst}"))
            .send(ctx, frame);
        ctx.obs()
            .span_exit(ctx.now(), node, Layer::Device, "frame_send");
        Ok(())
    }

    fn try_recv_frame(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        let n = self.socks.len();
        for off in 0..n {
            let p = (self.rr + off) % n;
            if let Some(sock) = &self.socks[p] {
                if let Some(frame) = sock.try_recv(ctx) {
                    self.rr = (p + 1) % n;
                    return Some((p, frame));
                }
            }
        }
        None
    }

    fn has_native_mcast(&self) -> bool {
        false // no hardware multicast on switched point-to-point fabrics
    }
}

/// The native (user-level) Myrinet device: OS-bypass messaging. Used as
/// the bulk path of [`crate::HybridDevice`], or standalone.
pub struct MyrinetDevice {
    port: MyrinetApiPort,
    nprocs: usize,
}

impl MyrinetDevice {
    /// Build a device over an existing Myrinet port for a world of `nprocs` ranks.
    pub fn new(port: MyrinetApiPort, nprocs: usize) -> Self {
        MyrinetDevice { port, nprocs }
    }
}

impl Device for MyrinetDevice {
    fn rank(&self) -> usize {
        self.port.host()
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send_frame(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let node = self.port.host() as u32;
        ctx.obs()
            .span_enter(ctx.now(), node, Layer::Device, "frame_send");
        self.port.send(ctx, dst, frame);
        ctx.obs()
            .span_exit(ctx.now(), node, Layer::Device, "frame_send");
        Ok(())
    }

    fn try_recv_frame(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        self.port.try_recv(ctx)
    }

    fn has_native_mcast(&self) -> bool {
        false // wormhole switches have no replication hardware
    }
}
