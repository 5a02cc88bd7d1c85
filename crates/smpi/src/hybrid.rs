//! The hybrid device — the paper's concluding research direction made
//! concrete:
//!
//! > "We conclude that SCRAMNet has characteristics complementary to
//! > those of networks usually used in clusters. This makes SCRAMNet a
//! > good candidate for use with a high bandwidth network within the
//! > same cluster. We are working on using SCRAMNet together with other
//! > networks such as Myrinet and ATM …"
//!
//! [`HybridDevice`] composes two [`Device`]s: a low-latency *fast* path
//! (the BillBoard Protocol on SCRAMNet) and a high-bandwidth *bulk* path
//! (e.g. the native Myrinet API). Frames below a size threshold take the
//! fast path; larger frames take the bulk path.
//!
//! Splitting one logical channel across two physical networks breaks the
//! per-pair FIFO ordering MPI matching relies on (a small frame can
//! overtake an earlier large one). The device therefore runs its own
//! sequencing sub-layer: every point-to-point frame carries a per-pair
//! sequence number, and the receive side holds out-of-order arrivals in
//! a resequencing buffer until the gap closes. Multicast frames always
//! take the fast path (only SCRAMNet has hardware multicast), whose own
//! FIFO guarantee orders them; they bypass the resequencer.

use std::collections::BTreeMap;

use des::ProcCtx;

use crate::device::{Device, DeviceError};

/// First byte of a sequenced point-to-point hybrid frame.
const HYB_SEQ: u8 = 0x48;
/// First byte of an unsequenced (multicast / fast-path-only) frame.
const HYB_RAW: u8 = 0x49;
/// Wrapper header: marker byte + 4-byte little-endian sequence.
const WRAP: usize = 5;

/// A device multiplexing two underlying devices by frame size. See the
/// module docs for the ordering protocol.
pub struct HybridDevice {
    pub(crate) fast: Device,
    bulk: Device,
    /// Frames with payload length < threshold take the fast path.
    threshold: usize,
    /// Next sequence number to stamp, per destination.
    tx_seq: Vec<u32>,
    /// Next sequence number to deliver, per source.
    rx_expected: Vec<u32>,
    /// Out-of-order frames awaiting their gap, per source.
    reorder: Vec<BTreeMap<u32, Vec<u8>>>,
    /// In-order frames ready to hand up (drained before polling again).
    ready: std::collections::VecDeque<(usize, Vec<u8>)>,
}

impl HybridDevice {
    /// Compose `fast` (low latency, must agree on rank/nprocs) and
    /// `bulk` (high bandwidth). `threshold` is in frame bytes.
    pub fn new(fast: Device, bulk: Device, threshold: usize) -> Self {
        assert_eq!(fast.rank(), bulk.rank(), "paths must share the rank");
        assert_eq!(fast.nprocs(), bulk.nprocs(), "paths must share the world");
        if let Some(max) = fast.max_frame() {
            assert!(
                threshold + WRAP <= max,
                "threshold {threshold} exceeds the fast path's {max}-byte frame limit"
            );
        }
        let n = fast.nprocs();
        HybridDevice {
            fast,
            bulk,
            threshold,
            tx_seq: vec![0; n],
            rx_expected: vec![0; n],
            reorder: (0..n).map(|_| BTreeMap::new()).collect(),
            ready: std::collections::VecDeque::new(),
        }
    }

    /// The size threshold in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn wrap(marker: u8, seq: u32, frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(WRAP + frame.len());
        out.push(marker);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(frame);
        out
    }

    /// Accept one wrapped arrival: enqueue deliverable frames onto
    /// `ready`, stash out-of-order ones.
    fn accept(&mut self, src: usize, wrapped: Vec<u8>) {
        match wrapped[0] {
            HYB_RAW => {
                self.ready.push_back((src, wrapped[WRAP..].to_vec()));
            }
            HYB_SEQ => {
                let seq = u32::from_le_bytes(wrapped[1..5].try_into().unwrap());
                let frame = wrapped[WRAP..].to_vec();
                if seq == self.rx_expected[src] {
                    self.ready.push_back((src, frame));
                    self.rx_expected[src] = self.rx_expected[src].wrapping_add(1);
                    // The gap may have closed for stashed successors.
                    while let Some(f) = self.reorder[src].remove(&self.rx_expected[src]) {
                        self.ready.push_back((src, f));
                        self.rx_expected[src] = self.rx_expected[src].wrapping_add(1);
                    }
                } else {
                    self.reorder[src].insert(seq, frame);
                }
            }
            other => panic!("corrupt hybrid frame marker {other:#x}"),
        }
    }

    /// A point-to-point frame, sequenced, by the path its size picks.
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut ProcCtx,
        dst: usize,
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let seq = self.tx_seq[dst];
        self.tx_seq[dst] = seq.wrapping_add(1);
        let wrapped = Self::wrap(HYB_SEQ, seq, frame);
        let path = if frame.len() < self.threshold {
            &mut self.fast
        } else {
            &mut self.bulk
        };
        path.transmit(ctx, dst, &wrapped)
    }

    /// A multicast: a fast-path exclusive, unsequenced (the fast path's
    /// own FIFO orders successive multicasts per source).
    pub(crate) fn replicate(
        &mut self,
        ctx: &mut ProcCtx,
        targets: &[usize],
        frame: &[u8],
    ) -> Result<(), DeviceError> {
        let wrapped = Self::wrap(HYB_RAW, 0, frame);
        self.fast.replicate(ctx, targets, &wrapped)
    }

    pub(crate) fn try_recv(&mut self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        if let Some(out) = self.ready.pop_front() {
            return Some(out);
        }
        // Poll both paths once; latency-critical path first.
        if let Some((src, wrapped)) = self.fast.try_recv_frame(ctx) {
            self.accept(src, wrapped);
        }
        if let Some((src, wrapped)) = self.bulk.try_recv_frame(ctx) {
            self.accept(src, wrapped);
        }
        self.ready.pop_front()
    }

    /// Large frames ride the bulk path; account for the wrapper.
    pub(crate) fn max_frame(&self) -> Option<usize> {
        self.bulk.max_frame().map(|m| m - WRAP)
    }

    /// Every multicast rides the fast path, whatever its size.
    pub(crate) fn max_mcast_frame(&self) -> Option<usize> {
        self.fast.max_frame().map(|m| m - WRAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PacketHeader;

    use crate::testutil::{with_ctx, ScriptedDevice};

    fn pair() -> (Device, Device) {
        let (fast, _) = ScriptedDevice::new(0, 2);
        let (bulk, _) = ScriptedDevice::new(0, 2);
        (Device::Scripted(fast), Device::Scripted(bulk))
    }

    #[test]
    fn frames_route_by_size() {
        with_ctx(|ctx| {
            let (fast, fast_probe) = ScriptedDevice::new(0, 2);
            let (bulk, bulk_probe) = ScriptedDevice::new(0, 2);
            let (fast, bulk) = (Device::Scripted(fast), Device::Scripted(bulk));
            let mut hy = HybridDevice::new(fast, bulk, 100);
            hy.transmit(ctx, 1, &[0u8; 50]).unwrap();
            hy.transmit(ctx, 1, &[0u8; 200]).unwrap();
            hy.transmit(ctx, 1, &[0u8; 99]).unwrap();
            let lens = |sent: Vec<(usize, Vec<u8>)>| -> Vec<usize> {
                sent.iter().map(|(_, f)| f.len() - WRAP).collect()
            };
            assert_eq!(lens(fast_probe.sent()), [50, 99]);
            assert_eq!(lens(bulk_probe.sent()), [200]);
            assert_eq!(
                hy.tx_seq[1], 3,
                "every p2p frame consumes a sequence number"
            );
        });
    }

    #[test]
    fn resequencer_restores_order_across_paths() {
        with_ctx(|ctx| {
            let (fast, bulk) = pair();
            let mut hy = HybridDevice::new(fast, bulk, 100);
            // Simulate arrivals: seq 1 beats seq 0 (fast path overtook).
            let f0 = HybridDevice::wrap(HYB_SEQ, 0, b"first");
            let f1 = HybridDevice::wrap(HYB_SEQ, 1, b"second");
            hy.accept(1, f1);
            assert!(hy.try_recv(ctx).is_none(), "gap must hold delivery");
            hy.accept(1, f0);
            let (s, a) = hy.try_recv(ctx).unwrap();
            assert_eq!((s, a.as_slice()), (1, &b"first"[..]));
            let (_, b) = hy.try_recv(ctx).unwrap();
            assert_eq!(b, b"second");
            assert!(hy.try_recv(ctx).is_none());
        });
    }

    #[test]
    fn raw_frames_bypass_the_resequencer() {
        with_ctx(|ctx| {
            let (fast, bulk) = pair();
            let mut hy = HybridDevice::new(fast, bulk, 100);
            // A raw (multicast) frame is deliverable even though a
            // sequenced gap exists.
            hy.accept(1, HybridDevice::wrap(HYB_SEQ, 5, b"far future"));
            hy.accept(1, HybridDevice::wrap(HYB_RAW, 0, b"collective"));
            let (_, m) = hy.try_recv(ctx).unwrap();
            assert_eq!(m, b"collective");
            assert!(hy.try_recv(ctx).is_none());
        });
    }

    #[test]
    fn sequence_numbers_wrap_safely() {
        with_ctx(|ctx| {
            let (fast, bulk) = pair();
            let mut hy = HybridDevice::new(fast, bulk, 100);
            hy.rx_expected[1] = u32::MAX;
            hy.accept(1, HybridDevice::wrap(HYB_SEQ, u32::MAX, b"last"));
            hy.accept(1, HybridDevice::wrap(HYB_SEQ, 0, b"wrapped"));
            assert_eq!(hy.try_recv(ctx).unwrap().1, b"last");
            assert_eq!(hy.try_recv(ctx).unwrap().1, b"wrapped");
        });
    }

    #[test]
    fn header_survives_wrapping() {
        // The wrapper must be transparent to the channel packet format.
        let h = PacketHeader {
            kind: crate::device::PacketKind::Eager,
            src: 1,
            tag: 9,
            context: 3,
            len: 4,
            req: 0,
        };
        let frame = h.encode(64);
        let wrapped = HybridDevice::wrap(HYB_SEQ, 7, &frame);
        assert_eq!(PacketHeader::decode(&wrapped[WRAP..]), h);
    }
}
