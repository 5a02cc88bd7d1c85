//! Link-layer specifications for each comparator technology.

/// How payload bytes are framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Framing {
    /// Frame-per-segment with a fixed header+trailer overhead (Ethernet,
    /// Myrinet).
    Frame {
        /// Wire overhead per segment: L2 header/trailer + IP + TCP.
        overhead_bytes: usize,
    },
    /// Fixed cells: each segment is cut into `payload`-byte cells carried
    /// in `total`-byte slots (ATM AAL5: 48 in 53), plus a PDU trailer.
    Cells {
        /// Payload bytes per cell.
        payload: usize,
        /// Wire bytes per cell.
        total: usize,
        /// AAL5 PDU trailer + protocol headers counted once per segment.
        pdu_overhead_bytes: usize,
    },
}

/// One comparator network's link layer.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Number of hosts on the star.
    pub(crate) hosts: usize,
    /// Wire serialization, nanoseconds per byte.
    pub(crate) ns_per_byte: f64,
    /// One-way propagation per link (host↔switch).
    pub(crate) prop_ns: u64,
    /// Switch forwarding delay.
    pub(crate) switch_ns: u64,
    /// True for store-and-forward switches (Ethernet): the switch holds a
    /// full segment before forwarding, so each segment is serialized on
    /// both links end-to-end. Cut-through fabrics (Myrinet, per-cell ATM)
    /// pay serialization once.
    pub(crate) store_and_forward: bool,
    /// Largest payload per segment (TCP MSS or AAL5 PDU).
    pub(crate) mss: usize,
    /// Framing rule.
    pub(crate) framing: Framing,
}

impl NetSpec {
    /// 100 Mb/s switched Fast Ethernet: MSS 1460, 58 B of TCP/IP/Ethernet
    /// overhead per frame, store-and-forward switching.
    pub fn fast_ethernet(hosts: usize) -> Self {
        NetSpec {
            hosts,
            ns_per_byte: 80.0, // 100 Mb/s = 12.5 MB/s
            prop_ns: 500,
            switch_ns: 10_000,
            store_and_forward: true,
            mss: 1460,
            framing: Framing::Frame { overhead_bytes: 58 },
        }
    }

    /// ATM OC-3 (155 Mb/s): AAL5 cells (48 payload in 53 wire bytes) cut
    /// through the switch per cell, 9180-byte PDUs.
    pub fn atm_oc3(hosts: usize) -> Self {
        NetSpec {
            hosts,
            ns_per_byte: 51.6, // 155 Mb/s ≈ 19.4 MB/s
            prop_ns: 500,
            switch_ns: 8_000,
            store_and_forward: false,
            mss: 9180,
            framing: Framing::Cells {
                payload: 48,
                total: 53,
                pdu_overhead_bytes: 48,
            },
        }
    }

    /// Myrinet (1.28 Gb/s full duplex), cut-through wormhole switching,
    /// 16-byte route/type header per packet.
    pub fn myrinet(hosts: usize) -> Self {
        NetSpec {
            hosts,
            ns_per_byte: 6.25, // 1.28 Gb/s = 160 MB/s
            prop_ns: 200,
            switch_ns: 1_000,
            store_and_forward: false,
            mss: 8192,
            framing: Framing::Frame { overhead_bytes: 16 },
        }
    }

    /// Wire bytes for one segment carrying `payload` bytes.
    pub fn wire_bytes(&self, payload: usize) -> usize {
        match self.framing {
            Framing::Frame { overhead_bytes } => payload + overhead_bytes,
            Framing::Cells {
                payload: cp,
                total,
                pdu_overhead_bytes,
            } => {
                let pdu = payload + pdu_overhead_bytes;
                pdu.div_ceil(cp) * total
            }
        }
    }

    /// Serialization time for one segment carrying `payload` bytes.
    pub fn serialize_ns(&self, payload: usize) -> u64 {
        (self.wire_bytes(payload) as f64 * self.ns_per_byte).round() as u64
    }

    /// Split a message into segment payload sizes. A zero-byte message is
    /// one empty segment (TCP still sends a packet).
    pub fn segments(&self, len: usize) -> Vec<usize> {
        if len == 0 {
            return vec![0];
        }
        let mut out = Vec::with_capacity(len.div_ceil(self.mss));
        let mut rest = len;
        while rest > 0 {
            let take = rest.min(self.mss);
            out.push(take);
            rest -= take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_wire_bytes_add_frame_overhead() {
        let e = NetSpec::fast_ethernet(4);
        assert_eq!(e.wire_bytes(0), 58);
        assert_eq!(e.wire_bytes(1460), 1518);
    }

    #[test]
    fn atm_cell_tax_rounds_up_to_cells() {
        let a = NetSpec::atm_oc3(4);
        // 0-byte payload still carries the PDU overhead: 48 B = 1 cell.
        assert_eq!(a.wire_bytes(0), 53);
        // 49-byte PDU ⇒ 97 B ⇒ 3 cells... check exact: 49+48=97 ⇒ ceil(97/48)=3.
        assert_eq!(a.wire_bytes(49), 3 * 53);
    }

    #[test]
    fn segmentation_respects_mss() {
        let e = NetSpec::fast_ethernet(4);
        assert_eq!(e.segments(0), vec![0]);
        assert_eq!(e.segments(1460), vec![1460]);
        assert_eq!(e.segments(1461), vec![1460, 1]);
        assert_eq!(e.segments(4000), vec![1460, 1460, 1080]);
    }

    #[test]
    fn serialization_scales_with_bandwidth() {
        let e = NetSpec::fast_ethernet(4);
        let m = NetSpec::myrinet(4);
        assert!(e.serialize_ns(1000) > 10 * m.serialize_ns(1000));
    }

    #[test]
    fn myrinet_frames_carry_small_headers() {
        let m = NetSpec::myrinet(4);
        assert_eq!(m.wire_bytes(0), 16);
        assert_eq!(m.wire_bytes(100), 116);
    }

    #[test]
    fn atm_pdu_segmentation_uses_large_mss() {
        let a = NetSpec::atm_oc3(4);
        assert_eq!(a.segments(9180), vec![9180]);
        assert_eq!(a.segments(9181), vec![9180, 1]);
    }

    #[test]
    fn serialize_rounds_to_nanoseconds() {
        let e = NetSpec::fast_ethernet(4);
        // 58 wire bytes at 80 ns/B = 4640 ns exactly.
        assert_eq!(e.serialize_ns(0), 4_640);
    }

    #[test]
    fn myrinet_is_cut_through() {
        assert!(!NetSpec::myrinet(4).store_and_forward);
        assert!(NetSpec::fast_ethernet(4).store_and_forward);
    }
}
