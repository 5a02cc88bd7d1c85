//! Per-layer software costs of the MPICH-style stack. Calibrated so the
//! MPI layer adds the paper's ≈37 µs constant over the raw BBP API
//! (0-byte: 6.5 µs → 44 µs; 4-byte: 7.8 µs → 49 µs).

use des::Time;

/// Payload size at or above which sends switch from eager to rendezvous,
/// in every preset.
pub(crate) const RENDEZVOUS_THRESHOLD: usize = 16 * 1024;

/// Calibrated per-layer costs in nanoseconds. Only the three presets
/// below build one: a stack's costs are chosen whole, never field by
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpiCosts {
    /// MPI binding entry + exit (argument checking, communicator lookup).
    pub(crate) binding_ns: Time,
    /// Request allocation / completion in the ADI.
    pub(crate) request_ns: Time,
    /// One posted-/unexpected-queue search or insertion.
    pub(crate) queue_ns: Time,
    /// Building the channel packet header on the send side.
    pub(crate) header_build_ns: Time,
    /// Parsing + dispatching a channel packet header on the receive side
    /// (the paper notes each layer keeps its own receive queue; this is
    /// that bookkeeping).
    pub(crate) header_parse_ns: Time,
    /// Channel packet assembly copy, per payload byte (send side).
    pub(crate) pack_ns_per_byte: f64,
    /// Channel packet disassembly copy, per payload byte (receive side).
    pub(crate) unpack_ns_per_byte: f64,
    /// One empty progress-engine iteration (checking the device with
    /// nothing pending).
    pub(crate) progress_poll_ns: Time,
    /// Collective entry overhead (group determination, §4).
    pub(crate) collective_entry_ns: Time,
    /// Channel-packet header size in bytes (MPICH's MPID packet; 64 bytes
    /// in the Channel Interface port, 24 in the ADI-direct extension).
    pub(crate) header_bytes: usize,
}

impl SmpiCosts {
    /// The paper's Channel Interface port: quickest to build, heaviest
    /// per message.
    pub fn channel_interface() -> Self {
        SmpiCosts {
            binding_ns: 1_200,
            request_ns: 2_800,
            queue_ns: 2_500,
            header_build_ns: 6_500,
            header_parse_ns: 9_000,
            pack_ns_per_byte: 20.0,
            unpack_ns_per_byte: 20.0,
            progress_poll_ns: 700,
            collective_entry_ns: 1_500,
            header_bytes: 64,
        }
    }

    /// The paper's stated future work: an ADI implemented directly on the
    /// BillBoard API, removing the Channel Interface layer — smaller
    /// header, one less queue hand-off per side.
    pub fn adi_direct() -> Self {
        SmpiCosts {
            binding_ns: 1_000,
            request_ns: 2_000,
            queue_ns: 900,
            header_build_ns: 1_500,
            header_parse_ns: 2_200,
            pack_ns_per_byte: 4.0,
            unpack_ns_per_byte: 4.0,
            progress_poll_ns: 500,
            collective_entry_ns: 1_200,
            header_bytes: 24, // exactly the live fields, no union padding
        }
    }

    /// MPICH over TCP sockets (the Fast Ethernet / ATM baselines): the
    /// channel device maps straight onto `write(2)`/`read(2)`, so the MPI
    /// layer adds less than the SCRAMNet port's PIO-driven framing — but
    /// the TCP stack underneath is far slower to begin with.
    pub fn tcp_channel() -> Self {
        SmpiCosts {
            binding_ns: 1_000,
            request_ns: 2_000,
            queue_ns: 1_500,
            header_build_ns: 2_500,
            header_parse_ns: 3_500,
            pack_ns_per_byte: 5.0,
            unpack_ns_per_byte: 5.0,
            progress_poll_ns: 2_500, // select(2) across sockets
            collective_entry_ns: 1_500,
            header_bytes: 64,
        }
    }

    /// Send-side per-payload-byte cost, rounded to ns.
    pub fn pack_ns(&self, len: usize) -> Time {
        (len as f64 * self.pack_ns_per_byte).round() as Time
    }

    /// Receive-side per-payload-byte cost, rounded to ns.
    pub fn unpack_ns(&self, len: usize) -> Time {
        (len as f64 * self.unpack_ns_per_byte).round() as Time
    }
}

impl Default for SmpiCosts {
    fn default() -> Self {
        Self::channel_interface()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adi_direct_is_uniformly_cheaper() {
        let ch = SmpiCosts::channel_interface();
        let ad = SmpiCosts::adi_direct();
        assert!(ad.header_bytes < ch.header_bytes);
        assert!(ad.header_build_ns < ch.header_build_ns);
        assert!(ad.header_parse_ns < ch.header_parse_ns);
        assert!(ad.queue_ns < ch.queue_ns);
    }

    #[test]
    fn per_byte_costs_round_to_ns() {
        let c = SmpiCosts::channel_interface();
        assert_eq!(c.pack_ns(0), 0);
        assert_eq!(c.pack_ns(4), 4 * c.pack_ns_per_byte as u64);
        assert_eq!(c.unpack_ns(1000), 1000 * c.unpack_ns_per_byte as u64);
    }
}
