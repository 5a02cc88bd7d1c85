//! The star fabric: per-link occupancy and segment-by-segment delivery
//! times through one switch.

use std::sync::Arc;

use des::Time;
use parking_lot::Mutex;

use crate::spec::NetSpec;

/// Aggregate fabric counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Segments carried.
    pub segments: u64,
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Wire bytes carried (payload + framing).
    pub wire_bytes: u64,
}

struct FabricShared {
    spec: NetSpec,
    /// Busy horizon of each host's uplink (host → switch).
    uplinks: Mutex<Vec<Time>>,
    /// Busy horizon of each host's downlink (switch → host).
    downlinks: Mutex<Vec<Time>>,
    stats: Mutex<FabricStats>,
}

/// A switched star network connecting `spec.hosts` hosts. Purely a timing
/// model: the payload bytes themselves ride in the endpoint queues
/// (`TcpNet`).
#[derive(Clone)]
pub struct Fabric {
    shared: Arc<FabricShared>,
}

impl Fabric {
    /// Build a fabric. It computes arrival times eagerly and schedules no
    /// events of its own, so it needs no simulation handle.
    pub fn new(spec: NetSpec) -> Self {
        let hosts = spec.hosts;
        Fabric {
            shared: Arc::new(FabricShared {
                spec,
                uplinks: Mutex::new(vec![0; hosts]),
                downlinks: Mutex::new(vec![0; hosts]),
                stats: Mutex::new(FabricStats::default()),
            }),
        }
    }

    /// The link spec.
    pub fn spec(&self) -> &NetSpec {
        &self.shared.spec
    }

    /// Counters so far.
    pub fn stats(&self) -> FabricStats {
        self.shared.stats.lock().clone()
    }

    /// Carry `len` payload bytes from `src` to `dst`, with the first
    /// segment ready to leave the host at `t_ready`. Returns the arrival
    /// time of the final byte at `dst`'s NIC and the number of segments
    /// used.
    ///
    /// Store-and-forward switches hold each full segment before
    /// forwarding (two serializations per segment, pipelined across
    /// segments); cut-through fabrics serialize once.
    pub fn transmit(&self, src: usize, dst: usize, len: usize, t_ready: Time) -> (Time, usize) {
        assert_ne!(src, dst, "loopback transmissions never touch the fabric");
        let segments = self.shared.spec.segments(len);
        let nseg = segments.len();
        let mut last_arrival = t_ready;
        let mut ready = t_ready;
        for &seg in &segments {
            let (arrival, next_ready) = self.transmit_segment(src, dst, seg, ready);
            last_arrival = arrival;
            // Next segment can leave the host as soon as the uplink
            // frees (back-to-back pipelining).
            ready = next_ready;
        }
        (last_arrival, nseg)
    }

    /// Carry a single segment of `payload` bytes. Returns `(arrival of
    /// the last byte at dst, time src's uplink frees for the next
    /// segment)`. Used directly by the windowed TCP mode, which gates
    /// each segment on acknowledgements.
    pub fn transmit_segment(
        &self,
        src: usize,
        dst: usize,
        payload: usize,
        t_ready: Time,
    ) -> (Time, Time) {
        assert_ne!(src, dst, "loopback transmissions never touch the fabric");
        let spec = &self.shared.spec;
        let mut up = self.shared.uplinks.lock();
        let mut down = self.shared.downlinks.lock();
        let mut stats = self.shared.stats.lock();
        let ser = spec.serialize_ns(payload);
        stats.segments += 1;
        stats.payload_bytes += payload as u64;
        stats.wire_bytes += spec.wire_bytes(payload) as u64;
        // Uplink: host → switch.
        let up_depart = t_ready.max(up[src]);
        up[src] = up_depart + ser;
        let last_arrival = if spec.store_and_forward {
            // Switch has the whole segment at up_depart + ser + prop.
            let at_switch = up_depart + ser + spec.prop_ns + spec.switch_ns;
            let down_depart = at_switch.max(down[dst]);
            down[dst] = down_depart + ser;
            down_depart + ser + spec.prop_ns
        } else {
            // Cut-through: head flows straight through; the tail
            // arrives one serialization after the head departs.
            let head_out = (up_depart + spec.prop_ns + spec.switch_ns).max(down[dst]);
            down[dst] = head_out + ser;
            head_out + ser + spec.prop_ns
        };
        (last_arrival, up[src])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_segment_latency_components_add_up() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        let spec = f.spec().clone();
        let ser = spec.serialize_ns(100);
        let (arrival, nseg) = f.transmit(0, 1, 100, 1_000);
        assert_eq!(nseg, 1);
        // store-and-forward: 2×ser + 2×prop + switch
        assert_eq!(arrival, 1_000 + 2 * ser + 2 * spec.prop_ns + spec.switch_ns);
    }

    #[test]
    fn cut_through_pays_one_serialization() {
        let f = Fabric::new(NetSpec::myrinet(4));
        let spec = f.spec().clone();
        let ser = spec.serialize_ns(100);
        let (arrival, _) = f.transmit(0, 1, 100, 0);
        assert_eq!(arrival, spec.prop_ns + spec.switch_ns + ser + spec.prop_ns);
    }

    #[test]
    fn segments_pipeline_across_the_switch() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        let spec = f.spec().clone();
        let len = 1460 * 3;
        let (arrival, nseg) = f.transmit(0, 1, len, 0);
        assert_eq!(nseg, 3);
        let ser = spec.serialize_ns(1460);
        // Pipelined: 3 serializations on the bottleneck link + one extra
        // on the far side + constants — strictly less than 6 full
        // serializations plus constants (the unpipelined bound).
        let unpipelined = 6 * ser + 3 * (2 * spec.prop_ns + spec.switch_ns);
        assert!(arrival < unpipelined, "{arrival} vs {unpipelined}");
        assert!(arrival > 4 * ser, "{arrival} vs {}", 4 * ser);
    }

    #[test]
    fn concurrent_senders_to_one_destination_contend_on_its_downlink() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        let (a1, _) = f.transmit(0, 2, 1000, 0);
        let (a2, _) = f.transmit(1, 2, 1000, 0);
        let ser = f.spec().serialize_ns(1000);
        assert!(a2 >= a1 + ser, "second arrival must queue behind the first");
    }

    #[test]
    fn different_destinations_do_not_contend() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        let (a1, _) = f.transmit(0, 2, 1000, 0);
        let (a2, _) = f.transmit(1, 3, 1000, 0);
        assert_eq!(a1, a2, "distinct up/down links are independent");
    }

    #[test]
    fn stats_accumulate() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        f.transmit(0, 1, 3000, 0);
        let s = f.stats();
        assert_eq!(s.segments, 3);
        assert_eq!(s.payload_bytes, 3000);
        assert!(s.wire_bytes > 3000);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        let f = Fabric::new(NetSpec::fast_ethernet(4));
        f.transmit(1, 1, 10, 0);
    }
}
