//! Aggregate counters the experiment harnesses read after a run.

use std::sync::atomic::{AtomicU64, Ordering};

use des::Time;

/// Traffic statistics for one [`crate::Ring`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Packets injected (a block write in fixed mode counts its word train
    /// as one injection).
    pub injections: u64,
    /// Total data words carried.
    pub words_carried: u64,
    /// Host PIO word-write operations.
    pub pio_writes: u64,
    /// Host PIO word-read operations.
    pub pio_reads: u64,
    /// Host burst transfers.
    pub bursts: u64,
    /// Interrupts delivered to hosts.
    pub interrupts: u64,
    /// Words corrupted by the fault injector (0 on healthy hardware).
    pub bit_errors: u64,
    /// Packets consumed by an armed drop fault: the source bank saw the
    /// write but nothing replicated (see `Ring::arm_drop`).
    pub packets_dropped: u64,
    /// Injections discarded because the source host is silenced — a
    /// crashed workstation behind a live NIC (see `Ring::silence_node`).
    pub silenced_drops: u64,
    /// Packets whose ring transit was cut short by a severed link — the
    /// nodes before the break got the write, the nodes after did not.
    pub link_truncations: u64,
    /// Sum over links of busy time, for utilization estimates.
    pub link_busy_ns: Time,
}

/// Lock-free accumulation cells behind [`RingStats`]. The hot paths
/// (`inject_as`, `transit`, PIO operations) bump these with a relaxed
/// load and store; [`AtomicRingStats::snapshot`] materializes the plain struct
/// for readers. Only one simulation entity runs at a time, so relaxed
/// ordering loses nothing.
#[derive(Debug, Default)]
pub(crate) struct AtomicRingStats {
    pub injections: AtomicU64,
    pub words_carried: AtomicU64,
    pub pio_writes: AtomicU64,
    pub pio_reads: AtomicU64,
    pub bursts: AtomicU64,
    pub interrupts: AtomicU64,
    pub bit_errors: AtomicU64,
    pub packets_dropped: AtomicU64,
    pub silenced_drops: AtomicU64,
    pub link_truncations: AtomicU64,
    pub link_busy_ns: AtomicU64,
}

impl AtomicRingStats {
    /// Materialize the counters for callers of `Ring::stats`.
    pub fn snapshot(&self) -> RingStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RingStats {
            injections: get(&self.injections),
            words_carried: get(&self.words_carried),
            pio_writes: get(&self.pio_writes),
            pio_reads: get(&self.pio_reads),
            bursts: get(&self.bursts),
            interrupts: get(&self.interrupts),
            bit_errors: get(&self.bit_errors),
            packets_dropped: get(&self.packets_dropped),
            silenced_drops: get(&self.silenced_drops),
            link_truncations: get(&self.link_truncations),
            link_busy_ns: get(&self.link_busy_ns),
        }
    }
}

/// `counter.add(n)` shorthand used by the hot paths.
pub(crate) trait Bump {
    fn add(&self, n: u64);
}

impl Bump for AtomicU64 {
    /// Only the running entity writes these, so a plain load and store
    /// does, without a locked read-modify-write per PIO access.
    #[inline]
    fn add(&self, n: u64) {
        self.store(self.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_cells_snapshot_to_plain_struct() {
        let a = AtomicRingStats::default();
        a.injections.add(3);
        a.words_carried.add(40);
        a.link_busy_ns.add(615);
        let s = a.snapshot();
        assert_eq!(s.injections, 3);
        assert_eq!(s.words_carried, 40);
        assert_eq!(s.link_busy_ns, 615);
        assert_eq!(s.pio_writes, 0);
    }
}
