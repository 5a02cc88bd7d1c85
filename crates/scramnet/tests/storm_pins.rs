//! A packet's hops walk the ring in one loop while each is the next entry
//! due, and a hop's bank apply stores its words in place: neither may move
//! anything simulated. This pins a recorded 16-node storm — every node
//! sourcing 200 sixteen-word packets from event context, seeded bit
//! errors, one interrupt watch, one recorded delivery stream — to the
//! numbers captured while every hop was a link the dispatch loop ran one
//! at a time: the scheduler trace's `(time, kind)` sequence, the run's
//! dispatches, peak queue depth and end time, the ring's statistics, the
//! single-writer conflicts (writers twelve nodes apart share words) and
//! the watched node's delivered stream. A second run has a process
//! waiting on the watch's signal, so every interrupting apply enters the
//! scheduler in the middle of a packet's hops.
//!
//! A mismatch prints the observed pin as a `Pin { .. }` literal. Re-bless
//! only for a deliberate change of simulated behaviour.

use std::sync::Arc;

use des::{Simulation, Time, TraceKind};
use scramnet::{CostModel, Ring, RingConfig, RingStats};

const NODES: usize = 16;
const PACKETS_PER_NODE: usize = 200;
const WORDS: u32 = 16;
/// The node whose bank is watched and whose deliveries are recorded.
const OBSERVED: usize = 5;
/// After the last packet's last hop: where the watching process, if there
/// is one, is notified for the last time and stops waiting.
const WATCH_END: Time = 40_000_000;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// What one recorded storm did.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trace_entries: usize,
    trace_hash: u64,
    dispatches: u64,
    peak_queue_depth: usize,
    end_time: Time,
    stats: RingStats,
    conflicts: usize,
    conflicts_hash: u64,
    deliveries: usize,
    deliveries_hash: u64,
}

/// Every node sources its packets 1 µs apart, the sources staggered
/// 125 ns, each packet rescheduling the next. Node `n` writes at
/// `(n * 32) % 384`, so nodes twelve apart share their words. With
/// `waiter`, a process waits on the watched node's signal until
/// [`WATCH_END`].
fn storm(waiter: bool) -> Pin {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let handle = sim.handle();
    let ring = Ring::with_config(
        &handle,
        NODES,
        8192,
        CostModel::default(),
        RingConfig {
            bit_error_rate: 1e-4,
            error_seed: 1999,
            ..Default::default()
        },
    );
    let signal = handle.new_signal();
    ring.nic(OBSERVED).watch(64..80, signal.clone());
    if waiter {
        let waits = signal.clone();
        sim.spawn("watcher", move |ctx| {
            while ctx.now() < WATCH_END {
                let ticket = ctx.ticket(&waits);
                ctx.wait(ticket);
            }
        });
        handle.schedule_at(WATCH_END, move |t| signal.notify_at(t));
    }
    let delivered = ring.record_deliveries(OBSERVED);

    fn tick(ring: Ring, node: usize, i: usize, t: Time) {
        let w = i as u32 ^ 0x5a5a;
        let data = Arc::new((0..WORDS).map(|k| w ^ k).collect());
        let addr = (node * 32) % 384 + (i & 16);
        ring.source_packet(node, t, addr, data);
        if i + 1 < PACKETS_PER_NODE {
            let h = ring.handle();
            h.schedule_at(t + 1_000, move |t| tick(ring, node, i + 1, t));
        }
    }
    for node in 0..NODES {
        let ring = ring.clone();
        handle.schedule_at(node as Time * 125, move |t| tick(ring, node, 0, t));
    }
    let report = sim.run();
    assert!(report.is_clean());

    let trace = sim.take_trace();
    let mut trace_hash = Fnv::new();
    for entry in &trace {
        trace_hash.word(entry.time);
        trace_hash.word(match entry.kind {
            TraceKind::Yield => 0,
            TraceKind::Resume => 1,
            TraceKind::Event => 2,
            TraceKind::Mark => 3,
        });
    }
    let conflicts = ring.conflicts();
    let mut conflicts_hash = Fnv::new();
    for &(addr, earlier, later) in &conflicts {
        for w in [addr, earlier, later] {
            conflicts_hash.word(w as u64);
        }
    }
    let delivered = delivered.lock();
    let mut deliveries_hash = Fnv::new();
    for d in delivered.iter() {
        for w in [d.time, d.writer as u64, d.addr as u64] {
            deliveries_hash.word(w);
        }
        for &w in &d.data {
            deliveries_hash.word(u64::from(w));
        }
    }
    Pin {
        trace_entries: trace.len(),
        trace_hash: trace_hash.0,
        dispatches: report.dispatches,
        peak_queue_depth: report.peak_queue_depth,
        end_time: report.end_time,
        stats: ring.stats(),
        conflicts: conflicts.len(),
        conflicts_hash: conflicts_hash.0,
        deliveries: delivered.len(),
        deliveries_hash: deliveries_hash.0,
    }
}

/// The ring's statistics, with or without a waiting process.
fn stats() -> RingStats {
    RingStats {
        injections: 3_200,
        words_carried: 51_200,
        interrupts: 208,
        bit_errors: 65,
        link_busy_ns: 503_808_000,
        ..RingStats::default()
    }
}

#[test]
fn a_recorded_storm_is_what_it_was() {
    assert_eq!(
        storm(false),
        Pin {
            trace_entries: 51_200,
            trace_hash: 17_439_416_010_973_015_473,
            dispatches: 51_200,
            peak_queue_depth: 3_183,
            end_time: 37_863_500,
            stats: stats(),
            conflicts: 256,
            conflicts_hash: 8_510_308_167_654_785_829,
            deliveries: 3_200,
            deliveries_hash: 5_019_945_377_121_471_979,
        }
    );
}

/// The storm with a process waiting on the watched node's interrupts:
/// each wake is queued from inside the hop that raised it, so the hop's
/// successor is decided with something new in the scheduler.
#[test]
fn a_recorded_storm_with_a_waiting_process_is_what_it_was() {
    assert_eq!(
        storm(true),
        Pin {
            trace_entries: 51_620,
            trace_hash: 17_310_081_067_377_108_651,
            dispatches: 51_411,
            peak_queue_depth: 3_184,
            end_time: WATCH_END,
            stats: stats(),
            conflicts: 256,
            conflicts_hash: 8_510_308_167_654_785_829,
            deliveries: 3_200,
            deliveries_hash: 5_019_945_377_121_471_979,
        }
    );
}
