//! What replicating one packet costs the host, and how that splits into a
//! cost per hop and a cost per packet.
//!
//! Every node of an `n`-node ring sources the same sixteen-word packets
//! from event context ([`Ring::source_packet`]), each source paced the
//! same and the sources staggered, seeded bit errors on, as the repo
//! benchmark's `ring_storm` does — but paced slowly enough that no link
//! backs up, so what is timed is replication, not a backlog. A packet on
//! `n` nodes is one inject and `n - 1` hops. The example prints host
//! nanoseconds per packet at 2, 4, 8 and 16 nodes, each the median of
//! several runs, with the run's exact dispatch count, then the
//! least-squares line through those medians over the live hops: its
//! slope is the cost of a hop, its intercept the cost of a packet beyond
//! its hops (the source's event, the inject's link walk, the plan).
//!
//! The repo benchmark pins itself to one CPU; pin this the same way:
//!
//! ```sh
//! taskset -c 1 cargo run --release --example ring_hop_cost
//! ```

use std::sync::Arc;
use std::time::Instant;

use scramnet_cluster::des::{SimHandle, Simulation, Time};
use scramnet_cluster::scramnet::{CostModel, Ring, RingConfig, Word};

/// Packets each source sends, whatever the node count.
const PACKETS_PER_SOURCE: u64 = 3_000;
/// Words per packet.
const WORDS: u32 = 16;
/// Between two packets of one source: a sixteen-word packet serialises in
/// ≈ 9.8 µs in fixed mode and crosses every link, so 16 sources fill
/// ≈ 157 µs of each link per round.
const PACING_NS: Time = 200_000;
/// Runs per node count; the median is printed.
const RUNS: usize = 7;

/// Source packet `i` from `node`, then schedule the next.
fn tick(ring: Ring, handle: SimHandle, node: usize, i: u64, t: Time) {
    let data: Arc<Vec<Word>> = Arc::new((0..WORDS).map(|k| i as u32 ^ k).collect());
    ring.source_packet(node, t, node * 32 + (i as usize & 16), data);
    if i + 1 < PACKETS_PER_SOURCE {
        let next = handle.clone();
        handle.schedule_at(t + PACING_NS, move |t| tick(ring, next, node, i + 1, t));
    }
}

fn main() {
    println!("nodes  hops/packet  dispatches  host ns/packet (median of {RUNS})");
    let mut points = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let mut ns = Vec::with_capacity(RUNS);
        let mut dispatches = 0;
        for _ in 0..RUNS {
            let mut sim = Simulation::new();
            let handle = sim.handle();
            let config = RingConfig {
                bit_error_rate: 1e-4,
                error_seed: 1999,
                ..Default::default()
            };
            let ring = Ring::with_config(&handle, n, 8192, CostModel::default(), config);
            for node in 0..n {
                let (ring, next) = (ring.clone(), handle.clone());
                let first = node as Time * PACING_NS / n as Time;
                handle.schedule_at(first, move |t| tick(ring, next, node, 0, t));
            }
            let start = Instant::now();
            let report = sim.run();
            let elapsed = start.elapsed().as_nanos() as f64;
            assert!(report.is_clean());
            let packets = n as u64 * PACKETS_PER_SOURCE;
            assert_eq!(ring.stats().injections, packets);
            // Every packet is its source's event and one per hop.
            assert_eq!(report.dispatches, packets * n as u64);
            dispatches = report.dispatches;
            ns.push(elapsed / packets as f64);
        }
        ns.sort_by(f64::total_cmp);
        let median = ns[RUNS / 2];
        println!("{n:>5}  {:>11}  {dispatches:>10}  {median:>8.0}", n - 1);
        points.push(((n - 1) as f64, median));
    }
    let k = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(x, y), &(px, py)| (x + px / k, y + py / k));
    let sxy: f64 = points.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    let per_hop = sxy / sxx;
    println!(
        "least squares: {per_hop:.1} ns per hop, {:.0} ns per packet",
        my - per_hop * mx
    );
}
