//! Traffic-pattern sweep on the BillBoard Protocol — how the ring and
//! the protocol's flow control behave beyond ping-pong: uniform random,
//! hotspot (everyone hammers rank 0), nearest-neighbour, and bursty
//! traffic on an 8-node ring. Reports delivery-latency statistics and
//! aggregate delivered throughput.
//!
//! All patterns are seeded and deterministic; each message carries its
//! send timestamp so receivers measure true in-flight latency.

use bbp::{BbpCluster, BbpConfig};
use bench::report::Quantiles;
use des::rng::SimRng;
use des::{Simulation, Time, TimeExt};

const NODES: usize = 8;
const MSGS_PER_NODE: usize = 40;
const PAYLOAD: usize = 64;

#[derive(Clone, Copy)]
enum Pattern {
    Uniform,
    Hotspot,
    Neighbour,
    Bursty,
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform random",
            Pattern::Hotspot => "hotspot (to rank 0)",
            Pattern::Neighbour => "nearest neighbour",
            Pattern::Bursty => "bursty uniform",
        }
    }

    /// Destination of message `i` from `src`, and the think time before
    /// sending it.
    fn step(self, src: usize, i: usize, rng: &mut SimRng) -> (usize, Time) {
        match self {
            Pattern::Uniform => {
                let mut dst = rng.below(NODES as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % NODES;
                }
                (dst, 3_000)
            }
            Pattern::Hotspot => {
                if src == 0 {
                    (1 + rng.below((NODES - 1) as u64) as usize, 3_000)
                } else {
                    (0, 3_000)
                }
            }
            Pattern::Neighbour => ((src + 1) % NODES, 3_000),
            Pattern::Bursty => {
                let mut dst = rng.below(NODES as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % NODES;
                }
                // Ten-message bursts separated by long silences.
                let think = if i.is_multiple_of(10) { 80_000 } else { 200 };
                (dst, think)
            }
        }
    }
}

struct PatternStats {
    latencies: Quantiles,
    total_time: Time,
}

fn run_pattern(pattern: Pattern, seed: u64) -> PatternStats {
    // Precompute the plan so each receiver knows its incoming count.
    let mut plans: Vec<Vec<(usize, Time)>> = Vec::new();
    let mut incoming = [0usize; NODES];
    for src in 0..NODES {
        let mut rng = SimRng::seeded(seed ^ (src as u64) << 8);
        let mut plan = Vec::new();
        for i in 0..MSGS_PER_NODE {
            let (dst, think) = pattern.step(src, i, &mut rng);
            incoming[dst] += 1;
            plan.push((dst, think));
        }
        plans.push(plan);
    }

    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(NODES);
    cfg.bufs_per_proc = 32;
    cfg.data_words = 8 * 1024;
    let cluster = BbpCluster::new(&sim.handle(), cfg);
    let mut nodes = Vec::with_capacity(NODES);
    for (rank, plan) in plans.into_iter().enumerate() {
        let mut ep = cluster.endpoint(rank);
        let expect = incoming[rank];
        nodes.push(sim.spawn(format!("n{rank}"), move |ctx| {
            let mut latencies: Vec<Time> = Vec::with_capacity(expect);
            let mut sent = 0usize;
            let mut payload = vec![0xAAu8; PAYLOAD];
            // Interleave sending with draining so hotspot receivers keep
            // up and flow control exercises realistically.
            while sent < plan.len() || latencies.len() < expect {
                if sent < plan.len() {
                    let (dst, think) = plan[sent];
                    ctx.advance(think);
                    payload[..8].copy_from_slice(&ctx.now().to_le_bytes());
                    ep.send(ctx, dst, &payload).unwrap();
                    sent += 1;
                }
                while let Some((_, m)) = ep.try_recv_any(ctx) {
                    let t_sent = Time::from_le_bytes(m[..8].try_into().unwrap());
                    latencies.push(ctx.now() - t_sent);
                }
                if sent == plan.len() && latencies.len() < expect {
                    // Done sending: block for the rest.
                    let (_, m) = ep.recv_any(ctx).unwrap();
                    let t_sent = Time::from_le_bytes(m[..8].try_into().unwrap());
                    latencies.push(ctx.now() - t_sent);
                }
            }
            latencies
        }));
    }
    let report = sim.run();
    assert!(
        report.is_clean(),
        "{} deadlocked: {:?}",
        pattern.name(),
        report.deadlocked
    );
    let lat: Vec<Time> = nodes.iter_mut().flat_map(|n| n.take().unwrap()).collect();
    assert_eq!(lat.len(), NODES * MSGS_PER_NODE);
    PatternStats {
        latencies: bench::report::quantiles_of(pattern.name(), &lat),
        total_time: report.end_time,
    }
}

fn main() {
    println!(
        "== Traffic patterns on an {NODES}-node BBP ring ({} x {PAYLOAD} B per node) ==\n",
        MSGS_PER_NODE
    );
    println!(
        "{:>22} {:>12} {:>12} {:>14} {:>12}",
        "pattern", "mean lat", "p99 lat", "makespan", "agg MB/s"
    );
    for pattern in [
        Pattern::Uniform,
        Pattern::Hotspot,
        Pattern::Neighbour,
        Pattern::Bursty,
    ] {
        let s = run_pattern(pattern, 0x5CAD);
        let bytes = (NODES * MSGS_PER_NODE * PAYLOAD) as f64;
        let mb_s = bytes / (s.total_time as f64 / 1e9) / 1e6;
        println!(
            "{:>22} {:>9.1} µs {:>9.1} µs {:>14} {:>9.2}",
            pattern.name(),
            s.latencies.mean_us,
            s.latencies.p99_us,
            s.total_time.pretty(),
            mb_s
        );
    }
    println!("\n(all patterns converge near the ring's shared 6.5 MB/s: every packet");
    println!(" crosses every link, so spatial locality buys nothing and a hotspot is");
    println!(" no worse than uniform — the defining contrast with a switched fabric)");
}
