//! What one thread hand-off costs the host.
//!
//! A simulated process is an OS thread, and the baton moves between
//! threads whenever another process is due first. Here `n` processes each
//! `advance(1)` in turn, so every dispatch grants the baton to another
//! process's thread. The example prints host nanoseconds per hand-off at
//! 2, 4 and 16 processes, each the median of several runs, with the
//! run's exact dispatch and hand-off counts.
//!
//! The repo benchmark pins itself to one CPU, and a hand-off costs
//! different things pinned and unpinned; pin this the same way:
//!
//! ```sh
//! taskset -c 1 cargo run --release --example handoff_cost
//! ```

use std::time::Instant;

use scramnet_cluster::des::Simulation;

/// Hand-offs per run, whatever the process count.
const HANDOFFS: u64 = 40_000;
/// Runs per process count; the median is printed.
const RUNS: usize = 7;

fn main() {
    println!("processes  dispatches  hand-offs  host ns/hand-off (median of {RUNS})");
    for n in [2u64, 4, 16] {
        let steps = HANDOFFS / n;
        let mut ns = Vec::with_capacity(RUNS);
        let mut counts = None;
        for _ in 0..RUNS {
            let mut sim = Simulation::new();
            for p in 0..n {
                sim.spawn(format!("p{p}"), move |ctx| {
                    for _ in 0..steps {
                        ctx.advance(1);
                    }
                });
            }
            let start = Instant::now();
            let report = sim.run();
            let elapsed = start.elapsed().as_nanos() as f64;
            assert!(report.is_clean());
            // Every resume is another process's: a grant each, plus one
            // return to the caller per finished process.
            assert_eq!(report.dispatches, n * (steps + 1));
            assert_eq!(report.handoffs, n * (steps + 2));
            ns.push(elapsed / report.handoffs as f64);
            counts = Some((report.dispatches, report.handoffs));
        }
        ns.sort_by(f64::total_cmp);
        let (dispatches, handoffs) = counts.expect("at least one run");
        println!(
            "{n:>9}  {dispatches:>10}  {handoffs:>9}  {:>8.0}",
            ns[RUNS / 2]
        );
    }
}
