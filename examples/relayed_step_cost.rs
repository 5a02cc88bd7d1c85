//! What one relayed step costs the host.
//!
//! A process asleep in a poll cycle (`ProcCtx::scan_until`) is not woken
//! for its steps: the dispatch loop walks each one on its behalf, a
//! `Resume` popped from the pending queue and, unless it is still the
//! next entry, pushed back one step later (`RunReport::relayed` counts
//! those). That is most of the host's work on `mpi_collectives`, where
//! every rank of a collective polls its flag words at once. Here `n`
//! processes each sleep in a cycle on a word nobody writes, each with a
//! lead of its own length, so their rounds drift against each other and
//! a push lands anywhere in the queue, as on the benchmark; a guard ends
//! each cycle at its first round end past the run's end. The example
//! prints host nanoseconds per relayed step at 4, 16 and 64 processes,
//! each the median of several runs, with the run's exact dispatch and
//! relayed counts.
//!
//! The repo benchmark pins itself to one CPU; pin this the same way:
//!
//! ```sh
//! taskset -c 1 cargo run --release --example relayed_step_cost
//! ```

use std::sync::Arc;
use std::time::Instant;

use scramnet_cluster::des::{RoundGuard, Sample, Simulation, Time};

/// Runs per process count; the median is printed.
const RUNS: usize = 15;
/// Own time and stall of the one look a round takes, ns.
const CPU: Time = 50;
const STALL: Time = 250;
/// Process count, then the run's exact dispatches and relayed steps.
const WORLDS: [(u64, u64, u64); 3] = [
    (4, 206_491, 206_483),
    (16, 225_759, 225_727),
    (64, 242_337, 242_209),
];

/// A word nobody writes: every look sees the zero it expects.
struct Unwritten;

impl Sample for Unwritten {
    fn sample(&self, _addr: usize) -> u32 {
        0
    }
}

fn main() {
    println!("processes  dispatches  relayed  host ns/relayed step (median of {RUNS})");
    for (n, want_dispatches, want_relayed) in WORLDS {
        // About 270 k relayed steps a run, whatever the process count.
        let end: Time = 64_000_000 / n;
        let mut ns = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let mut sim = Simulation::new();
            let word = Arc::new(Unwritten);
            let guard: RoundGuard = Arc::new(move |now| now >= end);
            for p in 0..n {
                let (word, guard) = (Arc::clone(&word), Arc::clone(&guard));
                // Leads of 200 to 599 ns, distinct for every process.
                let lead = 200 + p * 397 % 400;
                sim.spawn(format!("p{p}"), move |ctx| {
                    let (_, hit) = ctx.scan_until(&word, lead, CPU, STALL, [(0, 0)], Some(&guard));
                    assert!(hit.is_none(), "nobody writes the word");
                });
            }
            let start = Instant::now();
            let report = sim.run();
            let elapsed = start.elapsed().as_nanos() as f64;
            assert!(report.is_clean());
            assert_eq!(
                (report.dispatches, report.relayed),
                (want_dispatches, want_relayed),
                "{n} processes"
            );
            ns.push(elapsed / report.relayed as f64);
        }
        ns.sort_by(f64::total_cmp);
        println!(
            "{n:>9}  {want_dispatches:>10}  {want_relayed:>7}  {:>8.1}",
            ns[RUNS / 2]
        );
    }
}
