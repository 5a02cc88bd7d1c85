//! Exporting a Chrome trace of one instrumented 4-node `MPI_Bcast`:
//! enable the `obs` recorder, run the collective, attribute per-layer
//! self time, and write `trace_event` JSON you can load in Perfetto
//! (<https://ui.perfetto.dev>) or `about://tracing`.
//!
//! Run with: `cargo run --release --example trace_export`

use scramnet_cluster::des::obs;
use scramnet_cluster::des::{ms, us, Simulation, Time, TimeExt};
use scramnet_cluster::smpi::MpiWorld;

const RANKS: usize = 4;
const PAYLOAD: usize = 256;
const OUT: &str = "target/mpi_bcast_trace.json";

fn main() {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), RANKS);
    let align: Time = ms(5);
    // Arm the recorder just before the timed broadcast so the trace
    // holds exactly one collective, not the warm-up.
    let rec = sim.recorder_arc();
    sim.spawn("obs-arm", move |ctx| {
        ctx.wait_until(align - us(1));
        rec.enable();
    });

    let mut ranks: Vec<_> = (0..RANKS)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                let warm = (rank == 0).then(|| vec![0u8; 4]);
                let _ = mpi.bcast(ctx, &comm, 0, warm.as_deref());
                ctx.wait_until(align);
                let data = (rank == 0).then(|| vec![0xEEu8; PAYLOAD]);
                let out = mpi.bcast(ctx, &comm, 0, data.as_deref());
                assert_eq!(out.len(), PAYLOAD);
                ctx.now()
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let events = sim.recorder().take_events();
    println!(
        "{PAYLOAD}-byte MPI_Bcast over {RANKS} nodes: {} — {} obs events",
        (ranks
            .iter_mut()
            .filter_map(|r| r.take())
            .max()
            .expect("a rank returned")
            - align)
            .pretty(),
        events.len()
    );

    // Per-layer self time: where did the microseconds go?
    let breakdown = obs::attribute(&events);
    println!("\nper-layer self time (summed over all nodes):");
    for (layer, self_us) in breakdown.rows_us() {
        println!("  {:<8} {self_us:>8.1} µs", layer.name());
    }

    // Hardware counters recorded along the way.
    let mut per_counter: Vec<(&str, u64)> = Vec::new();
    for ev in &events {
        if let obs::Event::Count { name, delta, .. } = ev {
            match per_counter.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += delta,
                None => per_counter.push((name, *delta)),
            }
        }
    }
    per_counter.sort_unstable();
    println!("\ncounters:");
    for (name, total) in per_counter {
        println!("  {name:<22} {total:>8}");
    }

    let trace = obs::chrome_trace_json(&events);
    // Trace outputs are build artifacts: they go under target/, never
    // into the repo root (which exists even when running from a clean
    // checkout, since cargo creates it to build the example).
    std::fs::create_dir_all("target").expect("create output dir");
    std::fs::write(OUT, trace).expect("write trace");
    println!("\nChrome trace written to {OUT} — load it in https://ui.perfetto.dev");
}
