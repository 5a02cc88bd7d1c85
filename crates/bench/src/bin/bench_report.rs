#![forbid(unsafe_code)]

//! `bench-report` — the machine-readable latency report.
//!
//! Runs the paper's core microbenchmarks with the `obs` recorder, then
//! writes a schema-validated `BENCH_summary.json`: paper anchors,
//! latency sweeps, the MPI-over-BBP layering constant (≈37.5 µs), a
//! per-layer self-time attribution of a 4-node `MPI_Bcast`, and the
//! per-message lifecycle waterfalls of that broadcast (send-enter →
//! descriptor → ring → flag → match → deliver). Each helper it calls
//! prints a result and returns it as a report row; the report is the
//! value `run` fills in.
//!
//! ```text
//! bench-report [--quick] [--out PATH] [--trace PATH]
//! bench-report --check PATH
//! ```
//!
//! - `--quick`: smaller size sweep (the CI configuration).
//! - `--out PATH`: where to write the JSON summary
//!   (default `BENCH_summary.json`).
//! - `--trace PATH`: also write a Chrome `trace_event` JSON of the
//!   instrumented 4-node broadcast (load in Perfetto).
//! - `--check PATH`: validate an existing summary against the schema
//!   and exit (runs no benchmarks).
//!
//! Everything it reports is virtual time; host time is the repo
//! benchmark's job (`benchmark/README.md`). Exits non-zero if the report
//! fails its own schema validation or the measured layering constant
//! deviates from the paper by more than 20%.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::{
    bbp_pingpong, mpi_barrier_run, mpi_bcast_events_telemetry, mpi_one_way_us, mpi_pingpong,
    one_way_us, print_table, report, report_anchor, MpiNet, Series,
};
use des::Time;
use obs::report::{BenchReport, MessageRow, PAPER_LAYERING_US};
use smpi::CollectiveImpl;

/// Maximum tolerated deviation of the layering constant, percent.
const LAYERING_TOLERANCE_PCT: f64 = 20.0;

const USAGE: &str = "usage: bench-report [--quick] [--out PATH] [--trace PATH] | --check PATH";

struct Args {
    quick: bool,
    out: String,
    trace: Option<String>,
    check: Option<String>,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: "BENCH_summary.json".to_string(),
        trace: None,
        check: None,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--check" => args.check = Some(it.next().ok_or("--check needs a path")?),
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Reconstruct the instrumented broadcast's per-message lifecycle
/// waterfalls, print each checkpoint relative to the message's
/// send-enter, and return them as report rows.
fn print_waterfalls(events: &[obs::Event], bcast_len: usize) -> Vec<MessageRow> {
    let waterfalls = obs::message_waterfalls(events);
    println!("\n== per-message waterfalls: MPI_Bcast {bcast_len} B on 4 nodes ==");
    if waterfalls.is_empty() {
        println!("  (no traced messages in the event stream)");
    }
    for w in &waterfalls {
        println!(
            "  message {:#012x} from node {}: {:.1} µs, {} checkpoints",
            w.id,
            w.src,
            w.total_ns() as f64 / 1000.0,
            w.steps.len()
        );
        let base = w.steps.first().map_or(0, |s| s.time);
        for s in &w.steps {
            println!(
                "    {:>8.2} µs  node {}  {}",
                s.time.saturating_sub(base) as f64 / 1000.0,
                s.node,
                s.stage.name()
            );
        }
    }
    waterfalls.iter().map(report::message).collect()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(complaint) => {
            eprintln!("{complaint}");
            ExitCode::FAILURE
        }
    }
}

/// Everything `main` does; an `Err` is the line to print on the way out
/// with a failing exit code.
fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.help {
        println!("{USAGE}");
        return Ok(());
    }
    if let Some(path) = &args.check {
        return obs::report::check_file(path).map(|verdict| println!("{verdict}"));
    }
    let mut rep = BenchReport {
        generated_by: if args.quick {
            "bench-report --quick"
        } else {
            "bench-report"
        }
        .to_string(),
        ..BenchReport::default()
    };

    // The SCRAMNet ping-pongs, one simulation per (transport, size):
    // the anchors, the layering constant and the sweep table all read
    // these round trips.
    let sizes: &[usize] = if args.quick {
        &[0, 4, 64, 256, 1024]
    } else {
        &[0, 4, 16, 64, 256, 1024, 4096, 8192]
    };
    let swept = |run: &dyn Fn(usize) -> Vec<Time>| -> BTreeMap<usize, Vec<Time>> {
        sizes.iter().map(|&n| (n, run(n))).collect()
    };
    let bbp_trips = swept(&|n| bbp_pingpong(n, 4));
    let mpi_trips = swept(&|n| mpi_pingpong(MpiNet::Scramnet, n));
    let bbp_us = |n: usize| one_way_us(&bbp_trips[&n]);
    let mpi_us = |n: usize| one_way_us(&mpi_trips[&n]);

    // Paper anchors (Moorthy et al., IPPS 1999, Figures 1-3).
    rep.anchors = vec![
        report_anchor("BBP one-way 0 B", 6.5, bbp_us(0)),
        report_anchor("BBP one-way 4 B", 7.8, bbp_us(4)),
        report_anchor("MPI one-way 0 B (SCRAMNet)", 44.0, mpi_us(0)),
        report_anchor("MPI one-way 4 B (SCRAMNet)", 49.0, mpi_us(4)),
    ];

    // The layering constant: what the MPICH stack adds on top of raw BBP.
    let layering = mpi_us(0) - bbp_us(0);
    rep.layering = Some(report::layering(layering));
    println!(
        "\nMPI-over-BBP layering: {layering:.1} µs measured vs {PAPER_LAYERING_US:.1} µs paper \
         ({:+.0}%)",
        (layering - PAPER_LAYERING_US) / PAPER_LAYERING_US * 100.0
    );

    // What the layering costs the host: each software charge is a
    // scheduler dispatch, but only a stall wakes a process thread.
    let (_, barrier) = mpi_barrier_run(MpiNet::Scramnet, 16, CollectiveImpl::Native);
    println!(
        "MPI_Barrier x2 on 16 nodes: {} dispatches, {} relayed for a sleeping process, \
         {} thread hand-offs",
        barrier.dispatches, barrier.relayed, barrier.handoffs
    );

    // Latency sweeps.
    let sweeps = [
        Series::sweep("SCRAMNet (BBP)", sizes, bbp_us),
        Series::sweep("SCRAMNet (MPI)", sizes, mpi_us),
        Series::sweep("Fast Ethernet (MPI)", sizes, |n| {
            mpi_one_way_us(MpiNet::FastEthernet, n)
        }),
    ];
    rep.tables.push(print_table("one-way latency", &sweeps));
    let fe_overtakes = report::crossover(&sweeps[1], &sweeps[2]);
    match fe_overtakes.at_bytes {
        Some(b) => println!("Fast Ethernet overtakes SCRAMNet MPI at {b} B"),
        None => println!("Fast Ethernet never overtakes SCRAMNet MPI in this sweep"),
    }
    rep.crossovers.push(fe_overtakes);

    // Per-layer attribution of a 4-node MPI_Bcast, with continuous
    // telemetry for the Chrome trace's counter tracks.
    let bcast_len = if args.quick { 256 } else { 1024 };
    let (bcast_us, events, series) =
        mpi_bcast_events_telemetry(MpiNet::Scramnet, bcast_len, 4, CollectiveImpl::Native);
    let breakdown = obs::attribute(&events);
    rep.layers = report::layers(&breakdown);
    println!("\n== MPI_Bcast {bcast_len} B on 4 nodes: {bcast_us:.1} µs, per-layer self time ==");
    for (layer, self_us) in breakdown.rows_us() {
        println!("  {:<8} {self_us:>8.1} µs", layer.name());
    }
    if breakdown.unbalanced > 0 {
        eprintln!(
            "warning: {} spans still open when the trace ended",
            breakdown.unbalanced
        );
    }
    if let Some(path) = &args.trace {
        let trace = obs::chrome_trace_json_with_telemetry(&events, &series);
        std::fs::write(path, trace).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!(
            "Chrome trace written to {path} ({} gauge counter tracks)",
            series.len()
        );
    }
    rep.messages = print_waterfalls(&events, bcast_len);

    // Write and self-validate the summary.
    std::fs::write(&args.out, rep.validated_json()?)
        .map_err(|e| format!("failed to write {}: {e}", args.out))?;
    println!("\nReport written to {}", args.out);

    let dev_pct = ((layering - PAPER_LAYERING_US) / PAPER_LAYERING_US * 100.0).abs();
    if dev_pct > LAYERING_TOLERANCE_PCT {
        return Err(format!(
            "layering constant off by {dev_pct:.0}% (> {LAYERING_TOLERANCE_PCT:.0}% tolerance)"
        ));
    }
    Ok(())
}
