//! The repo benchmark. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! benchmark [--seed N] [--seconds S]                        all workloads, both passes
//! benchmark --list                                          workloads and metrics
//! benchmark compare A.json B.json                           judge B against A
//! ```

mod compare;
mod drivers;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::Workload;
use workloads::{Budget, Calibration};

const DEFAULT_SEED: u64 = 1999;
const DEFAULT_SECONDS: f64 = 10.0;
/// A run measures at least this many repetitions, whatever its budget.
const MIN_REPS: usize = 3;
/// Marks the line of a single run that carries what `results.json` keeps
/// beyond the final result line: quartiles, fingerprint, anchors.
const DETAIL_TAG: &str = "DETAIL ";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn usage() -> String {
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--no-pin]\n       \
     benchmark --list\n       benchmark compare A.json B.json"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        pin: true,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            // Only to reproduce the unpinned swing the README records.
            "--no-pin" => args.pin = false,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// `benchmark/out/`, next to this package's manifest when that directory
/// exists where the binary runs (it does in a checkout), else under the
/// current directory.
fn out_dir() -> PathBuf {
    let pkg = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = if pkg.is_dir() {
        pkg.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    };
    base.join("out")
}

struct HostFacts {
    nproc: usize,
    cpu: Option<usize>,
}

fn metric_entry(value: f64, unit: &str) -> Json {
    json::obj([("value", json::num(value)), ("unit", json::string(unit))])
}

fn print_calibration(c: &Calibration) {
    println!(
        "  des chain probe {:.1} -> {:.1} ns/dispatch{}",
        c.chain_before_ns,
        c.chain_after_ns,
        if c.noisy() {
            "  NOISY: the host changed speed by more than 10% during this run"
        } else {
            ""
        }
    );
}

/// What one pass hands to the frame that prints the last two lines.
struct PassOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The result line's `metrics` object, in spec order.
    metrics: Vec<(String, Json)>,
    /// The pass's part of this workload's `results.json` entry.
    detail: Vec<(&'static str, Json)>,
}

/// The untraced pass: every end-to-end metric, with the summary over
/// repetitions behind each value, and the anchors.
fn end_to_end_pass(w: Workload, seed: u64, budget: Budget) -> PassOutput {
    let e = workloads::measure_end_to_end(w, seed, budget);
    println!(
        "  {} repetitions, fingerprint {:016x}",
        e.reps.len(),
        e.fingerprint()
    );
    print_calibration(&e.calibration);
    let (mut metrics, mut detailed) = (Vec::new(), Vec::new());
    for (m, (name, value, s)) in spec::end_to_end().iter().zip(e.metrics()) {
        let how = if s.n > 1 {
            format!(
                "{} repetitions: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            )
        } else if m.exact {
            "exact".to_string()
        } else {
            "one reading".to_string()
        };
        println!("  {name:<20} {value:>16.6} {:<7} ({how})", m.unit);
        metrics.push((name.clone(), metric_entry(value, m.unit)));
        detailed.push((
            name,
            json::obj([
                ("value", json::num(value)),
                ("unit", json::string(m.unit)),
                ("min", json::num(s.min)),
                ("q1", json::num(s.q1)),
                ("median", json::num(s.median)),
                ("q3", json::num(s.q3)),
                ("max", json::num(s.max)),
                ("n", json::num(s.n as f64)),
            ]),
        ));
    }
    let mut anchors = Vec::new();
    for a in &e.anchors {
        println!(
            "  anchor: {:<34} paper {:>6.2} measured {:>8.3} ({:+.2}%)",
            a.what,
            a.paper,
            a.measured,
            a.dev_pct()
        );
        anchors.push(json::obj([
            ("what", json::string(a.what)),
            ("paper", json::num(a.paper)),
            ("measured", json::num(a.measured)),
            ("dev_pct", json::num(a.dev_pct())),
        ]));
    }
    if e.fingerprint_mismatch {
        println!("  FAILED: repetitions of identical work gave different simulated results");
    }
    PassOutput {
        correct: e.correct(),
        attempted: e.attempted(),
        failed: e.failed(),
        metrics,
        detail: vec![
            (
                "fingerprint",
                json::string(format!("{:016x}", e.fingerprint())),
            ),
            ("reps", json::num(e.reps.len() as f64)),
            ("noisy", Json::Bool(e.calibration.noisy())),
            ("end_to_end", json::obj(detailed)),
            ("anchors", Json::Arr(anchors)),
        ],
    }
}

/// The traced pass: every per-layer metric, and the Chrome trace file.
fn traced_pass(w: Workload, seed: u64, budget: Budget, cpu: f64) -> Result<PassOutput, String> {
    let t = workloads::measure_traced(w, seed, budget, cpu);
    println!(
        "  {} untraced + {} traced repetitions",
        t.plain.len(),
        t.traced.len()
    );
    print_calibration(&t.calibration);
    let (values, notes) = t.metrics();
    let mut metrics = Vec::new();
    for (m, (name, v)) in spec::per_layer().iter().zip(values) {
        println!("  {name:<34} {v:>16.4} {}", m.unit);
        metrics.push((name, metric_entry(v, m.unit)));
    }
    for n in &notes {
        println!("  note: {n}");
    }
    let path = out_dir().join(format!("{}.trace.json", w.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, t.chrome_trace_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  trace: {}", path.display());
    Ok(PassOutput {
        correct: t.correct(),
        attempted: t.attempted(),
        failed: t.failed(),
        detail: vec![
            ("noisy", Json::Bool(t.calibration.noisy())),
            ("per_layer", json::obj(metrics.clone())),
        ],
        metrics,
    })
}

/// One run of one workload, as the benchmark contract has it: human
/// lines, then the detail line, then the result object as the last line.
fn single_run(args: &Args, w: Workload, facts: &HostFacts) -> Result<bool, String> {
    let budget = Budget {
        seconds: args.seconds,
        min_reps: MIN_REPS,
    };
    println!(
        "benchmark: workload {} seed {} seconds {} trace {} | cpu {} of {} allowed, loadavg {:.2}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        facts
            .cpu
            .map_or("unpinned".to_string(), |c| format!("{c} (pinned)")),
        facts.nproc,
        host::loadavg(),
    );
    let pass = if args.trace {
        let cpu = facts.cpu.map_or(-1.0, |c| c as f64);
        traced_pass(w, args.seed, budget, cpu)?
    } else {
        end_to_end_pass(w, args.seed, budget)
    };
    if pass.failed > 0 {
        println!(
            "  FAILED: {} of {} ops failed an output check",
            pass.failed, pass.attempted
        );
    }
    println!("{DETAIL_TAG}{}", json::to_string(&json::obj(pass.detail)));
    println!(
        "{}",
        json::to_string(&json::obj([
            ("correct", Json::Bool(pass.correct)),
            ("attempted", json::num(pass.attempted as f64)),
            ("failed", json::num(pass.failed as f64)),
            ("metrics", json::obj(pass.metrics)),
        ]))
    );
    Ok(pass.correct)
}

/// Run one pass of one workload in a fresh child process (its own peak
/// RSS, its own pinning), echo its output, and return its detail and
/// result objects.
fn child_run(args: &Args, w: Workload, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if !args.pin {
        cmd.arg("--no-pin");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_TAG))
        .ok_or(format!("{}: child printed no detail line", w.name()))?;
    for l in &lines {
        println!("{l}");
    }
    let result = json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let detail = json::parse(detail).map_err(|e| format!("{}: detail line: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", w.name(), out.status));
    }
    Ok((detail, result))
}

/// All workloads: the untraced pass for the end-to-end metrics, then the
/// traced pass for the per-layer ones; everything lands in
/// `out/results.json`.
fn run_all(args: &Args, nproc: usize) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let (e2e, e2e_result) = child_run(args, w, false)?;
        let (layers, layers_result) = child_run(args, w, true)?;
        let field = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        let correct = [&e2e_result, &layers_result]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let noisy = [&e2e, &layers]
            .iter()
            .any(|d| d.get("noisy") == Some(&Json::Bool(true)));
        entries.push((
            w.name(),
            json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", field(&e2e_result, "attempted")),
                ("failed", field(&e2e_result, "failed")),
                ("fingerprint", field(&e2e, "fingerprint")),
                ("reps", field(&e2e, "reps")),
                ("noisy", Json::Bool(noisy)),
                ("end_to_end", field(&e2e, "end_to_end")),
                ("anchors", field(&e2e, "anchors")),
                ("per_layer", field(&layers, "per_layer")),
            ]),
        ));
    }
    let results = json::obj([
        ("schema", json::num(1.0)),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        (
            "host",
            json::obj([
                ("nproc", json::num(nproc as f64)),
                ("pinned", Json::Bool(args.pin)),
                ("loadavg", json::num(host::loadavg())),
            ]),
        ),
        ("workloads", json::obj(entries)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json::to_string(&results) + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", spec::list());
            Ok(true)
        }
        Some("compare") => compare::run(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| {
            let nproc = host::allowed_cpus().len();
            match args.workload {
                Some(w) => {
                    // Before any thread exists, so every simulated
                    // process inherits the mask. A host that refuses
                    // the call still gets a (noisier) measurement.
                    let cpu = if args.pin {
                        host::pin_to_highest_allowed_cpu()
                            .map_err(|e| eprintln!("benchmark: running unpinned: {e}"))
                            .ok()
                    } else {
                        None
                    };
                    single_run(&args, w, &HostFacts { nproc, cpu })
                }
                // Each child pins itself.
                None => run_all(&args, nproc),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
