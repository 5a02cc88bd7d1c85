//! `workload-campaign` — run the workload campaign matrix and emit the
//! capacity report.
//!
//! ```text
//! workload-campaign [--quick] [--out PATH] [--cell-budget-ms N]
//! workload-campaign --check PATH
//! ```
//!
//! With `--check`, validates an existing report against the versioned
//! schema and exits. Otherwise runs the matrix (narrowed by the
//! `WORKLOAD_KIND`/`WORKLOAD_SEED`/`WORKLOAD_SIZE`/`WORKLOAD_LOAD`
//! repro environment, if set), writes the JSON report, prints the
//! capacity digest and the 5 wall-clock-slowest cells, and fails on any
//! invariant violation or per-cell budget overrun.

use workload::{run_campaign, CampaignConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut out_path = "workload_campaign.json".to_string();
    let mut check_path: Option<String> = None;
    let mut cell_budget_ms: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            "--cell-budget-ms" => {
                cell_budget_ms = Some(
                    args.next()
                        .expect("--cell-budget-ms needs a number")
                        .parse()
                        .expect("--cell-budget-ms must be a number of milliseconds"),
                )
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: workload-campaign \
                     [--quick] [--out PATH] [--cell-budget-ms N] | --check PATH"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        match obs::report::validate_json(&text) {
            Ok(()) => println!("{path}: schema valid"),
            Err(e) => {
                eprintln!("{path}: schema INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let cfg = if quick {
        CampaignConfig::quick()
    } else {
        CampaignConfig::full()
    }
    .filtered_by_env();
    let result = run_campaign(&cfg);
    assert!(
        !result.cells.is_empty(),
        "the WORKLOAD_KIND/WORKLOAD_SEED/WORKLOAD_SIZE/WORKLOAD_LOAD filters matched no cell"
    );

    let report = result.to_report(if quick {
        "workload-campaign --quick"
    } else {
        "workload-campaign"
    });
    let json = report.to_json();
    obs::report::validate_json(&json).expect("generated report must self-validate");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write report {out_path}: {e}"));

    println!("\ncapacity at each scenario's p999 target:");
    for s in &report.capacity {
        println!(
            "  {:>16} size={:<4} target p999 {:>6.0}us: max sustainable {:>8.0} req/s (x{})",
            s.scenario, s.size, s.p999_target_us, s.max_sustainable_hz, s.max_sustainable_mult
        );
    }

    println!("\nslowest cells (wall clock):");
    for c in result.slowest(5) {
        println!(
            "  {:>8.1} ms  [{} seed={} size={} x{}]",
            c.wall_ms,
            c.kind.name(),
            c.seed,
            c.size,
            c.mult
        );
    }
    println!(
        "\nworkload campaign: {} cells, {} violating; report at {out_path}",
        result.cells.len(),
        result.violated().len()
    );

    if let Some(budget) = cell_budget_ms {
        let over: Vec<_> = result.cells.iter().filter(|c| c.wall_ms > budget).collect();
        if !over.is_empty() {
            for c in &over {
                eprintln!(
                    "cell over budget: {:.1} ms > {budget} ms [{} seed={} size={} x{}]",
                    c.wall_ms,
                    c.kind.name(),
                    c.seed,
                    c.size,
                    c.mult
                );
            }
            eprintln!(
                "{} cells exceeded the {budget} ms per-cell wall-clock budget",
                over.len()
            );
            std::process::exit(1);
        }
    }

    if let Some(digest) = result.violation_digest() {
        eprintln!("{digest}");
        std::process::exit(1);
    }
}
