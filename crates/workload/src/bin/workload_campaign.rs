#![forbid(unsafe_code)]

//! `workload-campaign` — run the workload campaign matrix and emit the
//! capacity report.
//!
//! ```text
//! workload-campaign [--quick]
//! workload-campaign --check PATH
//! ```
//!
//! With `--check`, validates an existing report against the versioned
//! schema and exits. Otherwise walks the matrix through
//! [`obs::campaign`] — which narrows it by `CAMPAIGN_KIND` / `_SEED` /
//! `_SIZE` / `_LOAD`, writes the report to `CAMPAIGN_REPORT` (default
//! `workload_campaign.json`), prints the 5 wall-clock-slowest cells, and
//! fails on a `CAMPAIGN_CELL_BUDGET_MS` overrun or any invariant
//! violation — and prints the capacity digest.

use obs::campaign::Campaign;
use workload::{cells, to_report, CampaignCell};

const CAMPAIGN: Campaign = Campaign {
    name: "workload_campaign",
    command: "cargo run --release -p workload --bin workload-campaign",
    default_report: "workload_campaign.json",
};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut check_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: workload-campaign [--quick] | --check PATH"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        match obs::report::check_file(&path) {
            Ok(verdict) => println!("{verdict}"),
            Err(complaint) => {
                eprintln!("{complaint}");
                std::process::exit(1);
            }
        }
        return;
    }

    let generated_by = if quick {
        "workload-campaign --quick"
    } else {
        "workload-campaign"
    };
    CAMPAIGN.run(cells(quick), CampaignCell::run, |walk| {
        let report = to_report(walk.cells.iter().map(|r| &r.cell), generated_by);
        let json = report.validated_json().unwrap_or_else(|e| panic!("{e}"));
        println!("capacity at each scenario's p999 target:");
        for s in &report.capacity {
            println!(
                "  {:>16} size={:<4} target p999 {:>6.0}us: max sustainable {:>8.0} req/s (x{})",
                s.scenario, s.size, s.p999_target_us, s.max_sustainable_hz, s.max_sustainable_mult
            );
        }
        json
    });
}
