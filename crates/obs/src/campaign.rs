//! The campaign runner: one walk for every seed-sampled matrix.
//!
//! A campaign is a named matrix of cells, each pinned by its [`Coord`]
//! (kind and seed, optionally a payload size and a load multiplier), and
//! a function that runs one cell and judges it. What a cell does is the
//! campaign's; everything around it is [`Campaign::run`]'s, the same for
//! the fault, chaos, partition and workload matrices: narrowing by the
//! `CAMPAIGN_*` filters (`Settings`; one that cannot select a cell is
//! an error), the per-cell clock, the report, **then** the per-cell
//! budget and the violation digest — so a red run always leaves its
//! report behind — and per violating cell one repro line: its own
//! coordinates as `CAMPAIGN_*` assignments in front of the campaign's
//! command, which pasted into a shell runs exactly that cell.

use std::time::Instant;

use crate::json::Json;

/// One cell's coordinates in a campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Coord {
    /// Scenario family, as reports, filters and repro lines spell it.
    pub kind: &'static str,
    /// Seed every random choice of the cell derives from.
    pub seed: u64,
    /// Payload size in bytes, in matrices that sweep it.
    pub size: Option<usize>,
    /// Load multiplier, in matrices that sweep it.
    pub load: Option<f64>,
}

impl Coord {
    /// Each axis the cell has as `{prefix}AXIS=value`, space-separated:
    /// bare it is the cell's name in logs and digests, prefixed
    /// `CAMPAIGN_` the environment that selects exactly this cell.
    fn spell(&self, prefix: &str) -> String {
        let mut s = format!("{prefix}KIND={} {prefix}SEED={}", self.kind, self.seed);
        if let Some(size) = self.size {
            s += &format!(" {prefix}SIZE={size}");
        }
        if let Some(load) = self.load {
            s += &format!(" {prefix}LOAD={load}");
        }
        s
    }
}

/// The full matrix over the given axes, kind-major (kind, then seed,
/// then size, then load). An empty `sizes` or `loads` means the matrix
/// does not have that axis.
pub fn matrix(
    kinds: impl IntoIterator<Item = &'static str>,
    seeds: &[u64],
    sizes: &[usize],
    loads: &[f64],
) -> Vec<Coord> {
    fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
        if values.is_empty() {
            vec![None]
        } else {
            values.iter().copied().map(Some).collect()
        }
    }
    let (sizes, loads) = (axis(sizes), axis(loads));
    let mut cells = Vec::new();
    for kind in kinds {
        for &seed in seeds {
            for &size in &sizes {
                cells.extend(loads.iter().map(|&load| Coord {
                    kind,
                    seed,
                    size,
                    load,
                }));
            }
        }
    }
    cells
}

/// Everything a campaign run can be told from outside, one field per
/// settable name: `CAMPAIGN_KIND`, `CAMPAIGN_SEED`, `CAMPAIGN_SIZE` and
/// `CAMPAIGN_LOAD` each keep only the cells that match, `CAMPAIGN_REPORT`
/// is where the report goes, and `CAMPAIGN_CELL_BUDGET_MS` is the
/// host-time ceiling per cell.
#[derive(Debug)]
struct Settings {
    kind: Option<String>,
    seed: Option<u64>,
    size: Option<usize>,
    load: Option<f64>,
    report: Option<String>,
    cell_budget_ms: Option<f64>,
}

impl Settings {
    /// Read the six variables through `var` (the process environment in
    /// production, a table in tests).
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(
            var: &impl Fn(&str) -> Option<String>,
            name: &str,
            what: &str,
        ) -> Result<Option<T>, String> {
            var(name)
                .map(|raw| {
                    raw.parse()
                        .map_err(|_| format!("{name} must be {what}, not '{raw}'"))
                })
                .transpose()
        }
        Ok(Settings {
            kind: var("CAMPAIGN_KIND"),
            seed: number(&var, "CAMPAIGN_SEED", "an unsigned integer")?,
            size: number(&var, "CAMPAIGN_SIZE", "an unsigned integer of bytes")?,
            load: number(&var, "CAMPAIGN_LOAD", "a load multiplier")?,
            report: var("CAMPAIGN_REPORT"),
            cell_budget_ms: number(&var, "CAMPAIGN_CELL_BUDGET_MS", "a number of milliseconds")?,
        })
    }

    /// A filter on an axis the cell does not have excludes the cell.
    fn selects(&self, c: &Coord) -> bool {
        self.kind.as_deref().is_none_or(|k| k == c.kind)
            && self.seed.is_none_or(|s| s == c.seed)
            && self.size.is_none_or(|s| Some(s) == c.size)
            && self
                .load
                .is_none_or(|l| c.load.is_some_and(|x| (x - l).abs() < 1e-9))
    }
}

/// What the runner needs from a finished cell.
pub trait Cell {
    /// What the cell's judge found; empty when the cell is healthy.
    fn violations(&self) -> &[String];

    /// The cell's own members of its row in [`Walk::document`], after
    /// the coordinates and before `violations` and `repro`.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }
}

/// A campaign's identity: what it is called, how one runs it, and where
/// its report goes when `CAMPAIGN_REPORT` does not say.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Name in logs and digests.
    pub name: &'static str,
    /// The shell command that runs the campaign (the tail of every
    /// repro line).
    pub command: &'static str,
    /// Report path when `CAMPAIGN_REPORT` is unset.
    pub default_report: &'static str,
}

/// One executed cell.
#[derive(Debug)]
pub struct Ran<C> {
    /// Where in the matrix.
    pub coord: Coord,
    /// What `run_cell` returned.
    pub cell: C,
    /// Host time the cell took, milliseconds.
    pub wall_ms: f64,
}

/// An executed (possibly narrowed) matrix.
#[derive(Debug)]
pub struct Walk<C> {
    campaign: Campaign,
    /// The cells that ran, matrix order.
    pub cells: Vec<Ran<C>>,
    /// Whether every cell of the matrix ran (no filter narrowed it):
    /// campaign-wide expectations only hold then.
    pub full: bool,
}

impl Campaign {
    /// Run `matrix` under the settings the process environment names
    /// (the `CAMPAIGN_*` variables), panicking with the message of a
    /// filter that matches nothing, a report that cannot be written, a
    /// cell over its budget or a violating cell.
    pub fn run<C: Cell>(
        &self,
        matrix: Vec<Coord>,
        run_cell: impl FnMut(&Coord) -> C,
        document: impl FnOnce(&Walk<C>) -> String,
    ) -> Walk<C> {
        Settings::parse(|name| std::env::var(name).ok())
            .and_then(|settings| self.try_run(&settings, matrix, run_cell, document))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run every cell of `matrix` that `settings` selects, in order,
    /// timing each and printing the five slowest; write `document` of
    /// the walk as the report; then fail on cells over the budget and on
    /// violating cells — in that order, so the report exists whatever
    /// the verdict.
    fn try_run<C: Cell>(
        &self,
        settings: &Settings,
        matrix: Vec<Coord>,
        mut run_cell: impl FnMut(&Coord) -> C,
        document: impl FnOnce(&Walk<C>) -> String,
    ) -> Result<Walk<C>, String> {
        let name = self.name;
        if let Some(kind) = &settings.kind {
            if !matrix.iter().any(|c| c.kind == kind) {
                let mut kinds: Vec<&str> = matrix.iter().map(|c| c.kind).collect();
                kinds.dedup();
                let kinds = kinds.join(", ");
                return Err(format!(
                    "CAMPAIGN_KIND '{kind}' is not a kind of {name}: {kinds}"
                ));
            }
        }
        let total = matrix.len();
        let selected: Vec<Coord> = matrix.into_iter().filter(|c| settings.selects(c)).collect();
        if selected.is_empty() {
            return Err(format!(
                "the CAMPAIGN_KIND/SEED/SIZE/LOAD filters match no cell of {name}"
            ));
        }
        let full = selected.len() == total;
        let cells = selected
            .into_iter()
            .map(|coord| {
                let start = Instant::now();
                let cell = run_cell(&coord);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                Ran {
                    coord,
                    cell,
                    wall_ms,
                }
            })
            .collect();
        let walk = Walk {
            campaign: *self,
            cells,
            full,
        };

        let mut by_wall: Vec<&Ran<C>> = walk.cells.iter().collect();
        by_wall.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        println!("slowest cells (wall clock):");
        for r in by_wall.iter().take(5) {
            println!("{:>10.1} ms  [{}]", r.wall_ms, r.coord.spell(""));
        }

        let path = settings.report.as_deref().unwrap_or(self.default_report);
        std::fs::write(path, document(&walk))
            .map_err(|e| format!("cannot write report {path}: {e}"))?;
        let violating = walk.violating().count();
        println!(
            "{name}: {} cells, {violating} violating; report at {path}",
            walk.cells.len()
        );

        let mut failure = String::new();
        let budget = settings.cell_budget_ms.unwrap_or(f64::INFINITY);
        if by_wall[0].wall_ms > budget {
            failure += &format!("{name} cells over the {budget} ms wall-clock budget:\n");
            for r in by_wall.iter().take_while(|r| r.wall_ms > budget) {
                failure += &format!("{:>10.1} ms  [{}]\n", r.wall_ms, r.coord.spell(""));
            }
        }
        if violating > 0 {
            failure += &format!("{name} violations:\n");
            for r in walk.violating() {
                for v in r.cell.violations() {
                    failure += &format!("  [{}] {v}\n", r.coord.spell(""));
                }
                failure += &format!("    repro: {}\n", walk.repro(&r.coord));
            }
        }
        if failure.is_empty() {
            Ok(walk)
        } else {
            Err(failure)
        }
    }
}

impl<C: Cell> Walk<C> {
    /// The command line that reruns exactly `coord`.
    fn repro(&self, coord: &Coord) -> String {
        format!("{} {}", coord.spell("CAMPAIGN_"), self.campaign.command)
    }

    fn violating(&self) -> impl Iterator<Item = &Ran<C>> {
        self.cells
            .iter()
            .filter(|r| !r.cell.violations().is_empty())
    }

    /// The default report: one row per cell (coordinates, the cell's
    /// [`fields`](Cell::fields), `violations`, `repro`), the campaign's
    /// own `summary` members, then `total` and `violations` counts.
    pub fn document(&self, summary: impl IntoIterator<Item = (&'static str, Json)>) -> String {
        let row = |r: &Ran<C>| {
            let mut row = vec![
                ("kind", Json::from(r.coord.kind)),
                ("seed", r.coord.seed.into()),
            ];
            row.extend(r.coord.size.map(|s| ("size", s.into())));
            row.extend(r.coord.load.map(|l| ("load", l.into())));
            row.extend(r.cell.fields());
            let findings: Vec<&str> = r.cell.violations().iter().map(String::as_str).collect();
            row.push(("violations", findings.into()));
            row.push(("repro", self.repro(&r.coord).as_str().into()));
            Json::obj(row)
        };
        let mut doc = vec![("cells", Json::Arr(self.cells.iter().map(row).collect()))];
        doc.extend(summary);
        doc.push(("total", self.cells.len().into()));
        doc.push(("violations", self.violating().count().into()));
        Json::obj(doc).to_document()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A cell that violates, or dawdles, where told to.
    #[derive(Debug)]
    struct Probe {
        violations: Vec<String>,
        slept_ms: u64,
    }

    impl Cell for Probe {
        fn violations(&self) -> &[String] {
            &self.violations
        }
        fn fields(&self) -> Vec<(&'static str, Json)> {
            vec![("slept_ms", self.slept_ms.into())]
        }
    }

    const PROBE: Campaign = Campaign {
        name: "probe",
        command: "cargo test -p obs campaign",
        default_report: "unused.json",
    };

    fn at(kind: &'static str, seed: u64, size: usize, load: f64) -> Coord {
        Coord {
            kind,
            seed,
            size: Some(size),
            load: Some(load),
        }
    }

    /// Settings from a table instead of the (process-global) environment.
    fn settings(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::parse(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
    }

    /// A report path of this test's own under the system temp dir.
    fn temp_report(test: &str) -> String {
        let file = format!("obs_campaign_{test}_{}.json", std::process::id());
        std::env::temp_dir()
            .join(file)
            .to_string_lossy()
            .into_owned()
    }

    /// Run 2 kinds x 2 seeds x 2 sizes x 2 loads under `vars`; the cell
    /// at `bad` violates, the cell at `slow` takes 20 ms.
    fn run(
        vars: &[(&str, &str)],
        bad: Option<&Coord>,
        slow: Option<&Coord>,
    ) -> Result<Walk<Probe>, String> {
        let m = matrix(["calm", "storm"], &[1, 7], &[64, 512], &[0.5, 4.0]);
        let cell = |c: &Coord| {
            let slept_ms = if Some(c) == slow { 20 } else { 0 };
            std::thread::sleep(std::time::Duration::from_millis(slept_ms));
            let violations = Vec::from_iter((Some(c) == bad).then(|| "probe \"tripped\"".into()));
            Probe {
                violations,
                slept_ms,
            }
        };
        PROBE.try_run(&settings(vars)?, m, cell, |w| {
            w.document([("note", "kept".into())])
        })
    }

    #[test]
    fn a_filter_that_cannot_select_is_an_error_not_an_empty_pass() {
        for name in [
            "CAMPAIGN_SEED",
            "CAMPAIGN_SIZE",
            "CAMPAIGN_LOAD",
            "CAMPAIGN_CELL_BUDGET_MS",
        ] {
            let err = run(&[(name, "seven")], None, None).unwrap_err();
            assert!(err.contains(name) && err.contains("'seven'"), "{err}");
        }
        let err = run(&[("CAMPAIGN_KIND", "drizzle")], None, None).unwrap_err();
        assert!(
            err.contains("'drizzle'") && err.contains("calm, storm"),
            "{err}"
        );
        let err = run(&[("CAMPAIGN_SEED", "99")], None, None).unwrap_err();
        assert!(err.contains("match no cell of probe"), "{err}");
        // An axis the matrix does not have cannot be filtered on.
        let no_sizes = matrix(["calm"], &[1, 7], &[], &[]);
        assert_eq!(no_sizes.len(), 2);
        let size = settings(&[("CAMPAIGN_SIZE", "64")]).unwrap();
        let err = PROBE
            .try_run(
                &size,
                no_sizes,
                |_| -> Probe { unreachable!() },
                |_| unreachable!(),
            )
            .unwrap_err();
        assert!(err.contains("match no cell"), "{err}");
    }

    #[test]
    fn the_walk_is_kind_major_and_a_filter_narrows_its_own_axis() {
        let path = temp_report("filters");
        let ran = |vars: &[(&str, &str)]| {
            let vars = [vars, &[("CAMPAIGN_REPORT", path.as_str())]].concat();
            run(&vars, None, None).unwrap()
        };
        let all = ran(&[]);
        assert!(all.full);
        let order: Vec<&Coord> = all.cells.iter().map(|r| &r.coord).collect();
        assert_eq!(order.len(), 16);
        assert_eq!(order[1], &at("calm", 1, 64, 4.0));
        assert_eq!(order[2], &at("calm", 1, 512, 0.5));
        assert_eq!(order[15], &at("storm", 7, 512, 4.0));

        let narrowed = ran(&[("CAMPAIGN_KIND", "storm"), ("CAMPAIGN_LOAD", "4")]);
        std::fs::remove_file(&path).unwrap();
        assert!(!narrowed.full);
        assert_eq!(narrowed.cells.len(), 4);
        let picked = |r: &Ran<Probe>| r.coord.kind == "storm" && r.coord.load == Some(4.0);
        assert!(narrowed.cells.iter().all(picked));
    }

    /// The budget used to be enforced before the report was written, so
    /// an overrun left nothing for the artifact upload.
    #[test]
    fn a_run_over_budget_and_in_violation_still_leaves_its_report() {
        let path = temp_report("report");
        let vars = [
            ("CAMPAIGN_SEED", "7"),
            ("CAMPAIGN_REPORT", path.as_str()),
            ("CAMPAIGN_CELL_BUDGET_MS", "5"),
        ];
        let (bad, slow) = (at("storm", 7, 64, 4.0), at("calm", 7, 512, 0.5));
        let err = run(&vars, Some(&bad), Some(&slow)).unwrap_err();
        assert!(err.contains("over the 5 ms wall-clock budget"), "{err}");
        assert!(
            err.contains("ms  [KIND=calm SEED=7 SIZE=512 LOAD=0.5]"),
            "{err}"
        );
        assert!(
            err.contains("[KIND=storm SEED=7 SIZE=64 LOAD=4] probe \"tripped\""),
            "{err}"
        );
        assert_eq!(
            err.lines().count(),
            5,
            "one slow cell, one finding, one repro: {err}"
        );

        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rows = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(8.0));
        assert_eq!(doc.get("violations").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("note").and_then(Json::as_str), Some("kept"));
        let Json::Obj(members) = &rows[0] else {
            panic!("a row is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "kind",
                "seed",
                "size",
                "load",
                "slept_ms",
                "violations",
                "repro"
            ]
        );
        let tripped: Vec<&Json> = rows
            .iter()
            .filter(|r| !r.get("violations").unwrap().as_arr().unwrap().is_empty())
            .collect();
        assert_eq!(tripped.len(), 1);
        assert_eq!(tripped[0].get("kind").and_then(Json::as_str), Some("storm"));
        assert_eq!(tripped[0].get("load").and_then(Json::as_f64), Some(4.0));
    }

    /// The repro contract: the env of a violating cell's repro line,
    /// applied to the same matrix, selects exactly that cell.
    #[test]
    fn the_repro_line_of_a_violating_cell_selects_exactly_that_cell() {
        let path = temp_report("repro");
        let report = ("CAMPAIGN_REPORT", path.as_str());
        let bad = at("storm", 1, 512, 0.5);
        let err = run(&[report], Some(&bad), None).unwrap_err();

        let repros: Vec<&str> = err
            .lines()
            .filter_map(|l| l.trim().strip_prefix("repro: "))
            .collect();
        assert_eq!(repros.len(), 1, "{err}");
        assert!(repros[0].ends_with(" cargo test -p obs campaign"), "{err}");
        let mut vars: Vec<(&str, &str)> = repros[0]
            .split(' ')
            .filter_map(|word| word.split_once('='))
            .filter(|(name, _)| name.starts_with("CAMPAIGN_"))
            .collect();
        assert_eq!(vars.len(), 4, "{err}");

        vars.push(report);
        let again = run(&vars, None, None).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(again.cells.len(), 1);
        assert_eq!(again.cells[0].coord, bad);
    }
}
