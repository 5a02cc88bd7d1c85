//! The machine-readable bench report: a versioned JSON schema
//! (`BENCH_summary.json`) that CI validates and archives.
//!
//! The schema is what the writer writes. Each row type names its keys
//! once, in its `From<&Row> for Json`; [`BenchReport::to_json`] writes
//! that value; and [`validate_json`] holds a document to the shape of
//! the writer's own output for [`exemplar`] — so writer and checker
//! agree by construction. A new section is a struct, its `From`, and one
//! row in the exemplar.

use crate::json::{self, Json};

/// Version stamped into every report; bump on breaking schema changes.
/// It is also the only version [`validate_json`] accepts: an older
/// artifact validates with the `bench-report --check` of its own commit
/// (docs/OBSERVABILITY.md, "The bench report", says how v2–v8 differ).
pub const SCHEMA_VERSION: u32 = 9;

/// The paper's MPI-over-BBP layering constant: MPI adds ≈37.5 µs of
/// software overhead on top of raw BBP latency, independent of message
/// size (Moorthy et al., IPPS 1999, Table 2).
pub const PAPER_LAYERING_US: f64 = 37.5;

/// One latency anchor: a measured number pinned against the paper.
#[derive(Debug, Clone, Default)]
pub struct Anchor {
    /// Anchor id, e.g. `"bbp_0B_one_way"`.
    pub name: String,
    /// The paper's value, µs.
    pub paper_us: f64,
    /// Our measured value, µs.
    pub measured_us: f64,
}

impl Anchor {
    /// Signed deviation from the paper, percent.
    fn deviation_pct(&self) -> f64 {
        if self.paper_us == 0.0 {
            0.0
        } else {
            (self.measured_us - self.paper_us) / self.paper_us * 100.0
        }
    }
}

impl From<&Anchor> for Json {
    fn from(a: &Anchor) -> Json {
        Json::obj([
            ("name", a.name.as_str().into()),
            ("paper_us", a.paper_us.into()),
            ("measured_us", a.measured_us.into()),
            ("deviation_pct", a.deviation_pct().into()),
        ])
    }
}

/// One labelled series in a [`Table`].
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Series label, e.g. `"bbp"`.
    pub label: String,
    /// One value per table size, in the table's unit.
    pub values: Vec<f64>,
}

impl From<&Series> for Json {
    fn from(s: &Series) -> Json {
        Json::obj([
            ("label", s.label.as_str().into()),
            ("values", Json::arr(&s.values)),
        ])
    }
}

/// A size-sweep table (latency or bandwidth vs message size).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Unit of the values, e.g. `"us"` or `"MB/s"`.
    pub unit: String,
    /// Message sizes, bytes.
    pub sizes: Vec<usize>,
    /// Measured series.
    pub series: Vec<Series>,
}

impl From<&Table> for Json {
    fn from(t: &Table) -> Json {
        Json::obj([
            ("title", t.title.as_str().into()),
            ("unit", t.unit.as_str().into()),
            ("sizes", Json::arr(&t.sizes)),
            ("series", Json::arr(&t.series)),
        ])
    }
}

/// A crossover point between two series.
#[derive(Debug, Clone, Default)]
pub struct Crossover {
    /// Series that wins below the crossover.
    pub incumbent: String,
    /// Series that wins above it.
    pub challenger: String,
    /// First size (bytes) at which the challenger wins, if any.
    pub at_bytes: Option<usize>,
}

impl From<&Crossover> for Json {
    fn from(c: &Crossover) -> Json {
        Json::obj([
            ("incumbent", c.incumbent.as_str().into()),
            ("challenger", c.challenger.as_str().into()),
            ("at_bytes", c.at_bytes.into()),
        ])
    }
}

/// Per-layer self-time attribution row.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Layer name (see `Layer::name`).
    pub layer: String,
    /// Self time, µs.
    pub self_us: f64,
    /// Share of covered time, percent.
    pub share_pct: f64,
}

impl From<&LayerRow> for Json {
    fn from(l: &LayerRow) -> Json {
        Json::obj([
            ("layer", l.layer.as_str().into()),
            ("self_us", l.self_us.into()),
            ("share_pct", l.share_pct.into()),
        ])
    }
}

/// The MPI-over-BBP layering constant check.
#[derive(Debug, Clone, Default)]
pub struct Layering {
    /// The paper's constant ([`PAPER_LAYERING_US`]).
    pub paper_us: f64,
    /// Measured `mpi_one_way − bbp_one_way` at 0 bytes, µs.
    pub measured_us: f64,
}

impl Layering {
    /// Absolute deviation from the paper, percent.
    fn within_pct(&self) -> f64 {
        ((self.measured_us - self.paper_us) / self.paper_us * 100.0).abs()
    }
}

impl From<&Layering> for Json {
    fn from(l: &Layering) -> Json {
        Json::obj([
            ("paper_us", l.paper_us.into()),
            ("measured_us", l.measured_us.into()),
            ("within_pct", l.within_pct().into()),
        ])
    }
}

/// One checkpoint of a [`MessageRow`] waterfall.
#[derive(Debug, Clone, Default)]
pub struct MessageStage {
    /// Stage name (see `lifecycle::Stage::name`).
    pub stage: String,
    /// Time of the checkpoint relative to the message's first, µs.
    pub at_us: f64,
    /// Node the checkpoint happened on.
    pub node: u32,
}

impl From<&MessageStage> for Json {
    fn from(s: &MessageStage) -> Json {
        Json::obj([
            ("stage", s.stage.as_str().into()),
            ("at_us", s.at_us.into()),
            ("node", s.node.into()),
        ])
    }
}

/// One message's reconstructed lifecycle waterfall.
#[derive(Debug, Clone, Default)]
pub struct MessageRow {
    /// The trace id.
    pub id: u64,
    /// Origin node.
    pub src: u32,
    /// First-to-last checkpoint span, µs.
    pub total_us: f64,
    /// Checkpoints in time order.
    pub stages: Vec<MessageStage>,
}

impl From<&MessageRow> for Json {
    fn from(m: &MessageRow) -> Json {
        Json::obj([
            ("id", m.id.into()),
            ("src", m.src.into()),
            ("total_us", m.total_us.into()),
            ("stages", Json::arr(&m.stages)),
        ])
    }
}

/// One rung of a capacity scenario's load-multiplier ladder.
#[derive(Debug, Clone, Default)]
pub struct CapacityCell {
    /// Seed the cell ran under.
    pub seed: u64,
    /// Load multiplier applied to the scenario's base rate.
    pub mult: f64,
    /// Offered arrivals per second of virtual time.
    pub offered_hz: f64,
    /// Completed requests per second of virtual time.
    pub completed_hz: f64,
    /// p999 service latency, µs.
    pub p999_us: f64,
    /// Arrivals shed per second (channel + transport credit gates) —
    /// distinguishes shed-limited from latency-limited saturation.
    pub sheds_per_sec: f64,
    /// Invariant violations in the cell (0 for a healthy cell).
    pub violations: u64,
    /// What stopped this rung from sustaining: `"none"`, `"latency"`,
    /// `"shed"`, or `"violation"`.
    pub limited_by: String,
}

impl From<&CapacityCell> for Json {
    fn from(c: &CapacityCell) -> Json {
        Json::obj([
            ("seed", c.seed.into()),
            ("mult", c.mult.into()),
            ("offered_hz", c.offered_hz.into()),
            ("completed_hz", c.completed_hz.into()),
            ("p999_us", c.p999_us.into()),
            ("sheds_per_sec", c.sheds_per_sec.into()),
            ("violations", c.violations.into()),
            ("limited_by", c.limited_by.as_str().into()),
        ])
    }
}

/// One scenario's capacity result at one message size.
#[derive(Debug, Clone, Default)]
pub struct CapacityScenario {
    /// Scenario id, e.g. `"incast"`.
    pub scenario: String,
    /// Request body size, bytes.
    pub size: usize,
    /// The p999 SLO target the sweep was run against, µs.
    pub p999_target_us: f64,
    /// Highest offered load (requests/s) every seed sustained within
    /// the SLO; 0 when no rung sustained.
    pub max_sustainable_hz: f64,
    /// The load multiplier of that rung; 0 when no rung sustained.
    pub max_sustainable_mult: f64,
    /// The full ladder, every (seed, mult) rung.
    pub cells: Vec<CapacityCell>,
}

impl From<&CapacityScenario> for Json {
    fn from(c: &CapacityScenario) -> Json {
        Json::obj([
            ("scenario", c.scenario.as_str().into()),
            ("size", c.size.into()),
            ("p999_target_us", c.p999_target_us.into()),
            ("max_sustainable_hz", c.max_sustainable_hz.into()),
            ("max_sustainable_mult", c.max_sustainable_mult.into()),
            ("cells", Json::arr(&c.cells)),
        ])
    }
}

/// The complete report (`BENCH_summary.json`).
///
/// A section is here because something reads it besides `--check`: it
/// carries a quantity the paper states, or a document cites its JSON.
/// Each field names its reader.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Tool that produced the report, e.g. `"bench-report --quick"`.
    pub generated_by: String,
    /// Paper-pinned anchors (BBP 6.5/7.8 µs, MPI 44/49 µs one-way),
    /// read against README's "Fidelity" and EXPERIMENTS.md's "Headline
    /// anchors".
    pub anchors: Vec<Anchor>,
    /// Size-sweep tables: one-way latency by size, the curves of the
    /// paper's Figures 1 and 3.
    pub tables: Vec<Table>,
    /// Crossover points: the size at which Fast Ethernet overtakes
    /// SCRAMNet MPI, EXPERIMENTS.md's "Figure 3" row against the paper's.
    pub crossovers: Vec<Crossover>,
    /// Per-layer self time of a 4-node `MPI_Bcast`: where the paper's
    /// layering constant goes, layer by layer.
    pub layers: Vec<LayerRow>,
    /// The paper's ≈37.5 µs layering constant (absent until measured);
    /// `bench-report` exits non-zero when it drifts past ±20 %.
    pub layering: Option<Layering>,
    /// Per-message lifecycle waterfalls of the instrumented broadcast,
    /// cited by EXPERIMENTS.md's "Per-message decomposition of the
    /// layering constant".
    pub messages: Vec<MessageRow>,
    /// Workload-campaign capacity results, cited by the capacity tables
    /// of EXPERIMENTS.md and README.
    pub capacity: Vec<CapacityScenario>,
}

impl From<&BenchReport> for Json {
    fn from(r: &BenchReport) -> Json {
        Json::obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("generated_by", r.generated_by.as_str().into()),
            ("anchors", Json::arr(&r.anchors)),
            ("tables", Json::arr(&r.tables)),
            ("crossovers", Json::arr(&r.crossovers)),
            ("layers", Json::arr(&r.layers)),
            ("layering", r.layering.as_ref().into()),
            ("messages", Json::arr(&r.messages)),
            ("capacity", Json::arr(&r.capacity)),
        ])
    }
}

impl BenchReport {
    /// Serialize to the versioned JSON document.
    pub fn to_json(&self) -> String {
        Json::from(self).to_document()
    }

    /// [`to_json`](Self::to_json), held to [`validate_json`] before it
    /// leaves the program. The one thing that can fail here is a
    /// non-finite value, which the writer renders as `null`.
    pub fn validated_json(&self) -> Result<String, String> {
        let text = self.to_json();
        validate_json(&text)
            .map_err(|e| format!("generated report fails schema validation: {e}"))?;
        Ok(text)
    }
}

/// The schema, as a report: every section one row deep and every nested
/// array one element. [`validate_json`] checks documents against the
/// [`Json`] this report serializes to, so a key added to a row type's
/// `From` is required from then on, and a new section needs one row
/// here. With `options` every `Option` is present; without, none is —
/// the pair says where `null` may stand.
pub fn exemplar(options: bool) -> BenchReport {
    let mut r = BenchReport {
        generated_by: String::new(),
        anchors: vec![Anchor::default()],
        tables: vec![Table::default()],
        crossovers: vec![Crossover::default()],
        layers: vec![LayerRow::default()],
        layering: options.then(Layering::default),
        messages: vec![MessageRow::default()],
        capacity: vec![CapacityScenario::default()],
    };
    r.tables[0].sizes = vec![0];
    r.tables[0].series = vec![Series::default()];
    r.tables[0].series[0].values = vec![0.0];
    r.crossovers[0].at_bytes = options.then_some(0);
    r.messages[0].stages = vec![MessageStage::default()];
    r.capacity[0].cells = vec![CapacityCell::default()];
    r
}

/// Hold `doc` to the shape of `full`: an object carries every key
/// `full`'s does, an array's elements each have the shape of `full`'s
/// first, anything else is of `full`'s kind. `bare` is the same
/// exemplar with its `Option`s empty: `null` passes exactly where
/// `bare` has it.
fn conforms(doc: &Json, full: &Json, bare: &Json, at: &str) -> Result<(), String> {
    match (doc, full) {
        (Json::Null, _) if *bare == Json::Null => Ok(()),
        (Json::Obj(_), Json::Obj(members)) => members.iter().try_for_each(|(key, full)| {
            let at = format!("{at}.{key}");
            let value = doc.get(key).ok_or_else(|| format!("{at}: missing key"))?;
            conforms(value, full, bare.get(key).unwrap_or(full), &at)
        }),
        (Json::Arr(items), Json::Arr(first)) => {
            let bare = bare.as_arr().unwrap_or(first);
            (items.iter().enumerate())
                .try_for_each(|(i, v)| conforms(v, &first[0], &bare[0], &format!("{at}[{i}]")))
        }
        _ if doc.kind() == full.kind() => Ok(()),
        _ => Err(format!("{at}: must be {}, not {}", full.kind(), doc.kind())),
    }
}

/// Validate a `BENCH_summary.json` document against the one schema
/// version this build writes. Its shape must be that of the writer's
/// own output for [`exemplar`]: an object carries every key the
/// exemplar's does (extra keys pass) with a value of the same kind,
/// every array element has the shape of the exemplar's first, and
/// `null` stands only where the exemplar without its `Option`s has one.
/// Three rules shape cannot say must hold as well: any other
/// `schema_version` is rejected, naming the one accepted; a table's
/// series are as long as its `sizes`; `limited_by` is one of four
/// words. Returns the first problem found, named by its path.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    // A version that is absent or not a number is `conforms`' to report.
    let version = doc.get("schema_version").and_then(Json::as_f64);
    if let Some(v) = version.filter(|&v| v != SCHEMA_VERSION as f64) {
        return Err(format!(
            "schema_version {v} is not {SCHEMA_VERSION}, the one this build reads"
        ));
    }
    let (full, bare) = (Json::from(&exemplar(true)), Json::from(&exemplar(false)));
    conforms(&doc, &full, &bare, "report")?;
    for (i, t) in doc.items("tables").enumerate() {
        let sizes = t.items("sizes").count();
        let mut series = t.items("series");
        if let Some(s) = series.find(|s| s.items("values").count() != sizes) {
            let label = s.get("label").and_then(Json::as_str).unwrap_or("?");
            return Err(format!(
                "report.tables[{i}]: series '{label}' does not have {sizes} values, one per size"
            ));
        }
    }
    let cells = doc.items("capacity").flat_map(|c| c.items("cells"));
    let mut limits = cells.filter_map(|cell| cell.get("limited_by")?.as_str());
    if let Some(lim) = limits.find(|l| !matches!(*l, "none" | "latency" | "shed" | "violation")) {
        return Err(format!("report.capacity: unknown limited_by '{lim}'"));
    }
    Ok(())
}

/// Read `path` and [`validate_json`] it: the `--check PATH` of both
/// report binaries. `Ok` is the line to print, `Err` the complaint.
pub fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_json(&text).map_err(|e| format!("{path}: schema violation: {e}"))?;
    Ok(format!("{path}: valid (schema v{SCHEMA_VERSION})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            generated_by: "bench-report --quick".to_string(),
            anchors: vec![Anchor {
                name: "bbp_0B_one_way".to_string(),
                paper_us: 6.5,
                measured_us: 6.6,
            }],
            tables: vec![Table {
                title: "one-way latency".to_string(),
                unit: "us".to_string(),
                sizes: vec![0, 4],
                series: vec![Series {
                    label: "bbp".to_string(),
                    values: vec![6.5, 7.8],
                }],
            }],
            crossovers: vec![Crossover {
                incumbent: "pio".to_string(),
                challenger: "dma".to_string(),
                at_bytes: Some(1024),
            }],
            layers: vec![LayerRow {
                layer: "mpi".to_string(),
                self_us: 20.0,
                share_pct: 45.5,
            }],
            layering: Some(Layering {
                paper_us: PAPER_LAYERING_US,
                measured_us: 37.4,
            }),
            messages: vec![MessageRow {
                id: (1 << 40) | 7,
                src: 0,
                total_us: 8.4,
                stages: vec![
                    MessageStage {
                        stage: "send_enter".to_string(),
                        at_us: 0.0,
                        node: 0,
                    },
                    MessageStage {
                        stage: "deliver".to_string(),
                        at_us: 8.4,
                        node: 1,
                    },
                ],
            }],
            capacity: vec![CapacityScenario {
                scenario: "incast".to_string(),
                size: 64,
                p999_target_us: 400.0,
                max_sustainable_hz: 28_800.0,
                max_sustainable_mult: 1.0,
                cells: vec![
                    CapacityCell {
                        seed: 1,
                        mult: 1.0,
                        offered_hz: 28_800.0,
                        completed_hz: 28_650.0,
                        p999_us: 310.0,
                        sheds_per_sec: 0.0,
                        violations: 0,
                        limited_by: "none".to_string(),
                    },
                    CapacityCell {
                        seed: 1,
                        mult: 2.0,
                        offered_hz: 57_600.0,
                        completed_hz: 49_100.0,
                        p999_us: 910.0,
                        sheds_per_sec: 8_400.0,
                        violations: 0,
                        limited_by: "latency".to_string(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn sample_report_validates() {
        let text = sample().to_json();
        validate_json(&text).unwrap();
    }

    /// The writer's output for [`sample`] is pinned byte for byte; a
    /// schema bump regenerates it with `BLESS=1`.
    #[test]
    fn sample_report_is_the_committed_document() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/sample_report.json"
        );
        crate::golden::check(path.as_ref(), &sample().to_json(), "sample report");
    }

    #[test]
    fn empty_report_validates() {
        let text = BenchReport::default().to_json();
        validate_json(&text).unwrap();
    }

    #[test]
    fn only_the_current_schema_version_is_accepted() {
        for other in [1u32, 8, 10, 99] {
            let Json::Obj(mut root) = Json::from(&sample()) else {
                unreachable!("a report is an object")
            };
            assert_eq!(root[0].0, "schema_version");
            root[0].1 = other.into();
            let err = validate_json(&Json::Obj(root).to_document()).unwrap_err();
            assert!(
                err.contains(&format!("schema_version {other} is not 9")),
                "v{other}: {err}"
            );
        }
    }

    fn swapped(v: &Json) -> Json {
        match v {
            Json::Num(_) => Json::from("x"),
            Json::Arr(_) => Json::obj::<&str>([]),
            Json::Obj(_) => Json::Arr(vec![]),
            _ => Json::from(0u32),
        }
    }

    /// Every document that differs from `node`'s whole document in one
    /// place below `node` — a member deleted, of the wrong kind, or
    /// `null`; a first array element of the wrong kind — as `(path,
    /// what was done, document)`. `whole` puts a replacement for `node`
    /// back into the document around it.
    fn mutants(
        node: &Json,
        at: &str,
        whole: &dyn Fn(Json) -> Json,
        out: &mut Vec<(String, &'static str, Json)>,
    ) {
        match node {
            Json::Obj(members) => {
                for (i, (key, value)) in members.iter().enumerate() {
                    let path = format!("{at}.{key}");
                    let with = |v: Option<Json>| {
                        let mut members = members.clone();
                        match v {
                            Some(v) => members[i].1 = v,
                            None => drop(members.remove(i)),
                        }
                        whole(Json::Obj(members))
                    };
                    out.push((path.clone(), "deleted", with(None)));
                    out.push((path.clone(), "mistyped", with(Some(swapped(value)))));
                    out.push((path.clone(), "null", with(Some(Json::Null))));
                    mutants(value, &path, &|v| with(Some(v)), out);
                }
            }
            Json::Arr(items) => {
                let path = format!("{at}[0]");
                let with = |v: Json| whole(Json::Arr(vec![v]));
                out.push((path.clone(), "mistyped", with(swapped(&items[0]))));
                mutants(&items[0], &path, &with, out);
            }
            _ => {}
        }
    }

    /// Coverage derived from the writer, not hand-picked: every key the
    /// exemplar serializes is required, of its kind, and `null` only
    /// where the writer can put one.
    #[test]
    fn every_exemplar_key_is_required_and_typed() {
        // The exemplar is a shape, not yet a valid document: as text its
        // default `Layering`, 0 µs against 0 µs, carries a NaN
        // `within_pct` (written `null`), and "" limits no capacity cell.
        let mut exemplar = exemplar(true);
        exemplar.layering.as_mut().unwrap().paper_us = PAPER_LAYERING_US;
        exemplar.capacity[0].cells[0].limited_by = "none".to_string();
        let exemplar = Json::from(&exemplar);
        validate_json(&exemplar.to_document()).unwrap();
        let mut docs = Vec::new();
        mutants(&exemplar, "report", &|doc| doc, &mut docs);
        for (path, what, doc) in &docs {
            let verdict = validate_json(&doc.to_document());
            let nullable = path.ends_with(".at_bytes") || path == "report.layering";
            if *what == "null" && nullable {
                verdict.unwrap_or_else(|e| panic!("{path} may be null: {e}"));
            } else {
                let err = verdict.expect_err(&format!("{path} {what} must be rejected"));
                assert!(err.contains(path.as_str()), "{path} {what}: {err}");
            }
        }
        // The keys the hand-picked negative tests used to try one by one.
        for key in [
            ".anchors",
            ".capacity",
            ".cells[0].sheds_per_sec",
            ".messages",
            ".stages[0].at_us",
            ".tables[0].sizes[0]",
            ".series[0].values[0]",
        ] {
            let tried = |(p, what, _): &&(String, &str, Json)| p.ends_with(key) && *what != "null";
            assert!(
                docs.iter().filter(tried).count() >= 1,
                "{key} was not walked"
            );
        }
    }

    #[test]
    fn limited_by_has_a_closed_vocabulary() {
        let mut r = sample();
        r.capacity[0].cells[1].limited_by = "vibes".to_string();
        assert!(validate_json(&r.to_json()).unwrap_err().contains("vibes"));
    }

    #[test]
    fn a_non_finite_value_fails_self_validation() {
        let mut r = sample();
        r.layers[0].self_us = f64::NAN;
        let err = r.validated_json().unwrap_err();
        assert!(err.contains("report.layers[0].self_us"), "{err}");
    }

    #[test]
    fn ragged_series_is_rejected() {
        let mut r = sample();
        r.tables[0].series[0].values.pop();
        assert!(validate_json(&r.to_json()).unwrap_err().contains("values"));
    }

    #[test]
    fn layering_within_pct() {
        let l = Layering {
            paper_us: 37.5,
            measured_us: 41.25,
        };
        assert!((l.within_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn anchor_deviation() {
        let a = Anchor {
            name: "x".to_string(),
            paper_us: 10.0,
            measured_us: 11.0,
        };
        assert!((a.deviation_pct() - 10.0).abs() < 1e-9);
    }
}
