//! The machine-readable bench report: a versioned JSON schema
//! (`BENCH_summary.json`) that CI validates and archives. The writer and
//! validator live together so the schema cannot drift from its checker.

use crate::json::{self, write_f64, write_string, Json};

/// Version stamped into every report; bump on breaking schema changes.
/// It is also the only version [`validate_json`] accepts: an older
/// artifact validates with the `bench-report --check` of its own commit
/// (docs/OBSERVABILITY.md, "The bench report", lists what v2–v5 lacked).
pub const SCHEMA_VERSION: u32 = 6;

/// Oldest schema version [`validate_json`] still accepts.
pub const MIN_SCHEMA_VERSION: u32 = SCHEMA_VERSION;

/// The paper's MPI-over-BBP layering constant: MPI adds ≈37.5 µs of
/// software overhead on top of raw BBP latency, independent of message
/// size (Moorthy et al., IPPS 1999, Table 2).
pub const PAPER_LAYERING_US: f64 = 37.5;

/// One latency anchor: a measured number pinned against the paper.
#[derive(Debug, Clone)]
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
    pub fn deviation_pct(&self) -> f64 {
        if self.paper_us == 0.0 {
            0.0
        } else {
            (self.measured_us - self.paper_us) / self.paper_us * 100.0
        }
    }
}

/// One labelled series in a [`Table`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label, e.g. `"bbp"`.
    pub label: String,
    /// One value per table size, in the table's unit.
    pub values: Vec<f64>,
}

/// A size-sweep table (latency or bandwidth vs message size).
#[derive(Debug, Clone)]
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

/// A crossover point between two series.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Series that wins below the crossover.
    pub incumbent: String,
    /// Series that wins above it.
    pub challenger: String,
    /// First size (bytes) at which the challenger wins, if any.
    pub at_bytes: Option<usize>,
}

/// Per-layer self-time attribution row.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name (see `Layer::name`).
    pub layer: String,
    /// Self time, µs.
    pub self_us: f64,
    /// Share of covered time, percent.
    pub share_pct: f64,
}

/// The MPI-over-BBP layering constant check.
#[derive(Debug, Clone)]
pub struct Layering {
    /// The paper's constant ([`PAPER_LAYERING_US`]).
    pub paper_us: f64,
    /// Measured `mpi_one_way − bbp_one_way` at 0 bytes, µs.
    pub measured_us: f64,
}

impl Layering {
    /// Absolute deviation from the paper, percent.
    pub fn within_pct(&self) -> f64 {
        ((self.measured_us - self.paper_us) / self.paper_us * 100.0).abs()
    }
}

/// Quantile summary of one latency distribution.
#[derive(Debug, Clone)]
pub struct Quantiles {
    /// Distribution name, e.g. `"mpi_pingpong_0B"`.
    pub name: String,
    /// Sample count.
    pub n: u64,
    /// Minimum, µs.
    pub min_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
    /// Mean, µs.
    pub mean_us: f64,
}

/// One checkpoint of a [`MessageRow`] waterfall.
#[derive(Debug, Clone)]
pub struct MessageStage {
    /// Stage name (see `lifecycle::Stage::name`).
    pub stage: String,
    /// Time of the checkpoint relative to the message's first, µs.
    pub at_us: f64,
    /// Node the checkpoint happened on.
    pub node: u32,
}

/// One message's reconstructed lifecycle waterfall.
#[derive(Debug, Clone)]
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

/// Per-shard execution counters of one parallel wallclock run: the
/// utilization / lookahead-stall breakdown.
#[derive(Debug, Clone)]
pub struct WallclockShard {
    /// Shard id.
    pub shard: u32,
    /// Events executed on this shard.
    pub events: u64,
    /// Scheduling passes that executed at least one event.
    pub busy_passes: u64,
    /// Passes where pending events all sat above the conservative safe
    /// bound (lookahead stalls).
    pub stall_passes: u64,
    /// Deepest in-link mailbox observed.
    pub max_mailbox_depth: u64,
    /// Posts that overflowed a bounded mailbox into the sender spill.
    pub spilled: u64,
    /// Largest local pending-queue depth observed.
    pub peak_queue_depth: u64,
}

impl WallclockShard {
    /// Fraction of scheduling passes that made progress (0 when the
    /// shard never passed) — the utilization figure the bench report
    /// prints.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_passes + self.stall_passes;
        if total == 0 {
            0.0
        } else {
            self.busy_passes as f64 / total as f64
        }
    }
}

/// One wall-clock self-measurement: how fast the simulator itself ran
/// one scenario on the host, independent of virtual-time results.
#[derive(Debug, Clone)]
pub struct Wallclock {
    /// Scenario id, e.g. `"ring_bcast_stress_16node_t4"`.
    pub scenario: String,
    /// Scheduler dispatches executed (events + process resumptions).
    pub events: u64,
    /// Virtual time covered by the run, nanoseconds.
    pub sim_ns: u64,
    /// Host wall-clock time for the run, milliseconds.
    pub wall_ms: f64,
    /// Dispatch throughput: `events / wall seconds`.
    pub events_per_sec: f64,
    /// Virtual-time throughput: simulated nanoseconds per wall second.
    pub sim_ns_per_sec: f64,
    /// Largest pending-queue depth observed during the run (summed over
    /// shards for parallel runs).
    pub peak_queue_depth: u64,
    /// Worker threads the engine ran on (1 = sequential engine).
    pub threads: u64,
    /// Per-shard breakdown (empty for sequential-engine runs).
    pub shards: Vec<WallclockShard>,
}

/// One rung of a capacity scenario's load-multiplier ladder.
#[derive(Debug, Clone)]
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

/// Summary row of one continuously sampled gauge series.
#[derive(Debug, Clone)]
pub struct TimeseriesRow {
    /// Gauge name (dot-scoped by layer, e.g. `rpc.buffers_in_use`).
    pub name: String,
    /// Owning node (or shard id for `par.*` gauges).
    pub node: u32,
    /// Observations folded into the series.
    pub n: u64,
    /// Exact series minimum.
    pub min: f64,
    /// Exact series mean.
    pub mean: f64,
    /// Exact series maximum.
    pub max: f64,
    /// Final observed value.
    pub last: f64,
    /// Sim time the maximum was first reached, µs.
    pub peak_at_us: f64,
}

impl TimeseriesRow {
    /// Summarize a telemetry snapshot into its report row.
    pub fn from_snapshot(s: &crate::timeseries::SeriesSnapshot) -> Self {
        TimeseriesRow {
            name: s.name.to_string(),
            node: s.node,
            n: s.observations,
            min: s.min,
            mean: s.mean,
            max: s.max,
            last: s.last,
            peak_at_us: s.peak_at as f64 / 1_000.0,
        }
    }
}

/// Per-node partition-tolerance counters: how the quorum
/// machinery behaved during the report's partition scenario.
#[derive(Debug, Clone)]
pub struct QuorumRow {
    /// Node rank.
    pub node: u32,
    /// Sends/acks rejected for carrying a stale epoch.
    pub stale_epoch_rejects: u64,
    /// Times the node froze on losing quorum (partitions detected).
    pub freezes: u64,
    /// Epoch bumps observed (view changes joined).
    pub epoch_bumps: u64,
}

/// One scenario's capacity result at one message size.
#[derive(Debug, Clone)]
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

/// The complete report (`BENCH_summary.json`).
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Tool that produced the report, e.g. `"bench-report --quick"`.
    pub generated_by: String,
    /// Paper-pinned anchors.
    pub anchors: Vec<Anchor>,
    /// Size-sweep tables.
    pub tables: Vec<Table>,
    /// Crossover points.
    pub crossovers: Vec<Crossover>,
    /// Per-layer attribution.
    pub layers: Vec<LayerRow>,
    /// The layering-constant check (absent until measured).
    pub layering: Option<Layering>,
    /// Latency distributions.
    pub quantiles: Vec<Quantiles>,
    /// Per-message lifecycle waterfalls (empty unless the run traced
    /// messages).
    pub messages: Vec<MessageRow>,
    /// Wall-clock self-measurements of the parallel engine
    /// (`bench-report --threads N`).
    pub wallclock: Vec<Wallclock>,
    /// Workload-campaign capacity results.
    pub capacity: Vec<CapacityScenario>,
    /// Continuous-gauge summaries.
    pub timeseries: Vec<TimeseriesRow>,
    /// Per-node partition-tolerance counters.
    pub quorum: Vec<QuorumRow>,
}

impl BenchReport {
    /// Serialize to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n  \"schema_version\": ");
        let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{SCHEMA_VERSION}"));
        o.push_str(",\n  \"generated_by\": ");
        write_string(&mut o, &self.generated_by);

        o.push_str(",\n  \"anchors\": [");
        for (i, a) in self.anchors.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"name\": ");
            write_string(&mut o, &a.name);
            o.push_str(", \"paper_us\": ");
            write_f64(&mut o, a.paper_us);
            o.push_str(", \"measured_us\": ");
            write_f64(&mut o, a.measured_us);
            o.push_str(", \"deviation_pct\": ");
            write_f64(&mut o, a.deviation_pct());
            o.push('}');
        }
        o.push_str("\n  ],\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"title\": ");
            write_string(&mut o, &t.title);
            o.push_str(", \"unit\": ");
            write_string(&mut o, &t.unit);
            o.push_str(", \"sizes\": [");
            for (j, s) in t.sizes.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{s}"));
            }
            o.push_str("], \"series\": [");
            for (j, s) in t.series.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"label\": ");
                write_string(&mut o, &s.label);
                o.push_str(", \"values\": [");
                for (k, v) in s.values.iter().enumerate() {
                    if k > 0 {
                        o.push(',');
                    }
                    write_f64(&mut o, *v);
                }
                o.push_str("]}");
            }
            o.push_str("]}");
        }
        o.push_str("\n  ],\n  \"crossovers\": [");
        for (i, c) in self.crossovers.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"incumbent\": ");
            write_string(&mut o, &c.incumbent);
            o.push_str(", \"challenger\": ");
            write_string(&mut o, &c.challenger);
            o.push_str(", \"at_bytes\": ");
            match c.at_bytes {
                Some(b) => {
                    let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{b}"));
                }
                None => o.push_str("null"),
            }
            o.push('}');
        }
        o.push_str("\n  ],\n  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"layer\": ");
            write_string(&mut o, &l.layer);
            o.push_str(", \"self_us\": ");
            write_f64(&mut o, l.self_us);
            o.push_str(", \"share_pct\": ");
            write_f64(&mut o, l.share_pct);
            o.push('}');
        }
        o.push_str("\n  ],\n  \"layering\": ");
        match &self.layering {
            Some(l) => {
                o.push_str("{\"paper_us\": ");
                write_f64(&mut o, l.paper_us);
                o.push_str(", \"measured_us\": ");
                write_f64(&mut o, l.measured_us);
                o.push_str(", \"within_pct\": ");
                write_f64(&mut o, l.within_pct());
                o.push('}');
            }
            None => o.push_str("null"),
        }
        o.push_str(",\n  \"quantiles\": [");
        for (i, q) in self.quantiles.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"name\": ");
            write_string(&mut o, &q.name);
            o.push_str(", \"n\": ");
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{}", q.n));
            for (key, v) in [
                ("min_us", q.min_us),
                ("p50_us", q.p50_us),
                ("p90_us", q.p90_us),
                ("p99_us", q.p99_us),
                ("p999_us", q.p999_us),
                ("max_us", q.max_us),
                ("mean_us", q.mean_us),
            ] {
                o.push_str(", \"");
                o.push_str(key);
                o.push_str("\": ");
                write_f64(&mut o, v);
            }
            o.push('}');
        }
        o.push_str("\n  ],\n  \"messages\": [");
        for (i, m) in self.messages.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = std::fmt::Write::write_fmt(
                &mut o,
                format_args!("    {{\"id\": {}, \"src\": {}, \"total_us\": ", m.id, m.src),
            );
            write_f64(&mut o, m.total_us);
            o.push_str(", \"stages\": [");
            for (j, s) in m.stages.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"stage\": ");
                write_string(&mut o, &s.stage);
                o.push_str(", \"at_us\": ");
                write_f64(&mut o, s.at_us);
                let _ =
                    std::fmt::Write::write_fmt(&mut o, format_args!(", \"node\": {}}}", s.node));
            }
            o.push_str("]}");
        }
        o.push_str("\n  ],\n  \"capacity\": [");
        for (i, c) in self.capacity.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"scenario\": ");
            write_string(&mut o, &c.scenario);
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!(", \"size\": {}", c.size));
            o.push_str(", \"p999_target_us\": ");
            write_f64(&mut o, c.p999_target_us);
            o.push_str(", \"max_sustainable_hz\": ");
            write_f64(&mut o, c.max_sustainable_hz);
            o.push_str(", \"max_sustainable_mult\": ");
            write_f64(&mut o, c.max_sustainable_mult);
            o.push_str(", \"cells\": [");
            for (j, cell) in c.cells.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut o,
                    format_args!("{{\"seed\": {}, \"mult\": ", cell.seed),
                );
                write_f64(&mut o, cell.mult);
                for (key, v) in [
                    ("offered_hz", cell.offered_hz),
                    ("completed_hz", cell.completed_hz),
                    ("p999_us", cell.p999_us),
                    ("sheds_per_sec", cell.sheds_per_sec),
                ] {
                    o.push_str(", \"");
                    o.push_str(key);
                    o.push_str("\": ");
                    write_f64(&mut o, v);
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut o,
                    format_args!(", \"violations\": {}, \"limited_by\": ", cell.violations),
                );
                write_string(&mut o, &cell.limited_by);
                o.push('}');
            }
            o.push_str("]}");
        }
        o.push_str("\n  ],\n  \"timeseries\": [");
        for (i, t) in self.timeseries.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"name\": ");
            write_string(&mut o, &t.name);
            let _ = std::fmt::Write::write_fmt(
                &mut o,
                format_args!(", \"node\": {}, \"n\": {}", t.node, t.n),
            );
            for (key, v) in [
                ("min", t.min),
                ("mean", t.mean),
                ("max", t.max),
                ("last", t.last),
                ("peak_at_us", t.peak_at_us),
            ] {
                o.push_str(", \"");
                o.push_str(key);
                o.push_str("\": ");
                write_f64(&mut o, v);
            }
            o.push('}');
        }
        o.push_str("\n  ],\n  \"quorum\": [");
        for (i, q) in self.quorum.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = std::fmt::Write::write_fmt(
                &mut o,
                format_args!(
                    "    {{\"node\": {}, \"stale_epoch_rejects\": {}, \
                     \"freezes\": {}, \"epoch_bumps\": {}}}",
                    q.node, q.stale_epoch_rejects, q.freezes, q.epoch_bumps
                ),
            );
        }
        o.push_str("\n  ],\n  \"wallclock\": [");
        for (i, w) in self.wallclock.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"scenario\": ");
            write_string(&mut o, &w.scenario);
            o.push_str(", \"events\": ");
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{}", w.events));
            o.push_str(", \"sim_ns\": ");
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{}", w.sim_ns));
            o.push_str(", \"wall_ms\": ");
            write_f64(&mut o, w.wall_ms);
            o.push_str(", \"events_per_sec\": ");
            write_f64(&mut o, w.events_per_sec);
            o.push_str(", \"sim_ns_per_sec\": ");
            write_f64(&mut o, w.sim_ns_per_sec);
            o.push_str(", \"peak_queue_depth\": ");
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{}", w.peak_queue_depth));
            o.push_str(", \"threads\": ");
            let _ = std::fmt::Write::write_fmt(&mut o, format_args!("{}", w.threads));
            o.push_str(", \"shards\": [");
            for (j, s) in w.shards.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut o,
                    format_args!(
                        "{{\"shard\": {}, \"events\": {}, \"busy_passes\": {}, \
                         \"stall_passes\": {}, \"max_mailbox_depth\": {}, \
                         \"spilled\": {}, \"peak_queue_depth\": {}, \"utilization\": ",
                        s.shard,
                        s.events,
                        s.busy_passes,
                        s.stall_passes,
                        s.max_mailbox_depth,
                        s.spilled,
                        s.peak_queue_depth
                    ),
                );
                write_f64(&mut o, s.utilization());
                o.push('}');
            }
            o.push_str("]}");
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn require_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    require(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("'{key}' must be an array"))
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    require(obj, key)
        .map_err(|e| format!("{ctx}: {e}"))?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: '{key}' must be a number"))
}

fn require_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    require(obj, key)
        .map_err(|e| format!("{ctx}: {e}"))?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{key}' must be a string"))
}

/// Validate a `BENCH_summary.json` document against the one schema
/// version this build writes; any other `schema_version` is rejected,
/// naming the supported range. Returns the first problem found.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    if !doc.is_obj() {
        return Err("report must be a JSON object".to_string());
    }
    let version = require_num(&doc, "schema_version", "root")?;
    if version < MIN_SCHEMA_VERSION as f64 || version > SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} outside supported {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
        ));
    }
    require_str(&doc, "generated_by", "root")?;

    for (i, a) in require_arr(&doc, "anchors")?.iter().enumerate() {
        let ctx = format!("anchors[{i}]");
        require_str(a, "name", &ctx)?;
        require_num(a, "paper_us", &ctx)?;
        require_num(a, "measured_us", &ctx)?;
        require_num(a, "deviation_pct", &ctx)?;
    }
    for (i, t) in require_arr(&doc, "tables")?.iter().enumerate() {
        let ctx = format!("tables[{i}]");
        require_str(t, "title", &ctx)?;
        require_str(t, "unit", &ctx)?;
        let sizes = require(t, "sizes")
            .map_err(|e| format!("{ctx}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: 'sizes' must be an array"))?;
        for s in require(t, "series")
            .map_err(|e| format!("{ctx}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: 'series' must be an array"))?
        {
            require_str(s, "label", &ctx)?;
            let values = require(s, "values")
                .map_err(|e| format!("{ctx}: {e}"))?
                .as_arr()
                .ok_or_else(|| format!("{ctx}: 'values' must be an array"))?;
            if values.len() != sizes.len() {
                return Err(format!(
                    "{ctx}: series '{}' has {} values for {} sizes",
                    s.get("label").and_then(Json::as_str).unwrap_or("?"),
                    values.len(),
                    sizes.len()
                ));
            }
        }
    }
    for (i, c) in require_arr(&doc, "crossovers")?.iter().enumerate() {
        let ctx = format!("crossovers[{i}]");
        require_str(c, "incumbent", &ctx)?;
        require_str(c, "challenger", &ctx)?;
        let at = require(c, "at_bytes").map_err(|e| format!("{ctx}: {e}"))?;
        if !matches!(at, Json::Null | Json::Num(_)) {
            return Err(format!("{ctx}: 'at_bytes' must be a number or null"));
        }
    }
    for (i, l) in require_arr(&doc, "layers")?.iter().enumerate() {
        let ctx = format!("layers[{i}]");
        require_str(l, "layer", &ctx)?;
        require_num(l, "self_us", &ctx)?;
        require_num(l, "share_pct", &ctx)?;
    }
    let layering = require(&doc, "layering")?;
    if *layering != Json::Null {
        require_num(layering, "paper_us", "layering")?;
        require_num(layering, "measured_us", "layering")?;
        require_num(layering, "within_pct", "layering")?;
    }
    for (i, q) in require_arr(&doc, "quantiles")?.iter().enumerate() {
        let ctx = format!("quantiles[{i}]");
        require_str(q, "name", &ctx)?;
        for key in [
            "n", "min_us", "p50_us", "p90_us", "p99_us", "p999_us", "max_us", "mean_us",
        ] {
            require_num(q, key, &ctx)?;
        }
    }
    for (i, m) in require_arr(&doc, "messages")?.iter().enumerate() {
        let ctx = format!("messages[{i}]");
        require_num(m, "id", &ctx)?;
        require_num(m, "src", &ctx)?;
        require_num(m, "total_us", &ctx)?;
        for (j, s) in require(m, "stages")
            .map_err(|e| format!("{ctx}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: 'stages' must be an array"))?
            .iter()
            .enumerate()
        {
            let sctx = format!("{ctx}.stages[{j}]");
            require_str(s, "stage", &sctx)?;
            require_num(s, "at_us", &sctx)?;
            require_num(s, "node", &sctx)?;
        }
    }
    for (i, c) in require_arr(&doc, "capacity")?.iter().enumerate() {
        let ctx = format!("capacity[{i}]");
        require_str(c, "scenario", &ctx)?;
        for key in [
            "size",
            "p999_target_us",
            "max_sustainable_hz",
            "max_sustainable_mult",
        ] {
            require_num(c, key, &ctx)?;
        }
        for (j, cell) in require(c, "cells")
            .map_err(|e| format!("{ctx}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: 'cells' must be an array"))?
            .iter()
            .enumerate()
        {
            let cctx = format!("{ctx}.cells[{j}]");
            for key in [
                "seed",
                "mult",
                "offered_hz",
                "completed_hz",
                "p999_us",
                "sheds_per_sec",
                "violations",
            ] {
                require_num(cell, key, &cctx)?;
            }
            let lim = require_str(cell, "limited_by", &cctx)?;
            if !matches!(lim, "none" | "latency" | "shed" | "violation") {
                return Err(format!("{cctx}: unknown limited_by '{lim}'"));
            }
        }
    }
    for (i, t) in require_arr(&doc, "timeseries")?.iter().enumerate() {
        let ctx = format!("timeseries[{i}]");
        require_str(t, "name", &ctx)?;
        for key in ["node", "n", "min", "mean", "max", "last", "peak_at_us"] {
            require_num(t, key, &ctx)?;
        }
    }
    for (i, q) in require_arr(&doc, "quorum")?.iter().enumerate() {
        let ctx = format!("quorum[{i}]");
        for key in ["node", "stale_epoch_rejects", "freezes", "epoch_bumps"] {
            require_num(q, key, &ctx)?;
        }
    }
    for (i, w) in require_arr(&doc, "wallclock")?.iter().enumerate() {
        let ctx = format!("wallclock[{i}]");
        require_str(w, "scenario", &ctx)?;
        for key in [
            "events",
            "sim_ns",
            "wall_ms",
            "events_per_sec",
            "sim_ns_per_sec",
            "peak_queue_depth",
            "threads",
        ] {
            require_num(w, key, &ctx)?;
        }
        for (j, s) in require(w, "shards")
            .map_err(|e| format!("{ctx}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: 'shards' must be an array"))?
            .iter()
            .enumerate()
        {
            let sctx = format!("{ctx}.shards[{j}]");
            for key in [
                "shard",
                "events",
                "busy_passes",
                "stall_passes",
                "max_mailbox_depth",
                "spilled",
                "peak_queue_depth",
                "utilization",
            ] {
                require_num(s, key, &sctx)?;
            }
        }
    }
    Ok(())
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
            quantiles: vec![Quantiles {
                name: "mpi_pingpong_0B".to_string(),
                n: 8,
                min_us: 43.0,
                p50_us: 44.0,
                p90_us: 45.0,
                p99_us: 45.0,
                p999_us: 45.05,
                max_us: 45.1,
                mean_us: 44.2,
            }],
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
            wallclock: vec![Wallclock {
                scenario: "ring_bcast_stress_16node".to_string(),
                events: 500_000,
                sim_ns: 2_000_000_000,
                wall_ms: 120.0,
                events_per_sec: 4_166_666.0,
                sim_ns_per_sec: 1.6e10,
                peak_queue_depth: 48,
                threads: 1,
                shards: vec![],
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
            timeseries: vec![TimeseriesRow {
                name: "rpc.buffers_in_use".to_string(),
                node: 0,
                n: 1_200,
                min: 0.0,
                mean: 3.4,
                max: 16.0,
                last: 0.0,
                peak_at_us: 812.5,
            }],
            quorum: vec![QuorumRow {
                node: 2,
                stale_epoch_rejects: 3,
                freezes: 1,
                epoch_bumps: 2,
            }],
        }
    }

    #[test]
    fn sample_report_validates() {
        let text = sample().to_json();
        validate_json(&text).unwrap();
    }

    #[test]
    fn empty_report_validates() {
        let text = BenchReport::default().to_json();
        validate_json(&text).unwrap();
    }

    #[test]
    fn only_the_current_schema_version_is_accepted() {
        let current = format!("\"schema_version\": {SCHEMA_VERSION}");
        for other in [1, 5, 7, 99] {
            let text = sample()
                .to_json()
                .replace(&current, &format!("\"schema_version\": {other}"));
            let err = validate_json(&text).unwrap_err();
            assert!(
                err.contains("schema_version") && err.contains("6..=6"),
                "v{other}: {err}"
            );
        }
    }

    #[test]
    fn timeseries_and_quorum_sections_are_required() {
        let no_ts = sample()
            .to_json()
            .replace("\"timeseries\"", "\"timezeries\"");
        assert!(validate_json(&no_ts).unwrap_err().contains("timeseries"));
        let no_quorum = sample().to_json().replace("\"quorum\"", "\"kworum\"");
        assert!(validate_json(&no_quorum).unwrap_err().contains("quorum"));
        let no_peak = sample()
            .to_json()
            .replace("\"peak_at_us\"", "\"peak_at_uz\"");
        assert!(validate_json(&no_peak).unwrap_err().contains("peak_at_us"));
        let no_rejects = sample()
            .to_json()
            .replace("\"stale_epoch_rejects\"", "\"stale_epoch_rejectz\"");
        assert!(validate_json(&no_rejects)
            .unwrap_err()
            .contains("stale_epoch_rejects"));
    }

    #[test]
    fn timeseries_row_summarizes_a_snapshot() {
        let tel = crate::timeseries::Telemetry::new();
        tel.enable();
        tel.observe(1_000, 3, "m", 2.0);
        tel.observe(5_000, 3, "m", 8.0);
        tel.observe(9_000, 3, "m", 5.0);
        let snaps = tel.snapshot();
        let row = TimeseriesRow::from_snapshot(&snaps[0]);
        assert_eq!(row.name, "m");
        assert_eq!(row.node, 3);
        assert_eq!(row.n, 3);
        assert!((row.min - 2.0).abs() < 1e-12);
        assert!((row.max - 8.0).abs() < 1e-12);
        assert!((row.last - 5.0).abs() < 1e-12);
        assert!((row.peak_at_us - 5.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_section_is_required_and_checked() {
        let no_capacity = sample().to_json().replace("\"capacity\"", "\"kapacity\"");
        assert!(validate_json(&no_capacity)
            .unwrap_err()
            .contains("capacity"));
        let no_sheds = sample()
            .to_json()
            .replace("\"sheds_per_sec\"", "\"sheds_per_sek\"");
        assert!(validate_json(&no_sheds)
            .unwrap_err()
            .contains("sheds_per_sec"));
        let bad_limit = sample()
            .to_json()
            .replace("\"limited_by\": \"latency\"", "\"limited_by\": \"vibes\"");
        assert!(validate_json(&bad_limit).unwrap_err().contains("vibes"));
    }

    #[test]
    fn wallclock_entry_requires_parallel_engine_fields() {
        let no_threads = sample().to_json().replace("\"threads\"", "\"treads\"");
        assert!(validate_json(&no_threads).unwrap_err().contains("threads"));
        let no_shards = sample().to_json().replace("\"shards\"", "\"chards\"");
        assert!(validate_json(&no_shards).unwrap_err().contains("shards"));
    }

    #[test]
    fn shard_breakdown_round_trips_and_is_checked() {
        let mut r = sample();
        r.wallclock[0].threads = 4;
        r.wallclock[0].shards = vec![
            WallclockShard {
                shard: 0,
                events: 1000,
                busy_passes: 90,
                stall_passes: 10,
                max_mailbox_depth: 7,
                spilled: 0,
                peak_queue_depth: 33,
            },
            WallclockShard {
                shard: 1,
                events: 980,
                busy_passes: 80,
                stall_passes: 20,
                max_mailbox_depth: 5,
                spilled: 2,
                peak_queue_depth: 31,
            },
        ];
        let text = r.to_json();
        validate_json(&text).unwrap();
        assert!(text.contains("\"stall_passes\": 20"));
        let broken = text.replace("\"stall_passes\"", "\"stall_pazzes\"");
        assert!(validate_json(&broken).unwrap_err().contains("stall_passes"));
    }

    #[test]
    fn shard_utilization_is_busy_share() {
        let s = WallclockShard {
            shard: 0,
            events: 0,
            busy_passes: 3,
            stall_passes: 1,
            max_mailbox_depth: 0,
            spilled: 0,
            peak_queue_depth: 0,
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tail_percentiles_and_messages_are_required() {
        let no_tail = sample().to_json().replace("\"p999_us\"", "\"p999_uz\"");
        assert!(validate_json(&no_tail).unwrap_err().contains("p999_us"));
        let no_msgs = sample().to_json().replace("\"messages\"", "\"mezzages\"");
        assert!(validate_json(&no_msgs).unwrap_err().contains("messages"));
    }

    #[test]
    fn message_stages_are_checked() {
        let text = sample().to_json().replace("\"at_us\"", "\"at_uz\"");
        assert!(validate_json(&text).unwrap_err().contains("at_us"));
    }

    #[test]
    fn missing_wallclock_section_is_rejected() {
        let text = sample().to_json().replace("\"wallclock\"", "\"wallklock\"");
        assert!(validate_json(&text).unwrap_err().contains("wallclock"));
    }

    #[test]
    fn wallclock_entry_requires_throughput_fields() {
        let text = sample()
            .to_json()
            .replace("\"events_per_sec\"", "\"events_per_sek\"");
        assert!(validate_json(&text).unwrap_err().contains("events_per_sec"));
    }

    #[test]
    fn missing_key_is_rejected() {
        let text = sample().to_json().replace("\"anchors\"", "\"anchorz\"");
        assert!(validate_json(&text).unwrap_err().contains("anchors"));
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
