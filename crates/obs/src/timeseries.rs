//! Sim-time gauge sampling into fixed-capacity downsampling series.
//!
//! The event log (spans, counters, lifecycle) answers *what happened*;
//! this module answers *how the system's state evolved*: queue
//! residencies, credit balances, membership grades —
//! anything a layer can express as "at sim-time `t`, gauge `g` on node
//! `n` had value `v`".
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled is free.** Telemetry has its *own* enable gate,
//!    separate from the recorder's event-log gate, so enabling a
//!    determinism trace never turns gauges on (and vice versa). A
//!    disabled [`Telemetry::observe`] is one relaxed atomic load —
//!    no locks, no allocation — pinned by `tests/obs_zero_cost.rs`.
//! 2. **Bounded memory, full-run coverage.** Each series holds at most
//!    [`SERIES_CAP`] buckets. Observations coalesce into the current
//!    bucket of width `bucket_ns`; when the buffer fills, adjacent
//!    buckets merge pairwise in place and the width doubles. A series
//!    therefore always spans the whole run at the finest resolution
//!    the budget allows, and steady-state sampling never allocates.
//! 3. **Absolute values, not deltas.** Call sites report the current
//!    occupancy/balance, so a series enabled mid-run is merely coarse
//!    at the front, never wrong.
//!
//! Every bucket keeps `min`/`max`/`last`/`count`, and the series keeps
//! its exact `min`/`max`/`mean`/`last` across merges.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::json::write_f64;
use crate::Time;

/// Maximum buckets retained per series before pairwise merging.
pub const SERIES_CAP: usize = 256;

/// Initial bucket width (sampling cadence quantum): 1 µs of sim time.
pub const DEFAULT_BUCKET_NS: Time = 1_000;

/// One downsampling bucket: the aggregate of every observation that
/// landed in `[t0, t1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Sim time of the first observation in the bucket.
    pub t0: Time,
    /// Sim time of the last observation in the bucket.
    pub t1: Time,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Most recent observed value.
    pub last: f64,
    /// Number of observations folded in.
    pub count: u64,
}

impl Bucket {
    fn seed(t: Time, v: f64) -> Self {
        Bucket {
            t0: t,
            t1: t,
            min: v,
            max: v,
            last: v,
            count: 1,
        }
    }

    fn absorb(&mut self, t: Time, v: f64) {
        self.t1 = t;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        self.count += 1;
    }

    fn merge(&mut self, later: &Bucket) {
        self.t1 = later.t1;
        self.min = self.min.min(later.min);
        self.max = self.max.max(later.max);
        self.last = later.last;
        self.count += later.count;
    }
}

/// One registered gauge's series (internal mutable form).
#[derive(Debug)]
struct Series {
    name: &'static str,
    node: u32,
    bucket_ns: Time,
    buckets: Vec<Bucket>,
    cur: Option<Bucket>,
    /// Last value ever observed.
    last_value: f64,
    /// Total observations (survives downsampling exactly).
    observations: u64,
    /// Series-level extrema, tracked directly so the report summary is
    /// exact regardless of how coarse the buckets have become.
    min_v: f64,
    max_v: f64,
    sum_v: f64,
    /// Sim time the maximum was first reached.
    peak_at: Time,
}

impl Series {
    fn observe(&mut self, t: Time, v: f64) {
        self.observations += 1;
        self.last_value = v;
        self.sum_v += v;
        self.min_v = self.min_v.min(v);
        if v > self.max_v {
            self.max_v = v;
            self.peak_at = t;
        }
        let idx = t / self.bucket_ns;
        match &mut self.cur {
            Some(b) if b.t0 / self.bucket_ns == idx => b.absorb(t, v),
            _ => {
                self.flush_cur();
                self.cur = Some(Bucket::seed(t, v));
            }
        }
    }

    /// Move the in-progress bucket into the ring, downsampling first if
    /// the ring is full. Pairwise in-place merge: no allocation.
    fn flush_cur(&mut self) {
        let Some(b) = self.cur.take() else { return };
        if self.buckets.len() == SERIES_CAP {
            let mut w = 0;
            let mut r = 0;
            while r + 1 < SERIES_CAP {
                let later = self.buckets[r + 1];
                self.buckets[w] = self.buckets[r];
                self.buckets[w].merge(&later);
                w += 1;
                r += 2;
            }
            if r < SERIES_CAP {
                self.buckets[w] = self.buckets[r];
                w += 1;
            }
            self.buckets.truncate(w);
            self.bucket_ns *= 2;
        }
        self.buckets.push(b);
    }

    /// This series as a snapshot, its buckets moved rather than copied.
    fn into_snapshot(mut self) -> SeriesSnapshot {
        let mut buckets = std::mem::take(&mut self.buckets);
        if let Some(b) = self.cur {
            buckets.push(b);
        }
        SeriesSnapshot {
            name: self.name,
            node: self.node,
            bucket_ns: self.bucket_ns,
            buckets,
            observations: self.observations,
            min: self.min_v,
            max: self.max_v,
            mean: if self.observations == 0 {
                0.0
            } else {
                self.sum_v / self.observations as f64
            },
            last: self.last_value,
            peak_at: self.peak_at,
        }
    }
}

/// An immutable copy of one gauge's series, taken by
/// [`Telemetry::take`]. This is what the exporters render and what
/// a breached campaign bound dumps.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Gauge name (dot-scoped by layer, e.g. `rpc.buffers_in_use`).
    pub name: &'static str,
    /// Owning node.
    pub node: u32,
    /// Current bucket width after downsampling.
    pub bucket_ns: Time,
    /// Retained buckets, oldest first.
    pub buckets: Vec<Bucket>,
    /// Total observations folded into the series.
    pub observations: u64,
    /// Exact series-level minimum.
    pub min: f64,
    /// Exact series-level maximum.
    pub max: f64,
    /// Exact series-level mean.
    pub mean: f64,
    /// Most recent observation.
    pub last: f64,
    /// Sim time the maximum was first reached.
    pub peak_at: Time,
}

impl SeriesSnapshot {
    /// Render this series as a standalone JSON object (the per-metric
    /// dump written next to flight rings when a campaign cell's counted
    /// bound breaks).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(self.buckets.len() * 64 + 256);
        o.push_str("{\"metric\":");
        crate::json::write_string(&mut o, self.name);
        use std::fmt::Write as _;
        let _ = write!(
            o,
            ",\"node\":{},\"bucket_ns\":{},\"observations\":{},\"min\":",
            self.node, self.bucket_ns, self.observations
        );
        write_f64(&mut o, self.min);
        o.push_str(",\"mean\":");
        write_f64(&mut o, self.mean);
        o.push_str(",\"max\":");
        write_f64(&mut o, self.max);
        o.push_str(",\"last\":");
        write_f64(&mut o, self.last);
        let _ = writeln!(o, ",\"peak_at_ns\":{},\"points\":[", self.peak_at);
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                o.push_str(",\n");
            }
            let _ = write!(o, " {{\"t0\":{},\"t1\":{},\"min\":", b.t0, b.t1);
            write_f64(&mut o, b.min);
            o.push_str(",\"max\":");
            write_f64(&mut o, b.max);
            o.push_str(",\"last\":");
            write_f64(&mut o, b.last);
            let _ = write!(o, ",\"count\":{}}}", b.count);
        }
        o.push_str("\n]}\n");
        o
    }

    /// Write this series' JSON dump to `$FLIGHT_DUMP_DIR` (default
    /// `target/flight/`), named `series_{slug}.json` — the same
    /// convention and directory as the flight-ring postmortems so one
    /// CI artifact upload collects both. Best-effort; returns the
    /// written path on success.
    pub fn dump_to_dir(&self, label: &str) -> Option<std::path::PathBuf> {
        let dir = std::env::var("FLIGHT_DUMP_DIR").unwrap_or_else(|_| "target/flight".to_string());
        let slug: String = format!("{label}_{}_{}", self.name, self.node)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = std::path::Path::new(&dir).join(format!("series_{slug}.json"));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&path, self.to_json()).ok()?;
        Some(path)
    }
}

/// The gauge registry: every [`crate::Recorder`] owns one.
///
/// Series are keyed `(name, node)` and created lazily on the first
/// enabled observation. The inner mutex is uncontended: one entity of
/// a simulation runs at a time.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    series: Mutex<Vec<Series>>,
}

impl Telemetry {
    /// A disabled, empty registry.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            series: Mutex::new(Vec::new()),
        }
    }

    /// Whether gauge sampling is on. One relaxed load; `#[inline]` so
    /// instrumentation sites can gate value computation on it.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clear all series and start sampling.
    pub fn enable(&self) {
        self.lock().clear();
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop sampling (series are kept for [`Telemetry::take`]).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Series>> {
        self.series.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record that gauge `name` on `node` had absolute value `value` at
    /// sim time `time`. Disabled: one relaxed load. Enabled: coalesces
    /// into the series' current bucket; allocation only on the very
    /// first observation of a new `(name, node)` pair.
    #[inline]
    pub fn observe(&self, time: Time, node: u32, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.observe_slow(time, node, name, value);
    }

    #[cold]
    fn observe_slow(&self, time: Time, node: u32, name: &'static str, value: f64) {
        let mut all = self.lock();
        // A call site passes the same literal every time: the node and the
        // name's address settle it without reading the name's bytes, which
        // are compared only where the addresses differ.
        let same = |s: &Series| s.node == node && (std::ptr::eq(s.name, name) || s.name == name);
        match all.iter_mut().find(|s| same(s)) {
            Some(s) => s.observe(time, value),
            None => {
                let mut s = Series {
                    name,
                    node,
                    bucket_ns: DEFAULT_BUCKET_NS,
                    buckets: Vec::with_capacity(SERIES_CAP),
                    cur: None,
                    last_value: 0.0,
                    observations: 0,
                    min_v: f64::INFINITY,
                    max_v: f64::NEG_INFINITY,
                    sum_v: 0.0,
                    peak_at: 0,
                };
                s.observe(time, value);
                all.push(s);
            }
        }
    }

    /// Every series, moved out and sorted by `(name, node)` for stable
    /// export order: the registry is left empty (and sampling as it was),
    /// for an owner that is done with it.
    pub fn take(&self) -> Vec<SeriesSnapshot> {
        let all = std::mem::take(&mut *self.lock()).into_iter();
        let mut out: Vec<SeriesSnapshot> = all.map(Series::into_snapshot).collect();
        out.sort_unstable_by(|a, b| (a.name, a.node).cmp(&(b.name, b.node)));
        out
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.lock().len()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observe_registers_nothing() {
        let t = Telemetry::new();
        t.observe(1_000, 0, "q.depth", 3.0);
        assert_eq!(t.series_count(), 0);
        assert!(t.take().is_empty());
    }

    #[test]
    fn observations_coalesce_into_sim_time_buckets() {
        let t = Telemetry::new();
        t.enable();
        // Three observations inside one 1 µs bucket, one in the next.
        t.observe(100, 0, "q.depth", 1.0);
        t.observe(400, 0, "q.depth", 5.0);
        t.observe(900, 0, "q.depth", 2.0);
        t.observe(1_500, 0, "q.depth", 7.0);
        let snap = t.take();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(
            (s.buckets[0].min, s.buckets[0].max, s.buckets[0].last),
            (1.0, 5.0, 2.0)
        );
        assert_eq!(s.buckets[0].count, 3);
        assert_eq!((s.min, s.max, s.last), (1.0, 7.0, 7.0));
        assert_eq!(s.peak_at, 1_500);
        assert_eq!(s.observations, 4);
        assert!((s.mean - 15.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn series_are_keyed_by_name_and_node() {
        let t = Telemetry::new();
        t.enable();
        t.observe(0, 0, "a", 1.0);
        t.observe(0, 1, "a", 2.0);
        t.observe(0, 0, "b", 3.0);
        let snap = t.take();
        let keys: Vec<(&str, u32)> = snap.iter().map(|s| (s.name, s.node)).collect();
        assert_eq!(keys, vec![("a", 0), ("a", 1), ("b", 0)]);
    }

    #[test]
    fn overflow_downsamples_pairwise_and_doubles_bucket_width() {
        let t = Telemetry::new();
        t.enable();
        // One observation per 1 µs bucket: cap + 64 closed buckets.
        let n = (SERIES_CAP + 64) as u64;
        for i in 0..=n {
            t.observe(i * DEFAULT_BUCKET_NS, 0, "q", i as f64);
        }
        let snap = t.take();
        let s = &snap[0];
        assert_eq!(s.bucket_ns, 2 * DEFAULT_BUCKET_NS);
        assert!(s.buckets.len() <= SERIES_CAP + 1);
        // Nothing was dropped: totals survive the merge exactly.
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, n + 1);
        assert_eq!(s.observations, n + 1);
        // Coverage is the whole run, min/max exact.
        assert_eq!(s.buckets[0].t0, 0);
        assert_eq!(s.buckets.last().unwrap().t1, n * DEFAULT_BUCKET_NS);
        assert_eq!((s.min, s.max), (0.0, n as f64));
        assert_eq!(s.peak_at, n * DEFAULT_BUCKET_NS);
        // Buckets stay time-ordered and non-overlapping after merging.
        for w in s.buckets.windows(2) {
            assert!(w[0].t1 <= w[1].t0);
        }
    }

    #[test]
    fn repeated_overflow_keeps_memory_bounded() {
        let t = Telemetry::new();
        t.enable();
        for i in 0..20_000u64 {
            t.observe(i * DEFAULT_BUCKET_NS, 0, "q", (i % 7) as f64);
        }
        let s = &t.take()[0];
        assert!(s.buckets.len() <= SERIES_CAP + 1);
        assert!(s.bucket_ns >= 64 * DEFAULT_BUCKET_NS);
        assert_eq!(s.observations, 20_000);
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 20_000, "downsampling drops no observation");
    }

    #[test]
    fn enable_clears_previous_series() {
        let t = Telemetry::new();
        t.enable();
        t.observe(0, 0, "q", 1.0);
        assert_eq!(t.series_count(), 1);
        t.enable();
        assert_eq!(t.series_count(), 0);
    }

    #[test]
    fn a_name_is_one_series_wherever_its_bytes_live_and_take_empties_the_registry() {
        let t = Telemetry::new();
        t.enable();
        // The same name from a second copy of its bytes, and a node apart.
        let copy: &'static str = String::from("rpc.depth").leak();
        for (i, (name, node)) in [("rpc.depth", 1), (copy, 1), ("rpc.depth", 2)]
            .into_iter()
            .cycle()
            .take(3 * SERIES_CAP * 3)
            .enumerate()
        {
            t.observe(i as Time * 700, node, name, i as f64);
        }
        assert_eq!(t.series_count(), 2);
        let taken = t.take();
        assert_eq!(taken[0].observations, 2 * 3 * SERIES_CAP as u64);
        assert_eq!(t.series_count(), 0);
        assert!(t.is_enabled());
    }

    #[test]
    fn snapshot_json_parses_back() {
        let t = Telemetry::new();
        t.enable();
        t.observe(100, 2, "bbp.credit_balance", 32.0);
        t.observe(2_200, 2, "bbp.credit_balance", 30.0);
        let s = &t.take()[0];
        let doc = crate::json::parse(&s.to_json()).expect("series dump must be valid JSON");
        assert_eq!(
            doc.get("metric").unwrap().as_str(),
            Some("bbp.credit_balance")
        );
        assert_eq!(doc.get("node").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("points").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("max").unwrap().as_f64(), Some(32.0));
        assert_eq!(doc.get("peak_at_ns").unwrap().as_f64(), Some(100.0));
    }
}
