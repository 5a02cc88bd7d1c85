//! Spans recorded from the benchmark's own files around each call into
//! a layer, on both clocks: host time (`Instant`) and simulated time
//! (`ProcCtx::now`). Buffers are preallocated and owned by one thread
//! each; nothing is written out until the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Json};

/// Index of a span inside its [`Tracer`]; `NONE` for "no parent" and for
/// every span of a tracer that is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the spanned call enters (`bench` for the benchmark's
    /// own root spans).
    pub layer: &'static str,
    /// Spans of one op share this id across tracks.
    pub op_id: u32,
    pub parent: SpanId,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }
}

/// One thread's span buffer. An `off` tracer never reads the host clock
/// and never allocates, so the untraced pass pays one branch per site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    /// Chrome-trace thread id: 0 for the driver thread, rank + 1 for a
    /// simulated process.
    pub track: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            track: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer. `epoch` is shared by all tracks of one
    /// repetition so their host times line up; `capacity` spans are
    /// allocated up front.
    pub fn on(epoch: Instant, track: u32, capacity: usize) -> Self {
        Tracer {
            epoch: Some(epoch),
            track,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The same mode (and epoch) as `self`, for another track.
    pub fn sibling(&self, track: u32, capacity: usize) -> Self {
        match self.epoch {
            Some(epoch) => Tracer::on(epoch, track, capacity),
            None => Tracer::off(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    #[inline]
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u32,
        parent: SpanId,
        sim_now: u64,
    ) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId::NONE;
        };
        let id = SpanId(self.spans.len() as u32);
        let now = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent,
            host_start_ns: now,
            host_end_ns: now,
            sim_start_ns: sim_now,
            sim_end_ns: sim_now,
        });
        id
    }

    #[inline]
    pub fn close(&mut self, id: SpanId, sim_now: u64) {
        let Some(epoch) = self.epoch else { return };
        let span = &mut self.spans[id.0 as usize];
        span.host_end_ns = epoch.elapsed().as_nanos() as u64;
        span.sim_end_ns = sim_now;
    }
}

/// Host self time per span name over a set of tracks: a span's duration
/// minus the part its direct children cover.
pub fn self_host_ns(tracks: &[&Tracer]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for t in tracks {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0 as usize] += s.host_ns();
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += s.host_ns().saturating_sub(covered);
        }
    }
    out
}

/// Host durations (µs) of every span called `name`.
pub fn host_us_samples(tracks: &[&Tracer], name: &str) -> Vec<f64> {
    tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .map(|s| s.host_ns() as f64 / 1e3)
        .collect()
}

/// Mean simulated duration (µs) of the spans called `name`; 0 if none.
pub fn mean_sim_us(tracks: &[&Tracer], name: &str) -> f64 {
    let (sum, n) = tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(sum, n), s| (sum + s.sim_ns(), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// Per op id, the extent of the spans called `name` across `tracks`:
/// first start to last end, as (host ns, simulated ns). This is how a
/// collective is timed to its last rank out. All tracks must share one
/// epoch, i.e. come from one leg.
pub fn op_extents(tracks: &[Tracer], name: &str) -> Vec<(u64, u64)> {
    let mut by_op: BTreeMap<u32, [u64; 4]> = BTreeMap::new();
    for s in tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
    {
        let e = by_op.entry(s.op_id).or_insert([u64::MAX, 0, u64::MAX, 0]);
        e[0] = e[0].min(s.host_start_ns);
        e[1] = e[1].max(s.host_end_ns);
        e[2] = e[2].min(s.sim_start_ns);
        e[3] = e[3].max(s.sim_end_ns);
    }
    by_op.values().map(|e| (e[1] - e[0], e[3] - e[2])).collect()
}

/// The most spans one Chrome trace file holds; the head of each track is
/// kept, which is where set-up and the first ops are.
const CHROME_SPAN_CAP: usize = 60_000;

/// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
/// one complete event per span on the host clock, with the simulated
/// clock and the span's identity in `args`. Each leg is a Chrome
/// "process" holding one "thread" per track; legs have their own host
/// epochs, so each is shifted to start where the previous one ended.
pub fn chrome_trace_json(workload: &str, legs: &[&[Tracer]]) -> String {
    let tracks = legs.iter().map(|l| l.len()).sum::<usize>().max(1);
    let per_track = CHROME_SPAN_CAP / tracks;
    let mut events = Vec::new();
    let mut offset_ns = 0;
    for (leg, tracers) in legs.iter().enumerate() {
        let pid = json::num(leg as f64 + 1.0);
        let mut leg_end_ns = offset_ns;
        for t in tracers.iter() {
            let name = if t.track == 0 {
                "driver".to_string()
            } else {
                format!("proc {}", t.track - 1)
            };
            events.push(json::obj([
                ("name", json::string("thread_name")),
                ("ph", json::string("M")),
                ("pid", pid.clone()),
                ("tid", json::num(f64::from(t.track))),
                ("args", json::obj([("name", json::string(name))])),
            ]));
            for (i, s) in t.spans.iter().enumerate() {
                leg_end_ns = leg_end_ns.max(offset_ns + s.host_end_ns);
                if i >= per_track {
                    continue;
                }
                let parent = if s.parent == SpanId::NONE {
                    Json::Null
                } else {
                    json::num(f64::from(s.parent.0))
                };
                events.push(json::obj([
                    ("name", json::string(s.name)),
                    ("cat", json::string(s.layer)),
                    ("ph", json::string("X")),
                    ("pid", pid.clone()),
                    ("tid", json::num(f64::from(t.track))),
                    ("ts", json::num((offset_ns + s.host_start_ns) as f64 / 1e3)),
                    ("dur", json::num(s.host_ns() as f64 / 1e3)),
                    (
                        "args",
                        json::obj([
                            ("span", json::num(i as f64)),
                            ("parent", parent),
                            ("op_id", json::num(f64::from(s.op_id))),
                            ("sim_start_ns", json::num(s.sim_start_ns as f64)),
                            ("sim_end_ns", json::num(s.sim_end_ns as f64)),
                        ]),
                    ),
                ]));
            }
        }
        offset_ns = leg_end_ns;
    }
    json::to_string(&json::obj([
        ("displayTimeUnit", json::string("ns")),
        (
            "otherData",
            json::obj([("workload", json::string(workload))]),
        ),
        ("traceEvents", Json::Arr(events)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("op", "bench", 0, SpanId::NONE, 5);
        t.close(id, 9);
        assert_eq!(id, SpanId::NONE);
        assert!(t.spans.is_empty());
        assert!(!t.sibling(3, 100).is_on());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on(Instant::now(), 1, 8);
        let op = t.open("op", "bench", 7, SpanId::NONE, 100);
        let send = t.open("bbp.send", "bbp", 7, op, 100);
        t.close(send, 160);
        t.close(op, 200);
        // Pin the host clock so the arithmetic is checkable.
        t.spans[0].host_start_ns = 0;
        t.spans[0].host_end_ns = 1000;
        t.spans[1].host_start_ns = 100;
        t.spans[1].host_end_ns = 400;
        let legs = [t];
        let tracks: Vec<&Tracer> = legs.iter().collect();
        let own = self_host_ns(&tracks);
        assert_eq!(own["op"], 700);
        assert_eq!(own["bbp.send"], 300);
        assert_eq!(host_us_samples(&tracks, "bbp.send"), vec![0.3]);
        assert_eq!(mean_sim_us(&tracks, "bbp.send"), 0.06);
        assert_eq!(mean_sim_us(&tracks, "absent"), 0.0);

        assert_eq!(op_extents(&legs, "bbp.send"), vec![(300, 60)]);

        let text = chrome_trace_json("demo", &[&legs]);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3, "thread name + two spans");
        let send = &events[2];
        assert_eq!(send.get("name").and_then(Json::as_str), Some("bbp.send"));
        assert_eq!(send.get("cat").and_then(Json::as_str), Some("bbp"));
        let args = send.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("op_id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(args.get("sim_end_ns").and_then(Json::as_f64), Some(160.0));
    }
}
