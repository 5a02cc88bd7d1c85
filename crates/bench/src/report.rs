//! Global report sink: while a [`obs::report::BenchReport`] is armed
//! here, the printing helpers in this crate ([`crate::print_table`],
//! [`crate::report_anchor`], [`crate::crossover`]) also record what they
//! print, so a harness gets the machine-readable `BENCH_summary.json`
//! for free alongside its console tables. When no report is armed the
//! helpers print exactly as before.

use obs::report::{
    Anchor, BenchReport, Crossover, LayerRow, Layering, Quantiles, Series as ReportSeries, Table,
    PAPER_LAYERING_US,
};
use parking_lot::Mutex;

use crate::Series;

static SINK: Mutex<Option<BenchReport>> = Mutex::new(None);

/// Arm the sink with a fresh report (replacing any armed one).
pub fn begin(generated_by: impl Into<String>) {
    *SINK.lock() = Some(BenchReport {
        generated_by: generated_by.into(),
        ..BenchReport::default()
    });
}

/// Disarm the sink and return the accumulated report, if one was armed.
pub fn finish() -> Option<BenchReport> {
    SINK.lock().take()
}

/// Run `f` on the armed report; a no-op when the sink is disarmed.
pub(crate) fn with(f: impl FnOnce(&mut BenchReport)) {
    if let Some(r) = SINK.lock().as_mut() {
        f(r);
    }
}

/// Anchor ids are slugs of the human-readable description, e.g.
/// `"MPI one-way 0 B (SCRAMNet)"` → `"mpi_one_way_0_b_scramnet"`.
pub(crate) fn slug(what: &str) -> String {
    let mut out = String::with_capacity(what.len());
    for c in what.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

pub(crate) fn record_anchor(what: &str, paper_us: f64, measured_us: f64) {
    with(|r| {
        r.anchors.push(Anchor {
            name: slug(what),
            paper_us,
            measured_us,
        })
    });
}

pub(crate) fn record_table(title: &str, unit: &str, series: &[Series]) {
    with(|r| {
        r.tables.push(Table {
            title: title.to_string(),
            unit: unit.to_string(),
            sizes: series[0].points.iter().map(|&(s, _)| s).collect(),
            series: series
                .iter()
                .map(|s| ReportSeries {
                    label: s.label.clone(),
                    values: s.points.iter().map(|&(_, v)| v).collect(),
                })
                .collect(),
        })
    });
}

pub(crate) fn record_crossover(incumbent: &Series, challenger: &Series, at_bytes: Option<usize>) {
    with(|r| {
        r.crossovers.push(Crossover {
            incumbent: incumbent.label.clone(),
            challenger: challenger.label.clone(),
            at_bytes,
        })
    });
}

/// Record the MPI-over-BBP layering constant against the paper's
/// [`PAPER_LAYERING_US`].
pub fn set_layering(measured_us: f64) {
    with(|r| {
        r.layering = Some(Layering {
            paper_us: PAPER_LAYERING_US,
            measured_us,
        })
    });
}

/// Record a per-layer self-time attribution from a span breakdown.
pub fn set_layers(breakdown: &obs::LayerBreakdown) {
    let covered_us = breakdown.covered_ns as f64 / 1000.0;
    with(|r| {
        r.layers = breakdown
            .rows_us()
            .into_iter()
            .map(|(layer, self_us)| LayerRow {
                layer: layer.name().to_string(),
                self_us,
                share_pct: if covered_us > 0.0 {
                    self_us / covered_us * 100.0
                } else {
                    0.0
                },
            })
            .collect();
    });
}

/// The quantile summary of raw latency samples (nanoseconds, as
/// recorded by the simulator): nearest-rank on the sorted samples, so
/// every statistic is exact. No samples give an all-zero row.
pub fn quantiles_of(name: impl Into<String>, samples: &[des::Time]) -> Quantiles {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let at = |q: f64| match n {
        0 => 0.0,
        _ => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64 / 1000.0,
    };
    let sum: u128 = sorted.iter().map(|&s| s as u128).sum();
    Quantiles {
        name: name.into(),
        n: n as u64,
        min_us: at(0.0),
        p50_us: at(0.5),
        p90_us: at(0.9),
        p99_us: at(0.99),
        p999_us: at(0.999),
        max_us: at(1.0),
        mean_us: sum as f64 / n.max(1) as f64 / 1000.0,
    }
}

/// Record the [`quantiles_of`] raw latency samples.
pub fn push_quantiles(name: impl Into<String>, samples: &[des::Time]) {
    let q = quantiles_of(name, samples);
    with(|r| r.quantiles.push(q));
}

/// Record the quantile summary of an [`obs::LogHistogram`] (log-bucket
/// resolution: every statistic is a bucket midpoint).
pub fn push_quantiles_log(name: impl Into<String>, hist: &obs::LogHistogram) {
    let us = |ns: u64| ns as f64 / 1000.0;
    with(|r| {
        r.quantiles.push(Quantiles {
            name: name.into(),
            n: hist.count(),
            min_us: us(hist.min()),
            p50_us: us(hist.p50()),
            p90_us: us(hist.quantile(0.9)),
            p99_us: us(hist.p99()),
            p999_us: us(hist.p999()),
            max_us: us(hist.max()),
            mean_us: hist.mean() / 1000.0,
        })
    });
}

/// Record one reconstructed message waterfall (times become µs relative
/// to the message's first checkpoint).
pub fn push_message(w: &obs::MessageWaterfall) {
    let base = w.steps.first().map_or(0, |s| s.time);
    with(|r| {
        r.messages.push(obs::report::MessageRow {
            id: w.id,
            src: w.src,
            total_us: w.total_ns() as f64 / 1000.0,
            stages: w
                .steps
                .iter()
                .map(|s| obs::report::MessageStage {
                    stage: s.stage.name().to_string(),
                    at_us: s.time.saturating_sub(base) as f64 / 1000.0,
                    node: s.node,
                })
                .collect(),
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global and the test harness is multi-threaded,
    // so tests that arm/disarm it serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn slug_flattens_punctuation() {
        assert_eq!(
            slug("MPI one-way 0 B (SCRAMNet)"),
            "mpi_one_way_0_b_scramnet"
        );
        assert_eq!(slug("  --weird--  "), "weird");
        assert_eq!(slug(""), "");
    }

    #[test]
    fn sample_quantiles_are_nearest_rank_and_exact() {
        let samples: Vec<des::Time> = (1..=100).rev().map(|i| i * 1000).collect();
        let q = quantiles_of("d", &samples);
        assert_eq!(q.n, 100);
        assert_eq!((q.min_us, q.max_us, q.mean_us), (1.0, 100.0, 50.5));
        assert_eq!((q.p50_us, q.p90_us, q.p99_us), (50.0, 90.0, 99.0));
        assert_eq!(q.p999_us, 100.0);

        let one = quantiles_of("one", &[7_000]);
        assert_eq!(
            (one.min_us, one.p50_us, one.p999_us, one.max_us),
            (7.0, 7.0, 7.0, 7.0)
        );

        let empty = quantiles_of("empty", &[]);
        assert_eq!(empty.n, 0);
        for v in [
            empty.min_us,
            empty.p50_us,
            empty.p90_us,
            empty.p99_us,
            empty.p999_us,
            empty.max_us,
            empty.mean_us,
        ] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn disarmed_sink_ignores_records() {
        let _g = TEST_LOCK.lock();
        let _ = finish();
        record_anchor("x", 1.0, 1.0);
        assert!(finish().is_none());
    }

    #[test]
    fn armed_sink_accumulates_and_validates() {
        let _g = TEST_LOCK.lock();
        begin("test");
        record_anchor("BBP one-way 0 B", 6.5, 6.6);
        let a = Series {
            label: "a".into(),
            points: vec![(0, 10.0), (64, 12.0)],
        };
        let b = Series {
            label: "b".into(),
            points: vec![(0, 20.0), (64, 11.0)],
        };
        record_table("t", "us", &[a.clone(), b.clone()]);
        record_crossover(&a, &b, Some(64));
        set_layering(37.0);
        push_quantiles("d", &[1000, 2000, 3000]);
        let lh = obs::LogHistogram::new();
        for ns in [900, 1100, 500_000] {
            lh.record(ns);
        }
        push_quantiles_log("detect", &lh);
        push_message(&obs::MessageWaterfall {
            id: (1 << 40) | 5,
            src: 0,
            steps: vec![
                obs::WaterfallStep {
                    time: 1_000,
                    node: 0,
                    stage: obs::Stage::SendEnter,
                    arg: 0,
                },
                obs::WaterfallStep {
                    time: 9_400,
                    node: 1,
                    stage: obs::Stage::Deliver,
                    arg: 0,
                },
            ],
        });
        let r = finish().expect("armed");
        // Sibling tests may run concurrently and append to the armed
        // sink, so match our records by identity rather than position.
        assert!(r.anchors.iter().any(|a| a.name == "bbp_one_way_0_b"));
        assert!(r
            .tables
            .iter()
            .any(|t| t.title == "t" && t.sizes == [0, 64]));
        assert!(r
            .crossovers
            .iter()
            .any(|c| c.incumbent == "a" && c.challenger == "b" && c.at_bytes == Some(64)));
        assert!(r.quantiles.iter().any(|q| q.name == "d" && q.n == 3));
        assert!(r
            .quantiles
            .iter()
            .any(|q| q.name == "detect" && q.p999_us >= q.p50_us));
        assert!(r
            .messages
            .iter()
            .any(|m| m.src == 0 && m.stages.len() == 2 && (m.total_us - 8.4).abs() < 1e-9));
        obs::report::validate_json(&r.to_json()).unwrap();
    }
}
