//! Rows of the machine-readable report ([`obs::report::BenchReport`]).
//! The printing helpers of this crate return the row they print
//! ([`crate::report_anchor`] an [`obs::report::Anchor`],
//! [`crate::print_table`] an [`obs::report::Table`]); the functions
//! here build the other rows from a measurement. `bench-report`
//! collects them into the report it writes; the figure harnesses print
//! and drop them.

use obs::report::{Crossover, LayerRow, Layering, MessageRow, MessageStage, PAPER_LAYERING_US};

use crate::Series;

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

/// The [`crate::crossover`] of two sweeps, with the labels it compares.
pub fn crossover(incumbent: &Series, challenger: &Series) -> Crossover {
    Crossover {
        incumbent: incumbent.label.clone(),
        challenger: challenger.label.clone(),
        at_bytes: crate::crossover(incumbent, challenger),
    }
}

/// The MPI-over-BBP layering constant against the paper's
/// [`PAPER_LAYERING_US`].
pub fn layering(measured_us: f64) -> Layering {
    Layering {
        paper_us: PAPER_LAYERING_US,
        measured_us,
    }
}

/// A per-layer self-time attribution from a span breakdown.
pub fn layers(breakdown: &obs::LayerBreakdown) -> Vec<LayerRow> {
    let covered_us = breakdown.covered_ns as f64 / 1000.0;
    breakdown
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
        .collect()
}

/// One reconstructed message waterfall (times become µs relative to the
/// message's first checkpoint).
pub fn message(w: &obs::MessageWaterfall) -> MessageRow {
    let base = w.steps.first().map_or(0, |s| s.time);
    MessageRow {
        id: w.id,
        src: w.src,
        total_us: w.total_ns() as f64 / 1000.0,
        stages: w
            .steps
            .iter()
            .map(|s| MessageStage {
                stage: s.stage.name().to_string(),
                at_us: s.time.saturating_sub(base) as f64 / 1000.0,
                node: s.node,
            })
            .collect(),
    }
}

/// Quantile summary of one latency distribution, µs.
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    /// Distribution name, e.g. `"uniform"`.
    pub name: String,
    /// Sample count.
    pub n: u64,
    /// Minimum.
    pub min_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
    /// Mean.
    pub mean_us: f64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use obs::report::BenchReport;

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
    fn the_rows_validate_as_a_report() {
        let a = Series {
            label: "a".into(),
            points: vec![(0, 10.0), (64, 12.0)],
        };
        let b = Series {
            label: "b".into(),
            points: vec![(0, 20.0), (64, 11.0)],
        };
        let waterfall = obs::MessageWaterfall {
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
        };
        let r = BenchReport {
            generated_by: "test".into(),
            anchors: vec![crate::report_anchor("BBP one-way 0 B", 6.5, 6.6)],
            tables: vec![crate::print_table("t", &[a.clone(), b.clone()])],
            crossovers: vec![crossover(&a, &b)],
            layering: Some(layering(37.0)),
            messages: vec![message(&waterfall)],
            ..BenchReport::default()
        };
        assert_eq!(r.anchors[0].name, "bbp_one_way_0_b");
        assert_eq!(
            (r.tables[0].unit.as_str(), &r.tables[0].sizes[..]),
            ("µs", &[0, 64][..])
        );
        assert_eq!(r.tables[0].series[1].values, [20.0, 11.0]);
        assert_eq!(r.crossovers[0].at_bytes, Some(64));
        let m = &r.messages[0];
        assert_eq!((m.stages.len(), m.stages[1].at_us), (2, 8.4));
        assert!((m.total_us - 8.4).abs() < 1e-9);
        obs::report::validate_json(&r.to_json()).unwrap();
    }
}
