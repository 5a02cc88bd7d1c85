//! The declarative health monitor: invariants over telemetry series.
//!
//! Every campaign (fault, chaos, partition, workload) used to
//! re-implement its invariants as ad-hoc test code — "residency never
//! exceeded the pool", "the unexpected queue drained", "membership
//! didn't flap". A [`HealthSpec`] states those as rules over the gauge
//! series recorded by [`crate::timeseries::Telemetry`]:
//!
//! - [`never_above`](HealthSpec::never_above) — the series' max must
//!   never exceed a threshold (pool residency, park bounds);
//! - [`settles_to_zero_by`](HealthSpec::settles_to_zero_by) — the
//!   series must be zero from a deadline onward (drain checks).
//!
//! Evaluation consumes a [`Telemetry::snapshot`] and produces typed
//! [`Violation`]s carrying the offending metric, node, and sim-time
//! window, so a failing campaign cell can dump exactly the series that
//! broke the rule next to its flight-ring postmortem. A rule none of
//! whose series was ever sampled is a violation too
//! ([`Finding::Unsampled`]): a judge that passes because the gauge was
//! never wired is no judge.
//!
//! Resolution caveat: rules read bucket maxima. `never_above`'s verdict
//! survives downsampling exactly (a merged bucket's max is its halves');
//! `settles_to_zero_by` judges a bucket that straddles the deadline as
//! past it, so a coarse series can flag a drain that finished just
//! before the deadline but never pass one that did not.
//!
//! [`Telemetry::snapshot`]: crate::timeseries::Telemetry::snapshot

use crate::timeseries::SeriesSnapshot;
use crate::Time;

/// One declarative rule (see [`HealthSpec`] builder methods).
#[derive(Debug, Clone)]
enum RuleKind {
    NeverAbove { threshold: f64 },
    SettlesToZeroBy { deadline_ns: Time },
}

#[derive(Debug, Clone)]
struct Rule {
    metric: String,
    node: Option<u32>,
    kind: RuleKind,
}

impl Rule {
    fn describe(&self) -> String {
        let scope = match self.node {
            Some(n) => format!("{}@{n}", self.metric),
            None => self.metric.clone(),
        };
        match &self.kind {
            RuleKind::NeverAbove { threshold } => format!("never_above({scope} <= {threshold})"),
            RuleKind::SettlesToZeroBy { deadline_ns } => {
                format!("settles_to_zero_by({scope}, {deadline_ns}ns)")
            }
        }
    }
}

/// Why a rule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// A sampled series broke the rule.
    Breached,
    /// No series the rule names (on the node it is scoped to, if any)
    /// was ever sampled, so the rule judged nothing.
    Unsampled,
}

/// A rule that failed: which invariant, on which series, where in sim
/// time, and what was observed there.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Whether a series broke the rule or none existed to judge.
    pub finding: Finding,
    /// Human-readable rendering of the violated rule.
    pub rule: String,
    /// Metric name of the offending series.
    pub metric: String,
    /// Node of the offending series; for an unsampled rule
    /// the node it is scoped to, or [`crate::NO_NODE`].
    pub node: u32,
    /// Sim-time window `[t0, t1]` where the rule broke (`(0, 0)` when
    /// unsampled).
    pub window: (Time, Time),
    /// The observed value that broke the rule (the bucket maximum over
    /// the threshold, or the residue past the deadline; 0 when
    /// unsampled).
    pub observed: f64,
}

impl Violation {
    /// One-line rendering for campaign violation digests.
    pub fn describe(&self) -> String {
        match self.finding {
            Finding::Breached => format!(
                "health: {} violated by {}@{} in [{}ns, {}ns]: observed {}",
                self.rule, self.metric, self.node, self.window.0, self.window.1, self.observed
            ),
            Finding::Unsampled => format!(
                "health: {} judged nothing: no such series was ever sampled",
                self.rule
            ),
        }
    }
}

/// A set of health rules evaluated together over one telemetry
/// snapshot. Build with the chained rule methods; scope the most
/// recently added rule to one node with [`on_node`](Self::on_node)
/// (default: every node that recorded the metric).
#[derive(Debug, Clone, Default)]
pub struct HealthSpec {
    rules: Vec<Rule>,
}

impl HealthSpec {
    /// An empty spec (always passes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail if `metric` ever exceeds `threshold`.
    pub fn never_above(mut self, metric: &str, threshold: f64) -> Self {
        self.rules.push(Rule {
            metric: metric.to_string(),
            node: None,
            kind: RuleKind::NeverAbove { threshold },
        });
        self
    }

    /// Fail unless `metric` is zero from `deadline_ns` onward (and ends
    /// at zero). The drain check: queues may fill mid-run but must be
    /// empty by the deadline and stay empty.
    pub fn settles_to_zero_by(mut self, metric: &str, deadline_ns: Time) -> Self {
        self.rules.push(Rule {
            metric: metric.to_string(),
            node: None,
            kind: RuleKind::SettlesToZeroBy { deadline_ns },
        });
        self
    }

    /// Scope the most recently added rule to `node` only.
    pub fn on_node(mut self, node: u32) -> Self {
        if let Some(r) = self.rules.last_mut() {
            r.node = Some(node);
        }
        self
    }

    /// Number of rules in the spec.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the spec has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate every rule against `snapshot`, returning all
    /// violations (empty = healthy). A rule that finds no series to
    /// judge is reported as [`Finding::Unsampled`], so a spec names only
    /// what its cell instruments.
    pub fn evaluate(&self, snapshot: &[SeriesSnapshot]) -> Vec<Violation> {
        let mut out = Vec::new();
        for rule in &self.rules {
            let mut sampled = false;
            for s in snapshot {
                if s.name != rule.metric || rule.node.is_some_and(|n| n != s.node) {
                    continue;
                }
                sampled = true;
                if let Some((window, observed)) = check(&rule.kind, s) {
                    out.push(Violation {
                        finding: Finding::Breached,
                        rule: rule.describe(),
                        metric: s.name.to_string(),
                        node: s.node,
                        window,
                        observed,
                    });
                }
            }
            if !sampled {
                out.push(Violation {
                    finding: Finding::Unsampled,
                    rule: rule.describe(),
                    metric: rule.metric.clone(),
                    node: rule.node.unwrap_or(crate::NO_NODE),
                    window: (0, 0),
                    observed: 0.0,
                });
            }
        }
        out
    }

    /// Evaluate and, for every violation, dump the offending series'
    /// JSON next to the flight-ring postmortems (see
    /// [`SeriesSnapshot::dump_to_dir`]). Returns the violations.
    pub fn evaluate_and_dump(&self, snapshot: &[SeriesSnapshot], label: &str) -> Vec<Violation> {
        let violations = self.evaluate(snapshot);
        for v in &violations {
            if let Some(s) = snapshot
                .iter()
                .find(|s| s.name == v.metric && s.node == v.node)
            {
                s.dump_to_dir(label);
            }
        }
        violations
    }
}

/// Check one rule against one matching series. Returns the offending
/// window and observed value on failure.
fn check(kind: &RuleKind, s: &SeriesSnapshot) -> Option<((Time, Time), f64)> {
    match kind {
        RuleKind::NeverAbove { threshold } => {
            let b = s.buckets.iter().find(|b| b.max > *threshold)?;
            Some(((b.t0, b.t1), b.max))
        }
        RuleKind::SettlesToZeroBy { deadline_ns } => {
            if s.last != 0.0 {
                let (t0, t1) = s.buckets.last().map_or((0, 0), |b| (b.t0, b.t1));
                return Some(((t0, t1), s.last));
            }
            let b = s
                .buckets
                .iter()
                .rev()
                .find(|b| b.max != 0.0 && b.t1 > *deadline_ns)?;
            Some(((b.t0, b.t1), b.max))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::Telemetry;

    fn series(points: &[(Time, f64)]) -> Vec<SeriesSnapshot> {
        let t = Telemetry::new();
        t.enable();
        for (time, v) in points {
            t.observe(*time, 0, "m", *v);
        }
        t.snapshot()
    }

    #[test]
    fn never_above_passes_at_threshold_and_fails_over_it() {
        let snap = series(&[(0, 1.0), (1_000, 4.0), (2_000, 2.0)]);
        assert!(HealthSpec::new()
            .never_above("m", 4.0)
            .evaluate(&snap)
            .is_empty());
        let v = HealthSpec::new().never_above("m", 3.0).evaluate(&snap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].window, (1_000, 1_000));
        assert_eq!(v[0].observed, 4.0);
        assert!(v[0].describe().contains("never_above"));
    }

    #[test]
    fn settles_to_zero_by_checks_deadline_and_residue() {
        let drained = series(&[(0, 3.0), (2_000, 1.0), (4_000, 0.0)]);
        assert!(HealthSpec::new()
            .settles_to_zero_by("m", 5_000)
            .evaluate(&drained)
            .is_empty());
        // Non-zero activity after the deadline.
        let late = HealthSpec::new()
            .settles_to_zero_by("m", 3_000)
            .evaluate(&drained);
        assert_eq!(late.len(), 0, "bucket at 4000 is already zero");
        let late = HealthSpec::new()
            .settles_to_zero_by("m", 1_000)
            .evaluate(&drained);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].window, (2_000, 2_000));
        // Ends non-zero: always a violation.
        let stuck = series(&[(0, 3.0), (2_000, 2.0)]);
        let v = HealthSpec::new()
            .settles_to_zero_by("m", 10_000)
            .evaluate(&stuck);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].observed, 2.0);
    }

    #[test]
    fn node_scoping_and_unsampled_metrics() {
        let t = Telemetry::new();
        t.enable();
        t.observe(0, 0, "m", 1.0);
        t.observe(0, 1, "m", 9.0);
        let snap = t.snapshot();
        // Scoped to the healthy node: passes.
        assert!(HealthSpec::new()
            .never_above("m", 5.0)
            .on_node(0)
            .evaluate(&snap)
            .is_empty());
        // Unscoped: node 1 violates.
        let v = HealthSpec::new().never_above("m", 5.0).evaluate(&snap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].node, 1);
        // A metric nobody recorded, or recorded only on other nodes
        // than the rule's, is a violation of its own kind.
        for spec in [
            HealthSpec::new().never_above("ghost", 0.0),
            HealthSpec::new().never_above("m", 99.0).on_node(2),
        ] {
            let v = spec.evaluate_and_dump(&snap, "unit_unsampled");
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].finding, Finding::Unsampled);
            assert!(v[0].describe().contains("judged nothing"));
        }
        assert_eq!(v[0].finding, Finding::Breached);
    }

    #[test]
    fn evaluate_and_dump_writes_the_offending_series() {
        let dir = std::env::temp_dir().join(format!("obs_health_dump_{}", std::process::id()));
        std::env::set_var("FLIGHT_DUMP_DIR", &dir);
        let snap = series(&[(0, 5.0)]);
        let v = HealthSpec::new()
            .never_above("m", 1.0)
            .evaluate_and_dump(&snap, "unit");
        std::env::remove_var("FLIGHT_DUMP_DIR");
        assert_eq!(v.len(), 1);
        let path = dir.join("series_unit_m_0.json");
        let text = std::fs::read_to_string(&path).expect("series dump must exist");
        assert!(crate::json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
