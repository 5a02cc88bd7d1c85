//! `benchmark compare A.json B.json`: judge run B against run A by each
//! end-to-end metric's direction and bound, workload by workload.
//!
//! Everything read from the simulation must be identical when the seeds
//! are: fingerprints and exact metrics are compared for equality, not
//! against a bound. A host-time metric (the fastest repetition of each
//! run) regresses when B's value is worse than A's by more than the
//! bound; when it is not, but in either run the fastest repetition
//! stands further than the bound from the quartile of repetitions
//! nearest to it, that run never settled and the two cannot tell a
//! change of that size from noise: the verdict is `unresolved`, not
//! `unchanged` — unless every repetition of B beat every repetition
//! of A.

use crate::json::{self, Json};
use crate::spec::{self, Better, Metric, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Regressed,
    /// An exact metric or a fingerprint differs between equal seeds.
    Changed,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Changed => "CHANGED",
        }
    }
}

/// A metric's reported value with, from the repetitions of the run
/// behind it, the quartile on the value's own (better) side and the
/// worst repetition; both equal the value for a single reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub near: f64,
    pub worst: f64,
}

impl Reading {
    /// How far the value stands from the quartile on its own side, as a
    /// share of the value.
    fn unsettled(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.value - self.near).abs() / self.value.abs()
        }
    }
}

/// By how much of A's median B is worse (positive) or better (negative).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(m: &Metric, a: Reading, b: Reading, same_seed: bool) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics have bounds");
    if m.exact && same_seed {
        return if a.value == b.value {
            Verdict::Unchanged
        } else {
            Verdict::Changed
        };
    }
    let worse = worsening(m, a.value, b.value);
    if worse > bound {
        return Verdict::Regressed;
    }
    let b_wholly_better = match m.better {
        Better::Lower => b.worst < a.value.min(a.near),
        Better::Higher => b.worst > a.value.max(a.near),
    };
    if a.unsettled().max(b.unsettled()) > bound {
        return if b_wholly_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn reading(entry: &Json, better: Better) -> Option<Reading> {
    let value = entry.get("value")?.as_f64()?;
    let or_value = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(value);
    let (near, worst) = match better {
        Better::Lower => ("q1", "max"),
        Better::Higher => ("q3", "min"),
    };
    Some(Reading {
        value,
        near: or_value(near),
        worst: or_value(worst),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").is_some_and(Json::is_obj) {
        Ok(doc)
    } else {
        Err(format!(
            "{path}: not a results.json (no \"workloads\" object)"
        ))
    }
}

/// Compare two parsed results; returns the report and whether B passes.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let mut pass = true;
    if !same_seed {
        out.push_str("seeds differ: fingerprints and exact metrics are judged by bound only\n");
    }
    for w in Workload::ALL {
        let entry = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()).cloned())
        };
        let (Some(wa), Some(wb)) = (entry(a), entry(b)) else {
            out.push_str(&format!("{}: missing from one run\n", w.name()));
            pass = false;
            continue;
        };
        out.push_str(&format!("{}:\n", w.name()));
        for (label, doc) in [("A", &wa), ("B", &wb)] {
            if doc.get("correct") != Some(&Json::Bool(true)) {
                out.push_str(&format!("  run {label} failed its output checks\n"));
                pass = false;
            }
            if doc.get("noisy") == Some(&Json::Bool(true)) {
                out.push_str(&format!("  run {label} was flagged noisy by its probes\n"));
            }
        }
        if same_seed {
            let print = |doc: &Json| {
                doc.get("fingerprint")
                    .and_then(Json::as_str)
                    .map(String::from)
            };
            let same = print(&wa).is_some() && print(&wa) == print(&wb);
            out.push_str(&format!(
                "  {:<22} {}\n",
                "fingerprint",
                if same { "equal" } else { "CHANGED" }
            ));
            pass &= same;
        }
        for m in spec::end_to_end() {
            let get = |doc: &Json| reading(doc.get("end_to_end")?.get(&m.name)?, m.better);
            let (Some(ra), Some(rb)) = (get(&wa), get(&wb)) else {
                out.push_str(&format!("  {:<22} missing from one run\n", m.name));
                pass = false;
                continue;
            };
            let verdict = judge(&m, ra, rb, same_seed);
            let worse = worsening(&m, ra.value, rb.value);
            pass &= !verdict.fails();
            out.push_str(&format!(
                "  {:<22} {:>14.6} -> {:>14.6} {:<7} {:>6.2}% {:<6} (bound {:.0}%, unsettled {:.1}% / {:.1}%)  {}\n",
                m.name,
                ra.value,
                rb.value,
                m.unit,
                worse.abs() * 100.0,
                if worse > 0.0 { "worse" } else { "better" },
                m.bound.unwrap_or(0.0) * 100.0,
                ra.unsettled() * 100.0,
                rb.unsettled() * 100.0,
                verdict.as_str(),
            ));
        }
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

pub fn run(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two results.json paths".to_string());
    };
    let (report, pass) = compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Metric {
        spec::end_to_end()
            .into_iter()
            .find(|m| m.name == name)
            .expect("a listed metric")
    }

    /// A settled run of a higher-is-better metric: the fastest
    /// repetition 1 % above the upper quartile, the slowest 3 % below.
    fn tight(v: f64) -> Reading {
        Reading {
            value: v,
            near: v * 0.99,
            worst: v * 0.97,
        }
    }

    /// The same for a lower-is-better metric.
    fn tight_low(v: f64) -> Reading {
        Reading {
            value: v,
            near: v * 1.01,
            worst: v * 1.03,
        }
    }

    #[test]
    fn host_metrics_are_judged_by_direction_and_bound() {
        let ops = metric("ops_per_host_s"); // higher is better, 20 %
        assert_eq!(
            judge(&ops, tight(100.0), tight(101.0), true),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&ops, tight(100.0), tight(75.0), true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&ops, tight(100.0), tight(125.0), true),
            Verdict::Improved
        );
        let setup = metric("setup_s"); // lower is better, 25 %
        assert_eq!(
            judge(&setup, tight_low(1.0), tight_low(1.3), true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&setup, tight_low(1.0), tight_low(1.2), true),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_run_that_never_settled_is_unresolved_not_unchanged() {
        let ops = metric("ops_per_host_s");
        // The fastest repetition is far ahead of even the upper quartile.
        let wide = Reading {
            value: 100.0,
            near: 75.0,
            worst: 60.0,
        };
        assert_eq!(judge(&ops, wide, tight(101.0), true), Verdict::Unresolved);
        // ... unless every repetition of B beat every repetition of A.
        assert_eq!(judge(&ops, wide, tight(110.0), true), Verdict::Improved);
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(&ops, wide, tight(70.0), true), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_must_be_equal_under_one_seed() {
        let sim = metric("sim_us_per_op");
        let exact = |v: f64| Reading {
            value: v,
            near: v,
            worst: v,
        };
        assert_eq!(
            judge(&sim, exact(13.7), exact(13.7), true),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&sim, exact(13.7), exact(13.7001), true),
            Verdict::Changed
        );
        // Across seeds the inputs differ, so only the bound applies.
        assert_eq!(
            judge(&sim, exact(13.7), exact(13.9), false),
            Verdict::Unchanged
        );
    }

    fn results(fingerprint: &str, ops_per_s: f64) -> Json {
        let entry = |v: f64| {
            json::obj([
                ("value", json::num(v)),
                ("min", json::num(v * 0.97)),
                ("q1", json::num(v * 0.98)),
                ("q3", json::num(v * 0.99)),
                ("max", json::num(v)),
            ])
        };
        let workload = json::obj([
            ("correct", Json::Bool(true)),
            ("fingerprint", json::string(fingerprint)),
            (
                "end_to_end",
                json::obj(spec::end_to_end().into_iter().map(|m| {
                    let v = if m.name == "ops_per_host_s" {
                        ops_per_s
                    } else {
                        1.0
                    };
                    (m.name, entry(v))
                })),
            ),
        ]);
        json::obj([
            ("seed", json::num(1999.0)),
            (
                "workloads",
                json::obj(Workload::ALL.map(|w| (w.name(), workload.clone()))),
            ),
        ])
    }

    #[test]
    fn whole_results_pass_or_fail() {
        let base = results("00ff", 100.0);
        assert!(compare(&base, &results("00ff", 99.0)).1);
        let (report, pass) = compare(&base, &results("00ff", 50.0));
        assert!(!pass && report.contains("REGRESSED"), "{report}");
        let (report, pass) = compare(&base, &results("beef", 100.0));
        assert!(
            !pass && report.contains("fingerprint            CHANGED"),
            "{report}"
        );
    }
}
