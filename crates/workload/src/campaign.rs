//! The campaign matrix: (scenario × seed × size × load multiplier)
//! cells, like the fault campaign one layer up the stack, walked by the
//! same [`obs::campaign`] runner. Each cell runs [`run_cell`]; the
//! matrix folds into the `capacity` section of the bench report — per
//! scenario, the max sustainable load at the scenario's p999 SLO
//! target, found by a deterministic load-multiplier sweep.

use des::{ms, us};
use obs::campaign::{matrix, Cell, Coord};
use obs::report::{BenchReport, CapacityCell, CapacityScenario};

use crate::arrivals::ServiceTime;
use crate::cell::{run_cell, CellOutcome};
use crate::plan::{Shape, Sidecar, WorkloadPlan};

/// Default seeds of the full matrix.
pub const SEEDS: [u64; 3] = [1, 7, 42];
/// Default body sizes of the full matrix, bytes.
pub const SIZES: [usize; 2] = [64, 512];
/// Default load-multiplier ladder; the knee of every scenario is placed
/// inside it, so the sweep's sustained/unsustained boundary is a real
/// measurement, not a foregone conclusion.
pub const MULTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Shed fraction above which a rung no longer counts as sustained, even
/// when its latency target holds (the completions that did happen are
/// not the offered load).
pub const SHED_SUSTAIN_FRACTION: f64 = 0.05;

/// The six scenario families of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// N→1 incast: every channel of every node at one server.
    Incast,
    /// Skewed fan-in: most nodes pinned to one hot server of two.
    Hotspot,
    /// Synchronized storms: all channels fire at the same instants.
    Burst,
    /// Incast plus an MPI unexpected-queue flood on the same ring.
    UnexpectedFlood,
    /// Long-tail stragglers: a periodically slow consumer.
    Straggler,
    /// Incast plus MPI ping-pong traffic on the same ring.
    Mixed,
}

/// Every scenario family, matrix order.
pub const KINDS: [WorkloadKind; 6] = [
    WorkloadKind::Incast,
    WorkloadKind::Hotspot,
    WorkloadKind::Burst,
    WorkloadKind::UnexpectedFlood,
    WorkloadKind::Straggler,
    WorkloadKind::Mixed,
];

impl WorkloadKind {
    /// The scenario id used in reports, filters, and repro lines.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Incast => "incast",
            WorkloadKind::Hotspot => "hotspot",
            WorkloadKind::Burst => "burst",
            WorkloadKind::UnexpectedFlood => "unexpected_flood",
            WorkloadKind::Straggler => "straggler",
            WorkloadKind::Mixed => "mixed",
        }
    }

    /// The scenario family of a scenario id.
    pub fn from_name(name: &str) -> Option<Self> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// The scripted plan of one (kind, seed, size) scenario. Rates are
    /// placed against the ~50 kreq/s service ceiling (20 µs mean
    /// service) so the default ladder straddles each scenario's knee,
    /// and the p999 targets sit one log-histogram bucket (the
    /// histograms quantize at ×2) above each scenario's nominal-load
    /// envelope — the sweep then finds the knee inside the ladder.
    pub fn plan(self, seed: u64, size: usize) -> WorkloadPlan {
        let base = WorkloadPlan::new(seed).body_bytes(size);
        let plan = match self {
            // 72 channels × 400 Hz = 28.8 kreq/s at x1: ~0.6 utilization,
            // deep overload at x4.
            WorkloadKind::Incast => base
                .clients(4, 18)
                .window(ms(5), Shape::Poisson { rate_hz: 400.0 })
                .window(ms(1), Shape::Off)
                .p999_target(1_600.0),
            // Three of four nodes pinned to server 0: the hot server
            // carries 54 channels × 500 Hz while the cold one idles.
            WorkloadKind::Hotspot => base
                .clients(4, 18)
                .servers(2)
                .hot_nodes(3)
                .window(ms(5), Shape::Poisson { rate_hz: 500.0 })
                .window(ms(1), Shape::Off)
                .p999_target(1_600.0),
            // 24 channels × burst 2 every 2 ms: a 48-message storm per
            // boundary at x1 (~1 ms to drain), growing with the
            // multiplier while the boundaries stay put.
            WorkloadKind::Burst => base
                .clients(4, 6)
                .window(
                    ms(6),
                    Shape::SyncBurst {
                        period: ms(2),
                        burst: 2,
                    },
                )
                .window(ms(1), Shape::Off)
                .p999_target(1_600.0),
            // Background incast while an MPI flood races the floodee's
            // posted receives on the two sidecar ranks.
            WorkloadKind::UnexpectedFlood => base
                .clients(3, 16)
                .window(ms(4), Shape::Poisson { rate_hz: 300.0 })
                .window(ms(1), Shape::Off)
                .sidecar(Sidecar::UnexpectedFlood {
                    messages: 24,
                    prepost: 6,
                    at: ms(1),
                    post_delay: us(1_500),
                })
                .p999_target(1_600.0),
            // Every 16th dispatch takes 600 µs (mean 51.5 µs): the SLO
            // is looser because the straggler itself sits in the p999.
            WorkloadKind::Straggler => base
                .clients(4, 18)
                .service(ServiceTime::LongTail {
                    ns: 15_000,
                    slow_ns: 600_000,
                    slow_every: 16,
                })
                .window(ms(6), Shape::Poisson { rate_hz: 150.0 })
                .window(ms(2), Shape::Off)
                .p999_target(3_200.0),
            // Incast with MPI ping-pong rounds riding the same ring.
            WorkloadKind::Mixed => base
                .clients(3, 16)
                .window(ms(5), Shape::Poisson { rate_hz: 350.0 })
                .window(ms(1), Shape::Off)
                .sidecar(Sidecar::PingPong { rounds: 40 })
                .p999_target(1_600.0),
        };
        // The targets above are the 64-byte baseline; the ring transfer
        // dominates large-body latency, so the SLO scales with payload.
        let scale = (size as f64 / 64.0).max(1.0);
        let target = plan.p999_target_us * scale;
        plan.p999_target(target)
    }
}

/// The campaign's cells: the full CI matrix (6 kinds × 3 seeds × 2
/// sizes × 4 multipliers), or with `quick` the smoke matrix — every
/// kind once per ladder end, each a cell of the full matrix.
pub fn cells(quick: bool) -> Vec<Coord> {
    let kinds = KINDS.map(WorkloadKind::name);
    if quick {
        matrix(kinds, &[1], &[64], &[1.0, 4.0])
    } else {
        matrix(kinds, &SEEDS, &SIZES, &MULTS)
    }
}

/// One executed campaign cell.
#[derive(Debug)]
pub struct CampaignCell {
    /// Scenario family.
    pub kind: WorkloadKind,
    /// Seed of the cell.
    pub seed: u64,
    /// Body size of the cell, bytes.
    pub size: usize,
    /// Load multiplier of the cell.
    pub mult: f64,
    /// The scenario's p999 SLO target, µs.
    pub p999_target_us: f64,
    /// Everything the executor measured.
    pub outcome: CellOutcome,
}

impl Cell for CampaignCell {
    fn violations(&self) -> &[String] {
        &self.outcome.violations
    }
}

impl CampaignCell {
    /// Run the cell at `coord` (one of [`cells`]).
    pub fn run(coord: &Coord) -> Self {
        let kind = WorkloadKind::from_name(coord.kind).expect("a coordinate of `cells`");
        let (size, mult) = (coord.size.unwrap(), coord.load.unwrap());
        let plan = kind.plan(coord.seed, size);
        let label = format!(
            "workload_{}_seed{}_size{size}_x{mult}",
            coord.kind, coord.seed
        );
        CampaignCell {
            kind,
            seed: coord.seed,
            size,
            mult,
            p999_target_us: plan.p999_target_us,
            outcome: run_cell(&plan, mult, &label),
        }
    }

    /// What limited this rung: `"violation"`, `"latency"`, `"shed"`, or
    /// `"none"` (sustained).
    pub fn limited_by(&self) -> &'static str {
        if !self.outcome.violations.is_empty() {
            "violation"
        } else if self.outcome.p999_us() > self.p999_target_us {
            "latency"
        } else if self.outcome.shed_fraction() > SHED_SUSTAIN_FRACTION {
            "shed"
        } else {
            "none"
        }
    }

    /// Whether the rung sustained its load within the scenario's SLO.
    fn sustained(&self) -> bool {
        self.limited_by() == "none"
    }
}

/// Fold executed cells into the report's `capacity` section: per
/// (scenario, size), the max sustainable offered load at the scenario's
/// p999 target. A rung counts as sustainable only when **every seed** at
/// that multiplier sustained — the figure is the conservative envelope,
/// not the luckiest seed.
pub fn capacity<'a>(cells: impl IntoIterator<Item = &'a CampaignCell>) -> Vec<CapacityScenario> {
    let cells: Vec<&CampaignCell> = cells.into_iter().collect();
    let mut out = Vec::new();
    for kind in KINDS {
        let mut sizes: Vec<usize> = cells
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.size)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        for size in sizes {
            let group: Vec<&CampaignCell> = cells
                .iter()
                .copied()
                .filter(|c| c.kind == kind && c.size == size)
                .collect();
            let mut mults: Vec<f64> = group.iter().map(|c| c.mult).collect();
            mults.sort_by(f64::total_cmp);
            mults.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            let mut best: Option<(f64, f64)> = None; // (mult, mean offered_hz)
            for &m in &mults {
                let rung: Vec<&&CampaignCell> =
                    group.iter().filter(|c| (c.mult - m).abs() < 1e-9).collect();
                if rung.iter().all(|c| c.sustained()) {
                    let offered = rung.iter().map(|c| c.outcome.offered_hz()).sum::<f64>()
                        / rung.len() as f64;
                    if best.is_none_or(|(bm, _)| m > bm) {
                        best = Some((m, offered));
                    }
                }
            }
            out.push(CapacityScenario {
                scenario: kind.name().to_string(),
                size,
                p999_target_us: group[0].p999_target_us,
                max_sustainable_hz: best.map_or(0.0, |(_, hz)| hz),
                max_sustainable_mult: best.map_or(0.0, |(m, _)| m),
                cells: group
                    .iter()
                    .map(|c| CapacityCell {
                        seed: c.seed,
                        mult: c.mult,
                        offered_hz: c.outcome.offered_hz(),
                        completed_hz: c.outcome.throughput_hz(),
                        p999_us: c.outcome.p999_us(),
                        sheds_per_sec: c.outcome.sheds_per_sec(),
                        violations: c.outcome.violations.len() as u64,
                        limited_by: c.limited_by().to_string(),
                    })
                    .collect(),
            });
        }
    }
    out
}

/// The campaign's report document: a [`BenchReport`] carrying the
/// [`capacity`] fold of `cells`.
pub fn to_report<'a>(
    cells: impl IntoIterator<Item = &'a CampaignCell>,
    generated_by: &str,
) -> BenchReport {
    BenchReport {
        generated_by: generated_by.to_string(),
        capacity: capacity(cells),
        ..BenchReport::default()
    }
}
