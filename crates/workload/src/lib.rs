#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `workload` — seed-deterministic workload campaigns
//!
//! The fault campaign covers *failures*; this crate covers *load
//! pathologies* — the way production systems actually die. It provides:
//!
//! - [`arrivals`]: the server-side service-time distributions
//!   ([`ServiceTime`]: fixed, exponential, deterministic long tail).
//! - [`plan`]: the [`WorkloadPlan`] DSL — scripted arrival windows
//!   (Poisson, synchronized bursts, quiesce), a service model, a
//!   server/hot-spot topology, and optional MPI sidecar traffic —
//!   mirroring the `FaultPlan` DSL one layer down.
//! - [`cell`]: the executor that runs one (plan, load multiplier) cell
//!   on a fresh simulated ring and checks the per-cell invariants: no
//!   deadlock, full drain, bounded unexpected-queue and buffer-pool
//!   residency, fairness across sources, both RPC priority classes
//!   progressing, and sidecar completion.
//! - [`campaign`]: the (scenario × seed × size × load) matrix — incast,
//!   hotspot, synchronized bursts, unexpected-queue floods, long-tail
//!   stragglers, and mixed MPI+RPC — folded into the report's
//!   `capacity` section: per scenario, the max sustainable load at a
//!   p999 latency target, found by a deterministic multiplier sweep.
//!
//! The matrix is walked by [`obs::campaign`], so a violated cell prints
//! its `CAMPAIGN_KIND`/`_SEED`/`_SIZE`/`_LOAD` repro line next to its
//! flight-recorder dump: a red campaign run always leaves a one-command
//! postmortem trail.

pub mod arrivals;
pub mod campaign;
pub mod cell;
pub mod plan;

pub use arrivals::ServiceTime;
pub use campaign::{
    capacity, cells, to_report, CampaignCell, WorkloadKind, KINDS, MULTS, SEEDS, SIZES,
};
pub use cell::{run_cell, CellOutcome, FloodOutcome};
pub use plan::{scaled_burst, Shape, Sidecar, Window, WorkloadPlan};
