#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `obs` — cross-layer observability
//!
//! The measurement substrate for the whole SCRAMNet reproduction. Every
//! layer of the stack — the `des` scheduler, the SCRAMNet ring and NIC,
//! the BillBoard Protocol, and the MPI stack (binding → ADI → channel
//! interface → device) — records structured [`Event`]s into a shared
//! [`Recorder`]:
//!
//! - **Spans** (`SpanEnter`/`SpanExit`) carry virtual-time stamps, a node
//!   id, and a [`Layer`] label, and nest per node. A process says a span
//!   once, `des::ProcCtx::span`, which closes it when its body returns;
//!   a span written after the fact is one [`Recorder::open_span`] whose
//!   [`OpenSpan`] goes to one [`Recorder::close_span`]. [`attribute`]
//!   folds a finished event stream into per-layer *self time*, which is
//!   how the paper's ≈37.5 µs MPI-over-BBP layering constant becomes an
//!   artifact you can regenerate (`bench-report` in `crates/bench`).
//! - **Counters** track discrete hardware work: ring packets, PIO words,
//!   buffer-GC scans, unexpected-queue hits.
//! - **Scheduler events** ([`TraceEntry`], absorbed from the old
//!   `des::trace` module) preserve the byte-identical determinism traces
//!   the integration tests compare.
//!
//! - **Lifecycle checkpoints** ([`lifecycle::Stage`]) trace a single
//!   message's journey — send entry, descriptor write, ring injection,
//!   per-hop transit, flag toggle, receive match, delivery, retry repair
//!   — against a compact trace id minted at the send entry point.
//!   [`message_waterfalls`] reconstructs the per-message latency
//!   waterfall; the Chrome exporter renders it as `s`/`t`/`f` flow
//!   events.
//!
//! - **Gauges** ([`timeseries::Telemetry`]) sample load-bearing state —
//!   queue residencies, credit balances, membership grades — into
//!   fixed-capacity downsampling time series on their own enable gate;
//!   a campaign cell whose counted bound breaks dumps the matching
//!   series next to its flight ring ([`SeriesSnapshot::dump_to_dir`]).
//!
//! - **Campaigns** ([`campaign`]): the one runner every seed-sampled
//!   matrix (fault, chaos, partition, workload) is walked by — filters,
//!   per-cell clock and budget, report, violation digest, repro line.
//!
//! - **Goldens** ([`golden::check`]): compare-or-`BLESS` for the
//!   byte-identical trace files the determinism gates pin.
//!
//! The recorder is **zero-overhead when disabled**: every recording call
//! is one relaxed atomic load, no locks and no allocations (verified by
//! `tests/obs_zero_cost.rs`). Two always-on facilities are budgeted just
//! as tightly: [`hist::LogHistogram`] records a latency sample with one
//! relaxed `fetch_add`, and the [`flight::FlightRecorder`] keeps a
//! bounded ring of recent lifecycle events (relaxed stores into
//! preallocated slots) that is dumped as a JSON postmortem when a typed
//! error surfaces, a chaos kill fires ([`Recorder::postmortem`]), or a
//! gated test fails.
//!
//! Exporters: [`chrome_trace_json`] writes Chrome `trace_event` JSON
//! loadable in Perfetto / `about://tracing`; [`report::BenchReport`]
//! writes the versioned machine-readable bench summary. See
//! `docs/OBSERVABILITY.md` for the span taxonomy and schemas.
//!
//! This crate sits at the bottom of the dependency stack (it depends on
//! nothing, `des` depends on it), so it defines its own [`Time`] alias —
//! the same integer nanoseconds as `des::Time`.

mod attr;
mod chrome;
mod event;
mod recorder;

pub mod campaign;
pub mod flight;
pub mod golden;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod report;
pub mod timeseries;

pub use attr::{attribute, message_waterfalls, LayerBreakdown, MessageWaterfall, WaterfallStep};
pub use chrome::{chrome_trace_json, chrome_trace_json_with_telemetry};
pub use event::{Event, Layer, TraceEntry, TraceKind, Track, NO_NODE};
pub use flight::{FlightGuard, FlightRecorder};
pub use hist::LogHistogram;
pub use lifecycle::Stage;
pub use recorder::{OpenSpan, Recorder};
pub use timeseries::{SeriesSnapshot, Telemetry};

/// Virtual time in integer nanoseconds (identical to `des::Time`).
pub type Time = u64;
