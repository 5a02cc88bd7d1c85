#![warn(missing_docs)]

//! # `des` — a deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the whole SCRAMNet reproduction
//! runs. It provides *virtual time* (integer nanoseconds), *processes*
//! (simulated host programs, each running on its own OS thread but scheduled
//! cooperatively, one at a time), *events* (pure callbacks modelling
//! hardware activity that proceeds concurrently with host CPUs), and
//! *signals* (blocking wake-ups used for interrupt-driven receives and
//! socket queues).
//!
//! ## Execution model
//!
//! Exactly one entity — a process or an event — executes at any instant.
//! The next one is always the entity with the smallest virtual deadline;
//! ties are broken by insertion order. This makes every run fully
//! deterministic: the same program produces the same interleaving and the
//! same virtual-time results on every execution, regardless of host load.
//!
//! There is no scheduler thread. One dispatch loop pops that
//! `(time, seq)` minimum, and it is run by whichever thread holds the
//! *baton*: first the caller of [`Simulation::run_until`], then every
//! process whose [`ProcCtx::advance`], [`ProcCtx::wait_until`] or
//! [`ProcCtx::wait`] has to yield. That thread runs due events inline,
//! returns straight into its own body when its own resumption comes up,
//! and hands the baton directly to another process's thread when that one
//! is due. The caller gets it back only when nothing is due inside the
//! horizon, or a process finished (to be joined) or something panicked (to
//! be propagated). Which OS thread runs an event is therefore
//! unspecified, and nothing may depend on it; the order in which entities
//! run is the same as if one thread ran them all.
//!
//! Processes express the passage of simulated time explicitly:
//!
//! ```
//! use des::{Simulation, us};
//!
//! let mut sim = Simulation::new();
//! sim.spawn("worker", |ctx| {
//!     ctx.advance(us(3));            // model 3 µs of work
//!     assert_eq!(ctx.now(), us(3));
//! });
//! let report = sim.run();
//! assert_eq!(report.end_time, us(3));
//! ```
//!
//! Because only one entity runs at a time, shared state guarded by a
//! [`parking_lot::Mutex`] is never contended; the mutex exists only to
//! satisfy the borrow checker across threads. The one discipline users must
//! follow is: **never hold a lock across a yield point**
//! ([`ProcCtx::advance`], [`ProcCtx::wait`], …).
//!
//! ## Determinism, tracing, and observability
//!
//! [`Simulation::enable_trace`] records every scheduling decision; the
//! integration tests assert that two runs of the same seeded workload
//! produce byte-identical traces. The trace is one event kind in the
//! wider [`obs`] event log ([`Simulation::recorder`]), which also carries
//! layer spans and counters from every instrumented protocol layer —
//! export it with [`obs::chrome_trace_json`] or fold it into a per-layer
//! latency breakdown with [`obs::attribute`]. Recording is off by
//! default and costs one relaxed atomic load per instrumentation site.

mod calq;
mod event;
mod pq;
mod process;
mod sched;
mod signal;
mod sim;
mod time;

pub mod par;
pub mod queue;
pub mod rng;

pub use process::{ProcCtx, ProcId};
pub use sched::SimHandle;
pub use signal::Signal;
pub use sim::{RunReport, Simulation};
pub use time::{ms, ns, secs, us, Time, TimeExt};
// The scheduler trace types live in `obs` (they are one event kind in
// the cross-layer observability log); re-export them so determinism
// tooling can keep writing `des::{TraceEntry, TraceKind}`.
pub use obs::{TraceEntry, TraceKind};

// Re-export the observability crate so downstream layers can instrument
// (`des::obs::Layer`, …) without declaring their own dependency.
pub use obs;
