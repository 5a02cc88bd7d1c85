#![warn(missing_docs)]
#![deny(unsafe_code)]

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
//! process whose [`ProcCtx::advance`], [`ProcCtx::wait_until`],
//! [`ProcCtx::wait`] or [`ProcCtx::settle`] has to yield. That thread runs
//! due events inline (handing each the instant it was scheduled for:
//! scheduling into the past of a run panics where it is attempted),
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
//! What a body returns comes back through the [`Spawned`] handle `spawn`
//! hands out, once the body has returned: a process that measures
//! something returns it rather than writing it into shared state.
//!
//! A process that blocks until something happens takes a [`Ticket`] on
//! the [`Signal`] that announces it *before* it checks whether it has
//! happened, and waits on the ticket once the check has found nothing
//! ([`ProcCtx::ticket`], [`ProcCtx::wait`]). A signal counts its
//! notifications, so one that lands while the check is still taking
//! virtual time ends the wait at its instant instead of being lost. There
//! is no way to sleep on a signal without a ticket.
//!
//! Hardware activity that unrolls into a chain of steps — a packet's hops
//! around the ring — is a *series* ([`SimHandle::schedule_series`]): its
//! tie-break values are taken when it is scheduled, so it interleaves
//! with everything else exactly as if every step had been queued then.
//! Each link runs as a [`Link`], which says whether its successor is the
//! next entry due ([`Link::next`]); a link runs such a successor itself,
//! in the same call, and hands back ([`Then`]) the first that is not, for
//! the dispatch loop to queue. "Next" means one thing throughout the
//! scheduler: a key below the agenda's bound — the queue's first key, and
//! the run's horizon. A link compares its successor's key against the
//! bound it read at its pop, without entering the scheduler, and takes
//! "no" for an answer once anything has entered since; a stalling
//! process compares the key its resumption would get, and jumps its
//! clock instead of queueing it. Each step is still a dispatch at its own
//! `(time, seq)`, counted, clocked and traced as its pop would have been.
//! A series may also be reserved ([`SimHandle::reserve_series`]): its
//! values are taken then, and a link queues its first link later
//! ([`Then::reserved`]), so a model that holds booked work in a FIFO of
//! its own keeps a number with it, not a queue entry.
//!
//! ## Stalls and software costs
//!
//! A process spends virtual time in two ways, and the difference is who
//! can tell.
//!
//! [`ProcCtx::advance`] is a **stall** — a PIO access, a pacing wait, a
//! think time. Entities with earlier deadlines run in the meantime, and
//! whatever the process does next sees what they did.
//!
//! [`ProcCtx::charge`] is the process's **own CPU time** — building a
//! header, searching a queue, one turn of a poll loop. Nobody else can
//! observe it passing until the process next touches something shared,
//! so the process need not be woken for it. A charge moves the process's
//! local clock ([`ProcCtx::now`]) and records the step; the next stall
//! (`advance`, [`ProcCtx::wait_until`], [`ProcCtx::ticket`],
//! [`ProcCtx::wait`], [`ProcCtx::spawn`], an explicit [`ProcCtx::settle`],
//! or the end of the body) *settles* the chain: the steps are walked exactly as consecutive
//! `advance`s would have been — the same fast-path test per step, a
//! resumption queued at the same `(time, seq)` at the same point in the
//! run, one dispatch counted for each — except that a resumption which
//! still has steps behind it is answered by the dispatch loop itself
//! (whichever thread holds the baton queues the next one) instead of by
//! waking the process's thread only for it to go straight back to sleep.
//! [`RunReport::relayed`] counts those. The schedule cannot tell: who
//! pushes a resumption is not an input to its time or its tie-break.
//!
//! What a charging layer owes in return: **between a charge and the next
//! stall, touch nothing another entity can see or change**, and **return
//! settled** to code that might. Layers charge on the way in and end
//! every public call in a stall or a `settle()`. Debug builds check what
//! the kernel can see of this — scheduling, [`Signal::notify_at`],
//! [`queue::SimQueue`] polls and whatever calls
//! [`SimHandle::assert_settled`] panic, naming the process and the time
//! it owes. Recording changes none of it: whoever walks a step writes the
//! scheduler's entries for it, so a recorded run makes the hand-offs of
//! the unrecorded one and writes, entry for entry, the trace a run of
//! `advance`s would have.
//!
//! A poll loop — own time, a stall, read a word, go round again while it
//! has not changed — ends each stall in a read only the process could
//! make. [`ProcCtx::scan`] queues the whole sweep with a *look* at the end of
//! each stall: whoever walks the step samples the word through
//! [`Sample`] exactly where the process would have read it, walks on if
//! it is the expected one, and otherwise cuts the chain there and lets
//! the process run with its clock at that instant. A read has no side
//! effect, so who makes it is not an input to anything either. (It is
//! made from inside the scheduler, which is one value behind one lock
//! that its holder keeps across every step it walks: a `sample` that
//! schedules or notifies would find it taken, and panics saying so.)
//!
//! A process *blocked* on such a loop goes round it again and again:
//! sweep, nothing changed, a moment of its own time, sweep again. Between
//! two sweeps it touches nothing shared either, so it need not be woken
//! to ask for the next one: [`ProcCtx::scan_until`] makes the chain a
//! cycle, which whoever walks it starts over past its last step, and the
//! process is woken once — when a look sees a word that changed — with
//! its clock at that look and the count of rounds that went by. A loop
//! that also checks a host condition between sweeps (a deadline, a count
//! other processes publish) hands it over as the cycle's [`RoundGuard`]:
//! the walker asks it at the end of each round, where the loop would have,
//! and wakes the process there once it holds. Should nothing be left in a
//! run but unguarded cycles, no word can change any more;
//! once that has held for a full round of each, a run without a horizon
//! stops queueing them and ends, naming their processes in
//! [`RunReport::deadlocked`].
//!
//! Because only one entity runs at a time, shared state guarded by a
//! [`parking_lot::Mutex`] is never contended; the mutex exists only to
//! satisfy the borrow checker across threads. The one discipline users must
//! follow is: **never hold a lock across a yield point**
//! ([`ProcCtx::advance`], [`ProcCtx::wait`], …).
//!
//! ## `unsafe`
//!
//! This crate denies `unsafe_code` everywhere but in one private module,
//! the inline-closure storage behind every scheduled event (`event.rs`,
//! whose header states the contract and names the tests that exercise
//! it); every other crate of the workspace forbids it outright.
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
//! The log is in time order per [`obs::Track`], not as a whole: a process
//! writes its records as it runs, at its own clock, which is ahead of the
//! run's wherever it has charged time it has not yet settled.

mod calq;
#[allow(unsafe_code)] // the one exception: see "`unsafe`" above
mod event;
mod process;
mod sched;
mod signal;
mod sim;
mod time;

pub mod queue;
pub mod rng;

pub use event::{Then, INLINE_BYTES};
pub use process::{ProcCtx, RoundGuard, Sample, Spawned};
pub use sched::{Link, Reserved, SimHandle};
pub use signal::{Signal, Ticket};
pub use sim::{RunReport, Simulation};
pub use time::{ms, ns, secs, us, Time, TimeExt};
// The scheduler trace types live in `obs` (they are one event kind in
// the cross-layer observability log); re-export them so determinism
// tooling can keep writing `des::{TraceEntry, TraceKind}`.
pub use obs::{TraceEntry, TraceKind};

// Re-export the observability crate so downstream layers can instrument
// (`des::obs::Layer`, …) without declaring their own dependency.
pub use obs;
