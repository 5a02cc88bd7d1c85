//! The scheduler's pending queue, the dispatch loop run by whichever
//! thread holds the baton, and the cloneable [`SimHandle`] through which
//! processes, events, and hardware models insert future work.
//!
//! Hot-path design: one lock acquisition per push and per pop (the
//! banded [`PendingQueue`] behind a single mutex), an atomic tie-break
//! counter, an atomic run horizon, and inline closure storage
//! ([`EventFn`]) so a steady-state schedule/dispatch cycle never touches
//! the heap allocator — and, past a few thousand pending events, never
//! pays a per-pop cache-miss chain through a deep heap either.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use crate::calq::CalendarQueue;
pub(crate) use crate::event::EventFn;
use crate::process::{ProcEntry, ProcId, ProcShared, GO};
use crate::signal::Signal;
use crate::time::Time;
use obs::{TraceEntry, TraceKind};

/// What a queue entry wakes up.
pub(crate) enum WakeWhat {
    /// Run a pure event callback.
    Event(EventFn),
    /// Resume the process with this id — or, while it still owes charged
    /// steps, walk the next of them for it (see [`SchedShared::walk`]).
    Resume(ProcId),
}

// `Resume` lives in the niche of `EventFn`'s vtable reference. A third
// variant (say, a resume carrying its chain) would not fit there: every
// slab entry would grow from 56 to 64 bytes, which measured 6 % on the
// all-events `ring_storm` benchmark. The chain lives in `ProcShared`.
const _: () = assert!(std::mem::size_of::<WakeWhat>() == 56);

/// The sequential scheduler's pending queue: one banded calendar
/// ([`CalendarQueue`]) over `WakeWhat` payloads. The parallel engine
/// instantiates the same calendar once per shard (see [`crate::par`]).
pub(crate) type PendingQueue = CalendarQueue<WakeWhat>;

/// Why the baton came back to the `run_until` caller.
pub(crate) enum Returned {
    /// Nothing is due inside the horizon.
    Idle,
    /// This process's body returned: join its thread, keep dispatching.
    Finished(ProcId),
    /// This process's body panicked; the report names it and quotes the
    /// panic message.
    Panicked(ProcId, String),
    /// An event closure panicked; the payload is re-raised untouched.
    EventPanic(Box<dyn Any + Send>),
}

/// What [`SchedShared::dispatch`] did with the baton.
pub(crate) enum Baton {
    /// The calling process's own `Resume` came up: it keeps running.
    Mine,
    /// Another process was granted the baton; the caller must wait.
    Granted,
    /// The run cannot continue on this thread.
    Stop(Returned),
}

/// The `run_until` caller's parking place while a process holds the baton.
#[derive(Default)]
pub(crate) struct Caller {
    thread: Option<Thread>,
    returned: Option<Returned>,
}

/// Scheduler state shared between the run loop, all processes, and every
/// [`SimHandle`] clone. Only the baton holder executes, so the mutexes
/// are never contended; they exist to satisfy `Send`/`Sync`.
pub(crate) struct SchedShared {
    pub pending: Mutex<PendingQueue>,
    pub procs: Mutex<Vec<ProcEntry>>,
    caller: Mutex<Caller>,
    /// Clock and counters of the active run. Only the baton holder
    /// touches them, and every baton transfer is a release/acquire pair
    /// (a process's state word, or the `caller` mutex), so `Relaxed` is
    /// enough.
    pub now: AtomicU64,
    pub dispatches: AtomicU64,
    pub peak_queue_depth: AtomicUsize,
    pub handoffs: AtomicU64,
    pub relayed: AtomicU64,
    /// `Resume`s in the queue that belong to a sleeping cycle (see
    /// [`crate::ProcCtx::scan_until`]). Outlives a run: a cycle queued past
    /// one horizon is still there under the next. Baton-holder only, like
    /// the counters above.
    cycling: AtomicU64,
    /// Processes woken so far, and the longest round of any cycle so far:
    /// what [`Self::hopeless`] goes by. Neither is ever reset.
    woken: AtomicU64,
    longest_round: AtomicU64,
    /// Tie-break counter. Atomic so a push costs exactly one lock (the
    /// queue's); single-entity execution makes the fetch-add ordering
    /// identical to the old mutex-guarded counter.
    pub seq: AtomicU64,
    /// The cross-layer observability log. Scheduler trace entries, layer
    /// spans, and counters all land here; disabled (the default) it costs
    /// one relaxed atomic load per instrumentation site.
    pub recorder: Arc<obs::Recorder>,
    /// Active run horizon: the advance fast path must not carry a
    /// process's clock past it (see `ProcCtx::advance`). Atomic: read on
    /// every fast-path advance, written once per `run_until`.
    pub horizon: AtomicU64,
    /// Debug builds: the running process and the charged time it has not
    /// settled, so touching shared state in that condition is a panic
    /// rather than a silently different schedule.
    #[cfg(debug_assertions)]
    owing: Mutex<Option<(ProcId, Time)>>,
}

impl SchedShared {
    pub fn new() -> Arc<Self> {
        Arc::new(SchedShared {
            pending: Mutex::new(PendingQueue::new()),
            procs: Mutex::new(Vec::new()),
            caller: Mutex::new(Caller::default()),
            now: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            peak_queue_depth: AtomicUsize::new(0),
            handoffs: AtomicU64::new(0),
            relayed: AtomicU64::new(0),
            cycling: AtomicU64::new(0),
            woken: AtomicU64::new(0),
            longest_round: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            recorder: Arc::new(obs::Recorder::new()),
            horizon: AtomicU64::new(Time::MAX),
            #[cfg(debug_assertions)]
            owing: Mutex::new(None),
        })
    }

    /// Note what the running process owes (`None`: it settled).
    #[inline]
    pub fn set_owing(&self, _owing: Option<(ProcId, Time)>) {
        #[cfg(debug_assertions)]
        {
            *self.owing.lock() = _owing;
        }
    }

    /// Debug builds: panic if the running process owes charged time.
    /// `what` names the shared state about to be touched.
    #[inline]
    pub fn assert_settled(&self, _what: &str) {
        #[cfg(debug_assertions)]
        if let Some((id, owed)) = *self.owing.lock() {
            let name = self.procs.lock()[id.0].shared.name.clone();
            panic!(
                "{_what} while process '{name}' owes {owed} ns of charged time: \
                 stall or call ProcCtx::settle() first"
            );
        }
    }

    pub fn push(&self, time: Time, what: WakeWhat) {
        self.assert_settled("scheduling");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().push(time, seq, what);
    }

    /// Reserve `n` consecutive tie-break values; returns the first.
    /// Entries later pushed via [`SchedShared::push_at_seq`] with these
    /// values interleave with other same-time entries exactly as if they
    /// had all been pushed at reservation time.
    pub fn reserve_seqs(&self, n: u64) -> u64 {
        self.seq.fetch_add(n, Ordering::Relaxed)
    }

    /// Push an entry with an explicitly reserved tie-break value.
    pub fn push_at_seq(&self, time: Time, seq: u64, what: WakeWhat) {
        self.assert_settled("scheduling");
        self.pending.lock().push(time, seq, what);
    }

    pub fn record(&self, entry: TraceEntry) {
        self.recorder.sched(entry);
    }

    /// The `Yield` entry of process `name` giving up the baton at `now`.
    /// `why`: `ResumeAt` (a `Resume` queued for it will bring it back) or
    /// `Blocked` (a [`Signal`] will).
    pub fn record_yield(&self, name: &str, why: &str, now: Time) {
        if self.recorder.is_enabled() {
            // Gated so the hot yield path never formats the detail string.
            self.record(TraceEntry {
                time: now,
                kind: TraceKind::Yield,
                detail: format!("{name} {why} {{ now: {now} }}"),
            });
        }
    }

    /// Start a run on the calling thread: it holds the baton.
    pub fn begin_run(&self, horizon: Time) {
        self.horizon.store(horizon, Ordering::Relaxed);
        self.now.store(0, Ordering::Relaxed);
        self.dispatches.store(0, Ordering::Relaxed);
        self.peak_queue_depth.store(0, Ordering::Relaxed);
        self.handoffs.store(0, Ordering::Relaxed);
        self.relayed.store(0, Ordering::Relaxed);
        self.caller.lock().thread = Some(std::thread::current());
    }

    /// Bring the run clock up to a process's clock, which fast-path
    /// jumps (see `ProcCtx::advance`) moved without the run's knowing.
    pub fn catch_up(&self, proc_now: Time) {
        if proc_now > self.now.load(Ordering::Relaxed) {
            self.now.store(proc_now, Ordering::Relaxed);
        }
    }

    /// True when nothing in the pending queue is due at or before `t` and
    /// `t` is inside the active run horizon: a process alone until `t` may
    /// jump its clock there without queueing (see `ProcCtx::advance`).
    pub fn idle_through(&self, t: Time) -> bool {
        t <= self.horizon.load(Ordering::Relaxed)
            && self
                .pending
                .lock()
                .peek_time()
                .is_none_or(|first| first > t)
    }

    /// Walk the steps process `id` owes, from its clock `cur`, as
    /// consecutive `advance`s by the process itself would: a step nothing
    /// is due before moves the clock; the first one something is gets the
    /// process's `Resume` queued at its end, and the walk stops there.
    /// A step that ends with a look (see [`crate::ProcCtx::scan`]) has the
    /// word sampled at its end — here when the clock moved, or first thing
    /// when its `Resume` comes up — and any word but the expected one cuts
    /// the chain. A cycle ([`crate::ProcCtx::scan_until`]) starts over
    /// past its last step, so only a look ends it — or its turning out
    /// [`Self::hopeless`]. Returns `true` when no step is left (the
    /// process may run), `false` when a `Resume` was queued, or a cycle was
    /// left unqueued because nothing can end it any more.
    ///
    /// Called by the process when it settles and by [`Self::dispatch`]
    /// when one of those `Resume`s comes up. Who calls is not an input to
    /// anything the walk decides — the queue head, the horizon, the next
    /// tie-break value, the sampled word — so the schedule cannot tell the
    /// difference, and neither can the trace: a queued step gets the
    /// `Yield` entry the process would have written going to sleep on it.
    pub fn walk(&self, id: ProcId, proc: &ProcShared, mut cur: Time) -> bool {
        let mut chain = proc.chain.lock();
        if let Some(step) = chain.due.take() {
            if chain.is_cycle() {
                let queued = self.cycling.load(Ordering::Relaxed);
                self.cycling.store(queued - 1, Ordering::Relaxed);
            }
            if !chain.look(step, cur) {
                return true;
            }
        }
        loop {
            let Some(step) = chain.pop() else {
                if !chain.rewind() {
                    return true;
                }
                if self.hopeless(&mut chain.quiet, cur) {
                    return false;
                }
                continue;
            };
            let target = cur + step.dt;
            if !self.idle_through(target) {
                self.push(target, WakeWhat::Resume(id));
                self.record_yield(&proc.name, "ResumeAt", cur);
                self.catch_up(cur);
                if chain.is_cycle() {
                    bump(&self.cycling);
                }
                chain.due = Some(step);
                return false;
            }
            cur = target;
            if !chain.look(step, cur) {
                return true;
            }
        }
    }

    /// True when nothing is left in this run but sleeping cycles: it has no
    /// horizon to stop at, and everything queued is the `Resume` of another
    /// one — no event is pending and no process is awake or due. (Whoever
    /// asks is walking a cycle: a dispatching thread, whose own process is
    /// then asleep behind a queue entry or a signal, or the cycle's process
    /// going to sleep.) Nothing is left that could write a word, then; but
    /// a word already written may not have been looked at yet, and the
    /// process that sees it will wake and write others.
    fn becalmed(&self) -> bool {
        self.horizon.load(Ordering::Relaxed) == Time::MAX
            && self.pending.lock().len() as u64 == self.cycling.load(Ordering::Relaxed)
    }

    /// Asked at the end of each round of a cycle, at `at`: can no look of
    /// it ever hit? `quiet` is the cycle's memory of the question: how
    /// many processes had ever been woken, and when, at the first of the
    /// rounds on end that ended becalmed with none woken since. Between two
    /// such ends nothing ran but steps of cycles — an event would have had
    /// to be pending at the first, or scheduled by a process awake after
    /// it — so no word was written; and once that has lasted longer than
    /// the longest cycle's round, every sleeping cycle has taken every one
    /// of its looks since the last write and seen the word it expected.
    /// None of them will ever see anything else.
    fn hopeless(&self, quiet: &mut Option<(u64, Time)>, at: Time) -> bool {
        if !self.becalmed() {
            *quiet = None;
            return false;
        }
        let woken = self.woken.load(Ordering::Relaxed);
        match *quiet {
            Some((then, since)) if then == woken => {
                at - since > self.longest_round.load(Ordering::Relaxed)
            }
            _ => {
                *quiet = Some((woken, at));
                false
            }
        }
    }

    /// A cycle whose round takes `round` ns is about to be walked.
    pub fn note_round(&self, round: Time) {
        if round > self.longest_round.load(Ordering::Relaxed) {
            self.longest_round.store(round, Ordering::Relaxed);
        }
    }

    /// The dispatch loop, run by whichever thread holds the baton: the
    /// `run_until` caller (`me` = `None`) or a process that yielded.
    /// Pops the global `(time, seq)` minimum and runs events inline until
    /// the baton has to move or the caller's own `Resume` comes up.
    pub fn dispatch(&self, me: Option<ProcId>) -> Baton {
        let horizon = self.horizon.load(Ordering::Relaxed);
        loop {
            let item = {
                let mut q = self.pending.lock();
                if q.len() > self.peak_queue_depth.load(Ordering::Relaxed) {
                    self.peak_queue_depth.store(q.len(), Ordering::Relaxed);
                }
                q.pop_due(horizon)
            };
            let Some((time, what)) = item else {
                return Baton::Stop(Returned::Idle);
            };
            let now = self.now.load(Ordering::Relaxed);
            debug_assert!(time >= now, "scheduler time went backwards");
            let now = now.max(time);
            self.now.store(now, Ordering::Relaxed);
            bump(&self.dispatches);
            match what {
                WakeWhat::Event(f) => {
                    if self.recorder.is_enabled() {
                        self.record(TraceEntry {
                            time: now,
                            kind: TraceKind::Event,
                            detail: String::new(),
                        });
                    }
                    // Caught so a panic here never unwinds the body of the
                    // process whose thread happens to run the event.
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f.call(now))) {
                        return Baton::Stop(Returned::EventPanic(payload));
                    }
                }
                WakeWhat::Resume(id) => {
                    let shared = {
                        let table = self.procs.lock();
                        let entry = &table[id.0];
                        // A signal can race with normal completion and
                        // leave a stale resume in the queue; ignore it.
                        if entry.finished {
                            continue;
                        }
                        Arc::clone(&entry.shared)
                    };
                    if self.recorder.is_enabled() {
                        // Gated so the hot dispatch path never clones the name.
                        self.record(TraceEntry {
                            time: now,
                            kind: TraceKind::Resume,
                            detail: shared.name.clone(),
                        });
                    }
                    // Still owing charged steps: it would wake only to
                    // queue the next one and sleep again. Do that for it.
                    if !self.walk(id, &shared, now) {
                        bump(&self.relayed);
                        continue;
                    }
                    bump(&self.woken);
                    if me == Some(id) {
                        return Baton::Mine;
                    }
                    bump(&self.handoffs);
                    shared.wake(GO);
                    return Baton::Granted;
                }
            }
        }
    }

    /// Give the baton back to the `run_until` caller, from a process thread.
    pub fn hand_back(&self, why: Returned) {
        bump(&self.handoffs);
        let thread = {
            let mut caller = self.caller.lock();
            caller.returned = Some(why);
            caller.thread.clone()
        };
        // Unparked after the lock is released: the wakee takes it.
        thread.expect("a run is active").unpark();
    }

    /// Park the `run_until` caller until a process hands the baton back.
    pub fn await_return(&self) -> Returned {
        loop {
            if let Some(why) = self.caller.lock().returned.take() {
                return why;
            }
            std::thread::park();
        }
    }
}

/// Increment a run counter. Only the baton holder writes these, so a
/// plain load and store does, without a locked read-modify-write on the
/// per-dispatch path.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// A cloneable handle into the scheduler. Hardware models hold one to
/// schedule propagation events; processes obtain one via
/// [`crate::ProcCtx::handle`].
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) sched: Arc<SchedShared>,
}

impl SimHandle {
    /// Schedule `f` to run at absolute virtual time `t`. Scheduling into
    /// the past is a logic error and panics: hardware cannot retroact.
    pub fn schedule_at(&self, t: Time, f: impl FnOnce(Time) + Send + 'static) {
        self.sched.push(t, WakeWhat::Event(EventFn::new(f)));
    }

    /// Reserve `n` consecutive FIFO tie-break slots for
    /// [`SimHandle::schedule_at_ordered`]. Hardware models that unroll a
    /// multi-step activity into a self-rescheduling event chain use this
    /// to keep the chain's tie-break order identical to scheduling every
    /// step up front: reserve the block when the activity starts, then
    /// schedule step `k` with slot `base + k` as the chain walks.
    pub fn reserve_order(&self, n: u64) -> u64 {
        self.sched.reserve_seqs(n)
    }

    /// Schedule `f` at time `t` with an explicit tie-break slot obtained
    /// from [`SimHandle::reserve_order`]. Among entries scheduled for the
    /// same virtual time, lower slots fire first. Reusing a slot, or
    /// scheduling a slot after the queue has advanced past its time,
    /// breaks the determinism contract (but not memory safety).
    pub fn schedule_at_ordered(&self, t: Time, order: u64, f: impl FnOnce(Time) + Send + 'static) {
        self.sched
            .push_at_seq(t, order, WakeWhat::Event(EventFn::new(f)));
    }

    /// Debug builds: panic, naming the process and the time it owes, if
    /// the running process has charged time ([`crate::ProcCtx::charge`])
    /// it has not settled. Models of shared state (a memory bank, a
    /// liveness register) call this where they are read or written;
    /// `what` names the access. Free in release builds. Scheduling,
    /// [`Signal::notify_at`] and [`crate::queue::SimQueue`] check
    /// themselves.
    #[inline]
    pub fn assert_settled(&self, what: &str) {
        self.sched.assert_settled(what);
    }

    /// Create a fresh [`Signal`] bound to this simulation.
    pub fn new_signal(&self) -> Signal {
        Signal::new(Arc::clone(&self.sched))
    }

    /// Append a custom entry to the deterministic trace (no-op when tracing
    /// is disabled). Components use this to label interesting transitions.
    pub fn trace_mark(&self, t: Time, label: impl Into<String>) {
        if !self.sched.recorder.is_enabled() {
            return; // skip the `label.into()` allocation entirely
        }
        self.sched.record(TraceEntry {
            time: t,
            kind: TraceKind::Mark,
            detail: label.into(),
        });
    }

    /// The simulation's observability recorder: layer spans, counters, and
    /// scheduler trace entries. Hardware and protocol models instrument
    /// through this; disabled (the default) every call is a single relaxed
    /// atomic load.
    pub fn recorder(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// A clone of the recorder handle, for exporters that outlive the
    /// simulation's borrow.
    pub fn recorder_arc(&self) -> Arc<obs::Recorder> {
        Arc::clone(&self.sched.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pops_in_fifo_order_at_one_time() {
        let s = SchedShared::new();
        s.push(10, WakeWhat::Resume(ProcId(0)));
        s.push(10, WakeWhat::Resume(ProcId(1)));
        let mut q = s.pending.lock();
        assert_eq!(q.peek_time(), Some(10));
        match (q.pop().unwrap(), q.pop().unwrap()) {
            ((10, WakeWhat::Resume(a)), (10, WakeWhat::Resume(b))) => {
                assert_eq!(a, ProcId(0));
                assert_eq!(b, ProcId(1));
            }
            _ => panic!("expected resumes at t=10"),
        }
    }

    #[test]
    fn slab_slots_recycle_without_growing() {
        let s = SchedShared::new();
        for round in 0..50u64 {
            s.push(round, WakeWhat::Resume(ProcId(round as usize)));
            let popped = s.pending.lock().pop().unwrap();
            assert_eq!(popped.0, round);
        }
        let q = s.pending.lock();
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab_slots(), 1, "one recycled slot suffices");
    }

    #[test]
    fn reserved_block_interleaves_as_if_pushed_at_reservation() {
        let s = SchedShared::new();
        let base = s.reserve_seqs(3);
        // A later plain push at the same time must fire *after* every
        // entry of the earlier reservation, even ones not yet pushed.
        s.push(10, WakeWhat::Resume(ProcId(99)));
        s.push_at_seq(10, base + 2, WakeWhat::Resume(ProcId(2)));
        s.push_at_seq(10, base, WakeWhat::Resume(ProcId(0)));
        s.push_at_seq(10, base + 1, WakeWhat::Resume(ProcId(1)));
        let mut q = s.pending.lock();
        let order: Vec<ProcId> = std::iter::from_fn(|| q.pop())
            .map(|(_, what)| match what {
                WakeWhat::Resume(id) => id,
                WakeWhat::Event(_) => unreachable!(),
            })
            .collect();
        assert_eq!(order, [ProcId(0), ProcId(1), ProcId(2), ProcId(99)]);
    }
}
