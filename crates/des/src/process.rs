//! Simulated processes: each runs on its own OS thread but is scheduled
//! cooperatively — exactly one thread, the one holding the *baton*,
//! executes at a time, so process code can use plain blocking style while
//! the simulation stays deterministic.
//!
//! A process that has to yield does not wake a scheduler thread: it runs
//! the dispatch loop ([`SchedShared::dispatch`]) itself. Due events
//! execute inline on its thread, its own `Resume` returns straight into
//! its body, and another process's `Resume` grants that process the baton
//! directly — one OS-thread switch, through that process's state word and
//! `std::thread::park`/`unpark`, never through a lock the wakee needs.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use crate::sched::{Baton, Returned, SchedShared, SimHandle, WakeWhat};
use crate::signal::Signal;
use crate::time::Time;
use obs::{TraceEntry, TraceKind};

/// Identifies a process within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// [`ProcShared`] state: the process is waiting for the baton.
const PARKED: u8 = 0;
/// The process holds the baton; the run clock says what time it is.
pub(crate) const GO: u8 = 1;
/// The simulation is being dropped; the process thread must unwind.
pub(crate) const ABORT: u8 = 2;

pub(crate) struct ProcShared {
    state: AtomicU8,
    /// The process's thread, stored before its first `Resume` is pushed.
    thread: OnceLock<Thread>,
    pub name: String,
}

impl ProcShared {
    /// Publish `state` ([`GO`] or [`ABORT`]) and wake the process. The
    /// release store pairs with the acquire in [`ProcShared::await_grant`],
    /// so the waker's writes to the run clock and queue are visible.
    pub fn wake(&self, state: u8) {
        self.state.store(state, Ordering::Release);
        self.thread.get().expect("set at spawn").unpark();
    }

    /// Park until the baton arrives; `false` means abort. `park` can
    /// return spuriously or on a stale token, so the state decides.
    fn await_grant(&self) -> bool {
        loop {
            match self.state.swap(PARKED, Ordering::Acquire) {
                GO => return true,
                ABORT => return false,
                _ => std::thread::park(),
            }
        }
    }
}

pub(crate) struct ProcEntry {
    pub shared: Arc<ProcShared>,
    pub join: Option<std::thread::JoinHandle<()>>,
    pub finished: bool,
}

/// Payload used to unwind a process thread when its simulation is dropped
/// before the process finished (e.g. after a deadlock report).
pub(crate) struct AbortToken;

/// The execution context handed to every process body.
///
/// All interaction with virtual time flows through this object. It is not
/// `Send`-away-able into events; events receive only the fire time.
pub struct ProcCtx {
    pub(crate) id: ProcId,
    pub(crate) now: Time,
    pub(crate) shared: Arc<ProcShared>,
    pub(crate) sched: Arc<SchedShared>,
}

impl ProcCtx {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's name (as given to `spawn`).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// A cloneable scheduler handle, for wiring hardware models.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            sched: Arc::clone(&self.sched),
        }
    }

    /// Consume `dt` nanoseconds of virtual time (CPU work, PIO stall, …).
    /// Other entities with earlier deadlines run in the meantime.
    pub fn advance(&mut self, dt: Time) {
        let target = self.now + dt;
        // Fast path: we are the only running entity; if nothing in the
        // queue is due before `target`, no other process or event can
        // possibly interleave (everyone else is parked behind a queue
        // entry or a signal only we could fire), so the clock can jump
        // without touching the queue. This keeps polling protocols
        // cheap in host time without changing any observable schedule.
        if self.no_wakeups_before(target) {
            self.now = target;
            return;
        }
        self.sched.push(target, WakeWhat::Resume(self.id));
        self.yield_baton("ResumeAt");
    }

    /// Block until absolute virtual time `t` (no-op if `t` has passed).
    pub fn wait_until(&mut self, t: Time) {
        if t > self.now {
            if self.no_wakeups_before(t) {
                self.now = t;
                return;
            }
            self.sched.push(t, WakeWhat::Resume(self.id));
            self.yield_baton("ResumeAt");
        }
    }

    /// True when the pending queue holds nothing due at or before `t`
    /// and `t` is inside the active run horizon.
    fn no_wakeups_before(&self, t: Time) -> bool {
        if t > self
            .sched
            .horizon
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return false;
        }
        match self.sched.pending.lock().peek_time() {
            Some(first) => first > t,
            None => true,
        }
    }

    /// Yield at the current instant, letting every other entity already
    /// scheduled at `now` run first. Models releasing the CPU for one
    /// scheduling quantum without consuming measurable time.
    pub fn yield_now(&mut self) {
        self.advance(0);
    }

    /// Block until `signal` is notified. May wake spuriously if the signal
    /// is shared; callers re-check their condition in a loop.
    pub fn wait(&mut self, signal: &Signal) {
        signal.register(self.id);
        self.yield_baton("Blocked");
    }

    /// Spawn a sibling process starting at the current virtual time.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + Send + 'static,
    ) -> ProcId {
        spawn_process(&self.sched, name.into(), self.now, Box::new(body))
    }

    /// The simulation's observability recorder, for instrumenting layer
    /// spans and counters from inside process bodies.
    pub fn obs(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// Run the dispatch loop on this thread until this process's own
    /// `Resume` comes up; if the baton has to go to another thread first,
    /// park until it is granted back. Returns at the resumption time.
    /// `why` labels the `Yield` trace entry: `ResumeAt` (a queue entry
    /// this process pushed will resume it) or `Blocked` (a [`Signal`]).
    fn yield_baton(&mut self, why: &str) {
        if self.sched.recorder.is_enabled() {
            // Gated so the hot yield path never formats the detail string.
            self.sched.record(TraceEntry {
                time: self.now,
                kind: TraceKind::Yield,
                detail: format!("{} {why} {{ now: {} }}", self.shared.name, self.now),
            });
        }
        self.sched.catch_up(self.now);
        let granted = match self.sched.dispatch(Some(self.id)) {
            Baton::Mine => true,
            Baton::Granted => self.shared.await_grant(),
            Baton::Stop(why) => {
                self.sched.hand_back(why);
                self.shared.await_grant()
            }
        };
        if !granted {
            std::panic::resume_unwind(Box::new(AbortToken));
        }
        let t = self.sched.now.load(Ordering::Relaxed);
        debug_assert!(t >= self.now, "virtual time went backwards");
        self.now = t;
    }
}

type ProcBody = Box<dyn FnOnce(&mut ProcCtx) + Send + 'static>;

/// Create the thread for a new process and schedule its first resumption
/// at `start`. Shared between `Simulation::spawn` and `ProcCtx::spawn`.
pub(crate) fn spawn_process(
    sched: &Arc<SchedShared>,
    name: String,
    start: Time,
    body: ProcBody,
) -> ProcId {
    let mut table = sched.procs.lock();
    let id = ProcId(table.len());
    let shared = Arc::new(ProcShared {
        state: AtomicU8::new(PARKED),
        thread: OnceLock::new(),
        name: name.clone(),
    });
    let thread_shared = Arc::clone(&shared);
    let thread_sched = Arc::clone(sched);
    let join = std::thread::Builder::new()
        .name(format!("des-{name}"))
        .spawn(move || {
            if !thread_shared.await_grant() {
                return;
            }
            let mut ctx = ProcCtx {
                id,
                now: thread_sched.now.load(Ordering::Relaxed),
                shared: thread_shared,
                sched: thread_sched,
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
            let why = match result {
                Ok(()) => {
                    ctx.sched.catch_up(ctx.now);
                    Returned::Finished(id)
                }
                Err(payload) => {
                    if payload.downcast_ref::<AbortToken>().is_some() {
                        // Simulation dropped: exit quietly, the dropper
                        // holds the baton and only joins this thread.
                        return;
                    }
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let name = &ctx.shared.name;
                    Returned::Panicked(id, format!("simulated process '{name}' panicked: {msg}"))
                }
            };
            // The caller joins this thread and dispatches on.
            ctx.sched.hand_back(why);
        })
        .expect("failed to spawn des process thread");
    shared
        .thread
        .set(join.thread().clone())
        .expect("set once, here");
    table.push(ProcEntry {
        shared,
        join: Some(join),
        finished: false,
    });
    drop(table);
    sched.push(start, WakeWhat::Resume(id));
    id
}
