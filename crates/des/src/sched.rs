//! The scheduler's core — pending queue, process table, clock and
//! counters — the dispatch loop run by whichever thread holds the baton,
//! and the cloneable [`SimHandle`] through which processes, events, and
//! hardware models insert future work.
//!
//! Hot-path design: everything only the baton holder touches is one
//! [`Core`] behind one lock, and every way into the scheduler takes that
//! lock once. The dispatch loop holds it across pops and across every
//! step it walks for a sleeping process, letting go only around an
//! event's closure (events schedule) and before it hands the baton on.
//! "Is it the next entry due?" has one answer: its key sorts below the
//! agenda's bound ([`Agenda::bound`], the queue's first key and the
//! horizon). A stalling process and a relayed step ask it of the key their
//! `Resume` would get, on the core they are in, and skip the queue on
//! "yes". A link of a series runs as a [`Link`], which asks it of its
//! successor's key against the bound read at its pop ([`Link::next`]),
//! without entering the core — "no" if anything entered since — and runs
//! such a successor itself, in the same call; the first that is not it
//! returns ([`Then`]), and the dispatch loop queues it with the one entry
//! it makes after every closure anyway. So a series whose links are each
//! next runs in one call and enters once for all of them. The tie-break
//! counter, the run clock and the run horizon are plain fields in the core;
//! the clock and dispatch count of links run on the spot wait in two cells
//! beside it until the next entry folds them in.
//! Closures are stored inline ([`EventFn`]), so a steady-state
//! schedule/dispatch cycle never touches the heap allocator — and, past a
//! few thousand pending events, never pays a per-pop cache-miss chain
//! through a deep heap either (the banded [`PendingQueue`]).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

use crate::calq::CalendarQueue;
pub(crate) use crate::event::{EventFn, Then};
use crate::process::{await_baton, ProcEntry, ProcId, ProcShared, GO};
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

/// A vacant slab slot ([`CalendarQueue`]): the `Resume` of a process no
/// world has. A pop of it is a broken queue, which debug builds catch.
impl Default for WakeWhat {
    fn default() -> Self {
        WakeWhat::Resume(ProcId(usize::MAX))
    }
}

// The slab holds `WakeWhat` itself, and `Resume` lives in the niche of
// `EventFn`'s vtable reference. A third variant (say, a resume carrying
// its chain, or a vacant marker) would not fit there: every slab entry
// would grow from 56 to 64 bytes, which measured 6 % on the all-events
// `ring_storm` benchmark and 1.05 MB of its backlog. The chain lives in
// the process table.
const _: () = assert!(std::mem::size_of::<WakeWhat>() == 56);
// A key is 16 bytes, one a packet in the backlog (see `calq::Key`).
const _: () = assert!(std::mem::size_of::<crate::calq::Key>() == 16);

/// The scheduler's pending queue: one banded calendar
/// ([`CalendarQueue`]) over `WakeWhat` payloads.
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
pub(crate) enum Baton<'a> {
    /// The calling process's own `Resume` came up: it keeps running, and
    /// gets back the core it went in with.
    Mine(CoreGuard<'a>),
    /// The baton went to this process; the caller must wait.
    Granted(Arc<ProcShared>),
    /// The run cannot continue on this thread.
    Stop(Returned),
}

/// Where the `run_until` caller waits while a process holds the baton.
#[derive(Default)]
pub(crate) struct Caller {
    thread: Option<Thread>,
    returned: Option<Returned>,
}

/// The pending queue with the clock and the counts that go with it: the
/// half of the [`Core`] a step is walked *against*, beside the process
/// table its chain is in.
pub(crate) struct Agenda {
    pub pending: PendingQueue,
    /// Tie-break counter: the next entry's `seq`.
    seq: u64,
    /// The clock of the active run: the time of the entry being
    /// dispatched, then that of the process running — fast-path jumps
    /// included, charged time it has not settled excluded — so "the past"
    /// is the same thing to an event and to a process. Zero while no run
    /// is active: what is queued between two runs is never in it. (A run
    /// that panicked leaves it where it was, until the next one begins or
    /// the simulation is dropped.)
    pub now: Time,
    /// Active run horizon: the advance fast path must not carry a
    /// process's clock past it (see `ProcCtx::advance`).
    pub horizon: Time,
    pub dispatches: u64,
    pub peak_queue_depth: usize,
    /// Grants of the baton to a process other than the one dispatching.
    /// (The returns to the `run_until` caller are counted by the caller.)
    pub grants: u64,
    pub relayed: u64,
    /// Series reserved and not yet queued ([`SimHandle::reserve_series`]):
    /// pending entries whose storage their owners keep. Outlives a run,
    /// like the queue.
    reserved: u64,
    /// `Resume`s in the queue that belong to a sleeping cycle without a
    /// guard (see [`crate::ProcCtx::scan_until`]). Outlives a run: a cycle
    /// queued past one horizon is still there under the next.
    cycling: u64,
    /// Processes woken so far, and the longest round of any cycle so far:
    /// what [`Self::hopeless`] goes by. Neither is ever reset.
    woken: u64,
    longest_round: Time,
}

/// Hardware cannot retroact: a run that is at `now` takes nothing for
/// before `now`, in any build — the entry would run late, at the wrong
/// instant, and nothing downstream could tell.
#[inline]
fn check_not_past(time: Time, now: Time) {
    #[cold]
    fn in_the_past(time: Time, now: Time) -> ! {
        panic!("scheduled at {time} ns, which is in the past of a run that is at {now} ns")
    }
    if time < now {
        in_the_past(time, now)
    }
}

impl Agenda {
    /// Queue `what` at `time` behind everything already queued there.
    #[inline]
    pub(crate) fn push(&mut self, time: Time, what: WakeWhat) {
        self.push_series(time, 1, what);
    }

    /// Queue `what` at `time` behind everything already queued there, and
    /// hold the `links - 1` tie-break values after its own for the links
    /// that follow it (see [`SimHandle::schedule_series`]): each is queued
    /// on the value after its predecessor's, so the series interleaves
    /// with other same-time entries exactly as if every link had been
    /// pushed here and now.
    #[inline]
    fn push_series(&mut self, time: Time, links: u64, what: WakeWhat) {
        let seq = self.take(links);
        self.push_at_seq(time, seq, what);
    }

    /// Take `links` tie-break values, as [`Self::push_series`] does, for a
    /// series whose owner queues it later ([`Then::reserved`]); until then
    /// it counts as pending.
    #[inline]
    fn reserve(&mut self, links: u64) -> Reserved {
        self.reserved += 1;
        Reserved {
            seq: self.take(links),
        }
    }

    /// The next `links` tie-break values: the first of them.
    #[inline]
    fn take(&mut self, links: u64) -> u64 {
        let seq = self.seq;
        self.seq += links;
        seq
    }

    /// Queue a link's successor, which its closure returned: on the
    /// running series' next value `seq`, or on the one a reservation held.
    #[inline]
    fn push_then(&mut self, then: Then, seq: u64) {
        let seq = match then.seq {
            Some(reserved) => {
                self.reserved -= 1;
                reserved
            }
            None => seq,
        };
        self.push_at_seq(then.at, seq, WakeWhat::Event(then.f));
    }

    /// Queue `what` on tie-break value `seq`: a fresh one, or the one a
    /// series holds for it.
    #[inline]
    fn push_at_seq(&mut self, time: Time, seq: u64, what: WakeWhat) {
        check_not_past(time, self.now);
        self.pending.push(time, seq, what);
    }

    /// Pending entries: those queued, and the reserved series their owners
    /// keep (see [`crate::RunReport::peak_queue_depth`]).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.pending.len() + self.reserved as usize
    }

    /// Bring the run clock up to where a process's clock has been walked
    /// to without queueing (see [`SchedShared::walk`]).
    #[inline]
    fn catch_up(&mut self, proc_now: Time) {
        self.now = self.now.max(proc_now);
    }

    /// What an entry's key must sort below to be the next one due: the
    /// queue's [`CalendarQueue::bound`] at the run's horizon — an entry
    /// past it waits for the next run. The one definition of "next", for
    /// a process's `Resume` ([`Self::is_next`]) and a link's successor
    /// ([`Link::next`]) alike.
    #[inline]
    fn bound(&self) -> (Time, u64) {
        self.pending.bound(self.horizon)
    }

    /// Would an entry queued at `t` now, on a fresh tie-break value, be the
    /// next one due? Then a process alone until `t` may jump its clock
    /// there without queueing its `Resume` (see `ProcCtx::advance`).
    #[inline]
    pub(crate) fn is_next(&self, t: Time) -> bool {
        (t, self.seq) < self.bound()
    }

    /// True when nothing is left in this run but sleeping cycles: it has no
    /// horizon to stop at, and everything queued is the `Resume` of another
    /// one without a guard — no event is pending, no process is awake or
    /// due, and no guarded cycle is queued (its guard may end it). (Whoever
    /// asks is walking a cycle: a dispatching thread, whose own process is
    /// then asleep behind a queue entry or a signal, or the cycle's process
    /// going to sleep.) Nothing is left that could write a word, then; but
    /// a word already written may not have been looked at yet, and the
    /// process that sees it will wake and write others.
    fn becalmed(&self) -> bool {
        self.horizon == Time::MAX && self.len() as u64 == self.cycling
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
        match *quiet {
            Some((then, since)) if then == self.woken => at - since > self.longest_round,
            _ => {
                *quiet = Some((self.woken, at));
                false
            }
        }
    }

    /// A cycle whose round takes `round` ns is about to be walked.
    pub(crate) fn note_round(&mut self, round: Time) {
        self.longest_round = self.longest_round.max(round);
    }
}

/// Everything only the baton holder touches: the process table, each
/// process's chain in its entry, and the [`Agenda`]. One value behind one
/// lock ([`SchedShared::core`]), so that whoever enters the scheduler
/// pays for mutual exclusion once, however much it does inside.
pub(crate) struct Core {
    pub procs: Vec<ProcEntry>,
    pub agenda: Agenda,
}

pub(crate) type CoreGuard<'a> = MutexGuard<'a, Core>;

/// The clock and dispatch count of links run on the spot, without the
/// queue (see [`Link::next`]), waiting for the next entry to fold them into
/// the [`Agenda`]. Relaxed cells: only the baton
/// holder touches them, and the baton's hand-off orders what it wrote.
#[derive(Default)]
struct Unfolded {
    now: AtomicU64,
    dispatches: AtomicU64,
}

/// Scheduler state shared between the run loop, all processes, and every
/// [`SimHandle`] clone. Only the baton holder executes, so the core's lock
/// is never contended: it is there for `Send`/`Sync`, and finding it taken
/// means the holder itself came in a second time (see [`Self::core`]).
pub(crate) struct SchedShared {
    core: Mutex<Core>,
    /// Times the core has been entered, counted under its lock: a
    /// [`Link`] reads it at its pop and again when it asks for a
    /// successor, to tell that nothing entered in between.
    entries: AtomicU64,
    unfolded: Unfolded,
    /// The one thing a thread without the baton touches: where a process
    /// leaves word for the `run_until` caller it is about to unpark.
    caller: Mutex<Caller>,
    /// The cross-layer observability log. Scheduler trace entries, layer
    /// spans, and counters all land here; disabled (the default) it costs
    /// one relaxed atomic load per instrumentation site.
    pub recorder: Arc<obs::Recorder>,
    /// Debug builds: the running process and the charged time it has not
    /// settled, so touching shared state in that condition is a panic
    /// rather than a silently different schedule. Outside the core: it is
    /// asked from inside a look and from `walk`'s own push, under the lock.
    #[cfg(debug_assertions)]
    owing: Mutex<Option<(Arc<ProcShared>, Time)>>,
}

impl SchedShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SchedShared {
            core: Mutex::new(Core {
                procs: Vec::new(),
                agenda: Agenda {
                    pending: PendingQueue::new(),
                    seq: 0,
                    now: 0,
                    horizon: Time::MAX,
                    dispatches: 0,
                    peak_queue_depth: 0,
                    grants: 0,
                    relayed: 0,
                    reserved: 0,
                    cycling: 0,
                    woken: 0,
                    longest_round: 0,
                },
            }),
            entries: AtomicU64::new(0),
            unfolded: Unfolded::default(),
            caller: Mutex::new(Caller::default()),
            recorder: Arc::new(obs::Recorder::new()),
            #[cfg(debug_assertions)]
            owing: Mutex::new(None),
        })
    }

    /// Enter the scheduler: the only way to its state. Under the baton
    /// discipline nobody else can be inside, so a lock that is taken was
    /// taken further up this very stack — by the dispatch loop, around a
    /// [`crate::Sample::sample`] that then scheduled or spawned or notified
    /// a [`Signal`]. Waiting for it would wait for ever; this panics.
    ///
    /// Every entry is counted, and folds in the clock and dispatch count
    /// of the links run on the spot since the last one — so whoever enters
    /// next, a link's own `schedule_at` included, finds the run where it
    /// is.
    #[inline]
    pub(crate) fn core(&self) -> CoreGuard<'_> {
        #[cold]
        fn entered_twice() -> ! {
            panic!(
                "the scheduler was entered while it was held: code it runs under its \
                 lock (a Sample::sample) must not schedule, spawn or notify a Signal"
            )
        }
        let Some(mut core) = self.core.try_lock() else {
            entered_twice()
        };
        let entries = self.entries.load(Ordering::Relaxed);
        self.entries.store(entries + 1, Ordering::Relaxed);
        let ran = self.unfolded.dispatches.load(Ordering::Relaxed);
        if ran != 0 {
            core.agenda.now = self.unfolded.now.load(Ordering::Relaxed);
            core.agenda.dispatches += ran;
            self.unfolded.dispatches.store(0, Ordering::Relaxed);
        }
        core
    }

    /// Note what process `proc` owes (`None`: the running process settled).
    #[inline]
    pub(crate) fn set_owing(&self, _owing: Option<(&Arc<ProcShared>, Time)>) {
        #[cfg(debug_assertions)]
        {
            *self.owing.lock() = _owing.map(|(proc, owed)| (Arc::clone(proc), owed));
        }
    }

    /// Debug builds: panic if the running process owes charged time.
    /// `what` names the shared state about to be touched.
    #[inline]
    pub(crate) fn assert_settled(&self, _what: &str) {
        #[cfg(debug_assertions)]
        if let Some((proc, owed)) = &*self.owing.lock() {
            panic!(
                "{_what} while process '{}' owes {owed} ns of charged time: \
                 stall or call ProcCtx::settle() first",
                proc.name
            );
        }
    }

    // The two ways in for a [`SimHandle`]: enter, do one thing, leave.
    // Not inlined into the handle's generic methods on purpose — those are
    // compiled into the calling crate, where entering and leaving the core
    // would be three calls into this one instead of one (3 % on
    // `ring_storm` when it made two of them per dispatch).

    /// Queue `what` at `time`, from outside the scheduler.
    pub(crate) fn push(&self, time: Time, what: WakeWhat) {
        self.assert_settled("scheduling");
        self.core().agenda.push(time, what);
    }

    /// Queue the first link of a series of `links`, from outside the
    /// scheduler (see [`Agenda::push_series`]).
    fn push_series(&self, time: Time, links: u64, what: WakeWhat) {
        self.assert_settled("scheduling");
        self.core().agenda.push_series(time, links, what);
    }

    /// Reserve a series of `links`, from outside the scheduler (see
    /// [`Agenda::reserve`]).
    fn reserve_series(&self, links: u64) -> Reserved {
        self.assert_settled("scheduling");
        self.core().agenda.reserve(links)
    }

    fn record(&self, entry: TraceEntry) {
        self.recorder.sched(entry);
    }

    /// The `Event` entry of an event dispatched at `time`.
    fn record_event(&self, time: Time) {
        self.record(TraceEntry {
            time,
            kind: TraceKind::Event,
            detail: String::new(),
        });
    }

    /// The `Yield` entry of process `name` giving up the baton at `now`.
    /// `why`: `ResumeAt` (a `Resume` queued for it will bring it back) or
    /// `Blocked` (a [`Signal`] will).
    pub(crate) fn record_yield(&self, name: &str, why: &str, now: Time) {
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
    pub(crate) fn begin_run(&self, horizon: Time) {
        let mut core = self.core();
        let agenda = &mut core.agenda;
        agenda.horizon = horizon;
        agenda.now = 0;
        agenda.dispatches = 0;
        agenda.peak_queue_depth = 0;
        agenda.grants = 0;
        agenda.relayed = 0;
        self.caller.lock().thread = Some(std::thread::current());
    }

    /// Walk the steps process `id` owes, from its clock `cur`, as
    /// consecutive `advance`s by the process itself would: a step nothing
    /// is due before moves the clock; the first one something is gets the
    /// process's `Resume` queued at its end, and the walk stops there.
    /// A step that ends with a look (see [`crate::ProcCtx::scan`]) has the
    /// word sampled at its end — here when the clock moved, or first thing
    /// when its `Resume` comes up — and any word but the expected one cuts
    /// the chain. A cycle ([`crate::ProcCtx::scan_until`]) starts over
    /// past its last step, so only a look ends it, or its guard at the end
    /// of a round — or, without a guard, its turning out
    /// [`Agenda::hopeless`]. Returns `true` when no step is left (the
    /// process may run), `false` when a `Resume` was queued, or a cycle was
    /// left unqueued because nothing can end it any more.
    ///
    /// Called by the process when it settles and by [`Self::dispatch`]
    /// when one of those `Resume`s comes up, on the core either is already
    /// in: a step acquires nothing. Who calls is not an input to
    /// anything the walk decides — the queue head, the horizon, the next
    /// tie-break value, the sampled word — so the schedule cannot tell the
    /// difference, and neither can the trace: a queued step gets the
    /// `Yield` entry the process would have written going to sleep on it.
    pub(crate) fn walk(&self, core: &mut Core, id: ProcId, mut cur: Time) -> bool {
        let Core { procs, agenda, .. } = core;
        let ProcEntry { chain, shared, .. } = &mut procs[id.0];
        if let Some(step) = chain.due.take() {
            if chain.unguarded_cycle() {
                agenda.cycling -= 1;
            }
            if !chain.look(step, cur) {
                return true;
            }
        }
        loop {
            let Some(step) = chain.pop() else {
                if !chain.rewind() || chain.guarded(cur) {
                    break;
                }
                if chain.unguarded_cycle() && agenda.hopeless(&mut chain.quiet, cur) {
                    return false;
                }
                continue;
            };
            let target = cur + step.dt;
            if !agenda.is_next(target) {
                self.assert_settled("scheduling");
                agenda.push(target, WakeWhat::Resume(id));
                self.record_yield(&shared.name, "ResumeAt", cur);
                agenda.catch_up(cur);
                if chain.unguarded_cycle() {
                    agenda.cycling += 1;
                }
                chain.due = Some(step);
                return false;
            }
            cur = target;
            if !chain.look(step, cur) {
                break;
            }
        }
        // The process runs next, from here: that is what time it is.
        agenda.catch_up(cur);
        true
    }

    /// The dispatch loop, run by whichever thread holds the baton: the
    /// `run_until` caller (`me` = `None`) or a process that yielded, on
    /// the core it is already in. Pops the global `(time, seq)` minimum and
    /// runs events inline until the baton has to move or the caller's own
    /// `Resume` comes up. The core is let go of where somebody else will
    /// want it and nowhere else: around an event's closure, before another
    /// process is woken, and on the way out.
    ///
    /// An event's closure runs as a [`Link`], read off the core as it is
    /// popped. It runs each successor that is next itself ([`Link::next`]),
    /// so one it returns is not: the loop queues it on its key, `seq + 1`
    /// (or a reserved series' first link on its reservation's value),
    /// under the entry it makes after every closure. The pops come in
    /// `(time, seq)` order either way.
    pub(crate) fn dispatch<'a>(&'a self, mut core: CoreGuard<'a>, me: Option<ProcId>) -> Baton<'a> {
        let horizon = core.agenda.horizon;
        loop {
            let agenda = &mut core.agenda;
            agenda.peak_queue_depth = agenda.peak_queue_depth.max(agenda.len());
            let Some((now, seq, what)) = agenda.pending.pop_due(horizon) else {
                return Baton::Stop(Returned::Idle);
            };
            debug_assert!(now >= agenda.now, "scheduler time went backwards");
            agenda.now = now;
            agenda.dispatches += 1;
            match what {
                WakeWhat::Event(f) => {
                    let mut link = Link::new(self, agenda, now, seq);
                    drop(core);
                    if self.recorder.is_enabled() {
                        self.record_event(now);
                    }
                    // Caught so a panic here never unwinds the body of the
                    // process whose thread happens to run the event. A
                    // successor in the past is the link's panic too, raised
                    // where a `schedule_at` inside it would have raised it.
                    let then = match catch_unwind(AssertUnwindSafe(|| {
                        let then = f.call(&mut link);
                        if let Some(then) = &then {
                            check_not_past(then.at, link.now);
                        }
                        then
                    })) {
                        Ok(then) => then,
                        Err(payload) => return Baton::Stop(Returned::EventPanic(payload)),
                    };
                    core = self.core();
                    if let Some(then) = then {
                        core.agenda.push_then(then, link.seq + 1);
                    }
                }
                WakeWhat::Resume(id) => {
                    let entry = &core.procs[id.0];
                    // A signal can race with normal completion and
                    // leave a stale resume in the queue; ignore it.
                    if entry.finished {
                        continue;
                    }
                    if self.recorder.is_enabled() {
                        // Gated so the hot dispatch path never clones the name.
                        self.record(TraceEntry {
                            time: now,
                            kind: TraceKind::Resume,
                            detail: entry.shared.name.clone(),
                        });
                    }
                    // Still owing charged steps: it would wake only to
                    // queue the next one and sleep again. Do that for it.
                    if !self.walk(&mut core, id, now) {
                        core.agenda.relayed += 1;
                        continue;
                    }
                    core.agenda.woken += 1;
                    if me == Some(id) {
                        return Baton::Mine(core);
                    }
                    core.agenda.grants += 1;
                    let wakee = Arc::clone(&core.procs[id.0].shared);
                    // Woken after the core is released: the wakee enters it.
                    drop(core);
                    wakee.wake(GO);
                    return Baton::Granted(wakee);
                }
            }
        }
    }

    /// Give the baton back to the `run_until` caller, from a process
    /// thread that is out of the core.
    pub(crate) fn hand_back(&self, why: Returned) {
        let thread = {
            let mut caller = self.caller.lock();
            caller.returned = Some(why);
            caller.thread.clone()
        };
        // Unparked after the lock is released: the wakee takes it.
        thread.expect("a run is active").unpark();
    }

    /// Hold the `run_until` caller, which granted the baton to `woke`,
    /// until a process hands it back.
    pub(crate) fn await_return(&self, woke: &ProcShared) -> Returned {
        await_baton(Some(woke), || self.caller.lock().returned.take())
    }
}

/// The link of a series that is running: lent to its closure for the
/// call ([`SimHandle::schedule_series`], [`Then::at`]), and to every
/// successor it runs in place. It has no public constructor and cannot
/// outlive the call, so only code running as a link can ask whether its
/// successor is next. It asks without entering the scheduler: its
/// successor's key against the bound it read at its pop, while nothing has
/// entered since.
///
/// ```
/// use des::{Simulation, Then};
///
/// let mut sim = Simulation::new();
/// // Three hops 10 ns apart, walked in one call while each is next.
/// sim.handle().schedule_series(100, 3, |link| {
///     for hop in 1..3 {
///         let at = link.now() + 10;
///         if !link.next(at) {
///             return Some(Then::at(at, |_| None));
///         }
///         assert_eq!(link.now(), 100 + 10 * hop);
///     }
///     None
/// });
/// let report = sim.run();
/// assert_eq!((report.dispatches, report.end_time), (3, 120));
/// ```
///
/// What a link learns from its `Link` may leave the call:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use des::Simulation;
///
/// let mut sim = Simulation::new();
/// let kept = Arc::new(Mutex::new(None));
/// let keep = Arc::clone(&kept);
/// sim.handle().schedule_series(10, 1, move |link| {
///     *keep.lock().unwrap() = Some(link.now());
///     None
/// });
/// sim.run();
/// assert_eq!(*kept.lock().unwrap(), Some(10));
/// ```
///
/// The `Link` itself does not:
///
/// ```compile_fail
/// use std::sync::{Arc, Mutex};
/// use des::Simulation;
///
/// let mut sim = Simulation::new();
/// let kept = Arc::new(Mutex::new(None));
/// let keep = Arc::clone(&kept);
/// sim.handle().schedule_series(10, 1, move |link| {
///     *keep.lock().unwrap() = Some(link);
///     None
/// });
/// sim.run();
/// ```
pub struct Link<'a> {
    sched: &'a SchedShared,
    now: Time,
    seq: u64,
    /// What a successor must come before to be next: [`Agenda::bound`] at
    /// this link's pop.
    until: (Time, u64),
    /// [`SchedShared::entries`] when `until` was read, the core held: while
    /// it still reads the same, the queue is as `until` says.
    mark: u64,
}

impl<'a> Link<'a> {
    /// The link popped at `(now, seq)`, on the core it was popped on.
    #[inline]
    fn new(sched: &'a SchedShared, agenda: &Agenda, now: Time, seq: u64) -> Self {
        Link {
            sched,
            now,
            seq,
            until: agenda.bound(),
            mark: sched.entries.load(Ordering::Relaxed),
        }
    }

    /// A link at `now` that takes no successor in place, for calling an
    /// [`EventFn`] outside the dispatch loop.
    #[cfg(test)]
    pub(crate) fn alone(sched: &'a SchedShared, now: Time) -> Self {
        Link {
            sched,
            now,
            seq: 0,
            until: (0, 0),
            mark: sched.entries.load(Ordering::Relaxed),
        }
    }

    /// The time this link runs at.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Is the successor at `at` — keyed on the series' next tie-break
    /// value — the next entry due? If so it is taken: counted, clocked and
    /// traced as its pop would have been, and this link is now it, at
    /// `at`; the caller runs it on the spot. If not, nothing changed, and
    /// the successor belongs in the queue: return it ([`Then::at`]).
    ///
    /// The key is compared against the bound read at this link's pop, and
    /// never enters the scheduler: once anything has — this link's own
    /// `schedule_at`, a notified [`Signal`] — the answer is "not next", and
    /// the successor is queued and popped in its turn. A successor in the
    /// past of the link panics, as scheduling into the past does.
    #[inline]
    pub fn next(&mut self, at: Time) -> bool {
        self.sched.assert_settled("scheduling");
        check_not_past(at, self.now);
        let key = (at, self.seq + 1);
        if key >= self.until || self.sched.entries.load(Ordering::Relaxed) != self.mark {
            return false;
        }
        // What the next pop would return runs now; its clock and its
        // dispatch wait for the next entry to fold them in (its queue depth
        // was counted with the pop it stands in for).
        let unfolded = &self.sched.unfolded;
        let ran = unfolded.dispatches.load(Ordering::Relaxed);
        unfolded.now.store(at, Ordering::Relaxed);
        unfolded.dispatches.store(ran + 1, Ordering::Relaxed);
        (self.now, self.seq) = key;
        if self.sched.recorder.is_enabled() {
            self.sched.record_event(at);
        }
        true
    }
}

/// Tie-break values taken for a series that is queued later
/// ([`SimHandle::reserve_series`]): a pending entry whose storage its owner
/// keeps until a link returns it as [`Then::reserved`]. Neither `Clone`
/// nor `Copy`: a reservation is queued once. One dropped unqueued stays
/// pending for the simulation's life, so a run that has nothing else left
/// is never reported deadlocked or asleep for good.
#[must_use = "a reservation is a pending entry until a link queues it (`Then::reserved`)"]
pub struct Reserved {
    seq: u64,
}

impl Reserved {
    /// The reservation as a number, for an owner that keeps it among words
    /// of its own (a transmit FIFO's records); [`Self::from_raw`] takes it
    /// back.
    pub fn into_raw(self) -> u64 {
        self.seq
    }

    /// The reservation [`Self::into_raw`] turned into `raw`. Each is taken
    /// back once: a second copy queued takes values that belong to other
    /// entries, which breaks the determinism contract (but not memory
    /// safety).
    pub fn from_raw(raw: u64) -> Self {
        Reserved { seq: raw }
    }
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
    /// the past of an active run is a logic error and panics, here and in
    /// every build: hardware cannot retroact.
    pub fn schedule_at(&self, t: Time, f: impl FnOnce(Time) + Send + 'static) {
        self.sched.push(t, WakeWhat::Event(EventFn::new(f)));
    }

    /// Schedule a series of up to `links` events, the first of them `f` at
    /// `t`. Each link runs as a [`Link`]: it may run its successor itself
    /// while [`Link::next`] says that successor is the next entry due, and
    /// returns the first one that is not ([`Then::at`]), or `None`. The
    /// dispatch loop queues a returned successor. Hardware models that
    /// unroll a multi-step activity into a chain of events (a packet's
    /// hops) use this to keep the chain's tie-break order identical to
    /// scheduling every step up front: the `links` tie-break values are
    /// taken here, link `k` fires on the `k`-th, and among entries for the
    /// same virtual time lower values fire first. Every link is a dispatch
    /// at its own `(time, seq)`, counted, clocked and traced as its pop
    /// would have been, whoever runs it. A link its predecessor runs costs
    /// no entry into the scheduler and no trip through the dispatch loop;
    /// a returned one costs the entry the loop makes after any event,
    /// where scheduling it from inside its predecessor cost two.
    ///
    /// Taking more than `links - 1` successors takes values that belong to
    /// later entries, which breaks the determinism contract (but not
    /// memory safety); a successor in the past of the run panics, as the
    /// link that asked for it, like any scheduling into the past.
    pub fn schedule_series(
        &self,
        t: Time,
        links: u64,
        f: impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static,
    ) {
        assert!(links > 0, "a series has at least one link");
        self.sched
            .push_series(t, links, WakeWhat::Event(EventFn::link(f)));
    }

    /// Take the tie-break values of a series of `links` now, exactly as
    /// [`Self::schedule_series`] would, and queue it later: a link returns
    /// its first link as [`Then::reserved`], at a time of its choosing.
    /// The series then pops, interleaves and counts exactly as if it had
    /// been scheduled here and now, provided it is queued before anything
    /// that sorts after it pops. Until then it is a pending entry that
    /// the queue does not store: [`crate::RunReport::peak_queue_depth`]
    /// counts it, and a run cannot end deadlocked while it is outstanding.
    /// A hardware model that holds a booked packet in a FIFO of its own
    /// keeps only the reservation's number with it ([`Reserved::into_raw`]).
    pub fn reserve_series(&self, links: u64) -> Reserved {
        assert!(links > 0, "a series has at least one link");
        self.sched.reserve_series(links)
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
    use crate::time::us;
    use crate::{ProcCtx, RunReport, Sample, Simulation};
    use std::sync::atomic::AtomicU32;

    /// Words a chain can look at, written by plain stores.
    struct Words([AtomicU32; 3]);

    impl Sample for Words {
        fn sample(&self, addr: usize) -> u32 {
            self.0[addr].load(Ordering::Relaxed)
        }
    }

    impl Words {
        fn new() -> Arc<Self> {
            Arc::new(Words(Default::default()))
        }

        fn set(&self, addr: usize) {
            self.0[addr].store(1, Ordering::Relaxed);
        }
    }

    /// Times the core has been entered so far.
    fn entries(sched: &SchedShared) -> u64 {
        sched.entries.load(Ordering::Relaxed)
    }

    /// Times the core has been entered since `mark` (an earlier reading of
    /// [`entries`]).
    fn entered_since(sched: &SchedShared, mark: u64) -> u64 {
        entries(sched) - mark
    }

    /// Three processes asleep in poll cycles of 100, 150 and 250 ns a
    /// round, each on a word of its own, until an event at `flip_at` sets
    /// the first one's; that process, woken, sets the other two. Returns
    /// how often the run entered the core.
    fn cycles_until(flip_at: Time) -> (u64, RunReport) {
        let mut sim = Simulation::new();
        let mem = Words::new();
        for (word, lead) in [(0, 20), (1, 70), (2, 170)] {
            let mem = Arc::clone(&mem);
            sim.spawn(format!("poller{word}"), move |ctx| {
                ctx.scan_until(&mem, lead, 30, 50, [(word, 0)], None);
                if word == 0 {
                    mem.set(1);
                    mem.set(2);
                }
            });
        }
        sim.handle().schedule_at(flip_at, move |_| mem.set(0));
        let sched = sim.handle().sched;
        let mark = entries(&sched);
        let report = sim.run();
        assert!(report.is_clean());
        (entered_since(&sched, mark), report)
    }

    #[test]
    fn relayed_steps_enter_nothing() {
        let (near, near_report) = cycles_until(300_000);
        let (far, far_report) = cycles_until(3_000_000);
        // Every step is a dispatch, and all but a handful were walked for a
        // sleeper by whichever thread was dispatching...
        assert!(near_report.relayed > 15_000, "{near_report:?}");
        assert!(far_report.relayed > 9 * near_report.relayed);
        assert_eq!(far_report.handoffs, near_report.handoffs);
        // ...inside the core it was in already. What enters is the run
        // (to begin, to dispatch, to report: 3), each process when it is
        // first granted and when it goes to sleep (6), the loop again after
        // the event's closure (1), and per process woken: itself, and the
        // caller to mark it finished and to dispatch on (9). Ten times the
        // steps in between are not a single entry more.
        assert_eq!(near, far);
        assert_eq!(near, 19);
    }

    #[test]
    fn a_slow_path_advance_enters_once() {
        let mut sim = Simulation::new();
        let mem = Words::new();
        for (word, lead) in [(0, 20), (1, 70)] {
            let mem = Arc::clone(&mem);
            sim.spawn(format!("sleeper{word}"), move |ctx| {
                ctx.scan_until(&mem, lead, 30, 50, [(word, 0)], None);
            });
        }
        sim.spawn("staller", move |ctx: &mut ProcCtx| {
            let mark = entries(&ctx.sched);
            // Rounds of both sleepers' cycles are due first, each step in
            // the other's way, so this queues its `Resume`, walks theirs
            // for them and pops its own: the test, the push, every pop and
            // every step on the one entry.
            ctx.advance(1_000);
            assert_eq!(entered_since(&ctx.sched, mark), 1);
            assert_eq!(ctx.now(), 1_000);
            mem.set(0);
            mem.set(1);
        });
        let report = sim.run();
        assert!(report.is_clean());
        assert!(report.relayed >= 30, "{report:?}");
    }

    #[test]
    fn push_pops_in_fifo_order_at_one_time() {
        let s = SchedShared::new();
        s.push(10, WakeWhat::Resume(ProcId(0)));
        s.push(10, WakeWhat::Resume(ProcId(1)));
        let q = &mut s.core().agenda.pending;
        assert_eq!(q.bound(Time::MAX), (10, 0));
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
            let popped = s.core().agenda.pending.pop().unwrap();
            assert_eq!(popped.0, round);
        }
        let q = &s.core().agenda.pending;
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab_slots(), 1, "one recycled slot suffices");
    }

    /// A link of an `n`-link series that logs `(tag, k, t)` as it runs and
    /// takes link `k + 1`, `gap` ns on, until the last: returned to the
    /// dispatch loop — or, when it `runs_on`, run on the spot while
    /// [`Link::next`] says it is next, and returned only when it is not.
    fn link(
        log: Arc<Mutex<Vec<(char, u64, Time)>>>,
        mut k: u64,
        n: u64,
        gap: Time,
        runs_on: bool,
    ) -> impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static {
        move |l| loop {
            log.lock().push(('s', k, l.now()));
            if k + 1 == n {
                return None;
            }
            let at = l.now() + gap;
            k += 1;
            if !(runs_on && l.next(at)) {
                return Some(Then::at(at, link(log, k, n, gap, runs_on)));
            }
        }
    }

    #[test]
    fn a_series_enters_once_per_link() {
        for (k, runs_on) in [1, 2, 15].into_iter().flat_map(|k| [(k, false), (k, true)]) {
            let mut sim = Simulation::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let sched = sim.handle().sched;
            let mark = entries(&sched);
            sim.handle()
                .schedule_series(100, k, link(Arc::clone(&log), 0, k, 80, runs_on));
            let report = sim.run();
            assert_eq!(report.dispatches, k);
            assert_eq!(log.lock().len() as u64, k);
            // The run (to begin, to dispatch, to report: 3), queueing the
            // first link (1) and the loop again after each closure it
            // called: once when every successor was next and its
            // predecessor, asking, ran it without an entry; k times when
            // each link returned its successor without asking, to be queued.
            // History, for the same chain: before series, when a chain
            // reserved its tie-break values and each link pushed the next
            // from inside its closure with one of them, 3 + 2k + 1 — the
            // reservation, the first link's push, the loop's own entry
            // behind every link, and behind all but the last the push its
            // closure made.
            let after = if runs_on { 1 } else { k };
            assert_eq!(entered_since(&sched, mark), 3 + 1 + after, "{k} links");
        }
    }

    #[test]
    fn reserved_block_interleaves_as_if_pushed_at_reservation() {
        for runs_on in [false, true] {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let log = Arc::new(Mutex::new(Vec::new()));
            let plain = |tag: char, k: u64, t: Time| {
                let log = Arc::clone(&log);
                h.schedule_at(t, move |t| log.lock().push((tag, k, t)));
            };
            // Queued before the series: at each instant, before its link.
            for (k, t) in [(0, 10), (1, 20), (2, 20)] {
                plain('b', k, t);
            }
            // Three links at 10, 20, 30, each taken by its predecessor as it
            // runs — after everything below has been queued.
            h.schedule_series(10, 3, link(Arc::clone(&log), 0, 3, 10, runs_on));
            // Queued after the series: at each instant, after its link, even
            // though the link was not queued yet when these were.
            for (k, t) in [(0, 10), (1, 20), (2, 30)] {
                plain('a', k, t);
            }
            assert!(sim.run().is_clean());
            let log = log.lock();
            assert_eq!(
                *log,
                [
                    ('b', 0, 10),
                    ('s', 0, 10),
                    ('a', 0, 10),
                    ('b', 1, 20),
                    ('b', 2, 20),
                    ('s', 1, 20),
                    ('a', 1, 20),
                    ('s', 2, 30),
                    ('a', 2, 30),
                ],
                "runs on: {runs_on}"
            );
        }
    }

    /// What ran, as [`link`] logs it, and each run's dispatches, peak
    /// depth and end.
    type Carried = (Vec<(char, u64, Time)>, [(u64, usize, Time); 2]);

    /// Plain events at 10 and 30 ns queued first, a two-link carrier at 10
    /// and 20, then a three-link series at 30, 40 and 50 — scheduled there
    /// and then, or, when `reserve`, reserved there and queued by the
    /// carrier's last link — and plain events at 30, 40 and 50 queued last;
    /// run to 15, then to the end. Returns what ran, and what each run
    /// reported.
    fn carried(reserve: bool, runs_on: bool) -> Carried {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let plain = |tag: char, k: u64, t: Time| {
            let log = Arc::clone(&log);
            h.schedule_at(t, move |t| log.lock().push((tag, k, t)));
        };
        for (k, t) in [(0, 10), (1, 30), (2, 30)] {
            plain('b', k, t);
        }
        let held = Arc::new(Mutex::new(None));
        let (carry, l) = (Arc::clone(&held), Arc::clone(&log));
        h.schedule_series(10, 2, move |link| {
            l.lock().push(('c', 0, link.now()));
            Some(Then::at(20, move |link| {
                l.lock().push(('c', 1, link.now()));
                let (r, first) = carry.lock().take()?;
                Some(Then::reserved(r, 30, first))
            }))
        });
        let series = link(Arc::clone(&log), 0, 3, 10, runs_on);
        if reserve {
            *held.lock() = Some((h.reserve_series(3), series));
        } else {
            h.schedule_series(30, 3, series);
        }
        for (k, t) in [(0, 30), (1, 40), (2, 50)] {
            plain('a', k, t);
        }
        let runs = [sim.run_until(15), sim.run()];
        let log = log.lock().clone();
        (
            log,
            runs.map(|r| (r.dispatches, r.peak_queue_depth, r.end_time)),
        )
    }

    /// A reserved series pops among the entries queued before and after
    /// its reservation, counts its dispatches and peaks the queue exactly as
    /// the same series scheduled where it was reserved, though it enters
    /// the queue only as the carrier's last link runs — and across a run's
    /// end, where it is pending and unqueued.
    #[test]
    fn a_reserved_series_runs_as_if_scheduled_at_its_reservation() {
        let want = [
            ('b', 0, 10),
            ('c', 0, 10),
            ('c', 1, 20),
            ('b', 1, 30),
            ('b', 2, 30),
            ('s', 0, 30),
            ('a', 0, 30),
            ('s', 1, 40),
            ('a', 1, 40),
            ('s', 2, 50),
            ('a', 2, 50),
        ];
        for runs_on in [false, true] {
            let scheduled = carried(false, runs_on);
            assert_eq!(scheduled.0, want, "runs on: {runs_on}");
            assert_eq!(scheduled.1, [(2, 8, 10), (9, 7, 50)], "runs on: {runs_on}");
            assert_eq!(carried(true, runs_on), scheduled, "runs on: {runs_on}");
        }
    }

    /// A reserved series queued in the past of the link that queues it
    /// panics, as that link's own successor would.
    #[test]
    #[should_panic(
        expected = "scheduled at 50 ns, which is in the past of a run that is at 100 ns"
    )]
    fn a_reserved_series_queued_in_the_past_panics() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let r = h.reserve_series(1);
        h.schedule_series(100, 1, move |_| Some(Then::reserved(r, 50, |_| None)));
        sim.run();
    }

    /// An outstanding reservation is pending: an agenda that holds nothing
    /// else is not becalmed, and a run that ends with it outstanding and a
    /// process blocked reports no deadlock — the series may yet notify it,
    /// and here does.
    #[test]
    fn a_run_that_ends_with_a_reservation_outstanding_is_not_becalmed() {
        let sched = SchedShared::new();
        assert!(sched.core().agenda.becalmed());
        let r = sched.reserve_series(1);
        assert!(!sched.core().agenda.becalmed());
        let _ = r.into_raw();

        let mut sim = Simulation::new();
        let h = sim.handle();
        let signal = h.new_signal();
        let waits = signal.clone();
        sim.spawn("waiter", move |ctx| {
            let ticket = ctx.ticket(&waits);
            ctx.wait(ticket);
            assert_eq!(ctx.now(), 200);
        });
        let r = h.reserve_series(1);
        let first = sim.run();
        assert!(first.is_clean(), "{first:?}");
        h.schedule_series(100, 1, move |_| {
            Some(Then::reserved(r, 200, move |_| {
                signal.notify_at(200);
                None
            }))
        });
        let second = sim.run();
        assert!(second.is_clean(), "{second:?}");
        assert_eq!((second.dispatches, second.end_time), (3, 200));
        assert_eq!(sim.handle().sched.core().agenda.len(), 0);
    }

    /// Entries pushed into `sim`'s pending queue so far.
    fn pushes(sim: &Simulation) -> u64 {
        sim.handle().sched.core().agenda.pending.pushes()
    }

    /// A series whose links each run the next: only the first link goes
    /// through the queue, and the whole series is the one call its pop
    /// makes. (A link that returns its successor instead has it pushed and
    /// popped again — k pushes — all through the one slot the previous pop
    /// freed.)
    #[test]
    fn a_series_whose_links_each_run_the_next_is_one_call() {
        for k in [1, 2, 15] {
            let mut sim = Simulation::new();
            let calls = Arc::new(AtomicU32::new(0));
            let counted = Arc::clone(&calls);
            let log = Arc::new(Mutex::new(Vec::new()));
            let first = link(Arc::clone(&log), 0, k, 80, true);
            sim.handle().schedule_series(100, k, move |l| {
                counted.fetch_add(1, Ordering::Relaxed);
                first(l)
            });
            let report = sim.run();
            assert_eq!(report.dispatches, k);
            assert_eq!(report.end_time, 100 + 80 * (k - 1));
            assert_eq!(pushes(&sim), 1, "{k} links");
            assert_eq!(sim.handle().sched.core().agenda.pending.slab_slots(), 1);
            assert_eq!(calls.load(Ordering::Relaxed), 1, "{k} links");
            let times: Vec<Time> = log.lock().iter().map(|&(_, _, t)| t).collect();
            assert_eq!(times, (0..k).map(|i| 100 + 80 * i).collect::<Vec<_>>());
        }
    }

    fn tied_with_the_far_band(runs_on: bool) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (h2, plain, series) = (h.clone(), Arc::clone(&log), Arc::clone(&log));
        // The first pop seals a near band of this one link, so what its
        // closure queues at 1 ms lands in the far band — as does its
        // successor, keyed at the same instant but on the series' earlier
        // tie-break value: the far band does not keep its minimum's
        // tie-break, so the successor is queued and wins the tie there.
        h.schedule_series(100, 2, move |l| {
            h2.schedule_at(1_000_000, move |t| plain.lock().push(('p', 0, t)));
            link(series, 0, 2, 1_000_000 - l.now(), runs_on)(l)
        });
        assert!(sim.run().is_clean());
        assert_eq!(
            *log.lock(),
            [('s', 0, 100), ('s', 1, 1_000_000), ('p', 0, 1_000_000)]
        );
        assert_eq!(pushes(&sim), 3, "the link, the plain event, the successor");
    }

    #[test]
    fn a_successor_tied_with_the_far_band_takes_the_queue() {
        tied_with_the_far_band(false);
    }

    #[test]
    fn a_successor_tied_with_the_far_band_takes_the_queue_when_its_link_asks() {
        tied_with_the_far_band(true);
    }

    fn behind_a_same_time_entry(runs_on: bool) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let plain = Arc::clone(&log);
        // Queued first, so on a smaller tie-break value than the series'.
        h.schedule_at(20, move |t| plain.lock().push(('b', 0, t)));
        h.schedule_series(10, 2, link(Arc::clone(&log), 0, 2, 10, runs_on));
        assert!(sim.run().is_clean());
        assert_eq!(*log.lock(), [('s', 0, 10), ('b', 0, 20), ('s', 1, 20)]);
        assert_eq!(pushes(&sim), 3, "the plain event, the link, the successor");
    }

    #[test]
    fn a_successor_behind_a_same_time_entry_takes_the_queue() {
        behind_a_same_time_entry(false);
    }

    #[test]
    fn a_successor_behind_a_same_time_entry_takes_the_queue_when_its_link_asks() {
        behind_a_same_time_entry(true);
    }

    fn past_the_horizon(runs_on: bool) {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.handle()
            .schedule_series(10, 2, link(Arc::clone(&log), 0, 2, 100, runs_on));
        let first = sim.run_until(50);
        assert_eq!((first.dispatches, first.end_time), (1, 10));
        assert_eq!(pushes(&sim), 2, "the successor was queued");
        assert_eq!(sim.handle().sched.core().agenda.pending.len(), 1);
        let second = sim.run();
        assert_eq!((second.dispatches, second.end_time), (1, 110));
        assert_eq!(*log.lock(), [('s', 0, 10), ('s', 1, 110)]);
    }

    #[test]
    fn a_successor_past_the_horizon_waits_for_the_next_run() {
        past_the_horizon(false);
    }

    #[test]
    fn a_successor_past_the_horizon_waits_for_the_next_run_when_its_link_asks() {
        past_the_horizon(true);
    }

    /// Link `k` of a 14-link series that, but for the last, queues a plain
    /// event 1 µs on and takes link `k + 1`, 7 ns on, as [`link`] does: the
    /// queue grows under links that are each next, and is deepest as the
    /// last one runs.
    fn laying(
        h: SimHandle,
        mut k: u64,
        runs_on: bool,
    ) -> impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static {
        move |l| loop {
            if k + 1 == 14 {
                return None;
            }
            h.schedule_at(l.now() + 1_000, |_| ());
            let at = l.now() + 7;
            k += 1;
            if !(runs_on && l.next(at)) {
                return Some(Then::at(at, laying(h, k, runs_on)));
            }
        }
    }

    /// Three overlapping series among plain events (some of which queue
    /// more), then a fourth series alone, laying plain events as it goes,
    /// across two runs: what each run reports is what it reported while
    /// every successor was pushed and popped, captured then.
    fn mixed_world(runs_on: bool) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        for s in 0..3 {
            let first = link(Arc::clone(&log), 0, 6, 40 + s * 10, runs_on);
            h.schedule_series(10 + s * 25, 6, first);
        }
        for k in 0..12 {
            let (h2, log) = (h.clone(), Arc::clone(&log));
            h.schedule_at(k * 30, move |t| {
                log.lock().push(('p', k, t));
                if k % 3 == 0 {
                    let log = Arc::clone(&log);
                    h2.schedule_at(t + 45, move |t| log.lock().push(('q', k, t)));
                }
            });
        }
        h.schedule_series(400, 14, laying(h.clone(), 0, runs_on));
        let first = sim.run_until(200);
        let second = sim.run();
        let observed = [first, second].map(|r| (r.dispatches, r.peak_queue_depth, r.end_time));
        assert_eq!(observed, [(21, 16, 185), (40, 14, 1_484)]);
        assert_eq!(log.lock().len(), 34);
    }

    #[test]
    fn a_mixed_world_reports_what_it_did_before() {
        mixed_world(false);
    }

    #[test]
    fn a_self_running_mixed_world_reports_what_it_did_before() {
        mixed_world(true);
    }

    /// Links at 10, 20 and 30 µs, each returned and queued; the third
    /// schedules at 25 µs, which checks against the run's clock — the third
    /// link's time, not the first's.
    #[test]
    #[should_panic(expected = "a run that is at 30000 ns")]
    fn a_link_run_without_entering_schedules_against_its_own_time() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        h.schedule_series(us(10), 3, move |_| {
            Some(Then::at(us(20), move |_| {
                Some(Then::at(us(30), move |_| {
                    h2.schedule_at(us(25), |_| ());
                    None
                }))
            }))
        });
        sim.run();
    }

    /// The same three links as one closure that runs the second and the
    /// third itself, without entering the core: the push at 25 µs is the
    /// first entry since the first link's pop, and it checks against the
    /// clock the links left.
    #[test]
    #[should_panic(expected = "a run that is at 30000 ns")]
    fn a_link_run_without_entering_schedules_against_its_own_time_when_its_link_asks() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        h.schedule_series(us(10), 3, move |l| {
            assert!(l.next(us(20)) && l.next(us(30)));
            assert_eq!(l.now(), us(30));
            h2.schedule_at(us(25), |_| ());
            None
        });
        sim.run();
    }

    /// A third link that panics: the clock stays at its time, and the next
    /// run counts only its own. Captured with every successor run inside
    /// the core.
    fn panics_after_running_on(first: impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static) {
        let mut sim = Simulation::new();
        let h = sim.handle();
        h.schedule_series(10, 3, first);
        let run = catch_unwind(AssertUnwindSafe(|| sim.run()));
        assert!(run.is_err(), "the link's panic reaches the caller");
        let early = catch_unwind(AssertUnwindSafe(|| h.schedule_at(25, |_| ())));
        assert!(early.is_err(), "the run that panicked is still at 30 ns");
        h.schedule_at(50, |_| ());
        let next = sim.run();
        assert_eq!((next.dispatches, next.end_time), (1, 50));
    }

    #[test]
    fn a_link_run_without_entering_that_panics_leaves_the_next_run_its_own() {
        panics_after_running_on(|l| {
            Some(Then::at(l.now() + 10, move |l| {
                Some(Then::at(l.now() + 10, |_| panic!("the third link")))
            }))
        });
    }

    #[test]
    fn a_link_run_without_entering_that_panics_leaves_the_next_run_its_own_when_its_link_asks() {
        panics_after_running_on(|l| {
            for _ in 0..2 {
                assert!(l.next(l.now() + 10));
            }
            panic!("the third link")
        });
    }

    /// A link whose closure notifies a waiting process enters the core to
    /// queue its `Resume`, so its successor is not next by the only answer
    /// a link gets without entering, and takes the queue — where it is
    /// behind nothing; that successor's own successor is behind the
    /// `Resume`, and takes the queue too. Pops stay in `(time, seq)` order.
    #[test]
    fn a_link_that_notifies_sends_its_successor_through_the_queue() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let signal = h.new_signal();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (waits, logs) = (signal.clone(), Arc::clone(&log));
        sim.spawn("waiter", move |ctx| {
            let ticket = ctx.ticket(&waits);
            ctx.wait(ticket);
            logs.lock().push(('w', 0, ctx.now()));
        });
        let (sched, logs) = (Arc::clone(&h.sched), Arc::clone(&log));
        h.schedule_series(10, 3, move |l| {
            logs.lock().push(('s', 0, l.now()));
            signal.notify_at(20);
            let notified = entries(&sched);
            assert!(!l.next(20), "something entered since the pop");
            Some(Then::at(20, move |l| {
                assert_eq!(entries(&sched), notified + 1, "the successor took the core");
                link(logs, 1, 3, 10, true)(l)
            }))
        });
        assert!(sim.run().is_clean());
        assert_eq!(
            *log.lock(),
            [('s', 0, 10), ('s', 1, 20), ('w', 0, 20), ('s', 2, 30)]
        );
    }
}
