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
//! `std::thread::unpark`, never through a lock the wakee needs. The
//! granter yields its CPU until the wakee has taken the baton, and only
//! then parks ([`await_baton`]), so on one CPU two processes that pass it
//! back and forth switch without a futex call.
//!
//! A process is not woken for time that is only its own, either.
//! [`ProcCtx::charge`] moves the process's local clock and records the step
//! in its [`Chain`]; the next stall *settles* the chain — walks the steps
//! as consecutive `advance`s would — and whichever thread pops one of the
//! chain's `Resume`s walks the rest on the sleeping process's behalf
//! ([`SchedShared::walk`]). A step may end with a *look* at one word of
//! shared state ([`ProcCtx::scan`]): the walker takes it where the woken
//! process would have, and the process sleeps on while the word is the one
//! it expected. A chain may also be a *cycle* ([`ProcCtx::scan_until`]):
//! walked to its end it starts over, so a process blocked on a poll loop
//! sleeps until a word changes, however many sweeps that takes — or until
//! its [`RoundGuard`] holds at the end of one.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use crate::sched::{Baton, CoreGuard, Returned, SchedShared, SimHandle, WakeWhat};
use crate::signal::{self, Signal, Ticket};
use crate::time::Time;

/// Identifies a process within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ProcId(pub usize);

/// A spawned process's value: what its body returned, stored once on the
/// process's own thread as the body returns (its last charge settled).
pub struct Spawned<R>(Arc<OnceLock<R>>);

impl<R> Spawned<R> {
    /// The body's value, once: `None` while the body is blocked, and for
    /// one left deadlocked or unwound (at a horizon, or by the world's drop).
    pub fn take(&mut self) -> Option<R> {
        // The process's thread lets go of its share once it has stored.
        Arc::get_mut(&mut self.0)?.take()
    }
}

/// [`ProcShared`] state: the process is waiting for the baton.
const PARKED: u8 = 0;
/// The process holds the baton; the run clock says what time it is.
pub(crate) const GO: u8 = 1;
/// The simulation is being dropped; the process thread must unwind.
pub(crate) const ABORT: u8 = 2;

/// Shared state a chain step can end with a look at: memory the owner
/// models as one `u32` word per address. Implemented by the hardware model
/// (`des` knows nothing of what the words are) and called by whichever
/// thread walks the step, at the instant the step ends.
pub trait Sample: Send + Sync {
    /// The word at `addr`, as of this point of the run. Reading it must
    /// change nothing a simulated entity can observe, and must not enter
    /// the scheduler: the walker is inside it, so a `sample` that
    /// schedules, spawns or notifies a [`Signal`] panics there (with a
    /// message that says so) instead of computing a word.
    fn sample(&self, addr: usize) -> u32;
}

/// A host-side condition a sleeping poll cycle ([`ProcCtx::scan_until`])
/// checks at the end of each sweep that saw nothing, with the clock at
/// that instant: the check a written-out poll loop makes between one sweep
/// and the next. `true` ends the cycle there.
///
/// Whichever thread walks the sweep calls it, from inside the scheduler,
/// so like [`Sample::sample`] it must change nothing a simulated entity
/// can observe and must not enter the scheduler; reading what processes
/// publish (an atomic count, say) is what it is for.
pub type RoundGuard = Arc<dyn Fn(Time) -> bool + Send + Sync>;

/// Steps a process can owe at once; one more [`ProcCtx::charge`] settles
/// the chain first. Sized for the longest poll sweep in the benchmark, a
/// 16-rank receive-from-anyone: one carried charge, then a charge and a
/// stall for each of 15 flag words. Longer sweeps settle when full; a
/// cycle has to fit whole ([`ProcCtx::CYCLE_LOOKS`]).
pub(crate) const CHAIN_CAP: usize = 32;

/// "Sample `addr`; anything but `expected` ends the chain here."
#[derive(Clone, Copy)]
struct Look {
    addr: usize,
    expected: u32,
    /// The caller's name for this look, handed back if it is the one.
    index: u32,
}

#[derive(Clone, Copy, Default)]
pub(crate) struct Step {
    pub dt: Time,
    look: Option<Look>,
}

/// The steps a process has charged and not yet had walked, oldest first.
/// An inline array, so charging, settling and relaying never allocate.
#[derive(Default)]
pub(crate) struct Chain {
    steps: [Step; CHAIN_CAP],
    next: usize,
    len: usize,
    /// The step whose `Resume` is in the queue; its look is taken when
    /// that comes up.
    pub due: Option<Step>,
    /// What the looks sample. Present only while steps are queued: the
    /// hardware model behind it holds a [`SimHandle`], so a chain that kept
    /// it would keep its own scheduler — the whole world — alive.
    on: Option<Arc<dyn Sample>>,
    /// Where the walk stopped short: a look that did not see its expected
    /// word, or a cycle's guard.
    stop: Option<Stop>,
    /// `Some(n)` while the steps are a cycle: past the last the walk starts
    /// over at the first, and has `n` times so far.
    rounds: Option<u64>,
    /// What ends the cycle at the end of a round, if anything but a look.
    guard: Option<RoundGuard>,
    /// What `SchedShared::hopeless` remembers of a cycle between rounds.
    pub quiet: Option<(u64, Time)>,
}

/// Where a walk stopped short of its chain's end.
#[derive(Clone, Copy)]
struct Stop {
    /// The look that did not see its expected word — its index and the
    /// word — or `None` when a cycle's guard held at a round's end.
    hit: Option<(u32, u32)>,
    /// The instant of the look, or of the round's end.
    at: Time,
    /// Full rounds of a cycle walked before the look's, or up to the guard.
    rounds: u64,
}

impl Chain {
    /// Record a step; `false` (and nothing recorded) when full.
    fn push(&mut self, step: Step) -> bool {
        if self.len == CHAIN_CAP {
            return false;
        }
        self.steps[self.len] = step;
        self.len += 1;
        true
    }

    /// Record a look and the two steps before it: `cpu` of the process's
    /// own time, then a stall of `stall`.
    fn push_look(&mut self, cpu: Time, stall: Time, look: Look) -> bool {
        let own = Step {
            dt: cpu,
            look: None,
        };
        let stalled = Step {
            dt: stall,
            look: Some(look),
        };
        self.push(own) && self.push(stalled)
    }

    /// Take the oldest unwalked step. A chain with none left is forgotten,
    /// unless it is a cycle (see [`Chain::rewind`]).
    pub fn pop(&mut self) -> Option<Step> {
        if self.next == self.len {
            if self.rounds.is_none() {
                self.cut();
            }
            return None;
        }
        self.next += 1;
        Some(self.steps[self.next - 1])
    }

    /// Are the steps a cycle only a look can end? Only such a cycle can
    /// turn out hopeless (`Agenda::hopeless`): a guard may yet hold,
    /// whatever the words do.
    pub fn unguarded_cycle(&self) -> bool {
        self.rounds.is_some() && self.guard.is_none()
    }

    /// Past the last step of a cycle: one more round walked, the first step
    /// is next. `false` for a chain that is not a cycle.
    pub fn rewind(&mut self) -> bool {
        let Some(rounds) = &mut self.rounds else {
            return false;
        };
        *rounds += 1;
        self.next = 0;
        true
    }

    /// A round of a cycle has ended at `at` with every look as expected:
    /// does its guard hold? Then the stop is recorded, the chain is cut,
    /// and the process has to run.
    pub fn guarded(&mut self, at: Time) -> bool {
        if !self.guard.as_ref().is_some_and(|holds| holds(at)) {
            return false;
        }
        self.stop = Some(Stop {
            hit: None,
            at,
            rounds: self.rounds.unwrap_or(0),
        });
        self.cut();
        true
    }

    /// `step` has ended at `at`: take its look, if it has one. `false`
    /// when the word was not the expected one — the hit is recorded, the
    /// chain is cut, and the process has to run.
    pub fn look(&mut self, step: Step, at: Time) -> bool {
        let Some(look) = step.look else {
            return true;
        };
        let on = self.on.as_ref().expect("queued with what it samples");
        let word = on.sample(look.addr);
        if word == look.expected {
            return true;
        }
        self.stop = Some(Stop {
            hit: Some((look.index, word)),
            at,
            rounds: self.rounds.unwrap_or(0),
        });
        self.cut();
        false
    }

    /// Forget every unwalked step, and let go of what they sampled.
    pub fn cut(&mut self) {
        (self.next, self.len) = (0, 0);
        self.due = None;
        self.on = None;
        self.rounds = None;
        self.guard = None;
        self.quiet = None;
    }
}

/// The one place a thread waits for the baton: until `here` says it has
/// arrived. A thread that has just granted the baton to process `woke`
/// yields its CPU until `woke` has taken it, and only then parks. On one
/// CPU the yield runs `woke`; if that passes the baton straight back, it
/// finds this thread still runnable, its `unpark` is only a store, and
/// the yield returns to the baton — one switch and no futex call on
/// either side. With a CPU to spare the yields last until `woke` is
/// running, and the thread parks as it would have. `park` can return
/// spuriously or on a stale token, so `here` decides.
pub(crate) fn await_baton<T>(woke: Option<&ProcShared>, mut here: impl FnMut() -> Option<T>) -> T {
    loop {
        if let Some(got) = here() {
            return got;
        }
        match woke {
            Some(p) if p.state.load(Ordering::Relaxed) == GO => std::thread::yield_now(),
            _ => std::thread::park(),
        }
    }
}

/// What another thread needs of a process to wake it, and to name it: a
/// state word the waker stores [`GO`] or [`ABORT`] to, and the thread it
/// then unparks. The process waits for it in [`await_baton`].
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

    /// Wait until the baton arrives, having granted it to `woke`, if to
    /// anyone; `false` means abort.
    fn await_grant(&self, woke: Option<&ProcShared>) -> bool {
        await_baton(woke, || match self.state.swap(PARKED, Ordering::Acquire) {
            GO => Some(true),
            ABORT => Some(false),
            _ => None,
        })
    }
}

/// A process's row of the table in the scheduler's core.
pub(crate) struct ProcEntry {
    pub shared: Arc<ProcShared>,
    pub join: Option<std::thread::JoinHandle<()>>,
    pub finished: bool,
    /// Written by the process while it runs, walked by whichever thread
    /// pops its `Resume` while it sleeps — each of them inside the core.
    pub chain: Chain,
    /// The number of the signal wait the process sleeps on, 0 for none: a
    /// notification wakes the process only if its registration carries it.
    pub waiting: u64,
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
    /// The process's own clock: the run clock plus fast-path jumps plus
    /// whatever it has charged.
    pub(crate) now: Time,
    /// The clock at the oldest unsettled [`ProcCtx::charge`], while the
    /// process owes any.
    pub(crate) owed_since: Option<Time>,
    /// Signal waits so far: the last one's number (see [`ProcEntry::waiting`]).
    waits: u64,
    pub(crate) shared: Arc<ProcShared>,
    pub(crate) sched: Arc<SchedShared>,
}

impl ProcCtx {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
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

    /// Stall for `dt` nanoseconds of virtual time (a PIO access, a pacing
    /// wait, …): other entities with earlier deadlines run in the
    /// meantime, and whatever the process does next sees their effects.
    /// Charged steps still owed are walked first, and the process sleeps
    /// through all of it in one go.
    pub fn advance(&mut self, dt: Time) {
        if self.owed_since.is_some() {
            // The stall is the chain's last step.
            self.owe(dt);
            return self.settle();
        }
        self.stall_until(self.now + dt);
    }

    /// Sleep until `target`, owing nothing: one entry into the scheduler —
    /// the fast-path test, else the `Resume`, the `Yield` entry and the
    /// dispatch loop, all on it.
    fn stall_until(&mut self, target: Time) {
        let mut core = self.sched.core();
        // Fast path: we are the only running entity; if our `Resume` would
        // be the next entry due, no other process or event can possibly
        // interleave (everyone else is parked behind a queue entry or a
        // signal only we could fire), so the clock — ours and the run's —
        // can jump without touching the queue. This keeps polling
        // protocols cheap in host time without changing any observable
        // schedule.
        if core.agenda.is_next(target) {
            core.agenda.now = target;
            self.now = target;
            return;
        }
        core.agenda.push(target, WakeWhat::Resume(self.id));
        self.now = self.yield_baton(core, "ResumeAt");
    }

    /// Consume `dt` nanoseconds of this process's own CPU time — a
    /// software cost (header build, queue search, poll-loop overhead)
    /// whose passing nobody else can observe until the process next
    /// touches something shared. The local clock moves now; the step
    /// itself is walked at the next stall ([`ProcCtx::advance`],
    /// [`ProcCtx::wait_until`], [`ProcCtx::ticket`], [`ProcCtx::wait`],
    /// [`ProcCtx::spawn`], [`ProcCtx::settle`], the end of the body)
    /// exactly as an `advance` here would have been — same schedule, same
    /// dispatch count — but without waking this thread between steps.
    ///
    /// The caller's side of the bargain: between a `charge` and the next
    /// stall, touch nothing another entity can see or change — no
    /// scheduling, no [`Signal`], no shared memory. Debug builds check
    /// what `des` can see of that ([`SimHandle::assert_settled`]).
    ///
    /// The event log changes none of this. The scheduler's entries for a
    /// step are written by whoever walks it, so a recorded run is the run.
    pub fn charge(&mut self, dt: Time) {
        self.owe(dt);
    }

    /// Record `dt` as a step to be walked and move the local clock past
    /// it; a full chain is settled first.
    fn owe(&mut self, dt: Time) {
        let step = Step { dt, look: None };
        if !self.sched.core().procs[self.id.0].chain.push(step) {
            self.settle();
            let pushed = self.sched.core().procs[self.id.0].chain.push(step);
            debug_assert!(pushed, "a settled chain is empty");
        }
        let since = *self.owed_since.get_or_insert(self.now);
        self.now += dt;
        self.sched.set_owing(Some((&self.shared, self.now - since)));
    }

    /// About to have every owed step walked: the clock they start at.
    fn owed_from(&mut self) -> Time {
        self.sched.set_owing(None);
        self.owed_since.take().unwrap_or(self.now)
    }

    /// A poll sweep the process sleeps through. For each `(addr,
    /// expected)` of `looks`, in order: `cpu` ns of its own time, a stall
    /// of `stall` ns, then a look at word `addr` of `on`; the first word
    /// that is not the expected one ends the sweep. Returns that look's
    /// index and the word, with the clock at the instant of the look, or
    /// `None` with the clock past the last stall. The loop it stands for:
    ///
    /// ```ignore
    /// for (i, &(addr, expected)) in looks.iter().enumerate() {
    ///     ctx.charge(cpu);
    ///     ctx.advance(stall);
    ///     let word = on.sample(addr);
    ///     if word != expected {
    ///         return Some((i, word));
    ///     }
    /// }
    /// None
    /// ```
    ///
    /// — the same schedule and the same dispatch count, because between a
    /// stall's `Resume` coming up and the next step being queued that loop
    /// does nothing anyone can observe; here the thread that popped the
    /// `Resume` takes the look instead of waking this one to. Steps already
    /// charged ride in front. The scheduler's trace entries are the loop's,
    /// written by whoever walks each step; what the loop's *body* would
    /// have told the event log (a span per read, say) the caller writes
    /// once the sweep returns, as `scramnet::NicView::scan` does.
    pub fn scan<S: Sample + 'static>(
        &mut self,
        on: &Arc<S>,
        cpu: Time,
        stall: Time,
        looks: impl IntoIterator<Item = (usize, u32)>,
    ) -> Option<(usize, u32)> {
        let mut looks = looks.into_iter().peekable();
        let mut index = 0;
        while looks.peek().is_some() {
            let since = self.owed_from();
            let first = index;
            let stop = {
                let mut core = self.sched.core();
                let chain = &mut core.procs[self.id.0].chain;
                let room = (CHAIN_CAP - chain.len) / 2;
                if room > 0 {
                    chain.on = Some(Arc::clone(on) as Arc<dyn Sample>);
                }
                for (addr, expected) in looks.by_ref().take(room) {
                    let look = Look {
                        addr,
                        expected,
                        index,
                    };
                    chain.push_look(cpu, stall, look);
                    index += 1;
                }
                // A chain with no room for a look holds steps this process
                // owes: walking them empties it for the next go.
                let mut core = self.walk_owed(core, since);
                core.procs[self.id.0].chain.stop.take()
            };
            if let Some(stop) = stop {
                // The steps after the look were never walked.
                self.now = stop.at;
                let (index, word) = stop.hit.expect("a sweep has no guard");
                return Some((index as usize, word));
            }
            self.now += Time::from(index - first) * (cpu + stall);
        }
        None
    }

    /// The most looks one [`ProcCtx::scan_until`] takes: its lead and a
    /// step of own time and a stall per look are one chain.
    pub const CYCLE_LOOKS: usize = (CHAIN_CAP - 1) / 2;

    /// A poll loop the process sleeps through: `lead` ns of its own time,
    /// then the sweep of [`ProcCtx::scan`], round after round until a look
    /// sees a word that is not the expected one — or, at the end of a
    /// round whose looks all saw theirs, `guard` holds at that instant.
    /// Returns the rounds that saw nothing, and the look that ended the
    /// cycle (its index and the word) or `None` for the guard, with the
    /// clock at the instant of that look or that round's end. The loop it
    /// stands for:
    ///
    /// ```ignore
    /// for round in 0.. {
    ///     ctx.charge(lead);
    ///     if let Some(hit) = ctx.scan(on, cpu, stall, looks.clone()) {
    ///         return (round, Some(hit));
    ///     }
    ///     if guard.is_some_and(|holds| holds(ctx.now())) {
    ///         return (round + 1, None);
    ///     }
    /// }
    /// ```
    ///
    /// — the same schedule and the same dispatch count, by `scan`'s
    /// argument and one more: between one sweep's last look and the next
    /// sweep's first step that loop touches nothing shared either — the
    /// guard only reads — so the thread that took the last look may check
    /// the guard and queue the lead as well as the process could. Every
    /// step keeps its `(time, seq)`, its fast-path test, its dispatch and
    /// its `Yield` entry; the process is woken once, at the dispatch where
    /// the loop would have run its body for the last time. Steps already
    /// charged are settled first, which is where they would have been
    /// walked in front of the first round. What the loop's body would have
    /// told the event log the caller writes afterwards, sweep by sweep, as
    /// `scramnet::NicView::scan_until` does.
    ///
    /// A run in which nothing but unguarded cycles is left — no event
    /// pending, no other process due, no guarded cycle queued — has no one
    /// to change a word: with no horizon to stop at, and once every cycle
    /// has been all the way round since, they stop being queued, the run
    /// ends and [`crate::RunReport::deadlocked`] names their processes.
    /// (The loop written out would poll for ever.) A cycle given up like
    /// that is not taken up again by a later run. A guarded cycle is never
    /// given up, and counts as something that may yet write: its guard can
    /// end it whatever the words do. (One whose guard never holds polls
    /// for ever, as its loop would.)
    ///
    /// Panics unless there are between one and [`ProcCtx::CYCLE_LOOKS`]
    /// looks.
    pub fn scan_until<S: Sample + 'static>(
        &mut self,
        on: &Arc<S>,
        lead: Time,
        cpu: Time,
        stall: Time,
        looks: impl IntoIterator<Item = (usize, u32)>,
        guard: Option<&RoundGuard>,
    ) -> (u64, Option<(usize, u32)>) {
        self.settle();
        let stop = {
            let mut core = self.sched.core();
            let chain = &mut core.procs[self.id.0].chain;
            chain.on = Some(Arc::clone(on) as Arc<dyn Sample>);
            chain.rounds = Some(0);
            chain.guard = guard.cloned();
            let mut fits = chain.push(Step {
                dt: lead,
                look: None,
            });
            let mut index = 0;
            for (addr, expected) in looks {
                let look = Look {
                    addr,
                    expected,
                    index,
                };
                fits = fits && chain.push_look(cpu, stall, look);
                index += 1;
            }
            assert!(
                fits && index > 0,
                "a cycle takes 1 to {} looks",
                Self::CYCLE_LOOKS
            );
            core.agenda
                .note_round(lead + Time::from(index) * (cpu + stall));
            let mut core = self.walk_owed(core, self.now);
            let stop = core.procs[self.id.0].chain.stop.take();
            let stop = stop.expect("only a look that hit or the guard ends a cycle");
            debug_assert!(core.agenda.now <= stop.at);
            stop
        };
        self.now = stop.at;
        let hit = stop.hit.map(|(index, word)| (index as usize, word));
        (stop.rounds, hit)
    }

    /// Walk every step still owed, so the run is where this process's
    /// clock says it is. A no-op when nothing is owed. Layers call this
    /// before returning to code that may touch shared state without a
    /// stall of its own.
    pub fn settle(&mut self) {
        if self.owed_since.is_none() {
            return;
        }
        let since = self.owed_from();
        let core = self.walk_owed(self.sched.core(), since);
        // Every step ends where the charge said it would, whoever walked
        // it: the local clock is already there.
        debug_assert!(core.agenda.now <= self.now);
    }

    /// Have the steps in this process's chain walked from `since`, on the
    /// core the caller is in: by this thread while nothing else is due, and
    /// from the first step that has to be queued by the dispatch loop,
    /// here or wherever the baton goes. Returns in the core again, with
    /// the chain walked to its end or cut by a look.
    fn walk_owed<'a>(&'a self, mut core: CoreGuard<'a>, since: Time) -> CoreGuard<'a> {
        if self.sched.walk(&mut core, self.id, since) {
            core
        } else {
            self.hold_for_baton(core)
        }
    }

    /// Block until absolute virtual time `t` (no-op if `t` has passed).
    pub fn wait_until(&mut self, t: Time) {
        self.settle();
        if t > self.now {
            self.stall_until(t);
        }
    }

    /// A [`Ticket`] on `signal`, taken before the check that a
    /// [`ProcCtx::wait`] on it follows: whatever notifies `signal` from here
    /// on wakes that wait, however long the check takes. Settles first, as
    /// the count it reads is shared state.
    pub fn ticket(&mut self, signal: &Signal) -> Ticket {
        self.settle();
        signal.ticket(self.now)
    }

    /// Block until the ticket's signal is notified. If that has happened
    /// since the ticket was taken, do not sleep: resume at the instant the
    /// first such notification fires, or at once if that has passed — no
    /// later than a wait registered at the ticket would have. May wake
    /// spuriously if the signal is shared; callers re-check their
    /// condition in a loop.
    pub fn wait(&mut self, ticket: Ticket) {
        self.wait_any(&[&ticket]);
    }

    /// [`ProcCtx::wait`] on two tickets: block until either's signal is
    /// notified — the first notification made since its ticket ends the
    /// wait, at that notification's instant — or, if one or both have
    /// been since their tickets were taken, resume at the earlier of the
    /// instants a `wait` on each would resume at.
    pub fn wait_either(&mut self, first: Ticket, second: Ticket) {
        self.wait_any(&[&first, &second]);
    }

    /// [`ProcCtx::wait`] on each of `tickets`, as one wait numbered anew:
    /// the process's entry holds that number while it sleeps, and the first
    /// signal to notify clears it, so it wakes once and allocates nothing.
    fn wait_any(&mut self, tickets: &[&Ticket]) {
        self.settle();
        self.waits += 1;
        let waiter = (self.id, self.waits);
        match signal::redeem(tickets, waiter, self.now) {
            Some(t) => self.wait_until(t),
            None => {
                let mut core = self.sched.core();
                core.procs[self.id.0].waiting = self.waits;
                self.now = self.yield_baton(core, "Blocked");
                signal::forget(tickets, waiter);
            }
        }
    }

    /// Spawn a sibling process starting at the current virtual time.
    pub fn spawn<R: Send + Sync + 'static>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) -> R + Send + 'static,
    ) -> Spawned<R> {
        self.settle();
        spawn_process(&self.sched, name.into(), self.now, body)
    }

    /// The simulation's observability recorder, for instrumenting layer
    /// spans and counters from inside process bodies.
    pub fn obs(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// Run `body` inside a span of `layer` named `name` on `node`: opened
    /// at this process's clock now, closed at its clock when `body`
    /// returns, however it returns.
    pub fn span<R, F>(&mut self, node: u32, layer: obs::Layer, name: &'static str, body: F) -> R
    where
        F: FnOnce(&mut ProcCtx) -> R,
    {
        let span = self.obs().open_span(self.now, node, layer, name);
        let out = body(self);
        self.obs().close_span(span, self.now);
        out
    }

    /// Yield with this process's `Resume` (or a [`Signal`] registration)
    /// in place; returns the resumption time. `why` labels the `Yield`
    /// trace entry: `ResumeAt` (a queue entry this process pushed will
    /// resume it) or `Blocked` (a [`Signal`]).
    fn yield_baton(&self, core: CoreGuard<'_>, why: &str) -> Time {
        self.sched.record_yield(&self.shared.name, why, self.now);
        debug_assert!(
            core.agenda.now == self.now,
            "a process runs at the run's clock"
        );
        let t = self.hold_for_baton(core).agenda.now;
        debug_assert!(t >= self.now, "virtual time went backwards");
        t
    }

    /// Run the dispatch loop on this thread, on the core it is in, until
    /// this process may run again; if the baton has to go to another
    /// thread first, wait until it is granted back. Returns in the core:
    /// the one it went in with when its own `Resume` came up here, else
    /// entered anew (whoever granted the baton let go of it first).
    fn hold_for_baton<'a>(&'a self, core: CoreGuard<'a>) -> CoreGuard<'a> {
        let granted = match self.sched.dispatch(core, Some(self.id)) {
            Baton::Mine(core) => return core,
            Baton::Granted(woke) => self.shared.await_grant(Some(&woke)),
            Baton::Stop(why) => {
                self.sched.hand_back(why);
                self.shared.await_grant(None)
            }
        };
        if !granted {
            std::panic::resume_unwind(Box::new(AbortToken));
        }
        self.sched.core()
    }
}

type ProcBody = Box<dyn FnOnce(&mut ProcCtx) + Send + 'static>;

/// Start a process whose body's value goes to the returned handle.
/// Shared between `Simulation::spawn` and `ProcCtx::spawn`.
pub(crate) fn spawn_process<R: Send + Sync + 'static>(
    sched: &Arc<SchedShared>,
    name: String,
    start: Time,
    body: impl FnOnce(&mut ProcCtx) -> R + Send + 'static,
) -> Spawned<R> {
    let value = Arc::new(OnceLock::new());
    let slot = Arc::clone(&value);
    let body: ProcBody = Box::new(move |ctx| {
        let out = body(ctx);
        ctx.settle(); // the run ends no earlier than its last charge
        let _ = slot.set(out);
    });
    start_process(sched, name, start, body);
    Spawned(value)
}

/// Create the thread for a new process and schedule its first resumption
/// at `start`. Not generic, so the thread's code is compiled once.
fn start_process(sched: &Arc<SchedShared>, name: String, start: Time, body: ProcBody) {
    sched.assert_settled("scheduling");
    let mut core = sched.core();
    let id = ProcId(core.procs.len());
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
            if !thread_shared.await_grant(None) {
                return;
            }
            let now = thread_sched.core().agenda.now;
            let mut ctx = ProcCtx {
                id,
                now,
                owed_since: None,
                waits: 0,
                shared: thread_shared,
                sched: thread_sched,
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
            let why = match result {
                Ok(()) => Returned::Finished(id),
                Err(payload) => {
                    ctx.sched.set_owing(None);
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
    core.procs.push(ProcEntry {
        shared,
        join: Some(join),
        finished: false,
        chain: Chain::default(),
        waiting: 0,
    });
    core.agenda.push(start, WakeWhat::Resume(id));
}
