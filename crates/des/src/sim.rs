//! The simulation container and its run loop.

use std::sync::Arc;

use crate::process::{spawn_process, ProcCtx, ProcId, ABORT};
use crate::sched::{Baton, Returned, SchedShared, SimHandle};
use crate::time::Time;
use obs::TraceEntry;

/// Outcome of [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time of the last executed entity.
    pub end_time: Time,
    /// Total scheduler dispatches (events + process resumptions).
    pub dispatches: u64,
    /// Largest pending-queue length observed at a dispatch point during
    /// this run — a measure of how event-dense the workload is. A reserved
    /// series ([`crate::SimHandle::reserve_series`]) is a pending entry
    /// whose storage its owner keeps, and counts as one.
    pub peak_queue_depth: usize,
    /// Baton transfers between OS threads during this run: every grant
    /// to a process other than the one dispatching, and every return to
    /// the `run_until` caller. Host-side only; the schedule does not
    /// depend on it.
    pub handoffs: u64,
    /// `Resume`s the dispatch loop walked on a sleeping process's behalf
    /// instead of waking it: one per step of a [`ProcCtx::charge`] chain
    /// that had to be queued, bar the last. Each is a dispatch all the
    /// same. Host-side only, like `handoffs`.
    pub relayed: u64,
    /// Names of processes left blocked when the queue drained: on a signal,
    /// or asleep in a poll cycle ([`ProcCtx::scan_until`]) that stopped
    /// being queued once nothing was left that could end it.
    /// Empty on a clean completion; non-empty indicates a deadlock. A run
    /// that stops at its horizon with entries still queued reports none:
    /// a process parked behind one is asleep, and one blocked on a signal
    /// may yet be notified by what is queued.
    pub deadlocked: Vec<String>,
}

impl RunReport {
    /// True when no process is deadlocked: every one ran to completion,
    /// or the run stopped at its horizon with the rest still scheduled.
    pub fn is_clean(&self) -> bool {
        self.deadlocked.is_empty()
    }
}

/// A discrete-event simulation: a set of processes, a pending-event queue,
/// and a deterministic run loop. See the crate docs for the model.
///
/// The queue holds at most 2^24 (≈ 16.7 M) pending entries at once, and a
/// simulation schedules at most 2^40 entries in its life; scheduling past
/// either panics, in every build, rather than change the order.
pub struct Simulation {
    sched: Arc<SchedShared>,
}

impl Simulation {
    /// An empty simulation at virtual time 0.
    pub fn new() -> Self {
        Simulation {
            sched: SchedShared::new(),
        }
    }

    /// Record every scheduling decision; retrieve with [`Simulation::take_trace`].
    /// This also turns on span/counter recording across all instrumented
    /// layers (see [`Simulation::recorder`]).
    pub fn enable_trace(&self) {
        self.sched.recorder.enable();
    }

    /// Drain the recorded scheduler trace and stop recording (empty if
    /// tracing was never enabled). Structured spans and counters recorded
    /// alongside are dropped; use [`Simulation::recorder`] to drain the
    /// full event log instead.
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.sched.recorder.take_trace()
    }

    /// The simulation's observability recorder (see [`obs::Recorder`]).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// A clone of the recorder handle, e.g. for exporting after `run`.
    pub fn recorder_arc(&self) -> Arc<obs::Recorder> {
        Arc::clone(&self.sched.recorder)
    }

    /// A cloneable scheduler handle for wiring hardware models before the
    /// run starts.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            sched: Arc::clone(&self.sched),
        }
    }

    /// Add a process starting at virtual time 0.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + Send + 'static,
    ) -> ProcId {
        spawn_process(&self.sched, name.into(), 0, Box::new(body))
    }

    /// Add a process whose first instruction executes at virtual time `start`.
    pub fn spawn_at(
        &mut self,
        start: Time,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + Send + 'static,
    ) -> ProcId {
        spawn_process(&self.sched, name.into(), start, Box::new(body))
    }

    /// Run until the pending queue drains. Panics (propagating the message)
    /// if any process panicked — assertion failures inside simulated
    /// processes surface as ordinary test failures.
    pub fn run(&mut self) -> RunReport {
        self.run_until(Time::MAX)
    }

    /// Run until the queue drains or the next entity would fire after
    /// `horizon`. Entities beyond the horizon stay queued.
    ///
    /// The calling thread dispatches until a process is due, grants it
    /// the baton and sleeps; processes then dispatch among themselves, and
    /// the baton comes back here only when nothing is due inside the
    /// horizon, or a process finished (to be joined) or something panicked
    /// (to be propagated).
    pub fn run_until(&mut self, horizon: Time) -> RunReport {
        let sched = &self.sched;
        sched.begin_run(horizon);
        // Every baton that leaves this thread comes back to it once.
        let mut returns = 0;
        loop {
            let why = match sched.dispatch(sched.core(), None) {
                Baton::Stop(why) => why,
                Baton::Granted(woke) => {
                    returns += 1;
                    sched.await_return(&woke)
                }
                Baton::Mine(_) => unreachable!("the caller is not a process"),
            };
            match why {
                Returned::Idle => break,
                Returned::Finished(id) => self.mark_finished(id),
                Returned::Panicked(id, report) => {
                    self.mark_finished(id);
                    panic!("{report}");
                }
                Returned::EventPanic(payload) => std::panic::resume_unwind(payload),
            }
        }
        let mut core = sched.core();
        let deadlocked: Vec<String> = if core.agenda.len() == 0 {
            core.procs
                .iter()
                .filter(|p| !p.finished)
                .map(|p| p.shared.name.clone())
                .collect()
        } else {
            Vec::new()
        };
        let agenda = &mut core.agenda;
        RunReport {
            // No run is active any more: the clock goes back to zero.
            end_time: std::mem::take(&mut agenda.now),
            dispatches: agenda.dispatches,
            peak_queue_depth: agenda.peak_queue_depth,
            handoffs: agenda.grants + returns,
            relayed: agenda.relayed,
            deadlocked,
        }
    }

    /// Join the thread of a process whose body is over.
    fn mark_finished(&self, id: ProcId) {
        let join = {
            let mut core = self.sched.core();
            let entry = &mut core.procs[id.0];
            entry.finished = true;
            entry.join.take()
        };
        if let Some(join) = join {
            let _ = join.join(); // out of the core: a thread on its way out may enter it
        }
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Unwind any process thread still parked (deadlocked processes, or
        // a run abandoned at a horizon) so threads never leak across tests.
        // The table is taken out of the core first: an unwinding body drops
        // what it captured, and a value whose `Drop` schedules or notifies
        // enters the scheduler — after a run, so whenever it likes.
        let table = {
            let mut core = self.sched.core();
            core.agenda.now = 0;
            std::mem::take(&mut core.procs)
        };
        // Each entry is dropped as the loop is done with it, its chain too:
        // one cut short mid-sweep still holds what it sampled, and that
        // holds a handle on this scheduler.
        for mut entry in table {
            if entry.finished {
                continue;
            }
            entry.shared.wake(ABORT);
            if let Some(join) = entry.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use obs::TraceKind;
    use parking_lot::Mutex;

    #[test]
    fn empty_simulation_completes_at_zero() {
        let mut sim = Simulation::new();
        let report = sim.run();
        assert_eq!(report.end_time, 0);
        assert_eq!(report.dispatches, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.advance(us(5));
            ctx.advance(us(2));
            assert_eq!(ctx.now(), us(7));
        });
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.end_time, us(7));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        use std::sync::Arc;
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", us(3)), ("b", us(2))] {
            let order = Arc::clone(&order);
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.advance(step);
                    order.lock().push((ctx.now(), ctx.name().to_string()));
                }
            });
        }
        sim.run();
        let got = order.lock().clone();
        // b @2, a @3, b @4, a @6 then b @6 (a spawned first, ties FIFO by
        // queue insertion: a's resume for t=6 was pushed when it advanced at
        // t=3; b's resume for 6 was pushed at t=4), b @? ...
        let times: Vec<u64> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![us(2), us(3), us(4), us(6), us(6), us(9)]);
        let at6: Vec<&str> = got
            .iter()
            .filter(|(t, _)| *t == us(6))
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(at6, vec!["a", "b"], "FIFO tie-break by push order");
    }

    #[test]
    fn events_fire_in_time_order() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let h = sim.handle();
        for &t in &[us(5), us(1), us(3)] {
            let hits = Arc::clone(&hits);
            h.schedule_at(t, move |fire| hits.lock().push(fire));
        }
        sim.run();
        assert_eq!(*hits.lock(), vec![us(1), us(3), us(5)]);
    }

    #[test]
    fn signal_wakes_blocked_process() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = h.new_signal();
        let sig2 = sig.clone();
        sim.spawn("waiter", move |ctx| {
            let s = sig2;
            ctx.wait(&s);
            assert_eq!(ctx.now(), us(10));
        });
        h.schedule_at(us(10), move |t| sig.notify_at(t));
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.end_time, us(10));
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = h.new_signal();
        sim.spawn("stuck", move |ctx| {
            ctx.wait(&sig); // never notified
        });
        let report = sim.run();
        assert_eq!(report.deadlocked, vec!["stuck".to_string()]);
    }

    #[test]
    #[should_panic(expected = "simulated process 'boom' panicked")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new();
        sim.spawn("boom", |ctx| {
            ctx.advance(1);
            panic!("exploded");
        });
        sim.run();
    }

    #[test]
    fn stale_resume_of_a_finished_process_is_skipped_on_a_process_thread() {
        // No public call leaves a `Resume` behind a finished process (a
        // signal drains its waiters as it queues them), so this pushes
        // one by hand — which is why the test lives here and not under
        // `tests/`. The entry must be skipped by whichever thread pops it.
        let mut sim = Simulation::new();
        let done = sim.spawn("done", |_| {});
        sim.spawn("popper", |ctx| {
            ctx.advance(10); // pops the stale entry at t=5 on this thread
            assert_eq!(ctx.now(), 10);
        });
        sim.sched.push(5, crate::sched::WakeWhat::Resume(done));
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.end_time, 10);
        assert_eq!(report.dispatches, 4, "the skipped entry still counts");
        assert_eq!(report.handoffs, 4, "two grants, two returns");
    }

    #[test]
    fn nested_spawn_starts_at_parent_time() {
        let mut sim = Simulation::new();
        let end = Arc::new(Mutex::new(0));
        let end2 = Arc::clone(&end);
        sim.spawn("parent", move |ctx| {
            ctx.advance(us(4));
            let end3 = Arc::clone(&end2);
            ctx.spawn("child", move |c| {
                assert_eq!(c.now(), us(4));
                c.advance(us(1));
                *end3.lock() = c.now();
            });
        });
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(*end.lock(), us(5));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.spawn("long", |ctx| {
            for _ in 0..10 {
                ctx.advance(us(10));
            }
        });
        let report = sim.run_until(us(35));
        assert_eq!(report.end_time, us(30));
        // The process is asleep behind its next resume, not deadlocked.
        assert!(report.is_clean());
        assert!(sim.run().is_clean());
    }

    #[test]
    fn wait_until_is_noop_for_past_times() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.advance(us(9));
            ctx.wait_until(us(5));
            assert_eq!(ctx.now(), us(9));
            ctx.wait_until(us(12));
            assert_eq!(ctx.now(), us(12));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn fast_path_advances_do_not_change_results() {
        // A lone process's clock jumps without scheduler round-trips;
        // interleaved processes still serialize correctly.
        let mut sim = Simulation::new();
        sim.spawn("lone", |ctx| {
            for _ in 0..1000 {
                ctx.advance(10);
            }
            assert_eq!(ctx.now(), 10_000);
        });
        let report = sim.run();
        assert_eq!(report.end_time, 10_000);
        // Only the initial resume needed dispatching.
        assert_eq!(report.dispatches, 1);
    }

    #[test]
    fn fast_path_respects_concurrent_entities() {
        use std::sync::Arc;
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step, count) in [("a", 7u64, 9u64), ("b", 11u64, 6u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..count {
                    ctx.advance(step);
                    log.lock().push((ctx.now(), ctx.name().to_string()));
                }
            });
        }
        sim.run();
        let got = log.lock().clone();
        // Events must be recorded in global time order despite fast paths.
        let times: Vec<u64> = got.iter().map(|e| e.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "interleaving broke time order: {got:?}");
        assert_eq!(times.last(), Some(&66));
    }

    #[test]
    fn spawn_at_delays_first_instruction() {
        let mut sim = Simulation::new();
        sim.spawn_at(us(9), "late", |ctx| {
            assert_eq!(ctx.now(), us(9));
            ctx.advance(us(1));
        });
        let report = sim.run();
        assert_eq!(report.end_time, us(10));
    }

    #[test]
    fn trace_mark_appears_in_trace() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let h = sim.handle();
        h.trace_mark(5, "wire-up");
        sim.spawn("p", |ctx| ctx.advance(1));
        sim.run();
        let trace = sim.take_trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Mark) && e.detail == "wire-up"));
        // Entries render for humans.
        assert!(trace[0].to_string().contains('['));
    }

    #[test]
    fn handle_survives_simulation_lifetime_checks() {
        // Scheduling from an event into the future chains correctly.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        let hits = Arc::new(Mutex::new(0u32));
        let hits2 = Arc::clone(&hits);
        h.schedule_at(10, move |t| {
            let hits3 = Arc::clone(&hits2);
            h2.schedule_at(t + 5, move |_| {
                *hits3.lock() += 1;
            });
        });
        let report = sim.run();
        assert_eq!(*hits.lock(), 1);
        assert_eq!(report.end_time, 15);
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        sim.spawn("p", |ctx| ctx.advance(us(1)));
        sim.run();
        let trace = sim.take_trace();
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|e| matches!(e.kind, TraceKind::Resume)));
    }
}
