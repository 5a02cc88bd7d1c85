//! The scheduler is one value behind one lock, and the only thing that can
//! find that lock taken is its holder. What that makes of three mistakes
//! which used to pass silently or late: a [`Sample::sample`] that enters
//! the scheduler, scheduling into the past of a run, and a captured value
//! that enters the scheduler from its `Drop` while the world is torn down.
//! Each panic surfaces from `Simulation::run` the way `baton.rs` says
//! panics do: an event's payload untouched, a process's behind its name.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use des::{us, ProcCtx, Sample, Signal, SimHandle, Simulation, Then};

/// The message of a string panic caught out of `run`.
fn message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a string panic")
}

/// Memory whose every read schedules an event: what a `sample` must not do.
struct Meddler(SimHandle);

impl Sample for Meddler {
    fn sample(&self, _addr: usize) -> u32 {
        self.0.schedule_at(us(1_000), |_| {});
        0
    }
}

/// One look at the meddler's word 0, after 10 ns of own time and a 100 ns
/// stall.
fn one_look(ctx: &mut ProcCtx, at: &Arc<Meddler>) {
    ctx.scan(at, 10, 100, [(0, 0)]);
    unreachable!("the look panics");
}

const RULE: &str = "the scheduler was entered while it was held";

#[test]
fn a_sampler_that_schedules_panics_in_the_process_that_takes_the_look() {
    let mut sim = Simulation::new();
    let meddler = Arc::new(Meddler(sim.handle()));
    // Alone in the run, the process walks both steps itself.
    sim.spawn("poller", move |ctx| one_look(ctx, &meddler));
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("not a hang");
    let msg = message(err);
    assert!(
        msg.starts_with("simulated process 'poller' panicked: ") && msg.contains(RULE),
        "{msg}"
    );
}

#[test]
fn a_sampler_that_schedules_panics_on_the_callers_thread_too() {
    let mut sim = Simulation::new();
    let meddler = Arc::new(Meddler(sim.handle()));
    sim.spawn("poller", move |ctx| one_look(ctx, &meddler));
    // The stall ends at 110, past this horizon: its `Resume` stays queued
    // and the process's thread parked, so the next run's caller pops it
    // and takes the look.
    assert!(sim.run_until(50).is_clean());
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("not a hang");
    let msg = message(err);
    assert!(msg.starts_with(RULE), "no process did this: {msg}");
}

#[test]
fn an_event_that_schedules_into_the_past_panics_where_it_schedules() {
    // From inside its closure, or by returning the next link of a series:
    // the event's own panic either way.
    for series in [false, true] {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ran_late = Arc::new(AtomicU32::new(0));
        let ran_late2 = Arc::clone(&ran_late);
        let late = move |_| {
            ran_late2.fetch_add(1, Ordering::Relaxed);
        };
        if series {
            sim.handle().schedule_series(us(10), 2, move |_| {
                Some(Then::at(us(5), move |link| {
                    late(link.now());
                    None
                }))
            });
        } else {
            sim.handle()
                .schedule_at(us(10), move |_| h.schedule_at(us(5), late));
        }
        let err =
            catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("hardware cannot retroact");
        let msg = message(err);
        assert!(
            msg.contains("scheduled at 5000 ns") && msg.contains("a run that is at 10000 ns"),
            "{msg}"
        );
        assert_eq!(ran_late.load(Ordering::Relaxed), 0, "it was never queued");
    }
}

#[test]
fn a_process_that_schedules_into_the_past_is_reported_by_name() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    sim.spawn("late", move |ctx| {
        // Alone in the run, it gets to 10 µs without a dispatch: the run's
        // clock goes with it all the same.
        ctx.advance(us(10));
        h.schedule_at(us(5), |_| {});
    });
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("hardware cannot retroact");
    let msg = message(err);
    assert!(
        msg.starts_with("simulated process 'late' panicked: scheduled at 5000 ns"),
        "{msg}"
    );
}

#[test]
fn what_is_queued_between_two_runs_is_not_in_the_past() {
    let mut sim = Simulation::new();
    sim.spawn("first", |ctx| ctx.advance(us(10)));
    assert_eq!(sim.run().end_time, us(10));
    // No run is active: a process spawned now starts at zero, and an event
    // may be queued for any time at all.
    sim.spawn("second", |ctx| {
        assert_eq!(ctx.now(), 0);
        ctx.advance(us(3));
    });
    sim.handle().schedule_at(us(1), |_| {});
    let report = sim.run();
    assert!(report.is_clean());
    assert_eq!((report.end_time, report.dispatches), (us(3), 3));
}

/// Schedules and notifies when dropped — and counts that it was.
struct Parting {
    h: SimHandle,
    signal: Signal,
    dropped: Arc<AtomicU32>,
}

impl Drop for Parting {
    fn drop(&mut self) {
        // Both in the past of the run that stopped at its horizon; but no
        // run is active by the time a world is torn down.
        self.h.schedule_at(0, |_| {});
        self.signal.notify_at(0);
        self.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn dropping_a_world_lets_go_of_the_scheduler_before_it_unwinds_the_parked() {
    let mut sim = Simulation::new();
    let signal = sim.handle().new_signal();
    let dropped = Arc::new(AtomicU32::new(0));
    for name in ["asleep", "blocked"] {
        let parting = Parting {
            h: sim.handle(),
            signal: signal.clone(),
            dropped: Arc::clone(&dropped),
        };
        sim.spawn(name, move |ctx| {
            let parting = parting;
            if ctx.name() == "asleep" {
                ctx.advance(us(100));
            } else {
                let ticket = ctx.ticket(&parting.signal);
                ctx.wait(ticket);
            }
            unreachable!("dropped at the horizon");
        });
    }
    assert!(sim.run_until(us(1)).is_clean());
    // "asleep" is unwound first: its `Parting` finds "blocked" waiting on
    // the signal and enters the scheduler to wake it.
    drop(sim);
    assert_eq!(dropped.load(Ordering::SeqCst), 2);
}
