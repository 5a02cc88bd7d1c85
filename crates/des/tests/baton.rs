//! Baton-passing dispatch: the thread that yields runs the event loop.
//!
//! These tests pin what the hand-off design promises beyond "the
//! schedule did not change" (which `tests/determinism.rs` at the repo
//! root pins against recorded constants): how many OS-thread transfers a
//! run makes, whose thread events run on, where panics surface and with
//! what payload, that every parked thread is unwound when a simulation
//! is dropped, and that no wake-up is lost over many repetitions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use des::rng::SimRng;
use des::{SimHandle, Simulation, Time, TraceEntry};

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("?").to_string()
}

/// Sets its flag when dropped: proves a process body was unwound.
struct Unwound(Arc<AtomicBool>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn lone_process_runs_its_events_inline_and_costs_two_handoffs() {
    // The shape of a lone process doing PIO writes: every step schedules
    // hardware activity (an event) and then consumes time past it.
    const STEPS: u32 = 500;
    let mut sim = Simulation::new();
    let h = sim.handle();
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let ran_on2 = Arc::clone(&ran_on);
    sim.spawn("pio", move |ctx| {
        for _ in 0..STEPS {
            let ran_on = Arc::clone(&ran_on2);
            h.schedule_at(ctx.now() + 50, move |_| {
                let mut names = ran_on.lock().unwrap();
                if names.last() != Some(&thread_name()) {
                    names.push(thread_name());
                }
            });
            ctx.advance(100);
        }
    });
    let report = sim.run();
    assert!(report.is_clean());
    assert_eq!(report.end_time, 100 * Time::from(STEPS));
    // The first resume, then per step the event and the process's own resume.
    assert_eq!(report.dispatches, 1 + 2 * u64::from(STEPS));
    assert_eq!(
        report.handoffs, 2,
        "the grant and the return at the end: nothing in between leaves the thread"
    );
    assert_eq!(*ran_on.lock().unwrap(), ["des-pio"]);
}

#[test]
fn alternating_processes_make_one_transfer_per_alternation() {
    const STEPS: u64 = 300;
    let mut sim = Simulation::new();
    for p in 0..2 {
        sim.spawn(format!("p{p}"), |ctx| {
            for _ in 0..STEPS {
                ctx.advance(1);
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean());
    assert_eq!(report.end_time, STEPS);
    assert_eq!(report.dispatches, 2 + 2 * STEPS);
    // Every `advance` finds the other process due first and grants it
    // directly: one transfer each (a scheduler thread in the middle would
    // make it two). The other four: the first grant, p0's return when it
    // finishes, the grant that lets p1 finish, and p1's return.
    assert_eq!(report.handoffs, 2 * STEPS + 4);
}

#[test]
fn a_forced_round_robin_makes_one_transfer_per_dispatch_at_any_width() {
    // `n` processes each `advance(1)` in turn: every `Resume` is another
    // process's, so every dispatch grants the baton across threads — the
    // pattern whose host cost per hand-off grew with `n` while a granter
    // parked at once. A waiting thread that yields first must not lose a
    // grant among 4 or 16 runnable threads either.
    const STEPS: u64 = 300;
    under_watchdog(Duration::from_secs(120), || {
        let counts: Vec<(u64, u64)> = [4u64, 16]
            .into_iter()
            .map(|n| {
                let mut sim = Simulation::new();
                for p in 0..n {
                    sim.spawn(format!("p{p}"), |ctx| {
                        for _ in 0..STEPS {
                            ctx.advance(1);
                        }
                    });
                }
                let report = sim.run();
                assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
                assert_eq!(report.end_time, STEPS);
                (report.dispatches, report.handoffs)
            })
            .collect();
        // Per process: its first `Resume` and one per step, each a grant;
        // then one return to the caller when it finishes.
        assert_eq!(counts, [(1_204, 1_208), (4_816, 4_832)]);
    });
}

#[test]
fn a_poll_loop_that_charges_its_overhead_is_woken_once_per_poll() {
    // Two hosts spinning on a flag: loop overhead, then the PIO read.
    // The schedule is the same either way; what a charge saves is the
    // wake-up between the two steps.
    const POLLS: u64 = 200;
    let run = |charged: bool| {
        let mut sim = Simulation::new();
        for p in 0..2 {
            sim.spawn(format!("p{p}"), move |ctx| {
                for _ in 0..POLLS {
                    if charged {
                        ctx.charge(150);
                    } else {
                        ctx.advance(150);
                    }
                    ctx.advance(400);
                }
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        report
    };
    let (eager, chained) = (run(false), run(true));
    assert_eq!(eager.end_time, 550 * POLLS);
    assert_eq!(chained.end_time, eager.end_time);
    assert_eq!(chained.dispatches, eager.dispatches);
    assert_eq!(chained.peak_queue_depth, eager.peak_queue_depth);
    assert_eq!(eager.dispatches, 2 + 4 * POLLS);
    // Eager: every step finds the other process due first, so each of
    // the 4 steps per round is a transfer (plus the usual four around the
    // ends). Chained: the overhead step's `Resume` is walked by whoever
    // pops it, and only the read's wakes its process.
    assert_eq!((eager.handoffs, eager.relayed), (4 * POLLS + 4, 0));
    assert_eq!(
        (chained.handoffs, chained.relayed),
        (2 * POLLS + 4, 2 * POLLS)
    );
}

#[test]
fn a_run_stopped_at_its_horizon_calls_nobody_deadlocked() {
    let mut sim = Simulation::new();
    let never = sim.handle().new_signal();
    sim.spawn("sleeper", |ctx| {
        ctx.advance(1_000);
        ctx.advance(1_000);
    });
    sim.spawn("stuck", move |ctx| {
        let ticket = ctx.ticket(&never);
        ctx.wait(ticket);
    });
    // The sleeper is parked behind a `Resume` at 1 000: asleep. And while
    // anything is queued, something may yet notify the signal.
    let first = sim.run_until(500);
    assert!(first.is_clean(), "{:?}", first.deadlocked);
    let rest = sim.run();
    assert_eq!(rest.end_time, 2_000);
    assert_eq!(rest.deadlocked, ["stuck"], "the queue drained: now it is");
}

#[derive(Debug, PartialEq)]
struct Payload(u32);

#[test]
fn event_panic_on_a_process_thread_keeps_its_payload() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let ran_on = Arc::new(Mutex::new(String::new()));
    let ran_on2 = Arc::clone(&ran_on);
    let unwound = Arc::new(AtomicBool::new(false));
    let guard = Unwound(Arc::clone(&unwound));
    sim.spawn("bystander", move |ctx| {
        let _guard = guard;
        h.schedule_at(5, move |_| {
            *ran_on2.lock().unwrap() = thread_name();
            std::panic::panic_any(Payload(42));
        });
        ctx.advance(10);
        unreachable!("the run stops at the event");
    });
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the event panicked");
    assert_eq!(*ran_on.lock().unwrap(), "des-bystander");
    // Not wrapped in "simulated process 'bystander' panicked": it was not
    // the process's doing.
    assert_eq!(err.downcast_ref::<Payload>(), Some(&Payload(42)));
    // The bystander is still parked inside `advance`; dropping the
    // simulation unwinds it.
    assert!(!unwound.load(Ordering::SeqCst));
    drop(sim);
    assert!(unwound.load(Ordering::SeqCst));
}

#[test]
fn event_panic_on_the_callers_thread_keeps_its_payload() {
    let mut sim = Simulation::new();
    sim.handle()
        .schedule_at(5, |_| std::panic::panic_any(Payload(7)));
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the event panicked");
    assert_eq!(err.downcast_ref::<Payload>(), Some(&Payload(7)));
}

#[test]
fn process_panic_is_reported_by_name_even_when_a_sibling_granted_it() {
    let mut sim = Simulation::new();
    let unwound = Arc::new(AtomicBool::new(false));
    let guard = Unwound(Arc::clone(&unwound));
    sim.spawn("steady", move |ctx| {
        let _guard = guard;
        loop {
            ctx.advance(10);
        }
    });
    sim.spawn_at(25, "boom", |ctx| {
        ctx.advance(1);
        panic!("exploded at {}", ctx.now());
    });
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("boom panicked");
    let msg = err.downcast_ref::<String>().expect("a formatted message");
    assert_eq!(msg, "simulated process 'boom' panicked: exploded at 26");
    drop(sim);
    assert!(
        unwound.load(Ordering::SeqCst),
        "steady was parked, not leaked"
    );
}

#[test]
fn drop_unwinds_threads_parked_by_a_deadlock_or_a_horizon() {
    let mut sim = Simulation::new();
    let never = sim.handle().new_signal();
    let (flags, mut guards): (Vec<_>, Vec<_>) = (0..3)
        .map(|_| {
            let flag = Arc::new(AtomicBool::new(false));
            (Arc::clone(&flag), Unwound(flag))
        })
        .unzip();
    let (g2, g1, g0) = (guards.pop(), guards.pop(), guards.pop());
    sim.spawn("stuck", move |ctx| {
        let _guard = g0;
        let ticket = ctx.ticket(&never);
        ctx.wait(ticket);
    });
    sim.spawn("long", move |ctx| {
        let _guard = g1;
        loop {
            ctx.advance(100);
        }
    });
    sim.spawn_at(10_000, "unborn", move |_| {
        let _guard = g2;
        unreachable!("starts beyond the horizon");
    });
    let report = sim.run_until(1_000);
    // Work is still queued, so not even "stuck" is called deadlocked yet.
    assert!(report.is_clean(), "{:?}", report.deadlocked);
    assert_eq!(report.end_time, 1_000);
    drop(sim);
    // A body that never started is dropped with its thread's closure.
    for (flag, name) in flags.iter().zip(["stuck", "long", "unborn"]) {
        assert!(flag.load(Ordering::SeqCst), "{name} was not unwound");
    }
}

/// Period and length of [`mixed_world`]'s signal-notifying event chain.
const TICK: Time = 300;
const TICKS: u32 = 400;

/// A seeded world of 17 processes (13 spawned up front, 4 nested) mixing
/// everything that moves the baton: timed advances that interleave,
/// signal waits woken by an event chain and by siblings, nested spawns,
/// and self-rescheduling events.
fn mixed_world(seed: u64) -> Simulation {
    fn tick(h: &SimHandle, sig: &des::Signal, t: Time, left: u32) {
        sig.notify_at(t);
        if left > 0 {
            let (h2, sig2) = (h.clone(), sig.clone());
            h.schedule_at(t + TICK, move |t| tick(&h2, &sig2, t, left - 1));
        }
    }
    let mut sim = Simulation::new();
    sim.enable_trace();
    let h = sim.handle();
    let sig = h.new_signal();
    {
        let (h2, sig2) = (h.clone(), sig.clone());
        h.schedule_at(TICK, move |t| tick(&h2, &sig2, t, TICKS));
    }
    // Waiting is safe (some tick still comes) only well inside the chain.
    let last_safe_wait = TICK * Time::from(TICKS) - 10 * TICK;
    let work = move |rng: &mut SimRng, ctx: &mut des::ProcCtx, sig: &des::Signal, h: &SimHandle| {
        for _ in 0..80 {
            match rng.below(4) {
                0 => ctx.advance(rng.below(700)),
                1 if ctx.now() < last_safe_wait => {
                    let ticket = ctx.ticket(sig);
                    ctx.wait(ticket);
                }
                2 => {
                    // A burst of hardware activity, then wake the others.
                    let sig2 = sig.clone();
                    h.schedule_at(ctx.now() + 1 + rng.below(400), move |t| sig2.notify_at(t));
                    ctx.advance(rng.below(50));
                }
                _ => ctx.advance(0),
            }
        }
    };
    for p in 0..13u64 {
        let (h, sig) = (h.clone(), sig.clone());
        sim.spawn_at(p * 37, format!("p{p}"), move |ctx| {
            let mut rng = SimRng::seeded(seed ^ (p << 8));
            if p % 3 == 0 && p > 0 {
                let (h2, sig2) = (h.clone(), sig.clone());
                ctx.advance(rng.below(900));
                ctx.spawn(format!("p{p}.child"), move |c| {
                    let mut rng = SimRng::seeded(seed ^ (p << 16));
                    work(&mut rng, c, &sig2, &h2);
                });
            }
            work(&mut rng, ctx, &sig, &h);
        });
    }
    sim
}

fn run_mixed(seed: u64) -> (des::RunReport, Vec<TraceEntry>) {
    let mut sim = mixed_world(seed);
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    (report, sim.take_trace())
}

/// Run `body` on a helper thread; fail instead of hanging the suite if a
/// lost wake-up leaves every thread parked.
fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("joined after it reported"),
        // The worker dropped `tx` without sending: it panicked.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("it panicked"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: a wake-up was lost")
        }
    }
}

#[test]
fn two_hundred_runs_of_a_seeded_17_process_world_lose_no_wakeup() {
    under_watchdog(Duration::from_secs(300), || {
        let (first, first_trace) = run_mixed(0x5C2A);
        assert!(first.handoffs > 100, "the world does move the baton");
        assert!(first_trace.len() > 1_000);
        let names: std::collections::BTreeSet<&str> = first_trace
            .iter()
            .filter(|e| e.kind == des::TraceKind::Resume)
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(names.len(), 17, "{names:?}");
        for i in 1..200 {
            let (report, trace) = run_mixed(0x5C2A);
            assert_eq!(report.dispatches, first.dispatches, "iteration {i}");
            assert_eq!(report.end_time, first.end_time, "iteration {i}");
            assert_eq!(report.handoffs, first.handoffs, "iteration {i}");
            assert!(trace == first_trace, "iteration {i}: the trace differs");
        }
    });
}

#[test]
fn stopping_at_a_horizon_and_resuming_from_another_thread_changes_nothing() {
    under_watchdog(Duration::from_secs(120), || {
        let (whole, whole_trace) = run_mixed(0xA11CE);

        // A horizon changes one decision: an `advance` whose target lies
        // beyond it takes the queue instead of the fast path. Stopping on
        // a tick of the chain keeps that invisible — the tick entry is due
        // before any such target, so the whole run queues there too.
        let mut sim = mixed_world(0xA11CE);
        let first = sim.run_until(10 * TICK);
        assert!(first.is_clean(), "asleep is not deadlocked: {first:?}");
        assert!(first.dispatches > 0 && first.dispatches < whole.dispatches);
        // The parked process threads must not care which thread calls next.
        let here = std::thread::current().id();
        let (rest, trace) = std::thread::spawn(move || {
            assert_ne!(std::thread::current().id(), here);
            let rest = sim.run();
            (rest, sim.take_trace())
        })
        .join()
        .expect("the second half ran");
        assert!(rest.is_clean(), "deadlocked: {:?}", rest.deadlocked);
        assert_eq!(first.dispatches + rest.dispatches, whole.dispatches);
        assert_eq!(rest.end_time, whole.end_time);
        assert!(trace == whole_trace, "the split run's trace differs");
    });
}
