//! `ProcCtx::charge`: software costs ride the queue as one chain.
//!
//! A charge is an `advance` the process is not woken for. Everything
//! here runs the same body twice — costs as `advance`s, costs as
//! `charge`s — and requires the two runs to be indistinguishable from
//! inside the simulation: same end time, same dispatch count, same peak
//! queue depth, same observations in the same order. Only `handoffs` and
//! `relayed`, which count what the host did, may differ.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use des::{ProcCtx, RunReport, SimHandle, Simulation, Time};

type Log = Arc<Mutex<Vec<(Time, String)>>>;

fn cost(ctx: &mut ProcCtx, dt: Time, chained: bool) {
    if chained {
        ctx.charge(dt);
    } else {
        ctx.advance(dt);
    }
}

fn note(log: &Log, ctx: &ProcCtx) {
    log.lock()
        .unwrap()
        .push((ctx.now(), ctx.name().to_string()));
}

/// A self-rescheduling event every `period` until `until`, logging each
/// firing: the hardware that keeps going while processes compute.
fn ticks(h: &SimHandle, log: &Log, period: Time, until: Time) {
    fn tick(h: SimHandle, log: Log, period: Time, until: Time, t: Time) {
        log.lock().unwrap().push((t, "tick".to_string()));
        if t + period <= until {
            let h2 = h.clone();
            h.schedule_at(t + period, move |t| tick(h2, log, period, until, t));
        }
    }
    let (h2, log2) = (h.clone(), Arc::clone(log));
    h.schedule_at(period, move |t| tick(h2, log2, period, until, t));
}

/// What a simulation can see of a run.
fn visible(r: &RunReport) -> (Time, u64, usize, &[String]) {
    (r.end_time, r.dispatches, r.peak_queue_depth, &r.deadlocked)
}

/// Run `build` both ways to completion; return (eager, chained) reports
/// after checking the runs are indistinguishable.
fn both_ways(build: impl Fn(&mut Simulation, &Log, bool)) -> (RunReport, RunReport) {
    let run = |chained: bool| {
        let mut sim = Simulation::new();
        let log = Log::default();
        build(&mut sim, &log, chained);
        let report = sim.run();
        let log = std::mem::take(&mut *log.lock().unwrap());
        (report, log)
    };
    let ((eager, eager_log), (chained, chained_log)) = (run(false), run(true));
    assert_eq!(visible(&chained), visible(&eager));
    assert_eq!(chained_log, eager_log);
    assert_eq!(eager.relayed, 0, "nothing to relay without charges");
    (eager, chained)
}

#[test]
fn charges_interleave_with_a_sibling_and_an_event_chain_as_advances_do() {
    let (eager, chained) = both_ways(|sim, log, chained| {
        ticks(&sim.handle(), log, 70, 12_000);
        let log2 = Arc::clone(log);
        sim.spawn("worker", move |ctx| {
            for i in 0..50 {
                // Ticks and the sibling fall due in the middle of this.
                cost(ctx, 40, chained);
                cost(ctx, 25 + i % 7, chained);
                cost(ctx, 0, chained); // a zero-length step is still a yield
                cost(ctx, 60, chained);
                ctx.advance(100);
                note(&log2, ctx);
            }
        });
        let log2 = Arc::clone(log);
        sim.spawn("sibling", move |ctx| {
            for _ in 0..250 {
                ctx.advance(33);
                note(&log2, ctx);
            }
        });
    });
    assert!(chained.relayed > 100, "{chained:?}");
    assert!(
        chained.handoffs < eager.handoffs,
        "{} vs {}",
        chained.handoffs,
        eager.handoffs
    );
}

#[test]
fn more_charges_than_the_chain_holds_settle_early_and_change_nothing() {
    let (_, chained) = both_ways(|sim, log, chained| {
        ticks(&sim.handle(), log, 45, 3_000);
        let log2 = Arc::clone(log);
        sim.spawn("spender", move |ctx| {
            for round in 0..5 {
                for i in 0..27 {
                    cost(ctx, 3 + i + round, chained);
                }
                ctx.advance(20);
                note(&log2, ctx);
            }
        });
    });
    assert!(chained.relayed > 0);
}

#[test]
fn a_step_walked_in_dispatch_may_jump_the_clock_past_the_run_clock() {
    let (_, chained) = both_ways(|sim, log, chained| {
        let log2 = Arc::clone(log);
        sim.spawn("p", move |ctx| {
            // q's first resume is due before step one ends, so step one
            // is queued; by the time it comes up q is gone, the queue is
            // empty, and the dispatching thread — the caller's, which
            // just joined q — walks steps two and three without queueing.
            cost(ctx, 10, chained);
            cost(ctx, 10, chained);
            ctx.advance(10);
            assert_eq!(ctx.now(), 30, "woken at 10 by the run clock, 30 by its own");
            note(&log2, ctx);
        });
        let log2 = Arc::clone(log);
        sim.spawn("q", move |ctx| {
            ctx.advance(5);
            note(&log2, ctx);
        });
    });
    assert_eq!(chained.end_time, 30);
    assert_eq!(chained.dispatches, 3, "p at 0, q at 0, p at 10");
    assert_eq!(chained.relayed, 0, "no resume was answered with another");
}

#[test]
fn a_body_that_returns_owing_is_settled_before_it_is_finished() {
    let (_, chained) = both_ways(|sim, log, chained| {
        ticks(&sim.handle(), log, 30, 90);
        sim.spawn("leaver", move |ctx| {
            cost(ctx, 50, chained);
            cost(ctx, 50, chained);
        });
    });
    assert_eq!(chained.end_time, 100);
    assert_eq!(chained.relayed, 1);
}

#[test]
fn a_chain_that_crosses_a_horizon_resumes_under_the_next_run() {
    let split = |chained: bool| {
        let mut sim = Simulation::new();
        let log = Log::default();
        ticks(&sim.handle(), &log, 30, 1_000);
        let log2 = Arc::clone(&log);
        sim.spawn("p", move |ctx| {
            for _ in 0..3 {
                cost(ctx, 100, chained);
            }
            ctx.advance(100);
            note(&log2, ctx);
            assert_eq!(ctx.now(), 400);
        });
        // Steps one and two end inside the horizon; the third does not,
        // so its `Resume` waits in the queue, the fourth in the chain.
        let first = sim.run_until(250);
        assert!(first.is_clean());
        let rest = sim.run();
        assert!(rest.is_clean());
        let log = std::mem::take(&mut *log.lock().unwrap());
        (first, rest, log)
    };
    let (eager, chained) = (split(false), split(true));
    assert_eq!(visible(&chained.0), visible(&eager.0));
    assert_eq!(visible(&chained.1), visible(&eager.1));
    assert_eq!(chained.2, eager.2);
    assert_eq!(chained.0.end_time, 240);
    assert_eq!(chained.1.end_time, 990);
    assert_eq!((chained.0.relayed, chained.1.relayed), (2, 1));
}

#[test]
fn a_signal_wakes_a_process_that_owes_nothing() {
    let (_, chained) = both_ways(|sim, log, chained| {
        let h = sim.handle();
        let sig = h.new_signal();
        let sig2 = sig.clone();
        h.schedule_at(50, move |t| sig2.notify_at(t));
        ticks(&h, log, 7, 70);
        let log2 = Arc::clone(log);
        sim.spawn("waiter", move |ctx| {
            cost(ctx, 10, chained);
            cost(ctx, 10, chained);
            // Registers at 20, not at 0: the wait settles first.
            ctx.wait(&sig);
            assert_eq!(ctx.now(), 50, "the notification, not a leftover step");
            note(&log2, ctx);
            cost(ctx, 5, chained);
            ctx.advance(5);
            note(&log2, ctx);
        });
    });
    assert_eq!(chained.end_time, 70);
}

#[test]
fn charges_settle_before_a_spawn_and_before_a_wait_until() {
    both_ways(|sim, log, chained| {
        ticks(&sim.handle(), log, 11, 200);
        let log2 = Arc::clone(log);
        sim.spawn("parent", move |ctx| {
            cost(ctx, 30, chained);
            let log3 = Arc::clone(&log2);
            ctx.spawn("child", move |c| {
                assert_eq!(c.now(), 30);
                c.advance(4);
                note(&log3, c);
            });
            cost(ctx, 30, chained);
            ctx.wait_until(50); // already past: settles, then a no-op
            assert_eq!(ctx.now(), 60);
            cost(ctx, 5, chained);
            ctx.wait_until(100);
            note(&log2, ctx);
        });
    });
}

#[test]
fn while_the_event_log_records_a_charge_is_an_advance() {
    let run = |chained: bool| {
        let mut sim = Simulation::new();
        sim.enable_trace();
        for p in 0..2 {
            sim.spawn(format!("p{p}"), move |ctx| {
                for _ in 0..20 {
                    cost(ctx, 15, chained);
                    ctx.advance(40);
                }
            });
        }
        let report = sim.run();
        (report, sim.take_trace())
    };
    let ((eager, eager_trace), (charged, charged_trace)) = (run(false), run(true));
    assert!(charged_trace == eager_trace, "the traces differ");
    assert_eq!(charged.handoffs, eager.handoffs);
    assert_eq!(charged.relayed, 0);
}

/// Sets its flag when dropped: proves a process body was unwound.
struct Unwound(Arc<AtomicBool>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn dropping_a_simulation_with_a_chain_in_the_queue_unwinds_its_process() {
    let mut sim = Simulation::new();
    ticks(&sim.handle(), &Log::default(), 30, 1_000);
    let unwound = Arc::new(AtomicBool::new(false));
    let guard = Unwound(Arc::clone(&unwound));
    sim.spawn("p", move |ctx| {
        let _guard = guard;
        for _ in 0..4 {
            ctx.charge(100);
        }
        ctx.settle();
        unreachable!("the run stops at 150");
    });
    let report = sim.run_until(150);
    assert_eq!(report.relayed, 1, "100 was walked for it; 200 is queued");
    drop(sim);
    assert!(unwound.load(Ordering::SeqCst));
}

/// Debug builds know which process owes what, and say so.
#[cfg(debug_assertions)]
mod misuse {
    use super::*;
    use des::queue::SimQueue;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_of(body: impl FnOnce(&mut ProcCtx, &SimHandle) + Send + 'static) -> String {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn("sloppy", move |ctx| {
            ctx.charge(7);
            ctx.charge(5);
            body(ctx, &h);
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("it must panic");
        err.downcast_ref::<String>().expect("a message").clone()
    }

    #[test]
    fn scheduling_while_owing_names_the_process_and_the_debt() {
        let msg = panic_of(|ctx, h| h.schedule_at(ctx.now() + 1, |_| {}));
        assert!(
            msg.contains("scheduling while process 'sloppy' owes 12 ns"),
            "{msg}"
        );
    }

    #[test]
    fn notifying_a_signal_while_owing_is_caught() {
        let msg = panic_of(|ctx, h| h.new_signal().notify_at(ctx.now()));
        assert!(msg.contains("notifying a signal while process 'sloppy' owes 12 ns"));
    }

    #[test]
    fn polling_a_queue_while_owing_is_caught() {
        let msg = panic_of(|ctx, h| {
            let _ = SimQueue::<u8>::new(h).try_pop(ctx.now());
        });
        assert!(msg.contains("polling a SimQueue while process 'sloppy' owes 12 ns"));
    }

    #[test]
    fn settling_first_is_all_it_takes() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn("tidy", move |ctx| {
            ctx.charge(7);
            ctx.settle();
            h.schedule_at(ctx.now() + 1, |_| {});
            let q = SimQueue::new(&h);
            q.push_at(ctx.now() + 3, 9u8);
            ctx.charge(5);
            // `pop` settles for itself before it looks.
            assert_eq!(q.pop(ctx), 9);
        });
        assert_eq!(sim.run().end_time, 12);
    }
}
