//! `ProcCtx::charge`: software costs ride the queue as one chain.
//!
//! A charge is an `advance` the process is not woken for. Everything
//! here runs the same body twice — costs as `advance`s, costs as
//! `charge`s — and requires the two runs to be indistinguishable from
//! inside the simulation: same end time, same dispatch count, same peak
//! queue depth, same observations in the same order. Only `handoffs` and
//! `relayed`, which count what the host did, may differ.
//!
//! `ProcCtx::scan` is held to the same standard in the second half: a
//! poll sweep written out as the loop it stands for, and the same sweep
//! handed over whole. `ProcCtx::scan_until` in the third: sweep after
//! sweep until a word changes, written out and handed over as one cycle.
//!
//! These `advance` loops are the eager path's last home: nothing in the
//! stack turns a charge into an advance any more, the event log least of
//! all — a recorded chained run writes the eager run's scheduler trace
//! and makes the unrecorded chained run's hand-offs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use des::{ProcCtx, RoundGuard, RunReport, Sample, SimHandle, Simulation, Time};

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
        ticks(&sim.handle(), log, 45, 4_000);
        let log2 = Arc::clone(log);
        sim.spawn("spender", move |ctx| {
            for round in 0..5 {
                for i in 0..70 {
                    cost(ctx, 3 + i % 9 + round, chained);
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
            // Registers at 20, not at 0: the ticket settles first.
            let ticket = ctx.ticket(&sig);
            ctx.wait(ticket);
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

// ---------------------------------------------------------------------
// Sweeps: `ProcCtx::scan` against the loop it stands for.
// ---------------------------------------------------------------------

/// Words a sweep looks at and events write.
struct Words(Mutex<Vec<u32>>);

impl Sample for Words {
    fn sample(&self, addr: usize) -> u32 {
        self.0.lock().unwrap()[addr]
    }
}

fn words(n: usize) -> Arc<Words> {
    Arc::new(Words(Mutex::new(vec![0; n])))
}

/// At `t`, from event context, set word `addr` to `value`.
fn flip(h: &SimHandle, mem: &Arc<Words>, t: Time, addr: usize, value: u32) {
    let mem = Arc::clone(mem);
    h.schedule_at(t, move |_| mem.0.lock().unwrap()[addr] = value);
}

const CPU: Time = 10;
const STALL: Time = 20;

/// One sweep over words `0..n`, each expected to be zero: `CPU` of the
/// process's own time and a `STALL` per word. Written out, or as one scan.
fn sweep(ctx: &mut ProcCtx, mem: &Arc<Words>, n: usize, scanned: bool) -> Option<(usize, u32)> {
    let looks = (0..n).map(|addr| (addr, 0));
    if scanned {
        return ctx.scan(mem, CPU, STALL, looks);
    }
    for (i, (addr, expected)) in looks.enumerate() {
        ctx.advance(CPU);
        ctx.advance(STALL);
        let word = mem.sample(addr);
        if word != expected {
            return Some((i, word));
        }
    }
    None
}

/// Sweep until a word differs; log where the clock is then.
fn sweep_until_hit(
    ctx: &mut ProcCtx,
    log: &Log,
    mem: &Arc<Words>,
    n: usize,
    scanned: bool,
) -> (usize, u32) {
    let hit = loop {
        if let Some(hit) = sweep(ctx, mem, n, scanned) {
            break hit;
        }
    };
    log.lock()
        .unwrap()
        .push((ctx.now(), format!("hit {hit:?}")));
    hit
}

/// A process that keeps the baton moving between threads.
fn sibling(sim: &mut Simulation, log: &Log, steps: u32) {
    let log = Arc::clone(log);
    sim.spawn("sibling", move |ctx| {
        for _ in 0..steps {
            ctx.advance(33);
            note(&log, ctx);
        }
    });
}

#[test]
fn a_flipped_word_ends_the_sweep_where_the_loop_would_see_it() {
    // Sweeps of 15 words take 450 ns, so the third covers 900..1350 and
    // looks at word `k` at 930 + 30 k. A flip at 1005 is seen there by
    // the looks that come later in that sweep — the eighth, the last — and
    // by the first look of the next sweep, at 1380.
    for (k, seen_at) in [(0, 1_380), (7, 1_140), (14, 1_350)] {
        // Quiet: nothing else is ever queued but the flip, so after it
        // every step takes the fast path and the look is taken there.
        // Busy: a tick is due inside every step, so every step is queued
        // and every look is taken as its `Resume` comes up, on whichever
        // thread is dispatching.
        for busy in [false, true] {
            let (eager, scanned) = both_ways(|sim, log, scanned| {
                let h = sim.handle();
                let mem = words(15);
                flip(&h, &mem, 1_005, k, 9);
                if busy {
                    ticks(&h, log, 7, 1_500);
                    sibling(sim, log, 45);
                }
                let log = Arc::clone(log);
                sim.spawn("sweeper", move |ctx| {
                    let hit = sweep_until_hit(ctx, &log, &mem, 15, scanned);
                    assert_eq!(hit, (k, 9));
                    // The look's instant, not the end of the steps queued
                    // behind it.
                    assert_eq!(ctx.now(), seen_at, "word {k}, busy: {busy}");
                    ctx.advance(5);
                    note(&log, ctx);
                });
            });
            if busy {
                assert!(scanned.relayed > 60, "word {k}: {scanned:?}");
                assert!(
                    scanned.handoffs < eager.handoffs,
                    "word {k}: {} hand-offs scanned, {} written out",
                    scanned.handoffs,
                    eager.handoffs
                );
            } else {
                assert_eq!(scanned.relayed, 0, "word {k}: {scanned:?}");
            }
        }
    }
}

#[test]
fn a_sweep_longer_than_the_chain_and_one_behind_owed_charges_change_nothing() {
    // 40 words are 80 steps; the chain holds 32.
    let (_, scanned) = both_ways(|sim, log, scanned| {
        let h = sim.handle();
        let mem = words(40);
        ticks(&h, log, 45, 3_000);
        flip(&h, &mem, 2_000, 37, 4);
        let log = Arc::clone(log);
        sim.spawn("sweeper", move |ctx| {
            assert_eq!(sweep_until_hit(ctx, &log, &mem, 40, scanned), (37, 4));
        });
    });
    assert!(scanned.relayed > 0);
    // One charge in front of 15 words fills the chain exactly; three do
    // not fit, and the sweep is queued in two goes.
    for owed in [1, 3] {
        both_ways(|sim, log, scanned| {
            let h = sim.handle();
            let mem = words(15);
            ticks(&h, log, 11, 1_500);
            flip(&h, &mem, 1_200, 11, 2);
            let log = Arc::clone(log);
            sim.spawn("sweeper", move |ctx| loop {
                for _ in 0..owed {
                    cost(ctx, 7, scanned);
                }
                if let Some(hit) = sweep(ctx, &mem, 15, scanned) {
                    assert_eq!(hit, (11, 2));
                    note(&log, ctx);
                    break;
                }
            });
        });
    }
}

#[test]
fn a_sweep_that_crosses_a_horizon_resumes_under_the_next_run() {
    let split = |scanned: bool| {
        let mut sim = Simulation::new();
        let log = Log::default();
        let h = sim.handle();
        let mem = words(15);
        ticks(&h, &log, 30, 1_000);
        flip(&h, &mem, 300, 12, 1);
        let log2 = Arc::clone(&log);
        sim.spawn("sweeper", move |ctx| {
            assert_eq!(sweep_until_hit(ctx, &log2, &mem, 15, scanned), (12, 1));
            assert_eq!(ctx.now(), 390);
        });
        // The horizon falls inside word 8's stall: its `Resume` waits in
        // the queue with its look still to take, six more words behind it.
        let first = sim.run_until(260);
        assert!(first.is_clean());
        let rest = sim.run();
        assert!(rest.is_clean());
        let log = std::mem::take(&mut *log.lock().unwrap());
        (first, rest, log)
    };
    let (eager, scanned) = (split(false), split(true));
    assert_eq!(visible(&scanned.0), visible(&eager.0));
    assert_eq!(visible(&scanned.1), visible(&eager.1));
    assert_eq!(scanned.2, eager.2);
    assert_eq!(scanned.0.end_time, 250, "the end of word 8's own time");
}

#[test]
fn a_recorded_chained_run_writes_the_eager_trace_with_the_unrecorded_handoffs() {
    // Two workers that charge and sweep beside a tick chain, with a word
    // flipped under each sweeper: eager with the event log on, chained
    // with it on, chained with it off.
    let run = |chained: bool, traced: bool| {
        let mut sim = Simulation::new();
        if traced {
            sim.enable_trace();
        }
        let h = sim.handle();
        let log = Log::default();
        ticks(&h, &log, 17, 2_500);
        for p in 0..2 {
            let mem = words(15);
            flip(&h, &mem, 1_600 + 100 * p, 9, 3);
            let log = Arc::clone(&log);
            sim.spawn(format!("p{p}"), move |ctx| {
                for _ in 0..20 {
                    cost(ctx, 15, chained);
                    ctx.advance(40);
                }
                assert_eq!(sweep_until_hit(ctx, &log, &mem, 15, chained), (9, 3));
                cost(ctx, 15, chained);
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        (report, sim.take_trace())
    };
    let (eager, eager_trace) = run(false, true);
    let (recorded, recorded_trace) = run(true, true);
    let (unrecorded, _) = run(true, false);
    assert!(eager_trace.len() > 500, "{} entries", eager_trace.len());
    for (i, (ours, theirs)) in recorded_trace.iter().zip(&eager_trace).enumerate() {
        assert_eq!(ours, theirs, "entry {i}");
    }
    assert_eq!(recorded_trace.len(), eager_trace.len());
    // Recording changes nothing of what the host does either.
    assert_eq!(
        (recorded.handoffs, recorded.relayed),
        (unrecorded.handoffs, unrecorded.relayed)
    );
    assert_eq!(visible(&recorded), visible(&unrecorded));
    assert_eq!(visible(&recorded), visible(&eager));
    assert_eq!(eager.relayed, 0);
    assert!(recorded.relayed > 100, "{recorded:?}");
    assert!(recorded.handoffs < eager.handoffs);
}

#[test]
fn a_chain_lets_go_of_what_it_sampled() {
    // What a sweep samples holds, in the real stack, a handle on the
    // scheduler that holds the chain: kept past the sweep, it would keep
    // every world alive. Finished, hit, or dropped with looks queued.
    let mem = words(15);
    let mut sim = Simulation::new();
    let h = sim.handle();
    ticks(&h, &Log::default(), 30, 2_000);
    let unwound = Arc::new(AtomicBool::new(false));
    let guard = Unwound(Arc::clone(&unwound));
    // The flip only borrows the words, so the counts below see the test's
    // `Arc`, the process's, and the chain's clone while it has one.
    let (weak, mem2) = (Arc::downgrade(&mem), Arc::clone(&mem));
    h.schedule_at(500, move |_| {
        weak.upgrade().expect("the test holds it").0.lock().unwrap()[3] = 1
    });
    sim.spawn("sweeper", move |ctx| {
        let (_guard, mem) = (guard, mem2);
        assert_eq!(ctx.scan(&mem, CPU, STALL, (0..15).map(|a| (a, 0))), None);
        assert_eq!(Arc::strong_count(&mem), 2, "walked to the end");
        let hit = ctx.scan(&mem, CPU, STALL, (0..15).map(|a| (a, 0)));
        assert_eq!(hit, Some((3, 1)));
        assert_eq!(Arc::strong_count(&mem), 2, "cut at the hit");
        // From 570 on, all as expected: 450 ns of sweep, cut off at 1000.
        ctx.scan(&mem, CPU, STALL, (0..15).map(|a| (a, u32::from(a == 3))));
        unreachable!("the run stops first");
    });
    let report = sim.run_until(1_000);
    assert!(report.is_clean());
    assert_eq!(Arc::strong_count(&mem), 3, "the sleeping chain has one");
    drop(sim);
    assert!(unwound.load(Ordering::SeqCst));
    assert_eq!(Arc::strong_count(&mem), 1);
}

// ---------------------------------------------------------------------
// Cycles: `ProcCtx::scan_until` against the loop it stands for.
// ---------------------------------------------------------------------

const LEAD: Time = 35;

/// `LEAD` of the process's own time, then a sweep of words `0..n`, round
/// after round until one is not zero. Written out with `advance`s, or
/// handed over as one cycle. Logs where the clock is at the hit.
fn cycle(
    ctx: &mut ProcCtx,
    log: &Log,
    mem: &Arc<Words>,
    n: usize,
    cycled: bool,
) -> (u64, usize, u32) {
    let hit = if cycled {
        let (rounds, hit) = ctx.scan_until(mem, LEAD, CPU, STALL, (0..n).map(|a| (a, 0)), None);
        let (i, word) = hit.expect("only a look ends an unguarded cycle");
        (rounds, i, word)
    } else {
        (0..)
            .find_map(|round| {
                ctx.advance(LEAD);
                sweep(ctx, mem, n, false).map(|(i, word)| (round, i, word))
            })
            .expect("it goes on until a hit")
    };
    log.lock()
        .unwrap()
        .push((ctx.now(), format!("hit {hit:?}")));
    hit
}

#[test]
fn a_cycle_ends_at_the_look_the_loop_would_end_at() {
    // A round of 15 words takes 35 + 15 x 30 = 485 ns, and looks at word
    // `k` 65 + 30 k into it. In the first round or the third, at its first
    // look or a later one, and a flip that the round under way has already
    // looked past (quiet, that flip is the last thing ever queued: the
    // cycle must still go round once more to see it).
    for (flip_at, k, seen) in [
        (100, 5, (0, 215)),
        (100, 1, (1, 580)),
        (1_005, 0, (2, 1_035)),
        (1_005, 7, (2, 1_245)),
        (1_420, 14, (2, 1_455)),
    ] {
        // Quiet and busy as for the sweeps above: every look on the fast
        // path, or every look as its `Resume` comes up.
        for busy in [false, true] {
            let (eager, cycled) = both_ways(|sim, log, cycled| {
                let h = sim.handle();
                let mem = words(15);
                flip(&h, &mem, flip_at, k, 9);
                if busy {
                    ticks(&h, log, 7, 1_600);
                    sibling(sim, log, 48);
                }
                let log = Arc::clone(log);
                sim.spawn("sweeper", move |ctx| {
                    let hit = cycle(ctx, &log, &mem, 15, cycled);
                    assert_eq!(hit, (seen.0, k, 9));
                    assert_eq!(ctx.now(), seen.1, "word {k}, busy: {busy}");
                    ctx.advance(5);
                    note(&log, ctx);
                });
            });
            if busy {
                // Every step queued, and the process woken for the last.
                assert!(cycled.relayed > 10, "word {k}: {cycled:?}");
                assert!(
                    cycled.handoffs < eager.handoffs,
                    "word {k}: {} hand-offs cycled, {} written out",
                    cycled.handoffs,
                    eager.handoffs
                );
            } else {
                assert_eq!(cycled.relayed, 0, "word {k}: {cycled:?}");
            }
        }
    }
}

#[test]
fn a_cycle_behind_owed_charges_changes_nothing() {
    for owed in [1, 3] {
        let (_, cycled) = both_ways(|sim, log, cycled| {
            let h = sim.handle();
            let mem = words(15);
            ticks(&h, log, 11, 1_500);
            flip(&h, &mem, 1_200, 11, 2);
            let log = Arc::clone(log);
            sim.spawn("sweeper", move |ctx| {
                for _ in 0..owed {
                    cost(ctx, 7, cycled);
                }
                let (_, i, word) = cycle(ctx, &log, &mem, 15, cycled);
                assert_eq!((i, word), (11, 2));
                cost(ctx, 7, cycled);
            });
        });
        assert!(cycled.relayed > 0);
    }
}

#[test]
fn a_cycle_that_crosses_a_horizon_resumes_under_the_next_run() {
    let split = |cycled: bool| {
        let mut sim = Simulation::new();
        let log = Log::default();
        let h = sim.handle();
        let mem = words(15);
        ticks(&h, &log, 30, 2_000);
        flip(&h, &mem, 1_300, 12, 1);
        let log2 = Arc::clone(&log);
        sim.spawn("sweeper", move |ctx| {
            assert_eq!(cycle(ctx, &log2, &mem, 15, cycled), (2, 12, 1));
            assert_eq!(ctx.now(), 1_395);
        });
        // The first horizon falls inside round 0, the second between the
        // lead of round 2 and its first stall; both find the sweeper
        // asleep and clean.
        let runs = [600, 1_010, Time::MAX].map(|horizon| {
            let report = sim.run_until(horizon);
            assert!(report.is_clean());
            report
        });
        let log = std::mem::take(&mut *log.lock().unwrap());
        (runs, log)
    };
    let (eager, cycled) = (split(false), split(true));
    for (ours, theirs) in cycled.0.iter().zip(&eager.0) {
        assert_eq!(visible(ours), visible(theirs));
    }
    assert_eq!(cycled.1, eager.1);
    assert_eq!(cycled.0[1].end_time, 1_005, "the end of round 2's lead");
}

#[test]
fn a_recorded_cycle_writes_the_eager_trace_with_the_unrecorded_handoffs() {
    let run = |cycled: bool, traced: bool| {
        let mut sim = Simulation::new();
        if traced {
            sim.enable_trace();
        }
        let h = sim.handle();
        let log = Log::default();
        ticks(&h, &log, 17, 2_500);
        for p in 0..2 {
            let mem = words(15);
            flip(&h, &mem, 1_600 + 100 * p, 9, 3);
            let log = Arc::clone(&log);
            sim.spawn(format!("p{p}"), move |ctx| {
                cost(ctx, 15, cycled);
                let (_, i, word) = cycle(ctx, &log, &mem, 15, cycled);
                assert_eq!((i, word), (9, 3));
                cost(ctx, 15, cycled);
            });
        }
        let report = sim.run();
        assert!(report.is_clean());
        (report, sim.take_trace())
    };
    let (eager, eager_trace) = run(false, true);
    let (recorded, recorded_trace) = run(true, true);
    let (unrecorded, _) = run(true, false);
    assert!(eager_trace.len() > 500, "{} entries", eager_trace.len());
    for (i, (ours, theirs)) in recorded_trace.iter().zip(&eager_trace).enumerate() {
        assert_eq!(ours, theirs, "entry {i}");
    }
    assert_eq!(recorded_trace.len(), eager_trace.len());
    assert_eq!(
        (recorded.handoffs, recorded.relayed),
        (unrecorded.handoffs, unrecorded.relayed)
    );
    assert_eq!(visible(&recorded), visible(&unrecorded));
    assert_eq!(visible(&recorded), visible(&eager));
    // Two processes, woken to start, at their hit and to finish.
    assert!(recorded.handoffs < 12, "{recorded:?}");
}

#[test]
fn a_cycle_lets_go_of_what_it_sampled() {
    // As for the sweeps: cut at the hit, or dropped asleep rounds later.
    let mem = words(15);
    let mut sim = Simulation::new();
    let h = sim.handle();
    ticks(&h, &Log::default(), 30, 4_000);
    let unwound = Arc::new(AtomicBool::new(false));
    let guard = Unwound(Arc::clone(&unwound));
    let (weak, mem2) = (Arc::downgrade(&mem), Arc::clone(&mem));
    h.schedule_at(700, move |_| {
        weak.upgrade().expect("the test holds it").0.lock().unwrap()[3] = 1
    });
    sim.spawn("sweeper", move |ctx| {
        let (_guard, mem) = (guard, mem2);
        let hit = ctx.scan_until(&mem, LEAD, CPU, STALL, (0..15).map(|a| (a, 0)), None);
        assert_eq!(hit, (2, Some((3, 1))));
        assert_eq!(Arc::strong_count(&mem), 2, "cut at the hit");
        ctx.scan_until(
            &mem,
            LEAD,
            CPU,
            STALL,
            (0..15).map(|a| (a, u32::from(a == 3))),
            None,
        );
        unreachable!("the run stops first");
    });
    let report = sim.run_until(3_000);
    assert!(report.is_clean());
    assert_eq!(Arc::strong_count(&mem), 3, "the sleeping cycle has one");
    drop(sim);
    assert!(unwound.load(Ordering::SeqCst));
    assert_eq!(Arc::strong_count(&mem), 1);
}

#[test]
fn a_run_with_nothing_left_but_sleeping_cycles_ends_and_names_them() {
    // Two processes poll words nobody is left to write, beside one that
    // finishes and one blocked on a signal nobody holds. Written out they
    // poll for ever; asleep, the walker sees that everything queued is a
    // cycle's `Resume` and stops queueing them.
    let build = |flipped: bool| {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log = Log::default();
        ticks(&h, &log, 30, 2_000);
        for p in 0..2 {
            let mem = words(15);
            if flipped {
                flip(&h, &mem, 50_000 + p, 4, 1);
            }
            sim.spawn(format!("poller{p}"), move |ctx| {
                ctx.advance(13 * p);
                ctx.scan_until(&mem, LEAD, CPU, STALL, (0..15).map(|a| (a, 0)), None);
            });
        }
        sim.spawn("leaver", |ctx| ctx.advance(500));
        let sig = h.new_signal();
        sim.spawn("waiter", move |ctx| {
            let ticket = ctx.ticket(&sig);
            ctx.wait(ticket);
        });
        sim
    };
    let report = build(false).run();
    assert_eq!(report.deadlocked, ["poller0", "poller1", "waiter"]);
    // Each went on until it had seen a round and more go by with nothing
    // else running: whatever was written before is seen by then.
    assert!(report.end_time < 2_000 + 4 * 485, "{report:?}");
    // A flip still pending is something that can change a word.
    let report = build(true).run();
    assert_eq!(report.deadlocked, ["waiter"]);
    assert!(report.end_time > 50_000);
    // A horizon is somewhere to stop: asleep there, not deadlocked, and
    // still asleep under the next; only a run without one gives up.
    let mut sim = build(false);
    for horizon in [10_000, 20_000] {
        let report = sim.run_until(horizon);
        assert!(report.is_clean() && report.end_time > horizon - 485);
    }
    let report = sim.run();
    assert_eq!(report.deadlocked, ["poller0", "poller1", "waiter"]);
    assert!(report.end_time < 20_000 + 4 * 485, "{report:?}");
}

#[test]
fn a_word_written_before_the_calm_still_wakes_a_chain_of_sleepers() {
    // The flip is the last event there is, and from then on everything
    // queued is a sleeping cycle's `Resume` — but `first` has not looked at
    // the flipped word yet, and once it has it writes the word `second` is
    // waiting for, whose rounds in between all ended becalmed.
    let (_, cycled) = both_ways(|sim, log, cycled| {
        let h = sim.handle();
        let (mine, yours) = (words(15), words(15));
        flip(&h, &mine, 1_000, 14, 1);
        let (log1, yours1) = (Arc::clone(log), Arc::clone(&yours));
        sim.spawn("first", move |ctx| {
            assert_eq!(cycle(ctx, &log1, &mine, 15, cycled), (2, 14, 1));
            yours1.0.lock().unwrap()[3] = 7;
        });
        let log2 = Arc::clone(log);
        sim.spawn("second", move |ctx| {
            ctx.advance(100);
            assert_eq!(cycle(ctx, &log2, &yours, 15, cycled), (3, 3, 7));
        });
    });
    assert!(cycled.is_clean());
    assert_eq!(cycled.end_time, 100 + 3 * 485 + 155);
}

// ---------------------------------------------------------------------
// Guarded cycles: a cycle that also ends where the loop's check between
// sweeps would end it.
// ---------------------------------------------------------------------

/// [`cycle`] whose loop also leaves after a sweep that saw nothing once
/// `guard` holds: written out, the check between `sweep` and the next
/// `LEAD`; handed over, the cycle's guard. Logs where the clock is then.
fn guarded_cycle(
    ctx: &mut ProcCtx,
    log: &Log,
    mem: &Arc<Words>,
    cycled: bool,
    guard: &RoundGuard,
) -> (u64, Option<(usize, u32)>) {
    let looks = (0..15).map(|addr| (addr, 0));
    let ended = if cycled {
        ctx.scan_until(mem, LEAD, CPU, STALL, looks, Some(guard))
    } else {
        let mut round = 0;
        loop {
            ctx.advance(LEAD);
            if let Some(hit) = sweep(ctx, mem, 15, false) {
                break (round, Some(hit));
            }
            round += 1;
            if guard(ctx.now()) {
                break (round, None);
            }
        }
    };
    log.lock()
        .unwrap()
        .push((ctx.now(), format!("ended {ended:?}")));
    ended
}

/// A guard that holds from `t` on.
fn from(t: Time) -> RoundGuard {
    Arc::new(move |now| now >= t)
}

#[test]
fn a_time_guard_ends_the_cycle_where_the_loops_check_would() {
    // Rounds of 485 ns end at 485, 970, 1 455, …: the guard is asked at
    // each, and the first at or past its instant ends the cycle there.
    for (deadline, ended) in [(1, (1, 485)), (970, (2, 970)), (971, (3, 1_455))] {
        for busy in [false, true] {
            let (_, cycled) = both_ways(|sim, log, cycled| {
                if busy {
                    ticks(&sim.handle(), log, 7, 1_600);
                    sibling(sim, log, 48);
                }
                let (log, mem) = (Arc::clone(log), words(15));
                sim.spawn("sweeper", move |ctx| {
                    let got = guarded_cycle(ctx, &log, &mem, cycled, &from(deadline));
                    assert_eq!(got, (ended.0, None), "deadline {deadline}");
                    assert_eq!(ctx.now(), ended.1);
                    ctx.advance(5);
                    note(&log, ctx);
                });
            });
            if busy && ended.0 > 1 {
                assert!(cycled.relayed > 10, "deadline {deadline}: {cycled:?}");
            }
        }
    }
}

#[test]
fn a_host_guard_set_at_a_rounds_end_counts_as_the_loop_would_see_it() {
    // Round 1 ends at 970. A flag set by an event queued at 970 before the
    // cycle's last stall of that round was is seen there; one queued at
    // 970 only from 960, after that stall's `Resume`, is not, and the
    // cycle goes round once more. So does the loop written out.
    for (early, ended) in [(true, (2, 970)), (false, (3, 1_455))] {
        let (_, cycled) = both_ways(|sim, log, cycled| {
            let h = sim.handle();
            ticks(&h, log, 7, 1_600);
            let set = Arc::new(AtomicBool::new(false));
            let set2 = Arc::clone(&set);
            let raise = move |_: Time| set2.store(true, Ordering::SeqCst);
            if early {
                h.schedule_at(970, raise);
            } else {
                let h2 = h.clone();
                h.schedule_at(960, move |_| h2.schedule_at(970, raise));
            }
            let guard: RoundGuard = Arc::new(move |_| set.load(Ordering::SeqCst));
            let (log, mem) = (Arc::clone(log), words(15));
            sim.spawn("sweeper", move |ctx| {
                assert_eq!(
                    guarded_cycle(ctx, &log, &mem, cycled, &guard),
                    (ended.0, None)
                );
                assert_eq!(ctx.now(), ended.1, "early: {early}");
            });
        });
        assert!(cycled.relayed > 10, "early: {early}: {cycled:?}");
    }
}

#[test]
fn a_look_that_hits_ends_its_round_before_the_guard_is_asked() {
    // A flip seen in round 2 ends it at the look, guard or not; a guard
    // that holds at the end of round 1 ends the cycle before the flip is
    // seen; a flip seen at the last look of round 2 is seen at 1 455, the
    // instant the guard would be asked, and the look wins.
    for (flip_at, k, deadline, ended) in [
        (1_005, 7, 1_400, (2, Some((7, 9)), 1_245)),
        (1_005, 7, 970, (2, None, 970)),
        (1_420, 14, 1_455, (2, Some((14, 9)), 1_455)),
    ] {
        let (_, cycled) = both_ways(|sim, log, cycled| {
            let h = sim.handle();
            let mem = words(15);
            flip(&h, &mem, flip_at, k, 9);
            ticks(&h, log, 7, 1_600);
            sibling(sim, log, 48);
            let log = Arc::clone(log);
            sim.spawn("sweeper", move |ctx| {
                let got = guarded_cycle(ctx, &log, &mem, cycled, &from(deadline));
                assert_eq!((got.0, got.1, ctx.now()), ended);
            });
        });
        assert!(cycled.is_clean());
    }
}

#[test]
fn a_guarded_cycle_that_outlives_everything_else_is_not_given_up() {
    // Nothing will ever write the guarded sweeper's words, but its guard
    // ends it at 50 us; then it writes the word an unguarded sweeper polls.
    // Neither is deadlocked: a queued guarded cycle is something that may
    // yet write.
    let (_, cycled) = both_ways(|sim, log, cycled| {
        ticks(&sim.handle(), log, 30, 2_000);
        sim.spawn("leaver", |ctx| ctx.advance(500));
        let (mine, yours) = (words(15), words(15));
        let (log1, yours1) = (Arc::clone(log), Arc::clone(&yours));
        sim.spawn("guarded", move |ctx| {
            let (_, hit) = guarded_cycle(ctx, &log1, &mine, cycled, &from(50_000));
            assert_eq!(hit, None);
            yours1.0.lock().unwrap()[3] = 7;
        });
        let log2 = Arc::clone(log);
        sim.spawn("unguarded", move |ctx| {
            ctx.advance(100);
            assert_eq!(cycle(ctx, &log2, &yours, 15, cycled).1, 3);
        });
    });
    assert!(cycled.is_clean() && cycled.end_time > 50_000, "{cycled:?}");
    // Once the guarded one has finished, a sweeper nobody is left to wake
    // is named (written out, it would poll for ever).
    let mut sim = Simulation::new();
    let (mine, yours) = (words(15), words(15));
    sim.spawn("guarded", move |ctx| {
        let looks = (0..15).map(|a| (a, 0));
        let ended = ctx.scan_until(&mine, LEAD, CPU, STALL, looks, Some(&from(50_000)));
        assert_eq!(ended, (104, None), "104 rounds of 485 ns to 50 440");
    });
    sim.spawn("unguarded", move |ctx| {
        ctx.scan_until(&yours, LEAD, CPU, STALL, (0..15).map(|a| (a, 0)), None);
    });
    let report = sim.run();
    assert_eq!(report.deadlocked, ["unguarded"]);
    assert_eq!(report.end_time, 50_440, "the guarded one's end: {report:?}");
}

#[test]
#[should_panic(expected = "a cycle takes 1 to 15 looks")]
fn a_cycle_too_long_for_one_chain_panics_in_its_caller() {
    let mut sim = Simulation::new();
    let mem = words(16);
    sim.spawn("p", move |ctx| {
        ctx.scan_until(&mem, LEAD, CPU, STALL, (0..16).map(|a| (a, 0)), None);
    });
    sim.run();
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
