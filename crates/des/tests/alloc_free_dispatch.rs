//! The dispatch hot path must be allocation-free once warm: popping an
//! event, running its closure, and scheduling the next one may touch the
//! queue, the slab, and the inline-closure storage, but never the heap.
//! This pins the tentpole property directly — `Box<dyn FnOnce>` per
//! event, or a queue that allocates per push, would fail immediately.
//!
//! Allocation counting uses a wrapping global allocator with one
//! process-wide counter, so it sees events wherever they run — on the
//! `run_until` caller's thread, or inline on a `des-*` process thread
//! that yielded (the second half below) — and everything runs inside ONE
//! test function: a sibling test on another harness thread would pollute
//! the counter. Its last lines are the other side of the inline budget:
//! an over-size closure costs exactly one box, and a queue dropped with
//! it pending gives the box back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use std::sync::Arc;

use des::{Sample, SimHandle, Simulation, Time};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Blocks handed out and not yet handed back.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        LIVE.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Memory whose every tenth look sees a changed word.
struct EveryTenth(AtomicU64);

impl Sample for EveryTenth {
    fn sample(&self, _addr: usize) -> u32 {
        u32::from(self.0.fetch_add(1, Ordering::SeqCst) % 10 == 9)
    }
}

/// An endless self-rescheduling event: the closure captures one
/// `SimHandle` (a single `Arc`), well inside the inline budget.
fn chain(h: &SimHandle, t: Time) {
    let h2 = h.clone();
    h.schedule_at(t + 100, move |t| chain(&h2, t));
}

#[test]
fn event_dispatch_is_alloc_free_after_warmup() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    for c in 0..64u64 {
        chain(&h, c);
    }

    // Warm-up: ~128k dispatches grow the pending queue's bands, the
    // payload slab, and the free list to their steady-state high-water
    // marks.
    let warm = sim.run_until(200_000);
    assert!(
        warm.dispatches > 100_000,
        "warm-up ran: {}",
        warm.dispatches
    );

    let before = ALLOCS.load(Ordering::SeqCst);
    let report = sim.run_until(2_000_000);
    let after = ALLOCS.load(Ordering::SeqCst);

    assert!(
        report.dispatches > 1_000_000,
        "measured window dispatched plenty: {}",
        report.dispatches
    );
    assert_eq!(
        after - before,
        0,
        "event dispatch allocated after warm-up ({} dispatches)",
        report.dispatches
    );

    // The same chains dispatched by a process: every `advance` below
    // finds chain events due first, so it queues its own resume and runs
    // the dispatch loop on its own thread. Yielding, the inline events and
    // the resume must stay off the heap too.
    let walked = Arc::new(AtomicU64::new(u64::MAX));
    let walked2 = Arc::clone(&walked);
    let on_walker = Arc::new(AtomicU64::new(0));
    let on_walker2 = Arc::clone(&on_walker);
    let chained = Arc::new(AtomicU64::new(u64::MAX));
    let chained2 = Arc::clone(&chained);
    let swept = Arc::new(AtomicU64::new(u64::MAX));
    let swept2 = Arc::clone(&swept);
    let cycled = Arc::new(AtomicU64::new(u64::MAX));
    let cycled2 = Arc::clone(&cycled);
    let h2 = h.clone();
    sim.spawn_at(2_000_000, "walker", move |ctx| {
        for _ in 0..1_000 {
            ctx.advance(100); // warm-up: this thread's first yields
        }
        h2.schedule_at(ctx.now() + 50, move |_| {
            let here = std::thread::current();
            on_walker2.store(
                u64::from(here.name() == Some("des-walker")),
                Ordering::SeqCst,
            );
        });
        ctx.advance(100);
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..20_000 {
            ctx.advance(100);
        }
        walked2.store(ALLOCS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
        // The same walk with two of three steps charged: the settle
        // queues the first, and the dispatch loop answers that `Resume`
        // and the next with the following step instead of returning here.
        // Charging, settling and relaying stay off the heap as well.
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..20_000 {
            ctx.charge(30);
            ctx.charge(30);
            ctx.advance(40);
        }
        chained2.store(ALLOCS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
        // Sweeps of 15 words, 30 + 40 ns each: with an event due every
        // couple of nanoseconds every step is queued, so every look is
        // taken by the dispatch loop as its `Resume` comes up, and the
        // tenth cuts the sweep short. Queueing the looks, relaying them
        // and the early exit stay off the heap too.
        let mem = Arc::new(EveryTenth(AtomicU64::new(0)));
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..2_000 {
            let hit = ctx.scan(&mem, 30, 40, (0..15).map(|addr| (addr, 0)));
            assert_eq!(hit, Some((9, 1)));
        }
        swept2.store(ALLOCS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
        // The same looks as a cycle of three words behind 40 ns of lead:
        // three rounds asleep and the first word of the fourth. Queueing
        // the cycle, starting it over and the hit stay off the heap too.
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..1_000 {
            let hit = ctx.scan_until(&mem, 40, 30, 40, (0..3).map(|addr| (addr, 0)), None);
            assert_eq!(hit, (3, Some((0, 1))));
        }
        cycled2.store(ALLOCS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
    });
    let report = sim.run_until(8_500_000);
    assert!(report.is_clean(), "the walker finished inside the horizon");
    assert!(
        report.dispatches > 1_000_000,
        "the walker's window dispatched plenty: {}",
        report.dispatches
    );
    assert_eq!(report.handoffs, 2, "all of it on the walker's thread");
    assert_eq!(
        on_walker.load(Ordering::SeqCst),
        1,
        "events ran inline on the yielding process's thread"
    );
    assert_eq!(
        walked.load(Ordering::SeqCst),
        0,
        "yield + inline dispatch allocated after warm-up"
    );
    assert_eq!(
        report.relayed,
        40_000 + 2_000 * 19 + 1_000 * 23,
        "two relayed resumes per chain, nineteen per sweep cut at its tenth word, \
         twenty-three per cycle cut at its tenth look"
    );
    assert_eq!(
        chained.load(Ordering::SeqCst),
        0,
        "charge + settle + relay allocated"
    );
    assert_eq!(
        swept.load(Ordering::SeqCst),
        0,
        "scan + relayed look + early exit allocated"
    );
    assert_eq!(
        cycled.load(Ordering::SeqCst),
        0,
        "scan_until + rounds started over + hit allocated"
    );

    // What the inline budget leaves out: a closure over it costs one box,
    // and a queue dropped with that event still pending hands the box
    // back (`des::event`'s *once* contract — `Drop` is the other way out
    // of an `EventFn`).
    let dropped_pending = |over_size: bool| {
        let (allocs, live) = (ALLOCS.load(Ordering::SeqCst), LIVE.load(Ordering::SeqCst));
        let sim = Simulation::new();
        let pad = [0x5Cu64; 32];
        if over_size {
            sim.handle().schedule_at(10, move |_| {
                std::hint::black_box(&pad);
            });
        } else {
            sim.handle().schedule_at(10, |_| {});
        }
        drop(sim);
        (
            ALLOCS.load(Ordering::SeqCst) - allocs,
            LIVE.load(Ordering::SeqCst) - live,
        )
    };
    let (inline_allocs, inline_left) = dropped_pending(false);
    let (boxed_allocs, boxed_left) = dropped_pending(true);
    assert_eq!(
        boxed_allocs,
        inline_allocs + 1,
        "one box per over-size event"
    );
    assert_eq!(
        (inline_left, boxed_left),
        (0, 0),
        "a simulation dropped with an event pending left blocks behind"
    );

    // Sanity-check the counter itself so a broken hook cannot fake a pass.
    let before = ALLOCS.load(Ordering::SeqCst);
    std::hint::black_box(Box::new(0x5Cu64));
    assert!(
        ALLOCS.load(Ordering::SeqCst) > before,
        "allocation counter is live"
    );
}
