//! The disabled recorder must be genuinely free: no allocations and no
//! recorded state, so leaving instrumentation compiled into every layer
//! cannot perturb a simulation that never enables it.
//!
//! Allocation counting is per-thread (a const-initialized thread-local
//! bumped by the wrapping global allocator), so harness threads — the
//! libtest main thread buffering output, timers — cannot pollute the
//! count. Everything still runs inside ONE test function: the counter
//! only sees the thread it runs on. Every measured call but one is made
//! directly on this thread; the one that needs a simulation, a disabled
//! `ProcCtx::span`, is counted inside its process, on that process's
//! thread. (`crates/des/tests/alloc_free_dispatch.rs`, which does
//! dispatch events on `des-*` threads, counts process-wide instead.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Layer, Recorder, Stage};

struct CountingAlloc;

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations observed on the calling thread.
fn allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_never_allocates() {
    let rec = Recorder::new();
    assert!(!rec.is_enabled());

    let before = allocs();
    for t in 0..10_000u64 {
        let span = rec.open_span(t, 0, Layer::Mpi, "send");
        rec.count(t, 1, "ring.packets", 3);
        rec.close_span(span, t + 1);
    }
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "disabled recording calls must not allocate"
    );
    assert!(
        rec.is_empty(),
        "disabled recording calls must record nothing"
    );

    // A span scoped by a process (`ProcCtx::span`), counted on the
    // process's own thread: the same open and close, and nothing else.
    let mut sim = des::Simulation::new();
    let spans_allocs = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&spans_allocs);
    sim.spawn("spans", move |ctx| {
        let before = allocs();
        for _ in 0..10_000 {
            ctx.span(0, Layer::Mpi, "send", |ctx| ctx.now());
        }
        out.store(allocs() - before, Ordering::Relaxed);
    });
    assert!(sim.run().is_clean());
    assert_eq!(
        spans_allocs.load(Ordering::Relaxed),
        0,
        "a disabled ProcCtx::span must not allocate"
    );
    assert!(sim.recorder().is_empty(), "and must record nothing");

    // Message-lifecycle instrumentation: minting ids, publishing them on
    // the per-node side-channels, and recording checkpoints must all stay
    // allocation-free while disabled. `lifecycle` always feeds the
    // preallocated flight ring; `lifecycle_hot` (the per-hop variant)
    // must be a complete no-op.
    let hot_before = rec.flight().recorded();
    let before = allocs();
    for t in 0..10_000u64 {
        let id = rec.mint_trace_id(3);
        rec.set_current_trace(3, id);
        assert_eq!(rec.current_trace(3), id);
        rec.set_current_rx(5, id);
        assert_eq!(rec.current_rx(5), id);
        rec.lifecycle(t, 3, id, Stage::SendEnter, 64);
        rec.lifecycle_hot(t, 3, id, Stage::RingHop, 1);
    }
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "disabled lifecycle instrumentation must not allocate"
    );
    assert!(
        rec.is_empty(),
        "disabled lifecycle calls must append no log events"
    );
    assert_eq!(
        rec.flight().recorded() - hot_before,
        10_000,
        "the always-on flight ring keeps `lifecycle` checkpoints, and \
         `lifecycle_hot` records nothing while disabled"
    );

    // Continuous telemetry: a disabled gauge site is one relaxed load —
    // no allocation, no registration. Telemetry has its own gate,
    // separate from the event-log gate, so golden determinism traces
    // stay byte-identical with gauges compiled in but off.
    let before = allocs();
    for t in 0..10_000u64 {
        rec.gauge(t, 0, "ring.fifo_backlog_ns", t % 64);
        rec.gauge_f(t, 1, "bbp.credit_balance", 32.0);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled gauge sampling must not allocate"
    );
    assert_eq!(
        rec.telemetry().series_count(),
        0,
        "disabled gauges must register nothing"
    );

    // Enabled telemetry: registration allocates once per (gauge, node);
    // steady-state sampling afterwards is allocation-free even across
    // bucket turnover and repeated pairwise downsampling — the bucket
    // ring is preallocated at SERIES_CAP and merges in place.
    rec.telemetry().enable();
    rec.gauge(0, 0, "rpc.buffers_in_use", 0);
    let before = allocs();
    for t in 1..=400_000u64 {
        rec.gauge(t * 10, 0, "rpc.buffers_in_use", t % 16);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state gauge sampling must not allocate"
    );
    assert!(
        rec.is_empty(),
        "gauges must never write to the event log: golden traces cannot \
         see whether telemetry ran"
    );

    // Counter sanity for the telemetry path too: a fresh (gauge, node)
    // pair registers a new series, which does allocate.
    let before = allocs();
    rec.gauge(0, 7, "rpc.buffers_in_use", 1);
    let after = allocs();
    assert!(after > before, "registering a new series should allocate");
    assert_eq!(rec.telemetry().series_count(), 2);
    rec.telemetry().disable();

    // Sanity-check the counter itself: the enabled path does allocate
    // (the event vector grows), so a broken counter cannot fake a pass.
    rec.enable();
    let before = allocs();
    for t in 0..64u64 {
        let span = rec.open_span(t, 0, Layer::Mpi, "send");
        rec.close_span(span, t + 1);
    }
    let after = allocs();
    assert!(after > before, "enabled recording should allocate");
    assert_eq!(rec.len(), 128);
}
