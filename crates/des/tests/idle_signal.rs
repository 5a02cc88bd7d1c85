//! A signal nobody waits on stops growing: a notification made while no
//! ticket is out is no ticket's business, so the signal keeps nothing of
//! it. A NIC's watch signal is notified on every apply in its range, for
//! the whole of a world, whether or not a process ever sleeps on it.
//!
//! Counted with a wrapping global allocator, in one test function: a
//! sibling test on another harness thread would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use des::Simulation;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_signal_without_tickets_allocates_nothing() {
    let mut sim = Simulation::new();
    let signal = sim.handle().new_signal();
    // Warm-up: a process takes a ticket, checks, and lets it go; the
    // notifications made while it was out are kept, then forgotten.
    let sig = signal.clone();
    sim.spawn("checker", move |ctx| {
        let _ticket = ctx.ticket(&sig);
        for t in 0..16 {
            sig.notify_at(t);
        }
    });
    assert!(sim.run().is_clean());

    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 16..10_016 {
        signal.notify_at(t);
    }
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst) - before,
        0,
        "10 000 notifications with no ticket out allocated"
    );
}
