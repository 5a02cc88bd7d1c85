//! A signal nobody waits on stops growing: a notification made while no
//! ticket is out is no ticket's business, so the signal keeps nothing of
//! it. A NIC's watch signal is notified on every apply in its range, for
//! the whole of a world, whether or not a process ever sleeps on it.
//!
//! A wait on two tickets allocates nothing either once warm: an
//! interrupt-mode BBP endpoint with sends outstanding sleeps on its MESSAGE
//! and ACK watches at every `wait_for_traffic`.
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
fn a_warm_signal_allocates_nothing() {
    a_signal_without_tickets_allocates_nothing();
    a_two_ticket_wait_allocates_nothing();
}

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

/// A process sleeps on two signals 2 000 times, woken by one, by the other
/// or by both at one instant; after 100 warm-up waits, the rest allocate
/// nothing, counted on every thread the simulation runs on.
fn a_two_ticket_wait_allocates_nothing() {
    const WAITS: u64 = 2_000;
    const WARM: u64 = 100;
    let mut sim = Simulation::new();
    let (a, b) = (sim.handle().new_signal(), sim.handle().new_signal());
    let (wa, wb) = (a.clone(), b.clone());
    sim.spawn("waiter", move |ctx| {
        let mut before = 0;
        for i in 0..WAITS {
            if i == WARM {
                before = ALLOCS.load(Ordering::SeqCst);
            }
            let (first, second) = (ctx.ticket(&wa), ctx.ticket(&wb));
            ctx.wait_either(first, second);
            assert_eq!(ctx.now(), 10 * (i + 1), "wait {i} woke at its notification");
        }
        let allocated = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(allocated, 0, "warm two-ticket waits allocated");
    });
    sim.spawn("notifier", move |ctx| {
        for i in 0..WAITS {
            ctx.advance(10);
            let t = ctx.now();
            match i % 3 {
                0 => a.notify_at(t),
                1 => b.notify_at(t),
                _ => {
                    b.notify_at(t);
                    a.notify_at(t);
                }
            }
        }
    });
    assert!(sim.run().is_clean());
}
