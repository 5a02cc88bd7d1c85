//! What a packet in flight costs the host: one pooled buffer (its
//! itinerary as runs of hops, its trace id when it has one, and its
//! payload) and its queue entry, in which the rest of the packet — the
//! ring and a header of a few words — rides inline.
//! A ring offered more than its links carry holds a backlog of such
//! packets, and the backlog is the process's memory.
//!
//! One event sources `PACKETS` sixteen-word packets on a 16-node ring, so
//! every one of them is in flight, fifteen hops still to go, when it
//! returns. The plan pool is empty, so each packet takes a new buffer: the
//! test pins how many allocations that costs per packet and how many live
//! bytes each packet holds, queue entry included.
//!
//! The allocator counts every allocation and keeps a running total of
//! live bytes, so everything runs inside ONE test function — a sibling
//! test on another harness thread would pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use des::Simulation;
use scramnet::{CostModel, Ring};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        LIVE.fetch_add(layout.size() as u64, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        LIVE.fetch_add(new_size as u64, Ordering::SeqCst);
        LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Packets sourced by the one event.
const PACKETS: u64 = 16_384;
/// Nodes on the ring: fifteen hops a packet.
const NODES: usize = 16;
/// Words a packet carries.
const WORDS: usize = 16;

/// Allocations per cold packet, at most, over and above `SETUP_ALLOCS`.
const ALLOCS_PER_PACKET: u64 = 1;
/// What a burst pays once, whatever its size: the queue's storage grown
/// by doubling, and the source banks' first-touched pages.
const SETUP_ALLOCS: u64 = 64;
/// Live bytes per packet in flight, at most: the buffer (one run of
/// fifteen hops, which is one word — its time is the series' first and an
/// untraced packet stores no trace id — and the payload: 68 bytes) and the
/// queue entry that holds the rest inline (its 56-byte slab slot, its key
/// and the queue's doubling slack). 149 measured.
const BYTES_PER_PACKET: u64 = 160;

#[test]
fn a_packet_in_flight_is_one_buffer_and_its_queue_entry() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), NODES, 1024, CostModel::default());
    let payload = Arc::new(vec![0xA5A5_A5A5; WORDS]);
    let measured = Arc::new(Mutex::new(None));
    let (r, out) = (ring.clone(), Arc::clone(&measured));
    sim.handle().schedule_at(0, move |t| {
        let (allocs, live) = (ALLOCS.load(Ordering::SeqCst), LIVE.load(Ordering::SeqCst));
        for p in 0..PACKETS {
            let node = (p % NODES as u64) as usize;
            r.source_packet(node, t, 64 * node, Arc::clone(&payload));
        }
        let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
        let live = LIVE.load(Ordering::SeqCst) - live;
        *out.lock().unwrap() = Some((allocs, live));
    });
    assert!(sim.run().is_clean());
    assert_eq!(ring.stats().injections, PACKETS, "every packet injected");
    let snap = ring.snapshot(NODES - 1);
    assert_eq!(
        &snap[..WORDS],
        &[0xA5A5_A5A5; WORDS],
        "node 0's write arrived"
    );

    let (allocs, live) = measured.lock().unwrap().expect("the source event ran");
    let per_packet = |v: u64| v as f64 / PACKETS as f64;
    assert!(
        allocs <= ALLOCS_PER_PACKET * PACKETS + SETUP_ALLOCS,
        "{allocs} allocations for {PACKETS} cold packets ({:.2} a packet)",
        per_packet(allocs)
    );
    assert!(
        live <= BYTES_PER_PACKET * PACKETS,
        "{live} live bytes for {PACKETS} packets in flight ({:.1} a packet)",
        per_packet(live)
    );
    println!(
        "{allocs} allocations and {live} live bytes for {PACKETS} packets in flight \
         ({:.2} and {:.1} a packet)",
        per_packet(allocs),
        per_packet(live)
    );

    // Sanity-check the counters themselves so a broken hook cannot fake a
    // pass.
    let (allocs, live) = (ALLOCS.load(Ordering::SeqCst), LIVE.load(Ordering::SeqCst));
    let held = std::hint::black_box(Box::new([0u8; 4096]));
    assert!(
        ALLOCS.load(Ordering::SeqCst) > allocs,
        "allocation counter is live"
    );
    assert!(
        LIVE.load(Ordering::SeqCst) >= live + 4096,
        "byte counter is live"
    );
    drop(held);
}
