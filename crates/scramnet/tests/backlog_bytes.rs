//! What a packet in flight costs the host: one pooled buffer (its
//! itinerary as runs of hops, its trace id when it has one, and its
//! payload) and its queue entry, in which the rest of the packet — the
//! ring and a header of a few words — rides inline.
//! A ring offered more than its links carry holds a backlog of such
//! packets, and the backlog is the process's memory.
//!
//! One event sources `PACKETS` sixteen-word packets on a 16-node ring, so
//! every one of them is in flight, fifteen hops still to go, when it
//! returns. The plan pools are empty, so each packet takes a new buffer:
//! the test pins how many allocations that costs per packet and how many
//! live bytes each packet holds, queue entry included. Once the burst has
//! drained, the ring may keep only a pool's worth of its buffers. And a
//! burst of one-word packets after one 256-word packet — BBP's flag
//! writes beside its payload writes — holds no more than twice what it
//! holds after a one-word packet: each plan's buffer is sized to its own
//! plan's class, not to the longest plan the ring has built.
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
/// Live bytes per packet in flight, at most: the 72-byte buffer (one run
/// of fifteen hops, which is one word — its time is the series' first and
/// an untraced packet stores no trace id — and the payload: 17 words, in
/// the 18-word size class) and the queue entry that holds the rest inline:
/// its 56-byte slab slot, its 16-byte key (time, and tie-break packed with
/// slot) and the queue's doubling slack. 145.0 measured.
const BYTES_PER_PACKET: u64 = 152;

/// Words of the packet a mixed burst sources first.
const LONG: usize = 256;
/// Buffers the ring's pool keeps of one size class once a burst drains.
const POOLED: u64 = 256;
/// Bytes a pooled buffer of a sixteen-word packet's plan holds: 17 words
/// in its 18-word class, and its 16-byte handle in the pool.
const POOLED_BYTES: u64 = 18 * 4 + 16;
/// What else a drained 16-node ring holds: its own state, its banks'
/// handles and its list of size classes (≈ 2 KB measured).
const RING_BYTES: u64 = 4 * 1024;

/// One event sources a `first`-word packet from node 0 unless `first` is
/// 0, then `PACKETS` packets of `words` words round-robin over the nodes;
/// the simulation runs until they are home. Returns what the `PACKETS`
/// packets took while all of them were in flight — allocations and live
/// bytes — and the world, drained.
fn burst(first: usize, words: usize) -> (u64, u64, Simulation, Ring) {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), NODES, 1024, CostModel::default());
    let payload = Arc::new(vec![0xA5A5_A5A5; words]);
    let measured = Arc::new(Mutex::new(None));
    let (r, out) = (ring.clone(), Arc::clone(&measured));
    sim.handle().schedule_at(0, move |t| {
        if first > 0 {
            r.source_packet(0, t, 1024 - first, vec![7; first].into());
        }
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
    let sent = PACKETS + u64::from(first > 0);
    assert_eq!(ring.stats().injections, sent, "every packet injected");
    let snap = ring.snapshot(NODES - 1);
    assert_eq!(
        &snap[..words],
        &vec![0xA5A5_A5A5; words][..],
        "node 0's write arrived"
    );
    let (allocs, live) = measured.lock().unwrap().expect("the source event ran");
    (allocs, live, sim, ring)
}

fn per_packet(v: u64) -> f64 {
    v as f64 / PACKETS as f64
}

#[test]
fn a_packet_in_flight_is_one_buffer_and_its_queue_entry() {
    let (allocs, live, sim, ring) = burst(0, WORDS);
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

    // Drained, the ring keeps at most `POOLED` of the burst's buffers, and
    // gives the rest back: dropping it frees what it still holds (its
    // banks' pages go to the process's free list and stay live).
    let drained = LIVE.load(Ordering::SeqCst);
    drop(ring);
    let ring_held = drained - LIVE.load(Ordering::SeqCst);
    assert!(
        ring_held <= POOLED * POOLED_BYTES + RING_BYTES,
        "a drained ring holds {ring_held} bytes after {PACKETS} packets"
    );
    let drained = LIVE.load(Ordering::SeqCst);
    drop(sim);
    let queue_kept = drained - LIVE.load(Ordering::SeqCst);
    println!(
        "drained: the ring held {ring_held} bytes, the simulation {queue_kept} \
         (its queue's storage, grown to the burst's depth)"
    );

    // A one-word flag write after a 256-word payload takes a buffer of its
    // own size, not one the payload's plan needed. The burst it is held
    // against sources a one-word packet first, so the two queue as many
    // entries (one more than `PACKETS` doubles the queue's storage).
    let (_, plain, ..) = burst(1, 1);
    let (_, mixed, ..) = burst(LONG, 1);
    assert!(
        mixed <= 2 * plain,
        "one-word packets after a {LONG}-word one hold {:.1} live bytes a packet, \
         {:.1} without it",
        per_packet(mixed),
        per_packet(plain)
    );
    println!(
        "one-word packets: {:.1} live bytes a packet, {:.1} after a {LONG}-word packet",
        per_packet(plain),
        per_packet(mixed)
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
