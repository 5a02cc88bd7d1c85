//! What a packet in flight costs the host. A packet in the queue is one
//! pooled buffer (its itinerary as runs of hops, its trace id when it has
//! one, and its payload) and its queue entry, in which the rest of the
//! packet — the ring and a header of a few words — rides inline. A packet
//! booked behind its source's own is a record in its source's transmit
//! FIFO, in 1 KB pages from the process's free list, until the packet
//! ahead of it queues it. A ring offered more than its links carry holds
//! a backlog of such packets, and the backlog is the process's memory.
//!
//! One event sources `PACKETS` sixteen-word packets on a 16-node ring, so
//! every one of them is in flight, fifteen hops still to go, when it
//! returns: each source's first is queued, the rest wait in its FIFO. The
//! test pins how many allocations that costs per packet and how many live
//! bytes each packet holds. Once the burst has drained, the ring may keep
//! only a pool's worth of buffers, and the simulation no more than the
//! storage of a queue as deep as the chains' heads. And a burst of
//! one-word packets after one 256-word packet — BBP's flag writes beside
//! its payload writes — holds no more than twice what it holds after a
//! one-word packet: each plan's buffer is sized to its own plan's class,
//! not to the longest plan the ring has built.
//!
//! The allocator counts the allocations of the thread that runs the test,
//! and keeps a running total of its live bytes; the harness's own threads
//! allocate uncounted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use des::Simulation;
use scramnet::{CostModel, Ring};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that runs the test, first thing: only what it
    /// allocates and frees is counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread's allocations count. (A thread on its way
/// out, whose flag is gone, is not the test's.)
fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            LIVE.fetch_add(layout.size() as u64, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            LIVE.fetch_add(new_size as u64, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
        }
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

/// Cold packets per allocation, at least, over and above `SETUP_ALLOCS`:
/// a FIFO page per eleven records, while the process's free list has none
/// to hand on. 0.10 allocations a packet measured, the FIFOs' page lists
/// growing by doubling with their pages (1.00 when every packet took a
/// buffer of its own).
const PACKETS_PER_ALLOC: u64 = 10;
/// What a burst pays once, whatever its size: the queue's storage grown
/// by doubling, and the source banks' first-touched pages.
const SETUP_ALLOCS: u64 = 64;
/// Live bytes per packet in flight, at most. A packet waiting in its
/// source's FIFO is a 23-word record: the FIFO's word of its length and
/// tag (the hop and run counts), its first hop's time and reserved
/// tie-break value in three words, `addr`, `writer`, and the 17 words its
/// plan's buffer would hold (one run of fifteen hops, which is one word,
/// and the payload). A 1 KB page holds eleven: 93.1 bytes a record. The
/// sixteen sources' heads hold their buffers and queue entries. 95.2
/// measured (145.0 when every packet had a 72-byte buffer, a 56-byte
/// slab slot and a 16-byte queue key).
const BYTES_PER_PACKET: u64 = 104;
/// What the simulation holds once the burst has drained, at most: the
/// storage of a queue that was never deeper than the chains' heads and
/// what they queue (1 315 400 bytes when every packet was queued). 39 184
/// measured.
const DRAINED_SIM_BYTES: u64 = 64 * 1024;

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
fn a_packet_in_flight_is_a_fifo_record_or_a_buffer_and_its_queue_entry() {
    COUNTED.set(true);
    let (allocs, live, sim, ring) = burst(0, WORDS);
    assert!(
        allocs <= PACKETS / PACKETS_PER_ALLOC + SETUP_ALLOCS,
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

    // Drained, the ring keeps at most `POOLED` buffers a class, and its
    // FIFOs' pages went back to the process's free list as they emptied:
    // dropping it frees what it still holds (its banks' pages go to the
    // free list and stay live). That is the few buffers its chains' heads
    // passed on, and the FIFOs' emptied page lists (≈ 16 KB), inside the
    // bound a full pool of this burst's buffers set.
    let drained = LIVE.load(Ordering::SeqCst);
    drop(ring);
    let ring_held = drained - LIVE.load(Ordering::SeqCst);
    assert!(
        ring_held <= POOLED * POOLED_BYTES + RING_BYTES,
        "a drained ring holds {ring_held} bytes after {PACKETS} packets"
    );
    let drained = LIVE.load(Ordering::SeqCst);
    drop(sim);
    let sim_held = drained - LIVE.load(Ordering::SeqCst);
    assert!(
        sim_held <= DRAINED_SIM_BYTES,
        "a drained simulation holds {sim_held} bytes after {PACKETS} packets"
    );
    println!(
        "drained: the ring held {ring_held} bytes, the simulation {sim_held} \
         (its queue's storage, grown to the queue's depth)"
    );

    // A one-word flag write after a 256-word payload takes a buffer of its
    // own size, not one the payload's plan needed: node 0's first one-word
    // packets first hop before the 256-word packet's last, so they are
    // queued beside its chain, each with a buffer, and so are the sources'
    // heads; the rest wait in FIFO pages the first burst gave back to the
    // free list. The burst it is held against sources a one-word packet
    // first, so the two book alike.
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
