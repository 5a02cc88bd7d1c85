//! Ring replication must be allocation-free once warm: a packet's payload
//! is copied into its pooled transit plan, whose buffers are reused, and
//! the plan then walks every replica bank without touching the heap. The
//! test sources the same number of packets on a 4-node and a 16-node ring
//! — 3 versus 15 hops per packet — and requires the allocation counts to
//! match: any per-hop allocation would scale with ring size and split
//! the two counts by hundreds. A host's PIO writes, paced so each packet
//! is home before the next, allocate nothing at all, also on a damaged
//! ring whose packets' itineraries break into several runs, and a burst
//! no deeper than the pool a size class keeps, sourced again once the
//! first has drained, allocates nothing either.
//!
//! Fault injection stays off (the default config), as on the healthy
//! hardware the paper assumes, so the clean apply path is what's timed.
//!
//! Allocation counting uses a wrapping global allocator, so everything
//! runs inside ONE test function — a sibling test on another harness
//! thread would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use des::{ProcCtx, Simulation, Time};
use scramnet::{CostModel, Nic, Ring, RingConfig};

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

/// Total packets sourced per measured batch (spread round-robin over the
/// ring's nodes).
const PACKETS: usize = 48;

/// Schedule `PACKETS` four-word packets, sourced from event context 2 µs
/// apart starting at `at`, round-robin across nodes.
fn schedule_batch(sim: &Simulation, ring: &Ring, nodes: usize, at: Time) {
    for p in 0..PACKETS {
        let node = p % nodes;
        let r = ring.clone();
        sim.handle().schedule_at(at + p as Time * 2_000, move |t| {
            r.source_packet(node, t, 16, Arc::new(vec![p as u32; 4]));
        });
    }
}

/// Allocations during a warm batch of `PACKETS` packets on an
/// `nodes`-node ring: one warm-up batch grows the plan pools, queue
/// bands, and slab; the second, identically shaped batch is measured.
fn measured_batch_allocs(nodes: usize) -> u64 {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), nodes, 256, CostModel::default());
    schedule_batch(&sim, &ring, nodes, 0);
    assert!(sim.run().is_clean());

    let before = ALLOCS.load(Ordering::SeqCst);
    schedule_batch(&sim, &ring, nodes, 10_000_000);
    assert!(sim.run().is_clean());
    let after = ALLOCS.load(Ordering::SeqCst);

    // Every packet really replicated to all other banks.
    assert_eq!(ring.stats().injections as usize, 2 * PACKETS);
    after - before
}

/// Writes per measured PIO batch.
const WRITES: usize = 32;

/// Allocations made by `WRITES` `write_word`s, then by `WRITES`
/// eight-word `write_block`s, of a process on a 4-node ring, each write
/// followed by 10 µs of the host's own time: the packet reaches every
/// bank and its plan returns to the pool before the next write takes it.
/// (Unpaced, the writes outrun the ring and keep minting plans.) A first
/// batch of each kind warms the pool, the queue and the bank pages; the
/// second is counted.
fn paced_pio_write_allocs() -> [u64; 2] {
    fn batch(ctx: &mut ProcCtx, nic: &Nic, block: bool) -> u64 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..WRITES {
            if block {
                nic.write_block(ctx, 64, &[i as u32; 8]);
            } else {
                nic.write_word(ctx, i, i as u32);
            }
            ctx.advance(10_000);
        }
        ALLOCS.load(Ordering::SeqCst) - before
    }
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 4, 256, CostModel::default());
    let nic = ring.nic(0);
    let mut writer = sim.spawn("writer", move |ctx| {
        let mut counted = [0; 2];
        for (kind, block) in [false, true].into_iter().enumerate() {
            batch(ctx, &nic, block);
            counted[kind] = batch(ctx, &nic, block);
        }
        counted
    });
    assert!(sim.run().is_clean());
    assert_eq!(ring.stats().injections as usize, 4 * WRITES);
    writer.take().unwrap()
}

/// Allocations made by `WRITES` paced writes of a process on node 0 of a
/// 16-node ring with `bypassed` nodes and `cut` links (under the dual-ring
/// wrap), one-word and eight-word writes alternating, so the plans'
/// lengths differ and every plan holds several runs of hops: one run ends
/// where the head crosses a bypassed node, another where the wrap sends
/// it back to the head of its segment. A first batch warms the pool, the
/// queue and the bank pages; the second is counted. `reached` are the
/// nodes that must hold the last write.
fn paced_multi_run_allocs(bypassed: &[usize], cut: &[usize], reached: &[usize]) -> u64 {
    let mut sim = Simulation::new();
    let config = RingConfig {
        segment_wrap: true,
        ..Default::default()
    };
    let ring = Ring::with_config(&sim.handle(), 16, 256, CostModel::default(), config);
    bypassed.iter().for_each(|&node| ring.bypass_node(node));
    cut.iter().for_each(|&link| ring.break_link(link));
    let nic = ring.nic(0);
    let mut writer = sim.spawn("writer", move |ctx| {
        let batch = |ctx: &mut ProcCtx| {
            let before = ALLOCS.load(Ordering::SeqCst);
            for i in 0..WRITES {
                if i % 2 == 0 {
                    nic.write_word(ctx, i, i as u32);
                } else {
                    nic.write_block(ctx, 64, &[i as u32; 8]);
                }
                ctx.advance(10_000);
            }
            ALLOCS.load(Ordering::SeqCst) - before
        };
        batch(ctx);
        batch(ctx)
    });
    assert!(sim.run().is_clean());
    for node in 1..16 {
        let got = ring.snapshot(node)[64];
        let want = if reached.contains(&node) {
            WRITES as u32 - 1
        } else {
            0
        };
        assert_eq!(got, want, "node {node}");
    }
    writer.take().unwrap()
}

/// Packets a burst sources from one event, one- and eight-word packets
/// alternating: two size classes, each as deep as the pool the ring keeps
/// of a class.
const BURST: usize = 512;

/// Allocations made by the second of two identical bursts of `BURST`
/// packets on a 16-node ring, round-robin over its nodes, the first
/// drained before the second is sourced: the pools the first burst's
/// buffers went back to hold every buffer the second takes.
fn burst_drain_burst_allocs() -> u64 {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 16, 256, CostModel::default());
    let payloads = [Arc::new(vec![1; 1]), Arc::new(vec![8; 8])];
    let burst = |sim: &mut Simulation, at: Time| {
        let before = ALLOCS.load(Ordering::SeqCst);
        let (r, payloads) = (ring.clone(), payloads.clone());
        sim.handle().schedule_at(at, move |t| {
            for p in 0..BURST {
                r.source_packet(p % 16, t, 16 * (p % 2), Arc::clone(&payloads[p % 2]));
            }
        });
        assert!(sim.run().is_clean());
        ALLOCS.load(Ordering::SeqCst) - before
    };
    burst(&mut sim, 0);
    let counted = burst(&mut sim, 10_000_000);
    assert_eq!(ring.stats().injections as usize, 2 * BURST);
    assert_eq!(
        ring.snapshot(0)[16..24],
        [8; 8],
        "node 0 holds the odd nodes' eight-word writes"
    );
    counted
}

#[test]
fn ring_hops_are_alloc_free_after_warmup() {
    let a4 = measured_batch_allocs(4); // 48 packets × 3 hops = 144 applies
    let a16 = measured_batch_allocs(16); // 48 packets × 15 hops = 720 applies

    // Per-packet cost only: the `Arc<Vec>` each source event builds for
    // `source_packet`, and the scheduling of the source event itself. A
    // single allocation per hop would push a16 at least 576 above a4.
    assert!(
        a16 <= a4 + 8,
        "hop path allocates per hop: 4-node batch {a4} allocs, 16-node batch {a16}"
    );
    assert!(
        a4 <= (PACKETS * 4) as u64,
        "per-packet allocation budget blown: {a4} allocs for {PACKETS} packets"
    );

    // A warm, paced PIO write copies its words into a pooled plan and
    // allocates nothing; each used to build an `Arc<Vec>` of its own, two
    // allocations a write (64 per batch of 32).
    let [words, blocks] = paced_pio_write_allocs();
    assert_eq!(
        (words, blocks),
        (0, 0),
        "allocations by {WRITES} paced write_words, {WRITES} paced write_blocks"
    );

    // Plans of two and three runs, taking one pooled buffer in turn, once
    // it is reserved to the longest of them allocate nothing either.
    let mid_ring_bypass =
        paced_multi_run_allocs(&[8], &[], &[1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]);
    let wrap = paced_multi_run_allocs(&[2], &[4, 11], &[1, 3, 4, 12, 13, 14, 15]);
    assert_eq!(
        (mid_ring_bypass, wrap),
        (0, 0),
        "allocations by {WRITES} paced writes on a bypassed, on a cut ring"
    );

    // The pools keep what a warm steady state reuses: a burst as deep as
    // a class's pool, drained, leaves every buffer the same burst takes
    // again.
    assert_eq!(
        burst_drain_burst_allocs(),
        0,
        "allocations by a drained ring's second burst of {BURST} packets"
    );

    // Sanity-check the counter itself so a broken hook cannot fake a pass.
    let before = ALLOCS.load(Ordering::SeqCst);
    std::hint::black_box(Box::new(0x5Cu64));
    assert!(
        ALLOCS.load(Ordering::SeqCst) > before,
        "allocation counter is live"
    );
}
