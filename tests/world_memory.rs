//! A host process that builds one world after another must not grow with
//! the number it has built. Two things once made it: a poll sweep asleep
//! in the dispatch loop — one sweep, or a cycle of them — holds what it
//! samples — the ring, which holds a handle on the scheduler, which holds
//! the sweep — so a world dropped mid-sweep (or, before the chain learned
//! to let go, any world at all) leaked whole; and every world's bank pages
//! and page tables were allocated afresh on whichever thread first wrote
//! them. A third kept a world whose run ended with an event still queued
//! past its horizon — a fault plan's heal — for the same reason: the event
//! holds the ring, which holds the scheduler, which held the queue.
//!
//! Counted with a wrapping global allocator, so each test holds `SERIAL`
//! for its whole body: a sibling test on another harness thread would
//! pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::{ms, us, Simulation};
use scramnet_cluster::scramnet::{bank_storage_allocated, CostModel, FaultPlan};
use scramnet_cluster::smpi::MpiWorld;

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// One test at a time, whether or not another failed.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Build a 16-rank world, broadcast and synchronise on it, then leave
/// every rank but the root blocked on something nothing will satisfy —
/// sweeping fifteen flag words over and over — and drop it all there. The
/// block is a receive, woken after every sweep to ask for the next; or,
/// `in_a_collective`, a barrier the root never enters, asleep in one cycle
/// until a word changes ([`scramnet_cluster::des::ProcCtx::scan_until`]).
fn one_world(in_a_collective: bool) {
    const RANKS: usize = 16;
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), RANKS);
    for rank in 0..RANKS {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let data = [7u8; 64];
            mpi.bcast(ctx, &comm, 0, (rank == 0).then_some(&data[..]));
            mpi.barrier(ctx, &comm);
            if rank != 0 {
                if in_a_collective {
                    mpi.barrier(ctx, &comm);
                } else {
                    let _ = mpi.recv(ctx, &comm, Some(0), Some(99));
                }
                unreachable!("rank 0 does nothing more");
            }
        });
    }
    let report = sim.run_until(ms(2));
    assert!(report.is_clean());
    assert!(report.relayed > 1_000, "sweeps were asleep: {report:?}");
    // Some seventy sweeps a rank: a wake-up for each, or none.
    assert_eq!(
        report.handoffs < 500,
        in_a_collective,
        "whole cycles were asleep: {report:?}"
    );
}

#[test]
fn worlds_dropped_mid_sweep_leave_nothing_behind() {
    let _serial = serial();
    // Arrays: a growing `Vec` of readings would be counted too.
    let mut live = [0; 20];
    let mut storage = [(0, 0); 20];
    for nth in 0..20 {
        one_world(nth % 2 == 1);
        live[nth] = LIVE.load(Ordering::SeqCst);
        storage[nth] = bank_storage_allocated();
    }
    // The first worlds warm things that stay (the bank free list itself,
    // lazily initialised runtime state); from the third on, nothing may.
    assert_eq!(
        live[19], live[2],
        "live bytes after each world dropped: {live:?}"
    );
    assert!(
        live[2] < 512 * 1024,
        "what stays is the recycled bank storage: {} bytes",
        live[2]
    );
    assert!(storage[0] > (0, 0), "the first world allocated its banks");
    assert_eq!(
        storage[2], storage[1],
        "the third world allocated a bank page or a page table: {storage:?}"
    );
}

/// A quorum world cut in two at 200 µs for 50 ms, run to a 2 ms horizon
/// while its nodes tick membership until 1 ms: the partition's heal is
/// still queued when the world is dropped. Its ring must go with it.
#[test]
fn a_world_dropped_with_a_heal_still_queued_frees_its_ring() {
    let _serial = serial();
    let plan = FaultPlan::new(42).at(us(200)).partition(1, 4, ms(50));
    let mut sim = Simulation::new();
    let c = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::quorum_for_nodes(5),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(c.ring());
    // The ring holds what it records into: a probe that lives as long as
    // the ring does.
    let ring = Arc::downgrade(&c.ring().record_deliveries(0));
    for rank in 0..5 {
        let mut ep = c.endpoint(rank);
        sim.spawn(format!("n{rank}"), move |ctx| {
            while ctx.now() < ms(1) {
                ep.membership_tick(ctx);
                ctx.advance(us(10));
            }
        });
    }
    let report = sim.run_until(ms(2));
    assert!(report.is_clean(), "{report:?}");
    assert!(c.ring().is_link_broken(1), "the heal is still queued");
    drop(c);
    drop(sim);
    assert!(
        ring.upgrade().is_none(),
        "the dropped world's ring is still alive"
    );
}
