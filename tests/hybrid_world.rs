//! The hybrid SCRAMNet+Myrinet world (paper §7's concluding direction):
//! correctness under mixed small/large traffic where frames split across
//! two physical networks, and the best-of-both performance envelope.

use scramnet_cluster::des::{SimHandle, Simulation, Time, TimeExt};
use scramnet_cluster::smpi::{MpiWorld, ReduceOp, ANY_SOURCE};

const THRESHOLD: usize = 1024;

#[test]
fn mixed_size_traffic_keeps_mpi_ordering() {
    // Alternating small (fast path) and large (bulk path) messages with
    // the same tag: MPI's non-overtaking rule must survive the split.
    let mut sim = Simulation::new();
    let world = MpiWorld::hybrid(&sim.handle(), 2, THRESHOLD);
    let mut tx = world.proc(0);
    let mut rx = world.proc(1);
    sim.spawn("tx", move |ctx| {
        let comm = tx.comm_world();
        for i in 0..20u32 {
            // Even i: 16-byte message; odd i: 4-KB message.
            let len = if i % 2 == 0 { 16 } else { 4096 };
            let mut payload = vec![(i % 251) as u8; len];
            payload[0..4].copy_from_slice(&i.to_le_bytes());
            tx.send(ctx, &comm, 1, 5, &payload).unwrap();
        }
    });
    sim.spawn("rx", move |ctx| {
        let comm = rx.comm_world();
        for i in 0..20u32 {
            let (_, m) = rx.recv(ctx, &comm, Some(0), Some(5)).unwrap();
            let got = u32::from_le_bytes(m[0..4].try_into().unwrap());
            assert_eq!(got, i, "hybrid split broke FIFO ordering");
            let want_len = if i % 2 == 0 { 16 } else { 4096 };
            assert_eq!(m.len(), want_len);
        }
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn collectives_work_on_the_hybrid_world() {
    let mut sim = Simulation::new();
    let world = MpiWorld::hybrid(&sim.handle(), 4, THRESHOLD);
    for rank in 0..4 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            let data = (mpi.rank() == 2).then_some(&[9u8; 100][..]);
            let out = mpi.bcast(ctx, &comm, 2, data);
            assert_eq!(out, vec![9u8; 100]);
            let s = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[1.0, 2.0]);
            assert_eq!(s, vec![4.0, 8.0]);
            mpi.barrier(ctx, &comm);
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

/// One-way MPI latency on a world built by `build`.
fn one_way_us(build: impl Fn(&SimHandle) -> MpiWorld, len: usize) -> f64 {
    let mut sim = Simulation::new();
    let world = build(&sim.handle());
    let payload = vec![1u8; len];
    let mut tx = world.proc(0);
    let mut rx = world.proc(1);
    sim.spawn("tx", move |ctx| {
        let comm = tx.comm_world();
        tx.send(ctx, &comm, 1, 0, &payload).unwrap();
    });
    let mut rx = sim.spawn("rx", move |ctx| {
        let comm = rx.comm_world();
        let _ = rx.recv(ctx, &comm, Some(0), Some(0)).unwrap();
        ctx.now()
    });
    let report = sim.run();
    assert!(report.is_clean());
    rx.take().unwrap().as_us()
}

#[test]
fn hybrid_tracks_scramnet_for_small_messages() {
    let hybrid = one_way_us(|h| MpiWorld::hybrid(h, 2, THRESHOLD), 4);
    let scramnet = one_way_us(|h| MpiWorld::scramnet(h, 2), 4);
    // The 5-byte sequencing wrapper costs a little; it must stay small.
    assert!(
        (hybrid - scramnet).abs() < 0.15 * scramnet,
        "hybrid {hybrid:.1} µs should track SCRAMNet {scramnet:.1} µs for short messages"
    );
}

#[test]
fn hybrid_beats_pure_scramnet_for_bulk_messages() {
    let hybrid = one_way_us(|h| MpiWorld::hybrid(h, 2, THRESHOLD), 16 * 1024);
    let scramnet = one_way_us(|h| MpiWorld::scramnet(h, 2), 16 * 1024);
    assert!(
        hybrid < scramnet / 2.0,
        "hybrid {hybrid:.1} µs should be far below pure SCRAMNet {scramnet:.1} µs at 16 KB"
    );
}

#[test]
fn a_broadcast_past_the_scramnet_frame_falls_back_to_point_to_point() {
    // A multicast rides SCRAMNet whatever its size. The hybrid's BBP
    // partition carries 65 532 B, less the 5-byte hybrid wrapper and the
    // 64-byte channel header: 65 463 B is the largest native broadcast,
    // and one byte more goes out as root-driven point-to-point sends.
    for len in [65_463, 65_464] {
        let mut sim = Simulation::new();
        let world = MpiWorld::hybrid(&sim.handle(), 4, THRESHOLD);
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        for rank in 0..4 {
            let mut mpi = world.proc(rank);
            let payload = payload.clone();
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                let data = (rank == 1).then_some(&payload[..]);
                let out = mpi.bcast(ctx, &comm, 1, data);
                assert!(
                    out == payload,
                    "{len}-byte broadcast corrupted at rank {rank}"
                );
            });
        }
        let report = sim.run();
        assert!(
            report.is_clean(),
            "{len} B: deadlocked: {:?}",
            report.deadlocked
        );
    }
}

/// Bulk frames from three sources waiting at one rank: ranks 1–3 each
/// send two 8 KB messages to rank 0, rank `r` starting `(3 − r) × 100` ns
/// late, and rank 0 takes them with six any-source receives. Every
/// payload arrives intact and each source's two in the order sent; the
/// sources and completion instants are pinned.
#[test]
fn bulk_frames_from_several_sources_arrive_intact_and_in_per_source_order() {
    const LEN: usize = 8 * 1024;
    let payload = |src: usize, i: usize| -> Vec<u8> {
        (0..LEN)
            .map(|k| (k * 7 + src * 31 + i * 101) as u8)
            .collect()
    };
    let mut sim = Simulation::new();
    let world = MpiWorld::hybrid(&sim.handle(), 4, THRESHOLD);
    for r in 1..4 {
        let mut tx = world.proc(r);
        sim.spawn(format!("rank{r}"), move |ctx| {
            ctx.advance((3 - r) as Time * 100);
            let comm = tx.comm_world();
            for i in 0..2 {
                tx.send(ctx, &comm, 0, 7, &payload(r, i)).unwrap();
            }
        });
    }
    let mut rx = world.proc(0);
    let mut rank0 = sim.spawn("rank0", move |ctx| {
        let comm = rx.comm_world();
        let mut next = [0; 4];
        let mut done: Vec<(usize, Time)> = Vec::new();
        for _ in 0..6 {
            let (st, m) = rx.recv(ctx, &comm, ANY_SOURCE, Some(7)).unwrap();
            assert!(
                m == payload(st.source, next[st.source]),
                "message {} from rank {} corrupted or out of order",
                next[st.source],
                st.source
            );
            next[st.source] += 1;
            done.push((st.source, ctx.now()));
        }
        assert_eq!(next, [0, 2, 2, 2]);
        done
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    // The API port takes the waiting frames in arrival order: rank 3,
    // which starts first, then 2, then 1.
    assert_eq!(
        rank0.take().unwrap(),
        [
            (3, 812_272),
            (2, 1_140_144),
            (1, 1_468_016),
            (3, 1_795_888),
            (2, 2_123_760),
            (1, 2_451_632),
        ]
    );
}
