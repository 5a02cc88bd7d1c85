//! ULFM-style degraded mode on a membership-enabled SCRAMNet world:
//! typed `PeerFailed` / `Revoked` errors, survivor-to-survivor traffic
//! that keeps working, cancellable collectives, and shrink recovery.

use des::{ms, us, Simulation, Time};
use smpi::{MpiError, MpiWorld};

const KILL_AT: Time = us(100);

/// Build a 4-rank membership world and arrange for world rank 3 to die
/// (NIC silenced, process returns) at `KILL_AT`.
fn dying_world(sim: &Simulation) -> MpiWorld {
    let world = MpiWorld::scramnet_membership(&sim.handle(), 4);
    let ring = world.bbp_cluster().expect("scramnet world").ring().clone();
    sim.handle()
        .schedule_at(KILL_AT, move |_| ring.silence_node(3));
    world
}

/// The victim's process: heartbeat until the kill instant, then vanish.
fn victim(mut mpi: smpi::Mpi) -> impl FnOnce(&mut des::ProcCtx) + Send + 'static {
    move |ctx: &mut des::ProcCtx| {
        while ctx.now() < KILL_AT {
            mpi.progress(ctx);
        }
    }
}

/// Drive progress until the local detector has moved past epoch 0.
fn await_detection(ctx: &mut des::ProcCtx, mpi: &mut smpi::Mpi) -> u32 {
    loop {
        let (epoch, _) = mpi.membership().expect("membership world");
        if epoch > 0 {
            return epoch;
        }
        mpi.progress(ctx);
    }
}

#[test]
fn dead_rank_p2p_fails_typed_while_survivors_keep_talking() {
    let mut sim = Simulation::new();
    let world = dying_world(&sim);
    sim.spawn("rank3", victim(world.proc(3)));

    let mut mpi0 = world.proc(0);
    sim.spawn("rank0", move |ctx| {
        let comm = mpi0.comm_world();
        let epoch = await_detection(ctx, &mut mpi0);
        // Talking to the corpse fails typed...
        let err = mpi0.send(ctx, &comm, 3, 7, b"anyone home?").unwrap_err();
        assert_eq!(err, MpiError::PeerFailed { rank: 3, epoch });
        let err = mpi0.irecv(ctx, &comm, Some(3), None).unwrap_err();
        assert_eq!(err, MpiError::PeerFailed { rank: 3, epoch });
        // ...but the world communicator still carries survivor traffic
        // (ULFM: operations not involving the failed process complete).
        mpi0.send(ctx, &comm, 1, 7, b"still here").unwrap();
    });

    let mut mpi1 = world.proc(1);
    sim.spawn("rank1", move |ctx| {
        let comm = mpi1.comm_world();
        await_detection(ctx, &mut mpi1);
        let (st, data) = mpi1.recv(ctx, &comm, Some(0), None).unwrap();
        assert_eq!(st.source, 0);
        assert_eq!(data, b"still here");
    });

    let mut mpi2 = world.proc(2);
    sim.spawn("rank2", move |ctx| {
        let epoch = await_detection(ctx, &mut mpi2);
        let comm = mpi2.comm_world();
        // A probe aimed at the dead rank reports the failure too.
        let err = mpi2.iprobe(ctx, &comm, Some(3), None).unwrap_err();
        assert_eq!(err, MpiError::PeerFailed { rank: 3, epoch });
    });

    assert!(sim.run().is_clean());
}

#[test]
fn collective_entered_before_detection_fails_typed_for_every_live_caller() {
    let mut sim = Simulation::new();
    let world = dying_world(&sim);
    sim.spawn("rank3", victim(world.proc(3)));

    let mut ranks: Vec<_> = (0..3)
        .map(|rank| {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world();
                // Enter the barrier while the detector still believes the
                // whole world is alive: the entry check passes and every
                // survivor blocks inside the coordinator algorithm waiting
                // for rank 3, which will never arrive.
                ctx.wait_until(us(120));
                assert_eq!(mpi.membership().unwrap().0, 0, "entered before detection");
                mpi.try_barrier(ctx, &comm).unwrap_err()
            })
        })
        .collect();

    assert!(sim.run().is_clean());
    // The one-epoch guarantee: every live caller got the same typed
    // failure instead of hanging.
    for rank in &mut ranks {
        assert_eq!(
            rank.take(),
            Some(MpiError::PeerFailed { rank: 3, epoch: 1 })
        );
    }
}

#[test]
fn revoke_interrupts_survivors_and_shrink_rebuilds_the_world() {
    let mut sim = Simulation::new();
    let world = dying_world(&sim);
    sim.spawn("rank3", victim(world.proc(3)));

    // Rank 0 notices the failure first-hand and revokes the world.
    let mut mpi0 = world.proc(0);
    let mut ranks = vec![sim.spawn("rank0", move |ctx| {
        let comm = mpi0.comm_world();
        await_detection(ctx, &mut mpi0);
        mpi0.revoke(ctx, &comm);
        // Revocation is sticky locally as well.
        let err = mpi0.send(ctx, &comm, 1, 7, b"too late").unwrap_err();
        assert!(matches!(err, MpiError::Revoked { .. }));
        recover(ctx, &mut mpi0, 0)
    })];

    // Ranks 1 and 2 learn about the revocation from rank 0's notice.
    for rank in [1usize, 2] {
        let mut mpi = world.proc(rank);
        ranks.push(sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            loop {
                match mpi.iprobe(ctx, &comm, None, None) {
                    Err(MpiError::Revoked { .. }) => break,
                    Err(e) => panic!("unexpected error while polling: {e}"),
                    Ok(_) => mpi.progress(ctx),
                }
            }
            recover(ctx, &mut mpi, rank)
        }));
    }

    /// Shrink, talk on the shrunken world; returns the epoch it ends in.
    fn recover(ctx: &mut des::ProcCtx, mpi: &mut smpi::Mpi, old_rank: usize) -> u32 {
        let comm = mpi.comm_world();
        let shrunk = mpi.shrink(ctx, &comm).expect("survivors shrink");
        // Dense re-ranking: world ranks 0,1,2 keep their order.
        assert_eq!(shrunk.size(), 3);
        assert_eq!(shrunk.rank(), old_rank);
        // The shrunken world runs collectives and p2p like a newborn comm.
        let data = (shrunk.rank() == 0).then_some(&b"regrouped"[..]);
        let out = mpi.try_bcast(ctx, &shrunk, 0, data).expect("bcast works");
        assert_eq!(out, b"regrouped");
        match shrunk.rank() {
            1 => mpi.send(ctx, &shrunk, 2, 9, b"ping").unwrap(),
            2 => {
                let (st, data) = mpi.recv(ctx, &shrunk, Some(1), Some(9)).unwrap();
                assert_eq!((st.source, data.as_slice()), (1, &b"ping"[..]));
            }
            _ => {}
        }
        mpi.try_barrier(ctx, &shrunk).expect("shrunken barrier");
        mpi.membership().unwrap().0
    }

    assert!(sim.run().is_clean());
    let epochs: Vec<u32> = ranks.iter_mut().filter_map(|r| r.take()).collect();
    assert_eq!(epochs.len(), 3);
    assert!(epochs.iter().all(|&e| e == epochs[0] && e > 0));
}

#[test]
fn detectorless_worlds_treat_degraded_calls_as_plain_ones() {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 2);
    for rank in 0..2 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            assert!(mpi.membership().is_none());
            let comm = mpi.comm_world();
            mpi.try_barrier(ctx, &comm).expect("plain barrier");
            let data = (rank == 0).then_some(&b"hi"[..]);
            assert_eq!(mpi.try_bcast(ctx, &comm, 0, data).unwrap(), b"hi");
            // Shrink of a healthy detector-less world is the identity.
            let same = mpi.shrink(ctx, &comm).unwrap();
            assert_eq!(same.size(), 2);
            mpi.barrier(ctx, &same);
        });
    }
    assert!(sim.run().is_clean());
}

#[test]
fn plain_barrier_fails_loudly_when_a_member_dies_mid_collective() {
    let mut sim = Simulation::new();
    let world = dying_world(&sim);
    sim.spawn("rank3", victim(world.proc(3)));
    for rank in 0..3 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            ctx.wait_until(us(120));
            assert_eq!(mpi.membership().unwrap().0, 0, "entered before detection");
            mpi.barrier(ctx, &comm);
        });
    }
    // The plain call has no error to return, so it must not outlive the
    // failure either: the typed error ends the run by name. (A horizon,
    // because the alternative to a panic is survivors polling forever.)
    let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until(ms(20))));
    let panic = ended.expect_err("a survivor must panic, not hang or complete");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("barrier"), "{message}");
    assert!(
        message.contains("PeerFailed { rank: 3, epoch: 1 }"),
        "{message}"
    );
}

#[test]
fn try_barrier_honours_the_communicators_collective_impl() {
    // Spans of the channel packet path vs the device multicast tell the
    // binomial algorithm from the coordinator one.
    fn spans(coll: smpi::CollectiveImpl) -> (usize, usize) {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let world = MpiWorld::scramnet_membership(&sim.handle(), 4);
        for rank in 0..4 {
            let mut mpi = world.proc(rank);
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let comm = mpi.comm_world().with_collectives(coll);
                mpi.try_barrier(ctx, &comm).expect("healthy world");
            });
        }
        assert!(sim.run().is_clean());
        let events = sim.recorder().take_events();
        let entered = |name| {
            let is = |e: &&des::obs::Event| matches!(e, des::obs::Event::SpanEnter { name: n, .. } if *n == name);
            events.iter().filter(is).count()
        };
        (entered("packet_tx"), entered("frame_mcast"))
    }
    // Coordinator: three nulls up (raw frames, no channel packet), one
    // multicast down. Binomial on four ranks: three empty packets up,
    // three down, no multicast.
    assert_eq!(spans(smpi::CollectiveImpl::Native), (0, 1));
    assert_eq!(spans(smpi::CollectiveImpl::PointToPoint), (6, 0));
}
