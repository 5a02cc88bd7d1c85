//! Integration tests of the membership-and-failure-detection extension:
//! heartbeat-driven detection, deterministic view agreement, the
//! detection → bypass effect chain, and the full rejoin protocol.
//! The multi-seed kill/stall/rejoin campaign lives in `chaos_soak.rs`;
//! these are the focused single-scenario checks.

use bbp::{BbpCluster, BbpConfig, MembershipView, PeerHealth};
use des::{ms, us, Simulation};

const NODES: usize = 4;

/// Run a survivor's progress loop: membership ticks every `step` until
/// `end`. Returns every view transition it observed.
fn survivor_loop(
    ep: &mut bbp::BbpEndpoint,
    ctx: &mut des::ProcCtx,
    end: des::Time,
    step: des::Time,
) -> Vec<MembershipView> {
    let mut history = Vec::new();
    loop {
        ep.membership_tick(ctx);
        note(
            &mut history,
            ep.membership_view().expect("membership is on"),
        );
        if ctx.now() >= end {
            return history;
        }
        ctx.advance(step);
    }
}

/// Append `v` to `history` if it is a transition.
fn note(history: &mut Vec<MembershipView>, v: MembershipView) {
    if history.last() != Some(&v) {
        history.push(v);
    }
}

#[test]
fn silenced_node_is_detected_and_survivors_converge() {
    let mut sim = Simulation::new();
    let config = BbpConfig::membership_for_nodes(NODES);
    let c = BbpCluster::new(&sim.handle(), config);
    let ring = c.ring().clone();
    let kill_at = us(100);
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(kill_at, move |_| r.silence_node(3));
    }
    // The victim ticks until the crash, then stops executing.
    let mut victim = c.endpoint(3);
    sim.spawn("n3", move |ctx| {
        while ctx.now() < kill_at {
            victim.membership_tick(ctx);
            ctx.advance(us(10));
        }
    });
    let end = ms(2);
    let mut survivors: Vec<_> = (0..3)
        .map(|rank| {
            let mut ep = c.endpoint(rank);
            sim.spawn(format!("n{rank}"), move |ctx| {
                let history = survivor_loop(&mut ep, ctx, end, us(10));
                let last = (ep.membership_view().unwrap(), ep.peer_health(3).unwrap());
                (history, last)
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let (h, finals): (Vec<_>, Vec<_>) = survivors.iter_mut().map(|s| s.take().unwrap()).unzip();
    for (rank, &(view, health)) in finals.iter().enumerate() {
        assert_eq!(
            view,
            MembershipView {
                epoch: 1,
                alive_mask: 0b0111
            },
            "survivor {rank} converged on the post-kill view"
        );
        assert_eq!(health, PeerHealth::Dead);
    }
    // Every survivor observed the same transition sequence...
    assert_eq!(h[0], h[1]);
    assert_eq!(h[1], h[2]);
    assert_eq!(h[0].len(), 2, "epoch 0 then epoch 1, nothing else");
    // ...and detection's hardware effect: the dead node's hop is bypassed
    // (the ring healed), which no one asked for directly — it is an
    // effect of the failure detector declaring it dead.
    assert!(ring.is_bypassed(3));
}

#[test]
fn frozen_heartbeats_suspect_but_do_not_kill() {
    // A node that stops publishing for a window between suspect_after and
    // dead_after is Suspected by everyone (observable, no action) and
    // recovers to Alive once its heartbeats resume: no epoch bump, no
    // bypass, anywhere — including from the frozen node's own view.
    let mut sim = Simulation::new();
    let config = BbpConfig::membership_for_nodes(NODES);
    let c = BbpCluster::new(&sim.handle(), config);
    let ring = c.ring().clone();
    let end = ms(2);
    // Rank 3 freezes (stops ticking) during [100 µs, 400 µs): a 300 µs
    // silence, past suspect_after (200 µs) but short of dead_after (600 µs).
    let mut frozen = c.endpoint(3);
    sim.spawn("n3", move |ctx| {
        loop {
            if ctx.now() >= end {
                break;
            }
            if ctx.now() >= us(100) && ctx.now() < us(400) {
                ctx.advance(us(10));
                continue;
            }
            frozen.membership_tick(ctx);
            ctx.advance(us(10));
        }
        assert_eq!(frozen.membership_view().unwrap().epoch, 0);
    });
    let mut survivors: Vec<_> = (0..3)
        .map(|rank| {
            let mut ep = c.endpoint(rank);
            sim.spawn(format!("n{rank}"), move |ctx| {
                while ctx.now() < end {
                    ep.membership_tick(ctx);
                    ctx.advance(us(10));
                }
                assert_eq!(ep.stats().deaths, 0, "rank {rank} must not declare death");
                assert_eq!(ep.stats().epoch_bumps, 0);
                assert_eq!(
                    ep.membership_view().unwrap(),
                    MembershipView {
                        epoch: 0,
                        alive_mask: 0b1111
                    }
                );
                assert_eq!(ep.peer_health(3).unwrap(), PeerHealth::Alive, "recovered");
                ep.stats().suspicions
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let suspicions: u64 = survivors.iter_mut().map(|s| s.take().unwrap()).sum();
    assert!(suspicions >= 3, "every survivor suspected the frozen node");
    assert!(!ring.is_bypassed(3), "suspicion takes no hardware action");
}

#[test]
fn killed_node_rejoins_in_a_new_epoch_and_exchanges_traffic() {
    let mut sim = Simulation::new();
    let config = BbpConfig::membership_for_nodes(NODES);
    let c = BbpCluster::new(&sim.handle(), config);
    let ring = c.ring().clone();
    let kill_at = us(100);
    let reboot_at = us(1_500);
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(kill_at, move |_| r.silence_node(3));
    }
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(reboot_at, move |_| r.unsilence_node(3));
    }
    let end = ms(4);
    // The crashed incarnation.
    let mut victim = c.endpoint(3);
    sim.spawn("n3", move |ctx| {
        while ctx.now() < kill_at {
            victim.membership_tick(ctx);
            ctx.advance(us(10));
        }
    });
    // The replacement incarnation: a fresh endpoint for the same rank
    // (minted ahead of time — BbpEndpoint::new does no PIO), booting
    // after the reboot and driving the rejoin protocol.
    let mut reborn = c.endpoint(3);
    let mut rejoined = sim.spawn("n3-reborn", move |ctx| {
        ctx.wait_until(reboot_at + us(10));
        let view = reborn.rejoin(ctx, ms(2)).expect("readmission converges");
        // Verified traffic in the new epoch, both directions.
        reborn.send(ctx, 0, b"back from the dead").unwrap();
        assert_eq!(reborn.recv(ctx, 0).unwrap(), b"welcome back");
        // Keep heartbeating, or the detector will (correctly) kill this
        // incarnation too.
        while ctx.now() < end {
            reborn.membership_tick(ctx);
            ctx.advance(us(10));
        }
        assert_eq!(reborn.membership_view().unwrap().epoch, 2);
        view
    });
    // Rank 0 (the coordinator) runs the progress loop, answers the
    // rejoiner's message, and keeps ticking to the end.
    let mut ep0 = c.endpoint(0);
    sim.spawn("n0", move |ctx| {
        let mut greeted = false;
        while ctx.now() < end {
            ep0.membership_tick(ctx);
            if let Some(msg) = ep0.try_recv(ctx, 3) {
                assert_eq!(msg, b"back from the dead");
                assert!(!greeted, "delivered exactly once");
                greeted = true;
                ep0.send(ctx, 3, b"welcome back").unwrap();
            }
            ctx.advance(us(10));
        }
        assert!(greeted, "the rejoiner's message arrived");
        assert_eq!(
            ep0.membership_view().unwrap(),
            MembershipView {
                epoch: 2,
                alive_mask: 0b1111
            },
            "kill bumped to epoch 1, readmission to epoch 2"
        );
    });
    for rank in 1..3 {
        let mut ep = c.endpoint(rank);
        sim.spawn(format!("n{rank}"), move |ctx| {
            while ctx.now() < end {
                ep.membership_tick(ctx);
                ctx.advance(us(10));
            }
            assert_eq!(
                ep.membership_view().unwrap(),
                MembershipView {
                    epoch: 2,
                    alive_mask: 0b1111
                }
            );
            assert_eq!(ep.peer_health(3).unwrap(), PeerHealth::Alive);
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let view = rejoined.take().expect("rejoin completed");
    assert_eq!(view.alive_mask, 0b1111);
    assert_eq!(view.epoch, 2);
    assert!(!ring.is_bypassed(3), "rejoin reinserted the node's hop");
}

#[test]
fn coordinator_death_during_suspicion_hands_off_without_epoch_churn() {
    // The flapping scenario: rank 3 goes silent long enough to be
    // Suspected (but not Dead) while the coordinator — rank 0, the one
    // node entitled to propose views — is killed in the middle of that
    // suspicion window. The next-lowest survivor (rank 1) must take
    // over and propose exactly one view bump (excluding rank 0, keeping
    // the recovered rank 3), with no duplicate and no skipped epoch
    // anywhere: coordinator handoff must not double-propose, and a
    // suspicion that never matures must not leak into a view.
    let mut sim = Simulation::new();
    let config = BbpConfig::membership_for_nodes(NODES);
    let c = BbpCluster::new(&sim.handle(), config);
    let ring = c.ring().clone();
    let kill_at = us(250); // inside rank 3's [100 µs, 400 µs) stall
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(kill_at, move |_| r.silence_node(0));
    }
    let end = ms(2);
    // The doomed coordinator ticks until its crash.
    let mut coord = c.endpoint(0);
    sim.spawn("n0", move |ctx| {
        while ctx.now() < kill_at {
            coord.membership_tick(ctx);
            ctx.advance(us(10));
        }
    });
    // Rank 3: stalls through [100 µs, 400 µs) — Suspected by everyone
    // right as the coordinator dies — then resumes and recovers.
    let mut flappy = c.endpoint(3);
    let mut flapper = sim.spawn("n3", move |ctx| {
        let mut history = Vec::new();
        while ctx.now() < end {
            if ctx.now() >= us(100) && ctx.now() < us(400) {
                ctx.advance(us(10));
                continue;
            }
            flappy.membership_tick(ctx);
            note(&mut history, flappy.membership_view().unwrap());
            ctx.advance(us(10));
        }
        assert_eq!(
            flappy.stats().epoch_bumps,
            1,
            "rank 3 applied exactly the one committed transition"
        );
        history
    });
    let mut survivors: Vec<_> = (1..3)
        .map(|rank| {
            let mut ep = c.endpoint(rank);
            sim.spawn(format!("n{rank}"), move |ctx| {
                let history = survivor_loop(&mut ep, ctx, end, us(10));
                (
                    history,
                    ep.membership_view().unwrap(),
                    ep.stats().epoch_bumps,
                )
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let survivors: Vec<_> = survivors.iter_mut().map(|s| s.take().unwrap()).collect();
    for (rank, (_, view, _)) in (1..).zip(&survivors) {
        assert_eq!(
            *view,
            MembershipView {
                epoch: 1,
                alive_mask: 0b1110
            },
            "survivor {rank}: one bump, rank 0 out, the flapper kept"
        );
    }
    // epoch_bumps counts *applied* view transitions: one per survivor
    // means the handed-off coordinator proposed exactly once and nobody
    // double-proposed during the flap.
    let bumps: u64 = survivors.iter().map(|s| s.2).sum();
    assert_eq!(bumps, 2, "one transition per surviving adopter");
    // Identical histories with no duplicate and no skipped epoch: every
    // node saw epoch 0 then epoch 1, nothing else.
    let (h1, h2, h3) = (&survivors[0].0, &survivors[1].0, flapper.take().unwrap());
    assert_eq!(h1, h2);
    assert_eq!(*h2, h3);
    assert_eq!(h1.len(), 2, "no flapping in the committed history");
    assert!(ring.is_bypassed(0), "the dead coordinator's hop is healed");
    assert!(!ring.is_bypassed(3), "suspicion alone never bypasses");
}

#[test]
fn rejoin_racing_a_view_change_lands_in_the_next_committed_view() {
    // Rank 3 is killed and excluded (epoch 1); later it rejoins at the
    // same moment rank 2 is killed — the readmission races the death of
    // another member. Wherever the proposals interleave, the committed
    // history must stay linear (one mask per epoch, everywhere) and
    // everyone must converge on the view with rank 3 in and rank 2 out.
    let mut sim = Simulation::new();
    let config = BbpConfig::membership_for_nodes(NODES);
    let c = BbpCluster::new(&sim.handle(), config);
    let ring = c.ring().clone();
    let kill3_at = us(100);
    let reboot_at = us(1_500);
    let kill2_at = us(1_550); // mid-rejoin of rank 3
    for (at, node) in [(kill3_at, 3usize), (kill2_at, 2usize)] {
        let r = ring.clone();
        sim.handle().schedule_at(at, move |_| r.silence_node(node));
    }
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(reboot_at, move |_| r.unsilence_node(3));
    }
    let end = ms(4);
    // The two doomed incarnations tick until their kills.
    for (rank, kill_at) in [(3usize, kill3_at), (2usize, kill2_at)] {
        let mut victim = c.endpoint(rank);
        sim.spawn(format!("n{rank}"), move |ctx| {
            while ctx.now() < kill_at {
                victim.membership_tick(ctx);
                ctx.advance(us(10));
            }
        });
    }
    // Rank 3's replacement incarnation: drives the rejoin protocol
    // while the cluster is mid-way through excluding rank 2, then keeps
    // ticking and recording like any member.
    let mut reborn = c.endpoint(3);
    let mut rejoined = sim.spawn("n3-reborn", move |ctx| {
        ctx.wait_until(reboot_at + us(10));
        let view = reborn.rejoin(ctx, ms(2)).expect("readmission converges");
        let mut history = Vec::new();
        while ctx.now() < end {
            reborn.membership_tick(ctx);
            note(&mut history, reborn.membership_view().unwrap());
            ctx.advance(us(10));
        }
        (view, history)
    });
    let mut survivors: Vec<_> = (0..2)
        .map(|rank| {
            let mut ep = c.endpoint(rank);
            sim.spawn(format!("n{rank}"), move |ctx| {
                let history = survivor_loop(&mut ep, ctx, end, us(10));
                (history, ep.membership_view().unwrap())
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    // The rejoiner was admitted into a view that contains it and
    // postdates its exclusion.
    let (admitted, h3) = rejoined.take().expect("rejoin completed");
    assert!(admitted.is_alive(3), "readmission view contains the joiner");
    assert!(admitted.epoch >= 2, "readmission postdates the exclusion");
    // Everyone converged on rank-3-in / rank-2-out.
    let (mut h, finals): (Vec<_>, Vec<_>) = survivors.iter_mut().map(|s| s.take().unwrap()).unzip();
    let reference = finals[0];
    assert_eq!(reference.alive_mask, 0b1011, "rank 3 in, rank 2 out");
    assert_eq!(finals[1], reference);
    // Linear history: across every view any rank ever held (including
    // both of rank 3's incarnations), one epoch maps to one mask.
    h.push(h3);
    let mut epoch_masks = std::collections::HashMap::new();
    for hist in h.iter() {
        for v in hist {
            let prev = epoch_masks.insert(v.epoch, v.alive_mask);
            assert!(
                prev.is_none_or(|m| m == v.alive_mask),
                "epoch {} seen with two masks: {prev:?} vs {:#b}",
                v.epoch,
                v.alive_mask
            );
        }
    }
    assert_eq!(
        h[2].last(),
        Some(&reference),
        "the rejoiner tracked the racing exclusion to the same final view"
    );
    assert!(ring.is_bypassed(2), "the racing death still got its bypass");
    assert!(!ring.is_bypassed(3), "rejoin reinserted the node's hop");
}

#[test]
fn membership_off_touches_neither_time_nor_state() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::reliable_for_nodes(2));
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        let t0 = ctx.now();
        a.membership_tick(ctx);
        assert_eq!(ctx.now(), t0, "tick must be a complete no-op");
        assert_eq!(a.membership_view(), None);
        assert_eq!(a.peer_health(1), None);
    });
    assert!(sim.run().is_clean());
}
