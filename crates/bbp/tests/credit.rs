//! Behavioural tests of the credit-based flow-control extension and the
//! deferred-doorbell batching: grants debit per post, return on the ACK
//! side channel, are eagerly refunded when a retry-exhausted slot is
//! reclaimed (a dead peer must not strand a channel's credit), and
//! deferred posts to one receiver coalesce into a single flag write.

use bbp::{BbpCluster, BbpConfig, BbpError, CreditConfig, ReliabilityConfig};
use des::Simulation;

fn credited_cluster(sim: &Simulation, n: usize, per_peer: u32, fail_fast: bool) -> BbpCluster {
    let mut cfg = BbpConfig::for_nodes(n);
    cfg.credit = Some(CreditConfig {
        per_peer,
        fail_fast,
    });
    BbpCluster::new(&sim.handle(), cfg)
}

#[test]
fn credits_return_on_a_normal_round_trip() {
    let mut sim = Simulation::new();
    let c = credited_cluster(&sim, 2, 4, false);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        assert_eq!(a.send_credits(1), Some(4));
        for i in 0..3u8 {
            a.send(ctx, 1, &[i; 16]).unwrap();
        }
        // Three posts debited three credits; the receiver's ACK toggles
        // refund them through GC.
        while !a.all_acked(ctx) {
            ctx.advance(1_000);
        }
        assert_eq!(a.send_credits(1), Some(4), "all credits returned");
        assert_eq!(a.stats().credit_stalls, 0, "grant of 4 never exhausted");
        assert_eq!(a.stats().no_credit_failures, 0);
    });
    sim.spawn("b", move |ctx| {
        for i in 0..3u8 {
            assert_eq!(b.recv(ctx, 0).unwrap(), vec![i; 16]);
        }
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn out_of_credit_sender_blocks_until_the_ack_returns_one() {
    let mut sim = Simulation::new();
    let c = credited_cluster(&sim, 2, 1, false);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"first").unwrap();
        // The grant is one: this send must stall in the GC loop until
        // the receiver's ACK toggle refunds the credit.
        a.send(ctx, 1, b"second").unwrap();
        assert!(a.stats().credit_stalls >= 1, "the grant was exhausted");
    });
    sim.spawn("b", move |ctx| {
        // Hold the credit hostage for a while before draining.
        ctx.advance(des::us(50));
        assert_eq!(b.recv(ctx, 0).unwrap(), b"first");
        assert_eq!(b.recv(ctx, 0).unwrap(), b"second");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn fail_fast_out_of_credit_is_typed() {
    let mut sim = Simulation::new();
    let c = credited_cluster(&sim, 2, 1, true);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"granted").unwrap();
        // Fail-fast mode surfaces exhaustion immediately instead of
        // blocking — the typed backpressure signal the RPC client sheds
        // load on.
        let err = a.send(ctx, 1, b"rejected").unwrap_err();
        assert_eq!(err, BbpError::NoCredit { peer: 1 });
        assert_eq!(a.stats().no_credit_failures, 1);
        // Once the receiver drains and the ACK returns the credit, the
        // channel works again.
        while !a.all_acked(ctx) {
            ctx.advance(1_000);
        }
        assert_eq!(a.send_credits(1), Some(1));
        a.send(ctx, 1, b"granted again").unwrap();
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"granted");
        assert_eq!(b.recv(ctx, 0).unwrap(), b"granted again");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn repeated_multicast_target_debits_nothing() {
    // With a grant of one, debiting a repeated target twice underflowed
    // the ledger (a panic in debug builds, a wrapped balance in release).
    let mut sim = Simulation::new();
    let c = credited_cluster(&sim, 3, 1, false);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        assert_eq!(
            a.mcast(ctx, &[1, 1], b"twice"),
            Err(BbpError::BadDestination { dst: 1 })
        );
        assert_eq!(a.send_credits(1), Some(1), "no credit was debited");
        a.send(ctx, 1, b"once").unwrap();
        assert_eq!(a.send_credits(1), Some(0));
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"once");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn dead_peer_cannot_strand_a_channels_credit() {
    // Regression test for the eager credit return in `reclaim_failed`:
    // a retry-exhausted send toward a bypassed peer must refund its
    // credit *when the slot is reclaimed*, not when the quarantined slot
    // eventually resolves. With a grant of one, a second send toward the
    // dead peer would otherwise stall the full reliability deadline and
    // surface as `Timeout` instead of `PeerDown` — and a send to a live
    // peer sharing the endpoint would inherit the stall.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(3);
    cfg.reliability = Some(ReliabilityConfig {
        ack_timeout_ns: 100_000,
        max_retries: 1,
        ..Default::default()
    });
    cfg.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: false,
    });
    cfg.bufs_per_proc = 2;
    cfg.data_words = 64;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let ring = c.ring();
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(2);
    ring.bypass_node(1);
    sim.spawn("a", move |ctx| {
        let payload = [0x5Au8; 240];
        for round in 1..=2u64 {
            let err = a.send(ctx, 1, &payload).unwrap_err();
            assert_eq!(err, BbpError::PeerDown { peer: 1 });
            assert_eq!(
                a.send_credits(1),
                Some(1),
                "the failed slot's credit came back with the reclaim"
            );
            assert_eq!(a.stats().credits_reclaimed, round);
        }
        // Exactly the grant, never more: the tainted-resolution sweep
        // must not refund the same credit a second time.
        while !a.all_acked(ctx) {
            ctx.advance(1_000);
        }
        assert_eq!(a.send_credits(1), Some(1));
        // The live peer's channel is unaffected throughout.
        assert_eq!(a.send_credits(2), Some(1));
        a.send(ctx, 2, &payload).unwrap();
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), vec![0x5Au8; 240]);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn deferred_posts_coalesce_into_one_doorbell() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for i in 0..3u8 {
            a.post_deferred(ctx, 1, &[i; 8]).unwrap();
        }
        // Nothing pending anywhere else: only dst 1's doorbell rings.
        let covered = a.ring_all_doorbells(ctx);
        assert_eq!(covered, 3, "one doorbell covered the whole batch");
        assert_eq!(a.stats().flag_writes_coalesced, 2, "two flag writes saved");
        // Ringing again with nothing pending is free.
        assert_eq!(a.ring_doorbell(ctx, 1), 0);
    });
    sim.spawn("b", move |ctx| {
        // Per-sender FIFO order survives the batching.
        for i in 0..3u8 {
            assert_eq!(b.recv(ctx, 0).unwrap(), vec![i; 8]);
        }
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn immediate_post_flushes_deferred_toggles() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.post_deferred(ctx, 1, b"deferred").unwrap();
        // The immediate send writes the whole flag word, publishing the
        // deferred toggle with it; the doorbell then has nothing to do.
        a.send(ctx, 1, b"immediate").unwrap();
        assert_eq!(a.ring_doorbell(ctx, 1), 0);
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"deferred");
        assert_eq!(b.recv(ctx, 0).unwrap(), b"immediate");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}
