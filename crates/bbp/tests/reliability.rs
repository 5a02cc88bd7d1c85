//! Behavioural and property-based tests of the reliability extension:
//! CRC verification, NACK repair, timeout/retry/backoff bounds, and the
//! no-duplicate / no-reorder guarantee of the sequence layer.

use bbp::{BbpCluster, BbpConfig, BbpError, ReliabilityConfig};
use des::Simulation;
use proptest::prelude::*;

fn reliable_cluster(sim: &Simulation, n: usize, rel: ReliabilityConfig) -> BbpCluster {
    let mut cfg = BbpConfig::for_nodes(n);
    cfg.reliability = Some(rel);
    BbpCluster::new(&sim.handle(), cfg)
}

/// Packets one transmission injects: payload block (if any), descriptor
/// block, MESSAGE flag word.
fn packets_per_tx(payload_len: usize) -> u64 {
    if payload_len > 0 {
        3
    } else {
        2
    }
}

#[test]
fn reliable_round_trip_without_faults() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 2, ReliabilityConfig::default());
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"checked ping").unwrap();
        assert_eq!(a.recv(ctx, 1).unwrap(), b"checked pong");
        assert_eq!(a.stats().retries, 0, "no faults, no retries");
        assert_eq!(a.stats().send_failures, 0);
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"checked ping");
        b.send(ctx, 0, b"checked pong").unwrap();
        assert_eq!(b.stats().corrupt_detected, 0);
        assert_eq!(b.stats().dup_drops, 0);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn send_recovers_from_a_fully_dropped_transmission() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 2, ReliabilityConfig::default());
    let ring = c.ring();
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    // Swallow the whole first transmission (payload + descriptor + flag).
    ring.arm_drop(packets_per_tx(4));
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"lost").unwrap();
        assert!(a.stats().retries >= 1, "the first transmission was dropped");
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"lost");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn send_to_a_bypassed_node_reports_peer_down() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 3, ReliabilityConfig::default());
    let ring = c.ring();
    let mut a = c.endpoint(0);
    ring.bypass_node(1);
    sim.spawn("a", move |ctx| {
        let t0 = ctx.now();
        let err = a.send(ctx, 1, b"into the void").unwrap_err();
        assert_eq!(err, BbpError::PeerDown { peer: 1 });
        assert_eq!(a.stats().send_failures, 1);
        // The retry budget bounds how long the attempt can take
        // (max_send_wait plus per-attempt software/PIO slack).
        let rel = a.config().reliability.clone().unwrap();
        let slack = des::us(20) * u64::from(rel.max_retries + 1);
        assert!(ctx.now() - t0 <= rel.max_send_wait_ns() + slack);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn failed_sends_no_longer_strand_the_partition() {
    // A dead peer used to pin every retry-exhausted buffer forever (the
    // documented limitation in docs/RELIABILITY.md): the slot stayed in
    // flight and the FIFO ring could never advance past it. Now the data
    // space is rolled back as soon as the send fails, and the quarantined
    // descriptor slot is resolved by GC once the peer is seen bypassed.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(3);
    cfg.reliability = Some(ReliabilityConfig {
        // Generous enough for a 240-byte round trip to a live peer, short
        // enough that two exhausted budgets stay under a millisecond.
        ack_timeout_ns: 100_000,
        max_retries: 1,
        ..Default::default()
    });
    cfg.bufs_per_proc = 2;
    cfg.data_words = 64;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let ring = c.ring();
    let mut a = c.endpoint(0);
    ring.bypass_node(1);
    sim.spawn("a", move |ctx| {
        // 60 of 64 data words per failed send: without the rollback the
        // second send could not even allocate, and the send to the live
        // peer would be wedged behind both.
        let payload = [0x5Au8; 240];
        for _ in 0..2 {
            let err = a.send(ctx, 1, &payload).unwrap_err();
            assert_eq!(err, BbpError::PeerDown { peer: 1 });
        }
        // Both descriptor slots are quarantined; this allocation forces a
        // GC sweep, which resolves them against the bypassed peer and
        // recovers the space.
        a.send(ctx, 2, &payload).unwrap();
        assert_eq!(a.stats().failed_slot_reclaims, 2);
        assert_eq!(a.stats().sends, 1);
    });
    let mut b = c.endpoint(2);
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), [0x5Au8; 240]);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn recv_times_out_when_nothing_arrives() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 2, ReliabilityConfig::default());
    let mut b = c.endpoint(1);
    sim.spawn("b", move |ctx| {
        let t0 = ctx.now();
        let err = b.recv(ctx, 0).unwrap_err();
        assert_eq!(
            err,
            BbpError::Timeout {
                peer: 0,
                attempts: 0
            }
        );
        let rel = b.config().reliability.clone().unwrap();
        assert!(ctx.now() - t0 >= rel.recv_timeout_ns);
        assert_eq!(b.stats().recv_timeouts, 1);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn recv_any_times_out_too() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 3, ReliabilityConfig::default());
    let mut b = c.endpoint(2);
    sim.spawn("b", move |ctx| {
        let err = b.recv_any(ctx).unwrap_err();
        assert!(matches!(err, BbpError::Timeout { peer: 0, .. }));
    });
    assert!(sim.run().is_clean());
}

#[test]
fn reliable_multicast_confirms_every_target() {
    let mut sim = Simulation::new();
    let c = reliable_cluster(&sim, 4, ReliabilityConfig::default());
    let ring = c.ring();
    let mut root = c.endpoint(0);
    ring.arm_drop(packets_per_tx(5));
    sim.spawn("root", move |ctx| {
        root.mcast(ctx, &[1, 2, 3], b"group").unwrap();
        assert!(root.stats().retries >= 1);
    });
    for r in 1..4 {
        let mut ep = c.endpoint(r);
        sim.spawn(format!("r{r}"), move |ctx| {
            assert_eq!(ep.recv(ctx, 0).unwrap(), b"group");
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The closed-form latency bound: with `k` whole transmissions
    /// swallowed by the ring, `bbp_Send` finishes within the backoff sum
    /// `Σ ack_timeout·2^i` over the attempts it needed, plus a
    /// per-attempt software/PIO allowance — never the unbounded stall the
    /// paper's protocol would suffer.
    #[test]
    fn send_latency_under_k_losses_is_bounded(
        k in 0u32..=3,
        len in prop_oneof![Just(0usize), 1usize..=64],
    ) {
        // 50 µs comfortably covers the worst-case fault-free round trip at
        // 64 bytes (~30 µs), so every retry observed is a real loss.
        let rel = ReliabilityConfig {
            ack_timeout_ns: 50_000,
            max_retries: 4,
            ..Default::default()
        };
        let mut sim = Simulation::new();
        let c = reliable_cluster(&sim, 2, rel.clone());
        let ring = c.ring();
        let mut a = c.endpoint(0);
        let mut b = c.endpoint(1);
        ring.arm_drop(packets_per_tx(len) * u64::from(k));
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let expect = payload.clone();
        let mut sender = sim.spawn("a", move |ctx| {
            let t0 = ctx.now();
            a.send(ctx, 1, &payload).unwrap();
            (ctx.now() - t0, a.stats().retries)
        });
        sim.spawn("b", move |ctx| {
            let got = b.recv(ctx, 0).unwrap();
            assert_eq!(got, expect, "delivered bytes must be intact");
        });
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        let (took, retries) = sender.take().unwrap();
        prop_assert_eq!(retries, u64::from(k), "exactly one retry per lost transmission");
        // Waits actually incurred: attempts 0..=k time out, attempt k+1
        // succeeds "immediately" (within one timeout window).
        let mut bound: u64 = 0;
        let mut t = rel.ack_timeout_ns;
        for _ in 0..=k {
            bound = bound.saturating_add(t);
            t = t.saturating_mul(2); // the protocol's backoff factor
        }
        bound = bound.saturating_add(t); // the successful attempt's window
        let slack = des::us(20) * u64::from(k + 2); // per-attempt sw/PIO cost
        prop_assert!(
            took <= bound + slack,
            "send took {took} ns with {k} losses; bound {bound} + {slack}"
        );
        prop_assert!(took <= rel.max_send_wait_ns() + des::us(20) * 6,
            "and never beyond the full budget");
    }

    /// Sequence layer: whatever the fault schedule does, the receiver
    /// never sees a duplicate and never sees deliveries out of order
    /// within one sender's stream.
    #[test]
    fn no_duplicates_no_reorder_within_a_sender(
        drop_schedule in proptest::collection::vec((0u64..400, 1u64..=4), 0..6),
    ) {
        const MSGS: u32 = 12;
        let mut sim = Simulation::new();
        let c = reliable_cluster(&sim, 2, ReliabilityConfig::default());
        let ring = c.ring();
        let mut a = c.endpoint(0);
        let mut b = c.endpoint(1);
        let handle = sim.handle();
        // A gremlin arms packet drops at scheduled points in the run.
        for (t_us, n) in drop_schedule {
            let ring = ring.clone();
            handle.schedule_at(des::us(t_us), move |_| ring.arm_drop(n));
        }
        sim.spawn("a", move |ctx| {
            for i in 0..MSGS {
                // A send may time out under heavy loss; mis-delivery and
                // duplication are what must never happen.
                let _ = a.send(ctx, 1, &i.to_le_bytes());
            }
        });
        let mut receiver = sim.spawn("b", move |ctx| {
            let mut delivered = Vec::new();
            for _ in 0..MSGS {
                if let Ok(m) = b.recv(ctx, 0) {
                    delivered.push(u32::from_le_bytes(m.try_into().unwrap()));
                }
            }
            delivered
        });
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        let got = receiver.take().unwrap();
        prop_assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "deliveries must be strictly increasing (no dups, no reorder): {got:?}"
        );
        prop_assert!(got.iter().all(|&i| i < MSGS), "only sent indices delivered");
    }
}
