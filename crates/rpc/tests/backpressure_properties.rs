//! Property-based tests of the RPC layer's backpressure and priority
//! discipline:
//!
//! 1. **Credit safety** — for arbitrary interleavings of requests,
//!    service, and reply draining, a channel's outstanding requests
//!    never exceed its credit grant; the excess is shed with the typed
//!    error, never silently queued.
//! 2. **Bounded starvation** — under sustained high-priority load with
//!    normal-priority work waiting, the queue never dispatches more than
//!    `max_high_streak` consecutive high-priority requests.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use bbp::{BbpCluster, BbpConfig};
use des::Simulation;
use rpc::{MessageQueue, Priority, RpcClient, RpcConfig, RpcError};

/// One step of a client-side plan.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Try one request on `channel` with the given class.
    Request { channel: u8, high: bool },
    /// Let the simulation run and drain replies.
    Drain { advance_us: u16 },
}

fn op_strategy(channels: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..channels, any::<bool>()).prop_map(|(channel, high)| Op::Request { channel, high }),
        (0..channels, any::<bool>()).prop_map(|(channel, high)| Op::Request { channel, high }),
        (0..channels, any::<bool>()).prop_map(|(channel, high)| Op::Request { channel, high }),
        (1..200u16).prop_map(|advance_us| Op::Drain { advance_us }),
    ]
}

/// Run a plan against a live server and check the credit invariant
/// after every step.
fn check_credit_safety(channels: u8, credits: u32, ops: Vec<Op>) {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.bufs_per_proc = 32;
    cfg.data_words = 8192;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let server_ep = c.endpoint(1);
    let client_ep = c.endpoint(0);

    let (tx, rx) = mpsc::channel::<(u64, u64)>();
    let done = Arc::new(AtomicBool::new(false));
    let done_server = Arc::clone(&done);

    sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: 64,
                body_capacity: 32,
                max_high_streak: 4,
            },
        );
        loop {
            mq.poll(ctx);
            while let Some(mut buf) = mq.dispatch(ctx) {
                buf.body_mut()[0] ^= 0xFF;
                mq.reply(buf);
            }
            mq.flush(ctx).unwrap();
            if done_server.load(Ordering::SeqCst) && mq.in_flight() == 0 {
                break;
            }
            ctx.advance(2_000);
        }
    });

    let requests = ops
        .iter()
        .filter(|o| matches!(o, Op::Request { .. }))
        .count() as u64;
    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, channels as u32, credits, 32).unwrap();
        // A body past the buffer capacity is refused typed, before it
        // takes a credit or counts as shed.
        assert_eq!(
            cl.try_request(ctx, 0, Priority::Normal, &[0; 33]),
            Err(RpcError::BodyTooLarge { len: 33, max: 32 })
        );
        assert_eq!(cl.outstanding(0), 0);
        for op in &ops {
            match *op {
                Op::Request { channel, high } => {
                    let class = if high {
                        Priority::High
                    } else {
                        Priority::Normal
                    };
                    let r = cl.try_request(ctx, channel as u32, class, &[channel; 8]);
                    if let Err(e) = &r {
                        // Only credit exhaustion may shed; anything else
                        // would hide a transport bug.
                        assert!(
                            matches!(e, RpcError::OutOfCredit { .. }),
                            "unexpected error: {e}"
                        );
                        assert_eq!(
                            cl.outstanding(channel as u32),
                            cl.credits(channel as u32),
                            "shed while below the grant"
                        );
                    }
                }
                Op::Drain { advance_us } => {
                    ctx.advance(des::us(advance_us as u64));
                    cl.poll_replies(ctx);
                }
            }
            // THE invariant: no interleaving pushes a channel past its
            // grant.
            for ch in 0..channels as u32 {
                assert!(
                    cl.outstanding(ch) <= cl.credits(ch),
                    "channel {ch}: {} outstanding > grant {}",
                    cl.outstanding(ch),
                    cl.credits(ch)
                );
            }
        }
        // Drain to quiescence: every accepted request completes.
        let mut spins = 0;
        while cl.total_outstanding() > 0 && spins < 10_000 {
            ctx.advance(des::us(50));
            cl.poll_replies(ctx);
            spins += 1;
        }
        assert_eq!(cl.total_outstanding(), 0, "accepted requests leaked");
        let st = cl.stats();
        assert_eq!(st.completed, st.sent, "every accepted request completed");
        tx.send((st.sent, st.shed)).unwrap();
        done.store(true, Ordering::SeqCst);
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let (sent, shed) = rx.recv().unwrap();
    assert_eq!(sent + shed, requests, "every request accounted for");
}

/// Saturate the queue with both classes and count consecutive
/// high-priority dispatches while normal work waits.
fn check_bounded_starvation(max_high_streak: u32, rounds: u16) {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.bufs_per_proc = 32;
    cfg.data_words = 8192;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let server_ep = c.endpoint(1);
    let client_ep = c.endpoint(0);

    let (tx, rx) = mpsc::channel::<u32>();
    let done = Arc::new(AtomicBool::new(false));
    let done_server = Arc::clone(&done);

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 2, 12, 16).unwrap();
        // A standing pool of normal requests, then sustained
        // high-priority pressure, interleaved so the server's high queue
        // never runs dry while normal work waits.
        for _ in 0..8 {
            let _ = cl.try_request(ctx, 0, Priority::Normal, b"n");
        }
        for _ in 0..rounds {
            for _ in 0..4 {
                let _ = cl.try_request(ctx, 1, Priority::High, b"h");
            }
            ctx.advance(des::us(20));
            cl.poll_replies(ctx);
            let _ = cl.try_request(ctx, 0, Priority::Normal, b"n");
        }
        let mut spins = 0;
        while cl.total_outstanding() > 0 && spins < 10_000 {
            ctx.advance(des::us(50));
            cl.poll_replies(ctx);
            spins += 1;
        }
        assert_eq!(cl.total_outstanding(), 0, "requests leaked");
        done.store(true, Ordering::SeqCst);
    });

    sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: 64,
                body_capacity: 16,
                max_high_streak,
            },
        );
        let mut worst_streak = 0u32;
        let mut streak = 0u32;
        loop {
            mq.poll(ctx);
            loop {
                // Only streaks that actually starve someone count: a high
                // dispatch with the normal queue empty is simply
                // work-conserving, and breaks any running streak.
                let normal_waiting = mq.queued_normal() > 0;
                let Some(mut buf) = mq.dispatch(ctx) else {
                    break;
                };
                if buf.header().priority == Priority::High && normal_waiting {
                    streak += 1;
                    worst_streak = worst_streak.max(streak);
                } else {
                    streak = 0;
                }
                buf.body_mut()[0] = 0xAA;
                buf.set_body_len(1).unwrap();
                mq.reply(buf);
                // Re-poll so freshly arrived high requests contend with
                // the queued normal ones — the starvation scenario.
                mq.poll(ctx);
            }
            mq.flush(ctx).unwrap();
            if done_server.load(Ordering::SeqCst) && mq.in_flight() == 0 {
                break;
            }
            ctx.advance(2_000);
        }
        let st = mq.stats();
        assert!(st.normal_dispatched > 0, "normal class fully starved");
        tx.send(worst_streak).unwrap();
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let worst = rx.recv().unwrap();
    assert!(
        worst <= max_high_streak,
        "normal class starved for {worst} consecutive dispatches \
         (bound {max_high_streak})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn outstanding_never_exceeds_the_grant(
        channels in 1..4u8,
        credits in 1..6u32,
        ops in proptest::collection::vec(op_strategy(4), 1..120),
    ) {
        // Ops may name channels >= `channels`; clamp into range so every
        // plan is valid.
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Request { channel, high } => Op::Request {
                    channel: channel % channels,
                    high,
                },
                drain => drain,
            })
            .collect();
        check_credit_safety(channels, credits, ops);
    }

    #[test]
    fn high_priority_streaks_are_bounded(
        max_high_streak in 1..8u32,
        rounds in 8..40u16,
    ) {
        check_bounded_starvation(max_high_streak, rounds);
    }
}
