//! The one reply path (`dispatch → reply → flush`) against the endpoint
//! configurations it reads its behaviour from, and the two inputs the
//! layer refuses typed instead of by panic or by hang: a frame no buffer
//! can take as a request (a runt, or one too long) and an overcommitted
//! client.

use bbp::{BbpCluster, BbpConfig, CreditConfig};
use des::Simulation;
use rpc::{Header, MessageQueue, Priority, RpcClient, RpcConfig, RpcError};

const BODY: usize = 32;

fn queue(ep: bbp::BbpEndpoint, pool: usize) -> MessageQueue {
    MessageQueue::new(
        ep,
        RpcConfig {
            pool,
            body_capacity: BODY,
            max_high_streak: 4,
        },
    )
}

/// Fail-fast credits, one per peer, and a client that stops polling:
/// the first staged reply takes the credit, and the two behind it stay
/// staged — in order, their buffers still out of the pool — until the
/// client's acknowledgements return it.
#[test]
fn replies_behind_a_held_one_survive_the_flush() {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: true,
    });
    let c = BbpCluster::new(&sim.handle(), cfg);
    let (client_ep, server_ep) = (c.endpoint(0), c.endpoint(1));

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 3, BODY).unwrap();
        let mut tokens = Vec::new();
        for i in 0..3u8 {
            // The server's poll acknowledges each request, which returns
            // the one credit for the next.
            tokens.push(
                cl.try_request(ctx, 0, Priority::Normal, &[i; BODY])
                    .unwrap(),
            );
            ctx.advance(des::us(100));
        }
        // Not polling: nothing the server sends is acknowledged.
        ctx.wait_until(des::us(1_000));
        let mut answered = Vec::new();
        while answered.len() < 3 {
            ctx.advance(2_000);
            while let Some((_, frame)) = cl.endpoint_mut().try_recv_any(ctx) {
                let h = Header::decode(&frame).expect("a reply carries a header");
                assert!(h.is_reply);
                assert_eq!(frame[rpc::HEADER_BYTES], !(answered.len() as u8));
                answered.push(h.token);
            }
        }
        assert_eq!(answered, tokens, "replies arrive in request order");
    });

    sim.spawn("server", move |ctx| {
        let mut mq = queue(server_ep, 4);
        while mq.queued() < 3 {
            ctx.advance(2_000);
            mq.poll(ctx);
        }
        while let Some(mut req) = mq.dispatch(ctx) {
            req.body_mut()[0] ^= 0xFF;
            mq.reply(req);
        }
        assert_eq!(mq.staged(), 3);
        assert_eq!(mq.flush(ctx), Ok(1));
        assert_eq!((mq.staged(), mq.in_flight()), (2, 2));
        assert_eq!(mq.stats().replied, 1);
        // The client resumes at 1 ms; each flush after that finds the
        // credit of the reply before it returned, and no more.
        ctx.wait_until(des::us(1_200));
        assert_eq!(mq.flush(ctx), Ok(1));
        assert_eq!((mq.staged(), mq.in_flight()), (1, 1));
        ctx.wait_until(des::us(1_400));
        assert_eq!(mq.flush(ctx), Ok(1));
        assert_eq!((mq.staged(), mq.in_flight()), (0, 0));
        assert_eq!(mq.stats().replied, 3);
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

/// A frame the pool cannot take as a request — too short to carry a
/// header, or longer than a buffer — is a peer's mistake, not the
/// server's: counted, dropped, and the request behind it is served.
fn a_bad_frame_is_counted_not_fatal(frame: &'static [u8]) {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let (client_ep, server_ep) = (c.endpoint(0), c.endpoint(1));

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 2, BODY).unwrap();
        cl.endpoint_mut().send(ctx, 1, frame).unwrap();
        cl.try_request(ctx, 0, Priority::Normal, b"ping").unwrap();
        while cl.stats().completed < 1 {
            ctx.advance(2_000);
            cl.poll_replies(ctx);
        }
    });

    sim.spawn("server", move |ctx| {
        let mut mq = queue(server_ep, 2);
        while mq.stats().replied < 1 {
            ctx.advance(2_000);
            mq.poll(ctx);
            while let Some(req) = mq.dispatch(ctx) {
                assert_eq!(req.body(), b"ping");
                mq.reply(req);
            }
            mq.flush(ctx).unwrap();
        }
        let st = mq.stats();
        assert_eq!((st.malformed, st.polled, st.replied), (1, 1, 1));
        assert_eq!(mq.in_flight(), 0, "its buffer went back to the pool");
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn a_runt_frame_is_counted_not_fatal() {
    a_bad_frame_is_counted_not_fatal(&[1, 2, 3]);
}

#[test]
fn an_oversized_frame_is_counted_not_fatal() {
    a_bad_frame_is_counted_not_fatal(&[7; rpc::HEADER_BYTES + BODY + 1]);
}

/// The one configuration that never terminates cannot be built: grants
/// past the send slots on a transport that waits for credit.
#[test]
fn overcommit_on_a_blocking_transport_is_refused() {
    let sim = Simulation::new();
    let client = |credit: Option<CreditConfig>| {
        let mut cfg = BbpConfig::for_nodes(2);
        cfg.credit = credit;
        let c = BbpCluster::new(&sim.handle(), cfg);
        RpcClient::new(c.endpoint(0), 1, 4, 5, BODY).map(|_| ())
    };
    let refused = Err(RpcError::Overcommit {
        grants: 20,
        slots: 16,
    });
    assert_eq!(client(None), refused);
    let mut credit = CreditConfig {
        per_peer: 16,
        fail_fast: false,
    };
    assert_eq!(client(Some(credit)), refused);
    credit.fail_fast = true;
    assert_eq!(client(Some(credit)), Ok(()));

    // At the slots exactly, a blocking transport is legal.
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    assert!(RpcClient::new(c.endpoint(0), 1, 4, 4, BODY).is_ok());
}

/// With the reliability extension every post is confirmed, so nothing
/// can be deferred: `flush` reads that from the endpoint and sends.
#[test]
fn a_reliable_endpoint_serves_through_reply_and_flush() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::reliable_for_nodes(2));
    let (client_ep, server_ep) = (c.endpoint(0), c.endpoint(1));

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 4, BODY).unwrap();
        // One at a time: a confirmed send returns once the other side
        // has polled, so both sides sending at once would wait on each
        // other.
        for i in 0..3u64 {
            cl.try_request(ctx, 0, Priority::Normal, &[i as u8; 8])
                .unwrap();
            while cl.stats().completed <= i {
                ctx.advance(2_000);
                cl.poll_replies(ctx);
            }
        }
        assert_eq!(cl.stats().unmatched_replies, 0);
    });

    sim.spawn("server", move |ctx| {
        let mut mq = queue(server_ep, 2);
        while mq.stats().replied < 3 {
            ctx.advance(2_000);
            mq.poll(ctx);
            while let Some(mut req) = mq.dispatch(ctx) {
                req.body_mut()[0] ^= 0xFF;
                mq.reply(req);
            }
            mq.flush(ctx).unwrap();
        }
        assert_eq!(mq.in_flight(), 0);
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}
