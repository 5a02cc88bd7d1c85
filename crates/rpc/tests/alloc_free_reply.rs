//! The server's serving path must be zero-copy and zero-allocation once
//! warm: a request is received straight into its pool buffer and the
//! reply is written over it in place, so `poll → dispatch → write reply
//! → reply` touches no heap at all, and `flush` adds nothing beyond what
//! the bare BBP transport itself costs to post the same frames (its
//! first use of a send slot or of a bank page allocates; the RPC layer
//! must add zero on top) — on a blocking transport, and on a fail-fast
//! one where a flush holds a reply back for the next. The client's end
//! of the same cycle is zero-allocation too: a warm `poll_replies`
//! receives each reply into the client's own inbox.
//!
//! Allocation counting uses a wrapping global allocator, so everything
//! runs inside ONE test function — a sibling test on another harness
//! thread would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use bbp::{BbpCluster, BbpConfig, BbpError, CreditConfig};
use des::Simulation;
use rpc::{MessageQueue, Priority, RpcClient, RpcConfig};

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

/// Requests per round. Half the endpoint's send slots, so neither side
/// ever blocks on slot reclamation mid-window.
const N: usize = 8;
const BODY: usize = 32;
/// Send slots per endpoint (`BbpConfig::for_nodes`).
const SLOTS: usize = 16;
/// Round `r` starts at `at(r, 0)`; its requests have all landed by
/// `LANDED` µs, and the server is done with them before `QUIET` µs.
const LANDED: u64 = 1_000;
const QUIET: u64 = 3_000;

fn at(round: u64, us: u64) -> des::Time {
    des::us(round * 5_000 + us)
}

#[test]
fn reply_path_is_alloc_free_after_warmup() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let server_ep = c.endpoint(1);
    let client_ep = c.endpoint(0);

    let (tx, rx) = mpsc::channel::<(u64, u64, u64)>();

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 2 * N as u32, BODY).unwrap();
        for round in 0..2u64 {
            ctx.wait_until(at(round, 0));
            for i in 0..N {
                let class = if i % 3 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                cl.try_request(ctx, 0, class, &[i as u8; BODY]).unwrap();
            }
            // Quiet while the server polls, serves and flushes the round.
            ctx.wait_until(at(round, QUIET));
            while cl.stats().completed < (round + 1) * N as u64 {
                ctx.advance(2_000);
                cl.poll_replies(ctx);
            }
        }
        // Round three is the bare-transport control: the server posts N
        // reply-sized frames outside the RPC layer. They match no pending
        // request, so they surface as unmatched — drain them so every
        // slot ACKs and the run ends clean.
        while cl.stats().unmatched_replies < N as u64 {
            ctx.advance(2_000);
            cl.poll_replies(ctx);
        }
        // Round four: the server fills every send slot, and once those
        // frames are drained here this side goes quiet, so that whatever
        // the server's next post allocates is the server's alone.
        while cl.stats().unmatched_replies < (N + SLOTS) as u64 {
            ctx.advance(2_000);
            cl.poll_replies(ctx);
        }
        ctx.advance(des::us(400));
        while cl.stats().unmatched_replies < (N + SLOTS + 1) as u64 {
            ctx.advance(2_000);
            cl.poll_replies(ctx);
        }
    });

    sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: N,
                body_capacity: BODY,
                max_high_streak: 4,
            },
        );
        for round in 0..2u64 {
            // Every request of the round is on the billboard by now.
            ctx.wait_until(at(round, LANDED));
            let before = ALLOCS.load(Ordering::SeqCst);
            // Take the requests into the pool, dispatch them, write each
            // reply over its request in place and stage it.
            assert_eq!(mq.poll(ctx), N, "one poll takes the round");
            while let Some(mut buf) = mq.dispatch(ctx) {
                let body = buf.body_mut();
                for b in body[..BODY].iter_mut() {
                    *b ^= 0xFF;
                }
                buf.set_body_len(BODY).unwrap();
                mq.reply(buf);
            }
            let staged = ALLOCS.load(Ordering::SeqCst);
            // The transport half: one batched flush, one doorbell.
            mq.flush(ctx).unwrap();
            let flushed = ALLOCS.load(Ordering::SeqCst);
            if round == 1 {
                // Warm now: report the measured windows.
                tx.send((before, staged, flushed)).unwrap();
            }
        }
        // Bare-transport control round: post the same number of frames of
        // the same size straight through BBP, no RPC layer.
        let frame = [0u8; rpc::HEADER_BYTES + BODY];
        let ep = mq.endpoint_mut();
        let ctrl_before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..N {
            ep.post_deferred(ctx, 0, &frame).unwrap();
        }
        ep.ring_all_doorbells(ctx);
        let ctrl_after = ALLOCS.load(Ordering::SeqCst);
        tx.send((ctrl_before, ctrl_after, u64::MAX)).unwrap();
        // Stall round: a post that finds a free slot against one that has
        // to garbage-collect for it. Draining first also warms the sweep.
        while !ep.all_acked(ctx) {
            ctx.advance(2_000);
        }
        let free_before = ALLOCS.load(Ordering::SeqCst);
        ep.send(ctx, 0, &frame).unwrap();
        let free_after = ALLOCS.load(Ordering::SeqCst);
        for _ in 1..SLOTS {
            ep.send(ctx, 0, &frame).unwrap();
        }
        // Every slot is busy and nothing has swept yet. Let the client
        // acknowledge all of them and fall idle, so the next post is the
        // only thing running: it finds no slot, stalls, sweeps, and goes.
        ctx.advance(des::us(200));
        let stalls = ep.stats().send_stalls;
        let stalled_before = ALLOCS.load(Ordering::SeqCst);
        ep.send(ctx, 0, &frame).unwrap();
        let stalled_after = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(ep.stats().send_stalls, stalls + 1, "the extra post stalled");
        tx.send((free_after - free_before, stalled_after - stalled_before, 0))
            .unwrap();
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);

    let (before, staged, flushed) = rx.recv().unwrap();
    let (ctrl_before, ctrl_after, marker) = rx.recv().unwrap();
    assert_eq!(marker, u64::MAX, "rounds reported in order");

    assert_eq!(
        staged - before,
        0,
        "poll → dispatch → in-place reply → stage allocated"
    );
    let rpc_transport = flushed - staged;
    let bare_transport = ctrl_after - ctrl_before;
    assert!(
        rpc_transport <= bare_transport,
        "the RPC flush allocates beyond the bare transport: \
         {rpc_transport} allocs vs {bare_transport} for the same frames"
    );

    // A garbage-collection sweep is bookkeeping over words the NIC reads:
    // however long a post stalls, it allocates what a post allocates.
    let (free_post, stalled_post, _) = rx.recv().unwrap();
    assert_eq!(
        stalled_post, free_post,
        "stalling and sweeping allocated on top of the post itself"
    );

    let (held_stage, held_flushes, held_bare) = held_reply_round();
    assert_eq!(
        held_stage, 0,
        "dispatch → in-place reply → stage allocated on the fail-fast path"
    );
    assert!(
        held_flushes <= held_bare,
        "holding a reply and sending it later allocates beyond the bare \
         transport: {held_flushes} allocs vs {held_bare} for the same posts"
    );

    let (completed, polled) = client_poll_round();
    assert_eq!(completed, N as u64, "the measured polls took the round");
    assert_eq!(
        polled, 0,
        "a warm poll_replies allocated while completing replies"
    );

    // Sanity-check the counter itself so a broken hook cannot fake a pass.
    let live = ALLOCS.load(Ordering::SeqCst);
    std::hint::black_box(Box::new(0x5Cu64));
    assert!(ALLOCS.load(Ordering::SeqCst) > live, "counter is live");
}

/// The client's receive, warm: two rounds of `N` requests, each served
/// and flushed by a server that then sleeps until the next round (and
/// after the last one is done), so the client's `poll_replies` calls run
/// alone. Returns the replies the second round's calls completed and
/// what those calls allocated.
fn client_poll_round() -> (u64, u64) {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let server_ep = c.endpoint(1);
    let client_ep = c.endpoint(0);
    let (tx, rx) = mpsc::channel::<(u64, u64)>();

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 2 * N as u32, BODY).unwrap();
        let (mut completed, mut allocs) = (0, 0);
        for round in 0..2u64 {
            ctx.wait_until(at(round, 0));
            for i in 0..N {
                cl.try_request(ctx, 0, Priority::Normal, &[i as u8; BODY])
                    .unwrap();
            }
            ctx.wait_until(at(round, QUIET));
            while cl.stats().completed < (round + 1) * N as u64 {
                ctx.advance(2_000);
                let before = ALLOCS.load(Ordering::SeqCst);
                let n = cl.poll_replies(ctx) as u64;
                if round == 1 {
                    allocs += ALLOCS.load(Ordering::SeqCst) - before;
                    completed += n;
                }
            }
        }
        tx.send((completed, allocs)).unwrap();
    });

    sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: N,
                body_capacity: BODY,
                max_high_streak: 4,
            },
        );
        for round in 0..2u64 {
            ctx.wait_until(at(round, LANDED));
            assert_eq!(mq.poll(ctx), N, "one poll takes the round");
            while let Some(mut req) = mq.dispatch(ctx) {
                req.set_body_len(BODY).unwrap();
                mq.reply(req);
            }
            mq.flush(ctx).unwrap();
        }
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    rx.recv().unwrap()
}

/// The path the workload campaign runs: fail-fast credits, one per peer,
/// so of two staged replies the first `flush` sends one and holds the
/// other, and the next sends it. The client is quiet inside every
/// measured window. Returns the allocations of (the stage window, the
/// two flushes, the same posts and doorbells straight through BBP).
fn held_reply_round() -> (u64, u64, u64) {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: true,
    });
    let c = BbpCluster::new(&sim.handle(), cfg);
    let server_ep = c.endpoint(1);
    let client_ep = c.endpoint(0);
    let (tx, rx) = mpsc::channel::<(u64, u64, u64)>();
    // Round `r` starts at `r × ROUND`; two RPC rounds (the second is
    // warm) and the bare-transport control.
    const ROUND: u64 = 5_000;
    let at = |round: u64, us: u64| des::us(round * ROUND + us);

    sim.spawn("client", move |ctx| {
        let mut cl = RpcClient::new(client_ep, 1, 1, 2, BODY).unwrap();
        for round in 0..3u64 {
            ctx.wait_until(at(round, 0));
            if round < 2 {
                // The server's poll acknowledges the first request, which
                // is what returns the one credit for the second.
                cl.try_request(ctx, 0, Priority::Normal, &[1; BODY])
                    .unwrap();
                ctx.advance(des::us(100));
                cl.try_request(ctx, 0, Priority::High, &[2; BODY]).unwrap();
            }
            // Quiet across the first flush, take what it sent (the
            // acknowledgement returns the server's credit), quiet across
            // the second, take the reply it had held. In the control
            // round the same two frames arrive matching nothing.
            for quiet_until in [400, 800] {
                ctx.wait_until(at(round, quiet_until));
                let st = cl.stats();
                let seen = st.completed + st.unmatched_replies;
                while cl.stats().completed + cl.stats().unmatched_replies == seen {
                    ctx.advance(2_000);
                    cl.poll_replies(ctx);
                }
            }
        }
        assert_eq!(cl.stats().completed, 4);
        assert_eq!(cl.stats().unmatched_replies, 2);
    });

    sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: 2,
                body_capacity: BODY,
                max_high_streak: 4,
            },
        );
        for round in 0..2u64 {
            while mq.queued() < 2 {
                ctx.advance(2_000);
                mq.poll(ctx);
            }
            let before = ALLOCS.load(Ordering::SeqCst);
            while let Some(mut req) = mq.dispatch(ctx) {
                req.body_mut()[0] ^= 0xFF;
                req.set_body_len(BODY).unwrap();
                mq.reply(req);
            }
            let staged = ALLOCS.load(Ordering::SeqCst);
            assert_eq!(mq.flush(ctx), Ok(1), "one credit, one reply");
            assert_eq!(mq.staged(), 1, "the other is held, not lost");
            let first = ALLOCS.load(Ordering::SeqCst);
            ctx.wait_until(at(round, 600));
            let resumed = ALLOCS.load(Ordering::SeqCst);
            assert_eq!(mq.flush(ctx), Ok(1), "the held reply goes out");
            assert_eq!((mq.staged(), mq.in_flight()), (0, 0));
            let second = ALLOCS.load(Ordering::SeqCst);
            if round == 1 {
                tx.send((staged - before, (first - staged) + (second - resumed), 0))
                    .unwrap();
            }
        }
        // Control: what those two flushes asked of the transport.
        let frame = [0u8; rpc::HEADER_BYTES + BODY];
        let ep = mq.endpoint_mut();
        ctx.wait_until(at(2, 100));
        let before = ALLOCS.load(Ordering::SeqCst);
        ep.post_deferred(ctx, 0, &frame).unwrap();
        assert_eq!(
            ep.post_deferred(ctx, 0, &frame),
            Err(BbpError::NoCredit { peer: 0 })
        );
        ep.ring_all_doorbells(ctx);
        let first = ALLOCS.load(Ordering::SeqCst);
        ctx.wait_until(at(2, 600));
        let resumed = ALLOCS.load(Ordering::SeqCst);
        ep.post_deferred(ctx, 0, &frame).unwrap();
        ep.ring_all_doorbells(ctx);
        let second = ALLOCS.load(Ordering::SeqCst);
        tx.send((0, 0, (first - before) + (second - resumed)))
            .unwrap();
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let (stage, flushes, _) = rx.recv().unwrap();
    let (_, _, bare) = rx.recv().unwrap();
    (stage, flushes, bare)
}
