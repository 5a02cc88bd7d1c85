//! RPC over an endpoint in `RecvMode::Interrupt`. An idle server or
//! client cannot sleep through its polls there
//! (`BbpEndpoint::sleep_until_flagged` offers nothing outside polling
//! mode), so `MessageQueue::idle` and `RpcClient::idle` pace themselves
//! by `lead`: every request must still be served and every loop end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig, CreditConfig, RecvMode};
use des::{us, RoundGuard, Simulation, Time};
use rpc::{MessageQueue, Priority, RpcClient, RpcConfig};

const BODY: usize = 32;
const CLIENTS: usize = 2;
const REQUESTS: u64 = 12;

/// What a run served: each client's completed requests, the server's
/// replies, and whether the run ended clean.
struct Served {
    completed: Vec<u64>,
    replied: u64,
    clean: bool,
}

/// One server (rank 0) and two clients, each client sending
/// [`REQUESTS`] requests 60 µs apart and then draining, in the loops a
/// workload cell runs: the idle waits with their round-end guards.
fn serve(mode: RecvMode) -> Served {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(1 + CLIENTS);
    cfg.recv_mode = mode;
    cfg.credit = Some(CreditConfig {
        per_peer: cfg.bufs_per_proc as u32,
        fail_fast: true,
    });
    let cluster = BbpCluster::new(&sim.handle(), cfg);
    let clients_done = Arc::new(AtomicUsize::new(0));
    let drain_deadline: Time = us(60) * (REQUESTS + 10);

    let mut clients = Vec::new();
    for rank in 1..=CLIENTS {
        let ep = cluster.endpoint(rank);
        let clients_done = Arc::clone(&clients_done);
        clients.push(sim.spawn(format!("client{rank}"), move |ctx| {
            let mut cl = RpcClient::new(ep, 0, 1, 4, BODY).unwrap();
            let poll_gap = us(5);
            for i in 0..REQUESTS {
                let at = us(60) * (i + 1);
                let arriving: RoundGuard = Arc::new(move |t| t + poll_gap >= at);
                while ctx.now() + poll_gap < at {
                    cl.idle(ctx, poll_gap, &arriving);
                }
                ctx.wait_until(at);
                cl.poll_replies(ctx);
                cl.try_request(ctx, 0, Priority::Normal, &[i as u8; BODY])
                    .expect("four credits cover a request every 60 us");
            }
            let drained: RoundGuard = Arc::new(move |t| t >= drain_deadline);
            while cl.total_outstanding() > 0 && ctx.now() < drain_deadline {
                cl.idle(ctx, poll_gap, &drained);
            }
            clients_done.fetch_add(1, Ordering::SeqCst);
            cl.stats().completed
        }));
    }

    let done = Arc::clone(&clients_done);
    let stop: RoundGuard = Arc::new(move |_| done.load(Ordering::SeqCst) == CLIENTS);
    let ep = cluster.endpoint(0);
    let mut server = sim.spawn("server", move |ctx| {
        let cfg = RpcConfig {
            pool: 8,
            body_capacity: BODY,
            ..RpcConfig::default()
        };
        let mut mq = MessageQueue::new(ep, cfg);
        loop {
            mq.poll(ctx);
            while let Some(req) = mq.dispatch(ctx) {
                mq.reply(req);
                mq.poll(ctx);
            }
            mq.flush(ctx).expect("reply flush failed");
            let idle = mq.queued() == 0 && mq.in_flight() == 0;
            if clients_done.load(Ordering::SeqCst) == CLIENTS && idle {
                break;
            }
            if !mq.idle(ctx, us(2), &stop) {
                break;
            }
        }
        mq.stats().replied
    });

    let clean = sim.run().is_clean();
    Served {
        completed: clients.iter_mut().filter_map(|c| c.take()).collect(),
        replied: server.take().unwrap_or(0),
        clean,
    }
}

#[test]
fn an_interrupt_mode_server_and_its_clients_serve_everything_and_end() {
    for mode in [RecvMode::Interrupt, RecvMode::Polling] {
        let served = serve(mode);
        assert!(served.clean, "{mode:?}: a process did not end");
        assert_eq!(served.completed, [REQUESTS; CLIENTS], "{mode:?}");
        assert_eq!(served.replied, REQUESTS * CLIENTS as u64, "{mode:?}");
    }
}
