//! RPC echo: N clients hammer one server through the zero-copy
//! request/reply layer.
//!
//! Each client opens a few channels with a small credit grant and posts
//! echo requests (a mix of high and normal priority); the server
//! dispatches them through one `MessageQueue`, writes the reply over the
//! request buffer *in place*, and flushes batches with one doorbell per
//! destination. At the end the example prints the p50/p99/p999 service
//! latency and the credit-stall counters that show the backpressure
//! actually engaged.
//!
//! Run with: `cargo run --release --example rpc_echo`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scramnet_cluster::bbp::{BbpCluster, BbpConfig, CreditConfig};
use scramnet_cluster::des::{self, Simulation};
use scramnet_cluster::obs::LogHistogram;
use scramnet_cluster::rpc::{MessageQueue, Priority, RpcClient, RpcConfig};

const CLIENTS: usize = 6;
const CHANNELS: u32 = 8;
const CREDITS: u32 = 4;
const REQUESTS_PER_CLIENT: usize = 400;
const BODY: usize = 48;

fn main() {
    let mut sim = Simulation::new();
    let nodes = CLIENTS + 1;
    let mut cfg = BbpConfig::for_nodes(nodes);
    cfg.bufs_per_proc = 32;
    cfg.data_words = 8192;
    // Fail-fast transport credits: a saturated client sheds at the send
    // gate instead of stalling inside the transport.
    cfg.credit = Some(CreditConfig {
        per_peer: cfg.bufs_per_proc as u32,
        fail_fast: true,
    });
    let cluster = BbpCluster::new(&sim.handle(), cfg);

    // Clients finished so far, which the server reads to know when to stop.
    let done = Arc::new(AtomicUsize::new(0));

    // Each client returns its counters and its service histogram.
    let mut clients = Vec::with_capacity(CLIENTS);
    for client in 1..=CLIENTS {
        let ep = cluster.endpoint(client);
        let done = Arc::clone(&done);
        clients.push(sim.spawn(format!("client{client}"), move |ctx| {
            let mut cl = RpcClient::new(ep, 0, CHANNELS, CREDITS, BODY)
                .expect("a fail-fast transport takes any grant");
            let mut body = [0u8; BODY];
            for i in 0..REQUESTS_PER_CLIENT {
                let ch = (i as u32) % CHANNELS;
                // Every fifth request is latency-critical.
                let class = if i % 5 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                };
                body[0] = i as u8;
                let _ = cl.try_request(ctx, ch, class, &body);
                // Three quarters of the run is paced below the server's
                // capacity; the last quarter bursts well past it, so the
                // credit gates visibly engage.
                let gap = if i < REQUESTS_PER_CLIENT * 3 / 4 {
                    des::us(200)
                } else {
                    des::us(10)
                };
                ctx.advance(gap);
                cl.poll_replies(ctx);
            }
            // Drain everything still in flight.
            while cl.total_outstanding() > 0 {
                ctx.advance(des::us(20));
                cl.poll_replies(ctx);
            }
            done.fetch_add(1, Ordering::SeqCst);
            (cl.stats(), cl.service_hist())
        }));
    }

    let server_ep = cluster.endpoint(0);
    let done_server = Arc::clone(&done);
    let mut server = sim.spawn("server", move |ctx| {
        let mut mq = MessageQueue::new(
            server_ep,
            RpcConfig {
                pool: 32,
                body_capacity: BODY,
                max_high_streak: 4,
            },
        );
        loop {
            mq.poll(ctx);
            while let Some(mut req) = mq.dispatch(ctx) {
                // Echo: flip every body byte in place — the reply reuses
                // the request buffer, no copy, no allocation.
                for b in req.body_mut().iter_mut() {
                    *b = !*b;
                }
                let n = req.body().len();
                req.set_body_len(n).expect("an echo fits its own buffer");
                mq.reply(req);
            }
            mq.flush(ctx).expect("reply flush failed");
            if done_server.load(Ordering::SeqCst) == CLIENTS
                && mq.queued() == 0
                && mq.in_flight() == 0
            {
                break;
            }
            ctx.advance(des::us(5));
        }
        (mq.stats(), mq.endpoint().stats().clone())
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);

    let (latency, (mut sent, mut completed, mut shed)) = (LogHistogram::new(), (0, 0, 0));
    for (st, hist) in clients
        .iter_mut()
        .map(|c| c.take().expect("client reported"))
    {
        sent += st.sent;
        completed += st.completed;
        shed += st.shed + st.transport_shed;
        latency.merge(&hist);
    }
    let (qs, es) = server.take().expect("server reported");
    println!("== rpc echo: {CLIENTS} clients x {CHANNELS} channels -> 1 server ==");
    println!("  requests: {sent} sent, {completed} completed, {shed} shed at credit gates");
    println!("\n  service latency (request post -> matched reply)");
    println!("    p50   {:>8.1} µs", latency.quantile(0.50) as f64 / 1e3);
    println!("    p99   {:>8.1} µs", latency.quantile(0.99) as f64 / 1e3);
    println!("    p999  {:>8.1} µs", latency.quantile(0.999) as f64 / 1e3);
    println!("\n  server queue");
    println!(
        "    {} dispatched ({} high / {} normal), max residency {} of 32 buffers",
        qs.dispatched, qs.high_dispatched, qs.normal_dispatched, qs.max_residency
    );
    println!("\n  backpressure counters");
    println!("    server credit stalls       {}", es.credit_stalls);
    println!(
        "    server flag writes saved   {}",
        es.flag_writes_coalesced
    );
    assert_eq!(completed, sent, "every accepted request must complete");
}
