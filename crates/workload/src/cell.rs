//! The cell executor: one [`WorkloadPlan`] at one load multiplier, run
//! to completion on a fresh simulated ring. Servers run
//! `rpc::MessageQueue` loops, client nodes replay their precomputed
//! arrival streams through `rpc::RpcClient` channels, and the optional
//! MPI sidecar ranks ride the same billboard. The executor checks every
//! per-cell invariant (no deadlock, full drain, source fairness, both
//! priority classes progressing, sidecar completion; bounded queue
//! residency through [`cell_health_spec`]) and reports violations as
//! strings rather than panicking — a violated cell still produces its
//! flight dump and its repro line.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig, CreditConfig};
use des::{ms, us, Simulation, Time};
use obs::LogHistogram;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpc::{MessageQueue, Priority, RpcClient, RpcConfig};
use smpi::{CollectiveImpl, Device, Mpi, SmpiCosts, Tag};

use crate::plan::{Sidecar, WorkloadPlan};

/// Transport buffers per rank (and the fail-fast credit grant per peer).
/// Sidecar floods must stay at or below this bound: the MPI device
/// treats a fail-fast `NoCredit` as a configuration bug, so the flood
/// size is capped where the transport can always absorb it.
pub const BUFS_PER_PROC: usize = 32;

/// What the MPI flood sidecar observed.
#[derive(Debug, Clone, Copy)]
pub struct FloodOutcome {
    /// High-water mark of the floodee's unexpected queue.
    pub peak: usize,
    /// Unexpected-queue residency after every receive completed.
    pub final_residency: usize,
    /// Flood messages received bit-exact.
    pub delivered: u32,
}

/// Everything one cell produces.
#[derive(Debug)]
pub struct CellOutcome {
    /// Requests accepted by the transport.
    pub sent: u64,
    /// Requests completing with a matched reply.
    pub completed: u64,
    /// Arrivals shed at the channel-credit gate.
    pub shed: u64,
    /// Sends shed by the transport's fail-fast credit gate.
    pub transport_shed: u64,
    /// Scripted arrivals the plan offered (shed or not).
    pub offered: u64,
    /// Service latency (post → matched reply), nanoseconds.
    pub service: LogHistogram,
    /// Server queue residency (arrival → dispatch), nanoseconds.
    pub residency: LogHistogram,
    /// High-water mark of buffers in use across every server.
    pub max_residency: usize,
    /// Dispatches by class, summed over servers.
    pub high_dispatched: u64,
    /// Dispatches by class, summed over servers.
    pub normal_dispatched: u64,
    /// Completed requests per client node (fairness evidence).
    pub per_node_completed: Vec<u64>,
    /// Requests still outstanding when the drain deadline hit.
    pub undrained: u64,
    /// The flood sidecar's observation, if the plan carried one.
    pub flood: Option<FloodOutcome>,
    /// Ping-pong rounds completed, if the plan carried that sidecar.
    pub pingpong_rounds: Option<u32>,
    /// Virtual time the arrival script covered, nanoseconds.
    pub elapsed_ns: Time,
    /// Invariant violations, empty when the cell is healthy. Includes
    /// the health-monitor findings (also listed separately below).
    pub violations: Vec<String>,
    /// What the declarative health monitor found on the sampled gauge
    /// series — the residency and flood-parking invariants, which
    /// [`cell_health_spec`] alone judges.
    pub health_violations: Vec<String>,
    /// The cell's sampled gauge series, for ad-hoc health specs over a
    /// finished cell or for reading a capacity knee (EXPERIMENTS.md,
    /// "Reading a capacity knee from the occupancy series").
    pub telemetry: Vec<obs::SeriesSnapshot>,
    /// What the cell's simulation reported: its dispatches, the steps
    /// relayed for a sleeping process and the thread hand-offs among them.
    pub run: des::RunReport,
}

impl CellOutcome {
    /// Completed requests per second of scripted virtual time.
    pub fn throughput_hz(&self) -> f64 {
        self.completed as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// Offered arrivals per second of scripted virtual time.
    pub fn offered_hz(&self) -> f64 {
        self.offered as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// Sheds (channel + transport gates) per second of scripted time.
    pub fn sheds_per_sec(&self) -> f64 {
        (self.shed + self.transport_shed) as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// Fraction of offered arrivals shed, 0–1.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed + self.transport_shed) as f64 / self.offered as f64
        }
    }

    /// p999 service latency in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.service.quantile(0.999) as f64 / 1_000.0
    }
}

/// Per-client aggregate counters: (sent, completed, shed,
/// transport_shed, high attempts, normal attempts).
type ClientTotals = (u64, u64, u64, u64, u64, u64);

/// Run one cell to completion (arrival script + drain) under load
/// multiplier `mult`. `label` names the cell's flight recording, which
/// is dumped only if the cell violates something. Deterministic for a
/// fixed (plan, mult).
pub fn run_cell(plan: &WorkloadPlan, mult: f64, label: &str) -> CellOutcome {
    assert!(
        plan.client_nodes >= 1,
        "a cell needs at least one client node"
    );
    assert!(!plan.windows.is_empty(), "a cell needs at least one window");
    if let Sidecar::UnexpectedFlood { messages, .. } = plan.sidecar {
        assert!(
            messages as usize <= BUFS_PER_PROC,
            "flood must fit the transport's fail-fast credit grant"
        );
    }

    let nprocs = plan.nprocs();
    let mut bbp = BbpConfig::for_nodes(nprocs);
    bbp.bufs_per_proc = BUFS_PER_PROC;
    // Slots must fit the larger of the RPC frame and the MPI sidecar's
    // eager channel packet (24-byte header + body).
    let frame_words = (rpc::HEADER_BYTES + plan.body_bytes).div_ceil(4) + 8;
    bbp.data_words = (bbp.bufs_per_proc * frame_words)
        .next_power_of_two()
        .max(4096);
    bbp.credit = Some(CreditConfig {
        per_peer: bbp.bufs_per_proc as u32,
        fail_fast: true,
    });

    let mut sim = Simulation::new();
    let flight = obs::FlightGuard::new(label.to_string(), sim.recorder_arc());
    // Continuous telemetry: every layer samples its gauges (buffer
    // residency, queue depths, unexpected parks, …) for the whole cell;
    // the health monitor evaluates the sampled series after the run.
    sim.recorder().telemetry().enable();
    let cluster = BbpCluster::new(&sim.handle(), bbp);

    let end = plan.windows_end();
    let drain_deadline = end + ms(60);
    let hard_stop = drain_deadline + ms(10);

    let service_out = Arc::new(LogHistogram::new());
    let totals: Arc<Mutex<ClientTotals>> = Arc::new(Mutex::new((0, 0, 0, 0, 0, 0)));
    let per_node: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; plan.client_nodes]));
    let undrained = Arc::new(AtomicU32::new(0));
    let clients_done = Arc::new(AtomicUsize::new(0));

    // --- client nodes: ranks servers..servers+client_nodes ------------
    for node_idx in 0..plan.client_nodes {
        let rank = plan.servers + node_idx;
        let ep = cluster.endpoint(rank);
        let plan = plan.clone();
        let service_out = Arc::clone(&service_out);
        let totals = Arc::clone(&totals);
        let per_node = Arc::clone(&per_node);
        let undrained = Arc::clone(&undrained);
        let clients_done = Arc::clone(&clients_done);
        sim.spawn(format!("client{node_idx}"), move |ctx| {
            // The full arrival script of every channel this node hosts,
            // merged in (time, channel) order. Precomputing makes the
            // stream independent of how requests interleave at runtime.
            let mut events: Vec<(Time, u32)> = Vec::new();
            for ch in 0..plan.channels_per_node {
                for at in plan.channel_arrivals(node_idx, ch, mult) {
                    events.push((at, ch));
                }
            }
            events.sort_unstable();

            let mut rng = StdRng::seed_from_u64(
                plan.seed() ^ (node_idx as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            );
            let mut cl = RpcClient::new(
                ep,
                plan.server_of(node_idx),
                plan.channels_per_node,
                plan.credits_per_channel,
                plan.body_bytes,
            )
            .expect("a fail-fast transport takes any grant");
            let body = vec![0xC3u8; plan.body_bytes];
            let (mut high, mut normal) = (0u64, 0u64);
            let poll_gap = us(20);
            for &(at, ch) in &events {
                // Poll while waiting for the next scripted arrival so
                // measured latency is service + transport, not an
                // artifact of the arrival cadence.
                while ctx.now() + poll_gap < at {
                    ctx.advance(poll_gap);
                    cl.poll_replies(ctx);
                }
                if at > ctx.now() {
                    ctx.wait_until(at);
                }
                cl.poll_replies(ctx);
                let class = if rng.gen_range(0u32..100) < plan.high_share_pct {
                    high += 1;
                    Priority::High
                } else {
                    normal += 1;
                    Priority::Normal
                };
                // Open loop: shed outcomes are counted inside the
                // client; the script marches on regardless.
                let _ = cl.try_request(ctx, ch, class, &body);
            }
            while cl.total_outstanding() > 0 && ctx.now() < drain_deadline {
                ctx.advance(us(20));
                cl.poll_replies(ctx);
            }
            undrained.fetch_add(cl.total_outstanding(), Ordering::SeqCst);
            service_out.merge(&cl.service_hist());
            let st = cl.stats();
            per_node.lock()[node_idx] = st.completed;
            let mut t = totals.lock();
            t.0 += st.sent;
            t.1 += st.completed;
            t.2 += st.shed;
            t.3 += st.transport_shed;
            t.4 += high;
            t.5 += normal;
            clients_done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // --- servers: ranks 0..servers ------------------------------------
    // (max_residency, high_dispatched, normal_dispatched) per server,
    // plus the merged residency histogram.
    let server_stats: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let residency_out = Arc::new(LogHistogram::new());
    for s in 0..plan.servers {
        let ep = cluster.endpoint(s);
        let plan_s = plan.clone();
        let server_stats = Arc::clone(&server_stats);
        let residency_out = Arc::clone(&residency_out);
        let clients_done = Arc::clone(&clients_done);
        let n_clients = plan.client_nodes;
        sim.spawn(format!("server{s}"), move |ctx| {
            let mut rng =
                StdRng::seed_from_u64(plan_s.seed() ^ 0x5EC7_0A11u64.wrapping_add(s as u64));
            let mut dispatched: u64 = 0;
            let mut mq = MessageQueue::new(
                ep,
                RpcConfig {
                    pool: plan_s.pool,
                    body_capacity: plan_s.body_bytes,
                    max_high_streak: plan_s.max_high_streak,
                },
            );
            loop {
                mq.poll(ctx);
                while let Some(mut req) = mq.dispatch(ctx) {
                    ctx.advance(plan_s.service.sample(&mut rng, dispatched));
                    dispatched += 1;
                    let n = req.body().len();
                    req.set_body_len(n).expect("an echo fits its own buffer");
                    mq.reply(req);
                    mq.poll(ctx);
                }
                // Under overload a hot server can outrun the ACK path of
                // a single peer; on this fail-fast transport replies to
                // a credit-exhausted peer stay staged until the credits
                // return.
                mq.flush(ctx).expect("reply flush failed");
                if clients_done.load(Ordering::SeqCst) == n_clients
                    && mq.queued() == 0
                    && mq.in_flight() == 0
                {
                    break;
                }
                // Past the hard stop the clients have stopped polling,
                // so held replies can never flush: bail out and let the
                // undrained-client invariant report the loss.
                if ctx.now() >= hard_stop {
                    break;
                }
                ctx.advance(us(2));
            }
            let st = mq.stats();
            residency_out.merge(&mq.residency_hist());
            server_stats
                .lock()
                .push((st.max_residency, st.high_dispatched, st.normal_dispatched));
        });
    }

    // --- MPI sidecar: the two top ranks -------------------------------
    let flood_out: Arc<Mutex<Option<FloodOutcome>>> = Arc::new(Mutex::new(None));
    let pingpong_done = Arc::new(AtomicU32::new(0));
    match plan.sidecar {
        Sidecar::None => {}
        Sidecar::UnexpectedFlood {
            messages,
            prepost,
            at,
            post_delay,
        } => {
            let prepost = prepost.min(messages);
            let body = plan.body_bytes;
            let floodee_rank = nprocs - 2;
            let flooder_rank = nprocs - 1;

            let ep = cluster.endpoint(flooder_rank);
            sim.spawn("flooder", move |ctx| {
                let mut mpi = sidecar_mpi(ep);
                let comm = mpi.comm_world();
                ctx.wait_until(at);
                for i in 0..messages {
                    let payload = flood_payload(i, body);
                    mpi.send(ctx, &comm, floodee_rank, i as Tag, &payload)
                        .expect("flood send failed");
                }
            });

            let ep = cluster.endpoint(floodee_rank);
            let flood_out = Arc::clone(&flood_out);
            sim.spawn("floodee", move |ctx| {
                let mut mpi = sidecar_mpi(ep);
                let comm = mpi.comm_world();
                // Only the first `prepost` receives race the flood; the
                // rest of the messages must park unexpectedly.
                let early: Vec<_> = (0..prepost)
                    .map(|i| {
                        mpi.irecv(ctx, &comm, Some(flooder_rank), Some(i as Tag))
                            .expect("prepost irecv failed")
                    })
                    .collect();
                let post_at = at + post_delay;
                while ctx.now() < post_at {
                    mpi.progress(ctx);
                }
                let peak = mpi.adi().unexpected_peak();
                let late: Vec<_> = (prepost..messages)
                    .map(|i| {
                        mpi.irecv(ctx, &comm, Some(flooder_rank), Some(i as Tag))
                            .expect("late irecv failed")
                    })
                    .collect();
                let mut delivered = 0u32;
                for (i, req) in early.into_iter().chain(late).enumerate() {
                    let (status, data) = mpi.wait_recv(ctx, &comm, req);
                    if status.source == flooder_rank && data == flood_payload(i as u32, body) {
                        delivered += 1;
                    }
                }
                // The ADI samples its queue depth only on park and claim,
                // and a flood the RPC load delays past the late receives
                // parks nothing (512-byte bodies at x1 and above): the
                // closing sample gives the park and drain rules of
                // `cell_health_spec` the final state to judge even then.
                let final_residency = mpi.adi().unexpected_len();
                ctx.obs().gauge(
                    ctx.now(),
                    floodee_rank as u32,
                    "adi.unexpected_len",
                    final_residency as u64,
                );
                *flood_out.lock() = Some(FloodOutcome {
                    peak,
                    final_residency,
                    delivered,
                });
            });
        }
        Sidecar::PingPong { rounds } => {
            let body = plan.body_bytes;
            let ponger_rank = nprocs - 2;
            let pinger_rank = nprocs - 1;

            let ep = cluster.endpoint(ponger_rank);
            sim.spawn("ponger", move |ctx| {
                let mut mpi = sidecar_mpi(ep);
                let comm = mpi.comm_world();
                for r in 0..rounds {
                    let (_, data) = mpi
                        .recv(ctx, &comm, Some(pinger_rank), Some(r as Tag))
                        .expect("pong recv failed");
                    mpi.send(ctx, &comm, pinger_rank, r as Tag, &data)
                        .expect("pong send failed");
                }
            });

            let ep = cluster.endpoint(pinger_rank);
            let pingpong_done = Arc::clone(&pingpong_done);
            sim.spawn("pinger", move |ctx| {
                let mut mpi = sidecar_mpi(ep);
                let comm = mpi.comm_world();
                let body = vec![0x5Au8; body];
                for r in 0..rounds {
                    mpi.send(ctx, &comm, ponger_rank, r as Tag, &body)
                        .expect("ping send failed");
                    let (_, echo) = mpi
                        .recv(ctx, &comm, Some(ponger_rank), Some(r as Tag))
                        .expect("ping recv failed");
                    if echo == body {
                        pingpong_done.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    }

    let report = sim.run();
    let telemetry = sim.recorder().telemetry().snapshot();
    sim.recorder().telemetry().disable();

    let (sent, completed, shed, transport_shed, high_offered, normal_offered) = *totals.lock();
    let per_node_completed = per_node.lock().clone();
    let offered: u64 = (0..plan.client_nodes)
        .map(|n| {
            (0..plan.channels_per_node)
                .map(|c| plan.channel_arrivals(n, c, mult).len() as u64)
                .sum::<u64>()
        })
        .sum();
    let stats = server_stats.lock();
    let max_residency = stats.iter().map(|s| s.0).max().unwrap_or(0);
    let high_dispatched: u64 = stats.iter().map(|s| s.1).sum();
    let normal_dispatched: u64 = stats.iter().map(|s| s.2).sum();
    drop(stats);

    let mut out = CellOutcome {
        sent,
        completed,
        shed,
        transport_shed,
        offered,
        service: {
            let h = LogHistogram::new();
            h.merge(&service_out);
            h
        },
        residency: {
            let h = LogHistogram::new();
            h.merge(&residency_out);
            h
        },
        max_residency,
        high_dispatched,
        normal_dispatched,
        per_node_completed,
        undrained: undrained.load(Ordering::SeqCst) as u64,
        flood: *flood_out.lock(),
        pingpong_rounds: match plan.sidecar {
            Sidecar::PingPong { .. } => Some(pingpong_done.load(Ordering::SeqCst)),
            _ => None,
        },
        elapsed_ns: end,
        violations: Vec::new(),
        health_violations: Vec::new(),
        telemetry,
        run: report,
    };

    // --- per-cell invariants ------------------------------------------
    let mut v = Vec::new();
    if !out.run.is_clean() {
        v.push(format!("deadlock: {:?}", out.run.deadlocked));
    }
    if out.undrained > 0 {
        v.push(format!(
            "undrained: {} accepted requests never completed",
            out.undrained
        ));
    }
    // Fairness across sources: symmetric nodes pinned to the same
    // server must complete within a 4x band of each other.
    let hot_span = if plan.hot_nodes > 0 {
        plan.hot_nodes
    } else if plan.servers == 1 {
        plan.client_nodes
    } else {
        0
    };
    if hot_span >= 2 {
        let group = &out.per_node_completed[..hot_span];
        let min = *group.iter().min().unwrap();
        let max = *group.iter().max().unwrap();
        if max >= 32 && min * 4 < max {
            v.push(format!(
                "fairness: completions per source span {min}..{max} at one server"
            ));
        }
    }
    // Both priority classes make progress whenever both were offered in
    // volume.
    if high_offered >= 16 && normal_offered >= 16 {
        if out.high_dispatched == 0 {
            v.push("priority: high class starved".to_string());
        }
        if out.normal_dispatched == 0 {
            v.push("priority: normal class starved".to_string());
        }
    }
    if let Sidecar::UnexpectedFlood { messages, .. } = plan.sidecar {
        match out.flood {
            None => v.push("flood: floodee never reported".to_string()),
            Some(f) if f.delivered != messages => v.push(format!(
                "flood: {}/{} messages arrived intact",
                f.delivered, messages
            )),
            Some(_) => {}
        }
    }
    if let Sidecar::PingPong { rounds } = plan.sidecar {
        let done = out.pingpong_rounds.unwrap_or(0);
        if done != rounds {
            v.push(format!("pingpong: {done}/{rounds} rounds completed"));
        }
    }
    // --- the gauge-backed invariants, declaratively --------------------
    // The health monitor judges pool residency and flood parking on the
    // sampled gauge series (a rule whose series was never sampled is a
    // violation, not a pass); a violated rule also dumps the offending
    // series next to the cell's flight ring.
    out.health_violations = cell_health_spec(plan)
        .evaluate_and_dump(&out.telemetry, label)
        .iter()
        .map(obs::Violation::describe)
        .collect();
    v.extend(out.health_violations.iter().cloned());
    flight.dump_if_violated(&v);
    out.violations = v;
    out
}

/// [`run_cell`]'s gauge-backed invariants: the server pool bound as a
/// `never_above` on `rpc.buffers_in_use`, and — for flood cells — the
/// floodee's park bound plus full drain as
/// `never_above`/`settles_to_zero_by` on `adi.unexpected_len`. The
/// gauges are sampled at the exact sites the `max_residency` and
/// [`FloodOutcome`] stats read, so sampled and counted maxima are equal
/// (pinned in `tests/campaign.rs`).
pub fn cell_health_spec(plan: &WorkloadPlan) -> obs::HealthSpec {
    let mut spec = obs::HealthSpec::new().never_above("rpc.buffers_in_use", plan.pool as f64);
    if let Sidecar::UnexpectedFlood {
        messages, prepost, ..
    } = plan.sidecar
    {
        let expected_park = (messages - prepost.min(messages)) as f64;
        let floodee = (plan.nprocs() - 2) as u32;
        let hard_stop = plan.windows_end() + ms(60) + ms(10);
        spec = spec
            .never_above("adi.unexpected_len", expected_park)
            .on_node(floodee)
            .settles_to_zero_by("adi.unexpected_len", hard_stop)
            .on_node(floodee);
    }
    spec
}

/// The sidecar's MPI stack: ADI-direct costs over the shared billboard.
fn sidecar_mpi(ep: bbp::BbpEndpoint) -> Mpi {
    Mpi::new(
        Device::Bbp(Box::new(ep)),
        SmpiCosts::adi_direct(),
        CollectiveImpl::PointToPoint,
    )
}

/// Flood message `i`'s payload: tag-derived bytes so delivery is
/// verified bit-exact per message.
fn flood_payload(i: u32, body_bytes: usize) -> Vec<u8> {
    vec![(i as u8).wrapping_mul(31).wrapping_add(7); body_bytes.max(1)]
}
