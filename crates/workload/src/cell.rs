//! The cell executor: one [`WorkloadPlan`] at one load multiplier, run
//! to completion on a fresh simulated ring. Servers run
//! `rpc::MessageQueue` loops, client nodes replay their precomputed
//! arrival streams through `rpc::RpcClient` channels, and the optional
//! MPI sidecar ranks ride the same billboard. The executor checks every
//! per-cell invariant (no deadlock, full drain, source fairness, both
//! priority classes progressing, sidecar completion, bounded pool and
//! unexpected-queue residency) and reports violations as strings rather
//! than panicking — a violated cell still produces its flight dump and
//! its repro line.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig, CreditConfig};
use des::rng::SimRng;
use des::{ms, us, RoundGuard, Simulation, Time};
use obs::LogHistogram;
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
    /// High-water mark of the floodee's unexpected queue, read after its
    /// last receive.
    pub peak: usize,
    /// Unexpected-queue residency after every receive completed.
    pub final_residency: usize,
    /// Flood messages received bit-exact.
    pub delivered: u32,
    /// Receives the floodee posted only after the flood, one for each
    /// send no receive was preposted for: the most its queue may park.
    late_receives: usize,
    /// When the floodee's last receive completed: its queue is judged
    /// empty by the cell's hard stop from this instant.
    finished_at: Time,
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
    /// the bounded-buffer breaches (also listed separately below).
    pub violations: Vec<String>,
    /// The bounded-buffer breaches, judged from the counts above: a
    /// server's `max_residency` over its pool, the floodee's `peak` over
    /// the sends no receive was preposted for, or its queue not empty by
    /// the hard stop. Each dumps its gauge series next to the flight ring.
    pub health_violations: Vec<String>,
    /// The cell's sampled gauge series: what a breach dumps, and what a
    /// capacity knee is read from (EXPERIMENTS.md, "Reading a capacity
    /// knee from the occupancy series").
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
    // a breached bound dumps its series after the run.
    sim.recorder().telemetry().enable();
    let cluster = BbpCluster::new(&sim.handle(), bbp);

    let end = plan.windows_end();
    let drain_deadline = end + ms(60);
    let hard_stop = drain_deadline + ms(10);

    // Read by the servers' round-end guards while the clients run.
    let clients_done = Arc::new(AtomicUsize::new(0));

    // --- client nodes: ranks servers..servers+client_nodes ------------
    // Each returns its counters, its high and normal attempts, what it
    // left outstanding and its service histogram.
    let mut clients = Vec::with_capacity(plan.client_nodes);
    for node_idx in 0..plan.client_nodes {
        let rank = plan.servers + node_idx;
        let ep = cluster.endpoint(rank);
        let plan = plan.clone();
        let clients_done = Arc::clone(&clients_done);
        clients.push(sim.spawn(format!("client{node_idx}"), move |ctx| {
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

            let mut rng = SimRng::seeded(
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
                // artifact of the arrival cadence; asleep through the
                // polls that find nothing, up to the one after which
                // this check fails.
                let arriving: RoundGuard = Arc::new(move |t| t + poll_gap >= at);
                while ctx.now() + poll_gap < at {
                    cl.idle(ctx, poll_gap, &arriving);
                }
                // Charged, not stalled: nothing shared is touched before
                // the sweep below, so the wait rides in front of it and
                // the thread is not woken at `at` only to start it.
                if at > ctx.now() {
                    ctx.charge(at - ctx.now());
                }
                cl.poll_replies(ctx);
                let class = if rng.below(100) < u64::from(plan.high_share_pct) {
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
            let drained: RoundGuard = Arc::new(move |t| t >= drain_deadline);
            while cl.total_outstanding() > 0 && ctx.now() < drain_deadline {
                cl.idle(ctx, poll_gap, &drained);
            }
            clients_done.fetch_add(1, Ordering::SeqCst);
            let left = u64::from(cl.total_outstanding());
            (cl.stats(), high, normal, left, cl.service_hist())
        }));
    }

    // --- servers: ranks 0..servers ------------------------------------
    // Each returns its counters and its residency histogram.
    let mut servers = Vec::with_capacity(plan.servers);
    for s in 0..plan.servers {
        let ep = cluster.endpoint(s);
        let plan_s = plan.clone();
        let clients_done = Arc::clone(&clients_done);
        let n_clients = plan.client_nodes;
        // The loop's two ways out below, as an idle server's guard: with
        // nothing queued or held, its first check is this one.
        let done = Arc::clone(&clients_done);
        let stop: RoundGuard =
            Arc::new(move |t| done.load(Ordering::SeqCst) == n_clients || t >= hard_stop);
        servers.push(sim.spawn(format!("server{s}"), move |ctx| {
            let mut rng = SimRng::seeded(plan_s.seed() ^ 0x5EC7_0A11u64.wrapping_add(s as u64));
            let mut dispatched: u64 = 0;
            let mut mq = MessageQueue::new(
                ep,
                RpcConfig {
                    pool: plan_s.pool,
                    body_capacity: plan_s.body_bytes,
                    ..RpcConfig::default()
                },
            );
            loop {
                mq.poll(ctx);
                while let Some(mut req) = mq.dispatch(ctx) {
                    // The handler's own time: it rides in front of the
                    // sweep `poll` makes next.
                    ctx.charge(plan_s.service.sample(&mut rng, dispatched));
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
                if ctx.now() >= hard_stop || !mq.idle(ctx, us(2), &stop) {
                    break;
                }
            }
            (mq.stats(), mq.residency_hist())
        }));
    }

    // --- MPI sidecar: the two top ranks -------------------------------
    // The floodee returns what it observed, the pinger its intact echoes.
    let (mut floodee, mut pinger) = (None, None);
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
            floodee = Some(sim.spawn("floodee", move |ctx| {
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
                FloodOutcome {
                    peak: mpi.adi().unexpected_peak(),
                    final_residency: mpi.adi().unexpected_len(),
                    delivered,
                    late_receives: (messages - prepost) as usize,
                    finished_at: ctx.now(),
                }
            }));
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
            pinger = Some(sim.spawn("pinger", move |ctx| {
                let mut mpi = sidecar_mpi(ep);
                let comm = mpi.comm_world();
                let body = vec![0x5Au8; body];
                let mut intact = 0u32;
                for r in 0..rounds {
                    mpi.send(ctx, &comm, ponger_rank, r as Tag, &body)
                        .expect("ping send failed");
                    let (_, echo) = mpi
                        .recv(ctx, &comm, Some(ponger_rank), Some(r as Tag))
                        .expect("ping recv failed");
                    intact += u32::from(echo == body);
                }
                intact
            }));
        }
    }

    let report = sim.run();
    let telemetry = sim.recorder().telemetry().take();

    // A process that did not return (the cell deadlocked) counts nothing.
    let (service, mut per_node_completed) = (LogHistogram::new(), vec![0; plan.client_nodes]);
    let (mut sent, mut completed, mut shed, mut transport_shed) = (0, 0, 0, 0);
    let (mut high_offered, mut normal_offered, mut undrained) = (0, 0, 0);
    for (node, client) in clients.iter_mut().enumerate() {
        if let Some((st, high, normal, left, hist)) = client.take() {
            per_node_completed[node] = st.completed;
            sent += st.sent;
            completed += st.completed;
            shed += st.shed;
            transport_shed += st.transport_shed;
            high_offered += high;
            normal_offered += normal;
            undrained += left;
            service.merge(&hist);
        }
    }
    let offered: u64 = (0..plan.client_nodes)
        .map(|n| {
            (0..plan.channels_per_node)
                .map(|c| plan.channel_arrivals(n, c, mult).len() as u64)
                .sum::<u64>()
        })
        .sum();
    let residency = LogHistogram::new();
    let (mut max_residency, mut high_dispatched, mut normal_dispatched) = (0, 0, 0);
    for (st, hist) in servers.iter_mut().filter_map(|s| s.take()) {
        max_residency = max_residency.max(st.max_residency);
        high_dispatched += st.high_dispatched;
        normal_dispatched += st.normal_dispatched;
        residency.merge(&hist);
    }

    let mut out = CellOutcome {
        sent,
        completed,
        shed,
        transport_shed,
        offered,
        service,
        residency,
        max_residency,
        high_dispatched,
        normal_dispatched,
        per_node_completed,
        undrained,
        flood: floodee.and_then(|mut f| f.take()),
        pingpong_rounds: pinger.map(|mut p| p.take().unwrap_or(0)),
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
    out.health_violations = bounds_breached(plan, &out, hard_stop, label);
    v.extend(out.health_violations.iter().cloned());
    flight.dump_if_violated(&v);
    out.violations = v;
    out
}

/// [`run_cell`]'s bounded-buffer invariants, judged from the counts the
/// cell kept: every server's pool residency within `plan.pool`, and for
/// a flood cell the floodee's unexpected queue within its late receives
/// (`messages − min(prepost, messages)`), and empty once its last
/// receive completed, by `stop` (the cell's hard stop). Each breach is
/// one string, and dumps its gauge's series next to the flight ring
/// (only the floodee parks, so only it has an `adi.unexpected_len` one).
fn bounds_breached(plan: &WorkloadPlan, out: &CellOutcome, stop: Time, label: &str) -> Vec<String> {
    let mut breaches = Vec::new();
    if out.max_residency > plan.pool {
        let (held, pool) = (out.max_residency, plan.pool);
        let what = format!("pool: {held} buffers held at once, over the pool of {pool}");
        breaches.push((what, "rpc.buffers_in_use"));
    }
    if let Some(f) = out.flood {
        let (peak, late) = (f.peak, f.late_receives);
        if peak > late {
            let what = format!("flood: {peak} parked at once, over its {late} late receives");
            breaches.push((what, "adi.unexpected_len"));
        }
        if f.final_residency > 0 || f.finished_at > stop {
            let (left, at) = (f.final_residency, f.finished_at);
            let what = format!("flood: {left} still parked at {at} ns, not empty by {stop} ns");
            breaches.push((what, "adi.unexpected_len"));
        }
    }
    for s in &out.telemetry {
        if breaches.iter().any(|(_, metric)| s.name == *metric) {
            s.dump_to_dir(label);
        }
    }
    breaches.into_iter().map(|(what, _)| what).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Shape;

    const HARD_STOP: Time = 1_000_000;

    fn flood_plan() -> WorkloadPlan {
        WorkloadPlan::new(1)
            .clients(1, 4)
            .window(ms(1), Shape::Off)
            .sidecar(Sidecar::UnexpectedFlood {
                messages: 20,
                prepost: 5,
                at: us(200),
                post_delay: us(1_000),
            })
    }

    /// A finished cell that kept its bounds, with both gauges sampled
    /// (server 0's pool, the floodee's unexpected queue).
    fn clean_outcome(plan: &WorkloadPlan) -> CellOutcome {
        let floodee = (plan.nprocs() - 2) as u32;
        let telemetry = obs::Telemetry::new();
        telemetry.enable();
        telemetry.observe(1_000, 0, "rpc.buffers_in_use", 3.0);
        telemetry.observe(2_000, floodee, "adi.unexpected_len", 15.0);
        telemetry.observe(3_000, floodee, "adi.unexpected_len", 0.0);
        CellOutcome {
            sent: 0,
            completed: 0,
            shed: 0,
            transport_shed: 0,
            offered: 0,
            service: LogHistogram::new(),
            residency: LogHistogram::new(),
            max_residency: 3,
            high_dispatched: 0,
            normal_dispatched: 0,
            per_node_completed: vec![0],
            undrained: 0,
            flood: Some(FloodOutcome {
                peak: 15,
                final_residency: 0,
                delivered: 20,
                late_receives: 15,
                finished_at: 3_000,
            }),
            pingpong_rounds: None,
            elapsed_ns: ms(1),
            violations: Vec::new(),
            health_violations: Vec::new(),
            telemetry: telemetry.take(),
            run: Simulation::new().run(),
        }
    }

    /// Judge `out`, require exactly one breach naming `needle`, and the
    /// breached gauge's series dumped as `series_{label}_{metric}_{node}`.
    fn assert_breach(out: &CellOutcome, label: &str, needle: &str, series: &str) {
        let dir = std::env::var("FLIGHT_DUMP_DIR").unwrap_or_else(|_| "target/flight".into());
        let path = std::path::Path::new(&dir).join(format!("series_{label}_{series}.json"));
        let _ = std::fs::remove_file(&path);
        let breaches = bounds_breached(&flood_plan(), out, HARD_STOP, label);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains(needle), "{breaches:?}");
        let dump = std::fs::read_to_string(&path).expect("the breached series is dumped");
        assert!(obs::json::parse(&dump).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    /// What `run_cell` does with a breach: the judge dumps the breached
    /// gauge's series and the flight guard the ring, both under the
    /// cell's label, in one directory.
    #[test]
    fn a_breached_series_lands_beside_the_flight_ring() {
        let (plan, label) = (flood_plan(), "wl_unit_beside");
        let mut out = clean_outcome(&plan);
        out.max_residency = plan.pool + 1;
        let breaches = bounds_breached(&plan, &out, HARD_STOP, label);
        let sim = Simulation::new();
        obs::FlightGuard::new(label, sim.recorder_arc()).dump_if_violated(&breaches);
        let dir = std::env::var("FLIGHT_DUMP_DIR").unwrap_or_else(|_| "target/flight".into());
        for file in [
            "flight_wl_unit_beside",
            "series_wl_unit_beside_rpc_buffers_in_use_0",
        ] {
            let path = std::path::Path::new(&dir).join(format!("{file}.json"));
            let dump = std::fs::read_to_string(&path).expect("dumped beside each other");
            assert!(obs::json::parse(&dump).is_ok(), "{file}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_cell_within_its_bounds_is_not_judged() {
        let plan = flood_plan();
        assert!(bounds_breached(&plan, &clean_outcome(&plan), HARD_STOP, "unused").is_empty());
    }

    #[test]
    fn a_pool_over_its_bound_is_reported_and_dumped() {
        let mut out = clean_outcome(&flood_plan());
        out.max_residency = flood_plan().pool + 1;
        assert_breach(
            &out,
            "wl_unit_pool",
            "over the pool",
            "rpc_buffers_in_use_0",
        );
    }

    #[test]
    fn a_park_over_its_bound_is_reported_and_dumped() {
        let plan = flood_plan();
        let mut out = clean_outcome(&plan);
        out.flood.as_mut().unwrap().peak = 16;
        let series = format!("adi_unexpected_len_{}", plan.nprocs() - 2);
        assert_breach(&out, "wl_unit_park", "16 parked at once", &series);
    }

    #[test]
    fn a_queue_left_undrained_is_reported_and_dumped() {
        let plan = flood_plan();
        let series = format!("adi_unexpected_len_{}", plan.nprocs() - 2);
        let mut out = clean_outcome(&plan);
        out.flood.as_mut().unwrap().final_residency = 2;
        assert_breach(&out, "wl_unit_residue", "2 still parked", &series);
        // Empty, but only after the hard stop.
        let mut out = clean_outcome(&plan);
        out.flood.as_mut().unwrap().finished_at = HARD_STOP + 1;
        assert_breach(&out, "wl_unit_late", "empty by 1000000 ns", &series);
    }
}
