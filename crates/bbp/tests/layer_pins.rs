//! Nanosecond pins for the protocol's *extension* paths.
//!
//! The default (paper-mode) path is pinned to the nanosecond by
//! `tests/determinism.rs`, the goldens and the benchmark fingerprints.
//! The reliability, membership, quorum and credit paths were pinned only
//! by campaign violation counts, which a reordered PIO access or a
//! moved `obs` record does not move. These small worlds pin them
//! the same way: each asserts the run's `(end_time, dispatches,
//! peak_queue_depth)`, the ring's traffic counters, every endpoint's
//! full [`EndpointStats`] and an FNV-1a hash of the recorder's event log
//! (spans, counters, lifecycle checkpoints and scheduler entries) against
//! constants captured at commit 20eea90.
//!
//! Every world runs twice — with the event log on and off — and both runs
//! must match the same constants and each other in what the host did
//! (`relayed`, `handoffs`): recording forks nothing. Only the recorded run
//! has a log to hash, and it is hashed track by track ([`LogPin`]). The
//! `log` pins were captured in that form at bab5c31, where recording
//! still made every charge an eager advance and every poll sweep a loop
//! of reads, and held unchanged when that fork was removed: only how
//! tracks interleave had depended on it.
//!
//! A mismatch prints the observed pin as a Rust literal. Re-bless only
//! when a change *means* to move simulated behaviour, and say so.

use std::fmt::Debug;
use std::sync::Arc;

use bbp::{
    BbpCluster, BbpConfig, BbpEndpoint, BbpError, CreditConfig, EndpointStats, GcPolicy, Layout,
    RecvMode, ReliabilityConfig,
};
use des::obs::Track;
use des::{ms, us, RunReport, Simulation};
use parking_lot::Mutex;
use scramnet::{CostModel, FaultPlan, Ring};

/// What a world is pinned to. Counters render as their non-zero fields,
/// so a moved pin names the counter that moved.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `(end_time, dispatches, peak_queue_depth)`.
    run: (u64, u64, usize),
    ring: String,
    /// One entry per endpoint, in the order the world lists them.
    endpoints: Vec<String>,
    /// `(events, FNV-1a of their Debug rendering)`; recorded run only.
    log: (usize, u64),
    /// `(relayed, handoffs)`: what the host did. Held equal between the
    /// recorded and the unrecorded run, not to a constant — ROADMAP items
    /// 2 and 3 mean to move it.
    host: (u64, u64),
}

/// The non-zero fields of a flat counter struct's `Debug` rendering.
fn nonzero(counters: &impl Debug) -> String {
    let all = format!("{counters:?}");
    let body = all
        .split_once(" { ")
        .and_then(|(_, rest)| rest.strip_suffix(" }"))
        .expect("a braced struct");
    body.split(", ")
        .filter(|field| !field.ends_with(": 0"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Where each process leaves its endpoint's counters (and anything else
/// worth folding into the pin) when it finishes.
type Finals = Arc<Mutex<Vec<(String, EndpointStats)>>>;

fn leave(finals: &Finals, who: &str, ep: &BbpEndpoint, outcome: impl Debug) {
    finals.lock().push((
        format!("{who} {outcome:?}").replace('"', ""),
        ep.stats().clone(),
    ));
}

/// How a world's event log is pinned.
enum LogPin {
    /// Track by track ([`Track`]): tracks in key order, each track's
    /// records in log order. How tracks interleave in the log is not
    /// pinned — that is write order, which says when a process settled its
    /// charges, not what it did.
    Tracks,
    /// As a sorted multiset: for a world whose tracks each interleave
    /// several processes, whose relative write order is no more pinned
    /// than that of two tracks.
    Multiset,
}

fn observe(sim: &Simulation, report: &RunReport, ring: &Ring, finals: &Finals, log: LogPin) -> Pin {
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let events = sim.recorder().take_events();
    let mut lines: Vec<(Track, String)> = events
        .iter()
        .map(|e| (e.track(), format!("{e:?}\n")))
        .collect();
    match log {
        LogPin::Tracks => lines.sort_by_key(|&(track, _)| track), // stable
        LogPin::Multiset => lines.sort(),
    }
    let hash = lines
        .iter()
        .flat_map(|(_, line)| line.bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let mut finals = finals.lock().clone();
    finals.sort_by(|a, b| a.0.cmp(&b.0));
    Pin {
        run: (report.end_time, report.dispatches, report.peak_queue_depth),
        ring: nonzero(&ring.stats()),
        endpoints: finals
            .iter()
            .map(|(who, stats)| format!("{who}: {}", nonzero(stats)))
            .collect(),
        log: (events.len(), hash),
        host: (report.relayed, report.handoffs),
    }
}

impl Pin {
    /// This pin as the `pin(..)` call that would expect it.
    fn literal(&self) -> String {
        let endpoints: String = self
            .endpoints
            .iter()
            .map(|e| format!("            {e:?},\n"))
            .collect();
        format!(
            "pin(\n        {:?},\n        {:?},\n        &[\n{endpoints}        ],\n        {:?},\n    )",
            self.run, self.ring, self.log
        )
    }
}

/// Run `world` recorded and unrecorded and hold both to `expect`.
fn check(world: impl Fn(bool) -> Pin, mut expect: Pin) {
    let recorded = world(true);
    expect.host = recorded.host;
    assert_eq!(
        recorded,
        expect,
        "recorded run; observed:\n{}",
        recorded.literal()
    );
    let mut unrecorded = world(false);
    assert_eq!(
        unrecorded.log,
        (0, 0xcbf2_9ce4_8422_2325),
        "no log when off"
    );
    unrecorded.log = expect.log;
    assert_eq!(unrecorded, expect, "unrecorded run");
}

fn new_sim(traced: bool) -> Simulation {
    let sim = Simulation::new();
    if traced {
        sim.enable_trace();
    }
    sim
}

/// Index word + seeded fill, so a mangled or reordered delivery shows.
fn payload(index: u32, size: usize) -> Vec<u8> {
    let mut p = vec![index as u8; size];
    for (j, b) in p.iter_mut().enumerate().skip(1) {
        *b = (index as u8).wrapping_mul(31).wrapping_add(j as u8);
    }
    p
}

/// Outcome of a send or receive, compact enough to fold into a pin.
fn tag<T>(r: &Result<T, BbpError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => format!("{e:?}"),
    }
}

// ----------------------------------------------------------------------
// 1. Reliability: retransmit, NACK repair, retry exhaustion, tainted-slot
//    reclaim (late ACK and bypassed peer), corrupt drop, phantom reject.
// ----------------------------------------------------------------------

fn reliable_world(corrupt_rate: f64, traced: bool) -> Pin {
    const SIZES: [usize; 4] = [0, 4, 64, 1024];
    let plan = FaultPlan::new(7)
        .corrupt_word(corrupt_rate)
        .at(us(30))
        .drop_next(3)
        .at(us(400))
        .stall_node(2, us(150));
    let mut sim = new_sim(traced);
    let mut cfg = BbpConfig::for_nodes(4);
    cfg.reliability = Some(ReliabilityConfig {
        ack_timeout_ns: 60_000,
        max_retries: 2,
        recv_timeout_ns: 900_000,
        verify_retries: 2,
        membership: None,
    });
    cfg.bufs_per_proc = 4;
    cfg.data_words = 320;
    let layout = Layout::new(&cfg);
    let c = BbpCluster::with_hardware(&sim.handle(), cfg, CostModel::default(), plan.ring_config());
    plan.arm(c.ring());
    let ring = c.ring().clone();
    let finals: Finals = Arc::default();

    // Rank 3 leaves the ring for good after the multicasts.
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(us(1_900), move |_| r.bypass_node(3));
    }
    // Stale flag bits toggled at rank 2 resurrect old descriptors:
    // phantoms and a duplicate the sequence filter must reject.
    {
        let r = ring.clone();
        let flag = layout.msg_flag(2, 0);
        sim.handle().schedule_at(us(5_500), move |_| {
            let cur = r.snapshot(2)[flag];
            r.source_packet(0, us(5_500), flag, Arc::new(vec![cur ^ 0b1111]));
        });
    }

    let mut tx = c.endpoint(0);
    let f = Arc::clone(&finals);
    sim.spawn("n0", move |ctx| {
        let mut log = Vec::new();
        for i in 0..6u32 {
            let r = tx.send(ctx, 2, &payload(i, SIZES[i as usize % 4]));
            log.push(tag(&r));
        }
        for i in 6..8u32 {
            let r = tx.mcast(ctx, &[1, 2, 3], &payload(i, 64));
            log.push(tag(&r));
        }
        ctx.wait_until(us(2_000));
        // Retry exhaustion against a bypassed peer, then twice against
        // a live one that only starts listening during the second (an
        // empty message, so the first's rolled-back data space is still
        // intact for its late delivery and late ACK).
        log.push(tag(&tx.send(ctx, 3, &payload(8, 64))));
        log.push(tag(&tx.send(ctx, 1, &payload(9, 64))));
        log.push(tag(&tx.send(ctx, 1, &payload(10, 0))));
        // Keep sending: full slots force GC sweeps, which resolve the
        // quarantined ones (late ACK from rank 1, resync against rank 3).
        for i in 11..17u32 {
            let r = tx.send(ctx, 2, &payload(i, SIZES[i as usize % 4]));
            log.push(tag(&r));
            ctx.advance(us(150));
        }
        let mut drained = false;
        for _ in 0..200 {
            drained = tx.all_acked(ctx);
            if drained {
                break;
            }
            ctx.advance(us(5));
        }
        leave(&f, "n0", &tx, (log, drained));
    });

    let mut rx = c.endpoint(2);
    let f = Arc::clone(&finals);
    sim.spawn("n2", move |ctx| {
        let mut log = Vec::new();
        for _ in 0..4 {
            log.push(tag(&rx.recv(ctx, 0)));
        }
        for _ in 0..4 {
            log.push(tag(&rx.recv_any(ctx).map(|(_, m)| m)));
        }
        // The rest by non-blocking sweeps, so the phantom toggle and the
        // duplicate filter are observed between real messages.
        let mut got = 0;
        while ctx.now() < ms(6) {
            if rx.try_recv(ctx, 0).is_some() {
                got += 1;
            }
            if rx.msg_avail(ctx) && rx.try_recv_any(ctx).is_some() {
                got += 1;
            }
            ctx.advance(us(7));
        }
        log.push(tag(&rx.recv(ctx, 0))); // nothing left: a typed timeout
        leave(&f, "n2", &rx, (log, got));
    });

    let mut late = c.endpoint(1);
    let f = Arc::clone(&finals);
    sim.spawn("n1", move |ctx| {
        let mut log = Vec::new();
        for _ in 0..2 {
            log.push(tag(&late.recv_any(ctx).map(|(_, m)| m)));
        }
        ctx.wait_until(us(2_900));
        for _ in 0..3 {
            log.push(tag(&late.recv(ctx, 0)));
        }
        leave(&f, "n1", &late, log);
    });

    let mut gone = c.endpoint(3);
    let f = Arc::clone(&finals);
    sim.spawn("n3", move |ctx| {
        let mut log = Vec::new();
        for _ in 0..2 {
            log.push(tag(&gone.recv(ctx, 0)));
        }
        leave(&f, "n3", &gone, log);
    });

    let report = sim.run();
    observe(&sim, &report, &ring, &finals, LogPin::Tracks)
}

// ----------------------------------------------------------------------
// 2. Membership: kill → detect → bypass → rejoin, with traffic before,
//    during (fail-fast to the dead peer) and after.
// ----------------------------------------------------------------------

fn membership_world(traced: bool) -> Pin {
    let mut sim = new_sim(traced);
    let c = BbpCluster::new(&sim.handle(), BbpConfig::membership_for_nodes(4));
    let ring = c.ring().clone();
    let finals: Finals = Arc::default();
    let (kill_at, reboot_at, end) = (us(100), us(1_500), ms(4));
    {
        let r = ring.clone();
        sim.handle()
            .schedule_at(kill_at, move |_| r.silence_node(3));
        let r = ring.clone();
        sim.handle()
            .schedule_at(reboot_at, move |_| r.unsilence_node(3));
    }

    let mut victim = c.endpoint(3);
    let f = Arc::clone(&finals);
    sim.spawn("n3", move |ctx| {
        while ctx.now() < kill_at {
            victim.membership_tick(ctx);
            ctx.advance(us(10));
        }
        leave(&f, "n3a", &victim, victim.membership_view());
    });

    let mut reborn = c.endpoint(3);
    let f = Arc::clone(&finals);
    sim.spawn("n3-reborn", move |ctx| {
        ctx.wait_until(reboot_at + us(10));
        let view = reborn.rejoin(ctx, ms(2));
        let sent = tag(&reborn.send(ctx, 0, b"back from the dead"));
        let reply = tag(&reborn.recv(ctx, 0));
        while ctx.now() < end {
            reborn.membership_tick(ctx);
            ctx.advance(us(10));
        }
        leave(
            &f,
            "n3b",
            &reborn,
            (view, sent, reply, reborn.membership_view()),
        );
    });

    for rank in 0..3usize {
        let mut ep = c.endpoint(rank);
        let f = Arc::clone(&finals);
        sim.spawn(format!("n{rank}"), move |ctx| {
            let mut log = Vec::new();
            let mut i = 0u32;
            let mut next_send = us(40);
            let mut probed = false;
            while ctx.now() < end {
                ep.membership_tick(ctx);
                // A survivor stream 1 → 2 across the whole scenario.
                if rank == 1 && i < 12 && ctx.now() >= next_send {
                    log.extend(
                        ep.send(ctx, 2, &payload(i, 48))
                            .err()
                            .map(|e| e.to_string()),
                    );
                    i += 1;
                    next_send = ctx.now() + us(250);
                }
                if rank == 2 && ep.try_recv(ctx, 1).is_some() {
                    i += 1;
                }
                if rank == 0 {
                    // Once rank 3 is graded dead a send fails fast.
                    if !probed && ctx.now() >= us(1_000) {
                        probed = true;
                        log.push(tag(&ep.send(ctx, 3, b"anyone home?")));
                    }
                    if let Some(msg) = ep.try_recv(ctx, 3) {
                        log.push(String::from_utf8_lossy(&msg).into_owned());
                        log.push(tag(&ep.send(ctx, 3, b"welcome back")));
                    }
                }
                ctx.advance(us(10));
            }
            leave(
                &f,
                &format!("n{rank}"),
                &ep,
                (log, i, ep.membership_view(), ep.peer_health(3)),
            );
        });
    }

    let report = sim.run();
    observe(&sim, &report, &ring, &finals, LogPin::Tracks)
}

// ----------------------------------------------------------------------
// 3. Quorum: minority freeze → heal → merge, a fenced cross-cut message,
//    in-wait membership service, a post-heal handshake.
// ----------------------------------------------------------------------

fn quorum_world(traced: bool) -> Pin {
    let (onset, heal_after, end) = (us(200), us(1_200), ms(5));
    let plan = FaultPlan::new(42).at(onset).partition(1, 4, heal_after);
    let mut sim = new_sim(traced);
    let c = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::quorum_for_nodes(5),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(c.ring());
    let ring = c.ring().clone();
    let finals: Finals = Arc::default();
    let heal_at = onset + heal_after;

    for rank in 0..5usize {
        let mut ep = c.endpoint(rank);
        let f = Arc::clone(&finals);
        sim.spawn(format!("n{rank}"), move |ctx| {
            let mut log: Vec<String> = Vec::new();
            let (mut i, mut got) = (0u32, 0u32);
            let mut next_send = us(20);
            let mut next_probe = us(20);
            let (mut bait_sent, mut shook, mut greeted, mut waited) = (false, false, false, false);
            while ctx.now() < end {
                ep.membership_tick(ctx);
                // Majority stream 2 → 3: must never fail.
                if rank == 2 && i < 30 && ctx.now() >= next_send {
                    log.extend(
                        ep.send(ctx, 3, &payload(i, 32))
                            .err()
                            .map(|e| e.to_string()),
                    );
                    i += 1;
                    next_send = ctx.now() + us(50);
                }
                if rank == 3 && ep.try_recv(ctx, 2).is_some() {
                    got += 1;
                }
                // Cross-cut bait: posted right before the cut, consumed
                // by rank 2 only after the exclusion epoch committed.
                if rank == 0 && !bait_sent && ctx.now() >= onset - us(60) {
                    bait_sent = true;
                    log.push(tag(&ep.send(ctx, 2, b"left in flight")));
                }
                if rank == 2 && ctx.now() >= onset + us(800) && ctx.now() < heal_at {
                    if let Some(m) = ep.try_recv(ctx, 0) {
                        log.push(format!("leak {}", m.len()));
                    }
                }
                // Minority probe 0 → 1: ok, then Partitioned, then ok.
                if rank == 0 && ctx.now() >= next_probe {
                    let r = tag(&ep.send(ctx, 1, b"minority probe"));
                    if log.last() != Some(&r) {
                        log.push(r);
                    }
                    next_probe = ctx.now() + us(100);
                }
                if rank == 1 {
                    if !waited && ctx.now() >= onset + us(300) {
                        // A frozen node's blocking calls fail typed.
                        waited = true;
                        log.push(tag(&ep.recv(ctx, 0)));
                        log.push(tag(&ep.recv_any(ctx).map(|(_, m)| m)));
                        log.push(format!("{:?}", ep.frozen_epoch()));
                    }
                    if ep.try_recv(ctx, 0).is_some() {
                        got += 1;
                    }
                }
                // Rank 4 blocks in a long receive: the in-wait service
                // keeps its heartbeat and view current meanwhile.
                if rank == 4 && !waited && ctx.now() >= onset + us(100) {
                    waited = true;
                    log.push(tag(&ep.recv(ctx, 3)));
                    let until = ctx.now() + us(120);
                    log.push(format!("{:?}", ep.recv_deadline(ctx, 3, until)));
                }
                // Post-heal handshake across the former cut.
                if ctx.now() > heal_at && !ep.is_partitioned() {
                    if rank == 0 && !shook {
                        shook = true;
                        log.push(tag(&ep.send(ctx, 2, b"back from the cold")));
                        log.push(tag(&ep.recv(ctx, 2)));
                    }
                    if rank == 2 && !greeted {
                        if let Some(m) = ep.try_recv(ctx, 0) {
                            greeted = true;
                            log.push(String::from_utf8_lossy(&m).into_owned());
                            log.push(tag(&ep.send(ctx, 0, b"warm again")));
                        }
                    }
                }
                ctx.advance(us(10));
            }
            leave(
                &f,
                &format!("n{rank}"),
                &ep,
                (log, i, got, ep.membership_view(), ep.is_partitioned()),
            );
        });
    }

    let report = sim.run();
    observe(&sim, &report, &ring, &finals, LogPin::Tracks)
}

/// A frozen node's `recv_deadline`: the minority side of a partition that
/// outlasts the run, rank 1 blocking on a frame deadline once frozen. It
/// polls nothing while frozen, so only the deadline can end the wait —
/// and must, on the nanosecond.
fn frozen_deadline_world(traced: bool) -> Pin {
    let (onset, end) = (us(200), ms(1));
    let plan = FaultPlan::new(42).at(onset).partition(1, 4, ms(50));
    let mut sim = new_sim(traced);
    let c = BbpCluster::with_hardware(
        &sim.handle(),
        BbpConfig::quorum_for_nodes(5),
        CostModel::default(),
        plan.ring_config(),
    );
    plan.arm(c.ring());
    let ring = c.ring().clone();
    let finals: Finals = Arc::default();

    for rank in 0..5usize {
        let mut ep = c.endpoint(rank);
        let f = Arc::clone(&finals);
        sim.spawn(format!("n{rank}"), move |ctx| {
            let mut log: Vec<String> = Vec::new();
            while ctx.now() < end {
                ep.membership_tick(ctx);
                if rank == 1 && log.is_empty() && ep.is_partitioned() {
                    let deadline = ctx.now() + us(150);
                    let got = ep.recv_deadline(ctx, 0, deadline);
                    log.push(format!("{got:?} {} ns late", ctx.now() - deadline));
                    log.push(format!("{:?}", ep.frozen_epoch()));
                }
                ctx.advance(us(10));
            }
            leave(&f, &format!("n{rank}"), &ep, log);
        });
    }

    // A horizon: before the fix the frozen wait never moved the clock.
    let report = sim.run_until(ms(2));
    observe(&sim, &report, &ring, &finals, LogPin::Tracks)
}

// ----------------------------------------------------------------------
// 4. Credits and doorbells: fail-fast and blocking grants, deferred posts
//    coalesced behind one doorbell, an immediate post flushing a batch,
//    credited multicast, and the grant surviving a reclaimed slot.
// ----------------------------------------------------------------------

fn credit_world(traced: bool) -> Pin {
    let mut sim = new_sim(traced);
    let finals: Finals = Arc::default();

    // Two clusters share the simulation: one fail-fast, one blocking
    // (with reliability on, so the blocked wait is deadline-bounded and
    // a failed send's credit comes back with the reclaim).
    let mut ff = BbpConfig::for_nodes(3);
    ff.credit = Some(CreditConfig {
        per_peer: 3,
        fail_fast: true,
    });
    ff.bufs_per_proc = 8;
    let fast = BbpCluster::new(&sim.handle(), ff);
    let ring = fast.ring().clone();

    let mut a = fast.endpoint(0);
    let f = Arc::clone(&finals);
    sim.spawn("ff0", move |ctx| {
        let mut log = Vec::new();
        // A deferred batch to rank 1 exhausts its grant of three...
        for i in 0..4u32 {
            log.push(tag(&a.post_deferred(ctx, 1, &payload(i, 24))));
        }
        log.push(format!("credits {:?}", a.send_credits(1)));
        log.push(format!("rang {}", a.ring_all_doorbells(ctx)));
        // ...rank 2's is untouched: one deferred post, flushed by an
        // immediate one, then a multicast refused for rank 1's sake.
        log.push(tag(&a.post_deferred(ctx, 2, &payload(3, 8))));
        log.push(tag(&a.send(ctx, 2, &payload(4, 8))));
        log.push(format!("rang {}", a.ring_doorbell(ctx, 2)));
        log.push(tag(&a.mcast(ctx, &[1, 2], &payload(5, 16))));
        // Wait for returns, then go round again.
        for round in 0..3u32 {
            while !a.all_acked(ctx) {
                ctx.advance(us(2));
            }
            log.push(format!(
                "credits {:?}/{:?}",
                a.send_credits(1),
                a.send_credits(2)
            ));
            log.push(tag(&a.mcast(ctx, &[1, 2], &payload(6 + round, 16))));
            for i in 0..3u32 {
                log.push(tag(&a.post_deferred(ctx, 1, &payload(10 + i, 4))));
            }
            log.push(format!("rang {}", a.ring_doorbell(ctx, 1)));
        }
        while !a.all_acked(ctx) {
            ctx.advance(us(2));
        }
        leave(&f, "ff0", &a, log);
    });
    for rank in 1..3usize {
        let mut ep = fast.endpoint(rank);
        let f = Arc::clone(&finals);
        sim.spawn(format!("ff{rank}"), move |ctx| {
            let mut got = Vec::new();
            while ctx.now() < us(600) {
                if let Some(m) = ep.try_recv(ctx, 0) {
                    got.push(m.len());
                }
                ctx.advance(us(3));
            }
            leave(&f, &format!("ff{rank}"), &ep, got);
        });
    }

    let mut bl = BbpConfig::for_nodes(3);
    bl.reliability = Some(ReliabilityConfig {
        ack_timeout_ns: 30_000,
        max_retries: 1,
        ..Default::default()
    });
    bl.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: false,
    });
    bl.bufs_per_proc = 2;
    bl.data_words = 64;
    let blocking = BbpCluster::new(&sim.handle(), bl);
    blocking.ring().bypass_node(1);

    let mut b = blocking.endpoint(0);
    let f = Arc::clone(&finals);
    sim.spawn("bl0", move |ctx| {
        let mut log = Vec::new();
        for i in 0..2u32 {
            log.push(tag(&b.send(ctx, 1, &payload(i, 200))));
            log.push(format!("credits {:?}", b.send_credits(1)));
        }
        for i in 2..6u32 {
            log.push(tag(&b.send(ctx, 2, &payload(i, 100))));
        }
        while !b.all_acked(ctx) {
            ctx.advance(us(2));
        }
        leave(&f, "bl0", &b, (log, b.send_credits(1), b.send_credits(2)));
    });
    let mut sink = blocking.endpoint(2);
    let f = Arc::clone(&finals);
    sim.spawn("bl2", move |ctx| {
        let mut log = Vec::new();
        ctx.advance(us(40));
        for _ in 0..4 {
            log.push(tag(&sink.recv(ctx, 0)));
            ctx.advance(us(25));
        }
        leave(&f, "bl2", &sink, log);
    });

    // Unreliable blocking credits: the stall has no deadline.
    let mut ub = BbpConfig::for_nodes(2);
    ub.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: false,
    });
    ub.recv_mode = RecvMode::Interrupt;
    let unbounded = BbpCluster::new(&sim.handle(), ub);
    let mut u0 = unbounded.endpoint(0);
    let f = Arc::clone(&finals);
    sim.spawn("ub0", move |ctx| {
        let mut log = Vec::new();
        for i in 0..4u32 {
            log.push(tag(&u0.send(ctx, 1, &payload(i, 12))));
        }
        leave(&f, "ub0", &u0, log);
    });
    let mut u1 = unbounded.endpoint(1);
    let f = Arc::clone(&finals);
    sim.spawn("ub1", move |ctx| {
        let mut log = Vec::new();
        for _ in 0..4 {
            ctx.advance(us(30));
            log.push(tag(&u1.recv(ctx, 0)));
        }
        leave(&f, "ub1", &u1, log);
    });

    let report = sim.run();
    let mut pin = observe(&sim, &report, &ring, &finals, LogPin::Multiset);
    pin.ring = format!(
        "{} | {} | {}",
        pin.ring,
        nonzero(&blocking.ring().stats()),
        nonzero(&unbounded.ring().stats())
    );
    pin
}

// ----------------------------------------------------------------------
// 5. Slotted GC + interrupt mode, with a data partition small enough that
//    every burst stalls for space and waits on the ACK interrupt.
// ----------------------------------------------------------------------

fn slotted_interrupt_world(traced: bool) -> Pin {
    let mut sim = new_sim(traced);
    let mut cfg = BbpConfig::for_nodes(3);
    cfg.gc_policy = GcPolicy::Slotted;
    cfg.recv_mode = RecvMode::Interrupt;
    cfg.bufs_per_proc = 3;
    cfg.data_words = 48; // three 16-word (64-byte) slots
    let c = BbpCluster::new(&sim.handle(), cfg);
    let ring = c.ring().clone();
    let finals: Finals = Arc::default();

    let mut tx = c.endpoint(0);
    let f = Arc::clone(&finals);
    sim.spawn("n0", move |ctx| {
        let mut log = Vec::new();
        // Out-of-order acknowledgement: rank 2 drains at once, rank 1
        // late, so slotted GC frees around the stuck slot.
        for i in 0..12u32 {
            let dst = 1 + (i as usize % 2);
            log.push(tag(&tx.send(
                ctx,
                dst,
                &payload(i, 16 + 4 * (i as usize % 12)),
            )));
        }
        log.push(tag(&tx.mcast(ctx, &[1, 2], &payload(12, 64))));
        log.push(tag(&tx.send(ctx, 1, &payload(13, 65)))); // one slot is the limit
        while !tx.all_acked(ctx) {
            tx.wait_for_traffic(ctx);
        }
        leave(&f, "n0", &tx, log);
    });
    let mut slow = c.endpoint(1);
    let f = Arc::clone(&finals);
    sim.spawn("n1", move |ctx| {
        let mut got = Vec::new();
        ctx.advance(us(80));
        for _ in 0..7 {
            got.push(slow.recv(ctx, 0).map(|m| m.len()).unwrap_or(usize::MAX));
            ctx.advance(us(20));
        }
        slow.send(ctx, 0, b"done").unwrap();
        leave(&f, "n1", &slow, got);
    });
    let mut quick = c.endpoint(2);
    let f = Arc::clone(&finals);
    sim.spawn("n2", move |ctx| {
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        for _ in 0..7 {
            got.push(quick.recv_into(ctx, 0, &mut buf).unwrap_or(usize::MAX));
        }
        leave(&f, "n2", &quick, got);
    });

    let report = sim.run();
    observe(&sim, &report, &ring, &finals, LogPin::Tracks)
}

// ----------------------------------------------------------------------
// The pins (`run`, `ring`, `endpoints` captured at 20eea90, `log` at
// bab5c31; see the module docs before touching).
// ----------------------------------------------------------------------

fn pin(run: (u64, u64, usize), ring: &str, endpoints: &[&str], log: (usize, u64)) -> Pin {
    Pin {
        run,
        ring: ring.into(),
        endpoints: endpoints.iter().map(|s| (*s).into()).collect(),
        log,
        host: (0, 0), // `check` fills it in
    }
}

#[test]
fn reliable_paths_are_pinned() {
    // A quiet ring (drops, a stall, two bit errors: retransmission, both
    // quarantine resolutions, phantoms and a duplicate) and a noisy one
    // (NACK repair, `Corrupt` on both sides, `PeerDown` for a stalled
    // peer).
    check(
        |traced| reliable_world(0.0012, traced),
        pin(
        (6909350, 10058, 14),
        "injections: 111, words_carried: 2661, pio_writes: 180, pio_reads: 9808, bursts: 37, bit_errors: 2, packets_dropped: 3, link_busy_ns: 5253945",
        &[
            "n0 ([ok, ok, ok, ok, ok, ok, ok, ok, PeerDown { peer: 3 }, Timeout { peer: 1, attempts: 3 }, ok, ok, ok, ok, ok, ok, ok], true): sends: 13, mcasts: 2, gc_sweeps: 5, send_stalls: 4, retries: 13, send_failures: 2, failed_slot_reclaims: 2",
            "n1 [ok, ok, ok, ok, Timeout { peer: 0, attempts: 0 }]: recvs: 4, bytes_recved: 192, polls: 2343, recv_timeouts: 1",
            "n2 ([ok, ok, ok, ok, ok, ok, ok, ok, Timeout { peer: 0, attempts: 0 }], 6): recvs: 14, bytes_recved: 3340, polls: 4204, corrupt_detected: 3, corrupt_dropped: 1, nacks_sent: 3, dup_drops: 3, phantom_rejects: 2, recv_timeouts: 1",
            "n3 [ok, ok]: recvs: 2, bytes_recved: 128, polls: 1056",
        ],
        (57796, 18022270635829349128),
    ),
    );
    check(
        |traced| reliable_world(0.003, traced),
        pin(
        (6074395, 10182, 14),
        "injections: 135, words_carried: 2724, pio_writes: 211, pio_reads: 8780, bursts: 49, bit_errors: 12, packets_dropped: 3, link_busy_ns: 5397240",
        &[
            "n0 ([ok, ok, ok, PeerDown { peer: 2 }, ok, ok, ok, Timeout { peer: 2, attempts: 3 }, PeerDown { peer: 3 }, Timeout { peer: 1, attempts: 3 }, ok, ok, ok, ok, ok, Corrupt { peer: 2 }, ok], true): sends: 11, mcasts: 1, gc_sweeps: 6, send_stalls: 5, retries: 16, send_failures: 5, failed_slot_reclaims: 2",
            "n1 [ok, ok, Corrupt { peer: 0 }, ok, Timeout { peer: 0, attempts: 0 }]: recvs: 3, bytes_recved: 128, polls: 2346, corrupt_detected: 3, corrupt_dropped: 1, nacks_sent: 3, recv_timeouts: 2",
            "n2 ([ok, ok, ok, ok, ok, ok, ok, ok, Corrupt { peer: 0 }], 5): recvs: 13, bytes_recved: 2316, polls: 2477, corrupt_detected: 14, corrupt_dropped: 4, nacks_sent: 14, recv_timeouts: 1",
            "n3 [ok, ok]: recvs: 2, bytes_recved: 128, polls: 1058",
        ],
        (53386, 9960300997579631852),
    ),
    );
}

#[test]
fn membership_kill_and_rejoin_is_pinned() {
    check(membership_world, pin(
        (4014150, 5438, 11),
        "injections: 482, words_carried: 676, pio_writes: 676, pio_reads: 10577, link_busy_ns: 1597770",
        &[
            "n0 ([PeerDown { peer: 3 }, back from the dead, ok], 0, Some(MembershipView { epoch: 2, alive_mask: 15 }), Some(Alive)): sends: 1, recvs: 1, bytes_recved: 18, polls: 221, send_failures: 1, heartbeats: 111, suspicions: 1, deaths: 1, epoch_bumps: 2",
            "n1 ([], 12, Some(MembershipView { epoch: 2, alive_mask: 15 }), Some(Alive)): sends: 12, heartbeats: 108, suspicions: 1, deaths: 1, epoch_bumps: 2",
            "n2 ([], 12, Some(MembershipView { epoch: 2, alive_mask: 15 }), Some(Alive)): recvs: 12, bytes_recved: 576, polls: 214, heartbeats: 107, suspicions: 1, deaths: 1, epoch_bumps: 2",
            "n3a Some(MembershipView { epoch: 0, alive_mask: 15 }): heartbeats: 3",
            "n3b (Ok(MembershipView { epoch: 2, alive_mask: 15 }), ok, ok, Some(MembershipView { epoch: 2, alive_mask: 15 })): sends: 1, recvs: 1, bytes_recved: 12, polls: 7, heartbeats: 72, epoch_bumps: 1",
        ],
        (23890, 16943395544173304092),
    ));
}

#[test]
fn quorum_freeze_heal_merge_is_pinned() {
    check(quorum_world, pin(
        (5020900, 12318, 29),
        "injections: 1275, words_carried: 4669, pio_writes: 4669, pio_reads: 26041, link_busy_ns: 12775395",
        &[
            "n0 ([ok, Partitioned { epoch: 0 }, ok, ok], 0, 0, Some(MembershipView { epoch: 2, alive_mask: 31 }), false): sends: 25, recvs: 1, bytes_recved: 10, polls: 1, gc_sweeps: 1, send_stalls: 1, send_failures: 15, heartbeats: 201, suspicions: 3, deaths: 3, epoch_bumps: 1, partitions_detected: 1",
            "n1 ([Partitioned { epoch: 0 }, Partitioned { epoch: 0 }, Some(0)], 0, 24, Some(MembershipView { epoch: 2, alive_mask: 31 }), false): recvs: 24, bytes_recved: 336, polls: 131, heartbeats: 185, suspicions: 3, deaths: 3, epoch_bumps: 1, partitions_detected: 1",
            "n2 ([back from the cold, ok], 30, 0, Some(MembershipView { epoch: 2, alive_mask: 31 }), false): sends: 31, recvs: 1, bytes_recved: 18, polls: 4, gc_sweeps: 1, send_stalls: 1, heartbeats: 193, suspicions: 2, deaths: 2, epoch_bumps: 2, stale_epoch_rejects: 5",
            "n3 ([], 0, 30, Some(MembershipView { epoch: 2, alive_mask: 31 }), false): recvs: 30, bytes_recved: 960, polls: 178, heartbeats: 178, suspicions: 2, deaths: 2, epoch_bumps: 2",
            "n4 ([Timeout { peer: 3, attempts: 0 }, None], 0, 0, Some(MembershipView { epoch: 2, alive_mask: 31 }), false): polls: 807, recv_timeouts: 1, heartbeats: 215, suspicions: 2, deaths: 2, epoch_bumps: 2",
        ],
        (50919, 14733269008832274764),
    ));
}

#[test]
fn frozen_recv_deadline_returns_at_its_deadline() {
    // Captured with the fix (before it this world never ended): `None`,
    // zero nanoseconds late, still frozen, heartbeat kept up meanwhile.
    check(frozen_deadline_world, pin(
        (1017000, 1613, 12),
        "injections: 207, words_carried: 816, pio_writes: 816, pio_reads: 4824, link_busy_ns: 1542420",
        &[
            "n0 []: heartbeats: 40, suspicions: 3, deaths: 3, partitions_detected: 1",
            "n1 [None 0 ns late, Some(0)]: heartbeats: 41, suspicions: 3, deaths: 3, partitions_detected: 1",
            "n2 []: heartbeats: 40, suspicions: 2, deaths: 2, epoch_bumps: 1",
            "n3 []: heartbeats: 40, suspicions: 2, deaths: 2, epoch_bumps: 1",
            "n4 []: heartbeats: 40, suspicions: 2, deaths: 2, epoch_bumps: 1",
        ],
        (6883, 9387935617359335369),
    ));
}

#[test]
fn credits_and_doorbells_are_pinned() {
    check(credit_world, pin(
        (603100, 1851, 18),
        "injections: 56, words_carried: 110, pio_writes: 110, pio_reads: 454, link_busy_ns: 202950 | injections: 28, words_carried: 344, pio_writes: 44, pio_reads: 620, bursts: 12, link_busy_ns: 423120 | injections: 16, words_carried: 32, pio_writes: 32, pio_reads: 34, interrupts: 8, link_busy_ns: 39360",
        &[
            "bl0 ([PeerDown { peer: 1 }, credits Some(1), PeerDown { peer: 1 }, credits Some(1), ok, ok, ok, ok], Some(1), Some(1)): sends: 4, gc_sweeps: 5, send_stalls: 1, retries: 2, send_failures: 2, failed_slot_reclaims: 2, credit_stalls: 3, credits_reclaimed: 2",
            "bl2 [ok, ok, ok, ok]: recvs: 4, bytes_recved: 400, polls: 296",
            "ff0 [ok, ok, ok, NoCredit { peer: 1 }, credits Some(0), rang 3, ok, ok, rang 0, NoCredit { peer: 1 }, credits Some(3)/Some(3), ok, ok, ok, NoCredit { peer: 1 }, rang 2, credits Some(3)/Some(3), ok, ok, ok, NoCredit { peer: 1 }, rang 2, credits Some(3)/Some(3), ok, ok, ok, NoCredit { peer: 1 }, rang 2]: sends: 11, mcasts: 3, gc_sweeps: 46, send_failures: 5, no_credit_failures: 5, flag_writes_coalesced: 5",
            "ff1 [24, 24, 24, 16, 4, 4, 16, 4, 4, 16, 4, 4]: recvs: 12, bytes_recved: 144, polls: 145",
            "ff2 [8, 8, 16, 16, 16]: recvs: 5, bytes_recved: 64, polls: 156",
            "ub0 [ok, ok, ok, ok]: sends: 4, gc_sweeps: 6, credit_stalls: 6",
            "ub1 [ok, ok, ok, ok]: recvs: 4, bytes_recved: 48, polls: 4",
        ],
        (8464, 1102304624568543290),
    ));
}

/// Moved on purpose once since 20eea90: `n0`'s wait for its last ACKs
/// (`all_acked`, else `wait_for_traffic`) now wakes on the ACK watch while
/// sends are outstanding. It used to sleep on the MESSAGE watch alone and
/// wake only for `n1`'s closing `done`: `(286860, 180, 8)`, 206 PIO reads,
/// 17 sweeps, log `(1262, 4041574983203036694)`. Now it sweeps at each of
/// `n1`'s late ACKs and finishes once the last has landed.
#[test]
fn slotted_interrupt_stalls_are_pinned() {
    check(slotted_interrupt_world, pin(
        (280560, 185, 8),
        "injections: 57, words_carried: 202, pio_writes: 186, pio_reads: 209, bursts: 3, interrupts: 29, link_busy_ns: 372690",
        &[
            "n0 [ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, ok, MessageTooLarge { len: 65, max: 64 }]: sends: 12, mcasts: 1, gc_sweeps: 19, send_stalls: 15, send_failures: 1",
            "n1 [16, 24, 32, 40, 48, 56, 64]: sends: 1, recvs: 7, bytes_recved: 280, polls: 5",
            "n2 [20, 28, 36, 44, 52, 60, 64]: recvs: 7, bytes_recved: 304, polls: 13",
        ],
        (1287, 4383377320117398034),
    ));
}
