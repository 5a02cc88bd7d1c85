//! The whole stack is deterministic: identical programs produce
//! byte-identical schedules and identical virtual end times, run after
//! run. This is what makes the experiment tables reproducible.

use scramnet_cluster::bbp::{BbpCluster, BbpConfig, EndpointStats};
use scramnet_cluster::des::rng::SimRng;
use scramnet_cluster::des::{RunReport, SimHandle, Simulation};
use scramnet_cluster::scramnet::RingStats;
use scramnet_cluster::smpi::{MpiWorld, ReduceOp};

/// A moderately chaotic BBP workload driven by a seeded RNG: the traffic
/// plan (who sends what to whom, with what think time) is generated up
/// front so every receiver knows exactly how many messages to drain.
fn chaotic_bbp_run(seed: u64) -> (u64, u64, Vec<String>) {
    let (report, trace) = chaotic_bbp_report(seed);
    (report.end_time, report.dispatches, trace)
}

fn chaotic_bbp_report(seed: u64) -> (RunReport, Vec<String>) {
    // Plan: per sender, a list of (dst, payload, think-time ns).
    let mut plans: Vec<Vec<(usize, Vec<u8>, u64)>> = Vec::new();
    let mut incoming = [0usize; 4];
    for rank in 0..4usize {
        let mut rng = SimRng::seeded(seed ^ rank as u64);
        let peers: Vec<usize> = (0..4).filter(|&p| p != rank).collect();
        let mut plan = Vec::new();
        for _ in 0..12 {
            let dst = peers[rng.index(peers.len())];
            let len = rng.below(200) as usize;
            let payload = rng.payload(len);
            let think = if rng.chance(0.3) { rng.below(5_000) } else { 0 };
            incoming[dst] += 1;
            plan.push((dst, payload, think));
        }
        plans.push(plan);
    }

    let mut sim = Simulation::new();
    sim.enable_trace();
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
    for (rank, plan) in plans.into_iter().enumerate() {
        let mut ep = cluster.endpoint(rank);
        let expect = incoming[rank];
        sim.spawn(format!("p{rank}"), move |ctx| {
            for (dst, payload, think) in plan {
                ep.send(ctx, dst, &payload).unwrap();
                if think > 0 {
                    ctx.advance(think);
                }
            }
            for _ in 0..expect {
                let _ = ep.recv_any(ctx);
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let trace: Vec<String> = sim.take_trace().iter().map(|e| e.to_string()).collect();
    (report, trace)
}

/// `(end_time, dispatches, peak_queue_depth)` of a run.
fn counters(report: &RunReport) -> (u64, u64, usize) {
    (report.end_time, report.dispatches, report.peak_queue_depth)
}

fn mpi_collective_world() -> Simulation {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 4);
    for rank in 0..4 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[mpi.rank() as f64 + 0.5]);
            mpi.barrier(ctx, &comm);
        });
    }
    sim
}

fn ethernet_world() -> Simulation {
    let mut sim = Simulation::new();
    let world = MpiWorld::fast_ethernet(&sim.handle(), 3);
    for rank in 0..3 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            for _ in 0..3 {
                mpi.barrier(ctx, &comm);
            }
        });
    }
    sim
}

/// The schedule is a function of the program alone, not of how the
/// kernel moves control between OS threads: these are the values the
/// Condvar-handshake scheduler (the commit before baton passing)
/// produced for the three scenarios of this file, and every later kernel
/// must reproduce them. The trace hash is FNV-1a over the rendered
/// entries of the chaotic run, newline-separated.
#[test]
fn schedule_counters_match_the_recorded_baseline() {
    const CHAOTIC_FEED: (u64, u64, usize) = (1_060_150, 8_375, 142);
    const CHAOTIC_FEED_TRACE: (usize, u64) = (16_173, 8_218_158_300_327_374_568);
    const MPI_COLLECTIVE: (u64, u64, usize) = (206_925, 1_497, 12);
    const ETHERNET: (u64, u64, usize) = (1_290_760, 797, 5);

    let (report, trace) = chaotic_bbp_report(0xFEED);
    assert_eq!(counters(&report), CHAOTIC_FEED, "chaotic BBP run");
    let hash = trace
        .iter()
        .flat_map(|line| line.bytes().chain(std::iter::once(b'\n')))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!((trace.len(), hash), CHAOTIC_FEED_TRACE, "chaotic BBP trace");
    assert_eq!(
        counters(&mpi_collective_world().run()),
        MPI_COLLECTIVE,
        "allreduce + barrier on 4 ranks"
    );
    assert_eq!(
        counters(&ethernet_world().run()),
        ETHERNET,
        "three barriers on 3 Ethernet ranks"
    );
}

/// What a recorded and an unrecorded run of one world must agree on: the
/// run — `handoffs` and `relayed`, what the host did, included — the
/// ring's traffic (`pio_reads` among it) and each endpoint's counters
/// (`polls` among them).
type Outcome = (RunReport, RingStats, Vec<EndpointStats>);

fn simulation(traced: bool) -> Simulation {
    let sim = Simulation::new();
    if traced {
        sim.enable_trace();
    }
    sim
}

/// BBP ping-pong over a ladder of sizes; `traced` turns the event log on.
fn bbp_pingpong(traced: bool) -> Outcome {
    let mut sim = simulation(traced);
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let mut procs: Vec<_> = (0..2)
        .map(|rank| {
            let mut ep = cluster.endpoint(rank);
            sim.spawn(format!("p{rank}"), move |ctx| {
                for len in (0..=700).step_by(100) {
                    let payload = vec![len as u8; len];
                    for _ in 0..3 {
                        if rank == 0 {
                            ep.send(ctx, 1, &payload).unwrap();
                            assert_eq!(ep.recv(ctx, 1).unwrap(), payload);
                        } else {
                            assert_eq!(ep.recv(ctx, 0).unwrap(), payload);
                            ep.send(ctx, 0, &payload).unwrap();
                        }
                    }
                }
                ep.stats().clone()
            })
        })
        .collect();
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let stats = procs.iter_mut().map(|p| p.take().unwrap()).collect();
    (report, cluster.ring().stats(), stats)
}

/// One server receiving from anyone — a sweep of five flag words per
/// empty poll — and five clients that each send it a burst, think, and
/// wait for the echo of their last message.
fn bbp_server(traced: bool) -> Outcome {
    const CLIENTS: usize = 5;
    const BURST: usize = 6;
    let mut sim = simulation(traced);
    let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(CLIENTS + 1));
    let mut server = cluster.endpoint(0);
    let mut procs = vec![sim.spawn("server", move |ctx| {
        let mut last = [0usize; CLIENTS + 1];
        for _ in 0..CLIENTS * BURST {
            let (src, msg) = server.recv_any(ctx).unwrap();
            last[src] += 1;
            if last[src] == BURST {
                server.send(ctx, src, &msg).unwrap();
            }
        }
        server.stats().clone()
    })];
    for rank in 1..=CLIENTS {
        let mut ep = cluster.endpoint(rank);
        procs.push(sim.spawn(format!("client{rank}"), move |ctx| {
            for i in 0..BURST {
                ep.send(ctx, 0, &vec![rank as u8; 8 * (i + rank)]).unwrap();
                ctx.advance(3_000 * rank as u64);
            }
            let echo = ep.recv(ctx, 0).unwrap();
            assert_eq!(echo, vec![rank as u8; 8 * (BURST - 1 + rank)]);
            ep.stats().clone()
        }));
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let stats = procs.iter_mut().map(|p| p.take().unwrap()).collect();
    (report, cluster.ring().stats(), stats)
}

/// Bcast, barrier and a ring of send/recv on `n` ranks.
fn mpi_world(n: usize, traced: bool) -> Outcome {
    mpi_world_on(MpiWorld::scramnet, n, traced)
}

/// [`mpi_world`] on the `n` ranks of whatever world `build` makes.
fn mpi_world_on(build: fn(&SimHandle, usize) -> MpiWorld, n: usize, traced: bool) -> Outcome {
    let mut sim = simulation(traced);
    let world = build(&sim.handle(), n);
    for rank in 0..n {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            for round in 0..3u8 {
                let root = usize::from(round) % n;
                let data = [round; 40];
                let got = mpi.bcast(ctx, &comm, root, (rank == root).then_some(&data[..]));
                assert_eq!(got, data);
                mpi.barrier(ctx, &comm);
                let (next, prev) = ((rank + 1) % n, (rank + n - 1) % n);
                let msg = vec![rank as u8; 16 * (usize::from(round) + 1)];
                if rank % 2 == 0 {
                    mpi.send(ctx, &comm, next, 7, &msg).unwrap();
                    mpi.recv(ctx, &comm, Some(prev), Some(7)).unwrap();
                } else {
                    mpi.recv(ctx, &comm, Some(prev), Some(7)).unwrap();
                    mpi.send(ctx, &comm, next, 7, &msg).unwrap();
                }
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let stats = world
        .bbp_cluster()
        .expect("a SCRAMNet world")
        .ring()
        .stats();
    (report, stats, Vec::new())
}

/// One world as the *eager* path ran it — every `ProcCtx::charge` an
/// `advance`, every poll sweep the loop of `read_word`s it stands for —
/// which is what recording did to a run up to commit bab5c31, where these
/// were captured from the recorded runs. The path is gone; what it
/// computed stays here as numbers.
struct Eager {
    what: &'static str,
    /// `(end_time, dispatches, peak_queue_depth)`.
    run: (u64, u64, usize),
    /// `[injections, words_carried, pio_writes, pio_reads, bursts,
    /// link_busy_ns]`; every other ring counter is zero.
    ring: [u64; 6],
    /// Per endpoint, `[sends, recvs, bytes_recved, polls, gc_sweeps,
    /// send_stalls]`; every other endpoint counter is zero.
    endpoints: &'static [[u64; 6]],
}

impl Eager {
    fn ring(&self) -> RingStats {
        let [injections, words_carried, pio_writes, pio_reads, bursts, link_busy_ns] = self.ring;
        RingStats {
            injections,
            words_carried,
            pio_writes,
            pio_reads,
            bursts,
            link_busy_ns,
            ..Default::default()
        }
    }

    fn endpoints(&self) -> Vec<EndpointStats> {
        let stats = |&[sends, recvs, bytes_recved, polls, gc_sweeps, send_stalls]: &[u64; 6]| {
            EndpointStats {
                sends,
                recvs,
                bytes_recved,
                polls,
                gc_sweeps,
                send_stalls,
                ..Default::default()
            }
        };
        self.endpoints.iter().map(stats).collect()
    }
}

const EAGER: [Eager; 6] = [
    Eager {
        what: "BBP ping-pong",
        run: (4_071_015, 10_499, 5),
        ring: [186, 4_440, 240, 9_604, 84, 5_461_200],
        endpoints: &[[24, 24, 8_400, 4_828, 1, 1], [24, 24, 8_400, 4_630, 1, 1]],
    },
    Eager {
        what: "BBP server",
        run: (407_115, 5_357, 71),
        ring: [140, 585, 427, 2_564, 18, 2_158_650],
        endpoints: &[
            [5, 30, 1_320, 120, 0, 0],
            [6, 1, 48, 431, 0, 0],
            [6, 1, 56, 423, 0, 0],
            [6, 1, 64, 416, 0, 0],
            [6, 1, 72, 411, 0, 0],
            [6, 1, 80, 406, 0, 0],
        ],
    },
    Eager {
        what: "MPI world, 3 ranks",
        run: (530_640, 1_774, 11),
        ring: [96, 420, 126, 853, 27, 774_900],
        endpoints: &[],
    },
    Eager {
        what: "MPI world, 4 ranks",
        run: (594_340, 3_337, 16),
        ring: [132, 537, 171, 1_509, 36, 1_321_020],
        endpoints: &[],
    },
    Eager {
        what: "MPI world, 8 ranks",
        run: (951_990, 15_901, 35),
        ring: [276, 1_005, 351, 6_603, 72, 4_944_600],
        endpoints: &[],
    },
    // Every empty progress poll is a sweep of fifteen words.
    Eager {
        what: "MPI world, 16 ranks",
        run: (2_206_390, 87_732, 79),
        ring: [564, 1_941, 711, 38_574, 144, 19_099_440],
        endpoints: &[],
    },
];

/// Recording forks nothing: with the event log on, a `charge` is still a
/// charge and a poll sweep still a sweep, so a recorded run is the
/// unrecorded run down to how often the host moved the baton — and both
/// are the simulation the eager path computed.
#[test]
fn a_recorded_run_is_the_unrecorded_run() {
    let worlds: [fn(bool) -> Outcome; 6] = [
        bbp_pingpong,
        bbp_server,
        |traced| mpi_world(3, traced),
        |traced| mpi_world(4, traced),
        |traced| mpi_world(8, traced),
        |traced| mpi_world(16, traced),
    ];
    let mut host = (0, 0);
    for (world, eager) in worlds.iter().zip(&EAGER) {
        let what = eager.what;
        let (recorded, unrecorded) = (world(true), world(false));
        for (report, ring, endpoints) in [&recorded, &unrecorded] {
            assert_eq!(counters(report), eager.run, "{what}");
            assert_eq!(ring, &eager.ring(), "{what}");
            assert_eq!(endpoints, &eager.endpoints(), "{what}");
        }
        host = (recorded.0.relayed, recorded.0.handoffs);
        assert_eq!(
            host,
            (unrecorded.0.relayed, unrecorded.0.handoffs),
            "{what}"
        );
        assert!(recorded.0.relayed > 0, "{what}: {:?}", recorded.0);
    }
    // The sixteen ranks, which run eagerly made 78 442 hand-offs and
    // relayed nothing — and 3 757, relaying 75 133, while a rank blocked
    // in a collective was still woken at the end of every idle sweep.
    assert_eq!(host, (76_407, 2_422));
}

/// A rank blocked in a collective sleeps until a flag word changes only
/// where sweeping is all its endpoint would do until then, and one cycle
/// holds the sweep. Seventeen ranks are sixteen flag words, one too many;
/// a membership world has heartbeats to publish between sweeps. Both pace
/// themselves, sweep by sweep, and are to the hand-off the runs they were
/// at commit 8197cc8, before there was anything else to do.
#[test]
fn worlds_that_cannot_sleep_pace_themselves_as_before() {
    /// A world, and its `(end_time, dispatches, peak_queue_depth)`,
    /// `(relayed, handoffs)` and `pio_reads` at that commit.
    type Paced = (
        &'static str,
        fn(bool) -> Outcome,
        ((u64, u64, usize), (u64, u64), u64),
    );
    let worlds: [Paced; 2] = [
        (
            "MPI world, 17 ranks",
            |traced| mpi_world(17, traced),
            ((2_377_875, 101_614, 80), (85_104, 6_350), 44_553),
        ),
        (
            "MPI world, 4 ranks with membership",
            |traced| mpi_world_on(MpiWorld::scramnet_membership, 4, traced),
            ((910_415, 3_648, 14), (557, 2_199), 3_366),
        ),
    ];
    for (what, world, then) in worlds {
        for traced in [true, false] {
            let (report, ring, _) = world(traced);
            let now = (
                counters(&report),
                (report.relayed, report.handoffs),
                ring.pio_reads,
            );
            assert_eq!(now, then, "{what}, traced: {traced}");
        }
    }
}

#[test]
fn identical_runs_produce_identical_traces() {
    let (t1, d1, trace1) = chaotic_bbp_run(0xFEED);
    let (t2, d2, trace2) = chaotic_bbp_run(0xFEED);
    assert_eq!(t1, t2, "virtual end times differ");
    assert_eq!(d1, d2, "dispatch counts differ");
    assert_eq!(trace1.len(), trace2.len(), "trace lengths differ");
    for (i, (a, b)) in trace1.iter().zip(&trace2).enumerate() {
        assert_eq!(a, b, "traces diverge at entry {i}");
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let (_, _, trace1) = chaotic_bbp_run(1);
    let (_, _, trace2) = chaotic_bbp_run(2);
    assert_ne!(
        trace1, trace2,
        "distinct seeds should explore distinct schedules"
    );
}

#[test]
fn mpi_collective_results_are_reproducible() {
    let run = || {
        let mut sim = Simulation::new();
        let world = MpiWorld::scramnet(&sim.handle(), 4);
        let mut ranks: Vec<_> = (0..4)
            .map(|rank| {
                let mut mpi = world.proc(rank);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    let comm = mpi.comm_world();
                    let v = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[mpi.rank() as f64 + 0.5]);
                    mpi.barrier(ctx, &comm);
                    (v[0], ctx.now())
                })
            })
            .collect();
        sim.run();
        ranks[0].take().unwrap()
    };
    let (v1, t1) = run();
    let (v2, t2) = run();
    assert_eq!(v1, 6.0 + 2.0);
    assert_eq!(v1, v2);
    assert_eq!(
        t1, t2,
        "identical collective schedules must take identical virtual time"
    );
}

#[test]
fn ethernet_worlds_are_deterministic_too() {
    let run = || ethernet_world().run().end_time;
    assert_eq!(run(), run());
}
