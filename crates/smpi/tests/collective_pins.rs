//! Nanosecond pins for every collective and the point-to-point corners
//! around them.
//!
//! The benchmark and `tests/determinism.rs` pin native `bcast`,
//! `barrier` and `allreduce` only. These worlds pin the rest: every
//! public collective under both [`CollectiveImpl`]s on SCRAMNet (4 and 16
//! ranks) and Fast Ethernet (3 ranks), the oversized-broadcast fallback,
//! a rendezvous send and `iprobe`, and the failure-aware collectives on a
//! membership world, healthy and with a rank killed mid-collective. Each
//! asserts the run's `(end_time, dispatches, peak_queue_depth)`, the
//! network's traffic counters, and every rank's exit time and an FNV-1a
//! hash of everything its calls returned, against constants captured at
//! commit 1aa35cd. The six `every_collective` pins were re-captured when
//! `ssend`, `scatter`, `exscan`, `reduce_scatter_block` and `comm_dup`
//! were deleted: recorded on the commit before, with only those calls
//! taken out of the world.
//!
//! Every world runs twice — event log on and off — and both must match
//! the pin, and each other in what the host did (`relayed`, `handoffs`):
//! recording forks nothing.
//!
//! A mismatch prints the observed pin as a Rust literal. Re-bless only
//! when a change *means* to move simulated behaviour, and say so.

use std::fmt::Debug;
use std::sync::Arc;

use des::obs::{attribute, Event, Layer};
use des::{us, ProcCtx, Simulation, Time};
use parking_lot::Mutex;
use smpi::{CollectiveImpl, Comm, Mpi, MpiWorld, ReduceOp};

/// What a world is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `(end_time, dispatches, peak_queue_depth)`.
    run: (u64, u64, usize),
    /// The network's non-zero traffic counters.
    net: String,
    /// `(exit time, hash of everything returned)` per rank.
    ranks: Vec<(Time, u64)>,
    /// `(relayed, handoffs)`: what the host did. Held equal between the
    /// recorded and the unrecorded run, not to a constant — ROADMAP items
    /// 2 and 3 mean to move it.
    host: (u64, u64),
}

impl Pin {
    /// This pin as the `pin(..)` call that would expect it.
    fn literal(&self) -> String {
        format!(
            "pin(\n        {:?},\n        {:?},\n        &{:?},\n    )",
            self.run, self.net, self.ranks
        )
    }
}

fn pin(run: (u64, u64, usize), net: &str, ranks: &[(Time, u64)]) -> Pin {
    Pin {
        run,
        net: net.into(),
        ranks: ranks.to_vec(),
        host: (0, 0), // `hold` fills it in
    }
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

/// Everything one rank's calls returned, folded into a hash when it exits.
#[derive(Default)]
struct Returned(String);

impl Returned {
    fn push(&mut self, what: &str, value: impl Debug) {
        self.0.push_str(&format!("{what}={value:?};"));
    }

    fn hash(&self) -> u64 {
        self.0.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

type Exits = Arc<Mutex<Vec<(usize, Time, u64)>>>;

/// Spawn `body` on every rank in `ranks`; each leaves its exit time and
/// the hash of what it logged.
fn spawn_ranks<F>(sim: &mut Simulation, world: &MpiWorld, ranks: &[usize], exits: &Exits, body: F)
where
    F: Fn(&mut Mpi, &mut ProcCtx, &mut Returned) + Send + Sync + 'static,
{
    let body = Arc::new(body);
    for &rank in ranks {
        let mut mpi = world.proc(rank);
        let body = Arc::clone(&body);
        let exits = Arc::clone(exits);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let mut log = Returned::default();
            body(&mut mpi, ctx, &mut log);
            exits.lock().push((rank, ctx.now(), log.hash()));
        });
    }
}

fn observe(sim: &mut Simulation, world: &MpiWorld, exits: &Exits) -> Pin {
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let net = match (world.bbp_cluster(), world.tcp_net()) {
        (Some(cluster), _) => nonzero(&cluster.ring().stats()),
        (None, Some(net)) => nonzero(&net.fabric().stats()),
        (None, None) => unreachable!("every world has a network"),
    };
    let mut exits = exits.lock().clone();
    exits.sort_unstable();
    Pin {
        run: (report.end_time, report.dispatches, report.peak_queue_depth),
        net,
        ranks: exits.iter().map(|&(_, at, hash)| (at, hash)).collect(),
        host: (report.relayed, report.handoffs),
    }
}

fn hold(seen: &Pin, mut expect: Pin, which: &str) {
    expect.host = seen.host;
    assert_eq!(seen, &expect, "{which} run; observed:\n{}", seen.literal());
}

/// Run `world` recorded and unrecorded and hold both to `expect`.
fn check(world: impl Fn(bool) -> Pin, expect: Pin) {
    let (recorded, unrecorded) = (world(true), world(false));
    assert_eq!(recorded, unrecorded, "recorded and unrecorded runs");
    hold(&recorded, expect, "recorded");
}

fn new_sim(traced: bool) -> Simulation {
    let sim = Simulation::new();
    if traced {
        sim.enable_trace();
    }
    sim
}

/// Index byte + seeded fill, so a mangled or misrouted block shows.
fn payload(index: usize, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| (index as u8).wrapping_mul(31).wrapping_add(j as u8))
        .collect()
}

/// One byte past what a single BBP frame carries under the Channel
/// Interface header (`max_payload_bytes` 16 380 − 64), so the native
/// broadcast must fall back to root-driven sends; past the rendezvous
/// threshold too, so those sends handshake.
const PAST_ONE_FRAME: usize = 16_400;

// ----------------------------------------------------------------------
// 1. Every collective, both implementations, three worlds.
// ----------------------------------------------------------------------

fn every_collective(mpi: &mut Mpi, ctx: &mut ProcCtx, comm: &Comm, log: &mut Returned) {
    let (n, me) = (comm.size(), comm.rank());
    for (root, len) in [(0, 4), (n - 1, 1024), (1, PAST_ONE_FRAME)] {
        let data = payload(root, len);
        let got = mpi.bcast(ctx, comm, root, (me == root).then_some(&data[..]));
        assert_eq!(got, data, "bcast of {len} from {root}");
        log.push("bcast", ctx.now());
    }
    mpi.barrier(ctx, comm);
    mpi.barrier(ctx, comm);
    log.push("barriers", ctx.now());

    log.push("gather", mpi.gather(ctx, comm, 1, &payload(me, 8 + me)));
    log.push("allgather", mpi.allgather(ctx, comm, &payload(me, 3 * me)));
    let blocks: Vec<Vec<u8>> = (0..n).map(|r| payload(me * n + r, 4 + r)).collect();
    log.push("alltoall", mpi.alltoall(ctx, comm, &blocks));

    let mine = [me as f64, 1.0, -(me as f64) / 2.0];
    log.push("reduce", mpi.reduce(ctx, comm, n - 1, ReduceOp::Sum, &mine));
    log.push("allreduce", mpi.allreduce(ctx, comm, ReduceOp::Max, &mine));
    log.push("scan", mpi.scan(ctx, comm, ReduceOp::Sum, &mine));

    let half = mpi
        .comm_split(ctx, comm, (me % 2) as i64, -(me as i64))
        .expect("a non-negative color");
    log.push("comm_split", (half.rank(), half.size()));
    mpi.barrier(ctx, &half);
    let word = payload(9, 4);
    let lead = half.rank() == 0;
    log.push(
        "half.bcast",
        mpi.bcast(ctx, &half, 0, lead.then_some(&word[..])),
    );

    // Point-to-point corners: a rendezvous-sized send, and a receiver
    // that probes before it posts.
    match me {
        0 => mpi.send(ctx, comm, 1, 5, &payload(5, 20 * 1024)).unwrap(),
        1 => {
            let mut probes = 0u32;
            let seen = loop {
                probes += 1;
                if let Some(status) = mpi.iprobe(ctx, comm, Some(0), Some(5)).unwrap() {
                    break status;
                }
            };
            log.push("iprobe", (probes, seen));
            let (status, data) = mpi.recv(ctx, comm, Some(0), Some(5)).unwrap();
            log.push("recv", status);
            assert_eq!(data, payload(5, data.len()));
        }
        _ => {}
    }
}

fn plain_world(make: fn(&Simulation) -> MpiWorld, coll: CollectiveImpl, traced: bool) -> Pin {
    let mut sim = new_sim(traced);
    let world = make(&sim);
    let exits: Exits = Arc::default();
    let all: Vec<usize> = (0..world.nprocs()).collect();
    spawn_ranks(&mut sim, &world, &all, &exits, move |mpi, ctx, log| {
        let comm = mpi.comm_world().with_collectives(coll);
        every_collective(mpi, ctx, &comm, log);
    });
    observe(&mut sim, &world, &exits)
}

fn scramnet4(sim: &Simulation) -> MpiWorld {
    MpiWorld::scramnet(&sim.handle(), 4)
}

fn scramnet16(sim: &Simulation) -> MpiWorld {
    MpiWorld::scramnet(&sim.handle(), 16)
}

fn fast_ethernet3(sim: &Simulation) -> MpiWorld {
    MpiWorld::fast_ethernet(&sim.handle(), 3)
}

// ----------------------------------------------------------------------
// 2. The failure-aware collectives on a membership world.
// ----------------------------------------------------------------------

const VICTIM: usize = 3;

/// A 4-rank membership world whose rank 3 heartbeats until `kill_at`,
/// then dies (NIC silenced, process gone).
fn dying_world(sim: &mut Simulation, kill_at: Time, exits: &Exits) -> MpiWorld {
    let world = MpiWorld::scramnet_membership(&sim.handle(), 4);
    let ring = world.bbp_cluster().expect("scramnet world").ring().clone();
    sim.handle()
        .schedule_at(kill_at, move |_| ring.silence_node(VICTIM));
    spawn_ranks(sim, &world, &[VICTIM], exits, move |mpi, ctx, _| {
        while ctx.now() < kill_at {
            mpi.progress(ctx);
        }
    });
    world
}

/// Keep heartbeating until `at` (a sleeping rank would be graded dead).
fn progress_until(mpi: &mut Mpi, ctx: &mut ProcCtx, at: Time) {
    while ctx.now() < at {
        mpi.progress(ctx);
    }
}

/// Healthy: the `try_*` and the plain collectives, all four ranks.
fn membership_healthy(traced: bool) -> Pin {
    let mut sim = new_sim(traced);
    let world = MpiWorld::scramnet_membership(&sim.handle(), 4);
    let exits: Exits = Arc::default();
    spawn_ranks(&mut sim, &world, &[0, 1, 2, 3], &exits, |mpi, ctx, log| {
        let comm = mpi.comm_world();
        let me = comm.rank();
        log.push("try_barrier", mpi.try_barrier(ctx, &comm));
        // Small payloads only: a reliable multicast of 1 KB already keeps
        // its root away from the heartbeat for over `DEAD_AFTER_NS`.
        for (root, len) in [(0, 4), (2, 64), (1, 256)] {
            let data = payload(root, len);
            let got = mpi.try_bcast(ctx, &comm, root, (me == root).then_some(&data[..]));
            assert_eq!(got.as_ref(), Ok(&data));
            log.push("try_bcast", ctx.now());
        }
        log.push("try_barrier", mpi.try_barrier(ctx, &comm));
        mpi.barrier(ctx, &comm);
        let word = payload(1, 4);
        log.push(
            "bcast",
            mpi.bcast(ctx, &comm, 3, (me == 3).then_some(&word[..])),
        );
        mpi.barrier(ctx, &comm);
        log.push("view", mpi.membership());
    });
    observe(&mut sim, &world, &exits)
}

/// Rank 3 dies while the survivors sit in `try_barrier`; they fail typed,
/// shrink, and carry on in the shrunken communicator.
fn membership_kill_in_barrier(traced: bool) -> Pin {
    let kill_at = us(300);
    let mut sim = new_sim(traced);
    let exits: Exits = Arc::default();
    let world = dying_world(&mut sim, kill_at, &exits);
    spawn_ranks(
        &mut sim,
        &world,
        &[0, 1, 2],
        &exits,
        move |mpi, ctx, log| {
            let comm = mpi.comm_world();
            progress_until(mpi, ctx, kill_at + us(20));
            log.push("entered", mpi.membership());
            log.push("try_barrier", mpi.try_barrier(ctx, &comm));
            log.push("failed at", ctx.now());
            let shrunk = mpi.shrink(ctx, &comm).expect("survivors shrink");
            log.push("shrunk", (shrunk.rank(), shrunk.size(), ctx.now()));
            let word = payload(2, 64);
            let lead = shrunk.rank() == 2;
            log.push(
                "try_bcast",
                mpi.try_bcast(ctx, &shrunk, 2, lead.then_some(&word[..])),
            );
            log.push("try_barrier", mpi.try_barrier(ctx, &shrunk));
        },
    );
    observe(&mut sim, &world, &exits)
}

/// Rank 3 dies while the survivors sit in `try_bcast`: first with the
/// corpse as root (every receiver fails typed), then — each survivor on
/// its own, since the first failure poisoned nothing locally — as a
/// receiver of a rendezvous-sized broadcast (the root fails typed waiting
/// for the clear-to-send; live receivers may complete).
fn membership_kill_in_bcast(traced: bool) -> Pin {
    let kill_at = us(300);
    let mut sim = new_sim(traced);
    let exits: Exits = Arc::default();
    let world = dying_world(&mut sim, kill_at, &exits);
    spawn_ranks(
        &mut sim,
        &world,
        &[0, 1, 2],
        &exits,
        move |mpi, ctx, log| {
            let comm = mpi.comm_world();
            let me = comm.rank();
            progress_until(mpi, ctx, kill_at + us(20));
            if me == 0 {
                let data = payload(0, PAST_ONE_FRAME);
                let got = mpi.try_bcast(ctx, &comm, 0, Some(&data[..]));
                log.push("root", got.map(|bytes| bytes.len()));
            } else {
                let got = mpi.try_bcast(ctx, &comm, VICTIM, None);
                log.push("receiver", got);
            }
            log.push("out at", (ctx.now(), mpi.membership()));
        },
    );
    observe(&mut sim, &world, &exits)
}

// ----------------------------------------------------------------------
// The pins (captured at 1aa35cd; see the module docs before touching).
// ----------------------------------------------------------------------

#[test]
fn scramnet_4_ranks_native() {
    check(
        |traced| plain_world(scramnet4, CollectiveImpl::Native, traced),
        pin(
        (19013920, 97820, 29),
        "injections: 288, words_carried: 19052, pio_writes: 365, pio_reads: 52102, bursts: 116, link_busy_ns: 46867920",
        &[(18105690, 11370183338333143104), (19013920, 2854675383979754317), (13847115, 17118788075662698630), (13852580, 12408362967769227273)],
    ),
    );
}

#[test]
fn scramnet_4_ranks_point_to_point() {
    check(
        |traced| plain_world(scramnet4, CollectiveImpl::PointToPoint, traced),
        pin(
        (18197600, 94296, 27),
        "injections: 316, words_carried: 20102, pio_writes: 395, pio_reads: 45572, bursts: 158, link_busy_ns: 49450920",
        &[(17288830, 2833541443311906938), (18197600, 11575711116784961554), (12995005, 16024655783731003901), (13048660, 13505263125274540192)],
    ),
    );
}

#[test]
fn scramnet_16_ranks_native() {
    // Unrecorded only: sixteen ranks polling through three million
    // dispatches would hold a log of some ten million records, and the
    // four-rank worlds already hold recorded and unrecorded runs to one
    // pin.
    hold(
        &plain_world(scramnet16, CollectiveImpl::Native, false),
        pin(
        (74907805, 2889604, 696),
        "injections: 2040, words_carried: 77391, pio_writes: 2537, pio_reads: 1400472, bursts: 884, link_busy_ns: 761527440",
        &[(73987670, 2576761940125439353), (74907805, 17992389904699246503), (69653115, 9860384348293946909), (69667380, 12512279187477724501), (69655840, 12947625373002335808), (69664795, 15888507173513430720), (69657880, 7910042501475659416), (69674725, 15651760076826718210), (69651985, 12769090789550193091), (69671360, 16240218074614502373), (69650745, 8526937889609991947), (69664310, 3899256785919547017), (69654170, 17268440177300793728), (69664825, 16201439488606824156), (69584185, 12017330701964535956), (69588250, 11850560969867279515)],
    ),
        "unrecorded",
    );
}

#[test]
fn scramnet_16_ranks_point_to_point() {
    hold(
        &plain_world(scramnet16, CollectiveImpl::PointToPoint, false),
        pin(
        (64010885, 2399353, 480),
        "injections: 2284, words_carried: 87203, pio_writes: 2855, pio_reads: 1096145, bursts: 1142, link_busy_ns: 858077520",
        &[(63091275, 5017114395979305576), (64010885, 4839153788539953653), (58544905, 94594335013204864), (58775345, 2826435060843573049), (58568710, 16134691282178360993), (58766275, 8095696201430012469), (58446875, 16284063268042672845), (58640025, 3143601385223174829), (58560190, 9231812434369737160), (58792890, 1230785812724962276), (58442235, 14682807426350462770), (58667775, 9477322821567420949), (58436040, 10470393488174989247), (58656155, 5023708933259399305), (58278580, 8139506868752908055), (58508950, 12820499656131571250)],
    ),
        "unrecorded",
    );
}

#[test]
fn fast_ethernet_3_ranks_native_falls_back() {
    check(
        |traced| plain_world(fast_ethernet3, CollectiveImpl::Native, traced),
        pin(
            (11134320, 6234, 6),
            "segments: 84, payload_bytes: 58959, wire_bytes: 63831",
            &[
                (8708620, 13486303715896221182),
                (11134320, 10182581787016819564),
                (7729580, 12801502204600207648),
            ],
        ),
    );
}

#[test]
fn fast_ethernet_3_ranks_point_to_point() {
    check(
        |traced| plain_world(fast_ethernet3, CollectiveImpl::PointToPoint, traced),
        pin(
            (11134320, 6234, 6),
            "segments: 84, payload_bytes: 58959, wire_bytes: 63831",
            &[
                (8708620, 13486303715896221182),
                (11134320, 10182581787016819564),
                (7729580, 12801502204600207648),
            ],
        ),
    );
}

#[test]
fn membership_world_healthy() {
    check(membership_healthy, pin(
        (661535, 2894, 19),
        "injections: 186, words_carried: 483, pio_writes: 257, pio_reads: 2769, bursts: 17, link_busy_ns: 1188180",
        &[(661535, 10474892531099526130), (657110, 11724021869316836582), (651560, 10526389638121800250), (657335, 11058971935712148956)],
    ));
}

#[test]
fn membership_world_kill_in_barrier() {
    check(membership_kill_in_barrier, pin(
        (1092930, 3678, 9),
        "injections: 204, words_carried: 269, pio_writes: 237, pio_reads: 4986, bursts: 3, link_busy_ns: 597165",
        &[(1092930, 7572943412989265326), (1091980, 7275647292665747410), (1085730, 13685356858280654749), (304000, 14695981039346656037)],
    ));
}

#[test]
fn membership_world_kill_in_bcast() {
    check(membership_kill_in_bcast, pin(
        (1999400, 3416, 9),
        "injections: 146, words_carried: 278, pio_writes: 166, pio_reads: 5078, bursts: 9, link_busy_ns: 629760",
        &[(1999400, 4883236204837230650), (918200, 17817636781278661294), (928200, 17635510538980548215), (304000, 14695981039346656037)],
    ));
}

// ----------------------------------------------------------------------
// Observability: a collective's time belongs to the MPI layer.
// ----------------------------------------------------------------------

/// The top-level `Layer::Mpi` spans rank `node` opened, as `(name,
/// extent)`, from one world's event log.
fn top_level_mpi_spans(events: &[Event], node: u32) -> Vec<(&'static str, Time)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut opened = 0;
    for ev in events {
        match *ev {
            Event::SpanEnter {
                time,
                node: n,
                layer: Layer::Mpi,
                ..
            } if n == node => {
                if depth == 0 {
                    opened = time;
                }
                depth += 1;
            }
            Event::SpanExit {
                time,
                node: n,
                layer: Layer::Mpi,
                name,
            } if n == node => {
                depth -= 1;
                if depth == 0 {
                    out.push((name, time - opened));
                }
            }
            _ => {}
        }
    }
    out
}

/// Every public collective is covered by balanced top-level MPI-layer
/// spans — exactly one per leaf collective, the leaves' for a composite —
/// and spends no virtual time outside them, so `obs::attribute` files all
/// of it under a layer.
#[test]
fn every_collective_is_covered_by_balanced_mpi_spans() {
    type Call = fn(&mut Mpi, &mut ProcCtx, &Comm);
    let calls: [(&[&str], Call); 9] = [
        (&["bcast"], |m, c, comm| {
            let d = (comm.rank() == 0).then_some(&b"word"[..]);
            m.bcast(c, comm, 0, d);
        }),
        (&["barrier"], |m, c, comm| m.barrier(c, comm)),
        (&["gather"], |m, c, comm| {
            m.gather(c, comm, 0, b"mine");
        }),
        (&["gather", "bcast"], |m, c, comm| {
            m.allgather(c, comm, b"mine");
        }),
        (&["alltoall"], |m, c, comm| {
            m.alltoall(c, comm, &vec![vec![7u8; 8]; comm.size()]);
        }),
        (&["reduce"], |m, c, comm| {
            m.reduce(c, comm, 0, ReduceOp::Sum, &[1.0, 2.0]);
        }),
        (&["reduce", "bcast"], |m, c, comm| {
            m.allreduce(c, comm, ReduceOp::Sum, &[1.0, 2.0]);
        }),
        (&["scan"], |m, c, comm| {
            m.scan(c, comm, ReduceOp::Sum, &[1.0, 2.0]);
        }),
        (&["gather", "bcast"], |m, c, comm| {
            m.comm_split(c, comm, 0, 0);
        }),
    ];
    for coll in [CollectiveImpl::Native, CollectiveImpl::PointToPoint] {
        for (spans, call) in calls {
            let mut sim = new_sim(true);
            let world = MpiWorld::scramnet(&sim.handle(), 4);
            let exits: Exits = Arc::default();
            spawn_ranks(
                &mut sim,
                &world,
                &[0, 1, 2, 3],
                &exits,
                move |mpi, ctx, _| {
                    let comm = mpi.comm_world().with_collectives(coll);
                    call(mpi, ctx, &comm);
                },
            );
            let report = sim.run();
            assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
            let events = sim.recorder().take_events();
            assert_eq!(attribute(&events).unbalanced, 0, "{spans:?} under {coll:?}");
            for &(rank, exit, _) in exits.lock().iter() {
                let seen = top_level_mpi_spans(&events, rank as u32);
                let names: Vec<&str> = seen.iter().map(|&(name, _)| name).collect();
                assert_eq!(names, spans, "rank {rank} under {coll:?}");
                // Every rank starts at 0, so the spans' extents must add
                // up to its exit time: nothing was charged between them.
                let covered: Time = seen.iter().map(|&(_, extent)| extent).sum();
                assert_eq!(covered, exit, "{spans:?} at rank {rank} under {coll:?}");
            }
        }
    }
}
