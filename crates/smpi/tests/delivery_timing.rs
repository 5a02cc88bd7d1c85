//! What an MPI receive gets does not depend on timing: the hardware's
//! costs (each of `CostModel`'s five fields at ¼ to 8 times its default)
//! and the ranks' start skews move *when* a message is matched, never
//! *which* one. A receive names its source and tag, and MPI matches the
//! messages of one `(source, tag)` to its receives in the order both were
//! made; `ANY_SOURCE` order is timing-dependent by design and is not
//! drawn.
//!
//! Each case is a program of eager sends and posted receives on 2–4
//! ranks: payloads of 0–256 bytes, tags from a set of three, drawn peers.
//! A rank interleaves its sends with `irecv`s, one for each message
//! addressed to it, posted by `(source, tag)` in a drawn order, and with
//! turns of the progress engine that leave what arrives meanwhile in the
//! unexpected queue; then it waits for its receives in the order it
//! posted them and returns what each got. The
//! check: each receive got the next message its `(source, tag)` was sent,
//! byte for byte, and the run ends with nobody blocked.
//!
//! A rank sends at most `bufs_per_proc` messages, each fitting one
//! buffer's share of its data partition, so no send waits and no program
//! can deadlock.

use bbp::BbpConfig;
use des::rng::SimRng;
use des::{Simulation, Time};
use scramnet::CostModel;
use smpi::{CollectiveImpl, MpiWorld, SmpiCosts, Tag};

/// The tags a program draws from.
const TAGS: [Tag; 3] = [0, 7, 42];

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Send `len` bytes to `dst` under `tag`.
    Send { dst: usize, tag: Tag, len: usize },
    /// Post a receive for the next message from `src` under `tag`.
    Recv { src: usize, tag: Tag },
    /// Turn the progress engine for `ns` without posting anything: what
    /// arrives meanwhile waits in the unexpected queue.
    Progress { ns: Time },
}

#[derive(Debug, Clone)]
struct Case {
    cost: CostModel,
    /// When each rank starts.
    starts: Vec<Time>,
    /// Each rank's steps, in order.
    scripts: Vec<Vec<Step>>,
}

/// The bytes rank `src` sends as its `k`th send.
fn payload(src: usize, k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (src * 101 + k * 17 + i) as u8).collect()
}

impl Case {
    /// What each `(source, tag)` sends `dst`, in order.
    fn sent_to(&self, dst: usize) -> Vec<((usize, Tag), Vec<u8>)> {
        let mut out = Vec::new();
        for (src, script) in self.scripts.iter().enumerate() {
            let sends = script.iter().filter_map(|step| match *step {
                Step::Send { dst, tag, len } => Some((dst, tag, len)),
                _ => None,
            });
            for (k, (to, tag, len)) in sends.enumerate() {
                if to == dst {
                    out.push(((src, tag), payload(src, k, len)));
                }
            }
        }
        out
    }

    /// Run the program; what went wrong, if anything.
    fn run(&self) -> Result<(), String> {
        let mut sim = Simulation::new();
        let n = self.scripts.len();
        let world = MpiWorld::scramnet_with(
            &sim.handle(),
            BbpConfig::for_nodes(n),
            self.cost.clone(),
            SmpiCosts::channel_interface(),
            CollectiveImpl::Native,
        );
        let mut ranks = Vec::with_capacity(n);
        for (rank, script) in self.scripts.iter().enumerate() {
            let (mut mpi, script) = (world.proc(rank), script.clone());
            ranks.push(
                sim.spawn_at(self.starts[rank], format!("r{rank}"), move |ctx| {
                    let comm = mpi.comm_world();
                    let (mut sent, mut posted) = (0, Vec::new());
                    for step in script {
                        match step {
                            Step::Send { dst, tag, len } => {
                                let bytes = payload(rank, sent, len);
                                mpi.send(ctx, &comm, dst, tag, &bytes)
                                    .expect("an eager send");
                                sent += 1;
                            }
                            Step::Recv { src, tag } => {
                                let req = mpi.irecv(ctx, &comm, Some(src), Some(tag));
                                posted.push(req.expect("a receive from a rank of the world"));
                            }
                            Step::Progress { ns } => {
                                let until = ctx.now() + ns;
                                while ctx.now() < until {
                                    mpi.progress(ctx);
                                }
                            }
                        }
                    }
                    let got = posted.into_iter().map(|req| mpi.wait_recv(ctx, &comm, req));
                    got.map(|(status, bytes)| ((status.source, status.tag), bytes))
                        .collect::<Vec<_>>()
                }),
            );
        }
        let report = sim.run();
        if !report.is_clean() {
            return Err(format!(
                "ended at {} ns with {:?} blocked",
                report.end_time, report.deadlocked
            ));
        }
        for (dst, rank) in ranks.iter_mut().enumerate() {
            let got = rank.take().ok_or(format!("rank {dst} did not return"))?;
            // The receives rank `dst` posted, in order, and the message
            // each must match: the next one its `(source, tag)` sent.
            let mut left = self.sent_to(dst);
            let keys = self.scripts[dst].iter().filter_map(|step| match *step {
                Step::Recv { src, tag } => Some((src, tag)),
                _ => None,
            });
            for (i, (key, got)) in keys.zip(&got).enumerate() {
                let next = left.iter().position(|(k, _)| *k == key);
                let want = left.remove(next.ok_or(format!("rank {dst} posted {key:?} twice"))?);
                if *got != want {
                    return Err(format!(
                        "rank {dst}'s receive {i} for {key:?} got {got:?}, not {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A program drawn from `seed`.
    fn drawn(seed: u64) -> Case {
        let mut rng = SimRng::seeded(seed);
        let n = 2 + rng.below(3) as usize;
        let bufs = BbpConfig::for_nodes(n).bufs_per_proc as u64;
        let sends: Vec<Vec<Step>> = (0..n)
            .map(|rank| {
                (0..rng.below(bufs + 1))
                    .map(|_| {
                        let other = rng.below(n as u64 - 1) as usize;
                        let dst = other + usize::from(other >= rank);
                        let tag = TAGS[rng.below(TAGS.len() as u64) as usize];
                        let len = rng.below(257) as usize;
                        Step::Send { dst, tag, len }
                    })
                    .collect()
            })
            .collect();
        let scripts = (0..n)
            .map(|rank| {
                // One receive for each message addressed to this rank,
                // shuffled, then merged into its sends at drawn points.
                let mut recvs: Vec<Step> = sends
                    .iter()
                    .enumerate()
                    .flat_map(|(src, steps)| steps.iter().map(move |step| (src, *step)))
                    .filter_map(|(src, step)| match step {
                        Step::Send { dst, tag, .. } if dst == rank => Some(Step::Recv { src, tag }),
                        _ => None,
                    })
                    .collect();
                for i in (1..recvs.len()).rev() {
                    recvs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let (mut out, mut mine) = (Vec::new(), sends[rank].iter().copied().peekable());
                let mut recvs = recvs.into_iter().peekable();
                while mine.peek().is_some() || recvs.peek().is_some() {
                    if rng.below(4) == 0 {
                        out.push(Step::Progress {
                            ns: rng.below(100_001),
                        });
                    }
                    let send =
                        recvs.peek().is_none() || (mine.peek().is_some() && rng.below(2) == 0);
                    out.extend(if send { mine.next() } else { recvs.next() });
                }
                out
            })
            .collect();
        let starts = (0..n).map(|_| rng.below(50_001)).collect();
        let mut scaled = |ns: Time| ns * (1 << rng.below(6)) / 4;
        let d = CostModel::default();
        let cost = CostModel {
            pio_write_ns: scaled(d.pio_write_ns),
            pio_read_ns: scaled(d.pio_read_ns),
            burst_read_word_ns: scaled(d.burst_read_word_ns),
            hop_ns: scaled(d.hop_ns),
            fixed_word_ns: scaled(d.fixed_word_ns),
        };
        Case {
            cost,
            starts,
            scripts,
        }
    }
}

/// Drawn programs: each receive gets the message its `(source, tag)` sent
/// next, whatever the costs and skews.
#[test]
fn drawn_programs_match_per_source_and_tag_whatever_the_timing() {
    let mut messages = 0;
    for seed in 0..80 {
        let case = Case::drawn(seed);
        let ran = std::panic::catch_unwind(|| case.run());
        if let Err(why) = ran.unwrap_or_else(|_| Err("a process panicked".into())) {
            panic!("seed {seed}: {why}\n{case:#?}");
        }
        messages += (0..case.scripts.len())
            .map(|dst| case.sent_to(dst).len())
            .sum::<usize>();
    }
    assert!(
        messages > 100 * 8,
        "the programs send something: {messages}"
    );
}

/// The same program under two timings: the costs and skews change when
/// each receive completes, not what it gets.
#[test]
fn one_program_under_two_timings_gets_the_same_messages() {
    let mut case = Case::drawn(7);
    assert!(case.run().is_ok());
    case.starts.reverse();
    case.cost = CostModel {
        hop_ns: case.cost.hop_ns * 8,
        pio_read_ns: case.cost.pio_read_ns / 4,
        ..case.cost.clone()
    };
    assert_eq!(case.run(), Ok(()));
}
