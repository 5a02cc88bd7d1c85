//! What a receiver gets does not depend on timing (PAPER.md §1: every
//! shared word has one writer, so the protocol needs no locks). Start
//! skews, buffer sizes, the GC discipline, the packet mode, the receive
//! mode and the hardware's costs (each of `CostModel`'s five fields at ¼
//! to 8 times its default) move *when* a message arrives, never *whether*
//! or in what order per sender.
//!
//! Each case is a program of sends and multicasts: before each of its
//! operations a rank tries one `try_recv_any`, and after its last it calls
//! `recv_any` until it has every message addressed to it. The check: each
//! receiver's messages from each sender are the ones sent, in the order
//! sent, and the run ends with nobody blocked.
//!
//! A rank posts at most `bufs_per_proc` operations, each fitting one
//! buffer's share of its data partition, so its sends never wait for
//! buffer space. In a share of the cases one rank, the flooder, posts more
//! than that, so its sends wait for ACKs (`Wait::ForAcks`); every other
//! rank first receives all the flooder sends it and only then starts its
//! own program. Neither kind of case can deadlock: only the flooder's
//! sends wait, and each waits for an ACK from a rank that is receiving
//! until it has all the flooder's messages, which no send of its own can
//! hold up, because a send that is not the flooder's never waits.

use bbp::{BbpCluster, BbpConfig, GcPolicy, RecvMode};
use des::rng::SimRng;
use des::{Simulation, Time};
use scramnet::{CostModel, RingConfig, TxMode};

/// One send (one target) or multicast (several), `len` bytes long.
#[derive(Debug, Clone)]
struct Op {
    targets: Vec<usize>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Case {
    config: BbpConfig,
    cost: CostModel,
    variable_packets: bool,
    /// When each rank starts.
    starts: Vec<Time>,
    /// Each rank's operations, in order.
    scripts: Vec<Vec<Op>>,
    /// The rank that posts more operations than it has buffers; every
    /// other rank receives all it sends them before its own program.
    flooder: Option<usize>,
}

/// The bytes rank `src` sends as its `k`th operation.
fn payload(src: usize, k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (src * 97 + k * 13 + i) as u8).collect()
}

impl Case {
    /// What `dst` must get from each sender, in order.
    fn expected(&self, dst: usize) -> Vec<Vec<Vec<u8>>> {
        let sent_to_dst = |(src, script): (usize, &Vec<Op>)| {
            let ops = script.iter().enumerate();
            ops.filter(|(_, op)| op.targets.contains(&dst))
                .map(|(k, op)| payload(src, k, op.len))
                .collect()
        };
        self.scripts.iter().enumerate().map(sent_to_dst).collect()
    }

    /// Run the program: how many times a send found no free buffer, or
    /// what went wrong.
    fn run(&self) -> Result<u64, String> {
        let mut sim = Simulation::new();
        let cluster = BbpCluster::with_hardware(
            &sim.handle(),
            self.config.clone(),
            self.cost.clone(),
            RingConfig::default(),
        );
        if self.variable_packets {
            cluster.set_tx_mode(TxMode::Variable);
        }
        let n = self.config.nprocs;
        // Each rank returns what it received, in arrival order, with its
        // sender, and how often its sends waited.
        let mut ranks = Vec::with_capacity(n);
        for (rank, script) in self.scripts.iter().enumerate() {
            let mut ep = cluster.endpoint(rank);
            let script = script.clone();
            let expected = self.expected(rank);
            let count = expected.iter().map(Vec::len).sum::<usize>();
            let drain = self.flooder.filter(|&f| f != rank);
            let flooded = drain.map_or(0, |f| expected[f].len());
            ranks.push(
                sim.spawn_at(self.starts[rank], format!("r{rank}"), move |ctx| {
                    let mut arrived = Vec::new();
                    let mut from_flooder = 0;
                    while from_flooder < flooded {
                        let (src, bytes) = ep
                            .recv_any(ctx)
                            .expect("a paper-mode receive does not fail");
                        from_flooder += usize::from(Some(src) == drain);
                        arrived.push((src, bytes));
                    }
                    for (k, op) in script.iter().enumerate() {
                        arrived.extend(ep.try_recv_any(ctx));
                        let bytes = payload(rank, k, op.len);
                        match op.targets[..] {
                            [dst] => ep.send(ctx, dst, &bytes),
                            _ => ep.mcast(ctx, &op.targets, &bytes),
                        }
                        .expect("a paper-mode send does not fail");
                    }
                    while arrived.len() < count {
                        arrived.push(
                            ep.recv_any(ctx)
                                .expect("a paper-mode receive does not fail"),
                        );
                    }
                    (arrived, ep.stats().send_stalls)
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
        let (got, stalls): (Vec<_>, Vec<_>) = ranks.iter_mut().map(|r| r.take().unwrap()).unzip();
        for (dst, arrived) in got.iter().enumerate() {
            for (src, want) in self.expected(dst).into_iter().enumerate() {
                let from_src = arrived.iter().filter(|(s, _)| *s == src);
                let from_src: Vec<_> = from_src.map(|(_, bytes)| bytes.clone()).collect();
                if from_src != want {
                    return Err(format!(
                        "rank {dst} got {from_src:?} from {src}, not {want:?}"
                    ));
                }
            }
        }
        Ok(stalls.iter().sum())
    }

    /// A program drawn from `seed`.
    fn drawn(seed: u64, recv_mode: RecvMode) -> Case {
        let mut rng = SimRng::seeded(seed);
        let n = 2 + rng.below(3) as usize;
        let mut config = BbpConfig::for_nodes(n);
        config.recv_mode = recv_mode;
        config.bufs_per_proc = 2 + rng.below(15) as usize;
        config.data_words = 512 + rng.below(4096) as usize;
        if rng.below(2) == 1 {
            config.gc_policy = GcPolicy::Slotted;
        }
        // No send waits: at most one message a buffer, each fitting one
        // buffer's share of the data partition.
        let longest = 1024.min(config.data_words / config.bufs_per_proc * 4) as u64;
        let variable_packets = rng.below(2) == 1;
        let starts = (0..n).map(|_| rng.below(50_001)).collect();
        let bufs = config.bufs_per_proc as u64;
        let script = |rng: &mut SimRng, rank: usize, ops: u64| -> Vec<Op> {
            (0..ops)
                .map(|_| {
                    let mut targets: Vec<usize> =
                        (0..n).filter(|&t| t != rank && rng.below(2) == 1).collect();
                    if targets.is_empty() {
                        let other = rng.below(n as u64 - 1) as usize;
                        targets.push(other + usize::from(other >= rank));
                    }
                    let len = rng.below(longest + 1) as usize;
                    Op { targets, len }
                })
                .collect()
        };
        let mut scripts: Vec<_> = (0..n)
            .map(|rank| {
                let ops = rng.below(bufs + 1);
                script(&mut rng, rank, ops)
            })
            .collect();
        // One case in four floods: one rank posts up to twice its buffers
        // and one more, so its sends wait for ACKs.
        let flooder = (rng.below(4) == 0).then(|| rng.below(n as u64) as usize);
        if let Some(f) = flooder {
            let ops = bufs + 1 + rng.below(bufs + 1);
            scripts[f] = script(&mut rng, f, ops);
        }
        // Drawn last, so the draws above give each seed the program they
        // gave it before costs were drawn: each field at its default times
        // ¼, ½, 1, 2, 4 or 8.
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
            config,
            cost,
            variable_packets,
            starts,
            scripts,
            flooder,
        }
    }
}

fn op(targets: &[usize], len: usize) -> Op {
    Op {
        targets: targets.to_vec(),
        len,
    }
}

/// A flag write that lands while an interrupt-mode receiver's sweep is
/// reading, after the word it changes was read, raises its interrupt
/// before the receiver goes to sleep. Shrunk from a drawn case; rank 2
/// used to sleep through it for good (the run ended at 171 044 ns with
/// `r2` blocked).
#[test]
fn an_interrupt_raised_during_the_receivers_sweep_wakes_it() {
    let mut config = BbpConfig::for_nodes(3);
    config.recv_mode = RecvMode::Interrupt;
    let case = Case {
        config,
        cost: CostModel::default(),
        variable_packets: true,
        starts: vec![24_450, 5_399, 16_574],
        scripts: vec![
            vec![
                op(&[1], 23),
                op(&[1], 36),
                op(&[1], 30),
                op(&[1, 2], 56),
                op(&[2], 89),
                op(&[2], 53),
                op(&[1], 54),
                op(&[1, 2], 86),
                op(&[1, 2], 70),
            ],
            vec![op(&[2], 108), op(&[0, 2], 20)],
            vec![op(&[0], 84), op(&[0], 58)],
        ],
        flooder: None,
    };
    assert_eq!(case.run(), Ok(0));
}

/// `cases` drawn programs in `recv_mode`, from seed `first` on: how many
/// flooded, and in how many of those a send found no free buffer.
fn drawn_programs_deliver(recv_mode: RecvMode, first: u64, cases: u64) -> (u64, u64) {
    let (mut flooded, mut waited) = (0, 0);
    for seed in first..first + cases {
        let case = Case::drawn(seed, recv_mode);
        let ran = std::panic::catch_unwind(|| case.run());
        match ran.unwrap_or_else(|_| Err("a process panicked".into())) {
            Ok(stalls) if case.flooder.is_some() => {
                flooded += 1;
                waited += u64::from(stalls > 0);
            }
            Ok(stalls) => assert_eq!(stalls, 0, "seed {seed}: a send waited\n{case:#?}"),
            Err(why) => panic!("seed {seed}: {why}\n{case:#?}"),
        }
    }
    (flooded, waited)
}

/// 489 of the cases flood, and in each of them a send waits.
#[test]
fn drawn_interrupt_mode_programs_deliver_whatever_the_timing() {
    let flooded = drawn_programs_deliver(RecvMode::Interrupt, 0, 2_000);
    assert_eq!(flooded, (489, 489));
}

/// Polling mode's sweeps cost ≈ 14 times what a sleep does per case. 30
/// of the cases flood, and in each of them a send waits.
#[test]
fn drawn_polling_mode_programs_deliver_whatever_the_timing() {
    let flooded = drawn_programs_deliver(RecvMode::Polling, 1 << 32, 100);
    assert_eq!(flooded, (30, 30));
}
