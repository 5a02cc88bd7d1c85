#![allow(clippy::type_complexity, clippy::needless_range_loop)]

//! Property-based tests of the BillBoard Protocol's delivery guarantees:
//! for arbitrary traffic plans, buffer configurations and payload sizes,
//! every message is delivered exactly once, per-pair FIFO, bytes intact —
//! and the single-writer discipline holds on the wire.

use proptest::prelude::*;
use scramnet_cluster::bbp::{BbpCluster, BbpConfig};
use scramnet_cluster::des::Simulation;

/// One planned message: sender, receiver, payload seed byte, length.
#[derive(Debug, Clone)]
struct Msg {
    src: usize,
    dst: usize,
    len: usize,
    fill: u8,
}

fn msg_strategy(nprocs: usize, max_len: usize) -> impl Strategy<Value = Msg> {
    (0..nprocs, 0..nprocs - 1, 0..=max_len, any::<u8>()).prop_map(
        move |(src, dst_raw, len, fill)| {
            // Skew dst away from src so it's always a valid peer.
            let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
            Msg {
                src,
                dst,
                len,
                fill,
            }
        },
    )
}

/// The payload for a message: fill byte + per-index pattern, so both
/// truncation and corruption are detectable.
fn payload(m: &Msg, seq_for_pair: usize) -> Vec<u8> {
    (0..m.len)
        .map(|i| {
            m.fill
                .wrapping_add(i as u8)
                .wrapping_add(seq_for_pair as u8)
        })
        .collect()
}

/// Execute a traffic plan and check all delivery guarantees.
fn check_plan(nprocs: usize, bufs: usize, data_words: usize, msgs: Vec<Msg>) {
    let mut cfg = BbpConfig::for_nodes(nprocs);
    cfg.bufs_per_proc = bufs;
    cfg.data_words = data_words;
    let max_payload = cfg.max_payload_bytes();

    // Per-(src,dst) expected FIFO payload queues.
    let mut expected: Vec<Vec<Vec<Vec<u8>>>> = vec![vec![Vec::new(); nprocs]; nprocs];
    let mut sends: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); nprocs];
    for m in &msgs {
        if m.len > max_payload {
            continue; // plan respects the configured partition size
        }
        let seq = expected[m.src][m.dst].len();
        let p = payload(m, seq);
        expected[m.src][m.dst].push(p.clone());
        sends[m.src].push((m.dst, p));
    }

    let mut sim = Simulation::new();
    let cluster = BbpCluster::new(&sim.handle(), cfg);

    // Phase-ordered workload, provably livelock-free under GC stalls:
    // in phase `d`, everyone sends their messages destined for `d` while
    // `d` drains. A sender stalled on acknowledgements waits only on `d`,
    // and process 0's first phase is its own drain phase, so the wait
    // chain always bottoms out.
    // Each process returns what it received, with each message's source.
    let mut procs = Vec::with_capacity(nprocs);
    for rank in 0..nprocs {
        let mut ep = cluster.endpoint(rank);
        let my_sends = std::mem::take(&mut sends[rank]);
        let expect_count: usize = expected.iter().map(|row| row[rank].len()).sum();
        procs.push(sim.spawn(format!("p{rank}"), move |ctx| {
            let mut received = Vec::with_capacity(expect_count);
            for phase in 0..nprocs {
                if phase == rank {
                    for _ in 0..expect_count {
                        received.push(ep.recv_any(ctx).unwrap());
                    }
                } else {
                    for (dst, p) in my_sends.iter().filter(|(d, _)| *d == phase) {
                        ep.send(ctx, *dst, p).unwrap();
                    }
                }
            }
            received
        }));
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);

    // Exactly-once + FIFO + integrity.
    let received: Vec<_> = procs.iter_mut().map(|p| p.take().unwrap()).collect();
    for dst in 0..nprocs {
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); nprocs];
        for (src, m) in &received[dst] {
            got[*src].push(m.clone());
        }
        for src in 0..nprocs {
            assert_eq!(
                got[src], expected[src][dst],
                "stream {src}->{dst} differs (count/order/bytes)"
            );
        }
    }
    // Single-writer discipline on the wire.
    assert!(
        cluster.ring().conflicts().is_empty(),
        "single-writer violations: {:?}",
        cluster.ring().conflicts()
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case spins up threads; keep the budget sane
        .. ProptestConfig::default()
    })]

    #[test]
    fn delivery_exactly_once_fifo_intact(
        nprocs in 2usize..5,
        bufs in 2usize..8,
        msgs in prop::collection::vec(msg_strategy(4, 120), 1..40),
    ) {
        let msgs: Vec<Msg> = msgs.into_iter().filter(|m| m.src < nprocs && m.dst < nprocs && m.src != m.dst).collect();
        check_plan(nprocs, bufs, 256, msgs);
    }

    #[test]
    fn delivery_survives_tiny_partitions(
        msgs in prop::collection::vec(msg_strategy(3, 60), 1..30),
    ) {
        // 32-word (128-byte) partitions force constant wrap + GC.
        let msgs: Vec<Msg> = msgs.into_iter().filter(|m| m.src < 3 && m.dst < 3 && m.src != m.dst).collect();
        check_plan(3, 2, 32, msgs);
    }

    #[test]
    fn multicast_fanout_is_exactly_once(
        fanouts in prop::collection::vec((0usize..8, 0usize..16), 1..12),
    ) {
        // Root multicasts a sequence of messages to varying target sets.
        let mut sim = Simulation::new();
        let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
        // targets per message: derived from a 2-bit mask over ranks 1-3,
        // always non-empty.
        let plans: Vec<(Vec<usize>, Vec<u8>)> = fanouts
            .iter()
            .enumerate()
            .map(|(i, &(mask, len))| {
                let mut t: Vec<usize> = (1..4).filter(|r| mask & (1 << (r - 1)) != 0).collect();
                if t.is_empty() {
                    t.push(1 + (mask % 3));
                }
                (t, vec![i as u8; len])
            })
            .collect();
        let mut expect_per_rank: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 4];
        for (targets, payload) in &plans {
            for &t in targets {
                expect_per_rank[t].push(payload.clone());
            }
        }
        let mut root = cluster.endpoint(0);
        sim.spawn("root", move |ctx| {
            for (targets, payload) in &plans {
                root.mcast(ctx, targets, payload).unwrap();
            }
        });
        for r in 1..4 {
            let mut ep = cluster.endpoint(r);
            let expect = expect_per_rank[r].clone();
            sim.spawn(format!("r{r}"), move |ctx| {
                for want in &expect {
                    let got = ep.recv(ctx, 0).unwrap();
                    assert_eq!(&got, want, "rank {r} out-of-order or corrupt multicast");
                }
            });
        }
        let report = sim.run();
        prop_assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    }
}
