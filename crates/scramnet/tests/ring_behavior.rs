//! Ring-level integration tests: concurrent traffic, bypass during
//! block transfers, DMA interplay with PIO, interrupt storms,
//! property-based eventual consistency of single-writer regions, and the
//! delivered stream of every node against the schedule that drove it.

use des::{ms, us, Simulation, Time};
use proptest::prelude::*;
use scramnet::{CostModel, Delivery, Ring, RingConfig, TxMode, Word, WordAddr};
use std::sync::Arc;

/// One scheduled injection: `(source, time, address, payload)`.
type Injection = (usize, Time, WordAddr, Vec<Word>);

/// Drive `schedule` into a fresh default ring from event context and
/// return it with every node's recorded apply stream.
///
/// Injections are scheduled events (as the NIC and bench paths are):
/// `source_packet` claims link occupancy synchronously when called, so
/// calling it at setup time would inject in setup order, not
/// virtual-time order.
fn run_schedule(nodes: usize, words: usize, schedule: &[Injection]) -> (Ring, Vec<Vec<Delivery>>) {
    let mut sim = Simulation::new();
    let ring = Ring::with_config(
        &sim.handle(),
        nodes,
        words,
        CostModel::default(),
        RingConfig::default(), // bit_error_rate 0.0
    );
    let taps: Vec<_> = (0..nodes).map(|n| ring.record_deliveries(n)).collect();
    for (node, t, addr, data) in schedule.iter().cloned() {
        let r = ring.clone();
        let payload = Arc::new(data);
        sim.handle()
            .schedule_at(t, move |now| r.source_packet(node, now, addr, payload));
    }
    sim.run();
    let streams = taps.iter().map(|tap| tap.lock().clone()).collect();
    (ring, streams)
}

#[test]
fn light_load_delivers_the_schedule_one_hop_time_per_hop_downstream() {
    const N: usize = 6;
    const PACKETS: usize = 3;
    // One injection anywhere per 100 µs: each packet fully circulates
    // (≈ N hops + serialization ≈ 11 µs) before the next exists, so no
    // link is ever contended and every apply time is the closed form.
    let schedule: Vec<Injection> = (0..PACKETS)
        .flat_map(|p| {
            (0..N).map(move |node| {
                let t = ((p * N + node) as Time) * 100_000 + 1_000;
                let data: Vec<Word> = (0..8)
                    .map(|j| (node * 1_000 + p * 10 + j) as Word)
                    .collect();
                (node, t, node * 64 + p, data)
            })
        })
        .collect();
    let (ring, streams) = run_schedule(N, 2048, &schedule);

    let cost = CostModel::default();
    let ser = cost.serialize_ns(8, ring.mode());
    for (node, stream) in streams.iter().enumerate() {
        // The source applies at injection time; a node `k` hops
        // downstream applies when the packet's tail has crossed `k`
        // insertion registers.
        let expected: Vec<Delivery> = schedule
            .iter()
            .map(|(src, t, addr, data)| {
                let k = ((node + N - src) % N) as Time;
                Delivery {
                    time: if k == 0 {
                        *t
                    } else {
                        t + k * cost.hop_ns + ser
                    },
                    writer: *src,
                    addr: *addr,
                    data: data.clone(),
                }
            })
            .collect();
        assert_eq!(stream, &expected, "node {node}: delivered stream");
    }
}

#[test]
fn contended_stress_keeps_per_source_fifo_and_ends_on_the_last_write() {
    const N: usize = 16;
    const WORDS: usize = 8192;
    const PACKETS: usize = 60;
    // The ring_storm shape (16-word packets every 1 µs, sources
    // staggered 125 ns) minus the bit errors — heavy enough that packets
    // queue on links, so timestamps are the occupancy model's business
    // and what must hold is order and content.
    let schedule: Vec<Injection> = (0..N)
        .flat_map(|node| {
            (0..PACKETS).map(move |i| {
                let w = i as Word;
                (
                    node,
                    node as Time * 125 + i as Time * 1_000,
                    node * 32 + (i & 16),
                    (0..16).map(|k| w ^ k).collect(),
                )
            })
        })
        .collect();
    let (ring, streams) = run_schedule(N, WORDS, &schedule);

    // Every writer owns its addresses, so the last write per address is
    // the last one in that writer's schedule.
    let mut final_bank = vec![0 as Word; WORDS];
    for (_, _, addr, data) in &schedule {
        final_bank[*addr..*addr + data.len()].copy_from_slice(data);
    }
    for (node, stream) in streams.iter().enumerate() {
        // Every node hears every packet from every writer, itself
        // included, exactly once.
        assert_eq!(stream.len(), N * PACKETS, "node {node} apply count");
        for writer in 0..N {
            let heard: Vec<(WordAddr, &[Word])> = stream
                .iter()
                .filter(|d| d.writer == writer)
                .map(|d| (d.addr, &d.data[..]))
                .collect();
            let sent: Vec<(WordAddr, &[Word])> = schedule
                .iter()
                .filter(|(src, ..)| *src == writer)
                .map(|(_, _, addr, data)| (*addr, &data[..]))
                .collect();
            assert_eq!(heard, sent, "node {node}: writer {writer}'s stream");
        }
        assert_eq!(ring.snapshot(node), final_bank, "node {node} bank");
    }
}

#[test]
fn concurrent_block_writers_fill_disjoint_regions() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 6, 8192, CostModel::default());
    for node in 0..6usize {
        let nic = ring.nic(node);
        sim.spawn(format!("w{node}"), move |ctx| {
            let data: Vec<Word> = (0..512).map(|i| (node * 1000 + i) as Word).collect();
            nic.write_block(ctx, node * 1024, &data);
        });
    }
    sim.run();
    for observer in 0..6 {
        let snap = ring.snapshot(observer);
        for node in 0..6 {
            assert_eq!(snap[node * 1024], (node * 1000) as Word);
            assert_eq!(snap[node * 1024 + 511], (node * 1000 + 511) as Word);
        }
    }
}

#[test]
fn bypass_mid_transfer_loses_only_the_bypassed_bank() {
    // Bypass node 2 while node 0 is streaming; nodes 1 and 3 still get
    // everything sent after the heal.
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 4, 4096, CostModel::default());
    let ring2 = ring.clone();
    sim.handle()
        .schedule_at(us(50), move |_| ring2.bypass_node(2));
    let nic = ring.nic(0);
    sim.spawn("w", move |ctx| {
        for i in 0..100u32 {
            nic.write_word(ctx, i as usize, i + 1);
            ctx.advance(2_000);
        }
    });
    sim.run();
    let n1 = ring.snapshot(1);
    let n3 = ring.snapshot(3);
    let n2 = ring.snapshot(2);
    for i in 0..100usize {
        assert_eq!(n1[i], i as Word + 1);
        assert_eq!(n3[i], i as Word + 1);
    }
    // Node 2 got the pre-bypass prefix only.
    assert!(n2[0] != 0, "early words arrived before the bypass");
    assert_eq!(n2[99], 0, "late words must be missing");
}

#[test]
fn dma_and_pio_from_one_node_stay_ordered_per_source() {
    // A DMA transfer programmed first, then an immediate PIO write to a
    // nearby word: the PIO packet can legitimately get onto the wire
    // first (DMA is still staging), so the final state must reflect the
    // *injection* order, which the single-writer discipline makes benign
    // for disjoint words — this test pins the semantics.
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 2, 4096, CostModel::default());
    let nic = ring.nic(0);
    sim.spawn("w", move |ctx| {
        nic.dma_write(ctx, 100, &[7u32; 64]);
        nic.write_word(ctx, 50, 99); // posted immediately after setup
    });
    sim.run();
    let snap = ring.snapshot(1);
    assert_eq!(snap[50], 99);
    assert_eq!(snap[100], 7);
    assert_eq!(snap[163], 7);
}

#[test]
fn interrupt_storm_delivers_one_notification_per_write() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
    let rx = ring.nic(1);
    let tx = ring.nic(0);
    let sig = sim.handle().new_signal();
    rx.watch(0..8, sig.clone());
    let mut rx = sim.spawn("rx", move |ctx| {
        // Consume wake-ups until quiet for a while.
        let mut wakeups = 0u64;
        loop {
            let ticket = ctx.ticket(&sig);
            ctx.wait(ticket);
            wakeups += 1;
            if ctx.now() > ms(1) {
                return wakeups;
            }
        }
    });
    sim.spawn("tx", move |ctx| {
        for i in 0..5u32 {
            tx.write_word(ctx, (i % 8) as usize, i);
            ctx.advance(us(100));
        }
        ctx.wait_until(ms(2));
        tx.write_word(ctx, 0, 999); // the final one ends the receiver loop
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert_eq!(ring.stats().interrupts, 6);
    assert_eq!(rx.take(), Some(6), "one wake-up per write");
}

#[test]
fn clear_watches_stops_notifications() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
    let rx = ring.nic(1);
    let tx = ring.nic(0);
    let sig = sim.handle().new_signal();
    rx.watch(0..8, sig);
    rx.clear_watches();
    sim.spawn("tx", move |ctx| tx.write_word(ctx, 3, 1));
    sim.run();
    assert_eq!(ring.stats().interrupts, 0);
}

#[test]
fn mode_switch_applies_to_subsequent_traffic() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 2, 8192, CostModel::default());
    assert_eq!(ring.mode(), TxMode::Fixed4);
    ring.set_mode(TxMode::Variable);
    assert_eq!(ring.mode(), TxMode::Variable);
    let nic = ring.nic(0);
    sim.spawn("w", move |ctx| {
        nic.write_block(ctx, 0, &vec![1u32; 2048]);
    });
    let report = sim.run();
    // 2048 words in variable mode ≈ 2048×240ns + 8×1.5µs ≈ 0.5 ms;
    // fixed mode would be ≈ 1.26 ms.
    assert!(
        report.end_time < des::us(900),
        "variable-mode timing expected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Single-writer regions always converge: for arbitrary per-node
    /// write sequences to node-owned regions, every bank ends identical.
    #[test]
    fn single_writer_regions_reach_eventual_consistency(
        nodes in 2usize..6,
        writes in prop::collection::vec((0usize..6, 0usize..32, any::<u32>()), 1..60),
    ) {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), nodes, 32 * 6, CostModel::default());
        let mut per_node: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes];
        for (node, off, val) in writes {
            if node < nodes {
                per_node[node].push((off, val));
            }
        }
        for (node, plan) in per_node.into_iter().enumerate() {
            let nic = ring.nic(node);
            sim.spawn(format!("w{node}"), move |ctx| {
                for (off, val) in plan {
                    // Each node writes only its own 32-word region.
                    nic.write_word(ctx, node * 32 + off, val);
                    ctx.advance(1_500);
                }
            });
        }
        sim.run();
        let reference = ring.snapshot(0);
        for node in 1..nodes {
            prop_assert_eq!(&ring.snapshot(node), &reference, "bank {} diverged", node);
        }
        prop_assert!(ring.conflicts().is_empty());
    }
}

#[test]
fn bit_errors_corrupt_replicas_deterministically() {
    let run = || {
        let mut sim = Simulation::new();
        let cfg = RingConfig {
            bit_error_rate: 0.02,
            error_seed: 42,
            ..Default::default()
        };
        let ring = Ring::with_config(&sim.handle(), 3, 2048, CostModel::default(), cfg);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_block(ctx, 0, &vec![0u32; 1024]);
        });
        sim.run();
        (ring.stats().bit_errors, ring.snapshot(1), ring.snapshot(2))
    };
    let (errors, n1, n2) = run();
    assert!(
        errors > 0,
        "2% BER over 2048 applied words must corrupt something"
    );
    // Corruption appears in at least one replica while the local bank
    // stays clean, and the two replicas disagree (independent flips).
    assert!(n1.iter().take(1024).any(|&w| w != 0) || n2.iter().take(1024).any(|&w| w != 0));
    // Deterministic: the same seed produces the identical outcome.
    let (errors2, n1b, n2b) = run();
    assert_eq!(errors, errors2);
    assert_eq!(n1, n1b);
    assert_eq!(n2, n2b);
}

#[test]
fn healthy_ring_injects_no_errors() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), 2, 2048, CostModel::default());
    let nic = ring.nic(0);
    sim.spawn("w", move |ctx| nic.write_block(ctx, 0, &vec![7u32; 1024]));
    sim.run();
    assert_eq!(ring.stats().bit_errors, 0);
    assert!(ring.snapshot(1).iter().take(1024).all(|&w| w == 7));
}
