//! Golden-file pin of the scheduler's full pop order under a seeded
//! multi-packet ring stress. The event-engine hot path is allowed to
//! change representation (pooled events, different heap) but never
//! ordering: every dispatch — process resumptions, ring-hop applies,
//! interrupts — must replay in exactly the recorded sequence.
//!
//! Regenerate after an intentional ordering change with:
//! `BLESS=1 cargo test -p scramnet --test determinism_golden`,
//! then review the golden diff in the PR like any other change.

use des::Simulation;
use scramnet::{CostModel, Ring, RingConfig, TxMode};

const NODES: usize = 6;
const WRITES_PER_NODE: usize = 25;
/// Addr range watched on every bank; writer 0 lands some writes here.
const WATCH_START: usize = 1000;
const WATCH_END: usize = 1010;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ring_stress.trace.txt")
}

/// Deterministic per-writer parameter stream (splitmix-style).
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Run the seeded stress and render the scheduler trace to lines.
fn stress_trace() -> String {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let cfg = RingConfig {
        mode: TxMode::Variable,
        bit_error_rate: 0.002,
        error_seed: 42,
        segment_wrap: false,
    };
    let ring = Ring::with_config(&sim.handle(), NODES, 8192, CostModel::default(), cfg);
    // Dual-ring redundancy path: one insertion register switched out.
    ring.bypass_node(NODES - 1);
    // Interrupt machinery: watches fire on every bank even with no
    // process parked on the signal.
    for node in 0..NODES - 1 {
        ring.nic(node)
            .watch(WATCH_START..WATCH_END, sim.handle().new_signal());
    }

    for node in 0..NODES - 1 {
        let nic = ring.nic(node);
        sim.spawn(format!("writer{node}"), move |ctx| {
            let mut rng = 0x9E3779B97F4A7C15u64 ^ (node as u64) << 17;
            let base = node * 64;
            for i in 0..WRITES_PER_NODE {
                let r = next(&mut rng);
                let addr = if node == 0 && i % 5 == 0 {
                    // Land in the watched range to fire interrupts.
                    WATCH_START + (r as usize % (WATCH_END - WATCH_START))
                } else {
                    base + (r as usize % 48)
                };
                if i % 7 == 3 {
                    let words = [r as u32, (r >> 16) as u32, i as u32];
                    nic.write_block(ctx, addr, &words);
                } else {
                    nic.write_word(ctx, addr, r as u32);
                }
                ctx.advance(300 + (next(&mut rng) % 1700));
            }
        });
    }
    // A polling reader keeps the fast-path advance honest under load.
    {
        let nic = ring.nic(2);
        sim.spawn("reader", move |ctx| {
            let mut sum = 0u64;
            for _ in 0..120 {
                sum = sum.wrapping_add(u64::from(nic.read_word(ctx, WATCH_START)));
                ctx.advance(900);
            }
            std::hint::black_box(sum);
        });
    }

    let report = sim.run();
    assert!(
        report.is_clean(),
        "stress deadlocked: {:?}",
        report.deadlocked
    );

    let mut out = String::new();
    for entry in sim.take_trace() {
        out.push_str(&entry.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn pop_order_matches_golden() {
    des::obs::golden::check(&golden_path(), &stress_trace(), "scheduler pop order");
}

#[test]
fn pop_order_is_deterministic_across_runs() {
    assert_eq!(stress_trace(), stress_trace());
}
