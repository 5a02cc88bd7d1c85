//! A real-time telemetry bus — SCRAMNet's home turf (the paper §1 lists
//! aircraft simulators, process control, telemetry and robotics as the
//! network's original applications).
//!
//! One producer (a simulated flight-dynamics model) publishes a sensor
//! frame every 500 µs with `bbp_Mcast` to three consumers (instructor
//! station, motion platform, data recorder). Consumers use the
//! **interrupt-driven receive** extension so they idle between frames
//! instead of burning their CPUs polling, and each checks a 100 µs
//! delivery deadline. The run reports per-consumer latency statistics
//! and deadline misses.
//!
//! Run with: `cargo run --release --example telemetry_bus`

use scramnet_cluster::bbp::{BbpCluster, BbpConfig, RecvMode};
use scramnet_cluster::des::{us, Simulation, TimeExt};

const FRAMES: u32 = 200;
const PERIOD_US: u64 = 500;
const DEADLINE_US: u64 = 100;
const CONSUMERS: [&str; 3] = ["instructor-station", "motion-platform", "data-recorder"];

/// A telemetry frame: sequence number + timestamp + 12 f32 channels.
fn frame(seq: u32, t_us: u64) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + 8 + 12 * 4);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&t_us.to_le_bytes());
    for ch in 0..12u32 {
        let v = (seq as f32 * 0.1 + ch as f32).sin();
        f.extend_from_slice(&v.to_le_bytes());
    }
    f
}

struct ConsumerReport {
    name: &'static str,
    latencies_us: Vec<f64>,
    deadline_misses: u32,
}

fn main() {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(4);
    cfg.recv_mode = RecvMode::Interrupt; // idle between frames
    let cluster = BbpCluster::new(&sim.handle(), cfg);

    // Producer on node 0: hard 500 µs publication period.
    let mut producer = cluster.endpoint(0);
    sim.spawn("flight-model", move |ctx| {
        for seq in 0..FRAMES {
            let publish_at = us(seq as u64 * PERIOD_US);
            ctx.wait_until(publish_at);
            let f = frame(seq, ctx.now() / 1_000);
            producer.mcast(ctx, &[1, 2, 3], &f).unwrap();
        }
    });

    let mut consumers = Vec::with_capacity(CONSUMERS.len());
    for (i, name) in CONSUMERS.iter().enumerate() {
        let mut ep = cluster.endpoint(i + 1);
        consumers.push(sim.spawn(*name, move |ctx| {
            let mut latencies = Vec::with_capacity(FRAMES as usize);
            let mut misses = 0;
            for seq in 0..FRAMES {
                let f = ep.recv(ctx, 0).unwrap();
                let got_seq = u32::from_le_bytes(f[0..4].try_into().unwrap());
                assert_eq!(got_seq, seq, "frames must arrive in order, no loss");
                let published = us(seq as u64 * PERIOD_US);
                let latency = ctx.now() - published;
                if latency > us(DEADLINE_US) {
                    misses += 1;
                }
                latencies.push(latency.as_us());
            }
            ConsumerReport {
                name,
                latencies_us: latencies,
                deadline_misses: misses,
            }
        }));
    }

    let report = sim.run();
    assert!(report.is_clean(), "bus deadlocked: {:?}", report.deadlocked);

    println!(
        "telemetry bus: {FRAMES} frames @ {PERIOD_US} µs period, 56-byte frames, \
         interrupt-driven consumers, {DEADLINE_US} µs deadline\n"
    );
    println!(
        "{:>20} {:>10} {:>10} {:>10} {:>10}",
        "consumer", "min µs", "mean µs", "max µs", "misses"
    );
    let mut all: Vec<_> = consumers.iter_mut().map(|c| c.take().unwrap()).collect();
    all.sort_by_key(|r| r.name);
    for r in all.iter() {
        let min = r.latencies_us.iter().cloned().fold(f64::MAX, f64::min);
        let max = r.latencies_us.iter().cloned().fold(f64::MIN, f64::max);
        let mean = r.latencies_us.iter().sum::<f64>() / r.latencies_us.len() as f64;
        println!(
            "{:>20} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            r.name, min, mean, max, r.deadline_misses
        );
        assert_eq!(r.deadline_misses, 0, "{} missed deadlines", r.name);
    }
    println!(
        "\nall consumers met every deadline; total virtual time {}",
        report.end_time.pretty()
    );
}
