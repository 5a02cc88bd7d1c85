//! Sensitivity analysis of the calibration: how much do the headline
//! results move when each hardware constant moves ±25%? This bounds how
//! much of the reproduction hangs on any single guessed constant — the
//! conclusions should (and do) survive sizeable calibration error.

use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig};
use des::{Simulation, Time, TimeExt};
use parking_lot::Mutex;
use scramnet::{CostModel, RingConfig};

/// 0-byte and 1024-byte BBP one-way latency under a given cost model.
fn bbp_latencies(cost: CostModel) -> (f64, f64) {
    let one = |len: usize, cost: CostModel| {
        let mut sim = Simulation::new();
        let mut cfg = BbpConfig::for_nodes(4);
        cfg.data_words = 16 * 1024;
        let cluster = BbpCluster::with_hardware(&sim.handle(), cfg, cost, RingConfig::default());
        let (mut a, mut b) = (cluster.endpoint(0), cluster.endpoint(1));
        let done: Arc<Mutex<Time>> = Arc::new(Mutex::new(0));
        let done2 = Arc::clone(&done);
        sim.spawn("a", move |ctx| a.send(ctx, 1, &vec![0u8; len]).unwrap());
        sim.spawn("b", move |ctx| {
            let _ = b.recv(ctx, 0);
            *done2.lock() = ctx.now();
        });
        assert!(sim.run().is_clean());
        let t = *done.lock();
        t.as_us()
    };
    (one(0, cost.clone()), one(1024, cost))
}

/// Every [`CostModel`] field by name, in print order. The model is
/// destructured exhaustively, so a sixth field fails to compile until it
/// is swept here.
fn knobs(c: &mut CostModel) -> [(&'static str, &mut Time); 5] {
    let CostModel {
        pio_read_ns,
        pio_write_ns,
        hop_ns,
        fixed_word_ns,
        burst_read_word_ns,
    } = c;
    [
        ("pio_read_ns", pio_read_ns),
        ("pio_write_ns", pio_write_ns),
        ("hop_ns", hop_ns),
        ("fixed_word_ns", fixed_word_ns),
        ("burst_read_word_ns", burst_read_word_ns),
    ]
}

/// `c` with its `knob`th field scaled by `factor`.
fn scaled(mut c: CostModel, knob: usize, factor: f64) -> CostModel {
    let v = &mut knobs(&mut c)[knob].1;
    **v = (**v as f64 * factor).round() as Time;
    c
}

fn main() {
    let base = CostModel::default();
    let (b0, b1k) = bbp_latencies(base.clone());
    println!("== Sensitivity of BBP latency to each hardware constant (±25%) ==\n");
    println!("baseline: 0 B = {b0:.2} µs (paper 6.5), 1 KB = {b1k:.1} µs\n");
    println!(
        "{:>20} {:>14} {:>14} {:>14} {:>14}",
        "knob ±25%", "0 B low", "0 B high", "1 KB low", "1 KB high"
    );
    for (at, (knob, _)) in knobs(&mut base.clone()).into_iter().enumerate() {
        let (lo0, lo1k) = bbp_latencies(scaled(base.clone(), at, 0.75));
        let (hi0, hi1k) = bbp_latencies(scaled(base.clone(), at, 1.25));
        println!("{knob:>20} {lo0:>11.2} µs {hi0:>11.2} µs {lo1k:>11.1} µs {hi1k:>11.1} µs");
    }
    println!(
        "\n(short-message latency is dominated by PIO read cost — the paper's own\n\
         diagnosis of its polling overhead; large-message latency by the fixed-mode\n\
         serialization rate, which is a published hardware number, not a guess)"
    );
}
