//! Shared-memory programming on SCRAMNet — the style the network was
//! built for before the BillBoard Protocol existed (paper §1–2: aircraft
//! simulators, process control). Four stations cooperate on a shared
//! world state using the `shmem` primitives:
//!
//! - each station owns a **single-writer region** with its aircraft's
//!   position (no locks needed — the BBP trick at the application level);
//! - a shared configuration block (weather) is updated under a
//!   **bakery lock** by whichever station takes command;
//! - a **distributed counter** tallies frames simulated cluster-wide;
//! - an **event flag** broadcasts the RUN→FREEZE mode switch, consumed
//!   via NIC interrupts;
//! - a **flag barrier** closes each epoch.
//!
//! Run with: `cargo run --release --example shared_flight_state`

use scramnet_cluster::des::{us, Simulation, TimeExt};
use scramnet_cluster::scramnet::{CostModel, Ring, Word};
use scramnet_cluster::shmem::{BakeryLock, DistributedCounter, EventFlag, SenseBarrier};

const STATIONS: usize = 4;
const EPOCHS: u32 = 50;

// Memory map (word offsets).
const LOCK_AT: usize = 0; // 2*STATIONS words
const BARRIER_AT: usize = 8; // STATIONS words
const COUNTER_AT: usize = 12; // STATIONS words
const MODE_FLAG: usize = 16; // 1 word, owner = station 0
const WEATHER_AT: usize = 17; // 2 words (wind dir/speed), lock-protected
const POSITIONS_AT: usize = 20; // 3 words per station, single-writer

const MODE_RUN: Word = 1;
const MODE_FREEZE: Word = 2;

fn main() {
    let mut sim = Simulation::new();
    let ring = Ring::new(&sim.handle(), STATIONS, 64, CostModel::default());

    let lock = BakeryLock::layout(LOCK_AT, STATIONS);
    let barrier = SenseBarrier::layout(BARRIER_AT, STATIONS);
    let counter = DistributedCounter::layout(COUNTER_AT, STATIONS);
    let mode = EventFlag::layout(MODE_FLAG, 0);

    // Each station returns the weather it read (station 0 alone reads
    // it) and, unless it froze the session, when the freeze reached it.
    let mut stations = Vec::with_capacity(STATIONS);
    for station in 0..STATIONS {
        let nic = ring.nic(station);
        let mut lock_h = lock.handle(nic.clone());
        let mut barrier_h = barrier.handle(nic.clone());
        let mut counter_h = counter.handle(nic.clone());
        let mut mode_h = mode.handle(&nic);
        let mode_set = (station == 0).then(|| mode.owner_handle(nic.clone()));
        stations.push(sim.spawn(format!("station{station}"), move |ctx| {
            let (mut weather_log, mut frozen_at) = (Vec::new(), None);
            let sig = ctx.handle().new_signal();
            mode_h.arm_interrupt(sig);
            match &mode_set {
                Some(owner) => owner.set(ctx, MODE_RUN),
                None => mode_h.wait_value(ctx, MODE_RUN),
            }
            for epoch in 0..EPOCHS {
                // Integrate own aircraft: single-writer region, no lock.
                let base = POSITIONS_AT + 3 * station;
                nic.write_word(ctx, base, epoch); // x
                nic.write_word(ctx, base + 1, epoch * 2); // y
                nic.write_word(ctx, base + 2, 1000 + epoch); // alt
                ctx.advance(5_000); // 5 µs of flight-model math

                // Every 10th epoch, station (epoch/10 % 4) updates the
                // weather under the bakery lock.
                if epoch % 10 == 0 && (epoch / 10) as usize % STATIONS == station {
                    lock_h.with_lock(ctx, |ctx| {
                        nic.write_word(ctx, WEATHER_AT, epoch * 3 % 360);
                        nic.write_word(ctx, WEATHER_AT + 1, 5 + epoch % 20);
                    });
                }
                counter_h.add(ctx, 1);
                // Phase discipline: write phase | barrier | read phase |
                // barrier. The first barrier makes every station's epoch-e
                // writes visible (per-source FIFO: observing the flag
                // implies the earlier position writes landed); the second
                // keeps fast stations from starting epoch e+1 writes while
                // slow ones still read epoch e.
                barrier_h.wait(ctx);
                for s in 0..STATIONS {
                    let x = nic.read_word(ctx, POSITIONS_AT + 3 * s);
                    assert_eq!(x, epoch, "station {station} saw stale epoch from {s}");
                }
                if station == 0 && epoch % 10 == 0 {
                    let dir = nic.read_word(ctx, WEATHER_AT);
                    let speed = nic.read_word(ctx, WEATHER_AT + 1);
                    weather_log.push((epoch, dir, speed));
                }
                barrier_h.wait(ctx);
            }
            // Station 0 freezes the session; everyone reacts via interrupt.
            if let Some(owner) = &mode_set {
                ctx.advance(us(50));
                owner.set(ctx, MODE_FREEZE);
            } else {
                mode_h.wait_value(ctx, MODE_FREEZE);
                frozen_at = Some(ctx.now());
            }
            // Final frame count, read after the ring quiesces.
            ctx.advance(us(20));
            let frames = counter_h.read(ctx);
            assert_eq!(frames, EPOCHS * STATIONS as u32);
            (weather_log, frozen_at)
        }));
    }

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let (weather_logs, frozen_at): (Vec<_>, Vec<_>) =
        stations.iter_mut().map(|s| s.take().unwrap()).unzip();
    // The ring's owner check flags every write that takes a word from
    // another writer, once per write. The ONLY words allowed are the
    // lock-protected weather block: unlike the pure single-writer regions,
    // that block relies on the bakery lock for its integrity — exactly the
    // distinction between the two sharing styles this example
    // demonstrates.
    let mut offending: Vec<usize> = ring.conflicts().iter().map(|c| c.0).collect();
    offending.sort_unstable();
    offending.dedup();
    assert_eq!(
        offending,
        vec![WEATHER_AT, WEATHER_AT + 1],
        "multi-writer words outside the lock-protected block"
    );

    println!("shared flight state: {STATIONS} stations x {EPOCHS} epochs\n");
    println!("weather updates observed by station 0 (lock-protected block):");
    for (epoch, dir, speed) in weather_logs.concat() {
        println!("  epoch {epoch:>3}: wind {dir:>3}° at {speed:>2} kt");
    }
    println!(
        "\nfreeze propagated to {} stations via NIC interrupt",
        frozen_at.iter().flatten().count()
    );
    println!(
        "total frames counted cluster-wide: {}",
        EPOCHS * STATIONS as u32
    );
    println!(
        "simulation finished at {}; only the lock-protected weather block is multi-writer",
        report.end_time.pretty()
    );
}
