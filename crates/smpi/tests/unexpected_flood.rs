//! Deterministic unexpected-queue floods over a 2-rank SCRAMNet world.
//!
//! A flooder blasts tagged sends at a receiver that has posted nothing:
//! every message must park in the ADI unexpected queue (residency rises
//! to exactly the flood size), then fully drain to zero once the
//! receives post — bit-exact payloads, for both the eager protocol
//! (whole messages park) and the rendezvous protocol (RTS announcements
//! park).

use des::{ms, Simulation, Time};
use smpi::{CollectiveImpl, MpiWorld, SmpiCosts};

/// What one flood run observed at the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FloodTrace {
    /// Unexpected-queue high-water mark while nothing was posted.
    peak: usize,
    /// Queue length right before the receives post (everything parked).
    parked: usize,
    /// Queue length after every receive completed.
    drained: usize,
    /// Messages whose payload survived bit-exact.
    intact: usize,
    /// Virtual time the receiver finished, ns (determinism witness).
    done_at: Time,
}

fn flood_payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|b| ((i * 131 + b * 7 + 3) % 251) as u8)
        .collect()
}

/// Flood `messages` sends of `len` bytes each at an unsuspecting
/// receiver; post the receives only at `post_at`.
fn run_flood(messages: usize, len: usize, post_at: Time) -> FloodTrace {
    let mut sim = Simulation::new();
    let mut cfg = bbp::BbpConfig::for_nodes(2);
    cfg.data_words = 16 * 1024; // 64 KiB partition: fits rendezvous chunks
    let world = MpiWorld::scramnet_with(
        &sim.handle(),
        cfg,
        scramnet::CostModel::default(),
        SmpiCosts::adi_direct(),
        CollectiveImpl::PointToPoint,
    );

    let mut sender = world.proc(0);
    sim.spawn("flooder", move |ctx| {
        let comm = sender.comm_world();
        // isend so rendezvous-sized messages all announce before any
        // CTS can come back; eager-sized ones complete on the spot.
        let reqs: Vec<_> = (0..messages)
            .map(|i| {
                sender
                    .isend(ctx, &comm, 1, i as smpi::Tag, &flood_payload(i, len))
                    .expect("flood isend failed")
            })
            .collect();
        for r in reqs {
            sender.wait_send(ctx, r);
        }
    });

    let mut receiver = world.proc(1);
    let mut floodee = sim.spawn("floodee", move |ctx| {
        let comm = receiver.comm_world();
        // Progress without posting: every arrival must park.
        while ctx.now() < post_at {
            receiver.progress(ctx);
        }
        let peak = receiver.adi().unexpected_peak();
        let parked = receiver.adi().unexpected_len();
        let reqs: Vec<_> = (0..messages)
            .map(|i| {
                receiver
                    .irecv(ctx, &comm, Some(0), Some(i as smpi::Tag))
                    .expect("late irecv failed")
            })
            .collect();
        let mut intact = 0;
        for (i, r) in reqs.into_iter().enumerate() {
            let (status, data) = receiver.wait_recv(ctx, &comm, r);
            if status.source == 0 && data == flood_payload(i, len) {
                intact += 1;
            }
        }
        FloodTrace {
            peak,
            parked,
            drained: receiver.adi().unexpected_len(),
            intact,
            done_at: ctx.now(),
        }
    });

    let report = sim.run();
    assert!(
        report.is_clean(),
        "flood deadlocked: {:?}",
        report.deadlocked
    );
    floodee.take().expect("the floodee reports")
}

#[test]
fn eager_flood_parks_everything_then_drains_to_zero() {
    let t = run_flood(24, 256, ms(2));
    assert_eq!(t.peak, 24, "all 24 eager sends park unexpectedly");
    assert_eq!(t.parked, 24, "nothing matched before the receives post");
    assert_eq!(t.drained, 0, "the unexpected queue fully drains");
    assert_eq!(t.intact, 24, "every payload survives bit-exact");
}

#[test]
fn rendezvous_flood_parks_announcements_then_drains_to_zero() {
    // 24 KiB is past the 16 KiB adi_direct threshold: what parks is the
    // RTS announcement, and the data only moves after the receive posts.
    let t = run_flood(4, 24 * 1024, ms(2));
    assert_eq!(t.peak, 4, "all 4 RTS announcements park unexpectedly");
    assert_eq!(t.parked, 4);
    assert_eq!(t.drained, 0, "no announcement outlives its transfer");
    assert_eq!(t.intact, 4, "chunked rendezvous data reassembles intact");
}

#[test]
fn floods_replay_identically() {
    let a = run_flood(12, 512, ms(1));
    let b = run_flood(12, 512, ms(1));
    assert_eq!(a, b, "same flood, same virtual trace");
    assert!(
        a.done_at > ms(1),
        "the drain happens after the receives post"
    );
}

#[test]
fn interleaved_preposts_cap_the_peak() {
    // A receiver that preposts half the tags before the flood arrives
    // bounds the park depth to the unmatched half.
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 2);
    let messages = 16usize;
    let prepost = 8usize;
    let len = 128usize;

    let mut sender = world.proc(0);
    sim.spawn("flooder", move |ctx| {
        let comm = sender.comm_world();
        ctx.wait_until(ms(1) / 2);
        for i in 0..messages {
            sender
                .send(ctx, &comm, 1, i as smpi::Tag, &flood_payload(i, len))
                .expect("flood send failed");
        }
    });

    let mut receiver = world.proc(1);
    let mut floodee = sim.spawn("floodee", move |ctx| {
        let comm = receiver.comm_world();
        let early: Vec<_> = (0..prepost)
            .map(|i| {
                receiver
                    .irecv(ctx, &comm, Some(0), Some(i as smpi::Tag))
                    .expect("prepost irecv failed")
            })
            .collect();
        while ctx.now() < ms(2) {
            receiver.progress(ctx);
        }
        let peak = receiver.adi().unexpected_peak();
        let late: Vec<_> = (prepost..messages)
            .map(|i| {
                receiver
                    .irecv(ctx, &comm, Some(0), Some(i as smpi::Tag))
                    .expect("late irecv failed")
            })
            .collect();
        for (i, r) in early.into_iter().chain(late).enumerate() {
            let (_, data) = receiver.wait_recv(ctx, &comm, r);
            assert_eq!(data, flood_payload(i, len), "message {i} corrupted");
        }
        (peak, receiver.adi().unexpected_len())
    });

    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let (peak, final_len) = floodee.take().unwrap();
    assert_eq!(peak, messages - prepost, "only unmatched sends park");
    assert_eq!(final_len, 0);
}
