//! Which typed send errors snapshot the flight ring to disk: faults do,
//! scripted refusals do not. A fail-fast `NoCredit` is what an overloaded
//! RPC client sheds on, hundreds of times per run — a 55 KB file write
//! for each would dominate the host time of exactly the runs that
//! exercise overload.
//!
//! `$FLIGHT_DUMP_DIR` is process-global, so both halves share ONE test
//! function in a test binary of their own.

use bbp::{BbpCluster, BbpConfig, BbpError, CreditConfig, ReliabilityConfig};
use des::obs::Stage;
use des::Simulation;

#[test]
fn credit_refusals_leave_no_file_but_a_timed_out_send_does() {
    let dir = std::env::temp_dir().join(format!("bbp_flight_policy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FLIGHT_DUMP_DIR", &dir);

    // Credit-starved: a grant of one, fail-fast, nobody draining.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: true,
    });
    let mut a = BbpCluster::new(&sim.handle(), cfg).endpoint(0);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"granted").unwrap();
        for _ in 0..3 {
            let err = a.send(ctx, 1, b"rejected").unwrap_err();
            assert_eq!(err, BbpError::NoCredit { peer: 1 });
        }
    });
    assert!(sim.run().is_clean());
    // The lifecycle checkpoint is still recorded for every refusal.
    let flight = sim.recorder().flight().snapshot();
    let errors = flight.iter().filter(|e| e.stage == Stage::Error).count();
    assert_eq!(errors, 3, "one `error` checkpoint per refused send");
    assert!(
        !dir.join("flight_bbp_send_error_n0.json").exists(),
        "a NoCredit refusal must not touch the file system"
    );

    // Timed out: reliable mode, the peer is in the ring but never receives.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.reliability = Some(ReliabilityConfig {
        ack_timeout_ns: 50_000,
        max_retries: 1,
        ..Default::default()
    });
    let mut a = BbpCluster::new(&sim.handle(), cfg).endpoint(0);
    sim.spawn("a", move |ctx| {
        let err = a.send(ctx, 1, b"unanswered").unwrap_err();
        assert!(matches!(err, BbpError::Timeout { peer: 1, .. }), "{err:?}");
    });
    assert!(sim.run().is_clean());
    let dump = dir.join("flight_bbp_send_error_n0.json");
    assert!(dump.exists(), "a fault still ships its postmortem");

    std::env::remove_var("FLIGHT_DUMP_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
