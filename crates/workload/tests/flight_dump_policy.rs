//! Which cells write their flight ring to disk: a cell that violates
//! something does — the ring is the postmortem its repro line starts
//! from — and a clean cell does not. A ≈ 55 KB file per clean cell would
//! be host time spent on every serving cell for nothing.
//!
//! `$FLIGHT_DUMP_DIR` is process-global, so both halves share ONE test
//! function in a test binary of their own.

use des::{ms, us};
use workload::{run_cell, ServiceTime, Shape, WorkloadPlan};

#[test]
fn a_clean_cell_leaves_no_flight_file_but_a_violating_one_does() {
    let dir = std::env::temp_dir().join(format!("wl_flight_policy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FLIGHT_DUMP_DIR", &dir);

    let clean = WorkloadPlan::new(3)
        .clients(1, 4)
        .window(ms(1), Shape::Poisson { rate_hz: 400.0 })
        .window(us(500), Shape::Off);
    let out = run_cell(&clean, 1.0, "wl_clean");
    assert_eq!(out.violations, Vec::<String>::new());
    assert!(out.completed > 0, "the clean cell served requests");
    assert!(
        !dir.join("flight_wl_clean.json").exists(),
        "a clean cell must not touch the file system"
    );

    // One server spending 100 ms per request cannot drain by the
    // deadline, 60 ms after the arrivals stop.
    let stuck = clean.service(ServiceTime::Fixed { ns: ms(100) });
    let out = run_cell(&stuck, 1.0, "wl_stuck");
    assert!(
        out.violations.iter().any(|v| v.starts_with("undrained")),
        "{:?}",
        out.violations
    );
    assert!(
        dir.join("flight_wl_stuck.json").exists(),
        "a violating cell ships its postmortem"
    );

    std::env::remove_var("FLIGHT_DUMP_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
