//! How often a serving cell wakes its host threads, pinned without a
//! clock: `des::RunReport::handoffs` is as deterministic as the cell's
//! dispatches.
//!
//! The cell is the repo benchmark's `serving_mixed` shape. What it
//! simulates — its dispatches and its end — may not move; how often the
//! baton changes threads to get there is the host's cost, and may only
//! fall.

use des::ms;
use workload::{run_cell, Shape, Sidecar, WorkloadPlan};

/// 3 client nodes of 16 channels offer Poisson arrivals to one server for
/// 10 ms, then 1 ms of quiesce, beside an 80-round MPI ping-pong.
fn benchmark_cell() -> WorkloadPlan {
    WorkloadPlan::new(1999)
        .body_bytes(64)
        .clients(3, 16)
        .window(ms(10), Shape::Poisson { rate_hz: 350.0 })
        .window(ms(1), Shape::Off)
        .sidecar(Sidecar::PingPong { rounds: 80 })
        .p999_target(1_600.0)
}

#[test]
fn the_benchmark_cell_dispatches_as_before_and_wakes_less() {
    // `(load, dispatches, end_time, handoffs)`. Hand-offs while every RPC
    // loop polled awake: 10 376 and 16 769. Since the server's and the
    // clients' idle polls sleep (`rpc::MessageQueue::idle`,
    // `rpc::RpcClient::idle`) and the handler's time and the wait for
    // the next arrival ride in front of the sweep after them: 6 429 and
    // 13 320. The MPI sidecar's point-to-point waits still poll awake.
    for (mult, dispatches, end_time, handoffs) in [
        (1.0, 64_675, 10_404_113, 6_429),
        (4.0, 108_947, 16_830_360, 13_320),
    ] {
        let out = run_cell(&benchmark_cell(), mult, &format!("wl_test_wakeups_x{mult}"));
        assert_eq!(out.violations, Vec::<String>::new());
        assert_eq!(
            (out.run.dispatches, out.run.end_time),
            (dispatches, end_time),
            "x{mult}: what the cell simulates moved"
        );
        assert_eq!(out.run.handoffs, handoffs, "x{mult}: {:?}", out.run);
    }
}
