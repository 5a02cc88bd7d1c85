//! Integration tests of the workload campaign machinery: cell
//! determinism, the saturating ×8 overload cell, per-scenario health at
//! nominal load, the flood sidecar's residency invariant, and capacity
//! folding. (Filters, repro lines and the violation digest are the
//! runner's: `obs::campaign`.)

use des::{ms, us};
use obs::LogHistogram;
use workload::{
    capacity, cells, run_cell, to_report, CampaignCell, CellOutcome, ServiceTime, Shape, Sidecar,
    WorkloadKind, WorkloadPlan, KINDS,
};

/// A small cell that still exercises servers, priorities, and drain.
fn small_plan(seed: u64) -> WorkloadPlan {
    WorkloadPlan::new(seed)
        .clients(2, 8)
        .window(ms(2), Shape::Poisson { rate_hz: 400.0 })
        .window(us(500), Shape::Off)
}

/// Deep overload: 256 channels offer ~410k req/s against the ~50k req/s
/// ceiling of one server with 20 µs exponential service (~8x).
fn overload_plan(seed: u64) -> WorkloadPlan {
    WorkloadPlan::new(seed)
        .clients(4, 64)
        .credits(4)
        .service(ServiceTime::Exp { mean_ns: 20_000 })
        .body_bytes(64)
        .high_share(20)
        .pool(32)
        .window(ms(20), Shape::Poisson { rate_hz: 1_600.0 })
}

/// Run one (plan, mult) cell twice and require identical outcomes, the
/// simulation's own counts among them: every cell dispatches, relays steps
/// for a sleeping process and hands the baton between threads.
fn replayed(plan: &WorkloadPlan, mult: f64, label: &str) -> CellOutcome {
    let a = run_cell(plan, mult, &format!("{label}_a"));
    let b = run_cell(plan, mult, &format!("{label}_b"));
    let counts = |c: &CellOutcome| (c.run.dispatches, c.run.relayed, c.run.handoffs);
    assert_eq!(counts(&a), counts(&b));
    let (dispatches, relayed, handoffs) = counts(&a);
    assert!(dispatches > 0 && relayed > 0 && handoffs > 0, "{:?}", a.run);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.transport_shed, b.transport_shed);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.max_residency, b.max_residency);
    assert_eq!(a.high_dispatched, b.high_dispatched);
    assert_eq!(a.normal_dispatched, b.normal_dispatched);
    assert_eq!(a.per_node_completed, b.per_node_completed);
    assert_eq!(a.service.quantile(0.999), b.service.quantile(0.999));
    assert_eq!(a.violations, b.violations);
    a
}

#[test]
fn same_plan_same_mult_same_outcome() {
    replayed(&small_plan(7), 2.0, "wl_test_det");
}

/// Offered load far past the service ceiling: the cell still completes
/// (a deadlock or an undrained request is a violation), sheds the excess
/// through the credit gates instead of queueing it, keeps queue
/// residency inside the preallocated pool, and starves neither class.
#[test]
fn overload_is_shed_bounded_and_deadlock_free() {
    let plan = overload_plan(7);
    let out = replayed(&plan, 1.0, "wl_test_overload");
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.undrained, 0);
    assert!(out.completed > 0, "nothing completed");
    assert_eq!(out.completed, out.sent, "accepted requests leaked");
    assert!(
        out.shed + out.transport_shed > out.completed,
        "overload was absorbed, not shed"
    );
    assert!(
        out.max_residency <= plan.pool,
        "residency {} exceeded the {}-buffer pool",
        out.max_residency,
        plan.pool
    );
    assert!(out.high_dispatched > 0, "high class starved");
    assert!(out.normal_dispatched > 0, "normal class starved");
    assert!(out.service.quantile(0.5) > 0, "latency histogram is empty");
}

/// What a cell measured, as the numbers the benchmark's fingerprint
/// folds: `(sent, completed, shed, transport_shed, undrained,
/// max_residency, high_dispatched, normal_dispatched, service p50 ns,
/// service p999 ns, residency p99 ns)`.
fn cell_pin(out: &CellOutcome) -> [u64; 11] {
    [
        out.sent,
        out.completed,
        out.shed,
        out.transport_shed,
        out.undrained,
        out.max_residency as u64,
        out.high_dispatched,
        out.normal_dispatched,
        out.service.p50(),
        out.service.p999(),
        out.residency.p99(),
    ]
}

/// A cell's numbers are constants: the server loop, the reply path and
/// the credit gates may be rewritten, what they simulate may not move
/// without this test saying so. One cell the pool never fills in, one
/// in deep overload that fills it and sheds at both credit gates.
#[test]
fn cell_outcomes_are_pinned() {
    let nominal = run_cell(&small_plan(7), 1.0, "wl_test_pin_nominal");
    assert_eq!(nominal.violations, Vec::<String>::new());
    assert_eq!(
        cell_pin(&nominal),
        [16, 16, 0, 0, 0, 5, 2, 14, 98304, 393216, 1536]
    );
    let overload = run_cell(&overload_plan(7), 1.0, "wl_test_pin_overload");
    assert_eq!(overload.violations, Vec::<String>::new());
    assert_eq!(
        cell_pin(&overload),
        [704, 704, 28, 7304, 0, 32, 132, 572, 6291456, 6291456, 786432]
    );
}

#[test]
fn every_scenario_is_healthy_at_nominal_load() {
    for kind in KINDS {
        let plan = kind.plan(1, 64);
        let out = run_cell(&plan, 1.0, &format!("wl_test_{}_x1", kind.name()));
        assert_eq!(
            out.violations,
            Vec::<String>::new(),
            "{} at x1 should run clean",
            kind.name()
        );
        assert!(out.completed > 0, "{} completed nothing", kind.name());
    }
}

#[test]
fn flood_parks_exactly_the_unmatched_sends_and_drains() {
    let plan = WorkloadPlan::new(3)
        .clients(1, 4)
        .window(ms(2), Shape::Poisson { rate_hz: 200.0 })
        .window(ms(1), Shape::Off)
        .sidecar(Sidecar::UnexpectedFlood {
            messages: 20,
            prepost: 5,
            at: us(200),
            post_delay: us(1_000),
        });
    let out = run_cell(&plan, 1.0, "wl_test_flood");
    assert_eq!(out.violations, Vec::<String>::new());
    let flood = out.flood.expect("the floodee reports its outcome");
    assert_eq!(
        flood.peak, 15,
        "every send without a posted receive parks in the unexpected queue"
    );
    assert_eq!(flood.final_residency, 0, "the queue fully drains");
    assert_eq!(flood.delivered, 20, "every flood message arrives intact");
}

/// The health monitor is the only judge of pool residency and flood
/// parking, so what it judges must be what happened: the gauges are
/// sampled at the exact sites the hand-rolled stats read, and the
/// sampled maxima equal the stat maxima.
#[test]
fn sampled_gauges_equal_the_hand_rolled_stats() {
    // 4 channels x 2 kHz x 2 ms: requests do arrive, so the residency
    // gauge is sampled (at 200 Hz this seed offers none, and the pool
    // rule comes back `Unsampled`).
    let plan = WorkloadPlan::new(9)
        .clients(1, 4)
        .window(ms(2), Shape::Poisson { rate_hz: 2_000.0 })
        .window(ms(1), Shape::Off)
        .sidecar(Sidecar::UnexpectedFlood {
            messages: 20,
            prepost: 5,
            at: us(200),
            post_delay: us(1_000),
        });
    let out = run_cell(&plan, 1.0, "wl_test_health_agree");
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.health_violations, Vec::<String>::new());

    let floodee = (plan.nprocs() - 2) as u32;
    let park = out
        .telemetry
        .iter()
        .find(|s| s.name == "adi.unexpected_len" && s.node == floodee)
        .expect("the floodee's unexpected queue was sampled");
    let flood = out.flood.expect("the floodee reports its outcome");
    assert_eq!(
        park.max as usize, flood.peak,
        "the sampled park peak is the hand-rolled peak"
    );
    assert_eq!(
        park.last as usize, flood.final_residency,
        "the sampled final residency is the hand-rolled one"
    );
    let residency = out
        .telemetry
        .iter()
        .filter(|s| s.name == "rpc.buffers_in_use")
        .map(|s| s.max)
        .fold(0.0f64, f64::max);
    assert!(out.max_residency > 0, "the cell served requests");
    assert_eq!(
        residency as usize, out.max_residency,
        "the sampled residency peak is the hand-rolled one"
    );
}

/// A deliberately tightened spec over the same finished cell must flag
/// the flood's legitimate parking — and dump the offending series next
/// to the flight ring for postmortem.
#[test]
fn tightened_health_spec_flags_and_dumps_the_offending_series() {
    let plan = WorkloadPlan::new(13)
        .clients(1, 4)
        .window(ms(2), Shape::Poisson { rate_hz: 200.0 })
        .window(ms(1), Shape::Off)
        .sidecar(Sidecar::UnexpectedFlood {
            messages: 20,
            prepost: 5,
            at: us(200),
            post_delay: us(1_000),
        });
    let out = run_cell(&plan, 1.0, "wl_test_health_tight");
    assert_eq!(out.health_violations, Vec::<String>::new());

    // The flood parks 15 messages by design; a 1-message bound trips.
    let tight = obs::HealthSpec::new().never_above("adi.unexpected_len", 1.0);
    let violations = tight.evaluate_and_dump(&out.telemetry, "wl_test_health_tight");
    assert_eq!(violations.len(), 1, "the tightened park bound must trip");
    let v = &violations[0];
    assert_eq!(v.metric, "adi.unexpected_len");
    // The violation pins the *first* offending window, not the peak.
    assert!(
        v.observed > 1.0,
        "observed {} must exceed the bound",
        v.observed
    );

    let dir = std::env::var("FLIGHT_DUMP_DIR").unwrap_or_else(|_| "target/flight".to_string());
    let path = format!(
        "{dir}/series_wl_test_health_tight_adi_unexpected_len_{}.json",
        v.node
    );
    let dump = std::fs::read_to_string(&path).expect("the offending series is dumped");
    let doc = obs::json::parse(&dump).expect("series dump is valid JSON");
    assert_eq!(
        doc.get("metric").and_then(obs::json::Json::as_str),
        Some("adi.unexpected_len")
    );
    assert_eq!(doc.get("max").and_then(obs::json::Json::as_f64), Some(15.0));
}

#[test]
fn pingpong_sidecar_completes_alongside_rpc_load() {
    let plan = small_plan(11).sidecar(Sidecar::PingPong { rounds: 25 });
    let out = run_cell(&plan, 1.0, "wl_test_pingpong");
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.pingpong_rounds, Some(25));
}

#[test]
fn straggler_service_shows_up_in_the_tail() {
    let plan = WorkloadPlan::new(5)
        .clients(2, 8)
        .service(ServiceTime::LongTail {
            ns: 10_000,
            slow_ns: 500_000,
            slow_every: 16,
        })
        .window(ms(5), Shape::Poisson { rate_hz: 500.0 })
        .window(ms(1), Shape::Off);
    let out = run_cell(&plan, 1.0, "wl_test_straggler");
    assert_eq!(out.violations, Vec::<String>::new());
    assert!(
        out.service.quantile(0.999) >= 500_000,
        "p999 ({} ns) must include the 500 µs stragglers",
        out.service.quantile(0.999)
    );
}

/// Hand-build a campaign cell for the capacity fold.
fn synthetic_cell(mult: f64, p999_ns: u64, violations: Vec<String>) -> CampaignCell {
    let service = LogHistogram::new();
    service.record(p999_ns);
    CampaignCell {
        kind: WorkloadKind::Incast,
        seed: 1,
        size: 64,
        mult,
        p999_target_us: 400.0,
        outcome: CellOutcome {
            sent: 1_000,
            completed: 1_000,
            shed: 0,
            transport_shed: 0,
            offered: 1_000,
            service,
            residency: LogHistogram::new(),
            max_residency: 4,
            high_dispatched: 200,
            normal_dispatched: 800,
            per_node_completed: vec![500, 500],
            undrained: 0,
            flood: None,
            pingpong_rounds: None,
            elapsed_ns: ms(10),
            violations,
            health_violations: Vec::new(),
            telemetry: Vec::new(),
            // An empty simulation's report.
            run: des::Simulation::new().run(),
        },
    }
}

#[test]
fn capacity_picks_the_highest_fully_sustained_rung() {
    // x1 sustains, x2 violates, x4 would sustain on latency alone — but
    // the ladder's envelope is the highest rung where everything held.
    let cap = capacity(&[
        synthetic_cell(1.0, 100_000, Vec::new()),
        synthetic_cell(2.0, 100_000, vec!["fairness: synthetic".to_string()]),
        synthetic_cell(4.0, 100_000, Vec::new()),
    ]);
    assert_eq!(cap.len(), 1);
    assert_eq!(cap[0].scenario, "incast");
    assert_eq!(cap[0].max_sustainable_mult, 4.0);
    let limited: Vec<&str> = cap[0].cells.iter().map(|c| c.limited_by.as_str()).collect();
    assert_eq!(limited, vec!["none", "violation", "none"]);

    // With the violation gone but the latency blown, x2 is latency
    // limited and x1 is the envelope.
    let cap = capacity(&[
        synthetic_cell(1.0, 100_000, Vec::new()),
        synthetic_cell(2.0, 900_000, Vec::new()),
    ]);
    assert_eq!(cap[0].max_sustainable_mult, 1.0);
    assert_eq!(cap[0].cells[1].limited_by, "latency");
    assert!((cap[0].max_sustainable_hz - 100_000.0).abs() < 1.0);
}

/// `--quick` runs cells *of* the full matrix, so a repro line printed
/// by a quick run selects its cell without the flag.
#[test]
fn the_quick_matrix_is_a_subset_of_the_full_one() {
    let (full, quick) = (cells(false), cells(true));
    assert_eq!(full.len(), 144);
    assert_eq!(quick.len(), 12);
    assert!(quick.iter().all(|c| full.contains(c)));
}

#[test]
fn campaign_report_validates_against_the_schema() {
    let report = to_report(
        &[
            synthetic_cell(1.0, 100_000, Vec::new()),
            synthetic_cell(4.0, 900_000, Vec::new()),
        ],
        "workload-campaign test",
    );
    let json = report.to_json();
    obs::report::validate_json(&json).expect("a campaign report is schema valid");
    assert!(json.contains("\"capacity\""));
    assert!(json.contains("\"sheds_per_sec\""));
}
