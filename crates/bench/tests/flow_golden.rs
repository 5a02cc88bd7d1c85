//! Golden-file verification of the Chrome *flow-event* export: the
//! per-message lifecycle chains (`ph: "s"/"t"/"f"`) of a 4-node
//! `MPI_Bcast`, isolated from the span/counter tracks so drift in the
//! message-tracing instrumentation is caught on its own.
//!
//! Regenerate after an intentional change with:
//! `BLESS=1 cargo test -p bench --test flow_golden`

use bench::{mpi_bcast_events, MpiNet};
use obs::{Event, Stage};
use smpi::CollectiveImpl;

const LEN: usize = 64;
const NODES: usize = 4;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bcast_4node_64B.flow.json")
}

/// The broadcast's event stream reduced to its lifecycle checkpoints,
/// so the export holds only track metadata and flow phases.
fn flow_events() -> Vec<Event> {
    mpi_bcast_events(MpiNet::Scramnet, LEN, NODES, CollectiveImpl::Native)
        .1
        .into_iter()
        .filter(|e| matches!(e, Event::Lifecycle { .. }))
        .collect()
}

#[test]
fn flow_export_matches_golden() {
    let trace = obs::chrome_trace_json(&flow_events());
    obs::golden::check(&golden_path(), &trace, "flow export");
}

#[test]
fn waterfall_reconstructs_from_the_flow_chain() {
    let events = flow_events();
    let waterfalls = obs::message_waterfalls(&events);
    assert!(
        !waterfalls.is_empty(),
        "the instrumented broadcast must trace at least one message"
    );

    // The root's broadcast message: one `s` start at MPI send entry, a
    // descriptor write and one flag set per receiver, ring transit at
    // every hop, and an `f` delivery on each of the three receivers.
    let w = &waterfalls[0];
    assert_eq!(w.src, 0, "the broadcast originates at rank 0");
    assert_eq!(w.steps.first().map(|s| s.stage), Some(Stage::SendEnter));
    assert_eq!(w.steps.last().map(|s| s.stage), Some(Stage::Deliver));
    let count = |stage| w.steps.iter().filter(|s| s.stage == stage).count();
    assert_eq!(count(Stage::DescriptorWrite), 1);
    assert_eq!(count(Stage::FlagSet), NODES - 1);
    assert_eq!(count(Stage::Deliver), NODES - 1);
    assert!(
        count(Stage::RingHop) >= NODES - 1,
        "per-hop transit missing"
    );
    assert!(
        w.steps.windows(2).all(|p| p[0].time <= p[1].time),
        "checkpoints must be in time order"
    );
    assert!(w.total_ns() > 0);

    // And the exported flow chain carries the same story: exactly one
    // `s`, one `f` per receiver, `t` steps in between, all on this id.
    let trace = obs::chrome_trace_json(&events);
    let doc = obs::json::parse(&trace).expect("flow export must be valid JSON");
    let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let phases_of = |id: u64, ph: &str| {
        items
            .iter()
            .filter(|e| {
                e.get("id").and_then(obs::json::Json::as_f64) == Some(id as f64)
                    && e.get("ph").and_then(obs::json::Json::as_str) == Some(ph)
            })
            .count()
    };
    assert_eq!(phases_of(w.id, "s"), 1);
    assert_eq!(phases_of(w.id, "f"), NODES - 1);
    assert!(phases_of(w.id, "t") > 0);
}
