//! Golden-file verification of the Chrome trace exporter over a real
//! workload: a 4-node `MPI_Bcast` on SCRAMNet. The simulator is fully
//! deterministic, so the exported trace must be byte-identical run to
//! run — any drift in instrumentation, scheduling, or the exporter
//! shows up here first.
//!
//! Regenerate after an intentional change with:
//! `BLESS=1 cargo test -p bench --test trace_golden`

use bench::{mpi_bcast_events, mpi_bcast_us, MpiNet};
use obs::{Event, Layer};
use smpi::CollectiveImpl;

const LEN: usize = 64;
const NODES: usize = 4;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bcast_4node_64B.trace.json")
}

fn bcast_events() -> Vec<Event> {
    mpi_bcast_events(MpiNet::Scramnet, LEN, NODES, CollectiveImpl::Native).1
}

#[test]
fn chrome_trace_matches_golden() {
    let trace = obs::chrome_trace_json(&bcast_events());
    obs::golden::check(&golden_path(), &trace, "Chrome trace");
}

#[test]
fn trace_is_deterministic_across_runs() {
    let a = obs::chrome_trace_json(&bcast_events());
    let b = obs::chrome_trace_json(&bcast_events());
    assert_eq!(a, b);
}

#[test]
fn trace_parses_and_covers_all_mpi_stack_layers() {
    let events = bcast_events();
    let trace = obs::chrome_trace_json(&events);
    let doc = obs::json::parse(&trace).expect("trace must be valid JSON");
    let top = doc.get("traceEvents").expect("traceEvents key");
    assert!(!top.as_arr().expect("traceEvents array").is_empty());

    // The paper's four software layers (binding, ADI, channel interface,
    // device) plus the hardware path must all contribute spans.
    for layer in [
        Layer::Mpi,
        Layer::Adi,
        Layer::Channel,
        Layer::Device,
        Layer::Bbp,
        Layer::Nic,
        Layer::Ring,
    ] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnter { layer: l, .. } if *l == layer)),
            "no span recorded for layer {layer:?}"
        );
    }
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    // Same broadcast, recorder disabled vs enabled: identical latency.
    let plain = mpi_bcast_us(MpiNet::Scramnet, LEN, NODES, CollectiveImpl::Native);
    let (recorded, events) = mpi_bcast_events(MpiNet::Scramnet, LEN, NODES, CollectiveImpl::Native);
    assert_eq!(plain, recorded, "instrumentation changed virtual time");
    assert!(!events.is_empty());
}
