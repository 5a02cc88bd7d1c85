//! The committed report fixture: a real `bench-report --quick
//! --threads 2` output at the one schema version the validator accepts.
//! Regenerate it when the schema is bumped; reports of older versions
//! validate with the `bench-report --check` of their own commit.

use obs::report::{validate_json, SCHEMA_VERSION};

fn fixture() -> String {
    let path = format!(
        "{}/tests/fixtures/schema_v{SCHEMA_VERSION}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn the_committed_fixture_validates() {
    let doc = fixture();
    assert!(
        doc.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
        "the fixture must carry its version"
    );
    validate_json(&doc).unwrap_or_else(|e| panic!("committed fixture no longer validates: {e}"));
}

#[test]
fn the_fixture_exercises_the_timeseries_quorum_and_wallclock_sections() {
    let doc = fixture();
    for key in [
        "\"timeseries\"",
        "\"peak_at_us\"",
        "\"quorum\"",
        "\"stale_epoch_rejects\"",
        "\"freezes\"",
        "\"epoch_bumps\"",
        "\"ring_bcast_stress_16node_t2\"",
        "\"stall_passes\"",
    ] {
        assert!(doc.contains(key), "fixture lacks {key}");
    }
}
