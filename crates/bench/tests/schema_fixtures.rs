//! The committed report fixture: a real `bench-report --quick` output
//! at the one schema version the validator accepts.
//! This is the test that detects schema drift: the fixture was written
//! by an earlier build, so it must have exactly the shape this build's
//! writer gives its exemplar — every key, no other key, the same order.
//! It is also the report itself: this build's `bench-report --quick`
//! must write the same document, every number included. Regenerate it
//! with `bench-report --quick --out crates/bench/tests/fixtures/schema_vN.json`
//! when the schema is bumped or a simulated number is meant to move;
//! reports of older versions validate with the `bench-report --check`
//! of their own commit.

use obs::json::{parse, Json};
use obs::report::{exemplar, validate_json, SCHEMA_VERSION};

fn fixture() -> String {
    let path = format!(
        "{}/tests/fixtures/schema_v{SCHEMA_VERSION}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every object of `doc` has the keys of the exemplar's object in the
/// same place, in the same order (`validate_json` alone lets extra keys
/// and any order pass).
fn same_keys(doc: &Json, shape: &Json, at: &str) -> Result<(), String> {
    match (doc, shape) {
        (Json::Obj(members), Json::Obj(wanted)) => {
            let keys = |m: &[(String, Json)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            let (has, wants) = (keys(members), keys(wanted));
            if has != wants {
                return Err(format!(
                    "{at} has keys {has:?}, the writer writes {wants:?}"
                ));
            }
            (members.iter().zip(wanted)).try_for_each(|((key, value), (_, shape))| {
                same_keys(value, shape, &format!("{at}.{key}"))
            })
        }
        (Json::Arr(items), Json::Arr(first)) => (items.iter().enumerate())
            .try_for_each(|(i, item)| same_keys(item, &first[0], &format!("{at}[{i}]"))),
        _ => Ok(()),
    }
}

#[test]
fn the_committed_fixture_has_exactly_the_writers_shape() {
    let text = fixture();
    validate_json(&text).unwrap_or_else(|e| panic!("committed fixture no longer validates: {e}"));
    let doc = parse(&text).unwrap();
    assert_eq!(
        doc.get("schema_version"),
        Some(&Json::from(SCHEMA_VERSION)),
        "the fixture must carry its version"
    );
    same_keys(&doc, &Json::from(&exemplar(true)), "report").unwrap();
}

#[test]
fn bench_report_quick_writes_the_fixture() {
    let out = format!("{}/bench_report_quick.json", env!("CARGO_TARGET_TMPDIR"));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(["--quick", "--out", &out])
        .output()
        .expect("bench-report runs");
    assert!(
        run.status.success(),
        "bench-report --quick failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let written = std::fs::read_to_string(&out).unwrap();
    // Parsed values: objects compare as ordered key lists.
    assert!(
        parse(&written).unwrap() == parse(&fixture()).unwrap(),
        "bench-report --quick no longer writes the committed fixture; \
         if the change is meant, regenerate it:\n  {written}"
    );
}

#[test]
fn a_key_too_many_or_out_of_order_is_caught_though_the_document_validates() {
    let Json::Obj(mut root) = parse(&fixture()).unwrap() else {
        panic!("the fixture is an object")
    };
    let shape = Json::from(&exemplar(true));
    let verdict = |root: &[(String, Json)]| {
        let doc = Json::Obj(root.to_vec());
        validate_json(&doc.to_document()).expect("every required key is still there");
        same_keys(&doc, &shape, "report")
    };
    root.swap(2, 3);
    assert!(verdict(&root).unwrap_err().contains("report has keys"));
    root.swap(2, 3);
    let Json::Arr(anchors) = &mut root[2].1 else {
        panic!("anchors is an array")
    };
    let Json::Obj(anchor) = &mut anchors[1] else {
        panic!("an anchor is an object")
    };
    anchor.push(("model_us".to_string(), Json::from(6.7)));
    assert!(verdict(&root)
        .unwrap_err()
        .contains("report.anchors[1] has keys"));
}
