//! Structural rules over the source text, run by tier-1 `cargo test`.
//!
//! A public function has a caller: every `pub fn` a library crate
//! declares in `crates/*/src` (outside `#[cfg(test)]`) is named in some
//! other file of the workspace. A function only its own file names is
//! private, or dead code outside that file's tests.
//!
//! The rule is a function over `(path, text)` pairs, so a planted
//! violation can be shown to trip it without touching the tree.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions that stay public with no caller outside their file,
/// as `(path, name, why)`.
const CALLER_NOT_REQUIRED: &[(&str, &str, &str)] = &[
    (
        "crates/bbp/src/layout.rs",
        "partition_words",
        "the partition size a bulk-data layout will read (ROADMAP item 18)",
    ),
    (
        "crates/obs/src/flight.rs",
        "dump_json",
        "the flight ring as text, beside the file writer that uses it",
    ),
];

/// Where a caller may live, relative to the repository root. The
/// vendored stand-ins under `crates/compat` call nothing of ours.
const CALLER_ROOTS: &[&str] = &["crates", "src", "examples", "tests", "benchmark/src"];

/// The part of a file that is not test code: everything before its
/// first column-0 `#[cfg(test)]` (the code-line budget's rule).
fn outside_tests(text: &str) -> &str {
    let cut = text
        .match_indices("#[cfg(test)]")
        .find(|&(at, _)| at == 0 || text.as_bytes()[at - 1] == b'\n')
        .map_or(text.len(), |(at, _)| at);
    &text[..cut]
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The names `text` declares with `pub fn` (or `pub const fn`), skipping
/// comment lines and functions under an indented `#[cfg(test)]`.
fn public_fns(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut test_only = false;
    for line in outside_tests(text).lines() {
        let code = line.trim_start();
        if code.starts_with("#[") {
            test_only |= code.starts_with("#[cfg(test)]");
            continue;
        }
        if is_comment(line) {
            continue;
        }
        let rest = code
            .strip_prefix("pub fn ")
            .or_else(|| code.strip_prefix("pub const fn "));
        if let Some(rest) = rest.filter(|_| !test_only) {
            let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
            out.push(&rest[..end]);
        }
        test_only = false;
    }
    out
}

/// Every identifier named on a non-comment line of `text`.
fn names(text: &str) -> HashSet<&str> {
    text.lines()
        .filter(|line| !is_comment(line))
        .flat_map(|line| line.split(|c| !is_ident(c)))
        .filter(|word| !word.is_empty())
        .collect()
}

/// The public functions of `crates/*/src` no other file names, as
/// `path: name`, allow-listed ones left out.
fn uncalled(files: &[(String, String)]) -> Vec<String> {
    let named: Vec<HashSet<&str>> = files.iter().map(|(_, text)| names(text)).collect();
    let mut out = Vec::new();
    for (i, (path, text)) in files.iter().enumerate() {
        let mut parts = path.split('/');
        let library = parts.next() == Some("crates") && parts.nth(1) == Some("src");
        if !library {
            continue;
        }
        for name in public_fns(text) {
            let allowed = CALLER_NOT_REQUIRED
                .iter()
                .any(|&(p, n, _)| p == path && n == name);
            let called = named
                .iter()
                .enumerate()
                .any(|(j, set)| j != i && set.contains(name));
            if !allowed && !called {
                out.push(format!("{path}: {name}"));
            }
        }
    }
    out
}

/// The `.rs` files under `dir`, build outputs and vendored crates left out.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("crates/compat") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace's source files as `(path relative to the root, text)`.
fn workspace_files() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in CALLER_ROOTS {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root");
            let text = fs::read_to_string(&path).expect("readable source");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect()
}

#[test]
fn a_public_function_has_a_caller() {
    let files = workspace_files();
    assert!(
        files.iter().any(|(p, _)| p == "crates/smpi/src/mpi.rs"),
        "the scan found no library source"
    );
    let orphans = uncalled(&files);
    assert!(
        orphans.is_empty(),
        "public functions no other file names (make them private, delete \
         them, or allow-list them with a reason):\n{}",
        orphans.join("\n")
    );
}

#[test]
fn every_allow_listed_function_still_exists() {
    let files = workspace_files();
    for &(path, name, _) in CALLER_NOT_REQUIRED {
        let text = &files.iter().find(|(p, _)| p == path).expect(path).1;
        assert!(public_fns(text).contains(&name), "{path}: {name}");
    }
}

fn file(path: &str, text: &str) -> (String, String) {
    (path.into(), text.into())
}

#[test]
fn a_planted_uncalled_function_trips_the_rule() {
    let lib = "pub fn planted() {}\n\npub fn used() {}\n";
    let caller = "fn main() { lib::used(); }\n";
    let files = [
        file("crates/x/src/lib.rs", lib),
        file("examples/y.rs", caller),
    ];
    assert_eq!(uncalled(&files), ["crates/x/src/lib.rs: planted"]);
}

#[test]
fn comments_and_own_file_calls_are_not_callers() {
    let lib = "pub fn lonely() {}\nfn inner() { lonely(); }\n";
    let other = "// lonely()\n/// [`lonely`]\nfn x() {}\n";
    let files = [
        file("crates/x/src/a.rs", lib),
        file("crates/x/tests/t.rs", other),
    ];
    assert_eq!(uncalled(&files), ["crates/x/src/a.rs: lonely"]);
}

#[test]
fn test_code_declares_nothing_and_tests_elsewhere_call() {
    let lib = "    #[cfg(test)]\n    pub fn helper() {}\n\
               pub fn tested() {}\n\
               #[cfg(test)]\nmod tests {\n    pub fn also_a_helper() {}\n}\n";
    let test = "#[test]\nfn t() { x::tested(); }\n";
    let files = [
        file("crates/x/src/a.rs", lib),
        file("crates/x/tests/t.rs", test),
    ];
    assert!(uncalled(&files).is_empty());
}

#[test]
fn only_library_sources_are_held_to_it() {
    let files = [
        file("crates/x/tests/t.rs", "pub fn fixture() {}\n"),
        file("crates/x/benches/b.rs", "pub fn bench_helper() {}\n"),
        file("examples/e.rs", "pub fn shown() {}\n"),
    ];
    assert!(uncalled(&files).is_empty());
}
