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
    (
        "crates/shmem/src/seqlock.rs",
        "read",
        "the seqlock's one reader: `SeqLock` is one of the crate's five \
         documented primitives, exercised by its own tests and used nowhere \
         else yet; without this it would be a lock nobody can read",
    ),
];

/// Method names a standard-library type has as well (`str::parse`,
/// `Vec::push`, `Mutex::lock`, `Iterator::partition`, …): a bare `.name(`
/// in another file is as likely to be theirs as ours. A method of ours by
/// one of these names has a caller only in a file that also names its
/// type, or a type declared beside it (the handle or builder it came from).
const STD_METHOD_NAMES: &[&str] = &[
    "add",
    "append",
    "clear",
    "contains",
    "count",
    "drain",
    "extend",
    "finish",
    "first",
    "flush",
    "get",
    "insert",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "max",
    "min",
    "new",
    "next",
    "parse",
    "partition",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "send",
    "set",
    "split",
    "store",
    "sum",
    "swap",
    "take",
    "truncate",
    "wait",
    "write",
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

/// A public function `text` declares: its name, and the type whose `impl`
/// block it is in, if any.
struct PublicFn<'a> {
    name: &'a str,
    of: Option<&'a str>,
}

/// The types `text` declares (`struct`, `enum`, public or not) outside
/// its tests.
fn declared_types(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in outside_tests(text).lines() {
        let code = line.trim_start();
        let code = code
            .strip_prefix("pub(crate) ")
            .or_else(|| code.strip_prefix("pub "))
            .unwrap_or(code);
        if let Some(rest) = code
            .strip_prefix("struct ")
            .or_else(|| code.strip_prefix("enum "))
        {
            out.push(ident(rest));
        }
    }
    out
}

/// The leading identifier of `text`.
fn ident(text: &str) -> &str {
    let end = text.find(|c| !is_ident(c)).unwrap_or(text.len());
    &text[..end]
}

/// The type an `impl` line is for: `impl<T> Trait for Type<T> {` names
/// `Type`, `impl Type {` too.
fn impl_type(code: &str) -> Option<&str> {
    let rest = code
        .strip_prefix("impl")
        .filter(|r| r.starts_with([' ', '<']))?;
    let rest = match rest.strip_prefix('<') {
        Some(generic) => &generic[generic.find('>')? + 1..],
        None => rest,
    };
    let head = rest.split('{').next()?;
    let ty = head.rsplit(" for ").next()?.trim_start();
    let ty = ty.rsplit("::").next()?;
    Some(ident(ty)).filter(|ty| !ty.is_empty())
}

/// `{` minus `}` on a line of code, those inside string and character
/// literals left out.
fn depth_change(code: &str) -> i32 {
    let mut change = 0;
    let (mut in_str, mut escaped) = (false, false);
    let mut chars = code.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '\'' => {
                // A character literal ('{', '\'', …); a lifetime has no
                // closing quote within three characters.
                let ahead: String = chars.clone().take(3).collect();
                if let Some(end) = ahead.find('\'').filter(|&end| end > 0) {
                    chars.nth(end);
                }
            }
            '{' => change += 1,
            '}' => change -= 1,
            _ => {}
        }
    }
    change
}

/// The functions `text` declares with `pub fn` (or `pub const fn`),
/// skipping comment lines and functions under an indented `#[cfg(test)]`.
fn public_fns(text: &str) -> Vec<PublicFn<'_>> {
    let mut out = Vec::new();
    let mut test_only = false;
    // The open `impl` blocks' types and the depth each one opened at.
    let mut impls: Vec<(&str, i32)> = Vec::new();
    let mut depth = 0;
    for line in outside_tests(text).lines() {
        let code = line.trim_start();
        if is_comment(line) {
            continue;
        }
        let opened = depth;
        depth += depth_change(code);
        if let Some(ty) = impl_type(code) {
            impls.push((ty, opened));
        }
        impls.retain(|&(_, at)| depth > at);
        if code.starts_with("#[") {
            test_only |= code.starts_with("#[cfg(test)]");
            continue;
        }
        let rest = code
            .strip_prefix("pub fn ")
            .or_else(|| code.strip_prefix("pub const fn "));
        if let Some(rest) = rest.filter(|_| !test_only) {
            let of = impls.last().map(|&(ty, _)| ty);
            out.push(PublicFn {
                name: ident(rest),
                of,
            });
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
        let types = declared_types(text);
        for PublicFn { name, of } in public_fns(text) {
            let allowed = CALLER_NOT_REQUIRED
                .iter()
                .any(|&(p, n, _)| p == path && n == name);
            // `str::parse` is no call of `Settings::parse`: a method by a
            // standard name is called where its type, or one beside it, is
            // named too.
            let typed = of.filter(|_| STD_METHOD_NAMES.contains(&name));
            let calls = |set: &HashSet<&str>| {
                set.contains(name)
                    && typed
                        .is_none_or(|ty| set.contains(ty) || types.iter().any(|t| set.contains(t)))
            };
            let called = named
                .iter()
                .enumerate()
                .any(|(j, set)| j != i && calls(set));
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
        let declared = public_fns(text).iter().any(|f| f.name == name);
        assert!(declared, "{path}: {name}");
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
fn a_method_by_a_std_name_is_called_only_where_its_type_is_named() {
    let lib =
        "pub struct Settings;\n\nimpl Settings {\n    pub fn parse(text: &str) -> Self {\n        \
               Settings\n    }\n}\n\npub struct Plan;\n\npub struct PlanAt;\n\n\
               impl PlanAt {\n    pub fn partition(self) -> Plan {\n        Plan\n    }\n}\n";
    // `.parse()` of a `str`, and a builder chain that names the plan the
    // `PlanAt` came from but not `PlanAt` itself.
    let unrelated = "fn n(s: &str) -> u32 { s.parse().unwrap() }\n";
    let builder = "fn p() { let _ = x::Plan::at(1).partition(); }\n";
    let files = [
        file("crates/x/src/lib.rs", lib),
        file("crates/y/src/lib.rs", unrelated),
        file("examples/z.rs", builder),
    ];
    assert_eq!(uncalled(&files), ["crates/x/src/lib.rs: parse"]);
    let named = "fn n(s: &str) -> x::Settings { x::Settings::parse(s) }\n";
    let files = [
        file("crates/x/src/lib.rs", lib),
        file("crates/y/src/lib.rs", named),
        file("examples/z.rs", builder),
    ];
    assert!(uncalled(&files).is_empty());
}

#[test]
fn an_impl_block_ends_where_its_braces_close() {
    let lib =
        "impl<'a> Show for Wrap<'a> {\n    pub fn first(&self) -> char {\n        '{'\n    }\n}\n\
               pub fn after() -> &'static str {\n        \"}\"\n}\n";
    let fns: Vec<_> = public_fns(lib).iter().map(|f| (f.name, f.of)).collect();
    assert_eq!(fns, [("first", Some("Wrap")), ("after", None)]);
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
