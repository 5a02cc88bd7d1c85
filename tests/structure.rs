//! Structural rules over the source text, run by tier-1 `cargo test`
//! (`cargo test --test structure` alone).
//!
//! Each rule is a function over the repository's `(path, text)` pairs
//! that returns what it found, so a planted violation can be shown to
//! trip it without touching the tree: every rule has a case below that
//! plants one in a copy of the tree as read. The rules:
//!
//! - a public function has a caller ([`uncalled`]);
//! - a retired name stays retired ([`RETIRED`]);
//! - `bbp` is layered: `core.rs` names no extension layer, and no file
//!   grows into a monolith ([`bbp_layering`]);
//! - a BBP endpoint writes only its own words: no `bbp` module but
//!   `layout.rs` calls a NIC write or holds a `Nic` ([`nic_outside_layout`]);
//! - only collectives sleep ([`sleep_outside_collectives`]);
//! - `des` has one lock and one way in ([`des_locks`]);
//! - a hop takes no lock ([`hop_locks`]);
//! - a knob has a caller ([`PUBLIC_FIELDS`]) and every calibration
//!   constant is a row of EXPERIMENTS.md's table ([`uncalibrated`]);
//! - the report tier says it once ([`report_tier`]);
//! - a process returns its result: a lock shares one only where another
//!   entity reads or writes it during the run ([`SHARED_DURING_THE_RUN`]);
//! - code a deletion removed stays removed ([`BUDGETS`]);
//! - docs/PERFORMANCE.md citations resolve ([`unresolved_citations`]), and
//!   its "What each PR bought" table is `BENCH_history.jsonl`'s record
//!   ([`unrecorded_prs`]).
//!
//! This file is read by none of them: its patterns and planted cases are
//! no violation.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// A file of the repository: its path relative to the root, and its text.
type File = (String, String);

/// What the rules read, relative to the repository root: a directory
/// whole, any `target` directory below it left out.
const READ: &[&str] = &[
    "crates",
    "src",
    "examples",
    "tests",
    "benchmark/src",
    "docs",
    ".github",
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "BENCH_history.jsonl",
];

/// This file, which no rule reads.
const SELF: &str = "tests/structure.rs";

fn read_into(root: &Path, path: &Path, out: &mut Vec<File>) {
    if path.is_dir() {
        if path.ends_with("target") {
            return;
        }
        let entries = fs::read_dir(path).expect("readable directory");
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            read_into(root, &path, out);
        }
    } else {
        let bytes = fs::read(path).expect("readable file");
        let rel = path.strip_prefix(root).expect("under the root");
        let text = String::from_utf8_lossy(&bytes).into_owned();
        out.push((rel.to_string_lossy().into_owned(), text));
    }
}

/// The files the rules read, read once.
fn repo_files() -> &'static [File] {
    static FILES: OnceLock<Vec<File>> = OnceLock::new();
    FILES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut out = Vec::new();
        for path in READ {
            read_into(root, &root.join(path), &mut out);
        }
        out.retain(|(path, _)| path != SELF);
        out
    })
}

/// Whether `path` is under `root`: the file itself, a file below the
/// directory, or, for `dir/*.rs`, a `.rs` file directly in `dir` (what
/// the shell glob names).
fn under(path: &str, root: &str) -> bool {
    if let Some(dir) = root.strip_suffix("/*.rs") {
        let name = path.strip_prefix(dir).and_then(|p| p.strip_prefix('/'));
        return name.is_some_and(|name| !name.contains('/') && name.ends_with(".rs"));
    }
    path == root || path.strip_prefix(root).is_some_and(|p| p.starts_with('/'))
}

/// The files under any of `roots`.
fn files_under<'a>(files: &'a [File], roots: &'a [&str]) -> impl Iterator<Item = &'a File> {
    files
        .iter()
        .filter(move |(path, _)| roots.iter().any(|root| under(path, root)))
}

/// The text of the file at `path`; empty when there is none.
fn text_of<'a>(files: &'a [File], path: &str) -> &'a str {
    files
        .iter()
        .find(|(p, _)| p == path)
        .map_or("", |(_, text)| text)
}

/// The lines of `text` with their 1-based numbers.
fn numbered(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, line)| (i + 1, line))
}

/// The part of a file that is not test code: everything before its
/// first column-0 `#[cfg(test)]`.
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

/// The leading identifier of `text`.
fn ident(text: &str) -> &str {
    let end = text.find(|c| !is_ident(c)).unwrap_or(text.len());
    &text[..end]
}

// ----------------------------------------------------------------------
// Matching without a regex
// ----------------------------------------------------------------------

/// Which ends of a name must not touch an identifier character: a regex's
/// `\b` before it (`Start`), after it (`End`) or both.
#[derive(Clone, Copy)]
enum Edge {
    Free,
    Start,
    End,
    Both,
}

/// Whether `pat` occurs in `line` with its edges clear. A `*` in `pat`
/// stands for one or more identifier characters.
fn occurs(line: &str, pat: &str, edge: Edge) -> bool {
    let (head, tail) = match pat.split_once('*') {
        Some((head, tail)) => (head, Some(tail)),
        None => (pat, None),
    };
    let start_clear = matches!(edge, Edge::Start | Edge::Both);
    let end_clear = matches!(edge, Edge::End | Edge::Both);
    let mut from = 0;
    while let Some(found) = line[from..].find(head) {
        let at = from + found;
        from = at + line[at..].chars().next().map_or(1, char::len_utf8);
        if start_clear && line[..at].ends_with(is_ident) {
            continue;
        }
        let after = at + head.len();
        let ends = match tail {
            None => vec![after],
            Some(tail) => {
                let run = line[after..].find(|c| !is_ident(c));
                let run = run.unwrap_or(line.len() - after);
                (after + 1..=after + run)
                    .filter(|&j| line.is_char_boundary(j) && line[j..].starts_with(tail))
                    .map(|j| j + tail.len())
                    .collect()
            }
        };
        if ends
            .into_iter()
            .any(|end| !end_clear || !line[end..].starts_with(is_ident))
        {
            return true;
        }
    }
    false
}

/// `text` past a leading `[a-z_]+` name and then `sep`.
fn past_name<'a>(text: &'a str, sep: &str) -> Option<&'a str> {
    let end = text
        .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
        .unwrap_or(text.len());
    text[end..].strip_prefix(sep).filter(|_| end > 0)
}

/// The type of the field `line` declares (`name: Type`, private, `pub`
/// or `pub(…)`, indented or not), as the rest of the line.
fn field_type(line: &str) -> Option<&str> {
    let code = line.trim_start();
    let restricted = code.strip_prefix("pub(").and_then(|rest| {
        let (scope, rest) = rest.split_once(") ")?;
        let lower = !scope.is_empty() && scope.chars().all(|c| c.is_ascii_lowercase());
        lower.then_some(rest)
    });
    [code.strip_prefix("pub "), restricted, Some(code)]
        .into_iter()
        .flatten()
        .find_map(|rest| past_name(rest, ": "))
}

/// Whether `line` declares an indented plain-`pub` field.
fn is_pub_field(line: &str) -> bool {
    let code = line.trim_start();
    let indented = code.len() < line.len();
    indented
        && code
            .strip_prefix("pub ")
            .and_then(|r| past_name(r, ":"))
            .is_some()
}

/// Whether `text` starts with `word` and no identifier character follows.
fn starts_with_word(text: &str, word: &str) -> bool {
    text.strip_prefix(word)
        .is_some_and(|rest| !rest.starts_with(is_ident))
}

/// The lines of each item of `text` whose first line starts with `head`,
/// through the next line that starts with `}`.
fn item_lines<'a>(text: &'a str, head: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        inside |= line.starts_with(head);
        if inside {
            out.push(line);
            inside = !line.starts_with('}');
        }
    }
    out
}

/// How many of `lines` declare a `Mutex<…>` field.
fn mutex_fields<'a>(lines: impl IntoIterator<Item = &'a str>) -> usize {
    let is_mutex = |line: &&str| field_type(line).is_some_and(|ty| ty.starts_with("Mutex<"));
    lines.into_iter().filter(is_mutex).count()
}

// ----------------------------------------------------------------------
// A public function has a caller
// ----------------------------------------------------------------------

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

/// Where a caller may live. The vendored stand-ins under `crates/compat`
/// call nothing of ours.
const CALLER_ROOTS: &[&str] = &["crates", "src", "examples", "tests", "benchmark/src"];

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
fn uncalled(files: &[File]) -> Vec<String> {
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

/// The workspace's Rust sources, vendored crates left out.
fn workspace_files() -> Vec<File> {
    files_under(repo_files(), CALLER_ROOTS)
        .filter(|(path, _)| path.ends_with(".rs") && !under(path, "crates/compat"))
        .cloned()
        .collect()
}

// ----------------------------------------------------------------------
// Retired names
// ----------------------------------------------------------------------

/// Names a change retired, as `(names, roots, edge, what)`: a line of a
/// file under one of `roots` ([`under`]) that names one fails, its ends
/// clear as `edge` says ([`occurs`]). A name's coming back is a diff
/// somebody meant: this table's row goes with it.
const RETIRED: &[(&[&str], &[&str], Edge, &str)] = &[
    (
        &[
            "fn try_*_native",
            "fn try_send_null",
            "fn try_mcast_null",
            "fn try_mcast_eager",
            "fn send_null_lossy",
            "fn poll_null",
        ],
        &["crates/smpi/src/*.rs"],
        Edge::End,
        "smpi forks a collective or a raw-frame call again (each has one body)",
    ),
    (
        &[
            "ReqId",
            "BadRequest",
            "redeemed a send request",
            "redeemed a receive request",
            "completed_sends",
            "rndz_sends",
        ],
        &["crates", "examples", "tests", "docs"],
        Edge::Free,
        "a copyable request id or a per-state request collection is back \
         (a request is a move-only handle over one ADI table)",
    ),
    (
        &[
            "trait Device",
            "dyn Device",
            "impl Device for",
            "BbpDevice",
            "MyrinetDevice",
            "idle_wait",
            "idle_sleep",
        ],
        &["crates", "examples", "tests", "docs", "DESIGN.md"],
        Edge::Free,
        "smpi's device is an open trait or a forwarding wrapper again \
         (one closed enum, one idle method)",
    ),
    (
        &["% self.n"],
        &["crates/scramnet/src/ring.rs"],
        Edge::Free,
        "the ring walk divides again (it steps by compare and wrap: \
         `RingShared::next`/`prev`)",
    ),
    (
        &[
            "reserve_order",
            "schedule_at_ordered",
            "base_order",
            "reserve_seqs",
        ],
        &["crates", "examples", "tests"],
        Edge::Free,
        "a hop schedules itself through a reserved tie-break value again",
    ),
    (
        &["peek_time", "idle_through", "read_bound"],
        &["crates"],
        Edge::Free,
        "des answers \"is it next?\" a second way again (`Agenda::bound` is the one)",
    ),
    (
        &["FourAryHeap"],
        &["crates"],
        Edge::Free,
        "des keeps a second ordering structure (a heap) again",
    ),
    (
        &["mod pq"],
        &["crates"],
        Edge::End,
        "des keeps a second ordering structure (a heap) again",
    ),
    (
        &["pq::"],
        &["crates"],
        Edge::Start,
        "des keeps a second ordering structure (a heap) again",
    ),
    (
        &["Arc::new(vec!", "Arc::new(data.to_vec())"],
        &["crates/scramnet/src"],
        Edge::Free,
        "scramnet boxes a payload per write again (it rides in its pooled plan)",
    ),
    (
        &[
            "Box<HopPlan>",
            "vec_box",
            "HopPlan::empty",
            "HOP_TIME_BITS",
            "Vec<Vec<Word>>",
        ],
        &["crates/scramnet/src"],
        Edge::Free,
        "scramnet boxes a packet's plan, stores it hop by hop or pools `Vec` \
         buffers again",
    ),
    (
        &["longest_plan"],
        &["crates/scramnet/src"],
        Edge::Both,
        "scramnet sizes every buffer to the longest plan again (size classes)",
    ),
    (
        &[
            "MyrinetApiCosts",
            "with_costs",
            "pub fn tcp_with",
            "MyrinetApiNet",
            "MyrinetApiPort",
            "Device::Myrinet",
        ],
        &["crates", "tests", "examples"],
        Edge::Free,
        "a retired calibration knob is back (the Myrinet API is a `TcpCosts` preset)",
    ),
    (
        &[
            "MembershipConfig",
            "heartbeat_period_ns",
            "suspect_after_ns",
            "dead_after_ns",
            "checksum_ns",
            "backoff_factor",
            "bridge_ns",
        ],
        &["crates", "tests", "examples"],
        Edge::Free,
        "a retired protocol setting is named again (it is a constant of \
         bbp::config or scramnet::cost)",
    ),
    (
        &[
            "TimeseriesRow",
            "QuorumRow",
            "push_timeseries",
            "push_quorum",
            "quorum_partition_counters",
            "sustained_above",
            "step_rate_below",
            "SustainedAbove",
            "StepRateBelow",
        ],
        &["crates", "examples", "docs"],
        Edge::Free,
        "a retired report section or health rule is named again",
    ),
    (
        &[
            "static SINK",
            "report::begin(",
            "report::finish(",
            "push_quantiles",
            "one_way_samples",
            "_pingpong_samples",
            "layering_log_histogram",
            "MIN_SCHEMA_VERSION",
        ],
        &["crates", "examples", "tests"],
        Edge::Free,
        "the report sink or the quantiles section is back (bench-report \
         builds its report as a value)",
    ),
    (
        &[
            "HealthSpec",
            "evaluate_and_dump",
            "settles_to_zero_by",
            "never_above",
            "cell_health_spec",
            "Finding::",
        ],
        &["crates", "examples", "docs"],
        Edge::Free,
        "the sampled health-rule engine is back (a workload cell is judged \
         from the counts it keeps)",
    ),
    (
        &[
            "BufferState",
            "ownership violated",
            "flush_ready",
            "fn reply_later",
            "transfer_to_callee",
        ],
        &["crates", "examples", "docs/RPC.md"],
        Edge::Free,
        "rpc's run-time ownership state, or a second reply path, is named \
         again (who holds which type is who may touch a slot)",
    ),
    (
        &["track_provenance", "WriteRecord", "fn provenance"],
        &["crates", "examples", "tests"],
        Edge::Free,
        "the per-bank provenance audit, or its setting, is named again \
         (each ring's owner table checks every inject)",
    ),
    (
        &["is_enabled()"],
        &[
            "crates/bbp/src/*.rs",
            "crates/smpi/src/*.rs",
            "crates/rpc/src/*.rs",
            "crates/shmem/src/*.rs",
            "crates/netsim/src/*.rs",
        ],
        Edge::Free,
        "a protocol layer branches on `Recorder::is_enabled` (recording \
         forks no host path)",
    ),
    (
        &[
            ".span_enter(",
            ".span_exit(",
            "fn leave(&self",
            "fn leave(&mut self",
        ],
        &["crates", "examples", "tests", "docs"],
        Edge::Free,
        "a span is opened and closed by hand again (`ProcCtx::span`, \
         `Recorder::open_span`)",
    ),
    (
        &[
            "ParRing",
            "ParSim",
            "des::par",
            "link_lookahead_ns",
            "WallclockShard",
            "min-speedup",
        ],
        &["crates", "tests", "examples", ".github"],
        Edge::Free,
        "the parallel engine, or the report section and flags that carried \
         it, is named again (docs/PERFORMANCE.md, \"Why there is no \
         parallel engine\")",
    ),
    (
        &["rand::", "StdRng", "SeedableRng", "gen_range"],
        &["crates", "src", "examples", "tests"],
        Edge::Start,
        "a second random stream is back (every draw is `des::rng::SimRng`'s)",
    ),
];

/// Each line that names a retired name, as `path:line: what: text`.
fn retired(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for &(names, roots, edge, what) in RETIRED {
        for (path, text) in files_under(files, roots) {
            for (n, line) in numbered(text) {
                if names.iter().any(|name| occurs(line, name, edge)) {
                    out.push(format!("{path}:{n}: {what}: {}", line.trim()));
                }
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Counted rules
// ----------------------------------------------------------------------

/// The extension layers `bbp`'s `core.rs`, the paper's protocol and
/// nothing else, names in no case.
const EXTENSION_LAYERS: &[&str] = &["reliab", "membership", "credit", "quorum"];

/// The lines a `bbp` source file may have (newlines, as `wc -l` counts).
const BBP_FILE_LINES: usize = 1200;

/// `core.rs` names no extension layer, and no `bbp` source file grows
/// back into a monolith.
fn bbp_layering(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files_under(files, &["crates/bbp/src/core.rs"]) {
        for (n, line) in numbered(text) {
            let lower = line.to_lowercase();
            if EXTENSION_LAYERS.iter().any(|layer| lower.contains(layer)) {
                out.push(format!(
                    "{path}:{n}: names an extension layer: {}",
                    line.trim()
                ));
            }
        }
    }
    for (path, text) in files_under(files, &["crates/bbp/src/*.rs"]) {
        let lines = text.matches('\n').count();
        if lines > BBP_FILE_LINES {
            out.push(format!("{path} has {lines} lines (limit {BBP_FILE_LINES})"));
        }
    }
    out
}

/// The NIC writes, which `bbp` makes only through `layout.rs`'s `Writer`.
const NIC_WRITES: &[&str] = &["write_word", "write_block", "dma_write"];

/// The raw NIC writes `crates/shmem/src` makes outside its tests, each a
/// store of a word its handle's node owns: the bakery lock's four, the
/// barrier's arrival, the counter's cell and `EventFlagOwner::set`.
const SHMEM_NIC_WRITES: usize = 7;

/// A `bbp` module besides `layout.rs` that calls a NIC write or holds a
/// `Nic` (the `Writer` owns the endpoint's NIC and writes by role), and
/// `shmem` making more raw NIC writes than [`SHMEM_NIC_WRITES`].
fn nic_outside_layout(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    let shmem: usize = files_under(files, &["crates/shmem/src"])
        .flat_map(|(_, text)| outside_tests(text).lines())
        .filter(|line| !is_comment(line))
        .filter(|line| NIC_WRITES.iter().any(|w| occurs(line, w, Edge::Both)))
        .count();
    if shmem > SHMEM_NIC_WRITES {
        out.push(format!(
            "crates/shmem/src makes {shmem} NIC writes (limit {SHMEM_NIC_WRITES})"
        ));
    }
    for (path, text) in files_under(files, &["crates/bbp/src/*.rs"]) {
        if path == "crates/bbp/src/layout.rs" {
            continue;
        }
        for (n, line) in numbered(text) {
            if NIC_WRITES.iter().any(|w| occurs(line, w, Edge::Both)) {
                out.push(format!("{path}:{n}: calls a NIC write: {}", line.trim()));
            }
            let nic =
                |ty: &str| starts_with_word(ty, "Nic") || starts_with_word(ty, "scramnet::Nic");
            if field_type(line).is_some_and(nic) {
                out.push(format!("{path}:{n}: holds a Nic: {}", line.trim()));
            }
        }
    }
    out
}

/// An `smpi` file besides `adi.rs` and `collectives.rs` that names the
/// sleeping wait: under the point-to-point waits it raised
/// `mpi_pingpong`'s `peak_rss_mb` past its bound (ROADMAP 1(a)), so
/// adopting it in `mpi.rs` has to be a diff somebody meant.
fn sleep_outside_collectives(files: &[File]) -> Vec<String> {
    files_under(files, &["crates/smpi/src/*.rs"])
        .filter(|(path, text)| {
            let allowed = path.ends_with("/adi.rs") || path.ends_with("/collectives.rs");
            !allowed && text.contains("Idle::Sleep")
        })
        .map(|(path, _)| format!("{path} names `Idle::Sleep` (only adi.rs and collectives.rs may)"))
        .collect()
}

/// The most `Mutex<` fields `sched.rs`, `process.rs` and `sim.rs` declare
/// outside their tests: the core, the caller's mailbox and the
/// debug-only debt record.
const DES_MUTEX_FIELDS: usize = 3;

/// `des` is one core behind one lock with one way in, and a thread waits
/// for the baton in one place (`process::await_baton`, which yields
/// before it parks).
fn des_locks(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    let scheduler = [
        "crates/des/src/sched.rs",
        "crates/des/src/process.rs",
        "crates/des/src/sim.rs",
    ];
    let fields: usize = files_under(files, &scheduler)
        .map(|(_, text)| mutex_fields(outside_tests(text).lines()))
        .sum();
    if fields > DES_MUTEX_FIELDS {
        out.push(format!(
            "des sched.rs, process.rs and sim.rs declare {fields} Mutex fields \
             (limit {DES_MUTEX_FIELDS})"
        ));
    }
    let shared = item_lines(
        text_of(files, "crates/des/src/process.rs"),
        "pub(crate) struct ProcShared",
    );
    if shared.is_empty() {
        out.push("crates/des/src/process.rs declares no `ProcShared`".into());
    }
    for line in shared.iter().filter(|line| line.contains("Mutex")) {
        out.push(format!("ProcShared holds a lock again: {}", line.trim()));
    }
    let src = files_under(files, &["crates/des/src/*.rs"]);
    let ways = src
        .flat_map(|(_, text)| text.lines())
        .filter(|line| line.contains(".core.lock()") || line.contains(".core.try_lock()"))
        .count();
    if ways != 1 {
        out.push(format!(
            "the core's lock is taken in {ways} places (want 1: SchedShared::core)"
        ));
    }
    let parks = files_under(files, &["crates/des/src/*.rs"])
        .flat_map(|(_, text)| outside_tests(text).lines())
        .filter(|line| line.contains("thread::park()"))
        .count();
    if parks != 1 {
        out.push(format!(
            "crates/des/src parks a thread in {parks} places (want 1: process::await_baton)"
        ));
    }
    out
}

/// The most `Mutex<` fields `RingShared` declares: the ring's state, the
/// watches and the taps.
const RING_MUTEX_FIELDS: usize = 3;

/// A hop takes no lock: a bank is written through `&self`, and the
/// ring's shared state is at most three locks.
fn hop_locks(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files_under(files, &["crates/scramnet/src/bank.rs"]) {
        for (n, line) in numbered(outside_tests(text)) {
            if occurs(line, "fn *(&mut self", Edge::Free) && !line.contains("fn drop(") {
                out.push(format!(
                    "{path}:{n}: writes a bank through &mut self again: {}",
                    line.trim()
                ));
            }
        }
    }
    let ring = item_lines(
        text_of(files, "crates/scramnet/src/ring.rs"),
        "pub(crate) struct RingShared",
    );
    if ring.is_empty() {
        out.push("crates/scramnet/src/ring.rs declares no `RingShared`".into());
    }
    let fields = mutex_fields(ring);
    if fields > RING_MUTEX_FIELDS {
        out.push(format!(
            "RingShared declares {fields} Mutex fields (limit {RING_MUTEX_FIELDS})"
        ));
    }
    out
}

/// The settable values of the calibration and the protocol configs, as
/// `(type, file, limit)`: the public fields `pub struct type {` declares.
/// A cost nobody varies is a constant or a preset's private field.
const PUBLIC_FIELDS: &[(&str, &str, usize)] = &[
    ("CostModel", "crates/scramnet/src/cost.rs", 5),
    ("SmpiCosts", "crates/smpi/src/costs.rs", 0),
    ("TcpCosts", "crates/netsim/src/tcp.rs", 1),
    ("NetSpec", "crates/netsim/src/spec.rs", 2),
    ("RingConfig", "crates/scramnet/src/ring.rs", 4),
    ("BbpConfig", "crates/bbp/src/config.rs", 7),
    ("ReliabilityConfig", "crates/bbp/src/config.rs", 5),
    ("CreditConfig", "crates/bbp/src/config.rs", 2),
    ("HierarchyConfig", "crates/scramnet/src/hierarchy.rs", 3),
    ("WorkloadPlan", "crates/workload/src/plan.rs", 11),
];

/// A config with more settable values than its limit, or a `RingConfig`
/// that names node ids (a hierarchy's ids are `Ring::with_ids`').
fn knobs(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for &(ty, path, limit) in PUBLIC_FIELDS {
        let lines = item_lines(text_of(files, path), &format!("pub struct {ty} {{"));
        if lines.is_empty() {
            out.push(format!("{path} declares no `pub struct {ty} {{`"));
        }
        let n = lines.iter().filter(|line| is_pub_field(line)).count();
        if n > limit {
            out.push(format!("{ty} has {n} public fields (limit {limit})"));
        }
        if ty == "RingConfig" && lines.iter().any(|line| line.contains("node_ids")) {
            out.push("RingConfig has a node_ids field again".into());
        }
    }
    out
}

/// Where the calibration's constants live.
const CALIBRATED: &[&str] = &["crates/scramnet/src/cost.rs", "crates/bbp/src/config.rs"];

/// The body of `doc`'s `## title` section, up to the next `## ` heading.
fn section<'a>(doc: &'a str, title: &str) -> Option<&'a str> {
    let body = doc.split_once(&format!("\n## {title}\n"))?.1;
    Some(body.split_once("\n## ").map_or(body, |(body, _)| body))
}

/// A column-0 `const NAME: Type = 1_234;` (or `pub`, `pub(crate)`) of
/// `line` as its name and value.
fn constant(line: &str) -> Option<(&str, &str)> {
    let code = line
        .strip_prefix("pub ")
        .or_else(|| line.strip_prefix("pub(crate) "))
        .unwrap_or(line);
    let rest = code.strip_prefix("const ")?;
    let name = ident(rest);
    let rest = rest[name.len()..].strip_prefix(": ")?;
    let ty = ident(rest);
    let rest = rest[ty.len()..].strip_prefix(" = ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '_' || c == '.'))
        .unwrap_or(rest.len());
    let value = &rest[..end];
    let whole = !name.is_empty() && !ty.is_empty() && !value.is_empty();
    (whole && rest[end..].starts_with(';')).then_some((name, value))
}

/// Every constant of the calibration that is not a row of EXPERIMENTS.md's
/// "Calibration constants" table with the same value.
fn uncalibrated(files: &[File]) -> Vec<String> {
    let Some(table) = section(text_of(files, "EXPERIMENTS.md"), "Calibration constants") else {
        return vec!["EXPERIMENTS.md has no \"Calibration constants\" section".into()];
    };
    // `| `NAME` | value |`: the value up to the next bar, spaces dropped.
    let rows: HashMap<&str, String> = table
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| `")?;
            let name = ident(rest);
            let cell = rest[name.len()..].strip_prefix("` | ")?;
            let value = cell.split('|').next().filter(|_| cell.contains('|'))?;
            let value = value
                .strip_suffix(' ')
                .filter(|v| !name.is_empty() && !v.is_empty())?;
            Some((name, value.replace(' ', "")))
        })
        .collect();
    let mut out = Vec::new();
    let mut constants = 0;
    for (path, text) in files_under(files, CALIBRATED) {
        for (name, value) in text.lines().filter_map(constant) {
            constants += 1;
            let want = value.replace('_', "");
            match rows.get(name) {
                Some(got) if *got == want => {}
                got => out.push(format!(
                    "{path}: {name} = {want}, calibration table: {}",
                    got.map_or("no row", String::as_str)
                )),
            }
        }
    }
    if constants == 0 {
        out.push("no calibration constant found".into());
    }
    out
}

/// The ping-pong loop headers `crates/bench` has: one ping side, one pong
/// side (the paper's loop exists once).
const PINGPONG_LOOPS: usize = 2;

/// The ways to write report text by hand, which `report.rs` (outside its
/// tests) does not take: its keys are said once, by the `Json` writer.
const HAND_WRITTEN_TEXT: &[&str] = &["push_str(\"", "write_fmt", "format_args!"];

/// The report tier says it once: one ping-pong loop, one text writer.
fn report_tier(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    let loops = files_under(files, &["crates/bench"])
        .flat_map(|(_, text)| text.lines())
        .filter(|line| line.contains("0..WARMUP +"))
        .count();
    if loops != PINGPONG_LOOPS {
        out.push(format!(
            "crates/bench has {loops} ping-pong loop headers (want {PINGPONG_LOOPS}: ping and pong)"
        ));
    }
    for (path, text) in files_under(files, &["crates/obs/src/report.rs"]) {
        for (n, line) in numbered(outside_tests(text)) {
            if HAND_WRITTEN_TEXT.iter().any(|way| line.contains(way)) {
                out.push(format!(
                    "{path}:{n}: writes report text by hand: {}",
                    line.trim()
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Results a process returns
// ----------------------------------------------------------------------

/// The `Arc::new(Mutex::new(` sites left outside `crates/des/src` and the
/// benchmark, as `(file, sites, why)`: each is state another entity reads
/// or writes while the run goes on. A process that only hands a result
/// out returns it (`des::Spawned`); an event returns nothing.
const SHARED_DURING_THE_RUN: &[(&str, usize, &str)] = &[
    (
        "crates/des/tests/baton.rs",
        2,
        "events record the thread each of them ran on",
    ),
    (
        "crates/scramnet/src/ring.rs",
        2,
        "a node's apply tap logs each delivery as it lands (`Ring::record_deliveries`, \
         and the hops of the interleaved-packets test)",
    ),
    (
        "crates/scramnet/tests/backlog_bytes.rs",
        1,
        "the event that sources the burst counts what the burst allocated",
    ),
    (
        "crates/smpi/src/testutil.rs",
        1,
        "the scripted device's frames, which its test probe reads and feeds while ranks run",
    ),
    (
        "examples/fault_bypass.rs",
        1,
        "one log that the fault events and the processes write in run order",
    ),
];

/// Each file outside `crates/des/src` and the benchmark with more
/// `Arc::new(Mutex::new(` sites than its row allows (none without a row).
fn shared_results(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        if !path.ends_with(".rs") || under(path, "crates/des/src") || under(path, "benchmark") {
            continue;
        }
        let sites = text.matches("Arc::new(Mutex::new(").count();
        let cap = SHARED_DURING_THE_RUN
            .iter()
            .find(|row| row.0 == path)
            .map_or(0, |row| row.1);
        if sites > cap {
            out.push(format!(
                "{path} shares {sites} results through `Arc::new(Mutex::new(` (cap {cap}): \
                 a process returns its result through `des::Spawned`"
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// Code-line budgets
// ----------------------------------------------------------------------

/// The code lines each path may hold, as `(path, limit, why)`. A budget
/// is the count the last deletion left; one a change has to raise says
/// why in its row (CHANGES.md holds the history).
const BUDGETS: &[(&str, usize, &str)] = &[
    (
        "crates/bbp/src",
        2427,
        "2 433 → 2 470 for the round-end guard, `Slept` and the interrupt-mode wait on ACKs; \
         2 427 when `Writer`'s ten forwards to its NIC went for a `Deref` to `NicView`",
    ),
    (
        "crates/smpi/src",
        2205,
        "2 328 → 2 205 when the MPI calls nothing ran went",
    ),
    (
        "crates/des/src",
        1700,
        "1 616 → 1 679 for the sleeping cycle's round-end guard and `ProcCtx::wait_either`; \
         1 713 when `compat/rand` folded into `rng.rs` (−152 there); 1 699 when a wait's \
         registration became one numbered entry for one ticket or two; 1 708 for \
         `Spawned`, the handle on what a process's body returns; 1 700 when the late band \
         became a binary heap (no insert search) and the flush drained both near bands \
         in one loop",
    ),
    (
        "crates/scramnet/src",
        1786,
        "1 775 → 1 776 for the round-end guard through `NicView::scan_until`; 1 786 for \
         `NicView`, the NIC's read side that `Nic` and `bbp::Writer` deref to (its struct, \
         the `Deref` and a second `impl`)",
    ),
    (
        "crates/netsim/src",
        400,
        "469 → 401 when the Myrinet API became a `TcpCosts` preset, then 400",
    ),
    (
        "crates/rpc/src",
        610,
        "592 → 610 for the two idle waits (`MessageQueue::idle`, `RpcClient::idle`)",
    ),
    (
        "crates/obs/src",
        2081,
        "2 082 → 2 084 for the series lookup by address and `Telemetry::take`; 2 081 when \
         the dump directory came to be said once (`flight::dump_file`)",
    ),
    (
        "crates/obs/src/report.rs",
        290,
        "322 → 290 when bench-report came to build its report as a value",
    ),
    (
        "crates/bench/src",
        625,
        "648 → 634 when the Myrinet API's own harness went; 625 when its harnesses' ranks \
         came to return their times",
    ),
    (
        "crates/bench/benches",
        1057,
        "1 096 → 1 095 when a provenance field line went; 1 093 as counted when budgets became \
         a test; 1 057 when the targets' processes came to return their results",
    ),
    (
        "crates/shmem/src",
        270,
        "337 → 259 when `SeqLock`, which nothing but its own tests used, went; 270 for \
         `EventFlagOwner`, the owner's handle, checked once at binding, that alone sets a flag",
    ),
    (
        "crates/workload/src",
        996,
        "1 018 → 1 020 for the idle waits' guards in `run_cell`; 1 016 when it came to \
         draw from `des::rng::SimRng`; 996 when `run_cell`'s processes came to return \
         their counts",
    ),
    (
        "crates/compat",
        486,
        "the vendored stubs (`proptest`, `parking_lot`) as counted when `rand` went",
    ),
];

/// The code lines of the `.rs` files under `path`: lines outside a
/// file's first column-0 `#[cfg(test)]` that are neither blank nor a `//`
/// comment (leading spaces and tabs skipped).
fn code_lines(files: &[File], path: &str) -> usize {
    files_under(files, &[path])
        .filter(|(p, _)| p.ends_with(".rs"))
        .flat_map(|(_, text)| outside_tests(text).lines())
        .map(|line| line.trim_start_matches([' ', '\t']))
        .filter(|code| !code.is_empty() && !code.starts_with("//"))
        .count()
}

/// Each budgeted path over its limit, or with no code counted.
fn over_budget(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    for &(path, limit, _) in BUDGETS {
        match code_lines(files, path) {
            0 => out.push(format!("{path}: no code counted")),
            n if n > limit => out.push(format!("{path} has {n} code lines (limit {limit})")),
            _ => {}
        }
    }
    out
}

// ----------------------------------------------------------------------
// docs/PERFORMANCE.md
// ----------------------------------------------------------------------

/// Where a docs/PERFORMANCE.md section may be cited from.
const CITING: &[&str] = &["DESIGN.md", "README.md", "crates", "docs", ".github"];

/// `line` with its indentation and a leading comment or heading marker
/// (`//`, `///`, `//!`, `#`…, `*`) taken off.
fn uncommented(line: &str) -> &str {
    let code = line.trim_start();
    if let Some(rest) = code.strip_prefix("//") {
        rest.strip_prefix(['/', '!']).unwrap_or(rest)
    } else if code.starts_with('#') {
        code.trim_start_matches('#')
    } else {
        code.strip_prefix('*').unwrap_or(code)
    }
}

/// A double-quoted title at the start of `text`, and what follows it.
fn quoted(text: &str) -> Option<(&str, &str)> {
    let body = text.strip_prefix('"')?;
    let end = body.find('"').filter(|&end| end > 0)?;
    Some((&body[..end], &body[end + 1..]))
}

/// The section titles `prose` (whitespace runs as single spaces) cites:
/// `PERFORMANCE.md,` and then one or more double-quoted titles, apart by
/// `,` or `and`.
fn cited_titles(prose: &str) -> Vec<&str> {
    const FILE: &str = "PERFORMANCE.md,";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = prose[from..].find(FILE) {
        from += at + FILE.len();
        let mut rest = prose[from..].trim_start();
        while let Some((title, after)) = quoted(rest) {
            out.push(title);
            let comma = after.strip_prefix(' ').unwrap_or(after).strip_prefix(',');
            let next = comma
                .map(|r| r.strip_prefix(' ').unwrap_or(r))
                .or_else(|| after.strip_prefix(" and "));
            match next.filter(|next| quoted(next).is_some()) {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
    out
}

/// Every citation of a docs/PERFORMANCE.md section, in comments and
/// documents alike and wrapped across lines or not, whose title no
/// heading of the file has (a heading may go on past it with ` `, `:` or
/// `(`).
fn unresolved_citations(files: &[File]) -> Vec<String> {
    let heads: Vec<String> = text_of(files, "docs/PERFORMANCE.md")
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| {
            let words = line.trim_start_matches('#').split_whitespace();
            words.collect::<Vec<_>>().join(" ")
        })
        .collect();
    let known = |title: &str| {
        let at = |h: &String| h.strip_prefix(title).map(|rest| rest.chars().next());
        heads
            .iter()
            .any(|h| matches!(at(h), Some(None | Some(' ' | ':' | '('))))
    };
    let mut out = Vec::new();
    for (path, text) in files_under(files, CITING) {
        let prose: Vec<&str> = text
            .split('\n')
            .flat_map(|line| uncommented(line).split_whitespace())
            .collect();
        for title in cited_titles(&prose.join(" ")) {
            if !known(title) {
                out.push(format!(
                    "{path}: docs/PERFORMANCE.md has no heading \"{title}\""
                ));
            }
        }
    }
    out
}

/// The PRs of docs/PERFORMANCE.md's "What each PR bought" table that lack
/// a `parent` or a `change` row in `BENCH_history.jsonl`, and those with
/// both rows that lack a table row: the table is read off the record.
fn unrecorded_prs(files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    let mut sides: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    for (n, line) in numbered(text_of(files, "BENCH_history.jsonl")) {
        if line.trim().is_empty() {
            continue;
        }
        let row = obs::json::parse(line);
        let pr = row.as_ref().ok().and_then(|r| r.get("pr")?.as_f64());
        let side = row.as_ref().ok().and_then(|r| r.get("side")?.as_str());
        match (pr, side) {
            (Some(pr), Some(side)) => {
                sides.entry(pr as u64).or_default().insert(side.into());
            }
            _ => out.push(format!("BENCH_history.jsonl:{n}: no `pr` and `side`")),
        }
    }
    let doc = text_of(files, "docs/PERFORMANCE.md");
    let table = section(doc, "What each PR bought")
        .and_then(|part| part.split_once("\n\n| PR | what changed |"))
        .map(|(_, rest)| rest.split("\n\n").next().unwrap_or(rest));
    let Some(table) = table else {
        out.push("docs/PERFORMANCE.md has no \"What each PR bought\" table".into());
        return out;
    };
    let prs: BTreeSet<u64> = table
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| ")?;
            let digits = &rest[..rest.find(|c: char| !c.is_ascii_digit())?];
            rest[digits.len()..]
                .starts_with(" |")
                .then(|| digits.parse().ok())?
        })
        .collect();
    let both = |pr: &u64| {
        sides
            .get(pr)
            .is_some_and(|s| s.contains("parent") && s.contains("change"))
    };
    for pr in prs.iter().filter(|pr| !both(pr)) {
        out.push(format!(
            "PR {pr} has no parent and change rows in BENCH_history.jsonl"
        ));
    }
    for pr in sides.keys().filter(|pr| both(pr) && !prs.contains(pr)) {
        out.push(format!(
            "PR {pr} has rows in BENCH_history.jsonl but none in the table"
        ));
    }
    if prs.is_empty() {
        out.push("the \"What each PR bought\" table has no PR".into());
    }
    out
}

// ----------------------------------------------------------------------
// The rules on the tree
// ----------------------------------------------------------------------

#[track_caller]
fn holds(rule: &str, found: Vec<String>) {
    assert!(found.is_empty(), "{rule}:\n{}", found.join("\n"));
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

#[test]
fn every_path_a_rule_reads_exists() {
    let files = repo_files();
    let mut roots: Vec<&str> = RETIRED
        .iter()
        .flat_map(|row| row.1.iter().copied())
        .collect();
    roots.extend(PUBLIC_FIELDS.iter().map(|row| row.1));
    roots.extend(BUDGETS.iter().map(|row| row.0));
    roots.extend(SHARED_DURING_THE_RUN.iter().map(|row| row.0));
    roots.extend(CALIBRATED.iter().chain(CITING));
    for root in roots {
        assert!(
            files_under(files, &[root]).next().is_some(),
            "{root} names no file"
        );
    }
}

#[test]
fn retired_names_stay_retired() {
    holds("a retired name is back", retired(repo_files()));
}

#[test]
fn bbp_core_is_the_protocol_and_no_file_is_a_monolith() {
    holds("bbp layering", bbp_layering(repo_files()));
}

#[test]
fn a_bbp_endpoint_writes_only_its_own_words() {
    holds(
        "bbp writes outside layout.rs, or shmem writes past its count",
        nic_outside_layout(repo_files()),
    );
}

#[test]
fn only_collectives_sleep() {
    holds("the sleeping wait", sleep_outside_collectives(repo_files()));
}

#[test]
fn des_has_one_lock_and_one_way_in() {
    holds("des locks", des_locks(repo_files()));
}

#[test]
fn a_hop_takes_no_lock() {
    holds("scramnet locks", hop_locks(repo_files()));
}

#[test]
fn a_knob_has_a_caller() {
    holds("settable values", knobs(repo_files()));
}

#[test]
fn every_calibration_constant_is_a_table_row() {
    holds("calibration constants", uncalibrated(repo_files()));
}

#[test]
fn a_process_returns_its_result() {
    holds("shared results", shared_results(repo_files()));
}

#[test]
fn the_report_tier_says_it_once() {
    holds("report tier", report_tier(repo_files()));
}

/// `cargo test --test structure budgets -- --nocapture` prints each count.
#[test]
fn code_line_budgets_hold() {
    let files = repo_files();
    for &(path, limit, _) in BUDGETS {
        println!("{path}: {} of {limit}", code_lines(files, path));
    }
    holds("code-line budgets", over_budget(files));
}

#[test]
fn section_citations_resolve() {
    holds("section citations", unresolved_citations(repo_files()));
}

#[test]
fn the_table_is_the_record() {
    holds("What each PR bought", unrecorded_prs(repo_files()));
}

// ----------------------------------------------------------------------
// Planted violations
// ----------------------------------------------------------------------

fn file(path: &str, text: &str) -> File {
    (path.into(), text.into())
}

/// The tree as read, with `path`'s text replaced, or the file added.
fn planted(path: &str, text: &str) -> Vec<File> {
    let mut files = repo_files().to_vec();
    match files.iter_mut().find(|(p, _)| p == path) {
        Some(found) => found.1 = text.into(),
        None => files.push(file(path, text)),
    }
    files
}

/// The tree as read, with the first `from` in `path` made `to`.
fn edited(path: &str, from: &str, to: &str) -> Vec<File> {
    let text = text_of(repo_files(), path);
    assert!(
        text.contains(from),
        "{path} has no {from:?} to plant beside"
    );
    planted(path, &text.replacen(from, to, 1))
}

/// `found` is exactly one finding, and it says `what`.
#[track_caller]
fn trips(found: Vec<String>, what: &str) {
    assert!(
        found.len() == 1 && found[0].contains(what),
        "want one finding with {what:?}, got {found:#?}"
    );
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

/// A file under `root` as [`under`] reads it.
fn planted_path(root: &str) -> String {
    match root.strip_suffix("/*.rs") {
        Some(dir) => format!("{dir}/planted.rs"),
        None if root.contains('.') && !root.starts_with('.') => root.into(),
        None => format!("{root}/planted/file.rs"),
    }
}

#[test]
fn every_retired_name_trips_its_row_under_every_root() {
    for &(names, roots, _, what) in RETIRED {
        for root in roots {
            for name in names {
                let line = format!("let planted = {};\n", name.replace('*', "x"));
                trips(retired(&[file(&planted_path(root), &line)]), what);
            }
        }
    }
}

#[test]
fn a_retired_name_trips_only_as_its_row_says() {
    let at = |path: &str, line: &str| retired(&[file(path, line)]).len();
    // Outside the row's roots.
    assert_eq!(at("docs/x.md", "WriteRecord"), 0);
    assert_eq!(at("crates/smpi/src/x/deep.rs", "fn poll_null()"), 0);
    assert_eq!(at("crates/scramnet/src/fifo.rs", "i % self.n"), 0);
    // Its edges: `mod pq\b`, `\bpq::`, `\blongest_plan\b`, `fn try_\w+_native\b`.
    assert_eq!(at("crates/x.rs", "mod pqueue;"), 0);
    assert_eq!(at("crates/x.rs", "use crate::heappq::Heap;"), 0);
    assert_eq!(at("crates/x.rs", "use pq::Heap;"), 1);
    assert_eq!(
        at("crates/scramnet/src/x.rs", "let longest_planned = 1;"),
        0
    );
    assert_eq!(at("crates/scramnet/src/x.rs", "a_longest_plan"), 0);
    assert_eq!(at("crates/smpi/src/x.rs", "fn try_native()"), 0);
    assert_eq!(at("crates/smpi/src/x.rs", "fn try_bcast_native2()"), 0);
    assert_eq!(at("crates/smpi/src/x.rs", "pub fn try_bcast_native("), 1);
    assert_eq!(at("crates/smpi/src/x.rs", "fn try_all_to_all_native<T>"), 1);
    // `\brand::`, `\bStdRng`: a path ending in `rand` is another name.
    assert_eq!(at("crates/x.rs", "use operand::Kind;"), 0);
    assert_eq!(at("crates/x.rs", "use rand::Rng;"), 1);
    assert_eq!(at("src/x.rs", "let r: MyStdRng;"), 0);
    assert_eq!(at("tests/x.rs", "rng.gen_range(0..9)"), 1);
}

#[test]
fn core_naming_an_extension_layer_trips_the_rule() {
    let path = "crates/bbp/src/core.rs";
    let files = edited(path, "\nuse ", "\n// Credits go here.\nuse ");
    trips(bbp_layering(&files), "names an extension layer");
}

#[test]
fn a_bbp_file_past_its_line_limit_trips_the_rule() {
    let path = "crates/bbp/src/planted.rs";
    assert!(bbp_layering(&planted(path, &"\n".repeat(BBP_FILE_LINES))).is_empty());
    let long = planted(path, &"\n".repeat(BBP_FILE_LINES + 1));
    trips(bbp_layering(&long), "has 1201 lines (limit 1200)");
}

#[test]
fn a_nic_write_or_a_nic_outside_layout_trips_the_rule() {
    let path = "crates/bbp/src/endpoint.rs";
    let write = edited(path, "\nuse ", "\n// nic.dma_write(0, &words)\nuse ");
    trips(nic_outside_layout(&write), "calls a NIC write");
    let held = edited(
        path,
        "\nuse ",
        "\nstruct Tx {\n    pub(crate) nic: scramnet::Nic,\n}\nuse ",
    );
    trips(nic_outside_layout(&held), "holds a Nic");
    let named =
        "fn f() { rewrite_words(); }\nstruct T {\n    nics: Vec<Nic>,\n    nic: NicId,\n}\n";
    assert!(nic_outside_layout(&[file(path, named)]).is_empty());
    let layout = "crates/bbp/src/layout.rs";
    assert!(nic_outside_layout(&[file(layout, "struct W {\n    nic: Nic,\n}\n")]).is_empty());
    // `shmem`: one raw write past the count trips it; a comment does not.
    let event = "crates/shmem/src/event.rs";
    let write = "\nfn f(n: &Nic, c: &mut ProcCtx) { n.write_word(c, 0, 1) }\nuse ";
    trips(
        nic_outside_layout(&edited(event, "\nuse ", write)),
        "crates/shmem/src makes 8 NIC writes (limit 7)",
    );
    let note = "\n// self.nic.write_word(ctx, addr, value)\nuse ";
    assert!(nic_outside_layout(&edited(event, "\nuse ", note)).is_empty());
}

#[test]
fn a_result_shared_through_a_lock_trips_the_rule() {
    let site = "\nfn f() { let _ = Arc::new(Mutex::new(0)); }\nuse ";
    let quickstart = edited("examples/quickstart.rs", "\nuse ", site);
    trips(
        shared_results(&quickstart),
        "examples/quickstart.rs shares 1",
    );
    let past_its_row = edited("examples/fault_bypass.rs", "\nuse ", site);
    trips(shared_results(&past_its_row), "shares 2 results");
    for outside in ["crates/des/src/sim.rs", "benchmark/src/drivers.rs"] {
        assert!(shared_results(&edited(outside, "\nuse ", site)).is_empty());
    }
}

#[test]
fn the_sleeping_wait_outside_collectives_trips_the_rule() {
    let files = edited("crates/smpi/src/mpi.rs", "\nuse ", "\n// Idle::Sleep\nuse ");
    trips(sleep_outside_collectives(&files), "crates/smpi/src/mpi.rs");
}

#[test]
fn a_fourth_scheduler_lock_or_a_second_way_in_trips_the_rule() {
    let sched = "crates/des/src/sim.rs";
    let struct_line = "pub struct Simulation {";
    let lock = format!("{struct_line}\n    planted: Mutex<u8>,");
    trips(
        des_locks(&edited(sched, struct_line, &lock)),
        "4 Mutex fields",
    );
    let process = "crates/des/src/process.rs";
    let head = "pub(crate) struct ProcShared {";
    let held = format!("{head}\n    gate: parking_lot::Mutex<()>,");
    trips(
        des_locks(&edited(process, head, &held)),
        "ProcShared holds a lock",
    );
    let way = edited(sched, "\nuse ", "\nfn f(s: &S) { s.core.lock(); }\nuse ");
    trips(des_locks(&way), "taken in 2 places");
    let park = edited(sched, "\nuse ", "\nfn f() { std::thread::park(); }\nuse ");
    trips(des_locks(&park), "parks a thread in 2 places");
    let in_tests =
        text_of(repo_files(), sched).to_string() + "\n#[cfg(test)]\nfn t() { thread::park(); }\n";
    assert!(des_locks(&planted(sched, &in_tests)).is_empty());
}

#[test]
fn a_bank_written_through_mut_self_or_a_fourth_ring_lock_trips_the_rule() {
    let bank = "crates/scramnet/src/bank.rs";
    let impl_line = "impl Bank {";
    let store = format!("{impl_line}\n    pub fn store_mut(&mut self, at: usize) {{}}");
    trips(
        hop_locks(&edited(bank, impl_line, &store)),
        "through &mut self",
    );
    let head = "pub(crate) struct RingShared {";
    let locked = format!("{head}\n    planted: Mutex<()>,");
    let ring = "crates/scramnet/src/ring.rs";
    trips(hop_locks(&edited(ring, head, &locked)), "4 Mutex fields");
    let drop = "impl Drop for B {\n    fn drop(&mut self) {}\n}\n";
    assert!(hop_locks(&planted(bank, drop)).is_empty());
}

#[test]
fn a_settable_value_past_its_limit_trips_the_rule() {
    for &(ty, path, limit) in PUBLIC_FIELDS {
        let head = format!("pub struct {ty} {{");
        let fields = format!("{head}{}", "\n    pub planted: u64,".repeat(limit + 1));
        let found = knobs(&edited(path, &head, &fields));
        trips(found, &format!("public fields (limit {limit})"));
    }
    let ring = "crates/scramnet/src/ring.rs";
    let head = "pub struct RingConfig {";
    let ids = format!("{head}\n    node_ids: Vec<u32>,");
    trips(knobs(&edited(ring, head, &ids)), "node_ids");
    let gone = edited(ring, head, "pub struct RingSettings {");
    trips(knobs(&gone), "declares no `pub struct RingConfig {`");
}

#[test]
fn a_constant_off_the_calibration_table_trips_the_rule() {
    let path = "crates/scramnet/src/cost.rs";
    let added = edited(path, "\nuse ", "\npub const PLANTED_NS: u64 = 1_000;\nuse ");
    trips(
        uncalibrated(&added),
        "PLANTED_NS = 1000, calibration table: no row",
    );
    let line = text_of(repo_files(), path)
        .lines()
        .find(|line| constant(line).is_some())
        .expect("a constant in cost.rs");
    let (name, value) = constant(line).expect("a constant");
    let moved = line.replacen(&format!(" = {value};"), " = 999_999;", 1);
    let what = format!("{name} = 999999, calibration table: ");
    trips(uncalibrated(&edited(path, line, &moved)), &what);
}

#[test]
fn a_third_pingpong_loop_or_hand_written_report_text_trips_the_rule() {
    let loops = planted(
        "crates/bench/benches/planted.rs",
        "for _ in 0..WARMUP + 4 {}\n",
    );
    trips(report_tier(&loops), "3 ping-pong loop headers");
    let report = "crates/obs/src/report.rs";
    let by_hand = edited(
        report,
        "\nuse ",
        "\nfn f(s: &mut String) { s.push_str(\"{\"); }\nuse ",
    );
    trips(report_tier(&by_hand), "writes report text by hand");
}

#[test]
fn a_path_over_its_budget_or_with_no_code_trips_the_rule() {
    for &(path, limit, _) in BUDGETS {
        let file = if path.ends_with(".rs") {
            path.to_string()
        } else {
            format!("{path}/planted.rs")
        };
        let grown = "x;\n".repeat(limit + 1) + text_of(repo_files(), &file);
        let found = over_budget(&planted(&file, &grown));
        let what = format!("{path} has ");
        assert!(
            found.iter().any(|f| f.starts_with(&what)),
            "{path}: {found:?}"
        );
    }
    let emptied: Vec<File> = repo_files()
        .iter()
        .filter(|(p, _)| !under(p, "crates/netsim/src"))
        .cloned()
        .collect();
    trips(over_budget(&emptied), "crates/netsim/src: no code counted");
}

#[test]
fn code_lines_are_counted_outside_tests_blanks_and_comments() {
    let text = "//! doc\nfn a() {}\n\n  \t\n    // note\n\t/// doc\n    #[cfg(test)]\n    \
                Scripted,\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    assert_eq!(
        code_lines(&[file("crates/x/src/a.rs", text)], "crates/x/src"),
        3
    );
    assert_eq!(
        code_lines(&[file("crates/x/src/a.md", text)], "crates/x/src"),
        0
    );
}

#[test]
fn a_citation_of_a_missing_section_trips_the_rule() {
    let path = "crates/des/src/planted.rs";
    let cite = "// docs/PERFORMANCE.md, \"What each PR bought\" and\n// \"No such section\"\n";
    trips(
        unresolved_citations(&planted(path, cite)),
        "has no heading \"No such section\"",
    );
    let prefix = "/// (PERFORMANCE.md,\n///  \"What each P\")\n";
    trips(
        unresolved_citations(&planted(path, prefix)),
        "\"What each P\"",
    );
    let heads = "# A: b\n## The queue (band)\n";
    let doc = "docs/PERFORMANCE.md";
    let files = [
        file(doc, heads),
        file("DESIGN.md", "PERFORMANCE.md, \"A\", \"The queue\""),
    ];
    assert!(unresolved_citations(&files).is_empty());
}

#[test]
fn a_pr_off_the_record_trips_the_rule() {
    let history = "BENCH_history.jsonl";
    let text = text_of(repo_files(), history).to_string();
    let change = "{\"pr\":9999,\"side\":\"change\",\"what\":\"planted\"}\n";
    let parent = change.replace("\"change\"", "\"parent\"");
    let one_side = planted(history, &(text.clone() + &parent));
    assert!(unrecorded_prs(&one_side).is_empty());
    let both = planted(history, &(text + &parent + change));
    trips(
        unrecorded_prs(&both),
        "PR 9999 has rows in BENCH_history.jsonl but none",
    );
    let doc = "docs/PERFORMANCE.md";
    let dangling = edited(doc, "\n| 12 | ", "\n| 9999 | planted |\n| 12 | ");
    trips(
        unrecorded_prs(&dangling),
        "PR 9999 has no parent and change rows",
    );
}
