//! The postmortem flight recorder: a bounded, always-on ring buffer of
//! recent message-lifecycle events.
//!
//! Full tracing ([`crate::Recorder::enable`]) is off by default and off
//! in CI's gated campaigns, so when a red cell appears all a test can
//! normally show is its assert message. The flight recorder closes that
//! gap: every lifecycle checkpoint is *also* written into a fixed ring
//! of preallocated atomic slots — one relaxed `fetch_add` to claim a
//! slot plus relaxed stores of the event words, no locks, no allocation
//! — so the last few hundred protocol steps per node are always
//! available. When a typed `BbpError`/`MpiError` surfaces, a scripted
//! chaos kill fires, or a gated test panics, the ring is dumped as JSON
//! (under `$FLIGHT_DUMP_DIR`, default `target/flight/`) and CI uploads
//! it as an artifact.
//!
//! Slots are plain relaxed words, not a seqlock: a torn event (possible
//! only under concurrent writers, which the simulator's one-entity-at-
//! a-time execution never produces) would corrupt one diagnostic row,
//! never memory safety — an explicit trade for a recording cost small
//! enough to leave on everywhere.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::write_string;
use crate::lifecycle::Stage;
use crate::Time;

/// Ring banks. Nodes hash into banks (`node % BANKS`) so one chatty
/// node cannot evict every other node's recent history.
pub const BANKS: usize = 8;

/// Events retained per bank.
pub const BANK_SLOTS: usize = 128;

/// Words per slot: time, packed node+stage, trace id, argument.
const SLOT_WORDS: usize = 4;

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time, ns.
    pub time: Time,
    /// Node (rank) the event happened on, or [`crate::NO_NODE`].
    pub node: u32,
    /// Trace id the event belongs to (0 = untraced).
    pub id: u64,
    /// Lifecycle checkpoint.
    pub stage: Stage,
    /// Stage argument (hop node, target rank, attempt, …).
    pub arg: u64,
}

struct Bank {
    /// Monotonic slot-claim counter; `cursor % BANK_SLOTS` is the next
    /// slot, `min(cursor, BANK_SLOTS)` the number of valid slots.
    cursor: AtomicU64,
    words: [AtomicU64; BANK_SLOTS * SLOT_WORDS],
}

impl Bank {
    fn new() -> Self {
        Bank {
            cursor: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The per-simulation flight recorder. Owned by [`crate::Recorder`];
/// use [`crate::Recorder::flight`] to reach it.
pub struct FlightRecorder {
    banks: [Bank; BANKS],
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder {
            banks: std::array::from_fn(|_| Bank::new()),
        }
    }

    /// Record one lifecycle event. Relaxed-atomic only: one `fetch_add`
    /// to claim the slot, then plain relaxed stores — no locks, no
    /// allocation, safe from any instrumentation site.
    #[inline]
    pub fn push(&self, time: Time, node: u32, id: u64, stage: Stage, arg: u64) {
        let bank = &self.banks[(node as usize) % BANKS];
        let slot = (bank.cursor.fetch_add(1, Ordering::Relaxed) as usize % BANK_SLOTS) * SLOT_WORDS;
        bank.words[slot].store(time, Ordering::Relaxed);
        bank.words[slot + 1].store(((node as u64) << 8) | stage as u64, Ordering::Relaxed);
        bank.words[slot + 2].store(id, Ordering::Relaxed);
        bank.words[slot + 3].store(arg, Ordering::Relaxed);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.cursor.load(Ordering::Relaxed))
            .sum()
    }

    /// Decode the surviving events, oldest first (globally time-sorted;
    /// bank order breaks ties, keeping the output deterministic).
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for bank in &self.banks {
            let n = (bank.cursor.load(Ordering::Relaxed) as usize).min(BANK_SLOTS);
            for i in 0..n {
                let slot = i * SLOT_WORDS;
                let meta = bank.words[slot + 1].load(Ordering::Relaxed);
                out.push(FlightEvent {
                    time: bank.words[slot].load(Ordering::Relaxed),
                    node: (meta >> 8) as u32,
                    stage: Stage::from_u8((meta & 0xFF) as u8),
                    id: bank.words[slot + 2].load(Ordering::Relaxed),
                    arg: bank.words[slot + 3].load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by_key(|e| e.time);
        out
    }

    /// Render the surviving events as a JSON postmortem document.
    pub fn dump_json(&self, label: &str) -> String {
        let events = self.snapshot();
        let mut o = String::with_capacity(events.len() * 80 + 128);
        o.push_str("{\"flight_recorder\": ");
        write_string(&mut o, label);
        let _ = std::fmt::Write::write_fmt(
            &mut o,
            format_args!(", \"recorded\": {}, \"events\": [", self.recorded()),
        );
        for (i, e) in events.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            // `NO_NODE` prints as -1, matching the Chrome exporter's
            // hardware pid.
            let node = if e.node == crate::NO_NODE {
                -1
            } else {
                e.node as i64
            };
            let _ = std::fmt::Write::write_fmt(
                &mut o,
                format_args!(
                    "  {{\"t_ns\": {}, \"node\": {}, \"stage\": \"{}\", \"id\": {}, \"arg\": {}}}",
                    e.time,
                    node,
                    e.stage.name(),
                    e.id,
                    e.arg
                ),
            );
        }
        o.push_str("\n]}\n");
        o
    }

    /// Write the postmortem JSON to `$FLIGHT_DUMP_DIR` (default
    /// `target/flight/`), named after a sanitized `label`. Best-effort:
    /// a dump is diagnostics, so I/O failures are swallowed and `None`
    /// is returned. Returns the written path on success.
    pub fn dump_to_dir(&self, label: &str) -> Option<std::path::PathBuf> {
        let dir = std::env::var("FLIGHT_DUMP_DIR").unwrap_or_else(|_| "target/flight".to_string());
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = std::path::Path::new(&dir).join(format!("flight_{slug}.json"));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&path, self.dump_json(label)).ok()?;
        Some(path)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Dump-on-panic guard for gated tests: holds the simulation's
/// [`crate::Recorder`] and, if the surrounding test panics, writes the
/// flight ring to disk on the way down so a red CI cell ships its
/// postmortem alongside the assert message.
pub struct FlightGuard {
    label: String,
    recorder: std::sync::Arc<crate::Recorder>,
}

impl FlightGuard {
    /// Arm a guard for the test (or campaign cell) named `label`.
    pub fn new(label: impl Into<String>, recorder: std::sync::Arc<crate::Recorder>) -> Self {
        FlightGuard {
            label: label.into(),
            recorder,
        }
    }

    /// Dump unconditionally.
    fn dump_now(&self) -> Option<std::path::PathBuf> {
        self.recorder.flight().dump_to_dir(&self.label)
    }

    /// Dump, and say where, when a campaign cell's judge found
    /// `violations`: the ring is the postmortem its repro line starts
    /// from, and the cell reports rather than panics.
    pub fn dump_if_violated(&self, violations: &[String]) {
        if violations.is_empty() {
            return;
        }
        if let Some(path) = self.dump_now() {
            let path = path.display();
            eprintln!("violating cell's flight recorder dumped to {path}");
        }
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(path) = self.dump_now() {
                eprintln!("flight recorder dumped to {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn push_and_snapshot_round_trip() {
        let fr = FlightRecorder::new();
        fr.push(100, 0, 7, Stage::SendEnter, 0);
        fr.push(250, 1, 7, Stage::RecvMatch, 3);
        let evs = fr.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time, 100);
        assert_eq!(evs[0].stage, Stage::SendEnter);
        assert_eq!(evs[1].node, 1);
        assert_eq!(evs[1].id, 7);
        assert_eq!(evs[1].arg, 3);
    }

    #[test]
    fn ring_overwrites_oldest_per_bank() {
        let fr = FlightRecorder::new();
        for i in 0..(BANK_SLOTS as u64 + 10) {
            fr.push(i, 0, i, Stage::RingHop, 0);
        }
        let evs = fr.snapshot();
        assert_eq!(evs.len(), BANK_SLOTS);
        assert_eq!(fr.recorded(), BANK_SLOTS as u64 + 10);
        // The 10 oldest events were evicted.
        assert!(evs
            .iter()
            .all(|e| e.time >= 10 || e.time < BANK_SLOTS as u64));
        assert!(evs.iter().any(|e| e.time == BANK_SLOTS as u64 + 9));
    }

    #[test]
    fn nodes_in_different_banks_do_not_evict_each_other() {
        let fr = FlightRecorder::new();
        for i in 0..(BANK_SLOTS as u64 * 3) {
            fr.push(i, 0, 0, Stage::RingHop, 0);
        }
        fr.push(9_999, 1, 42, Stage::Deliver, 0);
        let evs = fr.snapshot();
        assert!(evs.iter().any(|e| e.node == 1 && e.id == 42));
    }

    #[test]
    fn dump_is_valid_json() {
        let fr = FlightRecorder::new();
        fr.push(1_000, 2, 99, Stage::FlagSet, 1);
        let text = fr.dump_json("unit \"test\"");
        let doc = json::parse(&text).expect("flight dump must be valid JSON");
        assert_eq!(
            doc.get("flight_recorder").unwrap().as_str(),
            Some("unit \"test\"")
        );
        let evs = doc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("stage").unwrap().as_str(), Some("flag_set"));
        assert_eq!(evs[0].get("id").unwrap().as_f64(), Some(99.0));
    }

    #[test]
    fn snapshot_is_time_sorted_across_banks() {
        let fr = FlightRecorder::new();
        fr.push(300, 3, 1, Stage::RingHop, 0);
        fr.push(100, 0, 1, Stage::RingInject, 0);
        fr.push(200, 5, 1, Stage::RingHop, 0);
        let times: Vec<u64> = fr.snapshot().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }
}
