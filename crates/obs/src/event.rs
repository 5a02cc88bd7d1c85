//! The structured event model: layers, spans, counters, and the legacy
//! scheduler trace entries absorbed from `des::trace`.

use crate::Time;

/// Node id for events not attributable to any simulated node (scheduler
/// activity, cross-node hardware like the ring serializer).
pub const NO_NODE: u32 = u32::MAX;

/// Which layer of the stack produced an event. Order matters: it is the
/// nesting order of a deep MPI send (binding on top, wire at the bottom)
/// and the row order of attribution reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// MPI bindings (`MPI_Send`, collectives): argument checking, request
    /// bookkeeping — the top of the paper's layering stack.
    Mpi,
    /// The Abstract Device Interface: posted/unexpected queues, matching.
    Adi,
    /// The MPICH channel interface: 64-byte header packets.
    Channel,
    /// The device binding under the channel interface (BBP / TCP / hybrid
    /// routing).
    Device,
    /// The BillBoard Protocol: descriptor slots, flag toggles, buffer GC.
    Bbp,
    /// NIC access: PIO word/block programmed I/O and DMA.
    Nic,
    /// The SCRAMNet register-insertion ring itself: packet hops.
    Ring,
    /// The simulation kernel (scheduler dispatch).
    Sched,
    /// The request/reply serving layer above BBP (`crates/rpc`): message
    /// queues, buffer ownership transfer, credit-based backpressure.
    Rpc,
}

impl Layer {
    /// All layers. `ALL` is append-only: the index of each layer is the
    /// Chrome-trace tid baked into golden trace files, so `Rpc` sits at
    /// the end even though its logical stack position is above `Mpi`.
    pub const ALL: [Layer; 9] = [
        Layer::Mpi,
        Layer::Adi,
        Layer::Channel,
        Layer::Device,
        Layer::Bbp,
        Layer::Nic,
        Layer::Ring,
        Layer::Sched,
        Layer::Rpc,
    ];

    /// Number of layers.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase name (used as the Chrome trace category and the
    /// JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mpi => "mpi",
            Layer::Adi => "adi",
            Layer::Channel => "channel",
            Layer::Device => "device",
            Layer::Bbp => "bbp",
            Layer::Nic => "nic",
            Layer::Ring => "ring",
            Layer::Sched => "sched",
            Layer::Rpc => "rpc",
        }
    }

    /// Index into [`Layer::ALL`]-shaped arrays: the discriminant.
    pub fn index(self) -> usize {
        self as usize
    }
}

// `ALL` lists the layers in declaration order, so a discriminant is an
// index into it.
const _: () = {
    let mut i = 0;
    while i < Layer::COUNT {
        assert!(Layer::ALL[i] as usize == i);
        i += 1;
    }
};

/// One recorded observation. Span names are `&'static str` by design:
/// recording must never allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A layer began work on a node at `time`.
    SpanEnter {
        /// Virtual time, ns.
        time: Time,
        /// Node (rank) the work runs on, or [`NO_NODE`].
        node: u32,
        /// Stack layer doing the work.
        layer: Layer,
        /// What the work is (e.g. `"send"`, `"pio_write"`).
        name: &'static str,
    },
    /// The matching end of a [`Event::SpanEnter`].
    SpanExit {
        /// Virtual time, ns.
        time: Time,
        /// Node (rank) the work ran on, or [`NO_NODE`].
        node: u32,
        /// Stack layer that did the work.
        layer: Layer,
        /// Span name (must match the enter).
        name: &'static str,
    },
    /// A monotonic counter increment (ring packets, PIO words, GC scans,
    /// unexpected-queue hits, …).
    Count {
        /// Virtual time, ns.
        time: Time,
        /// Node the count belongs to, or [`NO_NODE`].
        node: u32,
        /// Counter name (e.g. `"ring.packets"`).
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// A message-lifecycle checkpoint recorded against a trace id (see
    /// [`crate::lifecycle::Stage`]). The Chrome exporter renders these
    /// as flow events (`s`/`t`/`f`) so one message's journey draws as a
    /// connected arrow chain across nodes.
    Lifecycle {
        /// Virtual time, ns.
        time: Time,
        /// Node (rank) the checkpoint happened on, or [`NO_NODE`].
        node: u32,
        /// The message's trace id (0 = untraced).
        id: u64,
        /// Which checkpoint.
        stage: crate::lifecycle::Stage,
        /// Stage argument (hop node, target rank, attempt, …).
        arg: u64,
    },
    /// A legacy scheduler trace entry (see [`TraceEntry`]).
    Sched(TraceEntry),
}

/// The sequence of the log a record belongs to — the unit the log is
/// ordered in. The records of one track are in the order their writer
/// wrote them, which is time order: a node's tracks are written by that
/// node's process as it runs, stamped with its own clock. (One track is
/// exempt: the ring hardware's, `Layer(NO_NODE, Ring)`, where a packet
/// span's exit — an instant still in the future — is written together
/// with its enter.) *Tracks* interleave in write order, and that runs
/// ahead of the clock wherever a process has charged time it has not yet
/// settled (`des::ProcCtx::charge`: the scheduler's entries for those
/// steps are written when they are walked) or tells the log of something
/// after the fact (a poll sweep's reads, written when the sweep returns).
/// Every consumer reads per track: [`crate::attribute`] folds spans per
/// node, [`crate::message_waterfalls`] lifecycle checkpoints per id, the
/// Chrome exporter draws per `(pid, tid)` and per counter. Nothing sorts
/// the log.
///
/// The derived order (layers of a node, then its counters, the scheduler
/// last) is for tests that compare logs track by track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// Spans and lifecycle checkpoints of one layer on one node.
    Layer(u32, Layer),
    /// One named counter on one node.
    Counter(u32, &'static str),
    /// The scheduler's own entries (`des::Simulation::take_trace`).
    Sched,
}

impl Event {
    /// The track this record is on.
    pub fn track(&self) -> Track {
        match *self {
            Event::SpanEnter { node, layer, .. } | Event::SpanExit { node, layer, .. } => {
                Track::Layer(node, layer)
            }
            Event::Lifecycle { node, stage, .. } => Track::Layer(node, stage.layer()),
            Event::Count { node, name, .. } => Track::Counter(node, name),
            Event::Sched(_) => Track::Sched,
        }
    }

    /// Virtual time of the event.
    pub fn time(&self) -> Time {
        match self {
            Event::SpanEnter { time, .. }
            | Event::SpanExit { time, .. }
            | Event::Count { time, .. }
            | Event::Lifecycle { time, .. } => *time,
            Event::Sched(e) => e.time,
        }
    }
}

/// What kind of scheduling decision a trace entry records.
///
/// Absorbed from the old `des::trace` module; `des` re-exports this type
/// so existing imports keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A process yielded (advance / block / finish).
    Yield,
    /// A process was resumed.
    Resume,
    /// A pure event fired.
    Event,
    /// A component-defined marker, recorded through
    /// [`crate::Recorder::sched`]; the Chrome export shows it as an instant.
    Mark,
}

/// One recorded scheduling decision (legacy determinism-trace entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the decision.
    pub time: Time,
    /// Category.
    pub kind: TraceKind,
    /// Free-form detail (process name, reason, marker label).
    pub detail: String,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12}] {:?} {}", self.time, self.kind, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_indices_match_all_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::COUNT);
    }

    #[test]
    fn trace_entry_display_is_stable() {
        let e = TraceEntry {
            time: 42,
            kind: TraceKind::Resume,
            detail: "p0".to_string(),
        };
        assert_eq!(e.to_string(), "[          42] Resume p0");
    }

    #[test]
    fn event_time_covers_all_variants() {
        let t = TraceEntry {
            time: 7,
            kind: TraceKind::Event,
            detail: String::new(),
        };
        for e in [
            Event::SpanEnter {
                time: 5,
                node: 0,
                layer: Layer::Bbp,
                name: "send",
            },
            Event::SpanExit {
                time: 5,
                node: 0,
                layer: Layer::Bbp,
                name: "send",
            },
            Event::Count {
                time: 5,
                node: 0,
                name: "x",
                delta: 1,
            },
            Event::Lifecycle {
                time: 5,
                node: 0,
                id: 1,
                stage: crate::lifecycle::Stage::SendEnter,
                arg: 0,
            },
        ] {
            assert_eq!(e.time(), 5);
        }
        assert_eq!(Event::Sched(t).time(), 7);
    }
}
