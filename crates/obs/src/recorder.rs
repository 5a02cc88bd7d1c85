//! The shared recorder: a single append-only event log behind an atomic
//! enable gate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::event::{Event, Layer, TraceEntry};
use crate::flight::FlightRecorder;
use crate::lifecycle::Stage;
use crate::timeseries::Telemetry;
use crate::Time;

/// Per-node current-trace slots: one for every node a SCRAMNet ring can
/// hold (256), so no two nodes of a ring share one. A node id beyond that
/// — only a ring hierarchy's global ids get there — uses slot
/// `node % CURRENT_SLOTS`: two such nodes sending at the same instant
/// would log their messages under one trace id (the messages themselves
/// are unaffected).
const CURRENT_SLOTS: usize = 256;

/// Records [`Event`]s from every layer of one simulation.
///
/// Exactly one entity executes at a time in the simulator, so the inner
/// mutex is never contended; it exists to make the recorder `Sync`.
///
/// The log is append-only and in write order, which is time order per
/// [`crate::Track`] and not across tracks (see there); it is never
/// sorted, and no record is held back to be placed.
///
/// **Disabled is the default and costs one relaxed atomic load per
/// recording call** — no locks, no allocations, no branches beyond the
/// gate. Span names are `&'static str` so even the enabled path never
/// allocates per event (the event vector amortizes its growth).
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    events: Mutex<Vec<Event>>,
    /// Monotonic trace-id mint (see [`Recorder::mint_trace_id`]).
    mint: AtomicU64,
    /// The trace id currently being worked on per node: the side channel
    /// that carries a message's identity *alongside* the protocol into
    /// layers whose signatures know nothing about tracing.
    current_tx: [AtomicU64; CURRENT_SLOTS],
    /// Receive-side twin of `current_tx`: the trace id of the message a
    /// node's transport most recently delivered, so layers above the
    /// delivery (the ADI's unexpected queue) can tag their events.
    current_rx: [AtomicU64; CURRENT_SLOTS],
    /// Enabled-only `(src, seq) → trace id` correlation, so the receive
    /// side can resolve a descriptor it just matched back to the id the
    /// sender minted. Cleared on [`Recorder::enable`]. A map, because a
    /// recorded run registers every message it sends: a lookup does not
    /// grow with the run.
    msg_ids: Mutex<HashMap<(u32, u32), u64>>,
    /// The always-on postmortem ring (see [`crate::flight`]).
    flight: FlightRecorder,
    /// Gauge time series behind their own enable gate (see
    /// [`crate::timeseries`]): a determinism trace can run with
    /// telemetry off and stay byte-identical.
    telemetry: Telemetry,
}

/// A span [`Recorder::open_span`] started, which
/// [`Recorder::close_span`] consumes: a span is closed at most once, and
/// its end is recorded exactly when its start was — a span opened while
/// recording was off stays unrecorded even if recording comes on before
/// it closes.
#[must_use = "a span is closed by passing it to `Recorder::close_span`"]
#[derive(Debug)]
pub struct OpenSpan(Option<(u32, Layer, &'static str)>);

impl Recorder {
    /// A disabled recorder with an empty log.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            mint: AtomicU64::new(0),
            current_tx: std::array::from_fn(|_| AtomicU64::new(0)),
            current_rx: std::array::from_fn(|_| AtomicU64::new(0)),
            msg_ids: Mutex::new(HashMap::new()),
            flight: FlightRecorder::new(),
            telemetry: Telemetry::new(),
        }
    }

    /// Whether recording is on. Inlined gate for every instrumentation
    /// site.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clear the log (and the trace-id correlation map) and start
    /// recording.
    pub fn enable(&self) {
        self.lock().clear();
        self.msg_ids
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording (the log is kept until drained or re-enabled).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the start of a span; [`Recorder::close_span`] records its
    /// end. Inside a process, `des::ProcCtx::span` says both at once.
    #[inline]
    pub fn open_span(&self, time: Time, node: u32, layer: Layer, name: &'static str) -> OpenSpan {
        if !self.is_enabled() {
            return OpenSpan(None);
        }
        self.lock().push(Event::SpanEnter {
            time,
            node,
            layer,
            name,
        });
        OpenSpan(Some((node, layer, name)))
    }

    /// Record the end of `span` at `time`, if its start was recorded.
    #[inline]
    pub fn close_span(&self, span: OpenSpan, time: Time) {
        let Some((node, layer, name)) = span.0 else {
            return;
        };
        self.lock().push(Event::SpanExit {
            time,
            node,
            layer,
            name,
        });
    }

    /// A typed failure's postmortem: the [`Stage::Error`] checkpoint,
    /// then the flight ring dumped under `label` (see
    /// [`FlightRecorder::dump_to_dir`]).
    pub fn postmortem(&self, time: Time, node: u32, id: u64, arg: u64, label: &str) {
        self.lifecycle(time, node, id, Stage::Error, arg);
        self.flight.dump_to_dir(label);
    }

    /// Record a counter increment.
    #[inline]
    pub fn count(&self, time: Time, node: u32, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().push(Event::Count {
            time,
            node,
            name,
            delta,
        });
    }

    /// Record a legacy scheduler trace entry. Callers that must build a
    /// `String` detail should gate on [`Recorder::is_enabled`] first so
    /// the disabled path stays allocation-free.
    #[inline]
    pub fn sched(&self, entry: TraceEntry) {
        if !self.is_enabled() {
            return;
        }
        self.lock().push(Event::Sched(entry));
    }

    // ------------------------------------------------------------------
    // Message-lifecycle tracing
    // ------------------------------------------------------------------

    /// Mint a fresh trace id for a message entering the stack at `node`.
    ///
    /// Ids are `(node + 1) << 40 | counter`, so they are globally unique
    /// within a run, never 0, and carry their origin for free. Minting
    /// is **always on** (one relaxed `fetch_add`): the simulator's
    /// deterministic execution makes the sequence reproducible, so ids
    /// recorded by the always-on flight ring match ids in an enabled
    /// trace of the same run.
    #[inline]
    pub fn mint_trace_id(&self, node: u32) -> u64 {
        ((node as u64 + 1) << 40) | (self.mint.fetch_add(1, Ordering::Relaxed) & 0xFF_FFFF_FFFF)
    }

    /// Publish `id` as the trace currently being worked on by `node`
    /// (0 clears it). One relaxed store.
    #[inline(always)]
    pub fn set_current_trace(&self, node: u32, id: u64) {
        self.current_tx[node as usize % CURRENT_SLOTS].store(id, Ordering::Relaxed);
    }

    /// The trace id `node` is currently working on (0 = none). One
    /// relaxed load — cheap enough for the ring's injection path.
    #[inline(always)]
    pub fn current_trace(&self, node: u32) -> u64 {
        self.current_tx[node as usize % CURRENT_SLOTS].load(Ordering::Relaxed)
    }

    /// Publish `id` as the trace of the message `node`'s transport most
    /// recently delivered. One relaxed store.
    #[inline(always)]
    pub fn set_current_rx(&self, node: u32, id: u64) {
        self.current_rx[node as usize % CURRENT_SLOTS].store(id, Ordering::Relaxed);
    }

    /// The trace id of the message most recently delivered at `node`
    /// (0 = none). One relaxed load.
    #[inline(always)]
    pub fn current_rx(&self, node: u32) -> u64 {
        self.current_rx[node as usize % CURRENT_SLOTS].load(Ordering::Relaxed)
    }

    /// Record a lifecycle checkpoint. **Always** lands in the flight
    /// ring (relaxed-atomic, allocation-free); additionally appended to
    /// the event log when recording is enabled.
    #[inline]
    pub fn lifecycle(&self, time: Time, node: u32, id: u64, stage: Stage, arg: u64) {
        self.flight.push(time, node, id, stage, arg);
        if !self.is_enabled() {
            return;
        }
        self.lock().push(Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg,
        });
    }

    /// Record a lifecycle checkpoint from a hot path: a complete no-op
    /// (one relaxed load) unless recording is enabled. Used for
    /// high-frequency stages (per-hop ring transit) whose always-on
    /// cost would crowd everything else out of the flight ring.
    #[inline]
    pub fn lifecycle_hot(&self, time: Time, node: u32, id: u64, stage: Stage, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        self.flight.push(time, node, id, stage, arg);
        self.lock().push(Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg,
        });
    }

    /// Remember that the message `(src, seq)` carries trace id `id`, so
    /// the receive side can recover the id from the descriptor it
    /// matched. Enabled-only (the flight ring needs no correlation —
    /// it records ids directly).
    #[inline]
    pub fn register_msg(&self, src: u32, seq: u32, id: u64) {
        if !self.is_enabled() {
            return;
        }
        self.msg_ids
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((src, seq), id);
    }

    /// The trace id registered for `(src, seq)`, or 0.
    #[inline]
    pub fn lookup_msg(&self, src: u32, seq: u32) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.msg_ids
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(src, seq))
            .map_or(0, |id| *id)
    }

    /// The always-on postmortem flight ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    // ------------------------------------------------------------------
    // Gauge time series
    // ------------------------------------------------------------------

    /// The gauge registry (enable/snapshot; see [`crate::timeseries`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether gauge sampling is on — **independent of
    /// [`Recorder::is_enabled`]**, so determinism traces never pick up
    /// telemetry noise. One relaxed load; gate any expensive value
    /// computation on this.
    #[inline(always)]
    pub fn telemetry_on(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Sample gauge `name` on `node`: its absolute value at sim time
    /// `time`. One relaxed load when telemetry is off; alloc-free in
    /// steady state when on.
    #[inline]
    pub fn gauge(&self, time: Time, node: u32, name: &'static str, value: u64) {
        self.telemetry.observe(time, node, name, value as f64);
    }

    /// [`Recorder::gauge`] for fractional values (utilizations, ratios).
    #[inline]
    pub fn gauge_f(&self, time: Time, node: u32, name: &'static str, value: f64) {
        self.telemetry.observe(time, node, name, value);
    }

    /// Number of events currently in the log.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drain the full structured log (recording state is unchanged).
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.lock())
    }

    /// Snapshot the log without draining it.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Drain only the legacy scheduler entries and stop recording —
    /// the exact contract of the old `des::Simulation::take_trace`.
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.disable();
        self.take_events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Sched(entry) => Some(entry),
                _ => None,
            })
            .collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::new();
        r.close_span(r.open_span(1, 0, Layer::Bbp, "send"), 2);
        r.count(2, 0, "x", 5);
        r.sched(TraceEntry {
            time: 3,
            kind: TraceKind::Mark,
            detail: "m".into(),
        });
        assert!(r.is_empty());
    }

    #[test]
    fn a_span_is_recorded_whole_or_not_at_all() {
        let r = Recorder::new();
        let unseen = r.open_span(1, 0, Layer::Nic, "pio_read");
        r.enable();
        let seen = r.open_span(2, 0, Layer::Nic, "pio_read");
        r.close_span(unseen, 3);
        r.disable();
        r.close_span(seen, 4);
        let events = r.take_events();
        assert!(
            matches!(
                events[..],
                [
                    Event::SpanEnter { time: 2, .. },
                    Event::SpanExit { time: 4, .. }
                ]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn enable_clears_previous_log() {
        let r = Recorder::new();
        r.enable();
        r.count(1, 0, "x", 1);
        assert_eq!(r.len(), 1);
        r.enable();
        assert!(r.is_empty());
    }

    #[test]
    fn take_trace_filters_and_disables() {
        let r = Recorder::new();
        r.enable();
        let span = r.open_span(1, 0, Layer::Mpi, "send");
        r.sched(TraceEntry {
            time: 2,
            kind: TraceKind::Resume,
            detail: "p".into(),
        });
        r.close_span(span, 3);
        let trace = r.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].kind, TraceKind::Resume);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let r = Recorder::new();
        let a = r.mint_trace_id(0);
        let b = r.mint_trace_id(0);
        let c = r.mint_trace_id(3);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
        // The origin node is recoverable from the high bits.
        assert_eq!(c >> 40, 4);
    }

    #[test]
    fn current_trace_round_trips_per_node() {
        let r = Recorder::new();
        r.set_current_trace(0, 11);
        r.set_current_trace(2, 22);
        assert_eq!(r.current_trace(0), 11);
        assert_eq!(r.current_trace(2), 22);
        assert_eq!(r.current_trace(1), 0);
        r.set_current_trace(0, 0);
        assert_eq!(r.current_trace(0), 0);
        // A slot per node of a full ring; ids past it wrap.
        r.set_current_trace(64, 64);
        r.set_current_rx(255, 255);
        assert_eq!((r.current_trace(0), r.current_trace(64)), (0, 64));
        assert_eq!((r.current_rx(255), r.current_rx(511)), (255, 255));
    }

    #[test]
    fn lifecycle_feeds_flight_ring_even_when_disabled() {
        let r = Recorder::new();
        r.lifecycle(5, 0, 9, Stage::SendEnter, 0);
        assert!(r.is_empty(), "disabled log must stay empty");
        assert_eq!(r.flight().recorded(), 1);
        r.enable();
        r.lifecycle(6, 0, 9, Stage::Deliver, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.flight().recorded(), 2);
    }

    #[test]
    fn lifecycle_hot_is_a_noop_when_disabled() {
        let r = Recorder::new();
        r.lifecycle_hot(5, 0, 9, Stage::RingHop, 1);
        assert!(r.is_empty());
        assert_eq!(r.flight().recorded(), 0);
        r.enable();
        r.lifecycle_hot(6, 0, 9, Stage::RingHop, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.flight().recorded(), 1);
    }

    #[test]
    fn msg_correlation_is_enabled_only_and_cleared_on_enable() {
        let r = Recorder::new();
        r.register_msg(0, 7, 99);
        assert_eq!(r.lookup_msg(0, 7), 0, "disabled: nothing registered");
        r.enable();
        r.register_msg(0, 7, 99);
        assert_eq!(r.lookup_msg(0, 7), 99);
        assert_eq!(r.lookup_msg(1, 7), 0);
        r.enable();
        assert_eq!(r.lookup_msg(0, 7), 0, "enable() clears the map");
    }

    #[test]
    fn msg_correlation_is_keyed_by_source_and_sequence() {
        let r = Recorder::new();
        r.enable();
        r.register_msg(3, 7, 99);
        r.register_msg(3, 7, 100);
        assert_eq!(
            r.lookup_msg(3, 7),
            100,
            "re-registering a key overwrites it"
        );
        assert_eq!(r.msg_ids.lock().unwrap().len(), 1, "one entry per key");
        r.register_msg(7, 3, 5);
        assert_eq!((r.lookup_msg(3, 7), r.lookup_msg(7, 3)), (100, 5));
        assert_eq!(r.lookup_msg(3, 8), 0, "an unknown key reads 0");
        r.disable();
        r.register_msg(4, 4, 44);
        r.register_msg(3, 7, 1);
        assert_eq!(
            r.lookup_msg(3, 7),
            0,
            "a disabled recorder looks up nothing"
        );
        assert_eq!(
            *r.msg_ids.lock().unwrap(),
            HashMap::from([((3, 7), 100), ((7, 3), 5)]),
            "a disabled recorder registers nothing"
        );
    }

    #[test]
    fn telemetry_gate_is_independent_of_the_event_log_gate() {
        let r = Recorder::new();
        r.enable();
        r.gauge(1_000, 0, "q.depth", 3);
        assert_eq!(
            r.telemetry().series_count(),
            0,
            "event-log enable must not turn gauges on"
        );
        assert!(r.is_empty(), "gauges never touch the event log");
        r.telemetry().enable();
        r.disable();
        r.gauge(2_000, 0, "q.depth", 5);
        r.gauge_f(3_000, 0, "link.util", 0.75);
        assert_eq!(r.telemetry().series_count(), 2);
        assert!(r.is_empty());
    }
}
