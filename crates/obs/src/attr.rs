//! Latency attribution: fold a span stream into per-layer *self time* —
//! the time a layer spent working that is not covered by a deeper
//! nested span. Summed over a ping-pong this is exactly the paper's
//! layering breakdown (the ≈37.5 µs MPI-over-BBP constant).

use std::collections::BTreeMap;

use crate::event::{Event, Layer};
use crate::lifecycle::Stage;
use crate::Time;

/// Per-layer self-time totals over one event stream.
#[derive(Debug, Clone, Default)]
pub struct LayerBreakdown {
    /// Self time per layer, indexed by [`Layer::index`], nanoseconds.
    pub self_ns: [u64; Layer::COUNT],
    /// Total span-covered time (sum of all top-level span extents), ns.
    pub covered_ns: u64,
    /// Spans still open when the stream ended: a run stopped at its
    /// horizon, or a log drained mid-call. Every exit closes the span
    /// its node opened last, so this is all that can be out of balance.
    pub unbalanced: u64,
}

impl LayerBreakdown {
    /// Self time of one layer, nanoseconds.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Self time of one layer, microseconds.
    pub fn layer_us(&self, layer: Layer) -> f64 {
        self.layer_ns(layer) as f64 / 1000.0
    }

    /// `(layer, self µs)` rows in stack order, skipping empty layers.
    pub fn rows_us(&self) -> Vec<(Layer, f64)> {
        Layer::ALL
            .iter()
            .filter(|l| self.layer_ns(**l) > 0)
            .map(|&l| (l, self.layer_us(l)))
            .collect()
    }
}

struct Frame {
    layer: Layer,
    enter: Time,
    child_ns: u64,
}

/// Attribute span time to layers. Spans nest per node: each exit closes
/// the most recent open span on that node, the one it was written for
/// (`des::ProcCtx::span` and [`crate::OpenSpan`] close a span where it
/// opened). An exit with no open span panics: only a log cleared by
/// [`crate::Recorder::enable`] or drained while that span was open has
/// one. Events must be in recording order, which is time order per
/// [`crate::Track`] — all this fold needs, since a node's spans are
/// written by that node's process as it runs — and not across tracks: a
/// sweep's reads are logged when the sweep returns, a charged step's
/// scheduler entries when it is walked.
pub fn attribute(events: &[Event]) -> LayerBreakdown {
    let mut stacks: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
    let mut out = LayerBreakdown::default();

    for ev in events {
        match *ev {
            Event::SpanEnter {
                time, node, layer, ..
            } => stacks.entry(node).or_default().push(Frame {
                layer,
                enter: time,
                child_ns: 0,
            }),
            Event::SpanExit { time, node, .. } => {
                // A span closes where it opened, innermost first
                // (`OpenSpan`), so an exit closes its node's top frame.
                let stack = stacks.entry(node).or_default();
                let frame = stack.pop().expect("a span exit follows its enter");
                let extent = time.saturating_sub(frame.enter);
                out.self_ns[frame.layer.index()] += extent.saturating_sub(frame.child_ns);
                match stack.last_mut() {
                    Some(parent) => parent.child_ns += extent,
                    None => out.covered_ns += extent,
                }
            }
            Event::Count { .. } | Event::Lifecycle { .. } | Event::Sched(_) => {}
        }
    }
    out.unbalanced = stacks.values().map(|s| s.len() as u64).sum();
    out
}

/// One recorded step of a message's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaterfallStep {
    /// Virtual time of the checkpoint, ns.
    pub time: Time,
    /// Node the checkpoint happened on.
    pub node: u32,
    /// Which checkpoint.
    pub stage: Stage,
    /// Stage argument (hop node, target rank, attempt, …).
    pub arg: u64,
}

/// One message's reconstructed latency waterfall: every lifecycle
/// checkpoint recorded against its trace id, in recording order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageWaterfall {
    /// The trace id.
    pub id: u64,
    /// Origin node, decoded from the id's high bits.
    pub src: u32,
    /// Checkpoints in recording order: causal order along the message's
    /// path, and — each being written right after a stall — time order.
    pub steps: Vec<WaterfallStep>,
}

impl MessageWaterfall {
    /// Total span from the first to the last checkpoint, ns.
    pub fn total_ns(&self) -> u64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => b.time.saturating_sub(a.time),
            _ => 0,
        }
    }
}

/// Group the stream's [`Event::Lifecycle`] entries into per-message
/// waterfalls, ordered by each message's first checkpoint. Untraced
/// events (id 0) are skipped — they have no journey to reconstruct.
pub fn message_waterfalls(events: &[Event]) -> Vec<MessageWaterfall> {
    let mut out: Vec<MessageWaterfall> = Vec::new();
    for ev in events {
        let Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg,
        } = *ev
        else {
            continue;
        };
        if id == 0 {
            continue;
        }
        let step = WaterfallStep {
            time,
            node,
            stage,
            arg,
        };
        match out.iter_mut().find(|w| w.id == id) {
            Some(w) => w.steps.push(step),
            None => out.push(MessageWaterfall {
                id,
                src: (id >> 40).saturating_sub(1) as u32,
                steps: vec![step],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(time: Time, node: u32, layer: Layer) -> Event {
        Event::SpanEnter {
            time,
            node,
            layer,
            name: "x",
        }
    }

    fn exit(time: Time, node: u32, layer: Layer) -> Event {
        Event::SpanExit {
            time,
            node,
            layer,
            name: "x",
        }
    }

    /// Time of the first checkpoint with `stage`, if recorded.
    fn stage_time(w: &MessageWaterfall, stage: Stage) -> Option<Time> {
        w.steps.iter().find(|s| s.stage == stage).map(|s| s.time)
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        // mpi [0,100] wrapping adi [10,40] wrapping nic [20,25].
        let events = [
            enter(0, 0, Layer::Mpi),
            enter(10, 0, Layer::Adi),
            enter(20, 0, Layer::Nic),
            exit(25, 0, Layer::Nic),
            exit(40, 0, Layer::Adi),
            exit(100, 0, Layer::Mpi),
        ];
        let b = attribute(&events);
        assert_eq!(b.layer_ns(Layer::Nic), 5);
        assert_eq!(b.layer_ns(Layer::Adi), 25);
        assert_eq!(b.layer_ns(Layer::Mpi), 70);
        assert_eq!(b.covered_ns, 100);
        assert_eq!(b.unbalanced, 0);
    }

    #[test]
    fn nodes_do_not_interfere() {
        let events = [
            enter(0, 0, Layer::Bbp),
            enter(5, 1, Layer::Bbp),
            exit(10, 0, Layer::Bbp),
            exit(25, 1, Layer::Bbp),
        ];
        let b = attribute(&events);
        assert_eq!(b.layer_ns(Layer::Bbp), 10 + 20);
        assert_eq!(b.covered_ns, 30);
        assert_eq!(b.unbalanced, 0);
    }

    #[test]
    fn sequential_spans_sum() {
        let events = [
            enter(0, 0, Layer::Ring),
            exit(3, 0, Layer::Ring),
            enter(10, 0, Layer::Ring),
            exit(14, 0, Layer::Ring),
        ];
        let b = attribute(&events);
        assert_eq!(b.layer_ns(Layer::Ring), 7);
        // The 3..10 gap is not covered by any span.
        assert_eq!(b.covered_ns, 7);
    }

    #[test]
    fn spans_open_at_the_end_are_counted() {
        let events = [
            enter(0, 0, Layer::Mpi),
            enter(2, 0, Layer::Adi),
            exit(5, 0, Layer::Adi),
            enter(6, 0, Layer::Nic), // never exits
        ];
        let b = attribute(&events);
        assert_eq!(b.unbalanced, 2); // open nic + open mpi
        assert_eq!(b.layer_ns(Layer::Adi), 3);
    }

    fn life(time: Time, node: u32, id: u64, stage: Stage, arg: u64) -> Event {
        Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg,
        }
    }

    #[test]
    fn waterfalls_group_by_trace_id() {
        let a = (1u64 << 40) | 1; // minted on node 0
        let b = (2u64 << 40) | 2; // minted on node 1
        let events = [
            life(0, 0, a, Stage::SendEnter, 0),
            life(5, 0, b, Stage::SendEnter, 0),
            life(10, 0, a, Stage::RingInject, 0),
            life(20, 1, a, Stage::RecvMatch, 0),
            life(30, 1, a, Stage::Deliver, 0),
            life(40, 0, 0, Stage::RingHop, 0), // untraced: dropped
        ];
        let w = message_waterfalls(&events);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].id, a);
        assert_eq!(w[0].src, 0);
        assert_eq!(w[0].steps.len(), 4);
        assert_eq!(w[0].total_ns(), 30);
        assert_eq!(stage_time(&w[0], Stage::RecvMatch), Some(20));
        assert_eq!(stage_time(&w[0], Stage::Retry), None);
        assert_eq!(w[1].id, b);
        assert_eq!(w[1].src, 1);
    }

    #[test]
    fn rpc_request_reply_is_one_waterfall() {
        // The server re-publishes the request's trace id before posting
        // the reply, so both directions' checkpoints — including the new
        // rpc_dispatch/rpc_reply stages — group into a single waterfall.
        let id = (1u64 << 40) | 9;
        let events = [
            life(0, 0, id, Stage::SendEnter, 0),
            life(10, 1, id, Stage::RecvMatch, 0),
            life(20, 1, id, Stage::Deliver, 0),
            life(30, 1, id, Stage::RpcDispatch, 4), // arg = channel
            life(50, 1, id, Stage::RpcReply, 4),
            life(60, 0, id, Stage::RecvMatch, 0),
            life(70, 0, id, Stage::Deliver, 0),
        ];
        let w = message_waterfalls(&events);
        assert_eq!(w.len(), 1, "request and reply share one chain");
        assert_eq!(w[0].src, 0, "the chain originates at the client");
        assert_eq!(w[0].steps.len(), 7);
        assert_eq!(stage_time(&w[0], Stage::RpcDispatch), Some(30));
        assert_eq!(stage_time(&w[0], Stage::RpcReply), Some(50));
        assert_eq!(w[0].total_ns(), 70, "full request→reply service span");
    }

    #[test]
    fn rows_skip_empty_layers() {
        let events = [enter(0, 2, Layer::Channel), exit(9, 2, Layer::Channel)];
        let rows = attribute(&events).rows_us();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Layer::Channel);
        assert!((rows[0].1 - 0.009).abs() < 1e-12);
    }
}
