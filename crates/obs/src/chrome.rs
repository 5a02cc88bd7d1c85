//! Chrome `trace_event` export: the recorded event log rendered as JSON
//! that Perfetto (<https://ui.perfetto.dev>) and `about://tracing` load
//! directly. Nodes become processes, layers become threads, counters
//! become counter tracks.

use std::fmt::Write as _;

use crate::event::{Event, Layer, TraceKind, NO_NODE};
use crate::json::{write_f64, write_string};
use crate::timeseries::SeriesSnapshot;
use crate::Time;

/// `pid` used for events not tied to a node (`NO_NODE`): Chrome accepts
/// any integer, and `-1` sorts the hardware track away from rank 0..N.
const HW_PID: i64 = -1;

fn pid_of(node: u32) -> i64 {
    if node == NO_NODE {
        HW_PID
    } else {
        node as i64
    }
}

/// Virtual-time ns → trace `ts` in µs, printed with fixed precision so
/// the output is byte-stable (golden-file tested).
fn write_ts(out: &mut String, t: Time) {
    let _ = write!(out, "{}.{:03}", t / 1_000, t % 1_000);
}

/// Render `events` as a complete Chrome `trace_event` JSON document.
///
/// Span enters/exits map to `B`/`E` phases on `(pid = node, tid = layer)`
/// tracks, counters to `C` phase counter tracks, and legacy `Mark`
/// scheduler entries to global instant events. Other legacy scheduler
/// entries (yield/resume/event) are omitted — they narrate the scheduler,
/// not the workload, and triple the file size.
pub fn chrome_trace_json(events: &[Event]) -> String {
    chrome_trace_json_with_telemetry(events, &[])
}

/// [`chrome_trace_json`] plus gauge time series rendered as `C`
/// (counter) events on per-node tracks: one counter event per retained
/// bucket, carrying the bucket's last value at its end time. With an
/// empty `series` slice the output is byte-identical to
/// [`chrome_trace_json`] — telemetry left disabled never perturbs a
/// golden trace.
pub fn chrome_trace_json_with_telemetry(events: &[Event], series: &[SeriesSnapshot]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + series.len() * 2048 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // Metadata first: name every (pid, tid) track we are about to use,
    // sorted for deterministic output.
    let mut tracks: Vec<(i64, usize)> = Vec::new();
    for e in events {
        let key = match e {
            Event::SpanEnter { node, layer, .. } | Event::SpanExit { node, layer, .. } => {
                (pid_of(*node), layer.index())
            }
            Event::Lifecycle { node, stage, .. } => (pid_of(*node), stage.layer().index()),
            _ => continue,
        };
        if !tracks.contains(&key) {
            tracks.push(key);
        }
    }
    tracks.sort_unstable();
    let mut pids: Vec<i64> = tracks.iter().map(|(p, _)| *p).collect();
    pids.extend(series.iter().map(|s| pid_of(s.node)));
    pids.sort_unstable();
    pids.dedup();
    for pid in &pids {
        push_sep(&mut out, &mut first);
        let name = if *pid == HW_PID {
            "hardware".to_string()
        } else {
            format!("node{pid}")
        };
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":"
        );
        write_string(&mut out, &name);
        out.push_str("}}");
    }
    for (pid, tid) in &tracks {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        write_string(&mut out, Layer::ALL[*tid].name());
        out.push_str("}}");
    }

    // Running totals so counter tracks plot cumulative values.
    let mut totals: Vec<(&'static str, u32, u64)> = Vec::new();

    for e in events {
        match e {
            Event::SpanEnter {
                time,
                node,
                layer,
                name,
            }
            | Event::SpanExit {
                time,
                node,
                layer,
                name,
            } => {
                let ph = if matches!(e, Event::SpanEnter { .. }) {
                    'B'
                } else {
                    'E'
                };
                push_sep(&mut out, &mut first);
                out.push_str("{\"name\":");
                write_string(&mut out, name);
                out.push_str(",\"cat\":");
                write_string(&mut out, layer.name());
                let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":");
                write_ts(&mut out, *time);
                let _ = write!(
                    out,
                    ",\"pid\":{},\"tid\":{}}}",
                    pid_of(*node),
                    layer.index()
                );
            }
            Event::Count {
                time,
                node,
                name,
                delta,
            } => {
                let total = match totals.iter_mut().find(|(n, nd, _)| n == name && nd == node) {
                    Some(slot) => {
                        slot.2 += delta;
                        slot.2
                    }
                    None => {
                        totals.push((name, *node, *delta));
                        *delta
                    }
                };
                push_sep(&mut out, &mut first);
                out.push_str("{\"name\":");
                write_string(&mut out, name);
                out.push_str(",\"ph\":\"C\",\"ts\":");
                write_ts(&mut out, *time);
                let _ = write!(
                    out,
                    ",\"pid\":{},\"args\":{{\"value\":{total}}}}}",
                    pid_of(*node)
                );
            }
            Event::Lifecycle {
                time,
                node,
                id,
                stage,
                arg,
            } => {
                // One flow chain per message: the send entry starts it
                // (`s`), delivery finishes it (`f`, binding to the
                // enclosing slice), every checkpoint between is a step
                // (`t`). Untraced events (id 0) have no chain to join.
                if *id == 0 {
                    continue;
                }
                let ph = match stage {
                    crate::lifecycle::Stage::SendEnter => "s",
                    crate::lifecycle::Stage::Deliver => "f",
                    _ => "t",
                };
                push_sep(&mut out, &mut first);
                out.push_str("{\"name\":\"message\",\"cat\":\"lifecycle\",\"ph\":\"");
                out.push_str(ph);
                out.push('"');
                if ph == "f" {
                    out.push_str(",\"bp\":\"e\"");
                }
                let _ = write!(out, ",\"id\":{id},\"ts\":");
                write_ts(&mut out, *time);
                let _ = write!(
                    out,
                    ",\"pid\":{},\"tid\":{},\"args\":{{\"stage\":\"{}\",\"arg\":{arg}}}}}",
                    pid_of(*node),
                    stage.layer().index(),
                    stage.name()
                );
            }
            Event::Sched(entry) if entry.kind == TraceKind::Mark => {
                push_sep(&mut out, &mut first);
                out.push_str("{\"name\":");
                write_string(&mut out, &entry.detail);
                out.push_str(",\"ph\":\"i\",\"s\":\"g\",\"ts\":");
                write_ts(&mut out, entry.time);
                let _ = write!(out, ",\"pid\":{HW_PID},\"tid\":{}}}", Layer::Sched.index());
            }
            Event::Sched(_) => {}
        }
    }

    // Gauge series: one `C` event per retained bucket, plotted at the
    // bucket's end time with its last value. Counter tracks are keyed
    // by (pid, name), so each gauge draws per node.
    for s in series {
        for b in &s.buckets {
            push_sep(&mut out, &mut first);
            out.push_str("{\"name\":");
            write_string(&mut out, s.name);
            out.push_str(",\"ph\":\"C\",\"ts\":");
            write_ts(&mut out, b.t1);
            let _ = write!(out, ",\"pid\":{},\"args\":{{\"value\":", pid_of(s.node));
            write_f64(&mut out, b.last);
            out.push_str("}}");
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEntry;
    use crate::json;

    #[test]
    fn export_is_valid_json_with_expected_phases() {
        let events = [
            Event::SpanEnter {
                time: 1_500,
                node: 0,
                layer: Layer::Mpi,
                name: "send",
            },
            Event::Count {
                time: 2_000,
                node: 0,
                name: "nic.pio_words",
                delta: 16,
            },
            Event::Count {
                time: 2_500,
                node: 0,
                name: "nic.pio_words",
                delta: 4,
            },
            Event::SpanExit {
                time: 44_000,
                node: 0,
                layer: Layer::Mpi,
                name: "send",
            },
            Event::Sched(TraceEntry {
                time: 50_000,
                kind: TraceKind::Mark,
                detail: "done".to_string(),
            }),
        ];
        let text = chrome_trace_json(&events);
        let doc = json::parse(&text).expect("exporter must emit valid JSON");
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = items
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // 1 process_name + 1 thread_name + B + 2×C + E + instant.
        assert_eq!(phases, vec!["M", "M", "B", "C", "C", "E", "i"]);
        // Counter is cumulative.
        assert_eq!(
            items[4].get("args").unwrap().get("value").unwrap().as_f64(),
            Some(20.0)
        );
        // ts is µs with fixed 3-decimal rendering.
        assert_eq!(items[2].get("ts").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn lifecycle_events_become_flow_phases() {
        use crate::lifecycle::Stage;
        let id = (1u64 << 40) | 3;
        let life = |time, node, stage, arg| Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg,
        };
        let events = [
            life(1_000, 0, Stage::SendEnter, 0),
            life(2_000, 0, Stage::RingInject, 0),
            life(3_000, 1, Stage::RingHop, 1),
            life(4_000, 1, Stage::RecvMatch, 0),
            life(5_000, 1, Stage::Deliver, 0),
            Event::Lifecycle {
                time: 6_000,
                node: 0,
                id: 0,
                stage: Stage::RingHop,
                arg: 0,
            },
        ];
        let text = chrome_trace_json(&events);
        let doc = json::parse(&text).expect("flow export must be valid JSON");
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = items
            .iter()
            .filter(|e| e.get("cat").and_then(json::Json::as_str) == Some("lifecycle"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // Untraced id-0 event omitted; s starts, t steps, f finishes.
        assert_eq!(phases, vec!["s", "t", "t", "t", "f"]);
        let fin = items
            .iter()
            .find(|e| e.get("ph").and_then(json::Json::as_str) == Some("f"))
            .unwrap();
        assert_eq!(fin.get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(fin.get("id").unwrap().as_f64(), Some(id as f64));
        assert_eq!(
            fin.get("args").unwrap().get("stage").unwrap().as_str(),
            Some("deliver")
        );
        // Lifecycle-only streams still name their tracks.
        assert!(items
            .iter()
            .any(|e| e.get("ph").and_then(json::Json::as_str) == Some("M")));
    }

    #[test]
    fn rpc_request_reply_renders_as_one_flow_chain() {
        use crate::lifecycle::Stage;
        // The server publishes the request's trace id before posting the
        // reply, so every checkpoint of both directions carries one id —
        // the whole request/reply exchange draws as a single causal
        // chain in the Chrome viewer.
        let id = (1u64 << 40) | 7;
        let life = |time, node, stage| Event::Lifecycle {
            time,
            node,
            id,
            stage,
            arg: 0,
        };
        let events = [
            life(1_000, 0, Stage::SendEnter),       // client posts request
            life(2_000, 1, Stage::RecvMatch),       // server's poll matches
            life(3_000, 1, Stage::Deliver),         // request delivered
            life(4_000, 1, Stage::RpcDispatch),     // handler gets the buffer
            life(5_000, 1, Stage::RpcReply),        // in-place reply posted
            life(6_000, 1, Stage::DescriptorWrite), // reply's BBP post
            life(7_000, 0, Stage::RecvMatch),       // client's poll matches
            life(8_000, 0, Stage::Deliver),         // reply delivered
        ];
        let text = chrome_trace_json(&events);
        let doc = json::parse(&text).expect("flow export must be valid JSON");
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<(&str, &str)> = items
            .iter()
            .filter(|e| e.get("cat").and_then(json::Json::as_str) == Some("lifecycle"))
            .map(|e| {
                (
                    e.get("ph").unwrap().as_str().unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("stage")
                        .unwrap()
                        .as_str()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(
            flows,
            vec![
                ("s", "send_enter"),
                ("t", "recv_match"),
                ("f", "deliver"),
                ("t", "rpc_dispatch"),
                ("t", "rpc_reply"),
                ("t", "descriptor_write"),
                ("t", "recv_match"),
                ("f", "deliver"),
            ]
        );
        // Every step binds to the same flow id.
        for e in items
            .iter()
            .filter(|e| e.get("cat").and_then(json::Json::as_str) == Some("lifecycle"))
        {
            assert_eq!(e.get("id").unwrap().as_f64(), Some(id as f64));
        }
        // The rpc stages land on the rpc track (tid = Layer::Rpc index).
        let dispatch = items
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("stage"))
                    .and_then(json::Json::as_str)
                    == Some("rpc_dispatch")
            })
            .unwrap();
        assert_eq!(
            dispatch.get("tid").unwrap().as_f64(),
            Some(Layer::Rpc.index() as f64)
        );
    }

    #[test]
    fn telemetry_series_render_as_counter_tracks() {
        use crate::timeseries::Telemetry;
        let t = Telemetry::new();
        t.enable();
        t.observe(1_000, 2, "rpc.buffers_in_use", 3.0);
        t.observe(5_000, 2, "rpc.buffers_in_use", 7.0);
        let series = t.take();
        let events = [Event::SpanEnter {
            time: 0,
            node: 0,
            layer: Layer::Mpi,
            name: "send",
        }];
        let text = chrome_trace_json_with_telemetry(&events, &series);
        let doc = json::parse(&text).expect("telemetry export must be valid JSON");
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<&json::Json> = items
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2, "one C event per bucket");
        assert_eq!(counters[0].get("pid").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        // The telemetry-only node still gets a named process track.
        assert!(items.iter().any(|e| {
            e.get("ph").and_then(json::Json::as_str) == Some("M")
                && e.get("pid").and_then(json::Json::as_f64) == Some(2.0)
        }));
        // An empty series slice is byte-identical to the plain exporter.
        assert_eq!(
            chrome_trace_json_with_telemetry(&events, &[]),
            chrome_trace_json(&events)
        );
    }

    #[test]
    fn scheduler_noise_is_omitted() {
        let events = [Event::Sched(TraceEntry {
            time: 10,
            kind: TraceKind::Resume,
            detail: "p0".to_string(),
        })];
        let text = chrome_trace_json(&events);
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn hardware_events_use_the_hw_pid() {
        let events = [
            Event::SpanEnter {
                time: 0,
                node: NO_NODE,
                layer: Layer::Ring,
                name: "hop",
            },
            Event::SpanExit {
                time: 250,
                node: NO_NODE,
                layer: Layer::Ring,
                name: "hop",
            },
        ];
        let text = chrome_trace_json(&events);
        let doc = json::parse(&text).unwrap();
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let b = items
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .unwrap();
        assert_eq!(b.get("pid").unwrap().as_f64(), Some(-1.0));
    }
}
