//! A span is said once: `ProcCtx::span` opens it at the process clock and
//! closes it when its body returns, however the body returns, and a span
//! is recorded whole or not at all.

use des::obs::{attribute, Event, Layer};
use des::{ProcCtx, Simulation};

/// `(enters, exits)` in a log.
fn halves(events: &[Event]) -> (usize, usize) {
    let enters = events
        .iter()
        .filter(|e| matches!(e, Event::SpanEnter { .. }));
    let exits = events
        .iter()
        .filter(|e| matches!(e, Event::SpanExit { .. }));
    (enters.count(), exits.count())
}

/// A lookup that leaves its two spans early through `?` when `key` is 0.
fn lookup(ctx: &mut ProcCtx, key: u32) -> Result<u32, &'static str> {
    ctx.span(0, Layer::Mpi, "lookup", |ctx| {
        ctx.advance(10);
        let found = ctx.span(0, Layer::Adi, "probe", |ctx| {
            ctx.advance(5);
            (key != 0).then_some(key).ok_or("missing")
        })?;
        ctx.advance(100);
        Ok(found)
    })
}

#[test]
fn an_early_return_closes_the_span() {
    let mut sim = Simulation::new();
    sim.enable_trace();
    sim.spawn("p", |ctx| {
        assert_eq!(lookup(ctx, 0), Err("missing"));
        assert_eq!(lookup(ctx, 7), Ok(7));
    });
    assert!(sim.run().is_clean());
    let events = sim.recorder().take_events();
    assert_eq!(halves(&events), (4, 4));
    let b = attribute(&events);
    assert_eq!(b.unbalanced, 0);
    // The early return closed both spans at 15 ns; the full call ran on.
    assert_eq!(b.layer_ns(Layer::Adi), 5 + 5);
    assert_eq!(b.layer_ns(Layer::Mpi), 10 + 110);
    assert_eq!(b.covered_ns, 15 + 115);
}

#[test]
fn a_span_open_when_recording_starts_records_neither_half() {
    let mut sim = Simulation::new();
    let rec = sim.recorder_arc();
    sim.spawn("arm", move |ctx| {
        ctx.wait_until(50);
        rec.enable();
    });
    sim.spawn("p", |ctx| {
        ctx.span(0, Layer::Bbp, "straddles", |ctx| ctx.advance(100));
        ctx.span(0, Layer::Bbp, "after", |ctx| ctx.advance(20));
    });
    assert!(sim.run().is_clean());
    let events = sim.recorder().take_events();
    let names: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnter { time, name, .. } | Event::SpanExit { time, name, .. } => {
                Some((*time, *name))
            }
            _ => None,
        })
        .collect();
    assert_eq!(names, [(100, "after"), (120, "after")]);
    assert_eq!(attribute(&events).unbalanced, 0);
}
