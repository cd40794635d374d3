//! Spans around the calls the benchmark makes into each layer.
//!
//! The benchmark measures the layers from outside: a span is opened here,
//! in the benchmark's own files, around a call into a public function of
//! the workspace, and nothing is added inside `crates/`. Spans stay in
//! memory for the whole run and are written out once, at exit, in Chrome
//! trace format. A span's self time is its duration minus the part of it
//! its child spans cover, so the per-layer times of one op add up to the
//! op and never count a nested call twice.

use crate::json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;
/// Op id of spans recorded outside any op (set-up, layer probes).
pub const NO_OP: u64 = u64::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op the span belongs to, or [`NO_OP`].
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. When off, [`Tracer::span`] is a call
/// through: no clock read, no allocation.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(NO_OP),
        }
    }

    /// Switch recording; only between spans (none may be open).
    pub fn set_on(&self, on: bool) {
        debug_assert!(self.open.borrow().is_empty());
        self.on.set(on);
    }

    /// Tag the spans that follow with `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_as(|| (f(), name))
    }

    /// Run `f` inside a span whose name `f` chooses from what the call did
    /// (a tick that made a repair decision is not a healthy tick).
    pub fn span_as<R>(&self, f: impl FnOnce() -> (R, &'static str)) -> R {
        if !self.on.get() {
            return f().0;
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let idx = spans.len() as u32;
            spans.push(Span {
                name: "",
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied().unwrap_or(NO_PARENT),
                op: self.op.get(),
            });
            open.push(idx);
            idx
        };
        let (out, name) = f();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[idx as usize].end_ns = end;
        spans[idx as usize].name = name;
        self.open.borrow_mut().pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        debug_assert!(self.open.borrow().is_empty());
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover of it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            let slot = &mut own[s.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

/// Per-name roll-up of a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, in ns, in start order.
    pub durs_ns: Vec<f64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.durs_ns.push(s.dur_ns() as f64);
    }
    out
}

/// Chrome trace (`chrome://tracing`, Perfetto) of the spans outside any op
/// and of the first `ops` ops; one complete event per span, one track.
pub fn chrome_json(spans: &[Span], ops: u64) -> String {
    let own = self_times(spans);
    let events: Vec<Value> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.op == NO_OP || s.op < ops)
        .map(|(s, own)| {
            let mut args = vec![("self_us", Value::Num(own as f64 / 1e3))];
            if s.op != NO_OP {
                args.push(("op", Value::Num(s.op as f64)));
            }
            Value::obj(vec![
                ("name", Value::str(s.name)),
                ("cat", Value::str(layer_of(s.name))),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(1.0)),
                ("args", Value::obj(args)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("displayTimeUnit", Value::str("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
    .to_line()
}

/// The layer a span name belongs to: everything before its last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) > tick [10,60) > ping [20,30), ping [35,50);
        // op also > announce [70,90).
        let spans = [
            span("bench.op", 0, 100, NO_PARENT),
            span("core.tick", 10, 60, 0),
            span("probe.ping", 20, 30, 1),
            span("probe.ping", 35, 50, 1),
            span("sim.dataplane.announce", 70, 90, 0),
        ];
        let own = self_times(&spans);
        // Grandchildren come off their parent only, never off the root.
        assert_eq!(own, vec![100 - 50 - 20, 50 - 10 - 15, 10, 15, 20]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times add up to the root"
        );

        let names = by_name(&spans);
        let ping = &names["probe.ping"];
        assert_eq!((ping.count, ping.total_ns, ping.self_ns), (2, 25, 25));
        assert_eq!(ping.durs_ns, vec![10.0, 15.0]);
        assert_eq!(names["core.tick"].self_ns, 25);
        assert_eq!(names["bench.op"].self_ns, 30);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = [span("a.x", 0, 10, NO_PARENT), span("a.y", 5, 15, 0)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_records_nesting_and_is_free_when_off() {
        let t = Tracer::new(true);
        t.set_op(3);
        let v = t.span("bench.op", || {
            t.span("core.tick", || 1) + t.span_as(|| (2, "core.tick_decision"))
        });
        assert_eq!(v, 3);
        t.set_on(false);
        assert_eq!(t.span("core.tick", || 7), 7);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "bench.op");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("core.tick", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("core.tick_decision", 0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(t.take().is_empty());
    }

    #[test]
    fn chrome_export_keeps_setup_and_first_ops() {
        let mut spans = vec![span("asmap.generate", 0, 5, NO_PARENT)];
        spans[0].op = NO_OP;
        for op in 0..4u64 {
            let mut s = span("bench.op", 10 * (op + 1), 10 * (op + 1) + 5, NO_PARENT);
            s.op = op;
            spans.push(s);
        }
        let doc = crate::json::parse(&chrome_json(&spans, 2)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("cat").unwrap().as_str(), Some("asmap"));
        assert_eq!(layer_of("sim.dataplane.walk"), "sim.dataplane");
        assert_eq!(layer_of("plain"), "plain");
    }
}
