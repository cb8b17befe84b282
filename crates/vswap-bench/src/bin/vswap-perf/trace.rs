//! Host wall-clock spans recorded by the benchmark around the calls it
//! makes into each layer, kept in memory and written out as a Chrome
//! trace when the traced rep ends.

use sim_obs::json::JsonWriter;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vswap_guestos::{GuestCtx, GuestError, GuestProgram, StepOutcome};

/// Span name of one `GuestProgram::step` call.
pub const STEP: &str = "vswap-workloads.step";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    /// Index of the enclosing span, which caused this one.
    pub parent: Option<usize>,
}

#[derive(Debug)]
struct Spans {
    origin: Instant,
    closed: Vec<Span>,
    open: Vec<usize>,
}

/// A shared span recorder; clones record into the same buffer, so the
/// step decorator inside the machine nests under the benchmark's own
/// `run` span.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Spans>>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Rc::new(RefCell::new(Spans {
            origin: Instant::now(),
            closed: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut s = self.0.borrow_mut();
            let idx = s.closed.len();
            let span = Span {
                name,
                start: s.origin.elapsed(),
                dur: Duration::ZERO,
                parent: s.open.last().copied(),
            };
            s.closed.push(span);
            s.open.push(idx);
            idx
        };
        let out = f();
        let mut s = self.0.borrow_mut();
        let end = s.origin.elapsed();
        s.closed[idx].dur = end - s.closed[idx].start;
        s.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().closed.clone()
    }
}

/// Wraps a workload so each `step` call is a span.
pub struct Timed {
    pub inner: Box<dyn GuestProgram>,
    pub tracer: Tracer,
}

impl GuestProgram for Timed {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> Result<StepOutcome, GuestError> {
        let inner = &mut self.inner;
        self.tracer.span(STEP, || inner.step(ctx))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// self time (duration minus the part their child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.dur;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.dur;
        t.self_time += s.dur.saturating_sub(children);
    }
    out
}

/// Durations of the spans named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur.as_secs_f64() * 1e6).collect()
}

/// Renders spans in the Chrome `trace_event` format (complete events,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (i, s) in spans.iter().enumerate() {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_str("cat", s.name.split('.').next().unwrap_or(s.name));
        w.field_str("ph", "X");
        w.field_f64("ts", s.start.as_secs_f64() * 1e6);
        w.field_f64("dur", s.dur.as_secs_f64() * 1e6);
        w.field_u64("pid", 1);
        w.field_u64("tid", 1);
        w.key("args");
        w.begin_object();
        w.field_u64("id", i as u64);
        if let Some(p) = s.parent {
            w.field_u64("parent", p as u64);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(2)));
            tracer.span("inner", || {});
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let times = layer_times(&spans);
        assert_eq!(times["inner"].count, 2);
        let outer = times["outer"];
        assert_eq!(outer.self_time, outer.total - times["inner"].total);
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""), "{json}");
        assert!(json.contains("\"parent\":0"));
    }
}
