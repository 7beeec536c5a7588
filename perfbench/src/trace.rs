//! In-memory spans around the calls into each layer, written out as
//! Chrome trace-event JSON (Perfetto and `chrome://tracing` read it)
//! when the run ends. When tracing is off `begin`/`end` record nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `"run_until_gpio"`.
    pub name: &'static str,
    /// Op this call belongs to (the op span itself has the same id).
    pub op: u64,
    /// Call argument worth seeing in the timeline (phase, chunk, slice).
    pub arg: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// An open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    op: u64,
    arg: u64,
    start: Instant,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span.
    pub fn begin(&self, name: &'static str, op: u64, arg: u64) -> Open {
        Open { name, op, arg, start: Instant::now() }
    }

    /// Closes a span, records it when tracing is on, and returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name: open.name,
                op: open.op,
                arg: open.arg,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"arg\":{}}}}}{sep}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op,
                sp.arg
            );
        }
        s.push_str("]}\n");
        s
    }
}
