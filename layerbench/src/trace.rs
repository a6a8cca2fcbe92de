//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's trace
//! epoch), the span that caused it, and the request it belongs to.
//! Every recording thread owns a [`Tracer`]; spans refer to their
//! parent by index within the same tracer. A disabled tracer records
//! nothing, so the untraced phases pay one branch per call.

use std::io::Write as _;
use std::time::Instant;

/// Index of a span within its tracer; [`NO_SPAN`] for none.
pub type SpanId = u32;

/// The "no span" parent / the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// Request id of spans that belong to no request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary crossed (`wire.parse_workload`, `core.run_batch`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// The request this span serves, or [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Thread label written with every span.
    pub thread: &'static str,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; records nothing when
    /// `enabled` is false.
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            let end_ns = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Records a span whose ends were timestamped elsewhere.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: NO_SPAN,
                request,
            };
            self.spans.push(span);
        }
    }
}

/// Writes every tracer's spans as JSON lines under `path`: a header
/// line, then one line per span.
pub fn write_spans(
    path: &std::path::Path,
    header: &str,
    tracers: &[&Tracer],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for tracer in tracers {
        for (id, s) in tracer.spans.iter().enumerate() {
            write!(
                out,
                "{{\"thread\":\"{}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                tracer.thread, s.name, s.start_ns, s.end_ns
            )?;
            if s.parent != NO_SPAN {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            if s.request != NO_REQUEST {
                write!(out, ",\"request\":{}", s.request)?;
            }
            writeln!(out, "}}")?;
        }
    }
    out.flush()
}
