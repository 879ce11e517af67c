//! Spans recorded from the benchmark's own code, around its calls
//! into each layer's public functions. Kept in memory, written out as
//! JSON lines when the traced pass ends.
//!
//! The program has no spans of its own yet, so a child span here is
//! not clocked inside its parent: it is the same operation, at the
//! same snapshot, entered one layer lower right after the parent
//! returned (or a stage time the call itself reported). Parent and
//! child are linked by cause, and a layer's self time is its span
//! minus its children — the outside-in estimate of what that layer
//! adds on top of the layer below.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::Samples;

pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op_id: u32,
}

/// Whether operation `op` of a traced pass is recorded. About every
/// other one, chosen by a hash so the choice lines up with no cycle in
/// the workload (six fixed statements, an INSERT every fifth op).
pub fn alternate(op: u32) -> bool {
    (op.wrapping_mul(0x9e37_79b1) >> 15) & 1 == 1
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

/// What `span` returns while recording is off.
const NOT_RECORDED: SpanId = SpanId::MAX;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            recording: true,
        }
    }

    /// Turns recording on or off and returns the previous setting.
    /// While off, calls are still timed but leave no span: the traced
    /// pass runs every other operation that way to measure what
    /// recording costs.
    pub fn set_recording(&mut self, recording: bool) -> bool {
        std::mem::replace(&mut self.recording, recording)
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records one span that ran from `start` for `took`.
    pub fn span(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<SpanId>,
        start: Instant,
        took: Duration,
    ) -> SpanId {
        if !self.recording {
            return NOT_RECORDED;
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: parent.filter(|&p| p != NOT_RECORDED),
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `call` and records it as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<SpanId>,
        call: impl FnOnce() -> R,
    ) -> (R, SpanId, Duration) {
        let start = Instant::now();
        let result = call();
        let took = start.elapsed();
        (result, self.span(name, op_id, parent, start, took), took)
    }

    /// Records a stage time the parent call reported itself (a
    /// `QueryStats` or `LoadStageTimings` field), placed at the
    /// parent's start.
    pub fn stage(&mut self, name: &'static str, parent: SpanId, took: Duration) -> SpanId {
        if parent == NOT_RECORDED {
            return NOT_RECORDED;
        }
        let p = &self.spans[parent as usize];
        let (start_ns, op_id) = (p.start_ns, p.op_id);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: Some(parent),
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Per span name, each span's duration in microseconds.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Samples> {
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name)
                .or_default()
                .push((span.end_ns - span.start_ns) as f64 / 1e3);
        }
        out
    }

    /// Per span name, each span's self time in microseconds: its
    /// duration minus its children's, floored at 0 (a re-execution
    /// can run a little longer than the call it stands in for).
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Samples> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            out.entry(span.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent,
    /// op_id`, `id` being the line's own index.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op_id
            )?;
        }
        out.flush()
    }
}
