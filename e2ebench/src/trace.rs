//! Span recording for the traced runs.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! layer's public functions: `{layer, op, record, start_ns, end_ns,
//! parent}`. They stay in memory and are written out as JSON lines when
//! the run ends. A span's self time is its duration minus the part its
//! child spans cover. A disabled tracer records nothing, so the same
//! replay code gives the untraced baseline for the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    layer: &'static str,
    op: &'static str,
    record: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per `layer.op` totals.
#[derive(Default, Clone, Copy)]
pub struct OpTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations (seconds).
    pub total_s: f64,
}

impl OpTotals {
    /// Mean span duration in milliseconds (`0` when none).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s * 1e3 / self.count as f64
        }
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (inert when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before it closes become its children.
    pub fn begin(&mut self, layer: &'static str, op: &'static str, record: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            op,
            record,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the span `id`, optionally renaming its operation now that
    /// its outcome is known (a stream slide turns out a delta or a
    /// repair only once it returns).
    pub fn end_as(&mut self, id: SpanId, op: Option<&'static str>) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        if let Some(op) = op {
            span.op = op;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in LIFO order");
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.end_as(id, None);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        record: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, op, record);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Count and summed duration of one `layer.op` (zero when never
    /// recorded).
    pub fn op(&self, layer: &str, op: &str) -> OpTotals {
        let mut t = OpTotals::default();
        for s in self.spans.iter().filter(|s| s.layer == layer && s.op == op) {
            t.count += 1;
            t.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        t
    }

    /// Durations (seconds) of every `layer.op` span, in record order.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Share of `wall_s` the layers' self times cover.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            return 0.0;
        }
        self.self_times().values().sum::<f64>() / wall_s
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            };
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"op\":\"{}\",\"record\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.layer, s.op, s.record, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}
