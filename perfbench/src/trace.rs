//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the repository's public functions; nothing inside the program is
//! instrumented. A disabled tracer records nothing and costs one branch
//! per boundary, so untraced operations interleaved with traced ones in
//! the same run measure the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel id returned by [`Tracer::open`] while recording is off.
const NO_SPAN: usize = usize::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, `layer.call` (e.g. `ir.parse`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer prefix of the span name (`ir` for `ir.parse`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans of a single thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            enabled: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the next operation.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id` returned by [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close out of order");
        self.stack.pop();
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Every closed span so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one thread never overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e3)
            .collect()
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent","op"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.open("op.job");
        t.span("ir.parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(selfs[0] < t.spans()[0].dur_ns());
        assert_eq!(selfs[1], t.spans()[1].dur_ns());
        assert!(t.layer_self_ns()["ir"] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open("ir.parse");
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
