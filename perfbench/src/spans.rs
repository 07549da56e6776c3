//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its op, its parent and its start and end; spans stay in
//! memory until the run ends, when self times (duration minus the time
//! covered by child spans) are computed and the whole log is written out.

use std::time::Instant;

use hmm_util::Value;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op this span belongs to (1-based).
    pub op: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Layer call name, `<crate>.<what>`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// The span log of one traced run.
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before
    /// [`Tracer::exit`] closes it. An `"op"` span starts a new op id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if name == "op" {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Close the span `idx` returned by [`Tracer::enter`].
    pub fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = end;
    }

    /// Time `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let r = f();
        self.exit(idx);
        r
    }

    /// Self time in ns of every span, in log order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self times in ms of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The whole log as JSON, one object per span with its self time.
    pub fn to_json(&self) -> Value {
        let own = self.self_ns();
        Value::Array(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    Value::object(vec![
                        ("op", s.op.into()),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("self_ns", own.into()),
                    ])
                })
                .collect(),
        )
    }
}
