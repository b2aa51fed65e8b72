//! In-memory span recorder for the traced run: named intervals with a
//! parent link and counts, written out once when the run ends.

use std::time::Instant;

use cmp_json::Value;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval covers (`setup`, `run`, `epoch`, `layer.cache.l2`, …).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (equal to the start while
    /// the span is open).
    pub end_ns: u64,
    /// Counts measured inside the span.
    pub counts: Vec<(String, f64)>,
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval `[start, end]` under `parent`.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.add_ns(name, parent, start_ns, end_ns)
    }

    /// Records a finished interval given in ns since the recorder was
    /// created.
    pub fn add_ns(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; close it with [`close`](Spans::close).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(name, parent, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: usize, key: impl Into<String>, value: f64) {
        self.spans[id].counts.push((key.into(), value));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array; each carries its self time (its duration
    /// minus the part its direct children cover).
    pub fn to_json(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let rows: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_ns - s.start_ns;
                let counts = s
                    .counts
                    .iter()
                    .fold(Value::object(), |o, (k, v)| o.insert(k.clone(), *v));
                Value::object()
                    .insert("id", id as u64)
                    .insert("name", s.name.clone())
                    .insert("parent", s.parent.map(|p| p as u64))
                    .insert("start_ns", s.start_ns)
                    .insert("end_ns", s.end_ns)
                    .insert("self_ns", dur.saturating_sub(child_ns[id]))
                    .insert("counts", counts)
            })
            .collect();
        Value::Array(rows)
    }
}
