//! Benchmark-owned spans around the public calls into each layer.
//!
//! Spans live in memory while the traced pass runs and are written as
//! JSON lines when the benchmark ends. A disabled tracer records nothing
//! and costs one branch per call, so the timed and traced passes run the
//! same code.

use std::io::Write as _;
use std::time::Instant;

/// Index of a span in the tracer; `NONE` marks a root.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Client operation this span belongs to; children share their root's.
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name` with `op >= from_op`.
    pub fn durations(&self, name: &str, from_op: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op >= from_op)
            .map(Span::micros)
            .collect()
    }

    /// Per root span named `root` (with `op >= from_op`), the summed
    /// duration in µs of its children named `child` — one stage's time per
    /// client operation, however many calls the stage made.
    pub fn stage_per_op(&self, root: &str, child: &str, from_op: u64) -> Vec<f64> {
        let mut per_root = std::collections::BTreeMap::<SpanId, f64>::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root && s.op >= from_op {
                per_root.insert(id, 0.0);
            }
        }
        for s in &self.spans {
            if s.name == child {
                if let Some(total) = per_root.get_mut(&s.parent) {
                    *total += s.micros();
                }
            }
        }
        per_root.into_values().collect()
    }

    /// Self time in µs of each root span named `root`: its duration minus
    /// the part its direct children cover.
    pub fn self_times(&self, root: &str, from_op: u64) -> Vec<f64> {
        let mut covered = std::collections::BTreeMap::<SpanId, u64>::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root && s.op >= from_op {
                covered.insert(id, 0);
            }
        }
        for s in &self.spans {
            if let Some(c) = covered.get_mut(&s.parent) {
                *c += s.end_ns - s.start_ns;
            }
        }
        covered
            .into_iter()
            .map(|(id, c)| {
                let s = &self.spans[id];
                (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, NONE, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "step",
                op: 0,
                parent: NONE,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                name: "a",
                op: 0,
                parent: 0,
                start_ns: 1_000,
                end_ns: 4_000,
            },
            Span {
                name: "a",
                op: 0,
                parent: 0,
                start_ns: 5_000,
                end_ns: 9_000,
            },
        ];
        assert_eq!(t.self_times("step", 0), vec![3.0]);
        assert_eq!(t.stage_per_op("step", "a", 0), vec![7.0]);
        assert_eq!(t.durations("a", 0), vec![3.0, 4.0]);
    }
}
