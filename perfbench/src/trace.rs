//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans live in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the part that
//! its child spans cover. Nothing here reaches inside the program: the
//! spans sit in the benchmark's files, around public calls.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. A disabled tracer runs the closures and records
/// nothing, so untraced runs pay one branch per span.
pub struct Tracer {
    run_id: String,
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String, enabled: bool) -> Tracer {
        Tracer {
            run_id,
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in first-seen order: `(name, calls,
    /// inclusive seconds, self seconds)`.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 * 1e-9;
            match out.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.seconds();
                    row.3 += own;
                }
                None => out.push((s.name, 1, s.seconds(), own)),
            }
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, text)
    }
}
