//! Spans around the calls into each layer, recorded from the
//! benchmark's side: name, start, end, parent, and the batch they
//! belong to. Kept in memory, written as JSON lines at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Replay batch the span belongs to (shared by a root and its
    /// children).
    pub group: u32,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Switched off it records nothing, so the same replay
/// code measures the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer, recording or not.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Start recording or stop.
    pub fn switch(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span; returns its id for [`Tracer::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: u32, group: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            group,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u32) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        group: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, group);
        let out = f();
        self.end(id);
        out
    }

    /// Everything recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of the spans called `name`: duration minus the
    /// part their children cover.
    #[must_use]
    pub fn self_time_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .sum()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"group\": {}}}",
                s.name, s.start_ns, s.end_ns, s.group
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "batch",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                group: 0,
            },
            Span {
                name: "decode",
                start_ns: 10,
                end_ns: 30,
                parent: 0,
                group: 0,
            },
            Span {
                name: "engine",
                start_ns: 30,
                end_ns: 90,
                parent: 0,
                group: 0,
            },
            Span {
                name: "batch",
                start_ns: 100,
                end_ns: 150,
                parent: ROOT,
                group: 1,
            },
            Span {
                name: "engine",
                start_ns: 105,
                end_ns: 145,
                parent: 3,
                group: 1,
            },
        ];
        assert_eq!(t.self_time_ns("batch"), 20 + 10);
        assert_eq!(t.self_time_ns("engine"), 60 + 40);
        assert_eq!(t.self_time_ns("decode"), 20);
        assert_eq!(t.self_time_ns("absent"), 0);
    }

    #[test]
    fn switched_off_it_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT, 0);
        t.end(id);
        assert_eq!(t.span("y", id, 0, || 7), 7);
        assert!(t.spans().is_empty());
        t.switch(true);
        let root = t.begin("batch", ROOT, 4);
        t.span("child", root, 4, || ());
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
