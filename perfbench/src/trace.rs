//! Spans the traced run records around each public call it makes. Each
//! thread keeps its own [`SpanLog`] in memory; the logs are merged and
//! written out as JSON lines when the run ends. Nothing here reaches into
//! the program: every span wraps a call from the benchmark's own code.

use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique over all logs of a run.
    pub id: u64,
    /// The enclosing span, `0` for a root.
    pub parent: u64,
    /// The layer call it wraps, e.g. `client.predict` or `core.fit`.
    pub name: &'static str,
    /// Request id shared by the spans of one request, `0` for none.
    pub req: u64,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch (`0` while open).
    pub end_ns: u64,
}

/// The spans of one thread.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u64,
    next: u64,
    children: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `thread`, timed against the shared `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            thread,
            next: 0,
            children: 0,
            spans: Vec::new(),
        }
    }

    /// An empty log for another thread, on the same epoch, with a thread
    /// number no other child of this log has had.
    pub fn child(&mut self) -> Self {
        self.children += 1;
        Self::new(self.epoch, (self.thread << 16) + self.children)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = self.ns(Instant::now());
        self.push(name, parent, req, now, 0)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: u64) {
        let now = self.ns(Instant::now());
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, s, e)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Self time of the span `id`: its duration minus the part of it its
    /// direct children cover.
    pub fn self_time_ns(&self, id: u64) -> Option<u64> {
        let span = self.spans.iter().find(|s| s.id == id)?;
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        Some((span.end_ns - span.start_ns).saturating_sub(covered))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now(), 1);
        let root = log.push("root", 0, 0, 0, 100);
        log.push("a", root, 0, 10, 40);
        log.push("b", root, 0, 30, 60); // overlaps a
        log.push("c", root, 0, 90, 120); // runs past the root
        assert_eq!(log.self_time_ns(root), Some(100 - 50 - 10));
    }

    #[test]
    fn ids_stay_unique_across_threads() {
        let mut root = SpanLog::new(Instant::now(), 0);
        let mut a = root.child();
        let mut b = root.child();
        let x = a.open("x", 0, 0);
        let y = b.open("y", 0, 0);
        assert_ne!(x, y);
        a.close(x);
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
        assert!(a.spans()[0].end_ns >= a.spans()[0].start_ns);
    }
}
