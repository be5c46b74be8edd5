//! The benchmark's own spans: recorded in memory around each call the
//! benchmark makes into a layer, written out as JSON lines when the run
//! ends.
//!
//! Each thread owns a [`SpanLog`], so recording is a push onto a local
//! vector. Span ids carry the owning log's index in their top bits, which
//! keeps them unique across threads without shared state. A request's
//! root span id doubles as its trace id; its children share that trace.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Trace id: the root span's id.
    pub trace: u64,
    /// This span's id.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// What the span covers, e.g. `boutique.home` or `probe.codec`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

/// A started span, finished with [`SpanLog::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A per-thread span buffer. Disabled logs record nothing.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    owner: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `owner` (0 is the main thread, clients are 1..).
    pub fn new(enabled: bool, epoch: Instant, owner: u64) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            owner,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A log that records nothing.
    pub fn off() -> SpanLog {
        SpanLog::new(false, Instant::now(), 0)
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.owner << 48) | self.next
    }

    /// Opens a span at `start`; `parent` is `None` for a new trace.
    pub fn open_at(&mut self, name: &'static str, parent: Option<&Open>, start: Instant) -> Open {
        let id = self.next_id();
        Open {
            trace: parent.map_or(id, |p| p.trace),
            id,
            parent: parent.map_or(0, |p| p.id),
            name,
            start,
        }
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<&Open>) -> Open {
        self.open_at(name, parent, Instant::now())
    }

    /// Closes `open` at `end` and keeps it, if recording.
    pub fn finish_at(&mut self, open: Open, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: since(open.start),
            end_ns: since(end),
        });
    }

    /// Closes `open` now.
    pub fn finish(&mut self, open: Open) {
        self.finish_at(open, Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.finish(open);
        out
    }

    /// Moves every recorded span out of `other` into this log.
    pub fn absorb(&mut self, other: &mut SpanLog) {
        self.spans.append(&mut other.spans);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_root_trace() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let root = log.open("boutique.place_order", None);
        let child = log.open("Frontend.add_to_cart", Some(&root));
        log.finish(child);
        log.finish(root);
        let (c, r) = (&log.spans[0], &log.spans[1]);
        assert_eq!(r.trace, r.id);
        assert_eq!(r.parent, 0);
        assert_eq!(c.trace, r.id);
        assert_eq!(c.parent, r.id);
        assert_eq!(r.id >> 48, 3, "owner in the top bits");
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 1);
        let open = log.open("x", None);
        log.finish(open);
        assert_eq!(log.len(), 0);
    }
}
