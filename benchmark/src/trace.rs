//! Benchmark-side spans: one per call into a layer's public function, kept in
//! memory and written out when the run ends. A disabled tracer records
//! nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<u32>,
}

/// A handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a finished trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Reserve room so recording does not reallocate inside a timed loop.
    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            self.spans.reserve(spans);
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
        });
        SpanId(id)
    }

    /// Close a span and return its duration in nanoseconds (0 when disabled).
    #[inline]
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent, workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        assert!(self.open.is_empty(), "open spans at exit: {:?}", self.open);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, parent, workload
            )?;
        }
        w.flush()
    }
}
