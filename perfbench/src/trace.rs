//! In-memory spans, recorded from the benchmark's own files around each
//! call into a layer, and written out once the run has ended.

use std::fmt::Write as _;
use std::time::Instant;

use crate::Args;

struct Span {
    name: &'static str,
    /// Shared by every span of one request or solve iteration.
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start: Instant::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Ends span `index` now and returns its length in seconds.
    pub fn close(&mut self, index: usize) -> f64 {
        let span = &mut self.spans[index];
        let end = Instant::now();
        span.end = Some(end);
        (end - span.start).as_secs_f64()
    }

    /// Records a span whose ends were timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: Some(end),
        });
        self.spans.len() - 1
    }

    /// Writes the spans as JSON lines to
    /// `perfbench/trace-out/<workload>-seed<seed>.jsonl` (times in µs from
    /// the first span) and says where.
    pub fn write(&self, args: &Args) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace-out");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let end = s.end.map_or(f64::NAN, us);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {end:.3}}}",
                s.name,
                s.id,
                us(s.start)
            );
        }
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out));
        match written {
            Ok(()) => println!("# spans={} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}
