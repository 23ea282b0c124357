//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public API (nothing inside the program is instrumented),
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of spans that hang directly off the run.
pub const ROOT: u32 = 0;
/// Job id of spans that cover no single job (a rung, a pass).
pub const NO_JOB: u64 = u64::MAX;

struct Span {
    id: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    job: u64,
}

pub struct Spans {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
    /// Spans recorded so far per name.
    per_name: Vec<(&'static str, usize)>,
}

impl Spans {
    /// Spans kept per name; later ones are timed by their caller as
    /// usual but not stored, so every layer stays represented.
    const PER_NAME: usize = 20_000;

    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: ROOT + 1,
            spans: Vec::new(),
            per_name: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record_as(
        &mut self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        job: u64,
    ) {
        let count = match self.per_name.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => count,
            None => {
                self.per_name.push((name, 0));
                &mut self.per_name.last_mut().expect("just pushed").1
            }
        };
        *count += 1;
        if *count <= Self::PER_NAME {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                job,
            });
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        job: u64,
    ) {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, job);
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span: id, name, start/end in ns since
    /// the run's origin, parent id, and job index (absent for rungs).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent
            )?;
            if s.job != NO_JOB {
                write!(out, ",\"job\":{}", s.job)?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
