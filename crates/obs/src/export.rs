//! Tail-sampled trace export: completed trace trees collected from the
//! per-thread rings, ready to stream to subscribers.
//!
//! Head sampling (the [`crate::SpanContext::sampled`] flag and the
//! no-sink fast path) decides *before* a query runs whether it records
//! anything — zero-alloc, but blind to outcomes. The
//! [`TraceCollector`] implements the complementary **tail** decision:
//! it buffers each trace's records until the trace completes (its local
//! root span closes), then keeps
//!
//! * **every** trace containing an error signal — a
//!   `service.deadline_exceeded` / `service.quota_rejected` event, a
//!   panic, or any record flagging adversary `anomalies` — and
//! * a configured fraction of the remaining traces whose root duration
//!   sits at or above a configured quantile of recently observed
//!   durations (`slow_quantile = 0.0` makes every completed trace
//!   eligible, so the fraction applies to all of them).
//!
//! Kept traces are owned [`ExportedTrace`] values (names and fields
//! copied out of the fixed-size [`Record`]s) held in a bounded ring, so
//! a subscriber that never polls cannot grow the server: the oldest
//! trace falls out first. `tcast-net` serves the ring over the wire via
//! the `TraceExport`/`TraceData` frames.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{Record, RecordKind, TraceId, TraceSink};

/// Event names that force a trace to be kept regardless of sampling.
pub const ERROR_EVENTS: [&str; 3] = [
    "service.deadline_exceeded",
    "service.quota_rejected",
    "service.panicked",
];

/// One record of an exported trace: the owned (heap-allocated) mirror
/// of [`Record`], safe to hold after the `&'static` interning of the
/// live path no longer applies — e.g. on the far side of the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedRecord {
    /// Record kind.
    pub kind: RecordKind,
    /// Record name, e.g. `"service.execute"`.
    pub name: String,
    /// Span id this record describes (or the enclosing span for events).
    pub span: u64,
    /// Parent span id at emission time (possibly a remote span id).
    pub parent: u64,
    /// Nanoseconds since the *originating process's* trace epoch.
    pub t_ns: u64,
    /// Span duration in nanoseconds (`span_end` only).
    pub dur_ns: u64,
    /// `(name, value)` payload, at most [`crate::MAX_FIELDS`] entries.
    pub fields: Vec<(String, u64)>,
}

impl ExportedRecord {
    /// Owned copy of a live [`Record`].
    pub fn from_record(r: &Record) -> ExportedRecord {
        ExportedRecord {
            kind: r.kind,
            name: r.name.to_string(),
            span: r.span,
            parent: r.parent,
            t_ns: r.t_ns,
            dur_ns: r.dur_ns,
            fields: r
                .fields()
                .iter()
                .map(|&(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// Look up a field value by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Whether this record is an error signal (see [`ERROR_EVENTS`] and
    /// the `anomalies` field convention).
    pub fn is_error_signal(&self) -> bool {
        ERROR_EVENTS.iter().any(|e| self.name == *e) || self.field("anomalies").unwrap_or(0) > 0
    }
}

/// One completed trace: every record collected for it locally, in
/// consumption order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedTrace {
    /// The trace id all records share.
    pub trace: TraceId,
    /// Records in the order the collector consumed them.
    pub records: Vec<ExportedRecord>,
}

impl ExportedTrace {
    /// Duration of the trace: the longest `span_end` duration (the local
    /// root span outlives everything nested under it). 0 when the trace
    /// holds no closed span.
    pub fn duration_ns(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::SpanEnd)
            .map(|r| r.dur_ns)
            .max()
            .unwrap_or(0)
    }

    /// Whether any record carries an error signal.
    pub fn is_error(&self) -> bool {
        self.records.iter().any(ExportedRecord::is_error_signal)
    }
}

/// Tuning for [`TraceCollector`]. Construct via `default()` plus the
/// `with_*` builders.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct TraceCollectorConfig {
    /// Completed traces retained; the oldest is dropped beyond this.
    pub capacity: usize,
    /// Records kept per trace; further records of the same trace are
    /// counted but not stored.
    pub max_records_per_trace: usize,
    /// Fraction of eligible (non-error, slow-enough) traces to keep,
    /// enforced deterministically: over any run of N eligible traces,
    /// `floor(N*f)..=ceil(N*f)` are kept.
    pub keep_fraction: f64,
    /// A non-error trace is eligible only when its duration reaches this
    /// quantile of recently completed traces. `0.0` makes every
    /// completed trace eligible.
    pub slow_quantile: f64,
}

impl Default for TraceCollectorConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            max_records_per_trace: 4096,
            keep_fraction: 1.0,
            slow_quantile: 0.9,
        }
    }
}

impl TraceCollectorConfig {
    /// Sets [`Self::capacity`].
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets [`Self::keep_fraction`] (clamped to `[0, 1]`).
    pub fn with_keep_fraction(mut self, keep_fraction: f64) -> Self {
        self.keep_fraction = keep_fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets [`Self::slow_quantile`] (clamped to `[0, 1]`).
    pub fn with_slow_quantile(mut self, slow_quantile: f64) -> Self {
        self.slow_quantile = slow_quantile.clamp(0.0, 1.0);
        self
    }
}

/// Point-in-time counters of one collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCollectorStats {
    /// Traces that completed (root span closed) under this collector.
    pub completed: u64,
    /// Completed traces kept because they carried an error signal.
    pub kept_errors: u64,
    /// Completed traces kept by the slow-fraction sampler.
    pub kept_sampled: u64,
    /// Completed traces dropped by the tail sampler.
    pub dropped: u64,
    /// Kept traces that fell out of the bounded ring unread.
    pub evicted: u64,
}

/// In-progress traces buffered; the stalest is evicted beyond this (a
/// trace that never closes its root span must not leak).
const MAX_PENDING: usize = 1024;

/// How many recently completed trace durations feed the slow-quantile
/// estimate.
const DURATION_WINDOW: usize = 512;

/// Completion is detected once at least this many durations are on
/// record; before that every trace counts as slow (cold-start keep).
const DURATION_WARMUP: usize = 16;

struct PendingTrace {
    records: Vec<ExportedRecord>,
    /// Locally opened, not-yet-closed span ids.
    open: Vec<u64>,
    saw_span: bool,
    /// Monotonic sequence for stalest-first eviction.
    seq: u64,
}

#[derive(Default)]
struct CollectorState {
    pending: HashMap<u64, PendingTrace>,
    completed: VecDeque<ExportedTrace>,
    /// Recent completed-trace durations, newest last.
    durations: VecDeque<u64>,
    /// Deterministic keep-fraction accumulator.
    acc: f64,
    stats: TraceCollectorStats,
    seq: u64,
}

/// A [`TraceSink`] assembling per-thread ring batches into completed
/// traces and tail-sampling them into a bounded ring (see the module
/// docs for the sampling rules). Install with [`crate::add_sink`]; poll
/// with [`TraceCollector::take`].
pub struct TraceCollector {
    config: TraceCollectorConfig,
    state: Mutex<CollectorState>,
    /// Lock-free mirror of `stats.completed` for cheap health probes.
    completed_hint: AtomicU64,
}

impl TraceCollector {
    /// A collector with the given tuning.
    pub fn new(config: TraceCollectorConfig) -> TraceCollector {
        TraceCollector {
            config,
            state: Mutex::new(CollectorState::default()),
            completed_hint: AtomicU64::new(0),
        }
    }

    /// Remove and return up to `max` of the oldest kept traces.
    pub fn take(&self, max: usize) -> Vec<ExportedTrace> {
        let mut state = self.state.lock().unwrap();
        let n = state.completed.len().min(max);
        state.completed.drain(..n).collect()
    }

    /// Kept traces currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().completed.len()
    }

    /// `true` when no kept trace is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters since construction.
    pub fn stats(&self) -> TraceCollectorStats {
        self.state.lock().unwrap().stats
    }

    /// Traces completed so far (lock-free; may trail `stats()` briefly).
    pub fn completed_hint(&self) -> u64 {
        self.completed_hint.load(Ordering::Relaxed)
    }

    fn quantile_threshold(durations: &VecDeque<u64>, q: f64) -> u64 {
        if durations.is_empty() || q <= 0.0 {
            return 0;
        }
        let mut sorted: Vec<u64> = durations.iter().copied().collect();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn finalize(&self, state: &mut CollectorState, trace_id: u64) {
        let Some(pending) = state.pending.remove(&trace_id) else {
            return;
        };
        let trace = ExportedTrace {
            trace: TraceId(trace_id),
            records: pending.records,
        };
        state.stats.completed += 1;
        self.completed_hint.fetch_add(1, Ordering::Relaxed);

        let dur = trace.duration_ns();
        let keep = if trace.is_error() {
            state.stats.kept_errors += 1;
            true
        } else {
            let threshold = Self::quantile_threshold(&state.durations, self.config.slow_quantile);
            let eligible = state.durations.len() < DURATION_WARMUP || dur >= threshold;
            if eligible {
                state.acc += self.config.keep_fraction;
                if state.acc >= 1.0 {
                    state.acc -= 1.0;
                    state.stats.kept_sampled += 1;
                    true
                } else {
                    state.stats.dropped += 1;
                    false
                }
            } else {
                state.stats.dropped += 1;
                false
            }
        };
        state.durations.push_back(dur);
        if state.durations.len() > DURATION_WINDOW {
            state.durations.pop_front();
        }
        if keep {
            state.completed.push_back(trace);
            while state.completed.len() > self.config.capacity {
                state.completed.pop_front();
                state.stats.evicted += 1;
            }
        }
    }

    fn evict_stalest(state: &mut CollectorState) {
        if let Some((&victim, _)) = state.pending.iter().min_by_key(|(_, p)| p.seq) {
            state.pending.remove(&victim);
        }
    }
}

impl TraceSink for TraceCollector {
    fn consume(&self, records: &[Record]) {
        let mut state = self.state.lock().unwrap();
        let mut closed: Vec<u64> = Vec::new();
        for r in records {
            if r.trace == TraceId::NONE {
                continue;
            }
            let seq = state.seq;
            state.seq += 1;
            let max_records = self.config.max_records_per_trace;
            let pending = state
                .pending
                .entry(r.trace.0)
                .or_insert_with(|| PendingTrace {
                    records: Vec::new(),
                    open: Vec::new(),
                    saw_span: false,
                    seq,
                });
            if pending.records.len() < max_records {
                pending.records.push(ExportedRecord::from_record(r));
            }
            match r.kind {
                RecordKind::SpanStart => {
                    pending.saw_span = true;
                    pending.open.push(r.span);
                }
                RecordKind::SpanEnd => {
                    pending.saw_span = true;
                    if let Some(pos) = pending.open.iter().rposition(|&s| s == r.span) {
                        pending.open.remove(pos);
                    }
                    if pending.open.is_empty() {
                        closed.push(r.trace.0);
                    }
                }
                RecordKind::Event => {}
            }
        }
        for trace_id in closed {
            let complete = state
                .pending
                .get(&trace_id)
                .is_some_and(|p| p.saw_span && p.open.is_empty());
            if complete {
                self.finalize(&mut state, trace_id);
            }
        }
        while state.pending.len() > MAX_PENDING {
            Self::evict_stalest(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_sink, Span, SpanContext};
    use std::sync::Arc;

    fn run_trace(error: bool, spin: bool) -> TraceId {
        let trace = TraceId::fresh();
        {
            let span = Span::enter(trace, "service.execute");
            if error {
                span.event("service.deadline_exceeded", &[]);
            }
            if spin {
                // Make the root span measurably slower than its peers.
                let start = std::time::Instant::now();
                while start.elapsed().as_micros() < 200 {}
            }
        }
        trace
    }

    #[test]
    fn completed_traces_assemble_with_every_record() {
        let collector = Arc::new(TraceCollector::new(
            TraceCollectorConfig::default()
                .with_slow_quantile(0.0)
                .with_keep_fraction(1.0),
        ));
        let guard = add_sink(collector.clone());
        let trace = TraceId::fresh();
        {
            let root = Span::enter_remote(trace, "service.execute", SpanContext::child_of(99), &[]);
            root.event("service.queue_wait", &[("us", 3)]);
            {
                let inner = Span::enter_current("engine.drive");
                inner.event("engine.round", &[("bins", 4)]);
            }
        }
        drop(guard);
        let traces: Vec<_> = collector
            .take(16)
            .into_iter()
            .filter(|t| t.trace == trace)
            .collect();
        assert_eq!(traces.len(), 1, "one completed trace");
        let t = &traces[0];
        let names: Vec<&str> = t.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "service.execute",
                "service.queue_wait",
                "engine.drive",
                "engine.round",
                "engine.drive",
                "service.execute",
            ]
        );
        assert_eq!(t.records[0].parent, 99, "remote parent survives export");
        assert!(t.duration_ns() > 0);
        assert!(!t.is_error());
    }

    #[test]
    fn error_traces_are_always_kept_and_fraction_applies_to_the_rest() {
        // keep_fraction 0.25, every trace eligible: 100 normals -> 25
        // kept; 10 errors -> 10 kept.
        let collector = Arc::new(TraceCollector::new(
            TraceCollectorConfig::default()
                .with_capacity(512)
                .with_slow_quantile(0.0)
                .with_keep_fraction(0.25),
        ));
        let guard = add_sink(collector.clone());
        let mut mine: Vec<TraceId> = Vec::new();
        for i in 0..110 {
            mine.push(run_trace(i % 11 == 10, false));
        }
        drop(guard);
        let mine: std::collections::HashSet<u64> = mine.iter().map(|t| t.0).collect();
        let kept: Vec<_> = collector
            .take(1024)
            .into_iter()
            .filter(|t| mine.contains(&t.trace.0))
            .collect();
        let errors = kept.iter().filter(|t| t.is_error()).count();
        let normal = kept.len() - errors;
        assert_eq!(errors, 10, "every error trace retained");
        // The deterministic accumulator keeps exactly floor/ceil of
        // fraction * eligible; other tests' traces may interleave, so
        // allow their contribution to shift the phase by a few.
        assert!(
            (20..=30).contains(&normal),
            "expected ~25 of 100 normal traces kept, got {normal}"
        );
    }

    #[test]
    fn anomaly_field_marks_a_trace_as_error() {
        let collector = Arc::new(TraceCollector::new(
            TraceCollectorConfig::default()
                .with_slow_quantile(0.0)
                .with_keep_fraction(0.0),
        ));
        let guard = add_sink(collector.clone());
        let trace = TraceId::fresh();
        {
            let span = Span::enter(trace, "service.execute");
            span.event("engine.verdict", &[("answer", 1), ("anomalies", 2)]);
        }
        let clean = run_trace(false, false);
        drop(guard);
        let kept = collector.take(64);
        assert!(
            kept.iter().any(|t| t.trace == trace),
            "anomalous trace must be kept even at fraction 0"
        );
        assert!(
            !kept.iter().any(|t| t.trace == clean),
            "clean trace must be dropped at fraction 0"
        );
    }

    #[test]
    fn bounded_ring_evicts_oldest() {
        let collector = Arc::new(TraceCollector::new(
            TraceCollectorConfig::default()
                .with_capacity(4)
                .with_slow_quantile(0.0)
                .with_keep_fraction(1.0),
        ));
        let guard = add_sink(collector.clone());
        let traces: Vec<TraceId> = (0..10).map(|_| run_trace(false, false)).collect();
        drop(guard);
        let kept = collector.take(64);
        assert!(
            kept.len() <= 4,
            "ring capacity enforced, got {}",
            kept.len()
        );
        // The newest of ours survive, the oldest fell out.
        assert!(kept.iter().any(|t| t.trace == traces[9]));
        let stats = collector.stats();
        assert!(stats.evicted >= 6, "evictions counted: {stats:?}");
    }

    #[test]
    fn slow_quantile_keeps_the_slow_tail() {
        let collector = Arc::new(TraceCollector::new(
            TraceCollectorConfig::default()
                .with_capacity(512)
                .with_slow_quantile(0.95)
                .with_keep_fraction(1.0),
        ));
        let guard = add_sink(collector.clone());
        // Warm up the duration window with fast traces, then one slow.
        let fast: Vec<TraceId> = (0..64).map(|_| run_trace(false, false)).collect();
        let slow = run_trace(false, true);
        drop(guard);
        let kept = collector.take(1024);
        assert!(
            kept.iter().any(|t| t.trace == slow),
            "the slow-percentile trace must be kept"
        );
        let fast_kept = kept.iter().filter(|t| fast.contains(&t.trace)).count();
        assert!(
            fast_kept < fast.len() / 2,
            "most fast traces must be dropped past warmup, kept {fast_kept}/{}",
            fast.len()
        );
    }
}
