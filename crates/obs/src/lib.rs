#![warn(missing_docs)]

//! # tcast-obs — structured tracing for the tcast suite
//!
//! A deliberately small tracing layer shared by every tier of the stack
//! (engine, service, wire protocol, sharded client). Three ideas:
//!
//! * **Zero-alloc hot path.** A [`Record`] is a fixed-size `Copy` struct
//!   (static name, up to [`MAX_FIELDS`] integer fields). When no sink is
//!   installed, [`Span::enter`] and [`event`] cost one relaxed atomic
//!   load and a branch — nothing else runs.
//! * **Per-thread ring-buffer collection.** Enabled records are written
//!   into a fixed-capacity thread-local ring that is only ever touched
//!   by its owning thread — no locks and no atomics on the record path.
//!   The ring drains to the installed sinks when a root span closes,
//!   when it fills, or on an explicit [`flush`].
//! * **Pluggable sinks.** [`MemorySink`] for tests, [`JsonlSink`] for
//!   offline analysis, and the implicit no-op default when nothing is
//!   installed. Sinks are installed process-wide with [`add_sink`] and
//!   removed when the returned [`SinkGuard`] drops, so concurrent tests
//!   can each install a sink and filter by [`TraceId`].
//!
//! Correlation works through a thread-local *current trace*: a root
//! [`Span`] (or a [`ScopedTrace`] guard) sets it, nested spans and
//! events inherit it, and the service/net layers re-establish it on the
//! far side of a queue or socket from the `TraceId` carried in the job.
//!
//! ```
//! use std::sync::Arc;
//! use tcast_obs::{add_sink, MemorySink, Span, TraceId};
//!
//! let sink = Arc::new(MemorySink::new());
//! let _guard = add_sink(sink.clone());
//! let trace = TraceId::fresh();
//! {
//!     let span = Span::enter(trace, "query");
//!     span.event("round", &[("bins", 4), ("eliminated", 3)]);
//! }
//! tcast_obs::flush();
//! assert_eq!(sink.for_trace(trace).len(), 3); // start + event + end
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as IoWrite};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod export;
pub mod slo;

pub use export::{ExportedRecord, ExportedTrace, TraceCollector, TraceCollectorConfig};
pub use slo::{Objective, SloSignal, SloStatus, SloTracker};

/// Maximum number of `(name, value)` fields a single [`Record`] carries.
pub const MAX_FIELDS: usize = 8;

/// Capacity (in records) of each thread's ring buffer.
pub const RING_CAPACITY: usize = 512;

// ---------------------------------------------------------------------------
// TraceId
// ---------------------------------------------------------------------------

/// A 64-bit identifier correlating every span and event of one query as
/// it crosses threads, queues, and the wire.
///
/// `TraceId::NONE` (zero) means "untraced"; it is what untagged jobs
/// carry and what [`current_trace`] returns outside any traced scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace id. Spans and events still record under it, but
    /// nothing can be correlated to it across tiers.
    pub const NONE: TraceId = TraceId(0);

    /// Allocate a fresh process-unique trace id (never [`Self::NONE`]).
    ///
    /// Ids mix a process-wide counter with a fixed multiplier so that
    /// consecutive ids are far apart — handy when eyeballing JSONL.
    pub fn fresh() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TraceId(n.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// `true` when this is a real (non-[`Self::NONE`]) id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Propagated span context: the caller-side parent span id plus the
/// head-sampling decision, carried next to the [`TraceId`] when a job
/// crosses a queue or the wire.
///
/// `parent == 0` means "no remote parent" — the receiving tier's root
/// span stays a tree root. `sampled == false` is the head-sampling
/// opt-out: the sender decided this job should not be traced downstream,
/// so receivers skip span creation entirely (the zero-alloc no-op path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Span id of the sender-side span this work nests under (0 = none).
    pub parent: u64,
    /// Whether downstream tiers should record spans for this work.
    pub sampled: bool,
}

impl SpanContext {
    /// The absent context: no remote parent, tracing allowed. This is
    /// what jobs carry by default, so behavior without a propagating
    /// front-end is unchanged.
    pub const NONE: SpanContext = SpanContext {
        parent: 0,
        sampled: true,
    };

    /// A context nesting downstream spans under `parent`.
    pub fn child_of(parent: u64) -> SpanContext {
        SpanContext {
            parent,
            sampled: true,
        }
    }

    /// `true` when a remote parent span is present.
    pub fn has_parent(self) -> bool {
        self.parent != 0
    }
}

impl Default for SpanContext {
    fn default() -> Self {
        SpanContext::NONE
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span was entered.
    SpanStart,
    /// A span was closed; `dur_ns` holds its wall-clock duration.
    SpanEnd,
    /// A point-in-time event inside (or outside) a span.
    Event,
}

impl RecordKind {
    /// Stable lowercase name used by the JSONL sink.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
        }
    }
}

/// One fixed-size trace record. `Copy`, no heap pointers: names are
/// `&'static str` and fields are a bounded inline array, so pushing a
/// record into the thread ring never allocates.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Trace this record belongs to ([`TraceId::NONE`] if untraced).
    pub trace: TraceId,
    /// Id of the span this record describes (for span records) or the
    /// enclosing span (for events; 0 when emitted outside any span).
    pub span: u64,
    /// Id of the enclosing span at emission time (0 at the root).
    pub parent: u64,
    /// Static name, e.g. `"engine.drive"` or `"engine.round"`.
    pub name: &'static str,
    /// Record kind.
    pub kind: RecordKind,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
    /// Span duration in nanoseconds (only meaningful on `SpanEnd`).
    pub dur_ns: u64,
    /// Inline `(name, value)` payload; only `..n_fields` are valid.
    pub fields: [(&'static str, u64); MAX_FIELDS],
    /// Number of valid entries in `fields`.
    pub n_fields: u8,
}

impl Record {
    /// The valid prefix of [`Record::fields`].
    pub fn fields(&self) -> &[(&'static str, u64)] {
        &self.fields[..self.n_fields as usize]
    }

    /// Look up a field value by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn blank() -> Record {
        Record {
            trace: TraceId::NONE,
            span: 0,
            parent: 0,
            name: "",
            kind: RecordKind::Event,
            t_ns: 0,
            dur_ns: 0,
            fields: [("", 0); MAX_FIELDS],
            n_fields: 0,
        }
    }

    fn pack(fields: &[(&'static str, u64)]) -> ([(&'static str, u64); MAX_FIELDS], u8) {
        let mut packed = [("", 0u64); MAX_FIELDS];
        let n = fields.len().min(MAX_FIELDS);
        packed[..n].copy_from_slice(&fields[..n]);
        (packed, n as u8)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for drained trace records.
///
/// `consume` is called with batches drained from per-thread rings; it
/// must not emit spans or events itself (records produced inside a sink
/// would recurse into the drain path).
pub trait TraceSink: Send + Sync {
    /// Accept a batch of records drained from one thread's ring.
    fn consume(&self, records: &[Record]);
    /// Flush any buffered output (e.g. to disk). Default: no-op.
    fn flush(&self) {}
}

/// Test sink: retains every record in memory.
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of every record consumed so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().unwrap().clone()
    }

    /// Records belonging to `trace`, in consumption order.
    pub fn for_trace(&self, trace: TraceId) -> Vec<Record> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.trace == trace)
            .copied()
            .collect()
    }

    /// Remove and return everything consumed so far.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().unwrap())
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// `true` when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn consume(&self, records: &[Record]) {
        self.records.lock().unwrap().extend_from_slice(records);
    }
}

/// Sink writing one JSON object per record, newline-delimited.
///
/// The schema is flat and stable:
/// `{"t_ns":..,"kind":"span_start","name":"..","trace":"%016x",`
/// `"span":..,"parent":..,"dur_ns":..,"fields":{"bins":4,..}}`
/// (`dur_ns` only on `span_end`, `fields` only when non-empty).
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) `path` and return a sink writing to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    fn render(r: &Record, line: &mut String) {
        use std::fmt::Write as FmtWrite;
        line.clear();
        let _ = write!(
            line,
            "{{\"t_ns\":{},\"kind\":\"{}\",\"name\":\"{}\",\"trace\":\"{}\",\"span\":{},\"parent\":{}",
            r.t_ns,
            r.kind.name(),
            r.name,
            r.trace,
            r.span,
            r.parent
        );
        if r.kind == RecordKind::SpanEnd {
            let _ = write!(line, ",\"dur_ns\":{}", r.dur_ns);
        }
        if r.n_fields > 0 {
            let _ = write!(line, ",\"fields\":{{");
            for (i, (name, value)) in r.fields().iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(line, "{sep}\"{name}\":{value}");
            }
            let _ = write!(line, "}}");
        }
        line.push('}');
        line.push('\n');
    }
}

impl TraceSink for JsonlSink {
    fn consume(&self, records: &[Record]) {
        let mut out = self.out.lock().unwrap();
        let mut line = String::with_capacity(160);
        for r in records {
            Self::render(r, &mut line);
            let _ = out.write_all(line.as_bytes());
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

// ---------------------------------------------------------------------------
// Global sink registry + per-thread ring
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

struct SinkEntry {
    id: u64,
    sink: std::sync::Arc<dyn TraceSink>,
}

fn sinks() -> &'static Mutex<Vec<SinkEntry>> {
    static SINKS: OnceLock<Mutex<Vec<SinkEntry>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Removes its sink from the registry when dropped.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub struct SinkGuard {
    id: u64,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut entries = sinks().lock().unwrap();
        entries.retain(|e| e.id != self.id);
        ENABLED.store(!entries.is_empty(), Ordering::Release);
    }
}

/// Install `sink` process-wide. Recording is enabled while at least one
/// sink is installed; every installed sink sees every drained record
/// (filter by [`TraceId`] when tests run concurrently).
pub fn add_sink(sink: std::sync::Arc<dyn TraceSink>) -> SinkGuard {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut entries = sinks().lock().unwrap();
    entries.push(SinkEntry { id, sink });
    ENABLED.store(true, Ordering::Release);
    SinkGuard { id }
}

/// `true` while at least one sink is installed. The no-op fast path:
/// every record site checks this first and does nothing else when false.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Fixed-capacity record buffer owned by one thread. The owning thread
/// is the only writer *and* the only drainer, so pushes are plain
/// stores — the cross-thread handoff happens inside the sinks.
struct Ring {
    slots: Vec<Record>,
    len: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: vec![Record::blank(); RING_CAPACITY],
            len: 0,
        }
    }

    fn push(&mut self, r: Record) {
        if self.len == RING_CAPACITY {
            self.drain();
        }
        self.slots[self.len] = r;
        self.len += 1;
    }

    fn drain(&mut self) {
        if self.len == 0 {
            return;
        }
        let batch = &self.slots[..self.len];
        for entry in sinks().lock().unwrap().iter() {
            entry.sink.consume(batch);
        }
        self.len = 0;
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
    static CURRENT_TRACE: Cell<TraceId> = const { Cell::new(TraceId::NONE) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn record(r: Record) {
    RING.with(|ring| ring.borrow_mut().push(r));
    // Outside any span there is no root-span close to trigger a drain,
    // so hand loose records to the sinks immediately.
    if SPAN_DEPTH.with(|d| d.get()) == 0 {
        RING.with(|ring| ring.borrow_mut().drain());
    }
}

/// Drain the calling thread's ring into the installed sinks and flush
/// them. Records buffered in *other* threads' rings stay put until
/// those threads close a root span or call `flush` themselves.
pub fn flush() {
    RING.with(|ring| ring.borrow_mut().drain());
    for entry in sinks().lock().unwrap().iter() {
        entry.sink.flush();
    }
}

// ---------------------------------------------------------------------------
// Current-trace propagation
// ---------------------------------------------------------------------------

/// The calling thread's current trace id ([`TraceId::NONE`] outside any
/// traced scope). Layers that cannot thread a `TraceId` argument through
/// their signatures (e.g. the engine behind the `ThresholdQuerier`
/// trait) read this instead.
pub fn current_trace() -> TraceId {
    CURRENT_TRACE.with(|t| t.get())
}

/// Guard restoring the previous current trace on drop.
#[must_use = "dropping the guard immediately restores the previous trace"]
pub struct ScopedTrace {
    prev: TraceId,
}

impl Drop for ScopedTrace {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|t| t.set(self.prev));
    }
}

/// Make `trace` the calling thread's current trace until the returned
/// guard drops. Used on the far side of a queue or socket to re-enter
/// the trace carried by a job.
pub fn scoped_trace(trace: TraceId) -> ScopedTrace {
    let prev = CURRENT_TRACE.with(|t| t.replace(trace));
    ScopedTrace { prev }
}

/// Guard restoring the previous current span and trace on drop.
#[must_use = "dropping the guard immediately restores the previous span and trace"]
pub struct Detached {
    span: u64,
    trace: TraceId,
}

impl Drop for Detached {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|s| s.set(self.span));
        CURRENT_TRACE.with(|t| t.set(self.trace));
    }
}

/// Clear the calling thread's current span and trace until the returned
/// guard drops. A thread that runs another caller's work while inside a
/// span of its own uses it, so that the work's spans are local roots
/// (parented by their propagated context, see [`Span::enter_remote`])
/// instead of nesting under the unrelated enclosing span.
pub fn detached() -> Detached {
    Detached {
        span: CURRENT_SPAN.with(|s| s.replace(0)),
        trace: CURRENT_TRACE.with(|t| t.replace(TraceId::NONE)),
    }
}

// ---------------------------------------------------------------------------
// Spans + events
// ---------------------------------------------------------------------------

/// A timed region of one trace. Entering records `span_start`; dropping
/// records `span_end` with the measured duration. While the span is
/// alive it is the thread's current span (events nest under it) and its
/// trace is the thread's current trace.
///
/// Spans must drop in LIFO order on their owning thread — the ordinary
/// guard-in-a-scope usage guarantees this.
pub struct Span {
    trace: TraceId,
    id: u64,
    /// Parent recorded on the span records: the enclosing local span, or
    /// a propagated remote parent when this span is a local root entered
    /// via [`Span::enter_remote`].
    parent: u64,
    /// The enclosing *local* span at entry time — what `CURRENT_SPAN`
    /// restores to on drop, and what decides the root-close ring drain.
    /// Equal to `parent` except for remote-parented local roots.
    local_parent: u64,
    prev_trace: TraceId,
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl Span {
    fn inert(trace: TraceId, name: &'static str) -> Span {
        Span {
            trace,
            id: 0,
            parent: 0,
            local_parent: 0,
            prev_trace: trace,
            name,
            start_ns: 0,
            active: false,
        }
    }

    /// Enter a span of `trace` named `name`. When recording is disabled
    /// this returns an inert guard and records nothing, now or at drop.
    pub fn enter(trace: TraceId, name: &'static str) -> Span {
        if !enabled() {
            return Span::inert(trace, name);
        }
        Span::enter_fields(trace, name, &[])
    }

    /// Like [`Span::enter`] with initial fields on the `span_start`
    /// record.
    pub fn enter_fields(
        trace: TraceId,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) -> Span {
        Span::enter_inner(trace, name, 0, fields)
    }

    /// Like [`Span::enter_fields`], but when this span is a *local* root
    /// (no enclosing span on this thread) its recorded parent becomes
    /// `remote.parent` — the span id propagated from another thread,
    /// process, or host — so cross-tier trees stitch together. Nested
    /// use falls back to the enclosing local span, and `remote.sampled
    /// == false` returns an inert guard (the head-sampling opt-out).
    pub fn enter_remote(
        trace: TraceId,
        name: &'static str,
        remote: SpanContext,
        fields: &[(&'static str, u64)],
    ) -> Span {
        if !remote.sampled {
            return Span::inert(trace, name);
        }
        Span::enter_inner(trace, name, remote.parent, fields)
    }

    fn enter_inner(
        trace: TraceId,
        name: &'static str,
        remote_parent: u64,
        fields: &[(&'static str, u64)],
    ) -> Span {
        if !enabled() {
            return Span::inert(trace, name);
        }
        let id = next_span_id();
        let local_parent = CURRENT_SPAN.with(|s| s.replace(id));
        let parent = if local_parent == 0 {
            remote_parent
        } else {
            local_parent
        };
        let prev_trace = CURRENT_TRACE.with(|t| t.replace(trace));
        SPAN_DEPTH.with(|d| d.set(d.get() + 1));
        let start_ns = now_ns();
        let (packed, n_fields) = Record::pack(fields);
        record(Record {
            trace,
            span: id,
            parent,
            name,
            kind: RecordKind::SpanStart,
            t_ns: start_ns,
            dur_ns: 0,
            fields: packed,
            n_fields,
        });
        Span {
            trace,
            id,
            parent,
            local_parent,
            prev_trace,
            name,
            start_ns,
            active: true,
        }
    }

    /// Enter a span of the calling thread's [`current_trace`].
    pub fn enter_current(name: &'static str) -> Span {
        Span::enter(current_trace(), name)
    }

    /// Record an event nested in this span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if !self.active {
            return;
        }
        let (packed, n_fields) = Record::pack(fields);
        record(Record {
            trace: self.trace,
            span: self.id,
            parent: self.id,
            name,
            kind: RecordKind::Event,
            t_ns: now_ns(),
            dur_ns: 0,
            fields: packed,
            n_fields,
        });
    }

    /// This span's trace id.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's id (0 on an inert span). Senders put it in a
    /// [`SpanContext`] so downstream tiers can nest under this span.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The [`SpanContext`] downstream work should carry to nest under
    /// this span. On an inert span (recording disabled) the context is
    /// unsampled, propagating the head-sampling decision.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            parent: self.id,
            sampled: self.active,
        }
    }

    /// `true` when the span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        record(Record {
            trace: self.trace,
            span: self.id,
            parent: self.parent,
            name: self.name,
            kind: RecordKind::SpanEnd,
            t_ns: end_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            fields: [("", 0); MAX_FIELDS],
            n_fields: 0,
        });
        CURRENT_SPAN.with(|s| s.set(self.local_parent));
        CURRENT_TRACE.with(|t| t.set(self.prev_trace));
        SPAN_DEPTH.with(|d| d.set(d.get() - 1));
        // Local-root close = one query's records are complete on this
        // thread; hand them to the sinks as a batch. A remote parent does
        // not change this: the span is still the local root.
        if self.local_parent == 0 {
            RING.with(|ring| ring.borrow_mut().drain());
        }
    }
}

/// Record a standalone event under `trace` (nested in the thread's
/// current span, if any). No-op while recording is disabled.
pub fn event(trace: TraceId, name: &'static str, fields: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let span = CURRENT_SPAN.with(|s| s.get());
    let (packed, n_fields) = Record::pack(fields);
    record(Record {
        trace,
        span,
        parent: span,
        name,
        kind: RecordKind::Event,
        t_ns: now_ns(),
        dur_ns: 0,
        fields: packed,
        n_fields,
    });
}

/// Record a standalone event under the thread's [`current_trace`].
pub fn event_current(name: &'static str, fields: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    event(current_trace(), name, fields);
}

// ---------------------------------------------------------------------------
// Trace analysis helpers (shared by tests, examples, and the CLI)
// ---------------------------------------------------------------------------

/// Check span nesting of `records` (one trace, one thread, in emission
/// order): every `span_end` must close the innermost open span, parents
/// must match the enclosing span at emission time, and no span may stay
/// open. Returns a description of the first violation.
///
/// A `span_start` with no open local span may carry *any* parent: local
/// roots entered via [`Span::enter_remote`] record the span id
/// propagated from another tier, which is invisible to this
/// single-thread checker.
pub fn check_nesting(records: &[Record]) -> Result<(), String> {
    let mut stack: Vec<u64> = Vec::new();
    for r in records {
        let top = stack.last().copied().unwrap_or(0);
        match r.kind {
            RecordKind::SpanStart => {
                if r.parent != top && top != 0 {
                    return Err(format!(
                        "span_start {} has parent {} but enclosing span is {top}",
                        r.name, r.parent
                    ));
                }
                stack.push(r.span);
            }
            RecordKind::SpanEnd => {
                if top != r.span {
                    return Err(format!(
                        "span_end {} closes {} but innermost open span is {top}",
                        r.name, r.span
                    ));
                }
                stack.pop();
            }
            RecordKind::Event => {
                if r.span != top {
                    return Err(format!(
                        "event {} attached to span {} but innermost open span is {top}",
                        r.name, r.span
                    ));
                }
            }
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span {open} never closed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_records_nothing() {
        // No sink installed by *this* test; other tests may race, so
        // assert on the inert span shape instead of the global flag.
        let span = Span::inert(TraceId::NONE, "x");
        assert!(!span.is_recording());
        span.event("ignored", &[("a", 1)]);
    }

    #[test]
    fn fresh_trace_ids_are_unique_and_nonzero() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert_ne!(a, b);
        assert!(a.is_some() && b.is_some());
    }

    #[test]
    fn span_event_span_roundtrip_reaches_sink() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        {
            let outer = Span::enter(trace, "outer");
            outer.event("tick", &[("n", 7)]);
            {
                let inner = Span::enter_current("inner");
                inner.event("tock", &[]);
            }
        }
        flush();
        let records = sink.for_trace(trace);
        let names: Vec<_> = records.iter().map(|r| (r.kind, r.name)).collect();
        assert_eq!(
            names,
            vec![
                (RecordKind::SpanStart, "outer"),
                (RecordKind::Event, "tick"),
                (RecordKind::SpanStart, "inner"),
                (RecordKind::Event, "tock"),
                (RecordKind::SpanEnd, "inner"),
                (RecordKind::SpanEnd, "outer"),
            ]
        );
        assert_eq!(records[1].field("n"), Some(7));
        check_nesting(&records).unwrap();
        // Inner nests under outer; outer is a root.
        assert_eq!(records[2].parent, records[0].span);
        assert_eq!(records[0].parent, 0);
        let end = records.last().unwrap();
        assert!(end.dur_ns > 0, "span duration should be measured");
        drop(guard);
    }

    #[test]
    fn scoped_trace_restores_previous() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let outer = TraceId::fresh();
        let inner = TraceId::fresh();
        let _o = scoped_trace(outer);
        {
            let _i = scoped_trace(inner);
            assert_eq!(current_trace(), inner);
            event_current("in", &[]);
        }
        assert_eq!(current_trace(), outer);
        flush();
        assert_eq!(sink.for_trace(inner).len(), 1);
        drop(guard);
    }

    #[test]
    fn ring_overflow_drains_instead_of_dropping() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        {
            let span = Span::enter(trace, "big");
            for i in 0..(RING_CAPACITY as u64 * 2) {
                span.event("e", &[("i", i)]);
            }
        }
        flush();
        // start + 2*CAP events + end, nothing lost to overflow.
        assert_eq!(sink.for_trace(trace).len(), RING_CAPACITY * 2 + 2);
        drop(guard);
    }

    #[test]
    fn sink_guard_uninstalls() {
        let sink = Arc::new(MemorySink::new());
        let trace = TraceId::fresh();
        {
            let _guard = add_sink(sink.clone());
            event(trace, "while-installed", &[]);
            flush();
        }
        event(trace, "after-uninstall", &[]);
        flush();
        let records = sink.for_trace(trace);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "while-installed");
    }

    #[test]
    fn field_overflow_truncates_safely() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        let many: Vec<(&'static str, u64)> = (0..MAX_FIELDS as u64 + 4).map(|i| ("f", i)).collect();
        event(trace, "wide", &many);
        flush();
        let records = sink.for_trace(trace);
        assert_eq!(records[0].fields().len(), MAX_FIELDS);
        drop(guard);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("tcast-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let trace = TraceId::fresh();
        {
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let guard = add_sink(sink.clone());
            {
                let span = Span::enter(trace, "q");
                span.event("round", &[("bins", 4), ("retries", 1)]);
            }
            flush();
            drop(guard);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mine: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(&format!("\"{trace}\"")))
            .collect();
        assert_eq!(mine.len(), 3);
        for line in &mine {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not an object: {line}"
            );
        }
        assert!(mine[1].contains("\"fields\":{\"bins\":4,\"retries\":1}"));
        assert!(mine[2].contains("\"dur_ns\":"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn remote_parent_stitches_local_root_and_still_drains() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        let remote_parent = 0xdead_beef_u64;
        {
            let root = Span::enter_remote(
                trace,
                "remote-root",
                SpanContext::child_of(remote_parent),
                &[],
            );
            assert!(root.is_recording());
            {
                let inner = Span::enter_current("inner");
                // Nested spans parent on the local enclosing span, not
                // the remote context.
                drop(inner);
            }
        }
        // The root close must have drained the ring (no explicit flush).
        let records = sink.for_trace(trace);
        assert_eq!(records.len(), 4);
        assert_eq!(
            records[0].parent, remote_parent,
            "local root records the remote parent"
        );
        assert_eq!(records[1].parent, records[0].span, "inner nests locally");
        check_nesting(&records).expect("remote-parented roots pass nesting checks");
        drop(guard);
    }

    #[test]
    fn detached_spans_are_local_roots_and_the_context_comes_back() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let outer_trace = TraceId::fresh();
        let trace = TraceId::fresh();
        let remote_parent = 0xfeed_u64;
        {
            let outer = Span::enter(outer_trace, "outer");
            {
                let _detached = detached();
                assert_eq!(current_trace(), TraceId::NONE);
                let root =
                    Span::enter_remote(trace, "work", SpanContext::child_of(remote_parent), &[]);
                assert!(root.is_recording());
            }
            assert_eq!(current_trace(), outer_trace);
            let nested = Span::enter_current("after");
            assert_eq!(nested.trace(), outer_trace);
            drop(nested);
            drop(outer);
        }
        let work = sink.for_trace(trace);
        assert_eq!(work.len(), 2);
        assert_eq!(work[0].parent, remote_parent, "not the enclosing span");
        check_nesting(&work).expect("the detached tree nests");
        let outer = sink.for_trace(outer_trace);
        assert_eq!(outer[1].parent, outer[0].span, "the enclosing span resumes");
        check_nesting(&outer).expect("the enclosing tree nests");
        drop(guard);
    }

    #[test]
    fn unsampled_remote_context_records_nothing() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        let ctx = SpanContext {
            parent: 7,
            sampled: false,
        };
        {
            let span = Span::enter_remote(trace, "skipped", ctx, &[]);
            assert!(!span.is_recording());
            span.event("ignored", &[]);
        }
        flush();
        assert!(sink.for_trace(trace).is_empty());
        drop(guard);
    }

    #[test]
    fn span_context_round_trips_through_span() {
        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        let span = Span::enter(trace, "parent");
        let ctx = span.context();
        assert!(ctx.sampled);
        assert_eq!(ctx.parent, span.id());
        assert!(ctx.has_parent());
        drop(span);
        drop(guard);
        assert_eq!(SpanContext::default(), SpanContext::NONE);
        assert!(!SpanContext::NONE.has_parent());
    }

    #[test]
    fn check_nesting_flags_violations() {
        let trace = TraceId::fresh();
        let mut start = Record::blank();
        start.trace = trace;
        start.kind = RecordKind::SpanStart;
        start.span = 10;
        start.name = "a";
        // Unclosed span.
        assert!(check_nesting(&[start]).is_err());
        // Mismatched close.
        let mut end = Record::blank();
        end.trace = trace;
        end.kind = RecordKind::SpanEnd;
        end.span = 11;
        end.name = "b";
        assert!(check_nesting(&[start, end]).is_err());
        // Proper close passes.
        end.span = 10;
        assert!(check_nesting(&[start, end]).is_ok());
    }
}
