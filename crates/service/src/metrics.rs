//! Built-in service metrics.
//!
//! Every job metric of a label is one [`MetricsRow`], updated in place
//! under its shard's one lock; every tenant's is one [`TenantMetricsRow`]
//! under the tenant map's lock. Only the connection counters are
//! lock-free atomics ([`NetCounters`]), because I/O threads bump them
//! with no lock held. Job rows are keyed by the job's metrics label (the
//! algorithm name for query jobs, the caller-chosen label for custom
//! tasks) and can be dumped as CSV or markdown via [`MetricsSnapshot`],
//! both rendered from one column table per section, or as typed metric
//! [`Family`]s — the one model the Prometheus exposition, the metrics
//! wire frame, and every remote reader share.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use tcast_obs::SloStatus;
use tcast_stats::{Histogram, Summary};

use Cell::{Count, Key, Num};
use MetricKind::{Counter, Gauge};
use MetricValue::{Int, Ratio};

use crate::job::{JobError, JobOutput, JobResult};

/// Latency histogram range: `[0, 100ms)` in 50 bins of 2ms. Slower jobs
/// land in the overflow counter, so no sample is ever lost.
const LATENCY_HI_US: f64 = 100_000.0;
const LATENCY_BINS: usize = 50;

/// Query-count histogram range: `[0, 2048)` queries in 64 bins of 32.
const QUERIES_HI: f64 = 2048.0;
const QUERIES_BINS: usize = 64;

/// Retry-overhead histogram range: `[0, 256)` retry queries in 32 bins
/// of 8. Sessions run with `RetryPolicy::none()` all land in the first
/// bin, so the histogram doubles as a "did retries happen at all" check.
const RETRIES_HI: f64 = 256.0;
const RETRIES_BINS: usize = 32;

/// Batch-size histogram range: `[0, 128)` jobs per worker dequeue batch
/// in 64 bins of 2.
const BATCH_HI: f64 = 128.0;
const BATCH_BINS: usize = 64;

/// Number of counter shards in a [`MetricsRegistry`].
///
/// Each worker thread is pinned (round-robin) to one shard and records
/// into that shard's own rows under the shard's one lock, so concurrent
/// workers never contend on a shared lock or cache line in `record`.
/// Shards are folded back together at snapshot time. Sixteen shards
/// cover typical worker counts; beyond that, threads share shards and
/// still only pay intra-shard contention.
const METRICS_SHARDS: usize = 16;

/// One counter shard: a private row per label plus service-wide
/// distributions, all behind the shard's one lock, so the owning threads
/// never contend with other shards' threads. The distributions are made
/// on the shard's first sample, so a registry costs no histograms for
/// shards no thread records into.
#[derive(Default)]
struct Shard {
    rows: BTreeMap<String, MetricsRow>,
    service: Option<ServiceDists>,
}

/// The value under `key` in `map`, made by `make(key)` on first use. A
/// hit looks the key up as `&str`, so it allocates nothing.
fn get_or_insert<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    key: &str,
    make: impl FnOnce(&str) -> V,
) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), make(key));
    }
    map.get_mut(key).expect("inserted above")
}

/// Round-robin shard assignment, fixed per thread on first use.
fn current_shard() -> usize {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static SHARD: usize =
            (NEXT.fetch_add(1, Ordering::Relaxed) as usize) % METRICS_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Live connection-level counters for one network peer, registered by the
/// `tcast-net` front-end so socket activity lands in the same registry —
/// and the same CSV/markdown dumps — as the per-algorithm job metrics.
///
/// Unlike the job and tenant rows, which are updated under a lock, all
/// fields are relaxed atomics: I/O threads bump them on the hot path with
/// no lock held, through the handle [`MetricsRegistry::net_counters`]
/// returns.
#[derive(Default)]
pub struct NetCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    decode_errors: AtomicU64,
    busy_rejections: AtomicU64,
    auth_failures: AtomicU64,
    reconnects: AtomicU64,
    accept_errors: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    io_threads: AtomicU64,
}

impl NetCounters {
    /// Records one decoded inbound frame of `bytes` total wire bytes.
    pub fn frame_in(&self, bytes: u64) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one written outbound frame of `bytes` total wire bytes.
    pub fn frame_out(&self, bytes: u64) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one inbound frame that failed to decode.
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request rejected with a `Busy` error frame.
    pub fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed Auth handshake (wrong key, replayed nonce,
    /// truncated Auth frame, or a submit on a connection that never
    /// authenticated). Every rejection path increments exactly once, so
    /// auth probing is visible in every dump format.
    pub fn auth_failure(&self) {
        self.auth_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transport reconnect under this label and returns the
    /// new connection generation.
    ///
    /// A pooled client keeps one `NetCounters` handle per logical slot and
    /// folds every physical connection's traffic into it; without this
    /// tag, counts from successive connections merge silently. The running
    /// reconnect total doubles as the generation of the currently live
    /// connection (0 = the initial dial), so dumps can state how many
    /// physical connections a label's counters span.
    pub fn reconnect(&self) -> u64 {
        self.reconnects.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Generation of the currently live connection: 0 for the initial
    /// dial, bumped by every [`reconnect`](Self::reconnect).
    pub fn generation(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Records one failed `accept(2)` call on a server listener.
    ///
    /// Accept failures (most importantly `EMFILE`/`ENFILE` during a
    /// connection flood) used to be swallowed silently; this counter
    /// makes fd exhaustion visible in every dump format.
    pub fn accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection a server registered with one of its I/O
    /// threads (the `net/io-K` row of the thread that owns it).
    pub fn conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one server connection fully closed. Together with
    /// [`conn_opened`](Self::conn_opened) this yields the open-connection
    /// gauge (`opened - closed`).
    pub fn conn_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently open connections recorded on this label.
    pub fn open_connections(&self) -> u64 {
        self.conns_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }

    /// Sets the I/O-thread-count gauge (a server records the size of its
    /// reactor pool here once at bind time).
    pub fn set_io_threads(&self, n: u64) {
        self.io_threads.store(n, Ordering::Relaxed);
    }

    fn snapshot(&self, label: &str) -> NetMetricsRow {
        NetMetricsRow {
            label: label.to_string(),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            reconnects_total: self.reconnects.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            io_threads: self.io_threads.load(Ordering::Relaxed),
        }
    }
}

/// Frozen connection counters for one label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMetricsRow {
    /// Connection label (e.g. `net/conn-0`).
    pub label: String,
    /// Frames decoded from the peer.
    pub frames_in: u64,
    /// Frames written to the peer.
    pub frames_out: u64,
    /// Wire bytes received (decoded frames only).
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Inbound frames that failed CRC or payload decoding.
    pub decode_errors: u64,
    /// Requests rejected with a `Busy` error frame (admission backpressure).
    pub busy_rejections: u64,
    /// Failed Auth handshakes on this label (wrong key, replayed nonce,
    /// truncated Auth frame, or submit-before-auth). Always 0 when the
    /// server runs without a tenant registry.
    pub auth_failures: u64,
    /// Transport reconnects folded into this label; the counters above
    /// span `reconnects_total + 1` physical connections, and the live
    /// connection's generation equals this value.
    pub reconnects_total: u64,
    /// Failed `accept(2)` calls on a server listener (fd exhaustion,
    /// aborted handshakes). Always 0 on client-side labels.
    pub accept_errors: u64,
    /// Server connections admitted under this label.
    pub conns_opened: u64,
    /// Server connections fully closed under this label.
    pub conns_closed: u64,
    /// Size of the server's reactor pool (0 on client-side labels and on
    /// labels that never set the gauge).
    pub io_threads: u64,
}

impl NetMetricsRow {
    /// Currently open connections: `conns_opened - conns_closed`.
    pub fn open_connections(&self) -> u64 {
        self.conns_opened.saturating_sub(self.conns_closed)
    }
}

/// Frozen per-tenant metrics for one tenant.
///
/// A registry keeps one live row per tenant, made on the tenant's first
/// sight ([`MetricsRegistry::seen_tenant`]), recorded job or quota
/// rejection, so a single-tenant service (no registry attached) never
/// grows a tenant section in any dump.
#[derive(Debug, Clone)]
pub struct TenantMetricsRow {
    /// The tenant's registered (wire-visible) name.
    pub tenant: String,
    /// Jobs completed for this tenant (whatever the outcome).
    pub jobs: u64,
    /// Jobs rejected at admission because the tenant was over quota.
    pub quota_rejections: u64,
    /// Queue wait (submission to execution start) per completed job, in
    /// microseconds.
    pub queue_wait_us: Summary,
    /// Queue-wait distribution, 2ms bins over `[0, 100ms)` with an
    /// overflow counter for slower waits.
    pub queue_wait_hist: Histogram,
}

impl TenantMetricsRow {
    fn new(tenant: &str) -> Self {
        Self {
            tenant: tenant.to_string(),
            jobs: 0,
            quota_rejections: 0,
            queue_wait_us: Summary::new(),
            queue_wait_hist: Histogram::new(0.0, LATENCY_HI_US, LATENCY_BINS),
        }
    }
}

/// Service-global execution-shape distributions: queue wait across every
/// executed query job (all tenants and the default lane folded together)
/// and jobs claimed per worker dequeue batch. Each shard records its own
/// threads' samples; snapshots fold the shards.
struct ServiceDists {
    queue_wait: (Summary, Histogram),
    batch_size: (Summary, Histogram),
}

impl Default for ServiceDists {
    fn default() -> Self {
        Self {
            queue_wait: (
                Summary::new(),
                Histogram::new(0.0, LATENCY_HI_US, LATENCY_BINS),
            ),
            batch_size: (Summary::new(), Histogram::new(0.0, BATCH_HI, BATCH_BINS)),
        }
    }
}

/// Per-label service metrics, shared by all workers.
///
/// The hot path is sharded: each recording thread is pinned to one of
/// a fixed number of internal shards, each holding its own rows under
/// its own lock, so workers never contend with each other in
/// [`MetricsRegistry::record`]. Snapshots fold the shards back into one
/// row per label; totals are exactly what an unsharded registry would
/// have accumulated.
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
    net: Mutex<BTreeMap<String, Arc<NetCounters>>>,
    tenants: Mutex<BTreeMap<String, TenantMetricsRow>>,
    slo: Mutex<Option<Arc<tcast_obs::SloTracker>>>,
    /// Set once a tracker is attached, so [`MetricsRegistry::slo`] skips
    /// the lock on every job of a registry without one. The `Release`
    /// store in `attach_slo` pairs with the `Acquire` load in `slo`; the
    /// tracker itself is read under the `slo` mutex.
    slo_attached: AtomicBool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            shards: (0..METRICS_SHARDS).map(|_| Mutex::default()).collect(),
            net: Mutex::new(BTreeMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
            slo: Mutex::new(None),
            slo_attached: AtomicBool::new(false),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry (the service creates one per pool; benches and
    /// embedding front-ends may hold their own).
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's shard, locked.
    fn shard(&self) -> MutexGuard<'_, Shard> {
        self.shards[current_shard()].lock()
    }

    /// Records one finished job under `label`.
    ///
    /// Failed jobs (panics, expired deadlines) never touch the success
    /// latency summary or histogram: a panic aborts mid-session and an
    /// expired job never ran, so folding their wall-clock into the
    /// success distribution would skew every derived latency statistic.
    /// Their timings are kept apart in `failed_latency_us`.
    pub fn record(&self, label: &str, result: &JobResult, elapsed: Duration) {
        let micros = elapsed.as_secs_f64() * 1e6;
        let failed = result.is_err();
        {
            let mut shard = self.shard();
            let row = get_or_insert(&mut shard.rows, label, MetricsRow::new);
            row.jobs += 1;
            match result {
                Ok(JobOutput::Report(report)) => {
                    row.queries += report.queries;
                    row.retries += report.retry_queries;
                    row.defenses += report.defense_queries;
                    row.anomalies += report.anomalies;
                    row.rounds += u64::from(report.rounds);
                    if report.answer {
                        row.verdict_yes += 1;
                    } else {
                        row.verdict_no += 1;
                    }
                    row.query_summary.record(report.queries as f64);
                    row.query_hist.record(report.queries as f64);
                    row.retry_hist.record(report.retry_queries as f64);
                }
                Ok(_) => {}
                Err(JobError::Panicked(_)) => row.panics += 1,
                Err(JobError::DeadlineExceeded) => row.deadline_exceeded += 1,
                // Quota rejections happen at admission, before a job ever
                // reaches a worker; they are tracked per tenant via
                // `record_quota_rejections`, never through per-job record().
                Err(JobError::QuotaExceeded) => {}
            }
            if failed {
                row.failed_latency_us.record(micros);
            } else {
                row.latency_us.record(micros);
                row.latency_hist.record(micros);
            }
        }
        if let Some(slo) = self.slo() {
            slo.observe_latency(micros, failed);
            if let Ok(JobOutput::Report(report)) = result {
                // Verdict-trust proxy: a session that raised adversary
                // anomalies may carry a manipulated verdict.
                slo.observe(tcast_obs::SloSignal::Verdict, report.anomalies == 0);
            }
        }
    }

    /// Pre-registers `tenant`'s metric series at zero. Called when a
    /// tenant first appears (e.g. on a successful auth handshake), so
    /// its Prometheus series exist — stable, at zero — from the first
    /// scrape after first sight, rather than flickering in and out with
    /// activity.
    pub fn seen_tenant(&self, tenant: &str) {
        get_or_insert(&mut self.tenants.lock(), tenant, TenantMetricsRow::new);
    }

    /// Attaches an SLO tracker: [`record`](Self::record) feeds its
    /// latency and verdict objectives from then on, callers may feed
    /// auth outcomes via [`slo_observe`](Self::slo_observe), and
    /// snapshots carry its per-objective status rows (exported as the
    /// `tcast_slo_*` Prometheus series).
    pub fn attach_slo(&self, tracker: Arc<tcast_obs::SloTracker>) {
        *self.slo.lock() = Some(tracker);
        self.slo_attached.store(true, Ordering::Release);
    }

    /// The attached SLO tracker, if any.
    pub fn slo(&self) -> Option<Arc<tcast_obs::SloTracker>> {
        if !self.slo_attached.load(Ordering::Acquire) {
            return None;
        }
        self.slo.lock().clone()
    }

    /// Feeds one event to the attached SLO tracker; no-op without one.
    pub fn slo_observe(&self, signal: tcast_obs::SloSignal, good: bool) {
        if let Some(slo) = self.slo() {
            slo.observe(signal, good);
        }
    }

    /// Records one completed job for `tenant`, with its queue wait
    /// (submission to execution start).
    pub fn record_tenant_job(&self, tenant: &str, queue_wait: Duration) {
        let micros = queue_wait.as_secs_f64() * 1e6;
        let mut tenants = self.tenants.lock();
        let row = get_or_insert(&mut tenants, tenant, TenantMetricsRow::new);
        row.jobs += 1;
        row.queue_wait_us.record(micros);
        row.queue_wait_hist.record(micros);
    }

    /// Records `n` jobs rejected at admission because `tenant` was over
    /// quota.
    pub fn record_quota_rejections(&self, tenant: &str, n: u64) {
        get_or_insert(&mut self.tenants.lock(), tenant, TenantMetricsRow::new).quota_rejections +=
            n;
    }

    /// Records the queue wait (submission to execution start) of one
    /// executed query job, service-wide.
    ///
    /// Unlike [`record_tenant_job`](Self::record_tenant_job) this covers
    /// every job — tenanted or on the default lane — and feeds the
    /// un-labelled `tcast_queue_wait_microseconds` summary in the
    /// Prometheus exposition, which the `top` dashboard reads per shard.
    pub fn record_queue_wait(&self, queue_wait: Duration) {
        let micros = queue_wait.as_secs_f64() * 1e6;
        let mut shard = self.shard();
        let (summary, hist) = &mut shard
            .service
            .get_or_insert_with(ServiceDists::default)
            .queue_wait;
        summary.record(micros);
        hist.record(micros);
    }

    /// Records the number of jobs one worker claimed in a single dequeue
    /// batch (the batch-native execution path's fan-in shape).
    pub fn record_batch_size(&self, jobs: usize) {
        let mut shard = self.shard();
        let (summary, hist) = &mut shard
            .service
            .get_or_insert_with(ServiceDists::default)
            .batch_size;
        summary.record(jobs as f64);
        hist.record(jobs as f64);
    }

    /// Returns (registering on first use) the live connection counters for
    /// `label`. The returned handle is bumped lock-free by the transport;
    /// snapshots pick the values up under the same label.
    pub fn net_counters(&self, label: &str) -> Arc<NetCounters> {
        get_or_insert(&mut self.net.lock(), label, |_| Arc::default()).clone()
    }

    /// A consistent point-in-time copy of every label's metrics, with the
    /// per-thread shards folded back into one row per label.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let net_rows = {
            let net = self.net.lock();
            net.iter().map(|(label, c)| c.snapshot(label)).collect()
        };
        let tenant_rows = self.tenants.lock().values().cloned().collect();
        let mut svc = ServiceDists::default();
        let mut folded: BTreeMap<String, MetricsRow> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock();
            if let Some(part) = &shard.service {
                svc.queue_wait.0.merge(&part.queue_wait.0);
                svc.queue_wait.1.merge(&part.queue_wait.1);
                svc.batch_size.0.merge(&part.batch_size.0);
                svc.batch_size.1.merge(&part.batch_size.1);
            }
            for (label, part) in &shard.rows {
                match folded.get_mut(label) {
                    Some(row) => row.fold(part),
                    None => {
                        folded.insert(label.clone(), part.clone());
                    }
                }
            }
        }
        MetricsSnapshot {
            rows: folded.into_values().collect(),
            net_rows,
            tenant_rows,
            slo_rows: self.slo().map(|t| t.snapshot()).unwrap_or_default(),
            queue_wait_us: svc.queue_wait.0,
            queue_wait_hist: svc.queue_wait.1,
            batch_size: svc.batch_size.0,
            batch_size_hist: svc.batch_size.1,
        }
    }
}

/// Frozen metrics for one label.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Metrics label (algorithm name or custom task label).
    pub label: String,
    /// Jobs finished (including panicked and deadline-expired ones).
    pub jobs: u64,
    /// Jobs that panicked.
    pub panics: u64,
    /// Jobs whose deadline expired before a worker could run them.
    pub deadline_exceeded: u64,
    /// Total group queries across all sessions (retries included).
    pub queries: u64,
    /// Total verified-silence retry queries across all sessions.
    pub retries: u64,
    /// Total defense queries (canary probes, activity-confirmation
    /// re-queries) across all sessions; see `tcast::DefensePolicy`.
    pub defenses: u64,
    /// Total adversary-suspected anomalies flagged across all sessions.
    pub anomalies: u64,
    /// Total rounds across all sessions.
    pub rounds: u64,
    /// Sessions that answered `x >= t`.
    pub verdict_yes: u64,
    /// Sessions that answered `x < t`.
    pub verdict_no: u64,
    /// Wall-clock latency per successful job, in microseconds.
    pub latency_us: Summary,
    /// Successful-job latency distribution, 2ms bins over `[0, 100ms)`.
    pub latency_hist: Histogram,
    /// Wall-clock latency of failed jobs (panicked or deadline-expired),
    /// kept apart so failures never skew the success latency statistics.
    pub failed_latency_us: Summary,
    /// Per-session query counts.
    pub query_summary: Summary,
    /// Query-count distribution, 32-query bins over `[0, 2048)`.
    pub query_hist: Histogram,
    /// Retry-overhead distribution: per-session retry queries, 8-query
    /// bins over `[0, 256)`.
    pub retry_hist: Histogram,
}

impl MetricsRow {
    fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            jobs: 0,
            panics: 0,
            deadline_exceeded: 0,
            queries: 0,
            retries: 0,
            defenses: 0,
            anomalies: 0,
            rounds: 0,
            verdict_yes: 0,
            verdict_no: 0,
            latency_us: Summary::new(),
            latency_hist: Histogram::new(0.0, LATENCY_HI_US, LATENCY_BINS),
            failed_latency_us: Summary::new(),
            query_summary: Summary::new(),
            query_hist: Histogram::new(0.0, QUERIES_HI, QUERIES_BINS),
            retry_hist: Histogram::new(0.0, RETRIES_HI, RETRIES_BINS),
        }
    }

    /// Folds another row for the same label into this one: counters sum,
    /// summaries and histograms merge. Used to collapse per-thread
    /// shards at snapshot time, and usable by cluster front-ends to
    /// aggregate rows across several services.
    pub fn fold(&mut self, other: &MetricsRow) {
        debug_assert_eq!(self.label, other.label, "folding rows across labels");
        self.jobs += other.jobs;
        self.panics += other.panics;
        self.deadline_exceeded += other.deadline_exceeded;
        self.queries += other.queries;
        self.retries += other.retries;
        self.defenses += other.defenses;
        self.anomalies += other.anomalies;
        self.rounds += other.rounds;
        self.verdict_yes += other.verdict_yes;
        self.verdict_no += other.verdict_no;
        self.latency_us.merge(&other.latency_us);
        self.latency_hist.merge(&other.latency_hist);
        self.failed_latency_us.merge(&other.failed_latency_us);
        self.query_summary.merge(&other.query_summary);
        self.query_hist.merge(&other.query_hist);
        self.retry_hist.merge(&other.retry_hist);
    }
}

/// Point-in-time dump of the whole registry, one row per label.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Rows ordered by label.
    pub rows: Vec<MetricsRow>,
    /// Connection-counter rows ordered by label; empty unless a network
    /// front-end registered connections via
    /// [`MetricsRegistry::net_counters`].
    pub net_rows: Vec<NetMetricsRow>,
    /// Per-tenant rows ordered by tenant name; empty unless a tenant was
    /// ever seen ([`MetricsRegistry::seen_tenant`]) or recorded against
    /// (i.e. always empty for a single-tenant service), so dumps without
    /// tenancy are unchanged. Once a tenant appears its row persists for
    /// the registry's lifetime — series hold stable zeros through idle
    /// scrapes instead of vanishing.
    pub tenant_rows: Vec<TenantMetricsRow>,
    /// Per-objective SLO status rows in objective-declaration order;
    /// empty unless an [`tcast_obs::SloTracker`] is attached.
    pub slo_rows: Vec<tcast_obs::SloStatus>,
    /// Service-wide queue wait per executed query job, in microseconds
    /// (all tenants and the default lane folded together). Count 0 until
    /// a query job executes.
    pub queue_wait_us: Summary,
    /// Queue-wait distribution matching
    /// [`queue_wait_us`](Self::queue_wait_us), 2ms bins over `[0, 100ms)`.
    pub queue_wait_hist: Histogram,
    /// Jobs claimed per worker dequeue batch. Count 0 until a worker
    /// claims its first batch.
    pub batch_size: Summary,
    /// Batch-size distribution, 2-job bins over `[0, 128)`.
    pub batch_size_hist: Histogram,
}

impl MetricsSnapshot {
    /// CSV dump: one header line, one row per label, then the net and
    /// tenant sections, each after a blank line and only when non-empty.
    pub fn to_csv(&self) -> String {
        self.dump(false)
    }

    /// Markdown table dump, one table per section as in
    /// [`to_csv`](Self::to_csv).
    pub fn to_markdown(&self) -> String {
        self.dump(true)
    }

    fn dump(&self, markdown: bool) -> String {
        let mut out = String::new();
        columns(&mut out, markdown, &self.rows, false, &JOB_COLUMNS);
        columns(&mut out, markdown, &self.net_rows, true, &NET_COLUMNS);
        columns(&mut out, markdown, &self.tenant_rows, true, &TENANT_COLUMNS);
        out
    }

    /// The snapshot as typed metric families, in exposition order.
    ///
    /// Net series carry the connection's generation (its reconnect
    /// count). The service-wide summaries and the net, tenant, and SLO
    /// families appear only once they have something to say. Rows are
    /// label-sorted and the tables fixed, so renderings are
    /// snapshot-testable and renames break loudly.
    pub fn families(&self) -> Vec<Family> {
        let mut out = Vec::new();
        let algorithm = |r: &MetricsRow| labels(&[("algorithm", &r.label)]);
        per_row(&mut out, &self.rows, false, algorithm, &JOB_COUNTERS);
        let verdicts = self.rows.iter().flat_map(|r| {
            [("yes", r.verdict_yes), ("no", r.verdict_no)].map(|(verdict, n)| Sample {
                labels: labels(&[("algorithm", &r.label), ("verdict", verdict)]),
                value: Int(n),
            })
        });
        out.push(Family::new(VERDICTS, Counter, verdicts.collect()));
        per_row(&mut out, &self.rows, false, algorithm, &JOB_SUMMARIES);

        let global = [
            (QUEUE_WAIT, &self.queue_wait_us, &self.queue_wait_hist),
            (BATCH_SIZE, &self.batch_size, &self.batch_size_hist),
        ];
        for (name_help, stats, hist) in global.into_iter().filter(|g| g.1.count() > 0) {
            let (labels, value) = (Vec::new(), summary(Some(hist), stats));
            let samples = vec![Sample { labels, value }];
            out.push(Family::new(name_help, MetricKind::Summary, samples));
        }

        let generation = |r: &NetMetricsRow| r.reconnects_total.to_string();
        let conn =
            |r: &NetMetricsRow| labels(&[("conn", &r.label), ("generation", &generation(r))]);
        per_row(&mut out, &self.net_rows, true, conn, &NET);
        let tenant = |r: &TenantMetricsRow| labels(&[("tenant", &r.tenant)]);
        per_row(&mut out, &self.tenant_rows, true, tenant, &TENANT);

        let signal = |r: &SloStatus| labels(&[("objective", &r.name), ("signal", r.signal)]);
        per_row(&mut out, &self.slo_rows, true, signal, &SLO_EVENTS);
        if !self.slo_rows.is_empty() {
            let burns = self.slo_rows.iter().flat_map(|r| {
                [("short", r.burn_short), ("long", r.burn_long)].map(|(window, burn)| Sample {
                    labels: labels(&[("objective", &r.name), ("window", window)]),
                    value: Ratio(burn),
                })
            });
            out.push(Family::new(BURN_RATE, Gauge, burns.collect()));
        }
        let objective = |r: &SloStatus| labels(&[("objective", &r.name)]);
        per_row(&mut out, &self.slo_rows, true, objective, &SLO_STATE);
        out
    }

    /// Prometheus text exposition of the snapshot:
    /// [`render_prometheus`] over [`families`](Self::families).
    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.families())
    }
}

/// One cell of a CSV or markdown dump.
enum Cell<'a> {
    /// The row's key: its label or tenant name.
    Key(&'a str),
    /// A count.
    Count(u64),
    /// A derived number and its CSV decimals; `None` when it has no
    /// samples. Markdown prints one decimal or `-`, CSV prints `None` as
    /// zero.
    Num(Option<f64>, usize),
}

impl Cell<'_> {
    fn text(self, markdown: bool) -> String {
        match self {
            Key(key) => key.to_string(),
            Count(n) => n.to_string(),
            Num(Some(v), _) if markdown => format!("{v:.1}"),
            Num(None, _) if markdown => "-".to_string(),
            Num(v, decimals) => format!("{:.*}", decimals, v.unwrap_or(0.0)),
        }
    }
}

/// One column of a dump section: its CSV header, its markdown header
/// (`None` leaves the column out of the markdown table), and the cell
/// one row contributes.
type Column<R> = (&'static str, Option<&'static str>, fn(&R) -> Cell<'_>);

/// `f(s)`, or `None` before `s`'s first sample.
fn sampled(s: &Summary, f: impl FnOnce(&Summary) -> f64) -> Option<f64> {
    (s.count() > 0).then(|| f(s))
}

#[rustfmt::skip]
const JOB_COLUMNS: [Column<MetricsRow>; 15] = [
    ("label", Some("label"), |r| Key(&r.label)),
    ("jobs", Some("jobs"), |r| Count(r.jobs)),
    ("panics", Some("panics"), |r| Count(r.panics)),
    ("deadline_exceeded", Some("deadline"), |r| Count(r.deadline_exceeded)),
    ("queries", Some("queries"), |r| Count(r.queries)),
    ("retries", Some("retries"), |r| Count(r.retries)),
    ("defenses", Some("defenses"), |r| Count(r.defenses)),
    ("anomalies", Some("anomalies"), |r| Count(r.anomalies)),
    ("rounds", Some("rounds"), |r| Count(r.rounds)),
    ("verdict_yes", Some("yes"), |r| Count(r.verdict_yes)),
    ("verdict_no", Some("no"), |r| Count(r.verdict_no)),
    ("mean_latency_us", Some("latency (µs)"), |r| Num(sampled(&r.latency_us, Summary::mean), 1)),
    ("max_latency_us", None, |r| Num(sampled(&r.latency_us, Summary::max), 1)),
    ("mean_queries_per_job", Some("queries/job"),
     |r| Num(sampled(&r.query_summary, Summary::mean), 2)),
    ("mean_retries_per_job", None,
     |r| Num(sampled(&r.query_summary, |s| r.retries as f64 / s.count() as f64), 2)),
];

#[rustfmt::skip]
const NET_COLUMNS: [Column<NetMetricsRow>; 14] = [
    ("label", Some("connection"), |r| Key(&r.label)),
    ("frames_in", Some("frames in"), |r| Count(r.frames_in)),
    ("frames_out", Some("frames out"), |r| Count(r.frames_out)),
    ("bytes_in", Some("bytes in"), |r| Count(r.bytes_in)),
    ("bytes_out", Some("bytes out"), |r| Count(r.bytes_out)),
    ("decode_errors", Some("decode errs"), |r| Count(r.decode_errors)),
    ("busy_rejections", Some("busy"), |r| Count(r.busy_rejections)),
    ("auth_failures", Some("auth errs"), |r| Count(r.auth_failures)),
    ("reconnects", Some("reconnects"), |r| Count(r.reconnects_total)),
    ("accept_errors", Some("accept errs"), |r| Count(r.accept_errors)),
    ("conns_opened", None, |r| Count(r.conns_opened)),
    ("conns_closed", None, |r| Count(r.conns_closed)),
    ("open_connections", Some("open"), |r| Count(r.open_connections())),
    ("io_threads", Some("io threads"), |r| Count(r.io_threads)),
];

#[rustfmt::skip]
const TENANT_COLUMNS: [Column<TenantMetricsRow>; 7] = [
    ("tenant", Some("tenant"), |r| Key(&r.tenant)),
    ("jobs", Some("jobs"), |r| Count(r.jobs)),
    ("quota_rejections", Some("quota rejections"), |r| Count(r.quota_rejections)),
    ("mean_queue_wait_us", Some("queue wait µs (mean)"),
     |r| Num(sampled(&r.queue_wait_us, Summary::mean), 1)),
    ("p50_queue_wait_us", Some("p50"), |r| Num(Some(r.queue_wait_hist.quantile(0.5)), 1)),
    ("p99_queue_wait_us", Some("p99"), |r| Num(Some(r.queue_wait_hist.quantile(0.99)), 1)),
    ("max_queue_wait_us", Some("max"), |r| Num(sampled(&r.queue_wait_us, Summary::max), 1)),
];

/// Appends one dump section: a header line (plus the separator row in
/// markdown), then one line per row. A `gated` section is left out while
/// `rows` is empty and otherwise follows a blank line.
///
/// A markdown separator cell is as wide as its header cell: all dashes
/// in the first column, right-aligned (`-…-:`) in every other.
fn columns<R>(out: &mut String, markdown: bool, rows: &[R], gated: bool, table: &[Column<R>]) {
    if gated {
        if rows.is_empty() {
            return;
        }
        out.push('\n');
    }
    let table: Vec<_> = table
        .iter()
        .filter_map(|&(csv, md, cell)| Some((if markdown { md? } else { csv }, cell)))
        .collect();
    let (open, sep, close) = if markdown {
        ("| ", " | ", " |\n")
    } else {
        ("", ",", "\n")
    };
    let line = |cells: Vec<String>| format!("{open}{}{close}", cells.join(sep));
    out.push_str(&line(
        table.iter().map(|(header, _)| header.to_string()).collect(),
    ));
    if markdown {
        let rule = table.iter().enumerate().map(|(i, (header, _))| {
            let width = header.chars().count() + 2;
            if i == 0 {
                "-".repeat(width)
            } else {
                "-".repeat(width - 1) + ":"
            }
        });
        out.push_str(&format!("|{}|\n", rule.collect::<Vec<_>>().join("|")));
    }
    for r in rows {
        out.push_str(&line(
            table
                .iter()
                .map(|(_, cell)| cell(r).text(markdown))
                .collect(),
        ));
    }
}

/// The family names other crates read from a scrape (the `top`
/// dashboard). The tables
/// below use the same constants, so renaming a family breaks its readers'
/// build instead of leaving them to read a family that is never sent.
pub mod metric_names {
    /// Jobs finished, per algorithm label.
    pub const JOBS_TOTAL: &str = "tcast_jobs_total";
    /// Defense queries, per algorithm label.
    pub const DEFENSE_QUERIES_TOTAL: &str = "tcast_defense_queries_total";
    /// Adversary-suspected anomalies, per algorithm label.
    pub const ANOMALIES_TOTAL: &str = "tcast_anomalies_total";
    /// Service-wide queue-wait summary: the cluster's load signal.
    pub const QUEUE_WAIT_MICROSECONDS: &str = "tcast_queue_wait_microseconds";
    /// Jobs per worker dequeue batch (summary).
    pub const BATCH_SIZE_JOBS: &str = "tcast_batch_size_jobs";
    /// Open server connections, per connection label.
    pub const NET_OPEN_CONNECTIONS: &str = "tcast_net_open_connections";
    /// Error-budget burn rate, per objective and window.
    pub const SLO_BURN_RATE: &str = "tcast_slo_burn_rate";
    /// Error budget left, per objective.
    pub const SLO_ERROR_BUDGET_REMAINING: &str = "tcast_slo_error_budget_remaining";
    /// 1 while an objective burns at or above its paging threshold.
    pub const SLO_FAST_BURN: &str = "tcast_slo_fast_burn";
}

/// `(name, help)` of a family.
type NameHelp = (&'static str, &'static str);

/// One family of a [`per_row`] table: its name and help, its kind, and
/// the value one row contributes.
type RowFamily<R> = (NameHelp, MetricKind, fn(&R) -> MetricValue);

#[rustfmt::skip]
const JOB_COUNTERS: [RowFamily<MetricsRow>; 8] = [
    ((metric_names::JOBS_TOTAL, "Jobs finished, including panicked and deadline-expired ones."),
     Counter, |r| Int(r.jobs)),
    (("tcast_job_panics_total", "Jobs that panicked."), Counter, |r| Int(r.panics)),
    (("tcast_job_deadline_exceeded_total", "Jobs whose deadline expired before a worker ran them."),
     Counter, |r| Int(r.deadline_exceeded)),
    (("tcast_queries_total", "Group queries across all sessions, retries included."),
     Counter, |r| Int(r.queries)),
    (("tcast_retry_queries_total", "Verified-silence retry queries across all sessions."),
     Counter, |r| Int(r.retries)),
    ((metric_names::DEFENSE_QUERIES_TOTAL,
      "Defense queries (canary probes, confirmation re-queries) across all sessions."),
     Counter, |r| Int(r.defenses)),
    ((metric_names::ANOMALIES_TOTAL, "Adversary-suspected anomalies flagged across all sessions."),
     Counter, |r| Int(r.anomalies)),
    (("tcast_rounds_total", "Rounds across all sessions."), Counter, |r| Int(r.rounds)),
];

const VERDICTS: NameHelp = ("tcast_verdicts_total", "Session verdicts by outcome.");

#[rustfmt::skip]
const JOB_SUMMARIES: [RowFamily<MetricsRow>; 4] = [
    (("tcast_job_latency_microseconds", "Successful-job wall-clock latency."),
     MetricKind::Summary, |r| summary(Some(&r.latency_hist), &r.latency_us)),
    (("tcast_job_queries", "Group queries per session."),
     MetricKind::Summary, |r| summary(Some(&r.query_hist), &r.query_summary)),
    (("tcast_job_retry_queries", "Retry queries per session."),
     MetricKind::Summary, |r| MetricValue::Summary {
         quantiles: quantiles(&r.retry_hist),
         sum: r.retries as f64,
         count: r.retry_hist.total(),
     }),
    (("tcast_job_failed_latency_microseconds",
      "Wall-clock latency of failed jobs, kept apart from successes."),
     MetricKind::Summary, |r| summary(None, &r.failed_latency_us)),
];

const QUEUE_WAIT: NameHelp = (
    metric_names::QUEUE_WAIT_MICROSECONDS,
    "Queue wait (submission to execution start) across all executed query jobs.",
);

const BATCH_SIZE: NameHelp = (
    metric_names::BATCH_SIZE_JOBS,
    "Jobs claimed per worker dequeue batch.",
);

#[rustfmt::skip]
const NET: [RowFamily<NetMetricsRow>; 13] = [
    (("tcast_net_frames_in_total", "Frames decoded from the peer."), Counter, |r| Int(r.frames_in)),
    (("tcast_net_frames_out_total", "Frames written to the peer."), Counter, |r| Int(r.frames_out)),
    (("tcast_net_bytes_in_total", "Wire bytes received (decoded frames only)."),
     Counter, |r| Int(r.bytes_in)),
    (("tcast_net_bytes_out_total", "Wire bytes sent."), Counter, |r| Int(r.bytes_out)),
    (("tcast_net_decode_errors_total", "Inbound frames that failed CRC or payload decoding."),
     Counter, |r| Int(r.decode_errors)),
    (("tcast_net_busy_rejections_total", "Requests rejected with a Busy error frame."),
     Counter, |r| Int(r.busy_rejections)),
    (("tcast_net_auth_failures_total",
      "Failed Auth handshakes (wrong key, replayed nonce, truncated Auth frame, \
       submit-before-auth)."),
     Counter, |r| Int(r.auth_failures)),
    (("tcast_net_reconnects_total", "Transport reconnects folded into this connection label."),
     Counter, |r| Int(r.reconnects_total)),
    (("tcast_net_accept_errors_total",
      "Failed accept(2) calls on a server listener (fd exhaustion, aborted handshakes)."),
     Counter, |r| Int(r.accept_errors)),
    (("tcast_net_conns_opened_total", "Server connections admitted under this label."),
     Counter, |r| Int(r.conns_opened)),
    (("tcast_net_conns_closed_total", "Server connections fully closed under this label."),
     Counter, |r| Int(r.conns_closed)),
    ((metric_names::NET_OPEN_CONNECTIONS, "Currently open server connections (opened - closed)."),
     Gauge, |r| Int(r.open_connections())),
    (("tcast_net_io_threads", "Reactor I/O threads serving this label (0 on client-side labels)."),
     Gauge, |r| Int(r.io_threads)),
];

#[rustfmt::skip]
const TENANT: [RowFamily<TenantMetricsRow>; 3] = [
    (("tcast_tenant_jobs_total", "Jobs completed per tenant, whatever the outcome."),
     Counter, |r| Int(r.jobs)),
    (("tcast_tenant_quota_rejections_total",
      "Jobs rejected at admission because the tenant was over quota."),
     Counter, |r| Int(r.quota_rejections)),
    (("tcast_tenant_queue_wait_microseconds",
      "Queue wait (submission to execution start) per completed job."),
     MetricKind::Summary, |r| summary(Some(&r.queue_wait_hist), &r.queue_wait_us)),
];

#[rustfmt::skip]
const SLO_EVENTS: [RowFamily<SloStatus>; 2] = [
    (("tcast_slo_good_total", "Good events per objective over the long SLO window."),
     Gauge, |r| Int(r.good)),
    (("tcast_slo_bad_total", "Bad events per objective over the long SLO window."),
     Gauge, |r| Int(r.bad)),
];

const BURN_RATE: NameHelp = (
    metric_names::SLO_BURN_RATE,
    "Error-budget burn rate per objective (1.0 spends exactly the window's budget).",
);

#[rustfmt::skip]
const SLO_STATE: [RowFamily<SloStatus>; 2] = [
    ((metric_names::SLO_ERROR_BUDGET_REMAINING,
      "Fraction of the long window's error budget left at the current burn."),
     Gauge, |r| Ratio(r.budget_remaining)),
    ((metric_names::SLO_FAST_BURN,
      "1 when the short-window burn rate is at or above the objective's paging threshold."),
     Gauge, |r| Int(u64::from(r.fast_burn))),
];

/// The quantiles every exposed summary reports.
const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

fn quantiles(hist: &Histogram) -> Vec<(f64, f64)> {
    QUANTILES.iter().map(|&q| (q, hist.quantile(q))).collect()
}

/// A summary value over `stats`, with quantiles from `hist` when given.
fn summary(hist: Option<&Histogram>, stats: &Summary) -> MetricValue {
    MetricValue::Summary {
        quantiles: hist.map(quantiles).unwrap_or_default(),
        sum: stats.mean() * stats.count() as f64,
        count: stats.count(),
    }
}

/// One family per `table` entry with one sample per row; a `gated`
/// section emits no families at all while `rows` is empty.
fn per_row<R>(
    out: &mut Vec<Family>,
    rows: &[R],
    gated: bool,
    labels: impl Fn(&R) -> Vec<(String, String)>,
    table: &[RowFamily<R>],
) {
    if gated && rows.is_empty() {
        return;
    }
    for &(name_help, kind, value) in table {
        let samples = rows.iter().map(|r| Sample {
            labels: labels(r),
            value: value(r),
        });
        out.push(Family::new(name_help, kind, samples.collect()));
    }
}

/// How a metric family is typed on its `# TYPE` line. The discriminant
/// is the kind's tag on the metrics wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A count that only grows.
    Counter = 1,
    /// A value that may go up or down.
    Gauge = 2,
    /// Quantiles, a sum, and a count per sample.
    Summary = 3,
}

impl MetricKind {
    /// The kind as the exposition names it.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// One sample's value; the variant fixes how the exposition prints it.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A count, printed as an integer.
    Int(u64),
    /// A ratio (SLO burn rate, error budget), printed with six decimals.
    Ratio(f64),
    /// A summary. Quantiles and the sum print with one decimal.
    Summary {
        /// `(q, value)` pairs in ascending `q`; empty for a summary that
        /// only carries a sum and a count.
        quantiles: Vec<(f64, f64)>,
        /// Sum of the observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

impl MetricValue {
    /// A count or ratio as a number; `None` for a summary.
    pub fn scalar(&self) -> Option<f64> {
        match *self {
            MetricValue::Int(v) => Some(v as f64),
            MetricValue::Ratio(v) => Some(v),
            MetricValue::Summary { .. } => None,
        }
    }
}

/// One sample of a family: its labels and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `(name, value)` pairs in exposition order. Values are raw; the
    /// renderer escapes them.
    pub labels: Vec<(String, String)>,
    /// The sample's value.
    pub value: MetricValue,
}

/// One metric family: every sample of one metric name, plus the name's
/// help text and kind. [`MetricsSnapshot::families`] produces them, the
/// metrics wire frame carries them, and [`render_prometheus`] prints them.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name, e.g. `tcast_jobs_total`.
    pub name: String,
    /// One-line description for the `# HELP` line.
    pub help: String,
    /// The family's kind.
    pub kind: MetricKind,
    /// Samples in exposition order.
    pub samples: Vec<Sample>,
}

impl Family {
    fn new((name, help): NameHelp, kind: MetricKind, samples: Vec<Sample>) -> Self {
        Self {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples,
        }
    }

    /// The family called `name` among `families`.
    pub fn find<'a>(families: &'a [Family], name: &str) -> Option<&'a Family> {
        families.iter().find(|f| f.name == name)
    }

    /// The counts and ratios of every sample, in order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().filter_map(|s| s.value.scalar())
    }

    /// Quantile `q` of the family's first summary sample — the whole
    /// family for an unlabelled summary such as
    /// `tcast_queue_wait_microseconds`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match &self.samples.first()?.value {
            MetricValue::Summary { quantiles, .. } => {
                quantiles.iter().find(|(at, _)| *at == q).map(|&(_, v)| v)
            }
            _ => None,
        }
    }
}

/// Renders `families` in the Prometheus text exposition format: `# HELP`
/// and `# TYPE` per family, then one line per sample — a line per
/// quantile plus `_sum` and `_count` lines for a summary. Label values
/// are escaped here; a quantile rides as the last label.
pub fn render_prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let (name, kind) = (f.name.as_str(), f.kind.name());
        let _ = write!(out, "# HELP {name} {}\n# TYPE {name} {kind}\n", f.help);
        for s in &f.samples {
            let mut line = |suffix: &str, quantile: Option<f64>, value: &dyn Display| {
                let quantile = quantile.map(|q| ("quantile".to_string(), q.to_string()));
                let mut sep = '{';
                let _ = write!(out, "{name}{suffix}");
                for (label, v) in s.labels.iter().chain(&quantile) {
                    let v = v
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"")
                        .replace('\n', "\\n");
                    let _ = write!(out, "{sep}{label}=\"{v}\"");
                    sep = ',';
                }
                let close = if sep == ',' { "}" } else { "" };
                let _ = writeln!(out, "{close} {value}");
            };
            match &s.value {
                MetricValue::Int(v) => line("", None, v),
                MetricValue::Ratio(v) => line("", None, &format_args!("{v:.6}")),
                MetricValue::Summary {
                    quantiles,
                    sum,
                    count,
                } => {
                    for (q, v) in quantiles {
                        line("", Some(*q), &format_args!("{v:.1}"));
                    }
                    line("_sum", None, &format_args!("{sum:.1}"));
                    line("_count", None, count);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast::QueryReport;

    fn report(answer: bool, queries: u64, rounds: u32) -> JobResult {
        report_with_retries(answer, queries, rounds, 0)
    }

    fn report_with_retries(
        answer: bool,
        queries: u64,
        rounds: u32,
        retry_queries: u64,
    ) -> JobResult {
        Ok(JobOutput::Report(QueryReport {
            answer,
            queries,
            rounds,
            retry_queries,
            defense_queries: 0,
            anomalies: 0,
            confirmed_positives: 0,
            trace: Vec::new(),
        }))
    }

    #[test]
    fn counters_accumulate_per_label() {
        let m = MetricsRegistry::new();
        m.record("a", &report(true, 30, 2), Duration::from_micros(100));
        m.record("a", &report(false, 10, 1), Duration::from_micros(300));
        m.record("b", &report(true, 5, 1), Duration::from_micros(50));
        let snap = m.snapshot();
        assert_eq!(snap.rows.len(), 2);
        let a = &snap.rows[0];
        assert_eq!(
            (a.label.as_str(), a.jobs, a.queries, a.rounds),
            ("a", 2, 40, 3)
        );
        assert_eq!((a.verdict_yes, a.verdict_no), (1, 1));
        assert_eq!(a.latency_us.count(), 2);
        assert!((a.latency_us.mean() - 200.0).abs() < 1.0);
        assert_eq!(a.query_hist.total(), 2);
    }

    #[test]
    fn panics_count_but_skip_query_stats() {
        // Regression: a panicked job's wall-clock used to be folded into
        // the success latency summary, skewing mean/max latency for the
        // label. Failed timings now live in `failed_latency_us` only.
        let m = MetricsRegistry::new();
        m.record(
            "x",
            &Err(JobError::Panicked("boom".into())),
            Duration::from_micros(10),
        );
        let snap = m.snapshot();
        let r = &snap.rows[0];
        assert_eq!((r.jobs, r.panics, r.queries), (1, 1, 0));
        assert_eq!(r.query_summary.count(), 0);
        assert_eq!(r.latency_us.count(), 0, "failures skip success latency");
        assert_eq!(r.latency_hist.total(), 0);
        assert_eq!(r.failed_latency_us.count(), 1);
    }

    #[test]
    fn failed_latency_never_skews_success_summary() {
        let m = MetricsRegistry::new();
        m.record("x", &report(true, 4, 1), Duration::from_micros(100));
        m.record(
            "x",
            &Err(JobError::Panicked("boom".into())),
            Duration::from_micros(1_000_000),
        );
        m.record(
            "x",
            &Err(JobError::DeadlineExceeded),
            Duration::from_micros(500_000),
        );
        let r = &m.snapshot().rows[0];
        assert_eq!((r.jobs, r.panics, r.deadline_exceeded), (3, 1, 1));
        assert_eq!(r.latency_us.count(), 1);
        assert!((r.latency_us.mean() - 100.0).abs() < 1.0, "successes only");
        assert_eq!(r.failed_latency_us.count(), 2);
        assert!(r.failed_latency_us.max() >= 1_000_000.0);
    }

    #[test]
    fn deadline_exceeded_counts_separately_from_panics() {
        let m = MetricsRegistry::new();
        m.record("x", &Err(JobError::DeadlineExceeded), Duration::ZERO);
        m.record("x", &Err(JobError::DeadlineExceeded), Duration::ZERO);
        let r = &m.snapshot().rows[0];
        assert_eq!((r.jobs, r.panics, r.deadline_exceeded), (2, 0, 2));
    }

    #[test]
    fn retries_accumulate_and_fill_the_retry_histogram() {
        let m = MetricsRegistry::new();
        m.record("x", &report_with_retries(true, 30, 2, 5), Duration::ZERO);
        m.record("x", &report_with_retries(false, 12, 1, 0), Duration::ZERO);
        let r = &m.snapshot().rows[0];
        assert_eq!(r.retries, 5);
        assert_eq!(r.retry_hist.total(), 2);
    }

    #[test]
    fn defense_counters_accumulate_and_surface() {
        let m = MetricsRegistry::new();
        let hardened = Ok(JobOutput::Report(QueryReport {
            answer: true,
            queries: 20,
            rounds: 2,
            retry_queries: 1,
            defense_queries: 6,
            anomalies: 2,
            confirmed_positives: 0,
            trace: Vec::new(),
        }));
        m.record("x", &hardened, Duration::from_micros(10));
        m.record("x", &hardened, Duration::from_micros(10));
        let snap = m.snapshot();
        let r = &snap.rows[0];
        assert_eq!((r.defenses, r.anomalies), (12, 4));
        assert!(
            snap.to_csv().contains("x,2,0,0,40,2,12,4,4,"),
            "{}",
            snap.to_csv()
        );
        let text = snap.to_prometheus();
        assert!(text.contains("tcast_defense_queries_total{algorithm=\"x\"} 12"));
        assert!(text.contains("tcast_anomalies_total{algorithm=\"x\"} 4"));
    }

    #[test]
    fn csv_columns_are_stable() {
        // Snapshot of the CSV schema: downstream tooling parses these
        // column names, so any change here must be deliberate.
        let m = MetricsRegistry::new();
        m.record(
            "x",
            &report_with_retries(true, 40, 2, 4),
            Duration::from_micros(100),
        );
        m.record(
            "x",
            &report_with_retries(false, 10, 1, 0),
            Duration::from_micros(300),
        );
        m.record(
            "x",
            &Err(JobError::DeadlineExceeded),
            Duration::from_micros(10),
        );
        let csv = m.snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "label,jobs,panics,deadline_exceeded,queries,retries,defenses,anomalies,rounds,\
             verdict_yes,verdict_no,mean_latency_us,max_latency_us,\
             mean_queries_per_job,mean_retries_per_job"
        );
        assert_eq!(
            lines.next().unwrap(),
            "x,3,0,1,50,4,0,0,3,1,1,200.0,300.0,25.00,2.00"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn sharded_snapshot_equals_unsharded_totals() {
        // The acceptance bar for sharding: a snapshot taken after an
        // N-thread sweep must equal — snapshot-tested via the CSV dump —
        // what the registry accumulated when the same results were
        // recorded from a single thread (which keeps every sample in one
        // shard, i.e. the pre-shard behaviour).
        let workload: Vec<(String, JobResult, Duration)> = (0..256u64)
            .map(|i| {
                let label = format!("alg-{}", i % 5);
                let result = match i % 7 {
                    6 => Err(JobError::DeadlineExceeded),
                    5 => Err(JobError::Panicked("boom".into())),
                    _ => report_with_retries(i % 2 == 0, 10 + i, 1 + (i % 4) as u32, i % 3),
                };
                // Integer microsecond latencies sum exactly in f64, so the
                // folded summaries must match bit-for-bit.
                (label, result, Duration::from_micros(50 + i))
            })
            .collect();

        let reference = MetricsRegistry::new();
        for (label, result, elapsed) in &workload {
            reference.record(label, result, *elapsed);
        }

        let sharded = Arc::new(MetricsRegistry::new());
        let threads = 8;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let sharded = sharded.clone();
                let workload = &workload;
                scope.spawn(move || {
                    for (label, result, elapsed) in workload.iter().skip(worker).step_by(threads) {
                        sharded.record(label, result, *elapsed);
                    }
                });
            }
        });

        assert_eq!(reference.snapshot().to_csv(), sharded.snapshot().to_csv());
    }

    #[test]
    fn dumps_contain_every_label() {
        let m = MetricsRegistry::new();
        m.record("alpha", &report(true, 3, 1), Duration::from_micros(5));
        m.record("beta", &Ok(JobOutput::Value(1.0)), Duration::from_micros(5));
        let snap = m.snapshot();
        let csv = snap.to_csv();
        let md = snap.to_markdown();
        for label in ["alpha", "beta"] {
            assert!(csv.contains(label), "csv missing {label}");
            assert!(md.contains(label), "markdown missing {label}");
        }
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
    }

    #[test]
    fn net_counters_surface_in_snapshot_and_dumps() {
        let m = MetricsRegistry::new();
        let conn = m.net_counters("net/conn-0");
        conn.frame_in(64);
        conn.frame_in(128);
        conn.frame_out(300);
        conn.decode_error();
        conn.busy_rejection();
        // Same label returns the same live handle.
        m.net_counters("net/conn-0").frame_out(50);
        let snap = m.snapshot();
        assert_eq!(snap.net_rows.len(), 1);
        let r = &snap.net_rows[0];
        assert_eq!(
            (r.frames_in, r.frames_out, r.bytes_in, r.bytes_out),
            (2, 2, 192, 350)
        );
        assert_eq!((r.decode_errors, r.busy_rejections), (1, 1));
        assert_eq!(r.reconnects_total, 0);
        let csv = snap.to_csv();
        assert!(
            csv.contains("net/conn-0,2,2,192,350,1,1,0,0,0,0,0,0,0"),
            "csv: {csv}"
        );
        assert!(snap
            .to_markdown()
            .contains("| net/conn-0 | 2 | 2 | 192 | 350 | 1 | 1 | 0 | 0 | 0 | 0 | 0 |"));
    }

    #[test]
    fn accept_errors_and_connection_gauges_surface_in_dumps() {
        // Regression (satellite): accept(2) failures used to be swallowed
        // with a silent sleep, making fd exhaustion invisible. The counter
        // must reach every dump format, alongside the connection gauge and
        // the reactor-pool size.
        let m = MetricsRegistry::new();
        let server = m.net_counters("net/server");
        server.set_io_threads(4);
        server.accept_error();
        server.accept_error();
        for _ in 0..3 {
            server.conn_opened();
        }
        server.conn_closed();
        assert_eq!(server.open_connections(), 2);
        let snap = m.snapshot();
        let row = &snap.net_rows[0];
        assert_eq!(row.accept_errors, 2);
        assert_eq!((row.conns_opened, row.conns_closed), (3, 1));
        assert_eq!(row.open_connections(), 2);
        assert_eq!(row.io_threads, 4);
        let csv = snap.to_csv();
        assert!(csv.contains("accept_errors"), "csv header: {csv}");
        assert!(
            csv.contains("net/server,0,0,0,0,0,0,0,0,2,3,1,2,4"),
            "{csv}"
        );
        let md = snap.to_markdown();
        assert!(
            md.contains("| net/server | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 2 | 2 | 4 |"),
            "{md}"
        );
        let text = snap.to_prometheus();
        assert!(
            text.contains("tcast_net_accept_errors_total{conn=\"net/server\",generation=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tcast_net_open_connections{conn=\"net/server\",generation=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tcast_net_io_threads{conn=\"net/server\",generation=\"0\"} 4"),
            "{text}"
        );
    }

    #[test]
    fn reconnects_tag_the_fold_with_a_generation() {
        // Regression (satellite): counters folded per connection label used
        // to merge successive physical connections of the same pooled slot
        // invisibly. The reconnect counter tags the fold.
        let m = MetricsRegistry::new();
        let conn = m.net_counters("net/conn-3");
        conn.frame_out(10);
        assert_eq!(conn.generation(), 0, "initial dial is generation 0");
        assert_eq!(conn.reconnect(), 1);
        conn.frame_out(10);
        assert_eq!(conn.reconnect(), 2);
        assert_eq!(conn.generation(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.net_rows[0].reconnects_total, 2);
        assert!(snap
            .to_csv()
            .contains("net/conn-3,0,2,0,20,0,0,0,2,0,0,0,0,0"));
        // The exposition tags every net series with the generation.
        let text = snap.to_prometheus();
        assert!(
            text.contains("tcast_net_frames_out_total{conn=\"net/conn-3\",generation=\"2\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("tcast_net_reconnects_total{conn=\"net/conn-3\",generation=\"2\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_is_stable() {
        // Full snapshot of the exposition format: family names, label
        // ordering, and number formatting are all load-bearing for
        // scrapers, so any change here must be deliberate.
        let m = MetricsRegistry::new();
        m.record(
            "x",
            &report_with_retries(true, 40, 2, 4),
            Duration::from_micros(100),
        );
        m.record(
            "x",
            &report_with_retries(false, 10, 1, 0),
            Duration::from_micros(300),
        );
        m.record(
            "x",
            &Err(JobError::DeadlineExceeded),
            Duration::from_micros(10),
        );
        let conn = m.net_counters("net/conn-0");
        conn.frame_in(64);
        conn.frame_out(100);
        conn.reconnect();
        let expected = r#"# HELP tcast_jobs_total Jobs finished, including panicked and deadline-expired ones.
# TYPE tcast_jobs_total counter
tcast_jobs_total{algorithm="x"} 3
# HELP tcast_job_panics_total Jobs that panicked.
# TYPE tcast_job_panics_total counter
tcast_job_panics_total{algorithm="x"} 0
# HELP tcast_job_deadline_exceeded_total Jobs whose deadline expired before a worker ran them.
# TYPE tcast_job_deadline_exceeded_total counter
tcast_job_deadline_exceeded_total{algorithm="x"} 1
# HELP tcast_queries_total Group queries across all sessions, retries included.
# TYPE tcast_queries_total counter
tcast_queries_total{algorithm="x"} 50
# HELP tcast_retry_queries_total Verified-silence retry queries across all sessions.
# TYPE tcast_retry_queries_total counter
tcast_retry_queries_total{algorithm="x"} 4
# HELP tcast_defense_queries_total Defense queries (canary probes, confirmation re-queries) across all sessions.
# TYPE tcast_defense_queries_total counter
tcast_defense_queries_total{algorithm="x"} 0
# HELP tcast_anomalies_total Adversary-suspected anomalies flagged across all sessions.
# TYPE tcast_anomalies_total counter
tcast_anomalies_total{algorithm="x"} 0
# HELP tcast_rounds_total Rounds across all sessions.
# TYPE tcast_rounds_total counter
tcast_rounds_total{algorithm="x"} 3
# HELP tcast_verdicts_total Session verdicts by outcome.
# TYPE tcast_verdicts_total counter
tcast_verdicts_total{algorithm="x",verdict="yes"} 1
tcast_verdicts_total{algorithm="x",verdict="no"} 1
# HELP tcast_job_latency_microseconds Successful-job wall-clock latency.
# TYPE tcast_job_latency_microseconds summary
tcast_job_latency_microseconds{algorithm="x",quantile="0.5"} 300.0
tcast_job_latency_microseconds{algorithm="x",quantile="0.9"} 300.0
tcast_job_latency_microseconds{algorithm="x",quantile="0.99"} 300.0
tcast_job_latency_microseconds_sum{algorithm="x"} 400.0
tcast_job_latency_microseconds_count{algorithm="x"} 2
# HELP tcast_job_queries Group queries per session.
# TYPE tcast_job_queries summary
tcast_job_queries{algorithm="x",quantile="0.5"} 32.0
tcast_job_queries{algorithm="x",quantile="0.9"} 40.0
tcast_job_queries{algorithm="x",quantile="0.99"} 40.0
tcast_job_queries_sum{algorithm="x"} 50.0
tcast_job_queries_count{algorithm="x"} 2
# HELP tcast_job_retry_queries Retry queries per session.
# TYPE tcast_job_retry_queries summary
tcast_job_retry_queries{algorithm="x",quantile="0.5"} 4.0
tcast_job_retry_queries{algorithm="x",quantile="0.9"} 4.0
tcast_job_retry_queries{algorithm="x",quantile="0.99"} 4.0
tcast_job_retry_queries_sum{algorithm="x"} 4.0
tcast_job_retry_queries_count{algorithm="x"} 2
# HELP tcast_job_failed_latency_microseconds Wall-clock latency of failed jobs, kept apart from successes.
# TYPE tcast_job_failed_latency_microseconds summary
tcast_job_failed_latency_microseconds_sum{algorithm="x"} 10.0
tcast_job_failed_latency_microseconds_count{algorithm="x"} 1
# HELP tcast_net_frames_in_total Frames decoded from the peer.
# TYPE tcast_net_frames_in_total counter
tcast_net_frames_in_total{conn="net/conn-0",generation="1"} 1
# HELP tcast_net_frames_out_total Frames written to the peer.
# TYPE tcast_net_frames_out_total counter
tcast_net_frames_out_total{conn="net/conn-0",generation="1"} 1
# HELP tcast_net_bytes_in_total Wire bytes received (decoded frames only).
# TYPE tcast_net_bytes_in_total counter
tcast_net_bytes_in_total{conn="net/conn-0",generation="1"} 64
# HELP tcast_net_bytes_out_total Wire bytes sent.
# TYPE tcast_net_bytes_out_total counter
tcast_net_bytes_out_total{conn="net/conn-0",generation="1"} 100
# HELP tcast_net_decode_errors_total Inbound frames that failed CRC or payload decoding.
# TYPE tcast_net_decode_errors_total counter
tcast_net_decode_errors_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_busy_rejections_total Requests rejected with a Busy error frame.
# TYPE tcast_net_busy_rejections_total counter
tcast_net_busy_rejections_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_auth_failures_total Failed Auth handshakes (wrong key, replayed nonce, truncated Auth frame, submit-before-auth).
# TYPE tcast_net_auth_failures_total counter
tcast_net_auth_failures_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_reconnects_total Transport reconnects folded into this connection label.
# TYPE tcast_net_reconnects_total counter
tcast_net_reconnects_total{conn="net/conn-0",generation="1"} 1
# HELP tcast_net_accept_errors_total Failed accept(2) calls on a server listener (fd exhaustion, aborted handshakes).
# TYPE tcast_net_accept_errors_total counter
tcast_net_accept_errors_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_conns_opened_total Server connections admitted under this label.
# TYPE tcast_net_conns_opened_total counter
tcast_net_conns_opened_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_conns_closed_total Server connections fully closed under this label.
# TYPE tcast_net_conns_closed_total counter
tcast_net_conns_closed_total{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_open_connections Currently open server connections (opened - closed).
# TYPE tcast_net_open_connections gauge
tcast_net_open_connections{conn="net/conn-0",generation="1"} 0
# HELP tcast_net_io_threads Reactor I/O threads serving this label (0 on client-side labels).
# TYPE tcast_net_io_threads gauge
tcast_net_io_threads{conn="net/conn-0",generation="1"} 0
"#;
        assert_eq!(m.snapshot().to_prometheus(), expected);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let m = MetricsRegistry::new();
        m.record("od\"d\\label", &report(true, 1, 1), Duration::ZERO);
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains(r#"tcast_jobs_total{algorithm="od\"d\\label"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn tenant_sections_surface_only_with_tenant_activity() {
        let m = MetricsRegistry::new();
        m.record("x", &report(true, 4, 1), Duration::from_micros(100));

        // No tenant activity: every dump matches the single-tenant
        // schema byte for byte (no tenant section anywhere).
        let plain = m.snapshot();
        assert!(plain.tenant_rows.is_empty());
        assert!(!plain.to_csv().contains("tenant"));
        assert!(!plain.to_markdown().contains("tenant"));
        assert!(!plain.to_prometheus().contains("tcast_tenant_"));

        m.record_tenant_job("alice", Duration::from_micros(200));
        m.record_tenant_job("alice", Duration::from_micros(400));
        m.record_quota_rejections("bob", 3);
        let snap = m.snapshot();
        assert_eq!(snap.tenant_rows.len(), 2);

        // The tenant CSV section is schema-pinned: column names and
        // number formatting are load-bearing for downstream parsing.
        let csv = snap.to_csv();
        let tenant_csv = csv
            .split_once("\ntenant,")
            .map(|(_, rest)| format!("tenant,{rest}"))
            .expect("tenant section present");
        assert_eq!(
            tenant_csv,
            "tenant,jobs,quota_rejections,mean_queue_wait_us,p50_queue_wait_us,\
             p99_queue_wait_us,max_queue_wait_us\n\
             alice,2,0,300.0,400.0,400.0,400.0\n\
             bob,0,3,0.0,0.0,0.0,0.0\n"
        );

        let md = snap.to_markdown();
        assert!(md.contains("| alice | 2 | 0 | 300.0 | 400.0 | 400.0 | 400.0 |"));
        assert!(md.contains("| bob | 0 | 3 | - | 0.0 | 0.0 | - |"));

        let prom = snap.to_prometheus();
        for line in [
            "tcast_tenant_jobs_total{tenant=\"alice\"} 2",
            "tcast_tenant_jobs_total{tenant=\"bob\"} 0",
            "tcast_tenant_quota_rejections_total{tenant=\"alice\"} 0",
            "tcast_tenant_quota_rejections_total{tenant=\"bob\"} 3",
            "tcast_tenant_queue_wait_microseconds{tenant=\"alice\",quantile=\"0.5\"} 400.0",
            "tcast_tenant_queue_wait_microseconds_sum{tenant=\"alice\"} 600.0",
            "tcast_tenant_queue_wait_microseconds_count{tenant=\"alice\"} 2",
        ] {
            assert!(prom.contains(line), "missing {line:?} in:\n{prom}");
        }
    }

    #[test]
    fn seen_tenants_hold_stable_zero_series_across_scrapes() {
        // Regression: tenant series used to appear only once activity
        // was recorded, so a tenant idle at scrape time had no series at
        // all — they flickered in and out across scrapes. A tenant seen
        // once (e.g. at auth) now has stable zero-valued series from
        // then on, pinned here byte for byte.
        let m = MetricsRegistry::new();
        m.seen_tenant("carol");
        let snap = m.snapshot();
        assert_eq!(snap.tenant_rows.len(), 1);
        let prom = snap.to_prometheus();
        let tenant_section = prom
            .split_once("# HELP tcast_tenant_jobs_total")
            .map(|(_, rest)| format!("# HELP tcast_tenant_jobs_total{rest}"))
            .expect("tenant section present for a seen-but-idle tenant");
        assert_eq!(
            tenant_section,
            "# HELP tcast_tenant_jobs_total Jobs completed per tenant, whatever the outcome.\n\
             # TYPE tcast_tenant_jobs_total counter\n\
             tcast_tenant_jobs_total{tenant=\"carol\"} 0\n\
             # HELP tcast_tenant_quota_rejections_total Jobs rejected at admission because the tenant was over quota.\n\
             # TYPE tcast_tenant_quota_rejections_total counter\n\
             tcast_tenant_quota_rejections_total{tenant=\"carol\"} 0\n\
             # HELP tcast_tenant_queue_wait_microseconds Queue wait (submission to execution start) per completed job.\n\
             # TYPE tcast_tenant_queue_wait_microseconds summary\n\
             tcast_tenant_queue_wait_microseconds{tenant=\"carol\",quantile=\"0.5\"} 0.0\n\
             tcast_tenant_queue_wait_microseconds{tenant=\"carol\",quantile=\"0.9\"} 0.0\n\
             tcast_tenant_queue_wait_microseconds{tenant=\"carol\",quantile=\"0.99\"} 0.0\n\
             tcast_tenant_queue_wait_microseconds_sum{tenant=\"carol\"} 0.0\n\
             tcast_tenant_queue_wait_microseconds_count{tenant=\"carol\"} 0\n"
        );
        // A second scrape with zero intervening activity is identical:
        // no series vanishes between scrapes.
        assert_eq!(m.snapshot().to_prometheus(), prom);
    }

    #[test]
    fn slo_section_exports_burn_budget_and_fast_burn() {
        let m = MetricsRegistry::new();
        // Without a tracker the exposition carries no SLO series at all.
        assert!(!m.snapshot().to_prometheus().contains("tcast_slo_"));

        let slo = Arc::new(tcast_obs::SloTracker::new(vec![
            tcast_obs::Objective::auth("auth_success", 0.99),
        ]));
        m.attach_slo(slo);
        // 2% auth failures on a 1% budget: burn 2.0, budget exhausted,
        // but below the 14.4 paging threshold.
        for k in 0..100 {
            m.slo_observe(tcast_obs::SloSignal::Auth, k % 50 != 0);
        }
        let prom = m.snapshot().to_prometheus();
        for line in [
            "tcast_slo_good_total{objective=\"auth_success\",signal=\"auth\"} 98",
            "tcast_slo_bad_total{objective=\"auth_success\",signal=\"auth\"} 2",
            "tcast_slo_burn_rate{objective=\"auth_success\",window=\"short\"} 2.000000",
            "tcast_slo_burn_rate{objective=\"auth_success\",window=\"long\"} 2.000000",
            "tcast_slo_error_budget_remaining{objective=\"auth_success\"} 0.000000",
            "tcast_slo_fast_burn{objective=\"auth_success\"} 0",
        ] {
            assert!(prom.contains(line), "missing {line:?} in:\n{prom}");
        }
    }

    #[test]
    fn record_feeds_latency_and_verdict_objectives() {
        let m = MetricsRegistry::new();
        m.attach_slo(Arc::new(tcast_obs::SloTracker::new(vec![
            tcast_obs::Objective::latency("e2e", 200.0, 0.99),
            tcast_obs::Objective::verdicts("trust", 0.999),
        ])));
        // Fast success, slow success, failure: latency sees 1 good 2 bad.
        m.record("x", &report(true, 4, 1), Duration::from_micros(100));
        m.record("x", &report(true, 4, 1), Duration::from_micros(900));
        m.record(
            "x",
            &Err(JobError::DeadlineExceeded),
            Duration::from_micros(10),
        );
        // An anomalous report marks the verdict objective bad.
        let mut anomalous = QueryReport::trivial(true);
        anomalous.anomalies = 3;
        m.record(
            "x",
            &Ok(JobOutput::Report(anomalous)),
            Duration::from_micros(50),
        );
        let rows = m.snapshot().slo_rows;
        let latency = &rows[0];
        assert_eq!((latency.good, latency.bad), (2, 2), "{latency:?}");
        let verdict = &rows[1];
        // 2 clean reports + 1 anomalous; the failed job never reports.
        assert_eq!((verdict.good, verdict.bad), (2, 1), "{verdict:?}");
    }

    #[test]
    fn global_queue_wait_and_batch_size_gate_on_activity() {
        // The wire-exposed load signal (`tcast_queue_wait_microseconds`)
        // only appears once a job has executed; same for the batch-size
        // summary. A freshly-started service exposes the pre-batch schema
        // byte for byte.
        let m = MetricsRegistry::new();
        m.record("x", &report(true, 4, 1), Duration::from_micros(100));
        let text = m.snapshot().to_prometheus();
        assert!(!text.contains("tcast_queue_wait_microseconds"), "{text}");
        assert!(!text.contains("tcast_batch_size_jobs"), "{text}");

        m.record_queue_wait(Duration::from_micros(250));
        m.record_queue_wait(Duration::from_micros(750));
        m.record_batch_size(8);
        let snap = m.snapshot();
        assert_eq!(snap.queue_wait_us.count(), 2);
        assert!((snap.queue_wait_us.mean() - 500.0).abs() < 1.0);
        assert_eq!(snap.batch_size.count(), 1);
        let text = snap.to_prometheus();
        assert!(
            text.contains("tcast_queue_wait_microseconds{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("tcast_queue_wait_microseconds_sum 1000.0"),
            "{text}"
        );
        assert!(
            text.contains("tcast_queue_wait_microseconds_count 2"),
            "{text}"
        );
        assert!(text.contains("tcast_batch_size_jobs_sum 8.0"), "{text}");
        assert!(text.contains("tcast_batch_size_jobs_count 1"), "{text}");
    }

    #[test]
    fn job_dumps_are_unchanged_without_net_counters() {
        // The job-metrics CSV schema is snapshot-tested above; a registry
        // with no registered connections must not grow a net section.
        let m = MetricsRegistry::new();
        m.record("x", &report(true, 4, 1), Duration::from_micros(100));
        let snap = m.snapshot();
        assert!(snap.net_rows.is_empty());
        assert_eq!(snap.to_csv().lines().count(), 2, "header + 1 row only");
    }
}
