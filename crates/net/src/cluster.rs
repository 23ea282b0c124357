//! `ShardedClient` — a cluster front-end that fans query jobs across
//! several [`NetServer`](crate::NetServer) endpoints.
//!
//! Routing is rendezvous (highest-random-weight) hashing over the job's
//! identity bytes ([`QueryJob::cache_key`]): every shard label is
//! fingerprinted together with the job key and the healthy shard with
//! the highest weight wins. Rendezvous hashing gives the two properties
//! a deterministic query cluster needs:
//!
//! - **Stability** — the same job always routes to the same shard while
//!   the healthy set is unchanged, so per-shard session caches stay hot.
//! - **Minimal disruption** — when a shard dies, only *its* jobs move
//!   (each re-hashes among the survivors); jobs on healthy shards do
//!   not reshuffle.
//!
//! With [`ClusterConfig::load_aware`] enabled, routing upgrades to
//! *weighted* rendezvous: a background sampler on the prober thread
//! fetches each healthy shard's metric families over the wire and reads
//! the service-wide `tcast_queue_wait_microseconds` p50. Each shard's
//! hash draw is converted to an exponential score `-ln(u) / w` with
//! weight `w = REF / (REF + queue_wait_us)`, and the lowest score wins
//! — so a backed-up shard sheds load proportionally while placement
//! stays sticky for most keys. Signals degrade safely: a shard whose
//! sample is stale (older than [`ClusterConfig::load_staleness`])
//! weighs as if idle, and when *no* fresh signal exists the router
//! falls back to exactly the unweighted integer rendezvous above.
//!
//! [`ClusterConfig::slo_penalty`] folds shard *health* into the same
//! weighted draw: the sampler also reads each shard's worst
//! short-window `tcast_slo_burn_rate` and the growth of
//! `tcast_anomalies_total` (summed over algorithms) since its previous
//! pass, and divides the shard's weight by
//! `1 + burn + 0.5·new_anomalies` (capped at 16) — a shard that is
//! burning its error budget or emitting anomalous verdicts sheds load
//! before it fails outright, yet keeps enough traffic to demonstrate
//! recovery.
//!
//! Failure handling is transparent: a handle that resolves to
//! [`NetError::ConnectionLost`] or [`NetError::ServerShutdown`] marks
//! the shard down, re-routes the job to the best surviving shard, and
//! resubmits — the caller just sees the report. Because execution is
//! fully deterministic (all seeds travel in the job spec), a re-routed
//! job produces a bit-identical report on any shard. A background
//! prober re-dials down shards with exponential backoff and puts them
//! back into rotation once the `Hello`/`HelloAck` round trip succeeds.
//!
//! Everything observable is recorded: shard state transitions and
//! re-routes in an event log ([`ShardedClient::events`]), per-shard
//! wire traffic as [`tcast_service::NetCounters`] rows in the client's
//! own metrics registry ([`ShardedClient::metrics`]).

use std::cell::RefCell;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use tcast::{fingerprint64, fingerprint64_extend};
use tcast_service::{Family, MetricsRegistry, MetricsSnapshot, QueryJob};

use crate::client::{NetClient, NetClientConfig, NetError, NetJobHandle, NetJobResult};

/// How often the prober thread wakes to check for due re-dials.
const PROBE_TICK: Duration = Duration::from_millis(10);

/// Reference queue wait for the load weight `REF / (REF + wait_us)`: a
/// shard whose median queue wait reaches this carries half the routing
/// weight of an idle one.
const LOAD_REF_US: f64 = 1000.0;

/// Upper bound on the SLO/anomaly health penalty divisor, so one sick
/// shard is shed aggressively but never rounded fully out of rotation
/// (it still absorbs a trickle of traffic, which is how it proves it
/// recovered).
const MAX_HEALTH_PENALTY: f64 = 16.0;

/// Health-penalty contribution per anomaly observed since the previous
/// sample of the same shard.
const ANOMALY_PENALTY: f64 = 0.5;

/// Tuning knobs for [`ShardedClient`]. Construct via
/// [`ClusterConfig::default`] plus the `with_*` builders — the struct
/// is `#[non_exhaustive]` so new knobs can land without breaking
/// callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Per-shard connection settings (pool size, busy retries, ...).
    pub client: NetClientConfig,
    /// Backoff before the first re-dial of a down shard; doubles on
    /// every failed probe.
    pub probe_backoff: Duration,
    /// Upper bound on the probe backoff.
    pub probe_max_backoff: Duration,
    /// Route by *weighted* rendezvous, biased away from shards reporting
    /// high queue waits in their wire-exposed metrics. Off by default:
    /// unweighted routing keeps placement a pure function of the job key
    /// and the healthy set, which maximizes per-shard cache affinity.
    pub load_aware: bool,
    /// How often the background sampler polls each healthy shard's
    /// metrics for its queue-wait signal (only with `load_aware`).
    pub load_sample_interval: Duration,
    /// A load sample older than this no longer biases routing: the shard
    /// weighs as if idle, and with no fresh sample anywhere the router
    /// is exactly the unweighted rendezvous.
    pub load_staleness: Duration,
    /// Additionally penalize shards whose wire-exposed metrics report
    /// SLO budget burn or fresh anomalies (only with `load_aware`): the
    /// sampler reads the worst short-window `tcast_slo_burn_rate` and
    /// the `tcast_anomalies_total` delta since its previous sample, and
    /// divides the shard's routing weight by
    /// `1 + burn_short + 0.5 * new_anomalies` (capped). Stale health
    /// samples decay to no penalty exactly like load samples.
    pub slo_penalty: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            client: NetClientConfig::default(),
            probe_backoff: Duration::from_millis(50),
            probe_max_backoff: Duration::from_secs(2),
            load_aware: false,
            load_sample_interval: Duration::from_millis(500),
            load_staleness: Duration::from_secs(3),
            slo_penalty: false,
        }
    }
}

impl ClusterConfig {
    /// Sets [`Self::client`].
    pub fn with_client(mut self, client: NetClientConfig) -> Self {
        self.client = client;
        self
    }

    /// Sets [`Self::probe_backoff`].
    pub fn with_probe_backoff(mut self, probe_backoff: Duration) -> Self {
        self.probe_backoff = probe_backoff;
        self
    }

    /// Sets [`Self::probe_max_backoff`].
    pub fn with_probe_max_backoff(mut self, probe_max_backoff: Duration) -> Self {
        self.probe_max_backoff = probe_max_backoff;
        self
    }

    /// Sets [`Self::load_aware`].
    pub fn with_load_aware(mut self, load_aware: bool) -> Self {
        self.load_aware = load_aware;
        self
    }

    /// Sets [`Self::load_sample_interval`].
    pub fn with_load_sample_interval(mut self, load_sample_interval: Duration) -> Self {
        self.load_sample_interval = load_sample_interval;
        self
    }

    /// Sets [`Self::load_staleness`].
    pub fn with_load_staleness(mut self, load_staleness: Duration) -> Self {
        self.load_staleness = load_staleness;
        self
    }

    /// Sets [`Self::slo_penalty`].
    pub fn with_slo_penalty(mut self, slo_penalty: bool) -> Self {
        self.slo_penalty = slo_penalty;
        self
    }
}

/// One entry in the cluster's observable history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A shard stopped answering (dial failure, lost connection, or
    /// drain) and was taken out of rotation.
    ShardDown {
        /// Index of the shard in the address list passed to
        /// [`ShardedClient::connect`].
        shard: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// A down shard answered a probe and is back in rotation.
    ShardUp {
        /// Index of the recovered shard.
        shard: usize,
    },
    /// A job was moved off a failed shard onto a survivor.
    Rerouted {
        /// Shard the job was on when it failed; `None` when the job had
        /// not been placed at all (no shard was healthy at submit).
        from: Option<usize>,
        /// Shard the job was resubmitted to.
        to: usize,
    },
}

/// Mutable per-shard state, guarded by one mutex per shard.
struct ShardState {
    /// Live client, or `None` while the shard is down.
    client: Option<NetClient>,
    /// Current probe backoff (zero until the first probe failure).
    backoff: Duration,
    /// Earliest instant the prober may try this shard again.
    next_probe: Instant,
}

/// The latest queue-wait signal for one shard, as sampled from its
/// wire-exposed metrics (or injected by a test seam).
struct ShardLoad {
    /// Sampled p50 queue wait in microseconds, stored as `f64` bits.
    queue_wait_us: AtomicU64,
    /// Milliseconds since the cluster started, plus one, at sampling
    /// time; `0` means never sampled.
    sampled_at_ms: AtomicU64,
    /// SLO/anomaly health penalty divisor in `[1, MAX_HEALTH_PENALTY]`,
    /// stored as `f64` bits.
    health_penalty: AtomicU64,
    /// Timestamp of the health penalty, same encoding as
    /// `sampled_at_ms`; `0` means never sampled.
    health_at_ms: AtomicU64,
    /// `tcast_anomalies_total` at the previous sample, plus one, so the
    /// sampler can penalize the *delta*; `0` means no previous reading.
    last_anomalies: AtomicU64,
}

impl ShardLoad {
    fn new() -> Self {
        Self {
            queue_wait_us: AtomicU64::new(0),
            sampled_at_ms: AtomicU64::new(0),
            health_penalty: AtomicU64::new(1.0f64.to_bits()),
            health_at_ms: AtomicU64::new(0),
            last_anomalies: AtomicU64::new(0),
        }
    }

    fn record(&self, queue_wait_us: f64, now_ms: u64) {
        self.queue_wait_us
            .store(queue_wait_us.to_bits(), Ordering::Relaxed);
        self.sampled_at_ms.store(now_ms + 1, Ordering::Release);
    }

    fn record_health(&self, penalty: f64, now_ms: u64) {
        let penalty = penalty.clamp(1.0, MAX_HEALTH_PENALTY);
        self.health_penalty
            .store(penalty.to_bits(), Ordering::Relaxed);
        self.health_at_ms.store(now_ms + 1, Ordering::Release);
    }

    fn is_fresh(&self, now_ms: u64, staleness: Duration) -> bool {
        Self::fresh_at(
            self.sampled_at_ms.load(Ordering::Acquire),
            now_ms,
            staleness,
        )
    }

    fn health_is_fresh(&self, now_ms: u64, staleness: Duration) -> bool {
        Self::fresh_at(self.health_at_ms.load(Ordering::Acquire), now_ms, staleness)
    }

    fn fresh_at(at: u64, now_ms: u64, staleness: Duration) -> bool {
        at != 0 && now_ms.saturating_sub(at - 1) <= staleness.as_millis() as u64
    }

    /// Whether any signal (queue wait or health) is fresh enough to
    /// bias routing.
    fn has_fresh_signal(&self, now_ms: u64, staleness: Duration) -> bool {
        self.is_fresh(now_ms, staleness) || self.health_is_fresh(now_ms, staleness)
    }

    /// The routing weight in `(0, 1]`: `1` when idle or when every
    /// sample went stale, shrinking toward `0` as queue waits grow past
    /// [`LOAD_REF_US`] and as the SLO/anomaly health penalty grows.
    fn weight(&self, now_ms: u64, staleness: Duration) -> f64 {
        let load = if self.is_fresh(now_ms, staleness) {
            let wait = f64::from_bits(self.queue_wait_us.load(Ordering::Relaxed)).max(0.0);
            LOAD_REF_US / (LOAD_REF_US + wait)
        } else {
            1.0
        };
        let penalty = if self.health_is_fresh(now_ms, staleness) {
            f64::from_bits(self.health_penalty.load(Ordering::Relaxed))
                .clamp(1.0, MAX_HEALTH_PENALTY)
        } else {
            1.0
        };
        load / penalty
    }
}

thread_local! {
    /// The routing thread's job-key buffer, reused by every route.
    static ROUTE_KEY: RefCell<Vec<u8>> =
        RefCell::new(Vec::with_capacity(QueryJob::MAX_CACHE_KEY_LEN));
}

/// Whether `shard` is in a job's exclusion set. The set is a flag per
/// shard that stays empty until the first exclusion.
fn is_excluded(excluded: &[bool], shard: usize) -> bool {
    excluded.get(shard).copied().unwrap_or(false)
}

/// Adds `shard` to a job's exclusion set (see [`is_excluded`]).
fn exclude(excluded: &mut Vec<bool>, shard: usize) {
    if excluded.len() <= shard {
        excluded.resize(shard + 1, false);
    }
    excluded[shard] = true;
}

struct ClusterInner {
    addrs: Vec<SocketAddr>,
    /// Each shard's rendezvous-hash prefix: the FNV-1a state after its
    /// stable label `"{index}:{addr}"`. Continuing it over a job key
    /// gives `fingerprint64(label ‖ key)` without copying either.
    label_states: Vec<u64>,
    shards: Vec<Mutex<ShardState>>,
    /// Health flags readable without touching a shard lock, so routing
    /// never blocks on a shard that is mid-(re)connect.
    healthy: Vec<AtomicBool>,
    /// Per-shard load signals feeding weighted routing (inert unless
    /// [`ClusterConfig::load_aware`]).
    loads: Vec<ShardLoad>,
    /// Epoch for the millisecond timestamps in [`ShardLoad`].
    started: Instant,
    events: Mutex<Vec<ClusterEvent>>,
    metrics: MetricsRegistry,
    config: ClusterConfig,
    closing: AtomicBool,
}

impl ClusterInner {
    /// The cluster over `addrs` (one shard each, in order) in its
    /// initial state; no prober runs yet.
    fn new(
        addrs: Vec<SocketAddr>,
        shards: Vec<Mutex<ShardState>>,
        healthy: Vec<AtomicBool>,
        events: Vec<ClusterEvent>,
        metrics: MetricsRegistry,
        config: ClusterConfig,
    ) -> Self {
        let label_states = addrs
            .iter()
            .enumerate()
            .map(|(shard, addr)| fingerprint64(format!("{shard}:{addr}").as_bytes()))
            .collect();
        let loads = addrs.iter().map(|_| ShardLoad::new()).collect();
        Self {
            addrs,
            label_states,
            shards,
            healthy,
            loads,
            started: Instant::now(),
            events: Mutex::new(events),
            metrics,
            config,
            closing: AtomicBool::new(false),
        }
    }

    fn push_event(&self, event: ClusterEvent) {
        self.events.lock().push(event);
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Rendezvous-hashes `job` over the healthy, non-excluded shards.
    ///
    /// With `load_aware` set and at least one candidate carrying a fresh
    /// load sample, each shard's draw becomes the exponential score
    /// `-ln(u) / w` (lowest wins), which picks shards with probability
    /// proportional to their weight while staying sticky per key. With
    /// no fresh signal this is bit-for-bit the classic unweighted
    /// integer rendezvous (highest fingerprint wins, ties to the lowest
    /// index). Routing allocates nothing: the job key is encoded into
    /// the thread's reused buffer.
    fn route(&self, job: &QueryJob, excluded: &[bool]) -> Option<usize> {
        ROUTE_KEY.with_borrow_mut(|key| {
            key.clear();
            job.cache_key_into(key);
            self.route_key(key, excluded)
        })
    }

    /// [`route`](Self::route) over an encoded job key.
    fn route_key(&self, key: &[u8], excluded: &[bool]) -> Option<usize> {
        let now_ms = self.now_ms();
        let staleness = self.config.load_staleness;
        let weighted = self.config.load_aware
            && self.loads.iter().enumerate().any(|(shard, load)| {
                !is_excluded(excluded, shard)
                    && self.healthy[shard].load(Ordering::SeqCst)
                    && load.has_fresh_signal(now_ms, staleness)
            });
        let mut best_plain: Option<(u64, usize)> = None;
        let mut best_scored: Option<(f64, usize)> = None;
        for (shard, &label_state) in self.label_states.iter().enumerate() {
            if is_excluded(excluded, shard) || !self.healthy[shard].load(Ordering::SeqCst) {
                continue;
            }
            let fingerprint = fingerprint64_extend(label_state, key);
            if weighted {
                // Top 53 bits → uniform in (0, 1), so ln never sees 0.
                let u = ((fingerprint >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                let score = -u.ln() / self.loads[shard].weight(now_ms, staleness);
                // Strict `<` keeps ties deterministic (lowest index wins).
                if best_scored.is_none_or(|(s, _)| score < s) {
                    best_scored = Some((score, shard));
                }
            } else {
                // Strict `>` keeps ties deterministic (lowest index wins).
                if best_plain.is_none_or(|(w, _)| fingerprint > w) {
                    best_plain = Some((fingerprint, shard));
                }
            }
        }
        best_scored
            .map(|(_, shard)| shard)
            .or(best_plain.map(|(_, shard)| shard))
    }

    /// One sampler pass: fetch each healthy shard's metric families over
    /// its own short-lived connection (never a shard lock) and record
    /// the queue-wait p50. Shards that answer without the queue-wait
    /// family (no jobs executed yet) simply contribute no sample.
    fn sample_shard_loads(&self) {
        for shard in 0..self.addrs.len() {
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            if !self.healthy[shard].load(Ordering::SeqCst) {
                continue;
            }
            let Ok(families) = crate::client::fetch_metrics(self.addrs[shard], &self.config.client)
            else {
                continue;
            };
            let queue_wait = Family::find(&families, "tcast_queue_wait_microseconds");
            if let Some(queue_wait_us) = queue_wait.and_then(|f| f.quantile(0.5)) {
                self.loads[shard].record(queue_wait_us, self.now_ms());
                tcast_obs::event(
                    tcast_obs::TraceId::NONE,
                    "cluster.load_sample",
                    &[
                        ("shard", shard as u64),
                        ("queue_wait_us", queue_wait_us as u64),
                    ],
                );
            }
            if self.config.slo_penalty {
                self.sample_shard_health(shard, &families);
            }
        }
    }

    /// Folds one shard's worst short-window SLO burn and the growth of
    /// its anomaly total (summed over algorithms) since this sampler's
    /// previous reading into a single health-penalty divisor, so a shard
    /// is not punished forever for ancient history.
    fn sample_shard_health(&self, shard: usize, families: &[Family]) {
        let burn = Family::find(families, "tcast_slo_burn_rate").and_then(|f| {
            f.samples
                .iter()
                .filter(|s| s.labels.iter().any(|(k, v)| k == "window" && v == "short"))
                .filter_map(|s| s.value.scalar())
                .reduce(f64::max)
        });
        let anomalies = Family::find(families, "tcast_anomalies_total")
            .filter(|f| !f.samples.is_empty())
            .map(|f| f.values().sum::<f64>() as u64);
        if burn.is_none() && anomalies.is_none() {
            return;
        }
        let new_anomalies = anomalies.map_or(0, |total| {
            // The previous total plus one; 0 until a baseline exists.
            let prev = self.loads[shard]
                .last_anomalies
                .swap(total + 1, Ordering::Relaxed);
            prev.checked_sub(1)
                .map_or(0, |prev| total.saturating_sub(prev))
        });
        let penalty = 1.0 + burn.unwrap_or(0.0).max(0.0) + ANOMALY_PENALTY * new_anomalies as f64;
        self.loads[shard].record_health(penalty, self.now_ms());
        tcast_obs::event(
            tcast_obs::TraceId::NONE,
            "cluster.health_sample",
            &[
                ("shard", shard as u64),
                ("penalty_milli", (penalty * 1000.0) as u64),
                ("new_anomalies", new_anomalies),
            ],
        );
    }

    /// Writes `job` to `shard`'s connection; `None` when the shard has
    /// no live client (lost a race with [`ClusterInner::mark_down`]).
    fn submit_to(&self, shard: usize, job: QueryJob) -> Option<NetJobHandle> {
        let state = self.shards[shard].lock();
        let client = state.client.as_ref()?;
        Some(client.submit_one(job))
    }

    /// Routes and submits `job`, excluding shards in its `route` as
    /// placements fail. Returns `true` once the job is on some wire.
    fn place(&self, job: &QueryJob, route: &mut Route) -> bool {
        loop {
            let Some(next) = self.route(job, &route.excluded) else {
                return false;
            };
            // The route decision is a span (not a bare event) so the
            // remote tiers can stitch under it: when the span records,
            // its id travels in the submit as the job's parent span
            // context, making the shard's `service.execute` a child of
            // this client-side `cluster.route` in the assembled tree.
            let span = tcast_obs::Span::enter_fields(
                job.trace,
                "cluster.route",
                &[("shard", next as u64)],
            );
            let mut job = *job;
            if span.is_recording() {
                job = job.with_parent_span(tcast_obs::SpanContext::child_of(span.id()));
            }
            match self.submit_to(next, job) {
                Some(handle) => {
                    route.shard = Some(next);
                    route.handle = Some(handle);
                    return true;
                }
                None => exclude(&mut route.excluded, next),
            }
        }
    }

    /// Takes `shard` out of rotation (idempotent) and schedules an
    /// immediate probe.
    fn mark_down(&self, shard: usize, detail: &str) {
        if self.healthy[shard].swap(false, Ordering::SeqCst) {
            let client = {
                let mut state = self.shards[shard].lock();
                state.backoff = Duration::ZERO;
                state.next_probe = Instant::now();
                state.client.take()
            };
            if let Some(client) = client {
                client.close();
            }
            tcast_obs::event(
                tcast_obs::TraceId::NONE,
                "cluster.shard_down",
                &[("shard", shard as u64)],
            );
            self.push_event(ClusterEvent::ShardDown {
                shard,
                detail: detail.to_string(),
            });
        }
    }

    /// One prober pass: re-dial every down shard whose backoff expired.
    fn probe_down_shards(&self) {
        for shard in 0..self.addrs.len() {
            if self.healthy[shard].load(Ordering::SeqCst) || self.closing.load(Ordering::SeqCst) {
                continue;
            }
            let due = { self.shards[shard].lock().next_probe <= Instant::now() };
            if !due {
                continue;
            }
            // Dial outside the shard lock: a handshake can take up to
            // `handshake_timeout` and must not block routing decisions.
            let counters = self.metrics.net_counters(&format!("cluster/shard-{shard}"));
            match NetClient::connect_instrumented(
                self.addrs[shard],
                self.config.client.clone(),
                counters,
            ) {
                Ok(client) => {
                    let mut state = self.shards[shard].lock();
                    if self.closing.load(Ordering::SeqCst) {
                        drop(state);
                        client.close();
                        return;
                    }
                    state.client = Some(client);
                    state.backoff = Duration::ZERO;
                    drop(state);
                    self.healthy[shard].store(true, Ordering::SeqCst);
                    tcast_obs::event(
                        tcast_obs::TraceId::NONE,
                        "cluster.probe",
                        &[("shard", shard as u64), ("up", 1)],
                    );
                    self.push_event(ClusterEvent::ShardUp { shard });
                }
                Err(_) => {
                    tcast_obs::event(
                        tcast_obs::TraceId::NONE,
                        "cluster.probe",
                        &[("shard", shard as u64), ("up", 0)],
                    );
                    let mut state = self.shards[shard].lock();
                    state.backoff = if state.backoff.is_zero() {
                        self.config.probe_backoff
                    } else {
                        (state.backoff * 2).min(self.config.probe_max_backoff)
                    };
                    state.next_probe = Instant::now() + state.backoff;
                }
            }
        }
    }
}

/// Where one job of a [`ClusterBatch`] currently lives and which shards
/// already failed it.
#[derive(Default)]
struct Route {
    shard: Option<usize>,
    /// Shards that failed this job (see [`is_excluded`]); empty, and
    /// unallocated, until the first failure.
    excluded: Vec<bool>,
    handle: Option<NetJobHandle>,
}

/// A batch of in-flight cluster jobs, in submission order.
///
/// Waiting re-routes transparently: a job whose shard dies mid-flight
/// is resubmitted to the best surviving shard (at most once per shard)
/// before its result is reported.
#[must_use = "a cluster batch does nothing unless waited on"]
pub struct ClusterBatch {
    inner: Arc<ClusterInner>,
    /// The caller's jobs, kept as they were submitted.
    jobs: Vec<QueryJob>,
    /// The first job's route, inline, so a one-job batch allocates
    /// nothing of its own.
    first: Route,
    /// The other jobs' routes, in order.
    rest: Vec<Route>,
}

impl ClusterBatch {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch carries no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Blocks until every job resolved, re-routing jobs off failed
    /// shards as needed; results in submission order.
    pub fn wait(self) -> Vec<NetJobResult> {
        let routes = std::iter::once(self.first).chain(self.rest);
        self.jobs
            .iter()
            .zip(routes)
            .map(|(job, route)| Self::resolve(&self.inner, job, route))
            .collect()
    }

    fn resolve(inner: &ClusterInner, job: &QueryJob, mut route: Route) -> NetJobResult {
        loop {
            let result = match route.handle.take() {
                Some(handle) => handle.wait(),
                None => Err(NetError::ConnectionLost(
                    "no healthy shard to route to".into(),
                )),
            };
            match &result {
                Err(NetError::ConnectionLost(detail)) => {
                    if let Some(shard) = route.shard {
                        inner.mark_down(shard, detail);
                        exclude(&mut route.excluded, shard);
                    }
                }
                Err(NetError::ServerShutdown) => {
                    if let Some(shard) = route.shard {
                        inner.mark_down(shard, "server is draining");
                        exclude(&mut route.excluded, shard);
                    }
                }
                // Every other outcome (a report, a remote job failure, a
                // busy budget blown, a protocol error) is an answer from
                // a live shard — re-running elsewhere cannot improve it.
                _ => return result,
            }
            let from = route.shard.take();
            if !inner.place(job, &mut route) {
                // Nowhere left to go: report the original failure.
                return result;
            }
            let to = route.shard.expect("placed job has a shard");
            match from {
                Some(from) => tcast_obs::event(
                    job.trace,
                    "cluster.reroute",
                    &[("from", from as u64), ("to", to as u64)],
                ),
                None => {
                    tcast_obs::event(job.trace, "cluster.reroute", &[("to", to as u64)]);
                }
            }
            inner.push_event(ClusterEvent::Rerouted { from, to });
        }
    }
}

/// A sharded front-end over several [`NetServer`](crate::NetServer)
/// endpoints, routing jobs by rendezvous hashing with transparent
/// failover and background shard recovery.
pub struct ShardedClient {
    inner: Arc<ClusterInner>,
    prober: Option<JoinHandle<()>>,
}

impl ShardedClient {
    /// Connects to every address in `addrs` (one shard each, in order).
    ///
    /// Shards that cannot be dialed start out down — recorded as
    /// [`ClusterEvent::ShardDown`] and retried by the prober — but at
    /// least one shard must come up or the connect fails with the last
    /// dial error.
    pub fn connect(
        addrs: impl IntoIterator<Item = impl ToSocketAddrs>,
        config: ClusterConfig,
    ) -> Result<Self, NetError> {
        let mut resolved = Vec::new();
        for addr in addrs {
            let addr = addr
                .to_socket_addrs()
                .map_err(|e| NetError::ConnectionLost(format!("address resolution failed: {e}")))?
                .next()
                .ok_or_else(|| NetError::ConnectionLost("address resolved to nothing".into()))?;
            resolved.push(addr);
        }
        if resolved.is_empty() {
            return Err(NetError::ConnectionLost("no shard addresses given".into()));
        }

        let metrics = MetricsRegistry::new();
        let mut shards = Vec::with_capacity(resolved.len());
        let mut healthy = Vec::with_capacity(resolved.len());
        let mut events = Vec::new();
        let mut last_error = None;
        for (shard, addr) in resolved.iter().enumerate() {
            let counters = metrics.net_counters(&format!("cluster/shard-{shard}"));
            let (client, up) =
                match NetClient::connect_instrumented(*addr, config.client.clone(), counters) {
                    Ok(client) => (Some(client), true),
                    Err(e) => {
                        events.push(ClusterEvent::ShardDown {
                            shard,
                            detail: e.to_string(),
                        });
                        last_error = Some(e);
                        (None, false)
                    }
                };
            shards.push(Mutex::new(ShardState {
                client,
                backoff: Duration::ZERO,
                next_probe: Instant::now(),
            }));
            healthy.push(AtomicBool::new(up));
        }
        if !healthy.iter().any(|h| h.load(Ordering::SeqCst)) {
            return Err(
                last_error.unwrap_or_else(|| NetError::ConnectionLost("no shard reachable".into()))
            );
        }

        let inner = Arc::new(ClusterInner::new(
            resolved, shards, healthy, events, metrics, config,
        ));

        let prober = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("tcast-cluster-prober".into())
                .spawn(move || {
                    let mut last_sample: Option<Instant> = None;
                    while !inner.closing.load(Ordering::SeqCst) {
                        inner.probe_down_shards();
                        let due = inner.config.load_aware
                            && last_sample
                                .is_none_or(|at| at.elapsed() >= inner.config.load_sample_interval);
                        if due {
                            inner.sample_shard_loads();
                            last_sample = Some(Instant::now());
                        }
                        std::thread::sleep(PROBE_TICK);
                    }
                })
                .map_err(|e| NetError::ConnectionLost(format!("spawn prober: {e}")))?
        };

        Ok(Self {
            inner,
            prober: Some(prober),
        })
    }

    /// Number of shards (healthy or not) in the cluster.
    pub fn shards(&self) -> usize {
        self.inner.addrs.len()
    }

    /// Number of shards currently in rotation.
    pub fn healthy_shards(&self) -> usize {
        self.inner
            .healthy
            .iter()
            .filter(|h| h.load(Ordering::SeqCst))
            .count()
    }

    /// The shard `job` would route to right now, or `None` when no
    /// shard is healthy. Stable while the healthy set is unchanged —
    /// and, under [`ClusterConfig::load_aware`], while the shards' load
    /// samples are unchanged.
    pub fn route_of(&self, job: &QueryJob) -> Option<usize> {
        self.inner.route(job, &[])
    }

    /// Records a queue-wait load sample for `shard` as if the background
    /// sampler had just fetched it off the wire. A deterministic seam
    /// for tests and external control planes; routing treats injected
    /// and sampled signals identically (including staleness decay).
    pub fn inject_load_sample(&self, shard: usize, queue_wait: Duration) {
        assert!(shard < self.inner.addrs.len(), "no such shard: {shard}");
        self.inner.loads[shard].record(queue_wait.as_secs_f64() * 1e6, self.inner.now_ms());
    }

    /// Records an SLO/anomaly health-penalty sample for `shard` as if
    /// the background sampler had just derived it from the shard's
    /// metrics. The same deterministic seam as
    /// [`Self::inject_load_sample`]: the penalty divides the shard's
    /// routing weight (clamped to `[1, 16]`) and decays with the load
    /// staleness window.
    pub fn inject_health_sample(&self, shard: usize, penalty: f64) {
        assert!(shard < self.inner.addrs.len(), "no such shard: {shard}");
        self.inner.loads[shard].record_health(penalty, self.inner.now_ms());
    }

    /// Submits `jobs` across the cluster, pipelined: every job is
    /// routed and written to its shard's wire before this returns.
    pub fn submit(&self, jobs: Vec<QueryJob>) -> ClusterBatch {
        let mut routes = jobs.iter().map(|job| {
            let mut route = Route::default();
            // Failure to place here is not final: `wait` retries the
            // routing (the prober may have revived a shard by then).
            self.inner.place(job, &mut route);
            route
        });
        let first = routes.next().unwrap_or_default();
        let rest = routes.collect();
        ClusterBatch {
            inner: self.inner.clone(),
            jobs,
            first,
            rest,
        }
    }

    /// Events recorded so far (shard transitions and re-routes), oldest
    /// first.
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.inner.events.lock().clone()
    }

    /// Snapshot of the cluster's own metrics registry: one
    /// [`tcast_service::NetMetricsRow`] per shard (labelled
    /// `cluster/shard-N`) counting frames, bytes, decode errors, and
    /// busy rejections on that shard's connections.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Stops the prober, says `Goodbye` on every live shard connection,
    /// and joins all background threads.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        for state in &self.inner.shards {
            let client = state.lock().client.take();
            if let Some(client) = client {
                client.close();
            }
        }
    }
}

impl Drop for ShardedClient {
    fn drop(&mut self) {
        if !self.inner.closing.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use tcast::{
        AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy, LossConfig,
        RetryPolicy,
    };
    use tcast_service::AlgorithmSpec;

    /// A three-shard cluster that never dials: routing reads only the
    /// addresses, the health flags and the load signals.
    fn offline_cluster() -> ClusterInner {
        let addrs: Vec<SocketAddr> = ["127.0.0.1:7101", "10.0.0.2:7102", "[::1]:7103"]
            .iter()
            .map(|a| a.parse().expect("socket address"))
            .collect();
        let shards = addrs
            .iter()
            .map(|_| {
                Mutex::new(ShardState {
                    client: None,
                    backoff: Duration::ZERO,
                    next_probe: Instant::now(),
                })
            })
            .collect();
        let healthy = addrs.iter().map(|_| AtomicBool::new(true)).collect();
        ClusterInner::new(
            addrs,
            shards,
            healthy,
            Vec::new(),
            MetricsRegistry::new(),
            ClusterConfig::default(),
        )
    }

    /// Rendezvous over the label and key bytes concatenated: highest
    /// fingerprint wins, ties to the lowest index.
    fn reference(addrs: &[SocketAddr], excluded: &[bool], job: &QueryJob) -> Option<usize> {
        let key = job.cache_key();
        (0..addrs.len())
            .filter(|&shard| !excluded[shard])
            .map(|shard| {
                let mut bytes = format!("{shard}:{}", addrs[shard]).into_bytes();
                bytes.extend_from_slice(&key);
                (fingerprint64(&bytes), shard)
            })
            .fold(None, |best: Option<(u64, usize)>, (w, shard)| match best {
                Some((bw, _)) if bw >= w => best,
                _ => Some((w, shard)),
            })
            .map(|(_, shard)| shard)
    }

    fn jobs() -> Vec<QueryJob> {
        let (n, t) = (48, 6);
        let model = CollisionModel::two_plus_default();
        let adversary = |model, seed| AdversaryConfig { model, seed };
        (0..400u64)
            .map(|i| {
                let x = (i as usize * 7) % (n + 1);
                let channel = match i % 4 {
                    0 => ChannelSpec::ideal(n, x, CollisionModel::OnePlus),
                    1 => ChannelSpec::lossy(n, x, model, LossConfig::default())
                        .with_retry(RetryPolicy::verified(2).with_budget(40)),
                    2 => ChannelSpec::adversarial(
                        n,
                        x,
                        model,
                        None,
                        adversary(AdversaryModel::Jammer { duty_mille: 350 }, i),
                    ),
                    _ => ChannelSpec::adversarial(
                        n,
                        x.min(t - 2),
                        model,
                        None,
                        adversary(AdversaryModel::FalseResponders { count: 1 }, i),
                    ),
                }
                .with_defense(DefensePolicy::hardened())
                .seeded(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i ^ 0x5eed);
                let algorithm = AlgorithmSpec::ALL[i as usize % AlgorithmSpec::ALL.len()];
                QueryJob::new(algorithm, channel, t, i)
            })
            .collect()
    }

    #[test]
    fn every_exclusion_subset_routes_like_the_concatenating_reference() {
        let cluster = offline_cluster();
        let jobs = jobs();
        for subset in 0..1u32 << cluster.addrs.len() {
            let flags: Vec<bool> = (0..cluster.addrs.len())
                .map(|shard| subset >> shard & 1 == 1)
                .collect();
            // The router's own lazily grown set, built as failures would.
            let mut excluded = Vec::new();
            for shard in (0..flags.len()).filter(|&s| flags[s]) {
                exclude(&mut excluded, shard);
            }
            for (i, job) in jobs.iter().enumerate() {
                assert_eq!(
                    cluster.route(job, &excluded),
                    reference(&cluster.addrs, &flags, job),
                    "job {i}, excluded {flags:?}"
                );
            }
        }
    }
}
