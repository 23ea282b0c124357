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
//!   the healthy set is unchanged, so routing is reproducible.
//! - **Minimal disruption** — when a shard dies, only *its* jobs move
//!   (each re-hashes among the survivors); jobs on healthy shards do
//!   not reshuffle.
//!
//! Failure handling is transparent: a handle that resolves to
//! [`NetError::ConnectionLost`] or [`NetError::ServerShutdown`] marks
//! the shard down, re-routes the job to the best surviving shard, and
//! resubmits — the caller just sees the report. Because execution is
//! fully deterministic (all seeds travel in the job spec), a re-routed
//! job produces a bit-identical report on any shard. A background
//! prober re-dials down shards with exponential backoff and puts them
//! back into rotation once the `Hello`/`HelloAck` round trip succeeds.
//! It sleeps until the earliest re-dial falls due, and while every shard
//! is up it parks until a mark-down or [`ShardedClient::close`] wakes it.
//!
//! Everything observable is recorded: shard state transitions and
//! re-routes in an event log ([`ShardedClient::events`]), per-shard
//! wire traffic as [`tcast_service::NetCounters`] rows in the client's
//! own metrics registry ([`ShardedClient::metrics`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tcast::{fingerprint64, fingerprint64_extend};
use tcast_service::{MetricsRegistry, MetricsSnapshot, QueryJob};

use crate::client::{NetClient, NetClientConfig, NetError, NetJobHandle, NetJobResult};

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
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            client: NetClientConfig::default(),
            probe_backoff: Duration::from_millis(50),
            probe_max_backoff: Duration::from_secs(2),
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
}

/// Most events [`ShardedClient::events`] keeps: the log drops its
/// oldest entry for each new one past this, so a long-lived client with
/// a flapping shard stays bounded.
const EVENT_LOG_CAP: usize = 1024;

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
    /// The most recent [`EVENT_LOG_CAP`] events, oldest first.
    events: Mutex<VecDeque<ClusterEvent>>,
    metrics: MetricsRegistry,
    config: ClusterConfig,
    closing: AtomicBool,
    /// Set, under its lock, by a mark-down or `close` for the prober to
    /// see; the prober clears it before each pass.
    prober_kicked: Mutex<bool>,
    /// Where the prober parks between passes.
    prober_bell: Condvar,
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
        let mut events = VecDeque::from(events);
        events.drain(..events.len().saturating_sub(EVENT_LOG_CAP));
        Self {
            addrs,
            label_states,
            shards,
            healthy,
            events: Mutex::new(events),
            metrics,
            config,
            closing: AtomicBool::new(false),
            prober_kicked: Mutex::new(false),
            prober_bell: Condvar::new(),
        }
    }

    /// Wakes the prober for a pass now. The flag is set under the lock
    /// the prober parks under, so the wake cannot fall between its last
    /// pass and its wait.
    fn kick_prober(&self) {
        *self.prober_kicked.lock() = true;
        self.prober_bell.notify_one();
    }

    /// The prober thread: a pass re-dials the down shards that are due.
    /// Between passes it waits for the earliest re-dial, or, while every
    /// shard is up, parks until a mark-down or `close` kicks it.
    fn probe_loop(&self) {
        while !self.closing.load(Ordering::SeqCst) {
            *self.prober_kicked.lock() = false;
            self.probe_down_shards();
            let due = self.next_redial();
            let mut kicked = self.prober_kicked.lock();
            if *kicked || self.closing.load(Ordering::SeqCst) {
                continue;
            }
            match due {
                None => self.prober_bell.wait(&mut kicked),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if !left.is_zero() {
                        self.prober_bell.wait_for(&mut kicked, left);
                    }
                }
            }
        }
    }

    /// When the earliest down shard falls due for a re-dial; `None`
    /// while every shard is up.
    fn next_redial(&self) -> Option<Instant> {
        (0..self.addrs.len())
            .filter(|&shard| !self.healthy[shard].load(Ordering::SeqCst))
            .map(|shard| self.shards[shard].lock().next_probe)
            .min()
    }

    fn push_event(&self, event: ClusterEvent) {
        let mut events = self.events.lock();
        if events.len() == EVENT_LOG_CAP {
            events.pop_front();
        }
        events.push_back(event);
    }

    fn events(&self) -> Vec<ClusterEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Rendezvous-hashes `job` over the healthy, non-excluded shards:
    /// the highest fingerprint wins, ties to the lowest index. Routing
    /// allocates nothing: the job key is encoded into the thread's
    /// reused buffer.
    fn route(&self, job: &QueryJob, excluded: &[bool]) -> Option<usize> {
        ROUTE_KEY.with_borrow_mut(|key| {
            key.clear();
            job.cache_key_into(key);
            self.route_key(key, excluded)
        })
    }

    /// [`route`](Self::route) over an encoded job key.
    fn route_key(&self, key: &[u8], excluded: &[bool]) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (shard, &label_state) in self.label_states.iter().enumerate() {
            if is_excluded(excluded, shard) || !self.healthy[shard].load(Ordering::SeqCst) {
                continue;
            }
            let fingerprint = fingerprint64_extend(label_state, key);
            // Strict `>` keeps ties deterministic (lowest index wins).
            if best.is_none_or(|(w, _)| fingerprint > w) {
                best = Some((fingerprint, shard));
            }
        }
        best.map(|(_, shard)| shard)
    }

    /// Writes `job` to `shard`'s connection; `None` when the shard has
    /// no live client (lost a race with [`ClusterInner::mark_down`]).
    fn submit_to(&self, shard: usize, job: QueryJob) -> Option<NetJobHandle> {
        let state = self.shards[shard].lock();
        let client = state.client.as_ref()?;
        Some(client.submit_one(job))
    }

    /// Routes and submits `job`, excluding shards in its `route` as
    /// placements fail. Returns the shard once the job is on its wire.
    fn place(&self, job: &QueryJob, route: &mut Route) -> Option<usize> {
        loop {
            let next = self.route(job, &route.excluded)?;
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
                    return Some(next);
                }
                None => exclude(&mut route.excluded, next),
            }
        }
    }

    /// Takes `shard` out of rotation (idempotent) and wakes the prober
    /// for an immediate re-dial.
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
            self.kick_prober();
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
            let Some(to) = inner.place(job, &mut route) else {
                // Nowhere left to go: report the original failure.
                return result;
            };
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
                .spawn(move || inner.probe_loop())
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
    /// shard is healthy. Stable while the healthy set is unchanged.
    pub fn route_of(&self, job: &QueryJob) -> Option<usize> {
        self.inner.route(job, &[])
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

    /// The most recent events (shard transitions and re-routes), oldest
    /// first. The log keeps the last 1024, a fixed cap, and drops older
    /// ones.
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.inner.events()
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
        self.inner.kick_prober();
        // Wake every thread first and join them after, so their wake-ups
        // overlap instead of queueing one behind another.
        let clients: Vec<NetClient> = self
            .inner
            .shards
            .iter()
            .filter_map(|state| state.lock().client.take())
            .collect();
        for client in &clients {
            client.stop();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        for client in clients {
            client.close();
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
    /// addresses and the health flags.
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
    fn the_event_log_keeps_the_most_recent_events() {
        let cluster = offline_cluster();
        for shard in 0..2 * EVENT_LOG_CAP {
            cluster.push_event(ClusterEvent::ShardUp { shard });
        }
        let want: Vec<ClusterEvent> = (EVENT_LOG_CAP..2 * EVENT_LOG_CAP)
            .map(|shard| ClusterEvent::ShardUp { shard })
            .collect();
        assert_eq!(cluster.events(), want);
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
