//! `top` — a live, refreshing per-shard dashboard over the wire.
//!
//! Polls every server's `MetricsDump` (typed metric families) and
//! `TraceExport` (tail-sampled trace trees) endpoints and renders one
//! row per shard: open connections, queue-wait p50/p99, median batch
//! size, defense queries, anomalies, SLO error-budget remaining, burn
//! state, and how many tail-sampled traces the shard is holding.
//!
//! With `--servers host:port,...` it watches running servers; without
//! it, a three-shard loopback trio is self-hosted (SLO trackers and
//! trace export enabled) and warmed with a small job mix — including a
//! few impossible deadlines so the error-budget columns move — which
//! makes `top --once` a self-contained CI smoke. `--once` prints one
//! machine-readable `key=value` line per shard and exits; the live mode
//! redraws every second until interrupted.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use tcast::{CaptureModel, ChannelSpec, CollisionModel};
use tcast_net::{
    fetch_metrics, fetch_trace_export, ClusterConfig, NetClientConfig, NetServer, NetServerConfig,
    ShardedClient,
};
use tcast_obs::{Objective, SloTracker, TraceCollectorConfig};
use tcast_service::{metric_names, AlgorithmSpec, Family, QueryJob, QueryService, ServiceConfig};

/// Parameters for one `top` invocation.
#[derive(Debug, Clone)]
pub struct TopSpec {
    /// `host:port` endpoints; empty means "self-host a loopback trio".
    pub servers: Vec<String>,
    /// Render one machine-readable snapshot and exit.
    pub once: bool,
    /// Seconds between live redraws.
    pub refresh: Duration,
    /// Warm-up jobs pushed through a self-hosted trio before the first
    /// poll (ignored when watching external servers).
    pub warmup_jobs: usize,
    /// Base seed for the warm-up mix.
    pub seed: u64,
}

impl Default for TopSpec {
    fn default() -> Self {
        Self {
            servers: Vec::new(),
            once: false,
            refresh: Duration::from_secs(1),
            warmup_jobs: 48,
            seed: 20_110_516,
        }
    }
}

/// One shard's dashboard row, read from its wire-exposed metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRow {
    /// Shard index (position in the endpoint list).
    pub shard: usize,
    /// The endpoint polled.
    pub endpoint: String,
    /// Whether the poll succeeded; a down shard renders dashes.
    pub up: bool,
    /// Open connections (`tcast_net_open_connections`, summed).
    pub conns: u64,
    /// Jobs executed (`tcast_jobs_total`, summed over algorithms).
    pub jobs: u64,
    /// Queue-wait p50 in microseconds.
    pub queue_p50_us: f64,
    /// Queue-wait p99 in microseconds.
    pub queue_p99_us: f64,
    /// Median executed batch size.
    pub batch_p50: f64,
    /// Defense queries spent (`tcast_defense_queries_total`).
    pub defenses: u64,
    /// Anomalous verdicts (`tcast_anomalies_total`).
    pub anomalies: u64,
    /// Worst error-budget remaining across objectives, in `[0, 1]`;
    /// `None` until the shard exposes an SLO section.
    pub budget: Option<f64>,
    /// Whether any objective is fast-burning.
    pub fast_burn: bool,
    /// Tail-sampled traces drained from the shard this poll.
    pub traces: usize,
}

impl ShardRow {
    fn down(shard: usize, endpoint: &str) -> ShardRow {
        ShardRow {
            shard,
            endpoint: endpoint.to_string(),
            ..ShardRow::default()
        }
    }
}

/// Builds one shard's row from its metric families (+ trace haul).
fn row_from_families(shard: usize, endpoint: &str, families: &[Family], traces: usize) -> ShardRow {
    let family = |name| Family::find(families, name);
    let sum = |name| family(name).map_or(0.0, |f| f.values().sum());
    let quantile = |name, q| family(name).and_then(|f| f.quantile(q)).unwrap_or(0.0);
    ShardRow {
        shard,
        endpoint: endpoint.to_string(),
        up: true,
        conns: sum(metric_names::NET_OPEN_CONNECTIONS) as u64,
        jobs: sum(metric_names::JOBS_TOTAL) as u64,
        queue_p50_us: quantile(metric_names::QUEUE_WAIT_MICROSECONDS, 0.5),
        queue_p99_us: quantile(metric_names::QUEUE_WAIT_MICROSECONDS, 0.99),
        batch_p50: quantile(metric_names::BATCH_SIZE_JOBS, 0.5),
        defenses: sum(metric_names::DEFENSE_QUERIES_TOTAL) as u64,
        anomalies: sum(metric_names::ANOMALIES_TOTAL) as u64,
        budget: family(metric_names::SLO_ERROR_BUDGET_REMAINING)
            .and_then(|f| f.values().reduce(f64::min)),
        fast_burn: sum(metric_names::SLO_FAST_BURN) > 0.0,
        traces,
    }
}

/// Polls every endpoint once, in order. A shard that fails either fetch
/// renders as down rather than failing the whole dashboard.
pub fn poll(endpoints: &[String], config: &NetClientConfig) -> Vec<ShardRow> {
    endpoints
        .iter()
        .enumerate()
        .map(|(shard, endpoint)| {
            let Some(addr) = resolve(endpoint) else {
                return ShardRow::down(shard, endpoint);
            };
            let Ok(families) = fetch_metrics(addr, config) else {
                return ShardRow::down(shard, endpoint);
            };
            let traces = fetch_trace_export(addr, config, 64)
                .map(|t| t.len())
                .unwrap_or(0);
            row_from_families(shard, endpoint, &families, traces)
        })
        .collect()
}

fn resolve(endpoint: &str) -> Option<SocketAddr> {
    endpoint.to_socket_addrs().ok()?.next()
}

/// The human dashboard: a fixed-width table, one row per shard.
pub fn render_table(rows: &[ShardRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:<21} {:>5} {:>7} {:>9} {:>9} {:>6} {:>8} {:>9} {:>7} {:>5} {:>6}\n",
        "shard",
        "endpoint",
        "conns",
        "jobs",
        "qwait p50",
        "qwait p99",
        "batch",
        "defenses",
        "anomalies",
        "budget",
        "burn",
        "traces",
    ));
    for r in rows {
        if !r.up {
            out.push_str(&format!("{:<5} {:<21} DOWN\n", r.shard, r.endpoint));
            continue;
        }
        out.push_str(&format!(
            "{:<5} {:<21} {:>5} {:>7} {:>8.0}µ {:>8.0}µ {:>6.1} {:>8} {:>9} {:>7} {:>5} {:>6}\n",
            r.shard,
            r.endpoint,
            r.conns,
            r.jobs,
            r.queue_p50_us,
            r.queue_p99_us,
            r.batch_p50,
            r.defenses,
            r.anomalies,
            r.budget
                .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            if r.fast_burn { "FAST" } else { "ok" },
            r.traces,
        ));
    }
    out
}

/// The `--once` machine-readable form: one `key=value` line per shard,
/// stable keys, no alignment — grep- and CI-friendly.
pub fn render_once(rows: &[ShardRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "shard={} endpoint={} up={} conns={} jobs={} queue_p50_us={:.0} \
                 queue_p99_us={:.0} batch_p50={:.1} defenses={} anomalies={} budget={} \
                 fast_burn={} traces={}\n",
                r.shard,
                r.endpoint,
                r.up,
                r.conns,
                r.jobs,
                r.queue_p50_us,
                r.queue_p99_us,
                r.batch_p50,
                r.defenses,
                r.anomalies,
                r.budget.map_or("-".into(), |b| format!("{b:.4}")),
                r.fast_burn,
                r.traces,
            )
        })
        .collect()
}

/// A self-hosted shard: the server handle plus the service it drives,
/// kept alive for the dashboard's lifetime.
type HostedShard = (NetServer, Arc<QueryService>);

/// A self-hosted loopback trio with the full observability plane on:
/// SLO trackers on every shard's registry, tail-sampled trace export on
/// every server, and a warm-up mix (some jobs carrying impossible
/// deadlines) so every dashboard column is exercised.
fn self_host(spec: &TopSpec) -> Result<(Vec<HostedShard>, Vec<String>), String> {
    let mut hosted = Vec::new();
    let mut endpoints = Vec::new();
    for _ in 0..3 {
        let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
        service
            .metrics_registry()
            .attach_slo(Arc::new(SloTracker::new(vec![
                Objective::latency("e2e-latency", 50_000.0, 0.99),
                Objective::verdicts("verdicts", 0.99),
                Objective::auth("auth", 0.99),
            ])));
        let server = NetServer::bind(
            "127.0.0.1:0",
            service.clone(),
            NetServerConfig::default().with_trace_export(TraceCollectorConfig::default()),
        )
        .map_err(|e| format!("self-host bind failed: {e}"))?;
        endpoints.push(server.local_addr().to_string());
        hosted.push((server, service));
    }

    let cluster = ShardedClient::connect(endpoints.iter().map(String::as_str), {
        ClusterConfig::default()
    })
    .map_err(|e| format!("cluster connect failed: {e}"))?;
    let models = [
        CollisionModel::OnePlus,
        CollisionModel::TwoPlus(CaptureModel::Never),
    ];
    let jobs: Vec<QueryJob> = (0..spec.warmup_jobs as u64)
        .map(|k| {
            let mut job = QueryJob::new(
                AlgorithmSpec::ALL[(k % AlgorithmSpec::ALL.len() as u64) as usize],
                ChannelSpec::ideal(48, (k as usize * 7 + 1) % 49, models[(k % 2) as usize])
                    .seeded(spec.seed ^ (k << 8), spec.seed.wrapping_add(k)),
                6,
                spec.seed.rotate_left(k as u32),
            )
            .with_trace(tcast_obs::TraceId::fresh());
            // One warm-up job in eight blows its deadline on purpose, so
            // the SLO burn and budget columns show real movement.
            if k % 8 == 7 {
                job = job.with_deadline(Duration::from_nanos(1));
            }
            job
        })
        .collect();
    for _result in cluster.submit(jobs).wait() {
        // Deadline blowups are intentional; everything else succeeded
        // or the dashboard will show it.
    }
    cluster.close();
    Ok((hosted, endpoints))
}

/// Runs the dashboard.
///
/// # Errors
///
/// Fails when self-hosting cannot bind or warm up; polls of external
/// servers degrade to DOWN rows instead of erroring.
pub fn run(spec: &TopSpec) -> Result<(), String> {
    let mut hosted = Vec::new();
    let endpoints = if spec.servers.is_empty() {
        let (servers, endpoints) = self_host(spec)?;
        hosted = servers;
        endpoints
    } else {
        spec.servers.clone()
    };
    let config = NetClientConfig::default();

    if spec.once {
        print!("{}", render_once(&poll(&endpoints, &config)));
    } else {
        loop {
            let rows = poll(&endpoints, &config);
            // Clear + home, then the table — a classic `top` redraw.
            print!("\x1b[2J\x1b[H{}", render_table(&rows));
            use std::io::Write;
            let _ = std::io::stdout().flush();
            std::thread::sleep(spec.refresh);
        }
    }

    for (server, _service) in hosted {
        server.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use tcast::QueryReport;
    use tcast_service::{JobOutput, MetricsRegistry, MetricsSnapshot};

    /// A registry as a shard fills it: two algorithms, defenses and
    /// anomalies on both, two open server connections, queue waits and
    /// a batch, and an SLO tracker whose verdict objective burns fast.
    fn shard_snapshot() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        m.attach_slo(Arc::new(SloTracker::new(vec![
            Objective::latency("e2e-latency", 50_000.0, 0.99),
            Objective::verdicts("verdicts", 0.99),
        ])));
        let report = |defense_queries, anomalies| {
            let mut report = QueryReport::trivial(true);
            report.defense_queries = defense_queries;
            report.anomalies = anomalies;
            Ok(JobOutput::Report(report))
        };
        let latency = Duration::from_micros(100);
        for (label, defenses, anomalies) in [
            ("2tBins", 5, 1),
            ("2tBins", 0, 0),
            ("2tBins", 0, 0),
            ("2tBins", 0, 0),
            ("ABNS", 6, 1),
            ("ABNS", 6, 0),
            ("ABNS", 0, 0),
        ] {
            m.record(label, &report(defenses, anomalies), latency);
        }
        let server = m.net_counters("net/server");
        server.conn_opened();
        server.conn_opened();
        m.record_queue_wait(Duration::from_micros(120));
        m.record_queue_wait(Duration::from_micros(4200));
        m.record_batch_size(3);
        m.snapshot()
    }

    #[test]
    fn families_build_a_row() {
        let snap = shard_snapshot();
        let row = row_from_families(1, "10.0.0.1:7777", &snap.families(), 5);
        assert!(row.up);
        assert_eq!(row.jobs, 7, "summed over algorithm labels");
        assert_eq!(row.conns, 2);
        assert_eq!(row.queue_p50_us, snap.queue_wait_hist.quantile(0.5));
        assert_eq!(row.queue_p99_us, snap.queue_wait_hist.quantile(0.99));
        assert_eq!(row.batch_p50, 3.0);
        assert_eq!(row.defenses, 17, "summed over algorithm labels");
        assert_eq!(row.anomalies, 2, "summed over algorithm labels");
        let worst = snap
            .slo_rows
            .iter()
            .map(|r| r.budget_remaining)
            .reduce(f64::min);
        assert_eq!(row.budget, worst, "worst objective wins");
        assert!(worst < Some(1.0), "{:?}", snap.slo_rows);
        assert!(row.fast_burn, "any burning objective flags the shard");
        assert_eq!(row.traces, 5);
    }

    #[test]
    fn renderers_cover_up_and_down_rows() {
        let up = row_from_families(0, "a:1", &shard_snapshot().families(), 1);
        let down = ShardRow::down(1, "b:2");
        let table = render_table(&[up.clone(), down.clone()]);
        assert!(table.contains("qwait p99"), "{table}");
        assert!(table.contains("FAST"), "{table}");
        assert!(table.contains("DOWN"), "{table}");
        let once = render_once(&[up, down]);
        assert!(once.contains("shard=0 endpoint=a:1 up=true"), "{once}");
        assert!(once.contains("budget=0.0000"), "{once}");
        assert!(once.contains("shard=1 endpoint=b:2 up=false"), "{once}");
    }

    /// The end-to-end smoke CI runs: a self-hosted trio with the whole
    /// observability plane on, one poll, machine-readable rows with
    /// real SLO movement (the warm-up injects deadline failures).
    #[test]
    fn self_hosted_trio_yields_live_rows() {
        let spec = TopSpec {
            warmup_jobs: 32,
            ..TopSpec::default()
        };
        let (hosted, endpoints) = self_host(&spec).expect("self-host");
        let rows = poll(&endpoints, &NetClientConfig::default());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.up), "{rows:?}");
        let jobs: u64 = rows.iter().map(|r| r.jobs).sum();
        assert_eq!(jobs, 32, "every warm-up job landed somewhere");
        assert!(
            rows.iter().any(|r| r.budget.is_some()),
            "SLO section missing everywhere: {rows:?}"
        );
        assert!(
            rows.iter().any(|r| r.traces > 0),
            "tail sampler exported nothing: {rows:?}"
        );
        for (server, _service) in hosted {
            server.shutdown();
        }
    }
}
