//! `trace` — run a traced sweep and break every query's latency into
//! phases.
//!
//! Self-hosts a loopback `NetServer`, installs a `tcast-obs`
//! `MemorySink` (plus a `JsonlSink` when an output path is given), and
//! submits a deterministic job mix through a real `NetClient` with a
//! fresh `TraceId` on every job. Each query then leaves one correlated
//! trace spanning wire submit → service queue → engine rounds →
//! response, and the command folds those traces into:
//!
//! * a per-algorithm table splitting mean latency into **queue**
//!   (service queue wait), **engine** (`engine.drive` span), **wire**
//!   (RTT minus server-side time), and **retry** (verified-silence
//!   bursts inside the engine);
//! * a rendering of the slowest-N queries, round by round;
//! * the server's metrics in Prometheus exposition format, fetched over
//!   the wire as typed families with a `MetricsDump` frame and rendered
//!   locally.

use std::collections::HashMap;
use std::fmt::Write as FmtWrite;
use std::path::PathBuf;
use std::sync::Arc;

use tcast::{CaptureModel, ChannelSpec, CollisionModel};
use tcast_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use tcast_obs::{add_sink, JsonlSink, MemorySink, Record, RecordKind, TraceId};
use tcast_service::{render_prometheus, AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

use crate::Table;

/// Parameters for one traced sweep.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Jobs to trace (cycled over every model × algorithm).
    pub jobs: usize,
    /// Population size per job.
    pub n: usize,
    /// Query threshold per job.
    pub t: usize,
    /// Base seed; every job derives its own seeds from it.
    pub seed: u64,
    /// How many of the slowest queries to render in full.
    pub slowest: usize,
    /// When set, every trace record is also written here as JSONL.
    pub jsonl: Option<PathBuf>,
}

/// Everything a traced sweep produces.
pub struct TraceRun {
    /// Per-algorithm phase breakdown (mean microseconds per phase).
    pub table: Table,
    /// Rendering of the slowest-N queries, round by round.
    pub slowest: String,
    /// The server's metrics, fetched over the wire in Prometheus
    /// exposition format.
    pub exposition: String,
    /// Where the JSONL trace landed, if requested.
    pub jsonl: Option<PathBuf>,
}

const MODELS: [CollisionModel; 3] = [
    CollisionModel::OnePlus,
    CollisionModel::TwoPlus(CaptureModel::Never),
    CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
];

/// One query's phase split, reconstructed from its trace records.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    rtt_us: u64,
    queue_us: u64,
    engine_us: u64,
    wire_us: u64,
    retry_us: u64,
    rounds: u64,
}

fn phases_of(records: &[Record]) -> Option<Phases> {
    let mut p = Phases::default();
    let mut service_ns = 0u64;
    let mut saw_rtt = false;
    for r in records {
        match (r.name, r.kind) {
            ("service.execute", RecordKind::SpanStart) => {
                p.queue_us = r.field("queue_wait_us").unwrap_or(0);
            }
            ("service.execute", RecordKind::SpanEnd) => service_ns = r.dur_ns,
            ("engine.drive", RecordKind::SpanEnd) => p.engine_us = r.dur_ns / 1_000,
            ("engine.retry", RecordKind::Event) => {
                p.retry_us += r.field("dur_ns").unwrap_or(0) / 1_000;
            }
            ("engine.round", RecordKind::Event) => p.rounds += 1,
            ("net.rtt", RecordKind::Event) => {
                p.rtt_us = r.field("us").unwrap_or(0);
                saw_rtt = true;
            }
            _ => {}
        }
    }
    if !saw_rtt {
        return None;
    }
    // The RTT covers queue wait + execution + everything else (frame
    // codec, kernel, scheduling); the remainder is the wire share.
    p.wire_us = p.rtt_us.saturating_sub(p.queue_us + service_ns / 1_000);
    Some(p)
}

fn job_mix(spec: &TraceSpec) -> Vec<(TraceId, QueryJob)> {
    (0..spec.jobs as u64)
        .map(|k| {
            let model = MODELS[(k % MODELS.len() as u64) as usize];
            let algorithm = AlgorithmSpec::ALL[(k % AlgorithmSpec::ALL.len() as u64) as usize];
            let x = (k as usize * 7 + 1) % (spec.n + 1);
            let trace = TraceId::fresh();
            let job = QueryJob::new(
                algorithm,
                ChannelSpec::ideal(spec.n, x, model)
                    .seeded(spec.seed ^ (k << 8), spec.seed.wrapping_add(k)),
                spec.t,
                spec.seed.rotate_left(k as u32),
            )
            .with_trace(trace);
            (trace, job)
        })
        .collect()
}

fn render_slowest(
    slowest: &[(TraceId, &'static str, Phases)],
    by_trace: &HashMap<TraceId, Vec<Record>>,
    total: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "slowest {} of {} traced queries:",
        slowest.len(),
        total
    );
    for (rank, (trace, algorithm, p)) in slowest.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{} trace {trace} {algorithm}: rtt {}us = queue {}us + engine {}us \
             (retry {}us of it) + wire {}us, {} rounds",
            rank + 1,
            p.rtt_us,
            p.queue_us,
            p.engine_us,
            p.retry_us,
            p.wire_us,
            p.rounds,
        );
        for r in &by_trace[trace] {
            if r.name == "engine.round" && r.kind == RecordKind::Event {
                let f = |name: &str| r.field(name).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "      round: bins={} queried={} silent={} eliminated={} captured={} \
                     retries={} remaining={}",
                    f("bins"),
                    f("queried_bins"),
                    f("silent_bins"),
                    f("eliminated"),
                    f("captured"),
                    f("retries"),
                    f("remaining"),
                );
            }
        }
    }
    out
}

/// Runs the traced sweep.
///
/// # Errors
///
/// Fails when the loopback server cannot bind, any job fails remotely,
/// or the wire metrics fetch fails.
pub fn run(spec: &TraceSpec) -> Result<TraceRun, String> {
    let sink = Arc::new(MemorySink::new());
    let _mem_guard = add_sink(sink.clone());
    let _jsonl_guard = match &spec.jsonl {
        Some(path) => {
            let jsonl = JsonlSink::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Some(add_sink(Arc::new(jsonl)))
        }
        None => None,
    };

    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .map_err(|e| format!("self-host bind failed: {e}"))?;
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default())
        .map_err(|e| format!("loopback connect failed: {e}"))?;

    let mix = job_mix(spec);
    let algorithms: Vec<&'static str> = mix.iter().map(|(_, j)| j.algorithm.name()).collect();
    let traces: Vec<TraceId> = mix.iter().map(|(t, _)| *t).collect();
    let jobs: Vec<QueryJob> = mix.into_iter().map(|(_, j)| j).collect();
    for (k, result) in client.submit(jobs).wait().into_iter().enumerate() {
        result.map_err(|e| format!("traced job {k} failed: {e}"))?;
    }

    let families = client
        .server_metrics()
        .map_err(|e| format!("wire metrics fetch failed: {e}"))?;
    let exposition = render_prometheus(&families);

    client.close();
    server.shutdown();
    tcast_obs::flush();

    // Group the sink by trace and reconstruct each query's phase split.
    let mut by_trace: HashMap<TraceId, Vec<Record>> = HashMap::new();
    for r in sink.take() {
        if r.trace.is_some() {
            by_trace.entry(r.trace).or_default().push(r);
        }
    }
    let mut per_query: Vec<(TraceId, &'static str, Phases)> = Vec::new();
    let mut per_algorithm: HashMap<&'static str, (u64, Phases)> = HashMap::new();
    for (trace, &algorithm) in traces.iter().zip(&algorithms) {
        let Some(p) = by_trace.get(trace).and_then(|rs| phases_of(rs)) else {
            continue;
        };
        per_query.push((*trace, algorithm, p));
        let (count, sum) = per_algorithm.entry(algorithm).or_default();
        *count += 1;
        sum.rtt_us += p.rtt_us;
        sum.queue_us += p.queue_us;
        sum.engine_us += p.engine_us;
        sum.wire_us += p.wire_us;
        sum.retry_us += p.retry_us;
        sum.rounds += p.rounds;
    }

    let mut table = Table::new(
        "trace",
        &format!(
            "{} traced queries (N={}, t={}, seed {}) through a loopback server — \
             mean microseconds per phase",
            per_query.len(),
            spec.n,
            spec.t,
            spec.seed,
        ),
        &[
            "algorithm",
            "queries",
            "rtt us",
            "queue us",
            "engine us",
            "retry us",
            "wire us",
        ],
    );
    for algorithm in AlgorithmSpec::ALL.map(AlgorithmSpec::name) {
        let Some((count, sum)) = per_algorithm.get(algorithm) else {
            continue;
        };
        let mean = |v: u64| (v / count.max(&1)).to_string();
        table.push_row(vec![
            algorithm.to_string(),
            count.to_string(),
            mean(sum.rtt_us),
            mean(sum.queue_us),
            mean(sum.engine_us),
            mean(sum.retry_us),
            mean(sum.wire_us),
        ]);
    }

    per_query.sort_by_key(|(_, _, p)| std::cmp::Reverse(p.rtt_us));
    let total = per_query.len();
    per_query.truncate(spec.slowest);
    let slowest = render_slowest(&per_query, &by_trace, total);

    Ok(TraceRun {
        table,
        slowest,
        exposition,
        jsonl: spec.jsonl.clone(),
    })
}

#[cfg(test)]
impl TraceRun {
    /// Total traced-query count summed over the table rows.
    fn rows_traced(&self) -> Option<usize> {
        let total: usize = self
            .table
            .rows
            .iter()
            .map(|r| r[1].parse::<usize>().unwrap_or(0))
            .sum();
        (total > 0).then_some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_sweep_breaks_latency_into_phases() {
        let dir = std::env::temp_dir().join(format!("tcast-trace-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let run = run(&TraceSpec {
            jobs: 16,
            n: 32,
            t: 4,
            seed: 11,
            slowest: 2,
            jsonl: Some(path.clone()),
        })
        .expect("traced sweep");
        let traced: usize = run
            .rows_traced()
            .expect("at least one algorithm row with traced queries");
        assert_eq!(traced, 16, "every job must leave a full trace");
        assert!(run.slowest.contains("slowest 2 of 16"), "{}", run.slowest);
        assert!(run.exposition.contains("# TYPE tcast_jobs_total counter"));
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"name\":\"engine.drive\"")),
            "JSONL must hold the engine spans"
        );
        let _ = std::fs::remove_file(&path);
    }
}
