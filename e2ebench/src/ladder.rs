//! The traced run: a workload's own jobs sent up a ladder of layers —
//! engine, channel, codec and frame, in-process service, one
//! `NetServer`, the cluster — each rung timed at one job in flight around
//! the public call, then the workload's closed loop run untraced and
//! traced. Every number is measured at a layer boundary from the
//! benchmark's side; a layer's self time is its rung minus the rung below.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    BatchRunner, CollisionModel, EngineScratch, ExecutionProfile, GroupQueryChannel, NodeId,
    Observation, QueryReport, ThresholdQuerier, WireDecode, WireEncode,
};
use tcast_net::{Frame, NetClient, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4};
use tcast_service::{AlgorithmSpec, MetricsSnapshot, QueryJob};

use crate::jobs::{Stream, Workload};
use crate::probe::{allocs, median, Meter, Samples};
use crate::run::Tally;
use crate::stack::{
    from_net, from_service, timed_setup, Cluster, InProcess, Tenanted, JOB_TIMEOUT,
};
use crate::trace::{Spans, NO_JOB, ROOT};
use crate::{MainStack, Metric};

/// Shares of `--seconds` given to each step of the traced run.
const SHARE_ENGINE: f64 = 0.12;
const SHARE_CHANNEL: f64 = 0.12;
const SHARE_CODEC: f64 = 0.04;
const SHARE_FRAME: f64 = 0.04;
const SHARE_SERVICE: f64 = 0.10;
const SHARE_NET: f64 = 0.12;
const SHARE_CLUSTER: f64 = 0.12;
const SHARE_MAIN: f64 = 0.17;

fn share(total: Duration, s: f64) -> Duration {
    total.mul_f64(s)
}

/// Calls `pass` until `budget` has elapsed (at least once); returns the
/// number of passes.
fn passes(budget: Duration, mut pass: impl FnMut()) -> u64 {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        pass();
        n += 1;
        if t0.elapsed() >= budget {
            return n;
        }
    }
}

/// What the traced run hands back: the per-layer metrics plus the
/// human-readable ladder table.
pub struct Ladder {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

pub fn run(
    workload: Workload,
    stream: &Stream,
    total: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<Ladder, String> {
    let mut m = Vec::new();
    let mut lines = Vec::new();

    let engine = engine_rung(stream, share(total, SHARE_ENGINE), tally, spans);
    m.push(Metric::new(
        "core.engine.ns_per_job",
        engine.ns_per_job,
        "ns",
    ));
    m.push(Metric::new(
        "core.engine.allocs_per_job",
        engine.allocs_per_job,
        "count",
    ));
    for (name, total) in [
        ("core.engine.queries_per_job", engine.queries),
        ("core.engine.rounds_per_job", engine.rounds),
        ("core.engine.retry_queries_per_job", engine.retry_queries),
        (
            "core.engine.defense_queries_per_job",
            engine.defense_queries,
        ),
    ] {
        m.push(Metric::new(
            name,
            total as f64 / stream.len() as f64,
            "count",
        ));
    }

    let channel = channel_rung(stream, share(total, SHARE_CHANNEL), tally, spans);
    let channel_ns_per_job = channel.ns_per_query * channel.queries_per_job;
    let share_of_engine = channel_ns_per_job / engine.ns_per_job;
    m.push(Metric::new(
        "core.channel.ns_per_query",
        channel.ns_per_query,
        "ns",
    ));
    m.push(Metric::new(
        "core.channel.allocs_per_query",
        channel.allocs_per_query,
        "count",
    ));
    m.push(Metric::new(
        "core.channel.share_of_engine",
        share_of_engine,
        "ratio",
    ));
    lines.push(format!(
        "core.channel.share_of_engine = {share_of_engine:.3}: channel {:.0} ns/job \
         ({:.1} queries x {:.1} ns, timer bias {:.1} ns/query removed) of engine {:.0} ns/job",
        channel_ns_per_job,
        channel.queries_per_job,
        channel.ns_per_query,
        channel.timer_bias_ns,
        engine.ns_per_job,
    ));

    m.extend(codec_rung(stream, share(total, SHARE_CODEC), tally, spans));
    m.extend(frame_rung(stream, share(total, SHARE_FRAME), tally, spans));

    let service = InProcess::start(stream)?;
    let service_rtt = rtt_loop(
        "service.submit_wait",
        stream,
        share(total, SHARE_SERVICE),
        tally,
        spans,
        |_, job| match service.service.submit(vec![job]) {
            Ok(batch) => from_service(batch.wait().pop().expect("one result per job")),
            Err(e) => Err(e.to_string()),
        },
    );
    service.stop();
    m.push(Metric::new("service.rtt_p50_us", service_rtt[0], "us"));
    m.push(Metric::new("service.rtt_p99_us", service_rtt[1], "us"));

    // The tenanted server and cluster rungs; their counters stand in for
    // the `tenant`, `net` and `net.cluster` layers on workloads whose own
    // stack has no such layer.
    let mut connects = Vec::new();
    let (net_stack, _) = timed_setup(
        3,
        || Tenanted::start(stream),
        |s| {
            connects.extend(s.connect_s);
            s.stop();
        },
    )?;
    connects.extend(net_stack.connect_s);
    let mut net_jobs = 1;
    let net_rtt = rtt_loop(
        "net.submit_wait",
        stream,
        share(total, SHARE_NET),
        tally,
        spans,
        |i, job| {
            net_jobs += 1;
            from_net(
                net_stack
                    .client(i)
                    .submit_one(job)
                    .wait_timeout(JOB_TIMEOUT),
            )
        },
    );
    m.push(Metric::new(
        "tenant.connect_ms",
        median(&connects) * 1e3,
        "ms",
    ));
    m.push(Metric::new("net.rtt_p50_us", net_rtt[0], "us"));
    m.push(Metric::new("net.rtt_p99_us", net_rtt[1], "us"));
    let ladder_net = NetView::read(&net_stack, net_jobs);
    net_stack.stop();

    let cluster = Cluster::start(stream)?;
    let cluster_rtt = rtt_loop(
        "net.cluster.submit_wait",
        stream,
        share(total, SHARE_CLUSTER),
        tally,
        spans,
        |_, job| from_net(cluster.client.submit(vec![job]).wait().pop()),
    );
    m.push(Metric::new("net.cluster.rtt_p50_us", cluster_rtt[0], "us"));
    m.push(Metric::new("net.cluster.rtt_p99_us", cluster_rtt[1], "us"));
    let ladder_cluster = ClusterView::read(&cluster, stream);
    cluster.stop();

    // The workload's own stack: closed loop untraced, then traced.
    let main = MainStack::start(workload, stream)?;
    let budget = share(total, SHARE_MAIN);
    let untraced = main.closed_loop(stream, budget, tally, None);
    let main_root = spans.reserve();
    let t0 = Instant::now();
    let traced = main.closed_loop(stream, budget, tally, Some(spans));
    spans.record_as(
        main_root,
        "main.closed_loop.traced",
        t0,
        Instant::now(),
        ROOT,
        NO_JOB,
    );
    let overhead = traced.jobs_per_s() / untraced.jobs_per_s();
    m.push(Metric::new("trace.overhead", overhead, "ratio"));
    lines.push(format!(
        "trace.overhead = {overhead:.4}: traced {:.0} jobs/s / untraced {:.0} jobs/s",
        traced.jobs_per_s(),
        untraced.jobs_per_s()
    ));
    let cpu_us_per_job = untraced.cpu_us_per_job();
    let main_jobs = 1 + untraced.completed() + traced.completed();

    let (snapshots, main_net, main_cluster) = match main {
        MainStack::Sweep(stack) => (vec![stack.stop()], None, None),
        MainStack::Serve(stack) => {
            let view = NetView::read(&stack, main_jobs);
            (vec![stack.stop()], Some(view), None)
        }
        MainStack::Cluster(stack) => {
            let view = ClusterView::read(&stack, stream);
            (stack.stop(), None, Some(view))
        }
    };
    m.extend(service_snapshot(&snapshots));
    m.extend(main_net.unwrap_or(ladder_net).metrics());
    m.extend(main_cluster.unwrap_or(ladder_cluster).metrics());

    lines.push(format!(
        "self time at 1 in flight, p50 rung minus the rung below: engine {:.1} us, \
         service {:.1} us, net server {:.1} us, cluster client {:.1} us",
        engine.ns_per_job / 1e3,
        service_rtt[0] - engine.ns_per_job / 1e3,
        net_rtt[0] - service_rtt[0],
        cluster_rtt[0] - net_rtt[0],
    ));
    for name in [
        "core.engine.ns_per_job",
        "core.codec.job_encode_ns",
        "core.codec.report_encode_ns",
        "core.codec.report_decode_ns",
        "net.frame.encode_ns",
        "net.frame.decode_ns",
    ] {
        let v = m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
        let ok = v / 1e3 < cpu_us_per_job;
        lines.push(format!(
            "part-of-whole: {name} = {:.3} us {} cpu_us_per_job {cpu_us_per_job:.3} us",
            v / 1e3,
            if ok { "<" } else { "NOT <" }
        ));
    }
    Ok(Ladder { metrics: m, lines })
}

// ---------------------------------------------------------------------
// core.engine
// ---------------------------------------------------------------------

#[derive(Default)]
struct EngineRung {
    ns_per_job: f64,
    allocs_per_job: f64,
    /// Totals over one pass of the stream, counted from the replay's own
    /// reports.
    queries: u64,
    rounds: u64,
    retry_queries: u64,
    defense_queries: u64,
}

/// Single-thread replay of the stream through `QueryJob::execute_in`:
/// one verified and counted pass with a span per job, then whole
/// unspanned passes timed together.
fn engine_rung(
    stream: &Stream,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> EngineRung {
    let rung = spans.reserve();
    let start = Instant::now();
    let mut scratch = EngineScratch::new();
    let mut counted = EngineRung::default();
    for (i, job) in stream.jobs.iter().enumerate() {
        let t = Instant::now();
        let report = job.execute_in(&mut scratch);
        spans.record("core.engine.execute_in", t, Instant::now(), rung, i as u64);
        counted.queries += report.queries;
        counted.rounds += u64::from(report.rounds);
        counted.retry_queries += report.retry_queries;
        counted.defense_queries += report.defense_queries;
        tally.record(stream, i, &Ok(report));
    }
    let meter = Meter::start();
    let t = Instant::now();
    let n = passes(budget, || {
        for job in &stream.jobs {
            black_box(job.execute_in(&mut scratch));
        }
    });
    let elapsed = t.elapsed();
    let allocs = meter.read().allocs;
    spans.record("core.engine.replay", t, Instant::now(), rung, NO_JOB);
    spans.record_as(rung, "core.engine", start, Instant::now(), ROOT, NO_JOB);
    let jobs = (n * stream.len() as u64) as f64;
    EngineRung {
        ns_per_job: elapsed.as_nanos() as f64 / jobs,
        allocs_per_job: allocs as f64 / jobs,
        ..counted
    }
}

// ---------------------------------------------------------------------
// core.channel
// ---------------------------------------------------------------------

/// A benchmark-owned timing wrapper around a production channel: time
/// and allocations inside `query` only.
struct TimedChannel {
    inner: Box<dyn GroupQueryChannel + Send>,
    busy_ns: u64,
    queries: u64,
    allocs: u64,
}

impl GroupQueryChannel for TimedChannel {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        let a = allocs();
        let t = Instant::now();
        let observation = self.inner.query(members);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.allocs += allocs() - a;
        self.queries += 1;
        observation
    }

    fn model(&self) -> CollisionModel {
        self.inner.model()
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// The live algorithm for a job, as `QueryJob::execute` builds it.
fn querier(algorithm: AlgorithmSpec, truth: Vec<bool>) -> Box<dyn ThresholdQuerier> {
    use tcast::{Abns, ExpIncrease, OracleBins, ProbAbns, TwoTBins};
    match algorithm {
        AlgorithmSpec::TwoTBins => Box::new(TwoTBins),
        AlgorithmSpec::ExpIncrease => Box::new(ExpIncrease::standard()),
        AlgorithmSpec::ExpIncreasePause => Box::new(ExpIncrease::pause_and_continue(0.4)),
        AlgorithmSpec::ExpIncreaseFourFold => Box::new(ExpIncrease::four_fold()),
        AlgorithmSpec::AbnsP0T => Box::new(Abns::p0_t()),
        AlgorithmSpec::AbnsP02T => Box::new(Abns::p0_2t()),
        AlgorithmSpec::ProbAbns => Box::new(ProbAbns::standard()),
        AlgorithmSpec::OracleBins => Box::new(OracleBins::new(truth)),
    }
}

/// Mean time `Instant::elapsed` reports for an empty interval: the bias
/// every timed `query` carries.
fn timer_bias_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = 0u128;
    for _ in 0..N {
        let a = allocs();
        let t = Instant::now();
        total += t.elapsed().as_nanos();
        black_box(allocs() - a);
    }
    total as f64 / f64::from(N)
}

struct ChannelRung {
    ns_per_query: f64,
    allocs_per_query: f64,
    queries_per_job: f64,
    timer_bias_ns: f64,
}

/// Replays the stream through `BatchRunner::run_with` over channels from
/// `tcast_adversary::build_with_truth` wrapped in [`TimedChannel`]; every
/// report is checked against the stream's reference, which
/// `execute_in` reproduced on the engine rung.
fn channel_rung(
    stream: &Stream,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> ChannelRung {
    let start = Instant::now();
    let timer_bias_ns = timer_bias_ns();
    let mut runner = BatchRunner::new(ExecutionProfile::new());
    let (mut busy_ns, mut queries, mut allocs) = (0u64, 0u64, 0u64);
    let mut jobs = 0u64;
    passes(budget, || {
        for (i, job) in stream.jobs.iter().enumerate() {
            let (inner, truth) = tcast_adversary::build_with_truth(&job.channel);
            let algorithm = querier(job.algorithm, truth);
            let mut channel = TimedChannel {
                inner,
                busy_ns: 0,
                queries: 0,
                allocs: 0,
            };
            let mut rng = SmallRng::seed_from_u64(job.session_seed);
            let profile = ExecutionProfile::new()
                .with_retry(job.retry_policy())
                .with_defense(job.channel.defense);
            let nodes = runner.scratch().take_population(job.channel.n);
            let report = runner.run_with(
                profile,
                algorithm.as_ref(),
                &nodes,
                job.t,
                &mut channel,
                &mut rng,
            );
            runner.scratch().restore_population(nodes);
            tally.record(stream, i, &Ok(report));
            busy_ns += channel.busy_ns;
            queries += channel.queries;
            allocs += channel.allocs;
            jobs += 1;
        }
    });
    spans.record("core.channel", start, Instant::now(), ROOT, NO_JOB);
    let queries_f = queries.max(1) as f64;
    ChannelRung {
        ns_per_query: (busy_ns as f64 / queries_f - timer_bias_ns).max(0.0),
        allocs_per_query: allocs as f64 / queries_f,
        queries_per_job: queries as f64 / jobs as f64,
        timer_bias_ns,
    }
}

// ---------------------------------------------------------------------
// core.codec and net.frame
// ---------------------------------------------------------------------

/// Mean ns per item of `op` over `items`, in whole passes until `budget`.
fn ns_per_item<T>(items: &[T], budget: Duration, mut op: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    let n = passes(budget, || items.iter().for_each(&mut op));
    t.elapsed().as_nanos() as f64 / (n * items.len() as u64) as f64
}

/// `WireEncode`/`WireDecode` on the stream's own jobs (their
/// `ChannelSpec`, the codec-encoded part of a job) and reports.
fn codec_rung(
    stream: &Stream,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Vec<Metric> {
    let start = Instant::now();
    let third = budget / 3;
    let encoded: Vec<Vec<u8>> = stream.refs.iter().map(WireEncode::to_wire).collect();
    for (i, bytes) in encoded.iter().enumerate() {
        let decoded = QueryReport::from_wire(bytes).map_err(|e| e.to_string());
        tally.record(stream, i, &decoded);
    }
    let mut buf = Vec::with_capacity(4096);
    let job_encode = ns_per_item(&stream.jobs, third, |job| {
        buf.clear();
        job.channel.encode(&mut buf);
        black_box(&buf);
    });
    let report_encode = ns_per_item(&stream.refs, third, |report| {
        buf.clear();
        report.encode(&mut buf);
        black_box(&buf);
    });
    let report_decode = ns_per_item(&encoded, third, |bytes| {
        black_box(QueryReport::from_wire(bytes).expect("verified above"));
    });
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    spans.record("core.codec", start, Instant::now(), ROOT, NO_JOB);
    vec![
        Metric::new("core.codec.job_encode_ns", job_encode, "ns"),
        Metric::new("core.codec.report_encode_ns", report_encode, "ns"),
        Metric::new("core.codec.report_decode_ns", report_decode, "ns"),
        Metric::new("core.codec.report_bytes", bytes, "bytes"),
    ]
}

/// `Frame::encode_into` (Submit), `Frame::encode_job_ok_into`, and
/// `Frame::from_bytes` on both, per job, at the newest protocol version.
fn frame_rung(
    stream: &Stream,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Vec<Metric> {
    let start = Instant::now();
    let half = budget / 2;
    let pairs: Vec<(u64, QueryJob, &QueryReport)> = stream
        .jobs
        .iter()
        .zip(&stream.refs)
        .enumerate()
        .map(|(i, (job, report))| (i as u64 + 1, *job, report))
        .collect();
    let wire: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|&(request_id, job, report)| {
            let mut submit = Vec::new();
            Frame::Submit { request_id, job }.encode_into(&mut submit, PROTOCOL_V4);
            let mut ok = Vec::new();
            Frame::encode_job_ok_into(&mut ok, PROTOCOL_V4, request_id, report);
            (submit, ok)
        })
        .collect();
    for (i, (submit, ok)) in wire.iter().enumerate() {
        let job_back = matches!(
            Frame::from_bytes(submit, DEFAULT_MAX_PAYLOAD),
            Ok(Frame::Submit { job, .. }) if job.cache_key() == stream.jobs[i].cache_key()
        );
        let outcome = match Frame::from_bytes(ok, DEFAULT_MAX_PAYLOAD) {
            Ok(Frame::JobOk { report, .. }) if job_back => Ok(report),
            Ok(other) => Err(format!("unexpected frame {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        tally.record(stream, i, &outcome);
    }
    let mut buf = Vec::with_capacity(8192);
    let encode = ns_per_item(&pairs, half, |&(request_id, job, report)| {
        buf.clear();
        Frame::Submit { request_id, job }.encode_into(&mut buf, PROTOCOL_V4);
        Frame::encode_job_ok_into(&mut buf, PROTOCOL_V4, request_id, report);
        black_box(&buf);
    });
    let decode = ns_per_item(&wire, half, |(submit, ok)| {
        black_box(Frame::from_bytes(submit, DEFAULT_MAX_PAYLOAD).expect("verified above"));
        black_box(Frame::from_bytes(ok, DEFAULT_MAX_PAYLOAD).expect("verified above"));
    });
    let bytes =
        wire.iter().map(|(s, o)| s.len() + o.len()).sum::<usize>() as f64 / wire.len() as f64;
    spans.record("net.frame", start, Instant::now(), ROOT, NO_JOB);
    vec![
        Metric::new("net.frame.encode_ns", encode, "ns"),
        Metric::new("net.frame.decode_ns", decode, "ns"),
        Metric::new("net.frame.bytes_per_job", bytes, "bytes"),
    ]
}

// ---------------------------------------------------------------------
// service, net, cluster: one job in flight
// ---------------------------------------------------------------------

/// One job in flight through `roundtrip` until `budget`; returns the
/// round trip's p50 and p99 in microseconds.
fn rtt_loop(
    name: &'static str,
    stream: &Stream,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
    mut roundtrip: impl FnMut(usize, QueryJob) -> crate::stack::Outcome,
) -> [f64; 2] {
    let rung = spans.reserve();
    let start = Instant::now();
    let mut rtt = Samples::default();
    let mut k = 0;
    while start.elapsed() < budget {
        let (i, job) = stream.cycle(k);
        k += 1;
        let t = Instant::now();
        let outcome = roundtrip(i, job);
        let done = Instant::now();
        rtt.push(done - t);
        spans.record(name, t, done, rung, i as u64);
        tally.record(stream, i, &outcome);
    }
    spans.record_as(rung, name, start, Instant::now(), ROOT, NO_JOB);
    let q = rtt.quantiles_us(&[0.5, 0.99]);
    [q[0], q[1]]
}

// ---------------------------------------------------------------------
// Counters read from a stack's public metrics
// ---------------------------------------------------------------------

/// Service-wide queue wait and dequeue batch size, folded over `snaps`.
/// The p99 comes from the service's bucketed histogram and is clamped to
/// the summary's observed maximum, since a bucket bound can overshoot it.
fn service_snapshot(snaps: &[MetricsSnapshot]) -> Vec<Metric> {
    let mut queue_wait = snaps[0].queue_wait_us;
    let mut queue_hist = snaps[0].queue_wait_hist.clone();
    let mut batch = snaps[0].batch_size;
    for s in &snaps[1..] {
        queue_wait.merge(&s.queue_wait_us);
        queue_hist.merge(&s.queue_wait_hist);
        batch.merge(&s.batch_size);
    }
    vec![
        Metric::new("service.queue_wait_mean_us", queue_wait.mean(), "us"),
        Metric::new(
            "service.queue_wait_p99_us",
            queue_hist.quantile(0.99).min(queue_wait.max()),
            "us",
        ),
        Metric::new("service.batch_size_mean", batch.mean(), "count"),
    ]
}

/// The `tenant` and `net` counters of one tenanted server and its two
/// clients.
struct NetView {
    gold_wait_us: f64,
    bronze_wait_us: f64,
    quota_rejections: u64,
    busy_resends: u64,
    out_of_order: u64,
    busy_rejections: u64,
    decode_errors: u64,
    bytes_per_job: f64,
}

impl NetView {
    fn read(stack: &Tenanted, jobs: u64) -> Self {
        let snap = stack.metrics();
        let wait = |name: &str| {
            snap.tenant_rows
                .iter()
                .find(|r| r.tenant == name)
                .map_or(0.0, |r| r.queue_wait_us.mean())
        };
        let clients: [&NetClient; 2] = [&stack.gold, &stack.bronze];
        let bytes: u64 = snap.net_rows.iter().map(|r| r.bytes_in + r.bytes_out).sum();
        Self {
            gold_wait_us: wait("gold"),
            bronze_wait_us: wait("bronze"),
            quota_rejections: snap.tenant_rows.iter().map(|r| r.quota_rejections).sum(),
            busy_resends: clients.iter().map(|c| c.busy_resends()).sum(),
            out_of_order: clients.iter().map(|c| c.out_of_order_responses()).sum(),
            busy_rejections: snap.net_rows.iter().map(|r| r.busy_rejections).sum(),
            decode_errors: snap.net_rows.iter().map(|r| r.decode_errors).sum(),
            bytes_per_job: bytes as f64 / jobs.max(1) as f64,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("tenant.gold.queue_wait_mean_us", self.gold_wait_us, "us"),
            Metric::new(
                "tenant.bronze.queue_wait_mean_us",
                self.bronze_wait_us,
                "us",
            ),
            Metric::new(
                "tenant.quota_rejections",
                self.quota_rejections as f64,
                "count",
            ),
            Metric::new("net.busy_resends", self.busy_resends as f64, "count"),
            Metric::new("net.out_of_order", self.out_of_order as f64, "count"),
            Metric::new(
                "net.server.busy_rejections",
                self.busy_rejections as f64,
                "count",
            ),
            Metric::new(
                "net.server.decode_errors",
                self.decode_errors as f64,
                "count",
            ),
            Metric::new("net.server.bytes_per_job", self.bytes_per_job, "bytes"),
        ]
    }
}

/// Cluster events so far, and how evenly `route_of` spreads the stream.
struct ClusterView {
    events: usize,
    shard_skew: f64,
}

impl ClusterView {
    fn read(cluster: &Cluster, stream: &Stream) -> Self {
        let mut per_shard = [0u64; Cluster::SHARDS];
        for job in &stream.jobs {
            if let Some(shard) = cluster.client.route_of(job) {
                per_shard[shard] += 1;
            }
        }
        let mean = stream.len() as f64 / Cluster::SHARDS as f64;
        Self {
            events: cluster.client.events().len(),
            shard_skew: *per_shard.iter().max().expect("at least one shard") as f64 / mean,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("net.cluster.reroutes", self.events as f64, "count"),
            Metric::new("net.cluster.shard_skew", self.shard_skew, "ratio"),
        ]
    }
}
