//! A cheap served job may run on the server's I/O thread instead of a
//! service worker (`SubmitOptions::inline`). These tests pin that the
//! inline run is indistinguishable from a worker's everywhere but in
//! which thread ran it: the same response bytes, the same metrics and
//! tenant accounting, well-nested spans. They also pin when it must not
//! happen: behind a queued backlog, where DRR order must stay exactly
//! what `BENCH_fairness.json` records, and for jobs whose shape costs
//! more than `INLINE_MAX_QUERIES` group queries.
//!
//! Which thread ran a job is read off a trace sink: each thread drains
//! its own ring into the sinks, so the sink sees the thread's name.

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tcast::{ChannelSpec, CollisionModel, DefensePolicy, LossConfig, RetryPolicy};
use tcast_net::{
    Frame, FrameReader, NetClient, NetClientConfig, NetServer, NetServerConfig, TenantAuth,
    DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_obs::{add_sink, check_nesting, Record, RecordKind, TraceId, TraceSink};
use tcast_service::{
    AlgorithmSpec, JobOutput, MetricsSnapshot, QueryJob, QueryService, ServiceConfig,
};
use tcast_tenant::{auth_mac, TenantRegistry, TenantSpec};

const IO_THREAD: &str = "tcast-net-io-0";
const TIMEOUT: Duration = Duration::from_secs(10);

/// Every record any thread drains, with the draining thread's name.
#[derive(Default)]
struct ThreadSink {
    records: Mutex<Vec<(String, Record)>>,
}

impl TraceSink for ThreadSink {
    fn consume(&self, records: &[Record]) {
        let thread = std::thread::current().name().unwrap_or("").to_string();
        let mut held = self.records.lock().unwrap();
        held.extend(records.iter().map(|r| (thread.clone(), *r)));
    }
}

impl ThreadSink {
    fn for_trace(&self, trace: TraceId) -> Vec<(String, Record)> {
        let held = self.records.lock().unwrap();
        held.iter()
            .filter(|(_, r)| r.trace == trace)
            .cloned()
            .collect()
    }

    /// The thread that ran `trace`'s job, once its execute span closed.
    fn executor(&self, trace: TraceId) -> Option<String> {
        self.for_trace(trace)
            .into_iter()
            .find(|(_, r)| r.name == "service.execute" && r.kind == RecordKind::SpanEnd)
            .map(|(thread, _)| thread)
    }

    /// Waits up to [`TIMEOUT`] for `trace`'s executor.
    fn await_executor(&self, trace: TraceId) -> String {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if let Some(thread) = self.executor(trace) {
                return thread;
            }
            assert!(Instant::now() < deadline, "no execute span for {trace:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A serve-shaped job: 2tBins at N=128, t=16, 1+ model.
fn cheap_job(seed: u64) -> QueryJob {
    let channel = ChannelSpec::ideal(128, 15, CollisionModel::OnePlus).seeded(seed, seed ^ 0x3c);
    QueryJob::new(AlgorithmSpec::TwoTBins, channel, 16, seed)
}

/// A cluster_hardened-shaped job: an exact algorithm at N=512, t=64, 2+
/// model on a lossy channel, with verified-silence retries and hardened
/// defenses.
fn hardened_job(seed: u64) -> QueryJob {
    let channel = ChannelSpec::lossy(
        512,
        64,
        CollisionModel::two_plus_default(),
        LossConfig::default(),
    )
    .seeded(seed, seed ^ 0x5a)
    .with_retry(RetryPolicy::verified(2))
    .with_defense(DefensePolicy::hardened());
    QueryJob::new(AlgorithmSpec::TwoTBins, channel, 64, seed)
}

fn tenanted(names: &[(&str, &[u8], u32)], workers: usize) -> (NetServer, Arc<QueryService>) {
    let mut registry = TenantRegistry::new();
    for &(name, key, weight) in names {
        registry.register(
            TenantSpec::new(name, key)
                .weight(weight)
                .rate(1e9, 1e9)
                .max_in_flight(1 << 20),
        );
    }
    let service = Arc::new(QueryService::with_tenants(
        ServiceConfig::with_workers(workers),
        Arc::new(registry),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_io_threads(1),
    )
    .expect("bind loopback");
    (server, service)
}

/// A `Read` that keeps a copy of every byte it hands out.
struct Tee<'a> {
    inner: &'a mut TcpStream,
    seen: Vec<u8>,
}

impl Read for Tee<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A raw authenticated connection, so a response's exact wire bytes can
/// be compared.
struct RawConn {
    stream: TcpStream,
    reader: FrameReader,
}

impl RawConn {
    fn open(server: &NetServer, tenant: &str, key: &[u8]) -> RawConn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        let mut conn = RawConn {
            stream,
            reader: FrameReader::new(),
        };
        conn.send(&Frame::Hello {
            min_version: PROTOCOL_V4,
            max_version: PROTOCOL_V4,
        });
        let Frame::HelloAck {
            challenge: Some(nonce),
            ..
        } = conn.recv().0
        else {
            panic!("a tenanted server challenges every connection");
        };
        conn.send(&Frame::Auth {
            tenant: tenant.into(),
            mac: auth_mac(key, &nonce, tenant),
        });
        assert_eq!(conn.recv().0, Frame::AuthOk);
        conn
    }

    fn send(&mut self, frame: &Frame) {
        tcast_net::frame::write_frame(&mut self.stream, frame).expect("send");
    }

    /// The next frame and its exact wire bytes.
    fn recv(&mut self) -> (Frame, Vec<u8>) {
        let mut tee = Tee {
            inner: &mut self.stream,
            seen: Vec::new(),
        };
        loop {
            match self.reader.read_from(&mut tee, DEFAULT_MAX_PAYLOAD) {
                Ok(Some((frame, _))) => return (frame, tee.seen),
                Ok(None) => continue,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }
}

/// What one job changed in the metrics: the label row's counters, the
/// service-wide queue-wait and batch-size counts, and the tenant row.
#[derive(Debug, PartialEq)]
struct Delta {
    row: [u64; 9],
    queue_waits: u64,
    batches: u64,
    tenant: [u64; 3],
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, label: &str, tenant: &str) -> Delta {
    let row = |m: &MetricsSnapshot| {
        m.rows
            .iter()
            .find(|r| r.label == label)
            .map_or([0; 9], |r| {
                [
                    r.jobs,
                    r.queries,
                    r.retries,
                    r.defenses,
                    r.rounds,
                    r.verdict_yes,
                    r.verdict_no,
                    r.panics + r.deadline_exceeded,
                    r.latency_us.count(),
                ]
            })
    };
    let tenant_row = |m: &MetricsSnapshot| {
        m.tenant_rows
            .iter()
            .find(|r| r.tenant == tenant)
            .map_or([0; 3], |r| {
                [r.jobs, r.quota_rejections, r.queue_wait_us.count()]
            })
    };
    let minus = |a: [u64; 9], b: [u64; 9]| std::array::from_fn(|i| a[i] - b[i]);
    let (t1, t0) = (tenant_row(after), tenant_row(before));
    Delta {
        row: minus(row(after), row(before)),
        queue_waits: after.queue_wait_us.count() - before.queue_wait_us.count(),
        batches: after.batch_size.count() - before.batch_size.count(),
        tenant: std::array::from_fn(|i| t1[i] - t0[i]),
    }
}

/// One run of `job` under request id 7: the response bytes, the metrics
/// it changed, and the thread that executed it.
struct Run {
    bytes: Vec<u8>,
    delta: Delta,
    executor: String,
    trace: TraceId,
}

#[test]
fn an_inline_job_matches_a_worker_run_byte_for_byte() {
    let sink = Arc::new(ThreadSink::default());
    let _guard = add_sink(sink.clone());
    let (server, service) = tenanted(&[("gold", b"gold-key", 3)], 2);
    let gold = service
        .tenant_registry()
        .and_then(|r| r.lookup("gold"))
        .expect("gold registered");
    let mut conn = RawConn::open(&server, "gold", b"gold-key");
    let job = cheap_job(0x1_1e);
    let expected = job.execute();

    let run = |conn: &mut RawConn| {
        let trace = TraceId::fresh();
        let before = service.metrics();
        conn.send(&Frame::Submit {
            request_id: 7,
            job: job.with_trace(trace),
        });
        let (frame, bytes) = conn.recv();
        assert_eq!(
            frame,
            Frame::JobOk {
                request_id: 7,
                report: expected.clone()
            }
        );
        let executor = sink.await_executor(trace);
        let after = service.metrics();
        let in_flight = service.tenant_registry().map(|r| r.in_flight(gold));
        assert_eq!(in_flight, Some(0), "the quota charge was returned");
        Run {
            bytes,
            delta: delta(&before, &after, AlgorithmSpec::TwoTBins.name(), "gold"),
            executor,
            trace,
        }
    };

    // The service has never seen the job's shape, so it cannot predict
    // the job cheap: the first run is a worker's.
    let worker = run(&mut conn);
    assert!(
        worker.executor.starts_with("tcast-service-"),
        "the first run of a shape ran on {}",
        worker.executor
    );
    // Now the shape is known cheap; a submit finding every worker parked
    // runs on the I/O thread. A worker that has not parked yet takes it
    // instead, so try a few times.
    let inline = (0..200)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(2));
            run(&mut conn)
        })
        .find(|r| r.executor == IO_THREAD)
        .expect("an idle server ran a cheap job inline");

    assert_eq!(inline.bytes, worker.bytes, "response wire bytes");
    assert_eq!(inline.delta, worker.delta, "metrics deltas");
    assert_eq!(inline.delta.row[0], 1, "one job recorded");
    for (what, trace) in [("worker", worker.trace), ("inline", inline.trace)] {
        let records: Vec<Record> = sink.for_trace(trace).into_iter().map(|(_, r)| r).collect();
        assert!(
            records.iter().any(|r| r.name == "engine.drive"),
            "{what} run traced the engine"
        );
        check_nesting(&records).unwrap_or_else(|e| panic!("{what} run: {e}"));
    }
    drop(conn);
    server.shutdown();
}

/// The starvation bound `tests/fairness.rs` measures and records, read
/// back from `BENCH_fairness.json`.
fn pinned_noisy_lead() -> usize {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fairness.json");
    let json = std::fs::read_to_string(path).expect("BENCH_fairness.json");
    let key = "\"worst_noisy_lead_observed\":";
    let at = json.find(key).expect("the bound is recorded") + key.len();
    let digits: String = json[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

#[test]
fn a_noisy_backlog_keeps_every_submit_on_the_workers_in_drr_order() {
    const NOISY: usize = 40;
    const QUIET: usize = 8;
    let sink = Arc::new(ThreadSink::default());
    let _guard = add_sink(sink.clone());
    let (server, service) = tenanted(&[("noisy", b"noisy-key", 1), ("quiet", b"quiet-key", 1)], 1);
    let connect = |name: &str, key: &[u8]| {
        NetClient::connect(
            server.local_addr(),
            NetClientConfig::default().with_auth(TenantAuth::new(name, key)),
        )
        .expect("connect")
    };
    let (noisy, quiet) = (
        connect("noisy", b"noisy-key"),
        connect("quiet", b"quiet-key"),
    );

    // Teach the service the shape is cheap, and see it run inline once
    // while the server is idle, so the backlog below is what keeps the
    // submits off the I/O thread.
    let warmed = (0..200u64).any(|k| {
        let trace = TraceId::fresh();
        let job = cheap_job(k).with_trace(trace);
        let report = quiet.submit_one(job).wait_timeout(TIMEOUT);
        assert_eq!(report, Some(Ok(job.execute())));
        std::thread::sleep(Duration::from_millis(2));
        sink.await_executor(trace) == IO_THREAD
    });
    assert!(warmed, "an idle server ran a cheap job inline");

    // Park the only worker in a gate, then queue the noisy backlog and,
    // behind it, the quiet tenant's jobs.
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
        started_tx.send(()).ok();
        release_rx.recv().ok();
        JobOutput::Value(0.0)
    });
    let gate_batch = service.submit_tasks("gate", vec![gate]).expect("open");
    started_rx.recv().expect("gate reached the worker");

    let queued_to = |n: usize| {
        let deadline = Instant::now() + TIMEOUT;
        while service.queued_jobs() < n {
            assert!(Instant::now() < deadline, "submits never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut submitted = Vec::new();
    for (client, tenant, count, base) in [
        (&noisy, "noisy", NOISY, 1000),
        (&quiet, "quiet", QUIET, 2000),
    ] {
        for i in 0..count as u64 {
            let trace = TraceId::fresh();
            let job = cheap_job(base + i).with_trace(trace);
            submitted.push((tenant, trace, job, client.submit_one(job)));
        }
        queued_to(submitted.len());
    }
    release_tx.send(()).expect("gate listening");
    gate_batch.wait();

    let mut order = Vec::new();
    for (tenant, trace, job, handle) in submitted {
        assert_eq!(handle.wait_timeout(TIMEOUT), Some(Ok(job.execute())));
        let start = sink
            .for_trace(trace)
            .into_iter()
            .find(|(_, r)| r.name == "service.execute" && r.kind == RecordKind::SpanStart)
            .expect("execute span");
        assert_eq!(
            start.0, "tcast-service-0",
            "a {tenant} job behind the backlog"
        );
        order.push((start.1.t_ns, tenant));
    }
    order.sort();

    // The starvation bound, computed as the fairness test does.
    let (mut noisy_before, mut quiet_seen, mut worst) = (0usize, 0usize, 0usize);
    for (_, tenant) in &order {
        if *tenant == "noisy" {
            noisy_before += 1;
        } else {
            quiet_seen += 1;
            worst = worst.max(noisy_before.saturating_sub(quiet_seen));
        }
    }
    assert_eq!(worst, pinned_noisy_lead(), "DRR order: {order:?}");
    noisy.close();
    quiet.close();
    server.shutdown();
}

#[test]
fn hardened_jobs_always_take_the_worker_path() {
    let sink = Arc::new(ThreadSink::default());
    let _guard = add_sink(sink.clone());
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_io_threads(1),
    )
    .expect("bind loopback");
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    let run = |job: QueryJob| {
        let trace = TraceId::fresh();
        let job = job.with_trace(trace);
        let report = client.submit_one(job).wait_timeout(TIMEOUT);
        assert_eq!(report, Some(Ok(job.execute())));
        std::thread::sleep(Duration::from_millis(2));
        sink.await_executor(trace)
    };
    for k in 0..40 {
        let executor = run(hardened_job(k));
        assert!(
            executor.starts_with("tcast-service-"),
            "hardened job {k} ran on {executor}"
        );
    }
    // The same idle server does run a cheap job inline.
    assert!(
        (0..200).any(|k| run(cheap_job(k)) == IO_THREAD),
        "an idle server ran a cheap job inline"
    );
    client.close();
    server.shutdown();
}
