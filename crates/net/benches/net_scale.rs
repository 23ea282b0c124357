//! Connection-scaling soak bench: many thousands of concurrent loopback
//! connections against one event-driven `NetServer`.
//!
//! Run with a raised fd limit (each side of a connection costs one fd in
//! each process):
//!
//! ```text
//! ulimit -n 20000
//! cargo bench -p tcast-net --bench net_scale            # 1k / 5k / 10k waves
//! cargo bench -p tcast-net --bench net_scale -- --quick # 256 / 1024 (CI smoke)
//! ```
//!
//! The process fd limit caps a single process well below 2×10k sockets,
//! so the bench splits across two processes: the parent hosts the
//! `QueryService` + `NetServer` and drives the waves; for each wave it
//! re-executes itself as a client child (`--client <addr> <conns>`) that
//! opens the wave's connections, negotiates on every one, submits one
//! job per connection, and verifies each report against an in-process
//! run (bit-identical or the wave fails). The child holds every socket
//! open until the parent has sampled the server's open-connection gauge
//! and resident memory, so the server demonstrably serves the whole wave
//! *concurrently* on its fixed I/O pool.
//!
//! Output: one JSON document on stdout (the committed
//! `BENCH_net_scale.json` is authored from a full run).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast::{ChannelSpec, CollisionModel, QueryReport};
use tcast_net::frame::write_frame;
use tcast_net::{Frame, FrameReader, NetServer, NetServerConfig, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4};
use tcast_service::{AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig};

/// Distinct job specs cycled across connections (connection `i` submits
/// job `i % DISTINCT_JOBS`), so verification covers many seeds without
/// precomputing one report per connection.
const DISTINCT_JOBS: usize = 64;

/// Connections opened per burst; the listener backlog is ~128, so the
/// child alternates a burst of connects with the handshakes that drain
/// the server's accept queue.
const CONNECT_CHUNK: usize = 96;

/// Connections with a submit in flight at once during the measurement
/// phase.
const SUBMIT_WINDOW: usize = 256;

fn scale_job(k: usize) -> QueryJob {
    let seed = k as u64;
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(16, 5, CollisionModel::OnePlus).seeded(seed, seed ^ 0xA5),
        3,
        seed,
    )
}

fn expected_reports() -> Vec<QueryReport> {
    let service = QueryService::new(ServiceConfig::with_workers(1));
    service
        .submit((0..DISTINCT_JOBS).map(scale_job).collect::<Vec<_>>())
        .expect("service open")
        .wait()
        .into_iter()
        .map(|r| match r.expect("in-process job succeeded") {
            JobOutput::Report(report) => report,
            other => panic!("query job produced {other:?}"),
        })
        .collect()
}

/// Sorted-percentile summary of a latency sample, in microseconds.
struct LatencyStats {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    mean: f64,
}

fn stats(mut us: Vec<f64>) -> LatencyStats {
    assert!(!us.is_empty());
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| us[((us.len() - 1) as f64 * p).round() as usize];
    LatencyStats {
        p50: q(0.50),
        p90: q(0.90),
        p99: q(0.99),
        max: *us.last().unwrap(),
        mean: us.iter().sum::<f64>() / us.len() as f64,
    }
}

fn json_stats(s: &LatencyStats) -> String {
    format!(
        "{{\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{:.1},\"mean\":{:.1}}}",
        s.p50, s.p90, s.p99, s.max, s.mean
    )
}

/// `VmRSS` of a process in KiB, from procfs.
fn rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn read_frame(reader: &mut FrameReader, stream: &mut TcpStream) -> Frame {
    loop {
        if let Some((frame, _)) = reader
            .read_from(stream, DEFAULT_MAX_PAYLOAD)
            .expect("read frame")
        {
            return frame;
        }
    }
}

// ---------------------------------------------------------------------
// Child: the client fleet for one wave.
// ---------------------------------------------------------------------

fn client_main(addr: &str, conns: usize) {
    let expected = expected_reports();
    let mut fleet: Vec<(TcpStream, FrameReader)> = Vec::with_capacity(conns);
    let mut connect_us: Vec<f64> = Vec::with_capacity(conns);

    // Phase 1: open + negotiate every connection, in bursts that respect
    // the listener backlog. Measured per connection: TCP connect through
    // HelloAck (the server's accept + register + negotiate path).
    while fleet.len() < conns {
        let burst = CONNECT_CHUNK.min(conns - fleet.len());
        let mut pending = Vec::with_capacity(burst);
        for _ in 0..burst {
            let t0 = Instant::now();
            let stream = connect_with_retry(addr);
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            stream.set_nodelay(true).expect("nodelay");
            pending.push((stream, t0));
        }
        for (mut stream, t0) in pending {
            write_frame(
                &mut stream,
                &Frame::Hello {
                    min_version: PROTOCOL_V4,
                    max_version: PROTOCOL_V4,
                },
            )
            .expect("send hello");
            let mut reader = FrameReader::new();
            match read_frame(&mut reader, &mut stream) {
                Frame::HelloAck { .. } => {}
                other => panic!("expected HelloAck, got {other:?}"),
            }
            connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
            fleet.push((stream, reader));
        }
    }

    // Phase 2: one job per connection, SUBMIT_WINDOW connections in
    // flight at a time, every other connection idle-but-open. Measured
    // per connection: Submit write through JobOk receipt.
    let mut submit_us: Vec<f64> = Vec::with_capacity(conns);
    let mut mismatches = 0usize;
    for (base, window) in fleet.chunks_mut(SUBMIT_WINDOW).enumerate() {
        let mut sent = Vec::with_capacity(window.len());
        for (k, (stream, _)) in window.iter_mut().enumerate() {
            let idx = base * SUBMIT_WINDOW + k;
            let frame = Frame::Submit {
                request_id: idx as u64 + 1,
                job: scale_job(idx % DISTINCT_JOBS),
            };
            let t0 = Instant::now();
            write_frame(stream, &frame).expect("send submit");
            sent.push(t0);
        }
        for (k, (stream, reader)) in window.iter_mut().enumerate() {
            let idx = base * SUBMIT_WINDOW + k;
            match read_frame(reader, stream) {
                Frame::JobOk { request_id, report } => {
                    assert_eq!(request_id, idx as u64 + 1, "response matched wrong request");
                    if report != expected[idx % DISTINCT_JOBS] {
                        mismatches += 1;
                    }
                }
                other => panic!("expected JobOk on conn {idx}, got {other:?}"),
            }
            submit_us.push(sent[k].elapsed().as_secs_f64() * 1e6);
        }
    }

    // Report while every socket is still open, then hold them until the
    // parent has sampled its gauges.
    println!(
        "{{\"conns\":{},\"mismatches\":{},\"connect_us\":{},\"submit_us\":{},\"client_rss_kib\":{}}}",
        conns,
        mismatches,
        json_stats(&stats(connect_us)),
        json_stats(&stats(submit_us)),
        rss_kib(std::process::id()),
    );
    std::io::stdout().flush().expect("flush stats");
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .expect("parent signal");
    drop(fleet);
    assert_eq!(
        mismatches, 0,
        "remote reports diverged from in-process runs"
    );
}

fn connect_with_retry(addr: &str) -> TcpStream {
    let mut delay = Duration::from_millis(10);
    for _ in 0..8 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => {
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
    TcpStream::connect(addr).expect("connect after retries")
}

// ---------------------------------------------------------------------
// Parent: server + wave driver.
// ---------------------------------------------------------------------

fn open_connections(service: &QueryService) -> u64 {
    service
        .metrics_registry()
        .snapshot()
        .net_rows
        .iter()
        .filter(|row| row.label.starts_with("net/io-"))
        .map(|row| row.open_connections())
        .sum()
}

fn wait_gauge(service: &QueryService, want: u64, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if open_connections(service) == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

fn run_wave(server: &NetServer, service: &QueryService, conns: usize) -> String {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .arg("--client")
        .arg(server.local_addr().to_string())
        .arg(conns.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn client child");

    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut stats_line = String::new();
    child_out
        .read_line(&mut stats_line)
        .expect("child stats line");
    let stats_line = stats_line.trim().to_string();
    assert!(
        stats_line.contains("\"mismatches\":0"),
        "wave {conns}: child reported report mismatches: {stats_line}"
    );

    // Every connection is still open in the child: the gauge must agree,
    // and it is the moment to sample the server's memory footprint.
    assert!(
        wait_gauge(service, conns as u64, Duration::from_secs(30)),
        "wave {conns}: open-connection gauge never reached {conns} (at {})",
        open_connections(service)
    );
    let server_rss = rss_kib(std::process::id());

    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(b"done\n")
        .expect("signal child");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "wave {conns}: client child failed");
    assert!(
        wait_gauge(service, 0, Duration::from_secs(60)),
        "wave {conns}: connections not drained after child exit (gauge {})",
        open_connections(service)
    );

    let inner = stats_line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("child stats JSON object");
    format!("{{{inner},\"server_rss_kib\":{server_rss}}}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--client") {
        let addr = args.get(pos + 1).expect("--client <addr> <conns>");
        let conns: usize = args
            .get(pos + 2)
            .expect("--client <addr> <conns>")
            .parse()
            .expect("connection count");
        client_main(addr, conns);
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let waves: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[1000, 5000, 10_000]
    };

    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    // Waves leave thousands of negotiated connections idle while the
    // submit window moves through the fleet; generous deadlines keep
    // lifecycle policy out of the measurement.
    let config = NetServerConfig::default()
        .with_idle_timeout(Duration::from_secs(600))
        .with_handshake_timeout(Duration::from_secs(120));
    let io_threads = config.io_thread_count();
    let server = NetServer::bind("127.0.0.1:0", service.clone(), config).expect("bind");

    let mut wave_docs = Vec::new();
    for &conns in waves {
        eprintln!("wave: {conns} connections...");
        wave_docs.push(run_wave(&server, &service, conns));
    }

    println!(
        "{{\"bench\":\"net_scale\",\"quick\":{quick},\"io_threads\":{io_threads},\"waves\":[{}]}}",
        wave_docs.join(",")
    );
    server.shutdown();
}
