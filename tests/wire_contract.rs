//! The wire contract of the single protocol version, against a real
//! loopback `NetServer`: what the server acks, what it rejects, and
//! that hostile bytes never panic a decoder.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::{ChannelSpec, CollisionModel, LossConfig, QueryReport};
use tcast_net::crc::crc32;
use tcast_net::frame::{HEADER_LEN, TRAILER_LEN};
use tcast_net::{
    ErrorCode, Frame, FrameReader, MalformedFrame, NetClient, NetClientConfig, NetServer,
    NetServerConfig, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_service::{
    render_prometheus, AlgorithmSpec, Family, JobError, JobOutput, MetricsRegistry,
    MetricsSnapshot, QueryJob, QueryService, ServiceConfig,
};

fn start_server() -> NetServer {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).expect("bind loopback")
}

fn job(seed: u64) -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::ALL[seed as usize % AlgorithmSpec::ALL.len()],
        ChannelSpec::lossy(48, 9, CollisionModel::OnePlus, LossConfig::default())
            .seeded(seed, seed ^ 0x55),
        6,
        seed,
    )
}

fn dial(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn send_hello(stream: &mut TcpStream, min_version: u8, max_version: u8) {
    let hello = Frame::Hello {
        min_version,
        max_version,
    };
    stream.write_all(&hello.to_bytes()).expect("send hello");
}

fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
    loop {
        match reader.read_from(stream, DEFAULT_MAX_PAYLOAD) {
            Ok(Some((frame, _))) => return frame,
            Ok(None) => continue,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// After the server's last frame, the connection reaches EOF (or a
/// reset) rather than hanging until the read timeout.
fn assert_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("server kept talking after a fatal error"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "server left the connection open: {e}"
        ),
    }
}

#[test]
fn hello_without_v4_is_refused_and_closed() {
    let server = start_server();
    let mut stream = dial(&server);
    send_hello(&mut stream, 1, 3);
    let mut reader = FrameReader::new();
    match read_frame(&mut stream, &mut reader) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert_closed(&mut stream);
    server.shutdown();
}

#[test]
fn submit_stamped_with_an_old_version_is_malformed() {
    let server = start_server();
    for version in 1..=3u8 {
        let mut bytes = Vec::new();
        Frame::Submit {
            request_id: 5,
            job: job(u64::from(version)),
        }
        .encode_into(&mut bytes, version);
        assert_eq!(
            Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(MalformedFrame::Version(version)),
            "decoder must refuse header byte {version}"
        );

        let mut stream = dial(&server);
        send_hello(&mut stream, PROTOCOL_V4, PROTOCOL_V4);
        let mut reader = FrameReader::new();
        assert!(matches!(
            read_frame(&mut stream, &mut reader),
            Frame::HelloAck {
                version: PROTOCOL_V4,
                challenge: None
            }
        ));
        stream.write_all(&bytes).expect("send old submit");
        match read_frame(&mut stream, &mut reader) {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected Malformed for header byte {version}, got {other:?}"),
        }
        assert_closed(&mut stream);
    }
    // No panic took the server down: it still answers a fresh client.
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default())
        .expect("server still accepts");
    assert_eq!(
        client.submit_one(job(9)).wait().expect("round trip"),
        job(9).execute()
    );
    client.close();
    server.shutdown();
}

/// A registry snapshot with every gated metrics section present: job
/// rows (one with defenses and anomalies), net rows, a tenant, and an
/// SLO tracker.
fn full_snapshot() -> MetricsSnapshot {
    let m = MetricsRegistry::new();
    m.attach_slo(Arc::new(tcast_obs::SloTracker::new(vec![
        tcast_obs::Objective::latency("e2e-latency", 200.0, 0.99),
        tcast_obs::Objective::auth("auth", 0.99),
    ])));
    for seed in 0..6 {
        let report = job(seed).execute();
        m.record(
            AlgorithmSpec::ALL[seed as usize % AlgorithmSpec::ALL.len()].name(),
            &Ok(JobOutput::Report(report)),
            Duration::from_micros(90 + 70 * seed),
        );
    }
    let mut hardened = QueryReport::trivial(false);
    hardened.defense_queries = 9;
    hardened.anomalies = 2;
    m.record("od\"d", &Ok(JobOutput::Report(hardened)), Duration::ZERO);
    m.record(
        "2tBins",
        &Err(JobError::DeadlineExceeded),
        Duration::from_micros(5),
    );
    m.slo_observe(tcast_obs::SloSignal::Auth, false);
    m.record_queue_wait(Duration::from_micros(40));
    m.record_batch_size(4);
    let conn = m.net_counters("net/io-0");
    conn.frame_in(120);
    conn.frame_out(300);
    conn.reconnect();
    m.net_counters("net/server").conn_opened();
    m.seen_tenant("gold");
    m.record_tenant_job("gold", Duration::from_micros(75));
    m.record_quota_rejections("bronze", 2);
    m.snapshot()
}

/// Frames of every shape, to mutate into near-valid garbage.
fn seed_frames() -> Vec<Vec<u8>> {
    let report: QueryReport = job(3).execute();
    [
        Frame::Hello {
            min_version: PROTOCOL_V4,
            max_version: PROTOCOL_V4,
        },
        Frame::HelloAck {
            version: PROTOCOL_V4,
            challenge: Some([7; 16]),
        },
        Frame::Auth {
            tenant: "tenant".into(),
            mac: [1; 32],
        },
        Frame::Submit {
            request_id: 1,
            job: job(1),
        },
        Frame::JobOk {
            request_id: 1,
            report,
        },
        Frame::JobFailed {
            request_id: 2,
            error: JobError::Panicked("boom".into()),
        },
        Frame::Error {
            request_id: 0,
            code: ErrorCode::Busy,
            detail: "busy".into(),
        },
        Frame::Metrics {
            request_id: 3,
            families: full_snapshot().families(),
        },
        Frame::TraceExport {
            request_id: 4,
            max_traces: 8,
        },
        Frame::TraceData {
            request_id: 4,
            traces: vec![],
        },
        Frame::Goodbye,
    ]
    .iter()
    .map(Frame::to_bytes)
    .collect()
}

#[test]
fn arbitrary_bytes_never_panic_the_decoders() {
    let seeds = seed_frames();
    let mut rng = SmallRng::seed_from_u64(0x7CA5_7000);
    for case in 0..4000 {
        let mut bytes = if case % 4 == 0 {
            let len = rng.random_range(0..96);
            (0..len).map(|_| rng.random()).collect()
        } else {
            seeds[rng.random_range(0..seeds.len())].clone()
        };
        for _ in 0..rng.random_range(0..4) {
            if bytes.is_empty() {
                break;
            }
            let pos = rng.random_range(0..bytes.len());
            bytes[pos] = rng.random();
        }
        if case % 3 == 0 && bytes.len() >= HEADER_LEN + TRAILER_LEN {
            // Re-stamp the CRC so the mutation reaches the payload
            // decoders instead of stopping at the checksum.
            let body_end = bytes.len() - TRAILER_LEN;
            let crc = crc32(&bytes[..body_end]).to_le_bytes();
            bytes[body_end..].copy_from_slice(&crc);
        }
        let _ = Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD);
        // The incremental reader, fed the same bytes twice over: every
        // call yields a frame or an error, and an error ends the stream.
        let doubled = [bytes.as_slice(), bytes.as_slice()].concat();
        let mut cursor = Cursor::new(doubled);
        let mut reader = FrameReader::new();
        while let Ok(Some(_)) = reader.read_from(&mut cursor, 1 << 16) {}
    }
}

#[test]
fn metrics_families_cross_the_wire_and_render_the_server_exposition() {
    let snapshot = full_snapshot();
    let families = snapshot.families();
    for name in [
        "tcast_verdicts_total",
        "tcast_queue_wait_microseconds",
        "tcast_net_io_threads",
        "tcast_tenant_queue_wait_microseconds",
        "tcast_slo_burn_rate",
    ] {
        assert!(Family::find(&families, name).is_some(), "{name} missing");
    }
    let bytes = Frame::Metrics {
        request_id: 3,
        families: families.clone(),
    }
    .to_bytes();
    let Ok(Frame::Metrics {
        families: decoded, ..
    }) = Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD)
    else {
        panic!("metrics frame failed to decode");
    };
    assert_eq!(decoded, families);
    assert_eq!(render_prometheus(&decoded), snapshot.to_prometheus());

    // Through a live server: everything but the socket counters is frozen
    // once the jobs answered, so it must equal the server's own families.
    // The `tcast_net_*` values move with the fetch's own traffic; their
    // series (names and label sets) must still match.
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind loopback");
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    for result in client.submit((0..8).map(job).collect()).wait() {
        result.expect("job round-trips");
    }
    let fetched = client.server_metrics().expect("metrics fetch");
    let local = service.metrics_registry().snapshot().families();
    let series = |f: &Family| -> Vec<Vec<(String, String)>> {
        f.samples.iter().map(|s| s.labels.clone()).collect()
    };
    assert_eq!(fetched.len(), local.len());
    for (got, want) in fetched.iter().zip(&local) {
        if want.name.starts_with("tcast_net_") {
            assert_eq!((&got.name, got.kind), (&want.name, want.kind));
            assert_eq!(series(got), series(want), "{}", want.name);
        } else {
            assert_eq!(got, want);
        }
    }
    client.close();
    server.shutdown();
}

#[test]
fn net_client_round_trip_equals_in_process_execution() {
    let server = start_server();
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    let jobs: Vec<QueryJob> = (0..16).map(job).collect();
    let remote = client.submit(jobs.clone()).wait();
    for (job, got) in jobs.iter().zip(remote) {
        assert_eq!(got.expect("job round-trips"), job.execute());
    }
    client.close();
    server.shutdown();
}
