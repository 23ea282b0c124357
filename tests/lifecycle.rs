//! Connection-lifecycle regression tests for the event-driven server.
//!
//! Each test pins one of the lifecycle bugs the reactor rewrite fixed
//! and fails against the old thread-per-connection implementation:
//!
//! 1. A peer that stops *reading* its responses (dead write path) used
//!    to wedge the writer thread forever while the reader kept admitting
//!    work — a zombie connection. The server must close it promptly.
//! 2. A peer trickling one large frame slower than the idle timeout
//!    used to be cut off mid-frame, because only *complete* frames
//!    counted as activity. Partial-read byte progress must count.
//! 3. Accept errors used to be swallowed silently; they must surface in
//!    the metrics registry (the backoff escalation itself is unit-tested
//!    in `reactor::tests`).
//!
//! The tests speak the wire protocol over raw `TcpStream`s (not
//! `NetClient`) so they can misbehave in exactly the way each bug
//! requires.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::frame::write_frame;
use tcast_net::{
    Frame, FrameReader, NetClient, NetClientConfig, NetServer, NetServerConfig,
    DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

fn start_server(workers: usize, config: NetServerConfig) -> (NetServer, Arc<QueryService>) {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(workers)));
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), config).expect("bind ephemeral port");
    (server, service)
}

/// Total open connections across every I/O thread's counter row.
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

/// Spins until `pred` holds or `deadline` elapses; returns whether the
/// predicate was ever observed true.
fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Opens a raw connection and completes version negotiation.
fn handshake(server: &NetServer) -> (TcpStream, FrameReader) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write_frame(
        &mut stream,
        &Frame::Hello {
            min_version: PROTOCOL_V4,
            max_version: PROTOCOL_V4,
        },
    )
    .expect("send hello");
    let mut reader = FrameReader::new();
    let (ack, _) = read_frame(&mut reader, &mut stream);
    assert!(
        matches!(
            ack,
            Frame::HelloAck {
                version: PROTOCOL_V4,
                ..
            }
        ),
        "expected HelloAck at V4, got {ack:?}"
    );
    (stream, reader)
}

/// Blocks (up to the stream's read timeout) for the next frame.
fn read_frame(reader: &mut FrameReader, stream: &mut TcpStream) -> (Frame, usize) {
    loop {
        if let Some(got) = reader
            .read_from(stream, DEFAULT_MAX_PAYLOAD)
            .expect("read frame")
        {
            return got;
        }
    }
}

fn tiny_job(seed: u64) -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(16, 5, CollisionModel::OnePlus).seeded(seed, seed ^ 1),
        3,
        seed,
    )
}

/// Bug 1: a connected peer that floods requests but never reads a byte
/// of its responses starves the write path. The old server's writer
/// thread blocked forever on the full socket while the reader kept the
/// connection alive (every inbound frame reset the idle clock), leaving
/// a permanent zombie. The reactor closes the connection as soon as the
/// pending-write cap or the write-stall deadline trips.
#[test]
fn stalled_reader_is_closed_promptly_instead_of_becoming_a_zombie() {
    let (server, service) = start_server(
        1,
        // The close must come from the dead write path, not from
        // idle or stall slack: generous idle, tight write budget.
        NetServerConfig::default()
            .with_idle_timeout(Duration::from_secs(120))
            .with_max_pending_writes(32 * 1024)
            .with_write_stall_timeout(Duration::from_millis(300)),
    );
    let (mut stream, _reader) = handshake(&server);
    assert!(
        wait_until(Duration::from_secs(5), || open_connections(&service) == 1),
        "handshaken connection not visible in the gauge"
    );

    // Flood MetricsDump requests and never read a response. Responses
    // are multi-KiB, so the kernel buffers and then the server's pending
    // write budget fill while the inbound side stays busy the whole time.
    let dump = Frame::MetricsDump { request_id: 7 }.to_bytes();
    for _ in 0..50_000 {
        if stream.write_all(&dump).is_err() {
            break; // server already closed us — exactly the point
        }
    }

    assert!(
        wait_until(Duration::from_secs(10), || open_connections(&service) == 0),
        "stalled-reader connection was not closed promptly (zombie)"
    );
    drop(stream);
    server.shutdown();
}

/// Bug 2: a client trickling one `Submit` slower than the idle timeout
/// makes continuous byte progress and must NOT be disconnected mid-frame.
/// The old server only counted complete frames as activity and said
/// `Goodbye` after `idle_timeout`; the reactor counts partial-read
/// progress.
#[test]
fn slow_sender_mid_frame_survives_the_idle_timeout() {
    let (server, _service) = start_server(
        1,
        NetServerConfig::default().with_idle_timeout(Duration::from_millis(200)),
    );
    let (mut stream, mut reader) = handshake(&server);

    // Trickle the frame in 6-byte chunks, one every 50 ms: far slower
    // than one frame per idle window, but with steady byte progress.
    // Total transfer time comfortably exceeds several idle timeouts.
    let submit = Frame::Submit {
        request_id: 99,
        job: tiny_job(0xBEEF),
    }
    .to_bytes();
    assert!(
        submit.len() / 6 * 50 >= 400,
        "trickle must span at least two idle windows"
    );
    for chunk in submit.chunks(6) {
        stream.write_all(chunk).expect(
            "server hung up on a slow sender making byte progress (mid-frame idle disconnect)",
        );
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The full frame got through: the answer is the job's report, not a
    // mid-frame Goodbye.
    let (response, _) = read_frame(&mut reader, &mut stream);
    match response {
        Frame::JobOk { request_id, .. } => assert_eq!(request_id, 99),
        other => panic!("expected JobOk for the trickled submit, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

/// Bug 3: accept failures and connection churn must be observable. The
/// wire-exposed Prometheus dump carries the accept-error counter and the
/// open-connection / I/O-thread gauges for every front-end.
#[test]
fn accept_errors_and_connection_gauges_are_wire_observable() {
    let (server, service) = start_server(1, NetServerConfig::default());
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    for result in client.submit(vec![tiny_job(1), tiny_job(2)]).wait() {
        result.expect("job succeeded");
    }

    let text = tcast_service::render_prometheus(&client.server_metrics().expect("metrics fetch"));
    assert!(
        text.contains("# TYPE tcast_net_accept_errors_total counter"),
        "accept-error counter family missing:\n{text}"
    );
    assert!(
        text.contains("tcast_net_accept_errors_total{conn=\"net/server\",generation=\"0\"} 0"),
        "acceptor row missing (no accept errors expected on loopback):\n{text}"
    );
    assert!(
        text.contains("tcast_net_io_threads{conn=\"net/server\",generation=\"0\"}"),
        "I/O pool size gauge missing:\n{text}"
    );
    assert!(
        text.contains("# TYPE tcast_net_open_connections gauge"),
        "open-connection gauge family missing:\n{text}"
    );

    client.close();
    server.shutdown();

    // After a full drain every opened connection has been closed.
    assert_eq!(open_connections(&service), 0, "connections leaked");
    let snapshot = service.metrics_registry().snapshot();
    let opened: u64 = snapshot.net_rows.iter().map(|r| r.conns_opened).sum();
    assert!(opened >= 1, "no connection was ever counted as opened");
}

/// The connection gauges track raw sockets through their whole life:
/// three handshaken peers show as three open connections, and EOF-ing
/// them all drains the gauge back to zero (in-flight responses still
/// delivered first).
#[test]
fn connection_gauges_track_open_and_closed_sockets() {
    let (server, service) = start_server(1, NetServerConfig::default());

    let conns: Vec<(TcpStream, FrameReader)> = (0..3).map(|_| handshake(&server)).collect();
    assert!(
        wait_until(Duration::from_secs(5), || open_connections(&service) == 3),
        "expected 3 open connections, saw {}",
        open_connections(&service)
    );

    drop(conns);
    assert!(
        wait_until(Duration::from_secs(5), || open_connections(&service) == 0),
        "EOF'd connections not closed, gauge stuck at {}",
        open_connections(&service)
    );
    server.shutdown();
}

/// Shutdown rings every I/O thread's doorbell, and the thread holding
/// the listener closes it on that wake, so a server that has accepted a
/// connection shuts down without waiting out a poll tick. A separate
/// acceptor thread polling on a 25 ms tick made every shutdown here wait
/// most of one. The budget forgives one slow cycle in ten, for the host
/// holding the CPU at the wrong moment.
#[test]
fn shutdown_after_a_connection_takes_no_poll_tick() {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let took: Vec<Duration> = (0..10)
        .map(|_| {
            let server =
                NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
                    .expect("bind ephemeral port");
            let _conn = handshake(&server);
            let start = Instant::now();
            server.shutdown();
            start.elapsed()
        })
        .collect();
    let slow = took
        .iter()
        .filter(|t| **t >= Duration::from_millis(5))
        .count();
    assert!(
        slow <= 1,
        "{slow} of 10 shutdowns took 5 ms or more: {took:?}"
    );
}
