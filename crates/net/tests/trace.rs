//! Observability loopback tests: real servers and clients on ephemeral
//! ports, with a `MemorySink` installed to capture the trace a query
//! leaves behind as it crosses the cluster router, the wire, the
//! service queue, and the engine — all correlated by one `TraceId`
//! carried in the `Submit` frame.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::frame::write_frame;
use tcast_net::{
    ClusterConfig, Frame, FrameReader, NetClient, NetClientConfig, NetServer, NetServerConfig,
    ShardedClient, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_obs::{add_sink, check_nesting, MemorySink, Record, RecordKind, TraceId};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

fn start_server(workers: usize) -> (NetServer, Arc<QueryService>) {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(workers)));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind ephemeral port");
    (server, service)
}

fn traced_job(seed: u64, trace: TraceId) -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(256, 40, CollisionModel::OnePlus).seeded(seed, seed ^ 1),
        32,
        seed,
    )
    .with_trace(trace)
}

fn names_of(records: &[Record]) -> Vec<(&'static str, RecordKind)> {
    records.iter().map(|r| (r.name, r.kind)).collect()
}

#[test]
fn handshake_settles_on_the_one_protocol() {
    let (server, _service) = start_server(1);
    // A Hello whose range straddles V4 is acked at V4 ...
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write_frame(
        &mut stream,
        &Frame::Hello {
            min_version: 1,
            max_version: 9,
        },
    )
    .expect("send hello");
    let mut reader = FrameReader::new();
    let ack = loop {
        if let Some((frame, _)) = reader
            .read_from(&mut stream, DEFAULT_MAX_PAYLOAD)
            .expect("read ack")
        {
            break frame;
        }
    };
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
    // ... and the pooled client completes the same handshake.
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    client.close();
    server.shutdown();
}

/// The headline correlation property: ONE query submitted through the
/// sharded client leaves ONE trace whose records span every tier —
/// route decision, wire submit/receive, service queue + execution,
/// engine rounds, server respond, and the client-measured RTT — all
/// under the `TraceId` stamped on the job.
#[test]
fn one_query_through_the_cluster_yields_one_correlated_trace() {
    let sink = Arc::new(MemorySink::new());
    let guard = add_sink(sink.clone());

    let servers: Vec<_> = (0..2).map(|_| start_server(2)).collect();
    let addrs: Vec<_> = servers.iter().map(|(s, _)| s.local_addr()).collect();
    let cluster = ShardedClient::connect(addrs, ClusterConfig::default()).expect("connect");

    let trace = TraceId::fresh();
    let job = traced_job(0x7AC3, trace);
    let expected_shard = cluster.route_of(&job);
    let report = cluster
        .submit(vec![job])
        .wait()
        .pop()
        .expect("one result")
        .expect("job succeeded");

    // Every tier drains its ring before handing the job onward (events
    // outside spans drain immediately; the service.execute root span
    // drains at close, before the response frame is sent), so by the
    // time `wait` returns the whole trace is in the sink.
    tcast_obs::flush();
    let records = sink.for_trace(trace);
    check_nesting(&records).unwrap_or_else(|e| panic!("broken nesting: {e}\n{records:#?}"));

    let count = |name: &str, kind: RecordKind| {
        records
            .iter()
            .filter(|r| r.name == name && r.kind == kind)
            .count()
    };
    // Exactly one of each cross-tier hop, correlated to the one trace.
    assert_eq!(
        count("cluster.route", RecordKind::SpanStart),
        1,
        "{:?}",
        names_of(&records)
    );
    assert_eq!(count("net.submit", RecordKind::Event), 1);
    assert_eq!(count("net.recv", RecordKind::Event), 1);
    assert_eq!(count("service.execute", RecordKind::SpanStart), 1);
    assert_eq!(count("engine.drive", RecordKind::SpanStart), 1);
    assert_eq!(count("engine.verdict", RecordKind::Event), 1);
    assert_eq!(count("net.respond", RecordKind::Event), 1);
    assert_eq!(count("net.rtt", RecordKind::Event), 1);

    // One engine.round event per report round, same numbers.
    assert_eq!(count("engine.round", RecordKind::Event), report.trace.len());

    let find = |name: &str, kind: RecordKind| {
        records
            .iter()
            .find(|r| r.name == name && r.kind == kind)
            .unwrap()
    };
    // The route span names the shard the router actually picked.
    assert_eq!(
        find("cluster.route", RecordKind::SpanStart).field("shard"),
        expected_shard.map(|s| s as u64)
    );
    // All four wire records agree on the request id.
    let request_id = find("net.submit", RecordKind::Event).field("request_id");
    assert!(request_id.is_some());
    for name in ["net.recv", "net.respond", "net.rtt"] {
        assert_eq!(
            find(name, RecordKind::Event).field("request_id"),
            request_id,
            "{name}"
        );
    }
    // The engine span nests inside the service span, the service span
    // stitches under the client's route span (carried across the wire
    // in the V4 submit), and both measured real time; the RTT covers
    // the whole submit→response interval.
    let route_span = find("cluster.route", RecordKind::SpanStart).span;
    let service_start = find("service.execute", RecordKind::SpanStart);
    assert_eq!(
        service_start.parent, route_span,
        "service span did not stitch under the cluster route span"
    );
    let service_span = service_start.span;
    assert_eq!(
        find("engine.drive", RecordKind::SpanStart).parent,
        service_span
    );
    assert!(find("engine.drive", RecordKind::SpanEnd).dur_ns > 0);
    assert!(find("net.rtt", RecordKind::Event).field("us").is_some());

    cluster.close();
    for (server, _service) in servers {
        server.shutdown();
    }
    drop(guard);
}

#[test]
fn metrics_dump_serves_prometheus_exposition_over_the_wire() {
    let (server, _service) = start_server(2);
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");

    let jobs: Vec<QueryJob> = (0..4).map(|k| traced_job(k, TraceId::NONE)).collect();
    for result in client.submit(jobs).wait() {
        result.expect("job succeeded");
    }

    let text = tcast_service::render_prometheus(&client.server_metrics().expect("metrics fetch"));
    assert!(
        text.contains("# TYPE tcast_jobs_total counter"),
        "missing counter TYPE line:\n{text}"
    );
    assert!(
        text.contains("tcast_jobs_total{algorithm=\"2tBins\"} 4"),
        "job count not exposed:\n{text}"
    );
    assert!(
        text.contains("# TYPE tcast_job_latency_microseconds summary"),
        "missing summary TYPE line:\n{text}"
    );
    assert!(
        text.contains("tcast_net_frames_in_total{conn=\"net/io-0\",generation=\"0\"}"),
        "net counters not exposed with a generation label:\n{text}"
    );
    assert!(
        text.contains("tcast_net_io_threads{conn=\"net/server\",generation=\"0\"}"),
        "I/O pool gauge not exposed:\n{text}"
    );

    client.close();
    server.shutdown();
}
