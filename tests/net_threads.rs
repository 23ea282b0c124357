//! Thread accounting for the serving stack. The file holds exactly one
//! `#[test]` because it counts the process's threads, which a test
//! running beside it would disturb.
//!
//! A server runs its I/O threads and nothing else: thread 0 accepts on
//! the listener in its own poll set, so there is no acceptor thread.
//! Round-robin placement still deals connections evenly over the pool.
//! An idle cluster client whose shards are all up keeps its prober
//! parked instead of waking it on a tick.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast_net::frame::write_frame;
use tcast_net::{
    ClusterConfig, Frame, FrameReader, NetServer, NetServerConfig, ShardedClient,
    DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_service::{QueryService, ServiceConfig};

/// The process's threads right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

/// The id of the process's thread named `name` (as the kernel keeps it,
/// cut to 15 bytes).
fn thread_named(name: &str) -> Option<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .filter_map(Result::ok)
        .find(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm.trim() == name)
        })
        .map(|task| task.file_name().to_string_lossy().into_owned())
}

/// How often thread `tid` has blocked so far.
fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .expect("the thread's status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a voluntary_ctxt_switches line")
}

/// Connections opened on the counter row `label`.
fn opened_on(service: &QueryService, label: &str) -> u64 {
    service
        .metrics_registry()
        .snapshot()
        .net_rows
        .iter()
        .filter(|row| row.label == label)
        .map(|row| row.conns_opened)
        .sum()
}

/// Opens a raw connection and completes version negotiation, so the
/// server has registered it by the time this returns.
fn handshake(server: &NetServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let hello = Frame::Hello {
        min_version: PROTOCOL_V4,
        max_version: PROTOCOL_V4,
    };
    write_frame(&mut stream, &hello).expect("send hello");
    let mut reader = FrameReader::new();
    let ack = loop {
        if let Some((frame, _)) = reader
            .read_from(&mut stream, DEFAULT_MAX_PAYLOAD)
            .expect("read HelloAck")
        {
            break frame;
        }
    };
    assert!(matches!(ack, Frame::HelloAck { .. }), "got {ack:?}");
    stream
}

#[test]
fn a_server_runs_only_its_io_threads_and_an_idle_prober_stays_parked() {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let before = threads();
    let server = NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_io_threads(2),
    )
    .expect("bind ephemeral port");
    assert_eq!(
        threads(),
        before + 2,
        "a server with 2 I/O threads must add exactly 2 threads"
    );

    let conns: Vec<TcpStream> = (0..4).map(|_| handshake(&server)).collect();
    assert_eq!(
        (
            opened_on(&service, "net/io-0"),
            opened_on(&service, "net/io-1")
        ),
        (2, 2),
        "round-robin must deal 4 connections 2/2 over 2 I/O threads"
    );
    drop(conns);

    let shard = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind ephemeral port");
    let cluster = ShardedClient::connect(
        [server.local_addr(), shard.local_addr()],
        ClusterConfig::default(),
    )
    .expect("connect");
    assert_eq!(cluster.healthy_shards(), 2);
    // Let the prober name itself, finish its first pass and park.
    std::thread::sleep(Duration::from_millis(50));
    let prober = thread_named("tcast-cluster-p").expect("the prober thread");
    let start = Instant::now();
    let switches = voluntary_switches(&prober);
    std::thread::sleep(Duration::from_millis(200));
    let woke = voluntary_switches(&prober) - switches;
    assert!(
        woke <= 1,
        "an idle, healthy cluster's prober blocked {woke} times in {:?}",
        start.elapsed()
    );

    cluster.close();
    shard.shutdown();
    server.shutdown();
}
