//! Cluster-level loopback tests: several real `NetServer`s on ephemeral
//! ports behind one `ShardedClient`. The properties under test are the
//! cluster contract — rendezvous routing is stable and spreads load,
//! killing a shard mid-batch loses no jobs and changes no bits, jobs
//! re-route off a dead shard to survivors, and a dead shard re-enters
//! rotation once the prober's `Hello` round trip succeeds.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast::{CaptureModel, ChannelSpec, CollisionModel, QueryReport};
use tcast_net::{ClusterConfig, ClusterEvent, NetServer, NetServerConfig, ShardedClient};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

#[path = "support/net.rs"]
mod net;
use net::in_process;

const MODELS: [CollisionModel; 3] = [
    CollisionModel::OnePlus,
    CollisionModel::TwoPlus(CaptureModel::Never),
    CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
];

/// `count` distinct small jobs cycling through every model × algorithm.
fn job_mix(count: usize, base_seed: u64) -> Vec<QueryJob> {
    (0..count as u64)
        .map(|k| {
            let model = MODELS[(k % MODELS.len() as u64) as usize];
            let algorithm = AlgorithmSpec::ALL[(k % AlgorithmSpec::ALL.len() as u64) as usize];
            QueryJob::new(
                algorithm,
                ChannelSpec::ideal(48, 14, model)
                    .seeded(base_seed ^ (k << 8), base_seed.wrapping_add(k)),
                6,
                base_seed.rotate_left(k as u32),
            )
        })
        .collect()
}

fn start_server(workers: usize) -> (NetServer, Arc<QueryService>) {
    net::start_server(workers, NetServerConfig::default())
}

/// An address with no listener behind it (bound once to reserve a free
/// port, then released).
fn dead_addr() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    listener.local_addr().expect("local addr")
}

#[test]
fn routing_is_stable_spreads_load_and_keeps_reports_bit_identical() {
    let servers: Vec<_> = (0..3).map(|_| start_server(2)).collect();
    let addrs: Vec<_> = servers.iter().map(|(s, _)| s.local_addr()).collect();
    let cluster = ShardedClient::connect(addrs, ClusterConfig::default()).expect("connect");
    assert_eq!(cluster.shards(), 3);
    assert_eq!(cluster.healthy_shards(), 3);

    let jobs = job_mix(63, 0xC1_05_7E_12);
    // Routing is a pure function of the job while the healthy set is
    // unchanged.
    for job in &jobs {
        assert_eq!(cluster.route_of(job), cluster.route_of(job));
    }

    let expected = in_process(&jobs);
    let got: Vec<QueryReport> = cluster
        .submit(jobs)
        .wait()
        .into_iter()
        .map(|r| r.expect("cluster job succeeded"))
        .collect();
    assert_eq!(expected, got);

    // Every shard carries a counter row, and with 63 jobs over 3 shards
    // each shard got at least one Submit (frames_out counts the Hello
    // handshake plus one frame per submitted job).
    let snapshot = cluster.metrics();
    assert_eq!(snapshot.net_rows.len(), 3);
    for row in &snapshot.net_rows {
        assert!(row.frames_out >= 2, "{} saw no submits: {row:?}", row.label);
        assert_eq!(row.decode_errors, 0);
    }

    cluster.close();
    for (server, _service) in servers {
        server.shutdown();
    }
}

#[test]
fn killing_a_shard_mid_batch_loses_no_jobs_and_changes_no_bits() {
    let mut servers: Vec<_> = (0..3).map(|_| Some(start_server(2))).collect();
    let addrs: Vec<_> = servers
        .iter()
        .map(|s| s.as_ref().expect("server up").0.local_addr())
        .collect();
    let cluster = ShardedClient::connect(addrs, ClusterConfig::default()).expect("connect");

    let jobs = job_mix(200, 0xDEAD_BEEF);
    let expected = in_process(&jobs);

    // Phase 1: kill shard 1's server while its responses are still
    // streaming back. Jobs it had already admitted drain; jobs it
    // refuses with `ShuttingDown` re-route to the survivors. Either
    // way, every job must come back with a bit-identical report.
    let batch = cluster.submit(jobs.clone());
    let killed = std::thread::spawn({
        let (server, _service) = servers[1].take().expect("server up");
        move || {
            std::thread::sleep(Duration::from_millis(5));
            server.shutdown();
        }
    });
    let got: Vec<QueryReport> = batch
        .wait()
        .into_iter()
        .map(|r| r.expect("job survived the shard kill"))
        .collect();
    assert_eq!(expected, got);
    killed.join().expect("killer thread");

    // Phase 2: the shard is now fully dead. A fresh batch still routes
    // ~1/3 of its jobs at the corpse; each must fail over to a
    // survivor and produce the same report as before.
    let got: Vec<QueryReport> = cluster
        .submit(jobs)
        .wait()
        .into_iter()
        .map(|r| r.expect("job failed over to a surviving shard"))
        .collect();
    assert_eq!(expected, got);

    assert_eq!(cluster.healthy_shards(), 2);
    let events = cluster.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::ShardDown { shard: 1, .. })),
        "no ShardDown for the killed shard: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::Rerouted { .. })),
        "no job was rerouted: {events:?}"
    );

    cluster.close();
    for server in servers.into_iter().flatten() {
        let (server, _service) = server;
        server.shutdown();
    }
}

#[test]
fn a_shard_that_is_down_at_connect_recovers_through_the_prober() {
    let (server_a, _sa) = start_server(2);
    let (server_b, _sb) = start_server(2);
    let dead = dead_addr();
    let addrs = vec![server_a.local_addr(), server_b.local_addr(), dead];

    let config = ClusterConfig::default()
        .with_probe_backoff(Duration::from_millis(10))
        .with_probe_max_backoff(Duration::from_millis(50));
    let cluster = ShardedClient::connect(addrs, config).expect("two of three shards suffice");
    assert_eq!(cluster.healthy_shards(), 2);
    assert!(
        cluster
            .events()
            .iter()
            .any(|e| matches!(e, ClusterEvent::ShardDown { shard: 2, .. })),
        "the unreachable shard must be reported down"
    );

    // The cluster serves fine on two shards.
    let jobs = job_mix(60, 0x5EED);
    let expected = in_process(&jobs);
    let routes_before: Vec<_> = jobs.iter().map(|j| cluster.route_of(j)).collect();
    let got: Vec<QueryReport> = cluster
        .submit(jobs.clone())
        .wait()
        .into_iter()
        .map(|r| r.expect("job succeeded on a degraded cluster"))
        .collect();
    assert_eq!(expected, got);

    // Resurrect shard 2 on its reserved port; the prober's Hello round
    // trip must put it back into rotation.
    let service_c = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    let server_c = NetServer::bind(dead, service_c.clone(), NetServerConfig::default())
        .expect("rebind the reserved port");
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.healthy_shards() < 3 {
        assert!(
            Instant::now() < deadline,
            "prober never recovered the shard: {:?}",
            cluster.events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        cluster
            .events()
            .iter()
            .any(|e| matches!(e, ClusterEvent::ShardUp { shard: 2 })),
        "recovery must be recorded: {:?}",
        cluster.events()
    );

    // Rendezvous minimal disruption: adding a shard back only pulls
    // jobs *to* it — no job moves between the two old shards.
    for (job, before) in jobs.iter().zip(&routes_before) {
        let after = cluster.route_of(job);
        assert!(
            after == *before || after == Some(2),
            "job moved between surviving shards: {before:?} -> {after:?}"
        );
    }

    let got: Vec<QueryReport> = cluster
        .submit(jobs)
        .wait()
        .into_iter()
        .map(|r| r.expect("job succeeded on the recovered cluster"))
        .collect();
    assert_eq!(expected, got);

    cluster.close();
    server_a.shutdown();
    server_b.shutdown();
    server_c.shutdown();
}

#[test]
fn a_cluster_with_no_reachable_shard_refuses_to_connect() {
    let result = ShardedClient::connect(vec![dead_addr(), dead_addr()], ClusterConfig::default());
    assert!(result.is_err(), "connect must fail with every shard down");
}

#[test]
fn priorities_and_tenancy_ride_through_the_cluster() {
    use tcast_net::{NetClientConfig, TenantAuth};
    use tcast_tenant::{Priority, TenantRegistry, TenantSpec};

    // Two authenticated shards sharing one tenant database.
    const KEY: &[u8] = b"cluster-tenant-key";
    let servers: Vec<_> = (0..2)
        .map(|_| {
            let mut registry = TenantRegistry::new();
            registry.register(TenantSpec::new("alice", KEY));
            let service = Arc::new(QueryService::with_tenants(
                ServiceConfig::with_workers(2),
                Arc::new(registry),
            ));
            let server =
                NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
                    .expect("bind ephemeral port");
            (server, service)
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|(s, _)| s.local_addr()).collect();
    let cluster = ShardedClient::connect(
        addrs,
        ClusterConfig::default()
            .with_client(NetClientConfig::default().with_auth(TenantAuth::new("alice", KEY))),
    )
    .expect("authenticated cluster connect");

    // Mixed priority classes on every job; routing ignores them (the
    // route is a pure function of the job identity bytes) while the
    // Submit frames carry them to whichever shard wins.
    let jobs: Vec<QueryJob> = job_mix(30, 0x7E_4A_17)
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            j.with_priority(match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            })
        })
        .collect();
    let expected = in_process(&jobs);
    let results = cluster.submit(jobs).wait();
    for (result, expected) in results.into_iter().zip(expected) {
        assert_eq!(result.expect("job succeeded"), expected);
    }

    // Every job executed under the authenticated tenant, split across
    // the shards by rendezvous routing.
    let alice_jobs: u64 = servers
        .iter()
        .map(|(_, service)| {
            service
                .metrics_registry()
                .snapshot()
                .tenant_rows
                .iter()
                .find(|r| r.tenant == "alice")
                .map_or(0, |r| r.jobs)
        })
        .sum();
    assert_eq!(alice_jobs, 30);

    cluster.close();
    for (server, _) in servers {
        server.shutdown();
    }
}

/// The queue-wait signal `top` reads is actually exposed over the wire:
/// after a shard executes jobs, its metrics carry the
/// `tcast_queue_wait_microseconds` summary.
#[test]
fn queue_wait_signal_is_exposed_over_the_wire() {
    use tcast_net::{NetClient, NetClientConfig};

    let (server, _service) = start_server(2);
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    for result in client.submit(job_mix(8, 0x9_1E7)).wait() {
        result.expect("job succeeded");
    }
    let text = tcast_service::render_prometheus(&client.server_metrics().expect("metrics fetch"));
    assert!(
        text.contains("tcast_queue_wait_microseconds{quantile=\"0.5\"}"),
        "queue-wait p50 missing from the wire exposition:\n{text}"
    );
    client.close();
    server.shutdown();
}

/// `close` wakes the prober under the lock it parks under, so closing a
/// cluster client waits out no probe tick. A prober that slept in fixed
/// 10 ms ticks made every close here wait most of one. The budget
/// forgives one slow close in ten: on a 2-vCPU host, closes that take
/// well under 1 ms in the median were seen to take 5–13 ms now and then
/// while the suite's other tests kept both CPUs busy.
#[test]
fn closing_a_cluster_client_takes_no_probe_tick() {
    let servers: Vec<_> = (0..2).map(|_| start_server(1)).collect();
    let addrs: Vec<_> = servers.iter().map(|(s, _)| s.local_addr()).collect();
    let job = job_mix(1, 0xC105E);
    let took: Vec<Duration> = (0..10)
        .map(|_| {
            let cluster =
                ShardedClient::connect(addrs.clone(), ClusterConfig::default()).expect("connect");
            for result in cluster.submit(job.clone()).wait() {
                result.expect("cluster job succeeded");
            }
            let start = Instant::now();
            cluster.close();
            start.elapsed()
        })
        .collect();
    let slow = took
        .iter()
        .filter(|t| **t >= Duration::from_millis(5))
        .count();
    assert!(slow <= 1, "{slow} of 10 closes took 5 ms or more: {took:?}");
    for (server, _) in servers {
        server.shutdown();
    }
}
