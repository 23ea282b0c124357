//! Routing identity for the cluster front-end.
//!
//! `ShardedClient` places a job by rendezvous hashing: every healthy
//! shard's weight is `fingerprint64("{index}:{addr}" ‖ cache_key)`, the
//! highest weight wins and ties go to the lowest index. The router keeps
//! each label's hash state and continues it over the job key instead of
//! concatenating; this test holds its placements to the concatenating
//! reference over thousands of jobs of every channel kind, before and
//! after a shard goes down.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::{
    fingerprint64, AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy,
    LossConfig, RetryPolicy,
};
use tcast_net::{ClusterConfig, NetServer, NetServerConfig, ShardedClient};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

const SHARDS: usize = 3;
const JOBS: usize = 2_400;

/// Ideal, lossy, jammed and lied-to jobs in turn, every seed drawn.
fn jobs(len: usize) -> Vec<QueryJob> {
    let (n, t) = (64, 8);
    let mut rng = SmallRng::seed_from_u64(0x524f_5554_4500_0001);
    (0..len)
        .map(|i| {
            let model = if i % 2 == 0 {
                CollisionModel::OnePlus
            } else {
                CollisionModel::two_plus_default()
            };
            let x = rng.random_range(0..=n);
            let mut adversary = |model| AdversaryConfig {
                model,
                seed: rng.random(),
            };
            let channel = match i % 4 {
                0 => ChannelSpec::ideal(n, x, model),
                1 => ChannelSpec::lossy(n, x, model, LossConfig::default())
                    .with_retry(RetryPolicy::verified(2)),
                2 => ChannelSpec::adversarial(
                    n,
                    x,
                    model,
                    None,
                    adversary(AdversaryModel::Jammer { duty_mille: 350 }),
                )
                .with_defense(DefensePolicy::hardened()),
                _ => ChannelSpec::adversarial(
                    n,
                    x.min(t - 2),
                    model,
                    None,
                    adversary(AdversaryModel::FalseResponders { count: 1 }),
                )
                .with_defense(DefensePolicy::hardened()),
            }
            .seeded(rng.random(), rng.random());
            let algorithm = AlgorithmSpec::ALL[i % AlgorithmSpec::ALL.len()];
            QueryJob::new(algorithm, channel, t, rng.random())
        })
        .collect()
}

/// The reference placement over the shards `up` says are healthy.
fn reference(addrs: &[SocketAddr], up: &[bool], job: &QueryJob) -> Option<usize> {
    let key = job.cache_key();
    let mut best: Option<(u64, usize)> = None;
    for (shard, addr) in addrs.iter().enumerate() {
        if !up[shard] {
            continue;
        }
        let mut bytes = format!("{shard}:{addr}").into_bytes();
        bytes.extend_from_slice(&key);
        let weight = fingerprint64(&bytes);
        if best.is_none_or(|(w, _)| weight > w) {
            best = Some((weight, shard));
        }
    }
    best.map(|(_, shard)| shard)
}

#[test]
fn placements_match_the_concatenating_reference_before_and_after_a_shard_fails() {
    let mut servers: Vec<_> = (0..SHARDS)
        .map(|_| {
            let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
            let server = NetServer::bind(
                "127.0.0.1:0",
                service,
                NetServerConfig::default().with_io_threads(1),
            )
            .expect("bind loopback");
            Some(server)
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers
        .iter()
        .map(|s| s.as_ref().expect("server up").local_addr())
        .collect();
    let cluster = ShardedClient::connect(addrs.clone(), ClusterConfig::default()).expect("connect");
    let jobs = jobs(JOBS);

    let mut up = [true; SHARDS];
    let mut per_shard = [0usize; SHARDS];
    for (i, job) in jobs.iter().enumerate() {
        let shard = cluster.route_of(job);
        assert_eq!(shard, reference(&addrs, &up, job), "job {i}");
        per_shard[shard.expect("a healthy shard")] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > JOBS / 6),
        "every shard takes a share: {per_shard:?}"
    );

    // Take shard 1 down: the jobs it owned fail over and mark it down.
    servers[1].take().expect("server up").shutdown();
    let owned: Vec<QueryJob> = jobs
        .iter()
        .filter(|job| cluster.route_of(job) == Some(1))
        .take(8)
        .copied()
        .collect();
    for result in cluster.submit(owned).wait() {
        result.expect("job failed over to a surviving shard");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.healthy_shards() == SHARDS {
        assert!(Instant::now() < deadline, "shard 1 never went down");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(cluster.healthy_shards(), SHARDS - 1);
    up[1] = false;
    for (i, job) in jobs.iter().enumerate() {
        let shard = cluster.route_of(job);
        assert_eq!(shard, reference(&addrs, &up, job), "job {i}, shard 1 down");
        assert_ne!(shard, Some(1));
    }

    cluster.close();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
}
