//! Allocation guard for the cluster request path.
//!
//! A `ShardedClient` routes each job of the hardened cluster mix over
//! two loopback `NetServer` shards (one worker and one I/O thread each)
//! and waits for its report, 16 jobs in flight. Routing allocates
//! nothing, a one-job batch keeps its job's route inline, and a shard
//! allocates nothing per job (`tests/serve_allocs.rs`), so what a job
//! costs is the caller's `vec![job]`, the results `Vec` it gets back,
//! the connection's slot and the decoded report's trace. A tallying
//! global allocator counts every heap allocation of the process —
//! caller, reactor and worker threads alike — and the mean per job is
//! held under a budget.
//!
//! The file holds exactly one `#[test]`: the counter is process-wide, and
//! a second test running on a parallel thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::{
    AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy, LossConfig,
    RetryPolicy,
};
use tcast_net::{ClusterConfig, NetServer, NetServerConfig, ShardedClient};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

struct TallyingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; the new size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: TallyingAlloc = TallyingAlloc;

const SHARDS: usize = 2;
const WINDOW: usize = 16;
const WARM_UP: usize = 240;
const MEASURED: usize = 1200;

/// Mean heap allocations per job the whole process may make.
const BUDGET: f64 = 4.54;

/// The hardened cluster mix: four exact algorithms at N=512, t=64 under
/// the 2+ model, verified(2) retries and hardened defenses, over lossy
/// links, a 35% jammer and one false responder in turn.
fn cluster_jobs(len: usize) -> Vec<QueryJob> {
    let (n, t) = (512, 64);
    let model = CollisionModel::two_plus_default();
    let algorithms = [
        AlgorithmSpec::TwoTBins,
        AlgorithmSpec::ExpIncrease,
        AlgorithmSpec::AbnsP0T,
        AlgorithmSpec::AbnsP02T,
    ];
    let xs = [0, t - 1, t, 2 * t, n];
    let liar_xs = [0, t / 4, t / 2, 3 * t / 4, t - 2];
    let mut rng = SmallRng::seed_from_u64(0x434c_5553_5400_0003);
    (0..len)
        .map(|i| {
            let (x, algorithm) = (i / 3 % 5, i / 15 % 4);
            let mut adversary = |model| AdversaryConfig {
                model,
                seed: rng.random(),
            };
            let channel = match i % 3 {
                0 => ChannelSpec::lossy(n, xs[x], model, LossConfig::default()),
                1 => ChannelSpec::adversarial(
                    n,
                    xs[x],
                    model,
                    None,
                    adversary(AdversaryModel::Jammer { duty_mille: 350 }),
                ),
                _ => ChannelSpec::adversarial(
                    n,
                    liar_xs[x],
                    model,
                    None,
                    adversary(AdversaryModel::FalseResponders { count: 1 }),
                ),
            }
            .seeded(rng.random(), rng.random())
            .with_retry(RetryPolicy::verified(2))
            .with_defense(DefensePolicy::hardened());
            QueryJob::new(algorithms[algorithm], channel, t, rng.random())
        })
        .collect()
}

#[test]
fn a_cluster_job_allocates_only_what_it_hands_back() {
    let shards: Vec<_> = (0..SHARDS)
        .map(|_| {
            let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
            let server = NetServer::bind(
                "127.0.0.1:0",
                service.clone(),
                NetServerConfig::default().with_io_threads(1),
            )
            .expect("bind loopback");
            (service, server)
        })
        .collect();
    let client = ShardedClient::connect(
        shards.iter().map(|(_, server)| server.local_addr()),
        ClusterConfig::default(),
    )
    .expect("cluster connect");

    let jobs = cluster_jobs(WARM_UP + MEASURED);
    let expected: Vec<_> = jobs.iter().map(QueryJob::execute).collect();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut run = |range: std::ops::Range<usize>| {
        let wait_oldest = |inflight: &mut VecDeque<(usize, tcast_net::ClusterBatch)>| {
            let (i, batch) = inflight.pop_front().expect("a job in flight");
            let report = batch
                .wait()
                .pop()
                .expect("one result per job")
                .expect("remote job succeeded");
            assert!(report == expected[i], "job {i} differs from in-process");
        };
        for i in range {
            if inflight.len() == WINDOW {
                wait_oldest(&mut inflight);
            }
            inflight.push_back((i, client.submit(vec![jobs[i]])));
        }
        while !inflight.is_empty() {
            wait_oldest(&mut inflight);
        }
    };

    // Connection buffers, the workers' scratch, the queues and the
    // metrics series grow to steady state first.
    run(0..WARM_UP);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(WARM_UP..WARM_UP + MEASURED);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(client.healthy_shards(), SHARDS, "no shard failed");
    client.close();
    for (_, server) in shards {
        server.shutdown();
    }
    let per_job = allocs as f64 / MEASURED as f64;
    println!("{per_job:.2} allocations per job over {MEASURED} jobs");
    assert!(
        per_job <= BUDGET,
        "{per_job:.2} allocations per cluster job ({allocs} over {MEASURED}), budget {BUDGET}"
    );
}
