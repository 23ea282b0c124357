//! Allocation guard for the networked request path.
//!
//! One job submitted through an HMAC-authenticated `NetClient`, carried
//! by a loopback `NetServer` into a tenanted `QueryService` and answered
//! back allocates one thing: the decoded report's trace, which the
//! caller gets. The client's handle reuses a slot off its connection's
//! pool. The server allocates nothing per job: its work unit comes off
//! the service's free list, the engine copies the report's trace into a
//! buffer an earlier report left with that unit, and the connection's
//! completion watcher is shared by all its jobs. A tallying global
//! allocator counts every heap allocation of the process — client,
//! reactor and worker threads alike — over thousands of one-at-a-time
//! jobs, and the mean per job is held under a budget.
//!
//! The file holds exactly one `#[test]`: the counter is process-wide, and
//! a second test running on a parallel thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, TenantAuth};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};
use tcast_tenant::{TenantRegistry, TenantSpec};

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

const KEY: &[u8] = b"serve-allocs-key";
const WARM_UP: usize = 200;
const MEASURED: usize = 2400;
const TIMEOUT: Duration = Duration::from_secs(10);

/// Mean heap allocations per job the whole process may make.
const BUDGET: f64 = 1.5;

/// The `serve` job mix: 2tBins and ABNS(p0=t) at N=128, t=16, 1+ model,
/// x in {0, t-1, N}, every seed drawn from one generator.
fn serve_jobs(len: usize) -> Vec<QueryJob> {
    let (n, t) = (128, 16);
    let algorithms = [AlgorithmSpec::TwoTBins, AlgorithmSpec::AbnsP0T];
    let xs = [0, t - 1, n];
    let mut rng = SmallRng::seed_from_u64(0x5345_5256_4500_0002);
    (0..len)
        .map(|i| {
            let channel = ChannelSpec::ideal(n, xs[i / 2 % 3], CollisionModel::OnePlus)
                .seeded(rng.random(), rng.random());
            QueryJob::new(algorithms[i % 2], channel, t, rng.random())
        })
        .collect()
}

#[test]
fn a_networked_serve_job_stays_within_its_allocation_budget() {
    let mut registry = TenantRegistry::new();
    registry.register(
        TenantSpec::new("gold", KEY)
            .weight(3)
            .rate(1e9, 1e9)
            .max_in_flight(1 << 20),
    );
    let service = Arc::new(QueryService::with_tenants(
        ServiceConfig::with_workers(2),
        Arc::new(registry),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_io_threads(1),
    )
    .expect("bind loopback");
    let client = NetClient::connect(
        server.local_addr(),
        NetClientConfig::default().with_auth(TenantAuth::new("gold", KEY)),
    )
    .expect("authenticated connect");

    let jobs = serve_jobs(WARM_UP + MEASURED);
    let expected: Vec<_> = jobs.iter().map(QueryJob::execute).collect();
    let run = |range: std::ops::Range<usize>| {
        for i in range {
            let report = client
                .submit_one(jobs[i])
                .wait_timeout(TIMEOUT)
                .expect("response within the timeout")
                .expect("remote job succeeded");
            assert!(report == expected[i], "job {i} differs from in-process");
        }
    };

    // Connection buffers, the worker scratch and the metrics series grow
    // to steady state first.
    run(0..WARM_UP);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(WARM_UP..WARM_UP + MEASURED);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    client.close();
    server.shutdown();
    let per_job = allocs as f64 / MEASURED as f64;
    println!("{per_job:.2} allocations per job over {MEASURED} jobs");
    assert!(
        per_job <= BUDGET,
        "{per_job:.2} allocations per networked job ({allocs} over {MEASURED}), budget {BUDGET}"
    );
}
