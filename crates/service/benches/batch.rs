//! Batch-native execution throughput: pooled scratch vs per-query
//! allocation, and service-tier batched dequeue across worker counts.
//!
//! ```text
//! cargo bench -p tcast-service --bench batch            # full run, prints JSON
//! cargo bench -p tcast-service --bench batch -- --quick # CI smoke + regression gate
//! ```
//!
//! Three engine-tier arms run the same query stream single-threaded over
//! the production `IdealChannel` (1+, ids `0..X` positive), whose group
//! query allocates nothing:
//!
//! * `serial` — the pre-batch path: fresh `population` + `drive`
//!   buffers allocated per query.
//! * `runner` — [`BatchRunner::run`] over one pooled [`EngineScratch`];
//!   the only steady-state allocation left is the report's trace.
//! * `encoded` — [`BatchRunner::run_policy_encoded`] straight into a
//!   reused wire buffer; steady-state allocations per query are counted
//!   by a tallying global allocator and expected to be ~0.
//!
//! The service-tier arm pushes waves of 128 jobs through a
//! `QueryService` at workers x batch_size in {1,8} x {1,default} and
//! cross-checks every arm's reports for bit-identity against the
//! single-worker run.
//!
//! Output: one JSON document on stdout (the committed `BENCH_batch.json`
//! is authored from a full run; `machine.cpus` records the host's
//! parallelism — worker scaling is only visible when it is > 1). In
//! `--quick` mode the bench additionally validates the committed
//! `BENCH_batch.json` schema and fails on a >20% regression of the
//! speedup ratios or a rise in steady-state allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    population, BatchRunner, ChannelMut, ChannelSpec, CollisionModel, ExecutionProfile,
    IdealChannel, QueryReport, ThresholdQuerier, TwoTBins,
};
use tcast_service::{AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig};

/// Counts heap allocations (alloc + realloc + alloc_zeroed) so the
/// steady-state cost of the encoded batch path is a measured number,
/// not a claim.
struct TallyingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: TallyingAlloc = TallyingAlloc;

const N: usize = 96;
const X: usize = 12;
const T: usize = 8;
const JOBS_PER_WAVE: usize = 128;

/// The production 1+ channel with ids `0..X` positive.
fn one_plus_channel() -> IdealChannel {
    let mut channel = IdealChannel::new(N, CollisionModel::OnePlus, 0);
    channel.set_positives(&population(X));
    channel
}

// ---------------------------------------------------------------------
// Engine tier: one thread, three execution paths over the same stream.
// ---------------------------------------------------------------------

struct EngineArm {
    ns_per_query: f64,
    allocs_per_query: f64,
}

fn measure<F: FnMut()>(queries: usize, mut one_query: F) -> EngineArm {
    // Warm caches and grow every pooled buffer to steady state first.
    for _ in 0..queries / 8 + 8 {
        one_query();
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..queries {
        one_query();
    }
    let elapsed = t0.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    EngineArm {
        ns_per_query: elapsed.as_nanos() as f64 / queries as f64,
        allocs_per_query: allocs as f64 / queries as f64,
    }
}

fn engine_serial(queries: usize) -> EngineArm {
    let mut channel = one_plus_channel();
    let mut rng = SmallRng::seed_from_u64(2011);
    measure(queries, || {
        let nodes = population(N);
        std::hint::black_box(TwoTBins.run(&nodes, T, &mut channel, &mut rng));
    })
}

fn engine_runner(queries: usize) -> EngineArm {
    let mut runner = BatchRunner::with_capacity(ExecutionProfile::new(), N);
    let mut channel = one_plus_channel();
    let mut rng = SmallRng::seed_from_u64(2011);
    measure(queries, || {
        let nodes = runner.scratch().take_population(N);
        let report = runner.run(&TwoTBins, &nodes, T, &mut channel, &mut rng);
        runner.scratch().restore_population(nodes);
        std::hint::black_box(report);
    })
}

fn engine_encoded(queries: usize) -> EngineArm {
    let mut runner = BatchRunner::with_capacity(ExecutionProfile::new(), N);
    let mut channel = one_plus_channel();
    let mut rng = SmallRng::seed_from_u64(2011);
    let mut wire = Vec::new();
    measure(queries, || {
        wire.clear();
        let nodes = runner.scratch().take_population(N);
        let answer = runner.run_policy_encoded(
            &nodes,
            T,
            ChannelMut::single(&mut channel),
            &mut rng,
            &mut wire,
            |s, _| 2 * s.threshold(),
        );
        runner.scratch().restore_population(nodes);
        std::hint::black_box((answer, wire.len()));
    })
}

// ---------------------------------------------------------------------
// Service tier: 128-job waves across worker counts and dequeue batches.
// ---------------------------------------------------------------------

fn wave_jobs() -> Vec<QueryJob> {
    (0..JOBS_PER_WAVE)
        .map(|i| {
            let seed = i as u64;
            QueryJob::new(
                AlgorithmSpec::TwoTBins,
                ChannelSpec::ideal(N, X, CollisionModel::OnePlus)
                    .seeded(seed, seed.rotate_left(17)),
                T,
                seed,
            )
        })
        .collect()
}

fn wave_reports(service: &QueryService) -> Vec<QueryReport> {
    service
        .submit(wave_jobs())
        .expect("service open")
        .wait()
        .into_iter()
        .map(|r| match r.expect("job succeeded") {
            JobOutput::Report(report) => report,
            other => panic!("query job produced {other:?}"),
        })
        .collect()
}

struct ServiceArm {
    workers: usize,
    batch_size: usize,
    jobs_per_sec: f64,
}

fn service_arm(
    workers: usize,
    batch_size: usize,
    waves: usize,
    reference: &[QueryReport],
) -> ServiceArm {
    let service = QueryService::new(
        ServiceConfig::with_workers(workers)
            .with_batch_size(batch_size)
            .with_queue_capacity(JOBS_PER_WAVE * 2),
    );
    // Warmup wave doubles as the bit-identity cross-check: every arm
    // must reproduce the single-worker reports exactly.
    let reports = wave_reports(&service);
    assert_eq!(
        reports, reference,
        "workers={workers} batch_size={batch_size}: reports diverged from the single-worker run"
    );

    let t0 = Instant::now();
    for _ in 0..waves {
        for result in service.submit(wave_jobs()).expect("service open").wait() {
            result.expect("job succeeded");
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    service.shutdown();
    ServiceArm {
        workers,
        batch_size,
        jobs_per_sec: (waves * JOBS_PER_WAVE) as f64 / elapsed,
    }
}

// ---------------------------------------------------------------------
// JSON output + the --quick regression gate.
// ---------------------------------------------------------------------

/// Extracts the number following `"key":` (first occurrence).
fn json_f64(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = &doc[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

const SCHEMA_KEYS: &[&str] = &[
    "bench",
    "cpus",
    "engine",
    "serial_ns_per_query",
    "runner_ns_per_query",
    "encoded_ns_per_query",
    "serial_allocs_per_query",
    "runner_allocs_per_query",
    "encoded_allocs_per_query",
    "runner_speedup",
    "encoded_speedup",
    "service",
    "jobs_per_wave",
    "arms",
    "workers",
    "batch_size",
    "jobs_per_sec",
    "speedup_8w_vs_1w",
];

fn validate_schema(doc: &str, what: &str) {
    for key in SCHEMA_KEYS {
        assert!(
            doc.contains(&format!("\"{key}\"")),
            "{what}: missing required key \"{key}\""
        );
    }
}

/// A measured ratio may not fall more than 20% below the committed one,
/// and steady-state allocations may not rise.
fn check_regression(committed: &str, measured: &str) {
    for key in ["runner_speedup", "encoded_speedup", "speedup_8w_vs_1w"] {
        let baseline = json_f64(committed, key)
            .unwrap_or_else(|| panic!("BENCH_batch.json: \"{key}\" is not a number"));
        let now = json_f64(measured, key).expect("measured doc always carries its own keys");
        assert!(
            now >= 0.8 * baseline,
            "regression: {key} fell {now:.3} < 0.8 x committed {baseline:.3}"
        );
    }
    let baseline = json_f64(committed, "encoded_allocs_per_query").expect("schema-checked");
    let now = json_f64(measured, "encoded_allocs_per_query").expect("measured");
    assert!(
        now <= baseline + 0.5,
        "regression: encoded_allocs_per_query rose {now:.3} > committed {baseline:.3} + 0.5"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (queries, waves) = if quick { (2_000, 4) } else { (20_000, 20) };
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!("engine tier: {queries} queries per arm...");
    let serial = engine_serial(queries);
    let runner = engine_runner(queries);
    let encoded = engine_encoded(queries);

    eprintln!("service tier: {waves} waves of {JOBS_PER_WAVE} jobs per arm...");
    let reference = {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let reports = wave_reports(&service);
        service.shutdown();
        reports
    };
    let default_batch = ServiceConfig::default().batch_size;
    let arms: Vec<ServiceArm> = [(1, 1), (1, default_batch), (8, 1), (8, default_batch)]
        .into_iter()
        .map(|(workers, batch)| service_arm(workers, batch, waves, &reference))
        .collect();

    let best = |workers: usize| {
        arms.iter()
            .filter(|a| a.workers == workers)
            .map(|a| a.jobs_per_sec)
            .fold(0.0f64, f64::max)
    };
    let arm_docs: Vec<String> = arms
        .iter()
        .map(|a| {
            format!(
                "{{\"workers\":{},\"batch_size\":{},\"jobs_per_sec\":{:.1}}}",
                a.workers, a.batch_size, a.jobs_per_sec
            )
        })
        .collect();

    let doc = format!(
        concat!(
            "{{\"bench\":\"batch\",\"quick\":{},\"cpus\":{},",
            "\"engine\":{{\"n\":{},\"x\":{},\"t\":{},\"queries\":{},",
            "\"serial_ns_per_query\":{:.1},\"runner_ns_per_query\":{:.1},",
            "\"encoded_ns_per_query\":{:.1},",
            "\"serial_allocs_per_query\":{:.2},\"runner_allocs_per_query\":{:.2},",
            "\"encoded_allocs_per_query\":{:.2},",
            "\"runner_speedup\":{:.3},\"encoded_speedup\":{:.3}}},",
            "\"service\":{{\"jobs_per_wave\":{},\"waves\":{},\"arms\":[{}],",
            "\"speedup_8w_vs_1w\":{:.3}}}}}"
        ),
        quick,
        cpus,
        N,
        X,
        T,
        queries,
        serial.ns_per_query,
        runner.ns_per_query,
        encoded.ns_per_query,
        serial.allocs_per_query,
        runner.allocs_per_query,
        encoded.allocs_per_query,
        serial.ns_per_query / runner.ns_per_query,
        serial.ns_per_query / encoded.ns_per_query,
        JOBS_PER_WAVE,
        waves,
        arm_docs.join(","),
        best(8) / best(1),
    );
    println!("{doc}");

    if quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("committed BENCH_batch.json unreadable at {path}: {e}"));
        validate_schema(&committed, "committed BENCH_batch.json");
        validate_schema(&doc, "measured doc");
        check_regression(&committed, &doc);
        eprintln!("BENCH_batch.json: schema OK, no >20% regression");
    }
}
