//! Property: service output is bit-identical at any worker count.
//!
//! A batch covering every algorithm × collision model, with randomized
//! population, threshold, positive count, and seeds, must produce the
//! exact same `QueryReport`s (answers, query counts, traces — everything
//! `PartialEq` sees) whether the pool has 1, 2, or 8 workers.

use proptest::prelude::*;

use tcast::{CaptureModel, ChannelSpec, CollisionModel, QueryReport};
use tcast_service::{
    AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig, SubmitError, SubmitOptions,
};

const MODELS: [CollisionModel; 3] = [
    CollisionModel::OnePlus,
    CollisionModel::TwoPlus(CaptureModel::Never),
    CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
];

/// One batch spanning every algorithm × collision model combination.
fn full_coverage_batch(n: usize, x: usize, t: usize, base_seed: u64) -> Vec<QueryJob> {
    let mut jobs = Vec::new();
    for (mi, model) in MODELS.into_iter().enumerate() {
        for (ai, algorithm) in AlgorithmSpec::ALL.into_iter().enumerate() {
            let k = (mi * AlgorithmSpec::ALL.len() + ai) as u64;
            jobs.push(QueryJob::new(
                algorithm,
                ChannelSpec::ideal(n, x, model)
                    .seeded(base_seed ^ (k << 8), base_seed.wrapping_add(k)),
                t,
                base_seed.rotate_left(k as u32),
            ));
        }
    }
    jobs
}

fn run_at(workers: usize, jobs: &[QueryJob]) -> Vec<QueryReport> {
    let service = QueryService::new(ServiceConfig::with_workers(workers));
    let results = service.submit(jobs.to_vec()).expect("service open").wait();
    results
        .into_iter()
        .map(|r| match r.expect("job succeeded") {
            JobOutput::Report(report) => report,
            other => panic!("query job produced {other:?}"),
        })
        .collect()
}

#[test]
fn batch_len_and_is_empty_track_the_submitted_jobs() {
    let service = QueryService::new(ServiceConfig::with_workers(2));
    let empty = service.submit(Vec::new()).expect("service open");
    assert_eq!(empty.len(), 0);
    assert!(empty.is_empty());
    assert!(empty.wait().is_empty());

    let jobs = full_coverage_batch(32, 10, 4, 99);
    let n = jobs.len();
    let batch = service.submit(jobs).expect("service open");
    assert_eq!(batch.len(), n);
    assert!(!batch.is_empty());
    assert_eq!(batch.wait().len(), n);
}

#[test]
fn shutdown_after_a_nonblocking_rejection_loses_no_jobs() {
    // Regression: a batch bounced by a non-blocking submit must leave no
    // residue in the queue accounting — after the service drains and shuts
    // down, the metrics must account for exactly the accepted jobs, and the
    // rejected jobs must come back intact for resubmission elsewhere.
    let service = QueryService::new(ServiceConfig::with_workers(1).with_queue_capacity(2));
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let gate: Box<dyn FnOnce() -> tcast_service::JobOutput + Send> = Box::new(move || {
        rx.recv().ok();
        JobOutput::Value(0.0)
    });
    let gate_batch = service.submit_tasks("gate", vec![gate]).expect("open");

    let accepted = full_coverage_batch(16, 4, 2, 7);
    let accepted_count = accepted.len() as u64;
    let accepted_batch = service.submit(accepted).expect("open");

    let rejected_jobs = full_coverage_batch(16, 8, 2, 8);
    let nonblocking = SubmitOptions::new().nonblocking();
    let handed_back = match service.submit_with(rejected_jobs.clone(), nonblocking) {
        Err(SubmitError::QueueFull(jobs)) => jobs,
        Err(other) => panic!("expected QueueFull, got {other:?}"),
        Ok(_) => panic!("expected QueueFull, got acceptance"),
    };
    assert_eq!(handed_back, rejected_jobs, "rejected jobs returned intact");

    tx.send(()).unwrap();
    gate_batch.wait();
    assert_eq!(accepted_batch.wait().len(), accepted_count as usize);

    let snap = service.shutdown();
    let query_jobs: u64 = snap
        .rows
        .iter()
        .filter(|r| r.label != "gate")
        .map(|r| r.jobs)
        .sum();
    assert_eq!(query_jobs, accepted_count, "every accepted job ran");
    let panics: u64 = snap.rows.iter().map(|r| r.panics).sum();
    assert_eq!(panics, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batch_results_identical_at_any_worker_count(
        n in 16usize..96,
        x_frac in 0usize..=100,
        t_frac in 1usize..=50,
        base_seed in any::<u64>(),
    ) {
        let x = n * x_frac / 100;
        let t = (n * t_frac / 100).max(1);
        let jobs = full_coverage_batch(n, x, t, base_seed);

        let serial = run_at(1, &jobs);
        // Sanity: on the ideal channel every exact algorithm must answer
        // the ground truth.
        for (job, report) in jobs.iter().zip(&serial) {
            if job.algorithm != AlgorithmSpec::ProbAbns {
                prop_assert_eq!(
                    report.answer,
                    x >= t,
                    "{} mis-answered (n={} x={} t={})",
                    job.algorithm.name(), n, x, t
                );
            }
        }
        for workers in [2usize, 8] {
            let parallel = run_at(workers, &jobs);
            prop_assert_eq!(
                &serial,
                &parallel,
                "results diverged between 1 and {} workers",
                workers
            );
        }
    }
}
