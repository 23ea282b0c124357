//! A thread waiting on a batch runs that batch's jobs itself.
//!
//! The service's only worker is held inside a gate task. Query jobs
//! submitted behind it still complete through `Batch::wait`, because the
//! waiting thread claims and runs them — with reports bit-identical to
//! `QueryJob::execute`. Without that, the wait blocks until a watchdog
//! opens the gate.

#[path = "support/gated.rs"]
mod gated;

use tcast::{ChannelSpec, CollisionModel, QueryReport};
use tcast_service::{AlgorithmSpec, JobOutput, JobResult, QueryJob};

use gated::Gated;

fn jobs() -> Vec<QueryJob> {
    (0..4)
        .map(|i| {
            QueryJob::new(
                AlgorithmSpec::ALL[i as usize % AlgorithmSpec::ALL.len()],
                ChannelSpec::ideal(64, 5 + 5 * i as usize, CollisionModel::OnePlus)
                    .seeded(i, i + 1),
                8,
                i,
            )
        })
        .collect()
}

fn report(result: JobResult) -> QueryReport {
    match result.expect("job succeeds") {
        JobOutput::Report(report) => report,
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn a_batch_wait_runs_the_batch_while_the_worker_is_busy() {
    let gated = Gated::start();
    let expected: Vec<QueryReport> = jobs().iter().map(QueryJob::execute).collect();
    let batch = gated.service.submit(jobs()).expect("service open");
    let got: Vec<QueryReport> = batch.wait().into_iter().map(report).collect();
    assert!(!gated.open(), "the wait blocked on the gate");
    assert_eq!(got, expected);
}
