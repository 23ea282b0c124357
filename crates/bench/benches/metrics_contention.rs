//! Contention on the metrics hot path: many worker threads recording
//! results into the *same* label concurrently.
//!
//! Before sharding, every `MetricsRegistry::record` serialized on one
//! registry-wide mutex, so a worker pool hammering a single algorithm
//! label spent its time queueing on the lock rather than recording. The
//! sharded registry pins each thread to one of its internal shards and
//! folds them at snapshot time, so same-label recording from different
//! threads touches different locks. This bench measures aggregate record
//! throughput at 1/2/4/8 recording threads — scaling (rather than
//! inverse scaling) with thread count is the sharding payoff. The
//! registry and its threads live across calls, so a timed call is
//! recording alone: no thread spawns, no registry set-up and no
//! snapshot.
//!
//! Output: one JSON document of million records per second (from the
//! median time of a call) on stdout; progress on stderr.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use tcast::QueryReport;
use tcast_bench::{median_ns, Report};
use tcast_service::{JobOutput, JobResult, MetricsRegistry};

/// Total records per timed call, split across the threads.
const RECORDS: usize = 8_192;

fn sample_result(i: usize) -> JobResult {
    Ok(JobOutput::Report(QueryReport {
        answer: !i.is_multiple_of(3),
        queries: 20 + (i % 13) as u64,
        rounds: 1 + (i % 4) as u32,
        retry_queries: (i % 5) as u64,
        defense_queries: 0,
        anomalies: 0,
        confirmed_positives: 0,
        trace: Vec::new(),
    }))
}

fn main() {
    let results: Vec<JobResult> = (0..RECORDS).map(sample_result).collect();
    let mut r = Report::new("metrics_contention", "m_records_per_s");

    for threads in [1usize, 2, 4, 8] {
        // One registry and one set of recording threads per thread
        // count, outside the timer: a call opens the `start` barrier,
        // every thread records its share, and the call ends when all of
        // them reach `done`.
        let registry = MetricsRegistry::new();
        let start = Barrier::new(threads + 1);
        let done = Barrier::new(threads + 1);
        let stop = AtomicBool::new(false);
        let ns = std::thread::scope(|scope| {
            for worker in 0..threads {
                let (registry, results) = (&registry, &results);
                let (start, done, stop) = (&start, &done, &stop);
                scope.spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for (i, result) in results.iter().skip(worker).step_by(threads).enumerate() {
                        registry.record(
                            "2tBins",
                            result,
                            Duration::from_micros(50 + (i % 7) as u64),
                        );
                    }
                    done.wait();
                });
            }
            let ns = median_ns(21, 20, || {
                start.wait();
                done.wait();
            });
            stop.store(true, Ordering::Relaxed);
            start.wait();
            ns
        });
        black_box(registry.snapshot());
        r.arm(format!("threads/{threads}"), RECORDS as f64 * 1e3 / ns);
    }
    r.print();
}
