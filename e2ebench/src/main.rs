//! One benchmark for the tcast serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sweep|serve|cluster_hardened> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds one workload's job stream from the seed, computes every
//! job's in-process reference report off the clock, then drives the real
//! stack — `QueryService`, `NetServer`/`NetClient`, `ShardedClient` over
//! loopback — for `--seconds`. Every report is compared bit for bit with
//! its reference; any mismatch makes the run exit non-zero.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it runs the per-layer ladder instead (see `ladder.rs`) and
//! writes its spans to `e2ebench/out/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `e2ebench/spec.json` records the workloads, the layer map, and the
//! measured baseline.

mod jobs;
mod ladder;
mod probe;
mod run;
mod stack;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use jobs::{Stream, Workload};
use probe::{median, rss_peak_mib, supported_tail};
use run::{LoopStats, Tally};
use stack::{from_net, timed_setup, Cluster, InProcess, Tenanted, JOB_TIMEOUT};
use trace::Spans;

#[global_allocator]
static ALLOC: probe::TallyingAlloc = probe::TallyingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// `serve` open-loop offered rate, jobs per second over both tenants.
const SERVE_RATE: f64 = 15_000.0;
/// Share of a `serve` run spent in the open loop; the rest is closed.
const SERVE_OPEN_SHARE: f64 = 0.6;
/// Jobs in flight in the `serve` closed loop.
const SERVE_WINDOW: usize = 128;
/// Jobs in flight in the `cluster_hardened` closed loop.
const CLUSTER_WINDOW: usize = 16;
/// A run that has not finished by then exits non-zero without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The stack a workload drives.
pub enum MainStack {
    Sweep(InProcess),
    Serve(Tenanted),
    Cluster(Cluster),
}

impl MainStack {
    fn start(workload: Workload, stream: &Stream) -> Result<Self, String> {
        Ok(match workload {
            Workload::Sweep => MainStack::Sweep(InProcess::start(stream)?),
            Workload::Serve => MainStack::Serve(Tenanted::start(stream)?),
            Workload::ClusterHardened => MainStack::Cluster(Cluster::start(stream)?),
        })
    }

    fn stop(self) {
        match self {
            MainStack::Sweep(s) => drop(s.stop()),
            MainStack::Serve(s) => drop(s.stop()),
            MainStack::Cluster(s) => drop(s.stop()),
        }
    }

    /// The workload's closed loop: waves for `sweep`, a fixed window of
    /// single jobs for `serve` and `cluster_hardened`.
    fn closed_loop(
        &self,
        stream: &Stream,
        dur: Duration,
        tally: &mut Tally,
        spans: Option<&mut Spans>,
    ) -> LoopStats {
        match self {
            MainStack::Sweep(s) => run::waves(&s.service, stream, dur, tally, spans),
            MainStack::Serve(s) => run::window(
                stream,
                dur,
                SERVE_WINDOW,
                tally,
                spans,
                "net.job",
                |i, job| s.client(i).submit_one(job),
                |h| from_net(h.wait_timeout(JOB_TIMEOUT)),
            ),
            MainStack::Cluster(s) => run::window(
                stream,
                dur,
                CLUSTER_WINDOW,
                tally,
                spans,
                "net.cluster.job",
                |_, job| s.client.submit(vec![job]),
                |batch| from_net(batch.wait().pop()),
            ),
        }
    }
}

/// The end-to-end run: set up `SETUP_REPS` times, drive the workload for
/// `dur`, and derive every end-to-end metric.
fn end_to_end(
    workload: Workload,
    stream: &Stream,
    dur: Duration,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let (stack, setup_times) = timed_setup(
        SETUP_REPS,
        || MainStack::start(workload, stream),
        MainStack::stop,
    )?;
    let (timing, jobs_per_s) = match &stack {
        MainStack::Serve(s) => {
            let open = run::open_loop(s, stream, dur.mul_f64(SERVE_OPEN_SHARE), SERVE_RATE, tally);
            let closed =
                stack.closed_loop(stream, dur.mul_f64(1.0 - SERVE_OPEN_SHARE), tally, None);
            (open, closed.jobs_per_s())
        }
        _ => {
            let closed = stack.closed_loop(stream, dur, tally, None);
            let jobs_per_s = closed.jobs_per_s();
            (closed, jobs_per_s)
        }
    };
    stack.stop();

    let setup_s = median(&setup_times);
    let fastest = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setup_times.iter().copied().fold(0.0, f64::max);
    lines.push(format!(
        "setup: {} set-ups, min / median / max = {:.1} / {:.1} / {:.1} us",
        setup_times.len(),
        fastest * 1e6,
        setup_s * 1e6,
        slowest * 1e6
    ));
    let (latency, n) = timing.latency_us(&[0.5, 0.9, 0.99]);
    let tail = supported_tail(n);
    let (steal_all, steal_quiet) = timing.steal();
    let listed = |q: &[f64]| {
        let q: Vec<String> = q.iter().map(|v| format!("{v:.1}")).collect();
        q.join(" / ")
    };
    lines.push(format!(
        "latency: median over the {} of {} windows with the least steal (steal {:.2}% \
         there, {:.2}% over all), >= {n} samples each; p50 / p90 / p99 = {} us; \
         p{} = {:.1} us is the highest percentile with >= 10 samples beyond it",
        run::QUIET,
        run::WINDOWS,
        steal_quiet * 100.0,
        steal_all * 100.0,
        listed(&latency),
        tail * 100.0,
        timing.latency_us(&[tail]).0[0]
    ));
    lines.push(format!(
        "generator lateness (due to submit returned) p50 / p90 / p99 / p99.9 = {} us",
        listed(&timing.late_us(&[0.5, 0.9, 0.99, 0.999])),
    ));
    Ok(vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("jobs_per_s", jobs_per_s, "1/s"),
        Metric::new("latency_p50_us", latency[0], "us"),
        Metric::new("latency_p90_us", latency[1], "us"),
        Metric::new("queries_per_job", stream.queries_per_job(), "count"),
        Metric::new("cpu_us_per_job", timing.cpu_us_per_job(), "us"),
        Metric::new("allocs_per_job", timing.allocs_per_job(), "count"),
        Metric::new("rss_peak_mib", rss_peak_mib(), "MiB"),
    ])
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_result(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.mismatches == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <sweep|serve|cluster_hardened> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });

    let name = args.workload.name();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "e2ebench workload={name} seed={} seconds={} trace={} (nproc={nproc}, loopback 127.0.0.1)",
        args.seed, args.seconds, args.trace as u8
    );
    let stream = Stream::generate(args.workload, args.seed);
    println!(
        "inputs: {} jobs, fingerprint {:#018x} over their cache keys",
        stream.len(),
        stream.fingerprint
    );

    let dur = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let result = if args.trace {
        let mut spans = Spans::new();
        ladder::run(args.workload, &stream, dur, &mut tally, &mut spans).map(|ladder| {
            // One file per workload, overwritten by its next traced run.
            let path = format!("{}/out/spans-{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
            match spans.write_jsonl(std::path::Path::new(&path)) {
                Ok(()) => lines.push(format!("spans: {} written to {path}", spans.recorded())),
                Err(e) => lines.push(format!("spans: not written to {path}: {e}")),
            }
            lines.extend(ladder.lines);
            let mut metrics = ladder.metrics;
            metrics.push(Metric::new(
                "failed_frac",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                "ratio",
            ));
            metrics.push(Metric::new(
                "wrong_verdicts",
                stream.wrong_verdicts(),
                "ratio",
            ));
            metrics
        })
    } else {
        end_to_end(args.workload, &stream, dur, &mut tally, &mut lines)
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    for m in &metrics {
        let boundary = if args.trace { "at boundary " } else { "" };
        println!("  {boundary}{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for line in &lines {
        println!("{line}");
    }
    println!(
        "correctness: {} attempted, {} failed (failed_frac {:.6}), {} reports differ from \
         in-process; wrong_verdicts {:.6} (undetected, share of stream jobs)",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.mismatches,
        stream.wrong_verdicts()
    );
    println!("{}", json_result(&tally, &metrics));
    if tally.mismatches > 0 {
        eprintln!(
            "error: {} reports differ from their in-process reference",
            tally.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
