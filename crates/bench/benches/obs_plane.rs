//! Observability-plane bench: the two numbers the cross-shard tracing
//! PR promises, written as one JSON document (the committed
//! `BENCH_obs_plane.json`).
//!
//! * **Span-site overhead.** The V4 context-propagation refactor turned
//!   the server's `service.execute` site from `Span::enter_fields` into
//!   `Span::enter_remote`. Both shapes are timed here, with no sink
//!   (the production default) and with a collector installed, and the
//!   remote-capable site must stay within run-to-run noise of the
//!   pre-refactor baseline. The head-sampled-out (`sampled = false`)
//!   remote site is timed too — it must stay on the inert fast path.
//! * **Tail-sampler retention.** A 10k-trace soak through a
//!   [`TraceCollector`]: every error trace must be kept (100%
//!   retention) and the slow/normal remainder kept at exactly the
//!   configured fraction (deterministic accumulator, so the tolerance
//!   is one trace, not statistical).
//!
//! `--quick` shrinks the iteration counts, validates the committed
//! `BENCH_obs_plane.json` schema, and gates: error retention exactly
//! 1.0, sampled fraction within 1% of configured, and the enabled
//! remote span site within 30% of the enabled baseline site (the
//! bound is generous because CI machines are noisy; the committed
//! numbers document the real margin).
//!
//! Output: the JSON document on stdout; progress on stderr.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tcast_bench::time_ns;
use tcast_obs::{
    add_sink, Record, Span, SpanContext, TraceCollector, TraceCollectorConfig, TraceId, TraceSink,
};

/// Counts drained records and drops them, so enabled-mode arms measure
/// the record path rather than sink memory growth.
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn consume(&self, records: &[Record]) {
        self.0.fetch_add(records.len() as u64, Ordering::Relaxed);
    }
}

struct SpanSite {
    baseline_ns: f64,
    remote_ns: f64,
    inert_remote_ns: f64,
    enabled_baseline_ns: f64,
    enabled_remote_ns: f64,
}

fn span_site(iters: u64) -> SpanSite {
    let trace = TraceId::fresh();
    let parent = SpanContext::child_of(0xFEED);
    let inert = SpanContext {
        parent: 0xFEED,
        sampled: false,
    };

    // No sink installed: the production default for all three shapes.
    let baseline_ns = time_ns(iters, || {
        let span = Span::enter_fields(black_box(trace), "bench.span", &[("shard", 3)]);
        black_box(&span);
    });
    let remote_ns = time_ns(iters, || {
        let span = Span::enter_remote(black_box(trace), "bench.span", parent, &[("shard", 3)]);
        black_box(&span);
    });
    let inert_remote_ns = time_ns(iters, || {
        let span = Span::enter_remote(black_box(trace), "bench.span", inert, &[("shard", 3)]);
        black_box(&span);
    });

    // Collector installed: same two shapes, now writing ring records.
    let sink = Arc::new(CountingSink(AtomicU64::new(0)));
    let guard = add_sink(sink.clone());
    let enabled_baseline_ns = time_ns(iters, || {
        let span = Span::enter_fields(black_box(trace), "bench.span", &[("shard", 3)]);
        black_box(&span);
    });
    let enabled_remote_ns = time_ns(iters, || {
        let span = Span::enter_remote(black_box(trace), "bench.span", parent, &[("shard", 3)]);
        black_box(&span);
    });
    drop(guard);
    assert!(
        sink.0.load(Ordering::Relaxed) > 0,
        "enabled arms must have recorded"
    );

    SpanSite {
        baseline_ns,
        remote_ns,
        inert_remote_ns,
        enabled_baseline_ns,
        enabled_remote_ns,
    }
}

struct TailSoak {
    traces: u64,
    errors: u64,
    keep_fraction: f64,
    kept_errors: u64,
    kept_sampled: u64,
    eligible: u64,
    error_retention: f64,
    sampled_fraction: f64,
}

/// Drives `traces` synthetic traces through a collector via the real
/// ring path (span enter → event → root close → drain) with one trace
/// in `error_every` carrying a deadline-exceeded error signal.
fn tail_soak(traces: u64, keep_fraction: f64) -> TailSoak {
    const ERROR_EVERY: u64 = 8;
    let collector = Arc::new(TraceCollector::new(
        TraceCollectorConfig::default()
            .with_capacity(256)
            .with_keep_fraction(keep_fraction)
            // Every completed trace is sampling-eligible, so retention
            // is exactly the accumulator's fraction — no quantile noise
            // in the gate. The quantile path has its own unit tests.
            .with_slow_quantile(0.0),
    ));
    let guard = add_sink(collector.clone() as Arc<dyn TraceSink>);
    let mut errors = 0u64;
    for k in 0..traces {
        let trace = TraceId::fresh();
        let span = Span::enter_fields(trace, "soak.root", &[("k", k)]);
        if k % ERROR_EVERY == 0 {
            span.event("service.deadline_exceeded", &[("budget_us", 1)]);
            errors += 1;
        }
        drop(span);
    }
    tcast_obs::flush();
    drop(guard);

    let stats = collector.stats();
    assert_eq!(stats.completed, traces, "every soak trace must complete");
    let eligible = traces - errors;
    TailSoak {
        traces,
        errors,
        keep_fraction,
        kept_errors: stats.kept_errors,
        kept_sampled: stats.kept_sampled,
        eligible,
        error_retention: stats.kept_errors as f64 / errors as f64,
        sampled_fraction: stats.kept_sampled as f64 / eligible as f64,
    }
}

// ---------------------------------------------------------------------
// JSON output + the --quick gate.
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
    "span_site",
    "baseline_ns",
    "remote_ns",
    "inert_remote_ns",
    "enabled_baseline_ns",
    "enabled_remote_ns",
    "remote_over_baseline",
    "tail",
    "traces",
    "errors",
    "keep_fraction",
    "kept_errors",
    "kept_sampled",
    "error_retention",
    "sampled_fraction",
];

fn validate_schema(doc: &str, what: &str) {
    for key in SCHEMA_KEYS {
        assert!(
            doc.contains(&format!("\"{key}\"")),
            "{what}: missing required key \"{key}\""
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, traces) = if quick {
        (200_000, 10_000)
    } else {
        (2_000_000, 10_000)
    };
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!("span-site overhead: {iters} iterations per arm...");
    let site = span_site(iters);
    eprintln!("tail-sampler soak: {traces} traces...");
    let soak = tail_soak(traces, 0.25);

    let doc = format!(
        concat!(
            "{{\"bench\":\"obs_plane\",\"quick\":{},\"cpus\":{},",
            "\"span_site\":{{\"iters\":{},\"baseline_ns\":{:.1},\"remote_ns\":{:.1},",
            "\"inert_remote_ns\":{:.1},\"enabled_baseline_ns\":{:.1},",
            "\"enabled_remote_ns\":{:.1},\"remote_over_baseline\":{:.3}}},",
            "\"tail\":{{\"traces\":{},\"errors\":{},\"keep_fraction\":{:.2},",
            "\"kept_errors\":{},\"kept_sampled\":{},\"eligible\":{},",
            "\"error_retention\":{:.4},\"sampled_fraction\":{:.4}}}}}"
        ),
        quick,
        cpus,
        iters,
        site.baseline_ns,
        site.remote_ns,
        site.inert_remote_ns,
        site.enabled_baseline_ns,
        site.enabled_remote_ns,
        site.enabled_remote_ns / site.enabled_baseline_ns,
        soak.traces,
        soak.errors,
        soak.keep_fraction,
        soak.kept_errors,
        soak.kept_sampled,
        soak.eligible,
        soak.error_retention,
        soak.sampled_fraction,
    );
    println!("{doc}");

    // Retention is deterministic, so gate it unconditionally.
    assert_eq!(
        soak.error_retention, 1.0,
        "tail sampler must keep every error trace"
    );
    assert!(
        (soak.sampled_fraction - soak.keep_fraction).abs() <= 0.01,
        "sampled fraction {:.4} strayed from configured {:.2}",
        soak.sampled_fraction,
        soak.keep_fraction
    );

    if quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_plane.json");
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("committed BENCH_obs_plane.json unreadable at {path}: {e}"));
        validate_schema(&committed, "committed BENCH_obs_plane.json");
        validate_schema(&doc, "measured doc");
        let ratio = json_f64(&doc, "remote_over_baseline").expect("measured doc carries its keys");
        assert!(
            ratio <= 1.30,
            "span-site regression: enabled remote site {ratio:.3}x the baseline site (> 1.30)"
        );
        eprintln!("BENCH_obs_plane.json: schema OK, span site within noise, retention exact");
    }
}
