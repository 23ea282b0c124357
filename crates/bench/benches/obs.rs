//! Overhead of the `tcast-obs` record path, proving the two numbers the
//! observability layer promises:
//!
//! * **No-op is nearly free.** With no sink installed, a span enter +
//!   event + drop costs a couple of relaxed atomic loads — nanoseconds.
//!   Every instrumented tier (engine, service, net) rides this path in
//!   production unless a collector is explicitly attached.
//! * **Enabled stays bounded.** With a collector installed, the same
//!   path writes fixed-size `Copy` records into a thread-local ring —
//!   no allocation, no locks until the ring drains.
//!
//! The end-to-end cost of tracing a service batch is e2ebench's
//! `trace.overhead` ladder rung.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use tcast_obs::{add_sink, Record, Span, TraceId, TraceSink};

/// Counts drained records and drops them, so enabled-mode benches
/// measure the record path rather than sink memory growth.
struct CountingSink(std::sync::atomic::AtomicU64);

impl TraceSink for CountingSink {
    fn consume(&self, records: &[Record]) {
        self.0
            .fetch_add(records.len() as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

fn span_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_span");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));

    // No sink installed: the production default. The whole span +
    // event + drop must collapse to enabled() checks.
    g.bench_function("noop_span_plus_event", |b| {
        let trace = TraceId::fresh();
        b.iter(|| {
            let span = Span::enter(black_box(trace), "bench.span");
            span.event("bench.event", &[("k", 1), ("v", 2)]);
        })
    });

    // Collector installed: same shape, now writing ring records.
    g.bench_function("enabled_span_plus_event", |b| {
        let sink = Arc::new(CountingSink(std::sync::atomic::AtomicU64::new(0)));
        let _guard = add_sink(sink.clone());
        let trace = TraceId::fresh();
        b.iter(|| {
            let span = Span::enter(black_box(trace), "bench.span");
            span.event("bench.event", &[("k", 1), ("v", 2)]);
        })
    });

    g.finish();
}

criterion_group!(benches, span_hot_path);
criterion_main!(benches);
