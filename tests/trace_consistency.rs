//! Every trace emitted for a query must agree with its `QueryReport`.
//!
//! For all seven exact algorithms, on ideal and lossy channels, with and
//! without verified-silence retries, the records collected by a
//! `MemorySink` for one query's `TraceId` must satisfy:
//!
//! * one `engine.round` event per report round (the events mirror the
//!   report's `RoundTrace` entries one-for-one, verification episodes
//!   included);
//! * the retry counts carried on `engine.round` events — and,
//!   independently, on `engine.retry` burst events — sum to the report's
//!   `retry_queries`;
//! * span nesting is well-formed (every `span_end` closes the innermost
//!   open span, events attach to the enclosing span, nothing stays open);
//! * every `engine.verdict` event agrees with the report's answer.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    population, Abns, ChannelSpec, CollisionModel, ExecutionProfile, ExpIncrease, LossConfig,
    OracleBins, ProbAbns, RetryPolicy, ThresholdQuerier, TwoTBins,
};
use tcast_obs::{add_sink, check_nesting, scoped_trace, MemorySink, Record, RecordKind, TraceId};

fn spec(n: usize, x: usize, lossy: bool, seed: u64) -> ChannelSpec {
    let base = if lossy {
        ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
    } else {
        ChannelSpec::ideal(n, x, CollisionModel::two_plus_default())
    };
    base.seeded(seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

fn sum_field(records: &[Record], name: &'static str, field: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Event && r.name == name)
        .map(|r| r.field(field).unwrap_or(0))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_are_consistent_with_reports(
        n in 1usize..48,
        x_frac in 0.0f64..=1.0,
        t in 0usize..52,
        seed in any::<u64>(),
        lossy in any::<bool>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if lossy { RetryPolicy::verified(2) } else { RetryPolicy::none() };
        let s = spec(n, x, lossy, seed);
        let (_, truth) = tcast_adversary::build_with_truth(&s);

        let algorithms: Vec<Box<dyn ThresholdQuerier>> = vec![
            Box::new(TwoTBins),
            Box::new(ExpIncrease::standard()),
            Box::new(ExpIncrease::pause_and_continue(0.4)),
            Box::new(ExpIncrease::four_fold()),
            Box::new(Abns::p0_t()),
            Box::new(Abns::p0_2t()),
            Box::new(ProbAbns::standard()),
            Box::new(OracleBins::new(truth)),
        ];

        let sink = Arc::new(MemorySink::new());
        let guard = add_sink(sink.clone());

        for alg in algorithms {
            let trace = TraceId::fresh();
            let (mut ch, _) = tcast_adversary::build_with_truth(&s);
            let mut rng = SmallRng::seed_from_u64(seed);
            let report = {
                let _scope = scoped_trace(trace);
                alg.run_with_options(
                    &population(n),
                    t,
                    ch.as_mut(),
                    &mut rng,
                    ExecutionProfile::new().with_retry(retry),
                )
            };
            report.assert_consistent();
            tcast_obs::flush();
            let records = sink.for_trace(trace);

            // One engine.round event per report round.
            let round_events: Vec<&Record> = records
                .iter()
                .filter(|r| r.kind == RecordKind::Event && r.name == "engine.round")
                .collect();
            prop_assert_eq!(
                round_events.len(),
                report.rounds as usize,
                "{}: round events vs report.rounds {}", alg.name(), report.rounds
            );
            // Round events mirror the report's trace entries in order.
            for (event, entry) in round_events.iter().zip(report.trace.iter()) {
                prop_assert_eq!(event.field("bins"), Some(entry.bins as u64));
                prop_assert_eq!(event.field("queried_bins"), Some(entry.queried_bins as u64));
                prop_assert_eq!(event.field("retries"), Some(entry.retries as u64));
                prop_assert_eq!(event.field("remaining"), Some(entry.remaining as u64));
            }

            // Retry accounting, two independent ways.
            prop_assert_eq!(
                sum_field(&records, "engine.round", "retries"),
                report.retry_queries,
                "{}: round-event retries vs retry_queries", alg.name()
            );
            prop_assert_eq!(
                sum_field(&records, "engine.retry", "retries"),
                report.retry_queries,
                "{}: retry-event retries vs retry_queries", alg.name()
            );

            // Span nesting is well-formed, spans balance, verdicts agree.
            if let Err(err) = check_nesting(&records) {
                prop_assert!(false, "{}: {}", alg.name(), err);
            }
            let starts = records.iter().filter(|r| r.kind == RecordKind::SpanStart).count();
            let ends = records.iter().filter(|r| r.kind == RecordKind::SpanEnd).count();
            prop_assert_eq!(starts, ends, "{}: unbalanced spans", alg.name());
            for verdict in records
                .iter()
                .filter(|r| r.kind == RecordKind::Event && r.name == "engine.verdict")
            {
                prop_assert_eq!(
                    verdict.field("answer"),
                    Some(u64::from(report.answer)),
                    "{}: verdict event disagrees with report", alg.name()
                );
            }
        }
        drop(guard);
    }
}
