//! Property-based tests over the whole workspace (proptest).
//!
//! The central invariant: on an error-free channel, every *exact*
//! algorithm answers the threshold question correctly for every
//! `(n, x, t, seed, collision model)` — the algorithms differ only in
//! cost, never in soundness.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::twotbins::worst_case_queries;
use tcast::{
    population, Abns, CaptureModel, CollisionModel, ExpIncrease, IdealChannel, OracleBins,
    ProbAbns, ThresholdQuerier, TwoTBins,
};

fn all_algorithms() -> Vec<Box<dyn ThresholdQuerier>> {
    vec![
        Box::new(TwoTBins),
        Box::new(ExpIncrease::standard()),
        Box::new(ExpIncrease::pause_and_continue(0.4)),
        Box::new(ExpIncrease::four_fold()),
        Box::new(Abns::p0_t()),
        Box::new(Abns::p0_2t()),
        Box::new(ProbAbns::standard()),
    ]
}

fn models() -> Vec<CollisionModel> {
    vec![
        CollisionModel::OnePlus,
        CollisionModel::TwoPlus(CaptureModel::Never),
        CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
        CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 1.0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm, every collision model: exact verdicts on an ideal
    /// channel.
    #[test]
    fn exact_verdicts_on_ideal_channel(
        n in 1usize..96,
        x_frac in 0.0f64..=1.0,
        t in 0usize..100,
        seed in any::<u64>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        for model in models() {
            for alg in all_algorithms() {
                let mut ch = IdealChannel::with_random_positives(n, x, model, seed, &mut rng);
                let report = alg.run(&population(n), t, &mut ch, &mut rng);
                prop_assert_eq!(
                    report.answer, x >= t,
                    "{} n={} x={} t={} model={:?}", alg.name(), n, x, t, model
                );
            }
        }
    }

    /// The oracle (which needs ground truth) is exact too.
    #[test]
    fn oracle_verdicts_exact(
        n in 1usize..96,
        x_frac in 0.0f64..=1.0,
        t in 0usize..100,
        seed in any::<u64>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = IdealChannel::with_random_positives(
            n, x, CollisionModel::OnePlus, seed, &mut rng);
        let oracle = OracleBins::new(ch.positives_bitmap());
        let report = oracle.run(&population(n), t, &mut ch, &mut rng);
        prop_assert_eq!(report.answer, x >= t);
    }

    /// 2tBins respects its Section IV-A worst-case query bound.
    #[test]
    fn twotbins_respects_worst_case_bound(
        n in 1usize..200,
        x_frac in 0.0f64..=1.0,
        t in 1usize..32,
        seed in any::<u64>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = IdealChannel::with_random_positives(
            n, x, CollisionModel::OnePlus, seed, &mut rng);
        let report = TwoTBins.run(&population(n), t, &mut ch, &mut rng);
        prop_assert!(
            report.queries <= worst_case_queries(n, t),
            "n={} x={} t={}: {} > {}", n, x, t, report.queries, worst_case_queries(n, t)
        );
    }

    /// Query accounting agrees between the algorithm and the channel.
    #[test]
    fn query_accounting_is_consistent(
        n in 1usize..64,
        x_frac in 0.0f64..=1.0,
        t in 0usize..64,
        seed in any::<u64>(),
    ) {
        use tcast::GroupQueryChannel;
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = IdealChannel::with_random_positives(
            n, x, CollisionModel::OnePlus, seed, &mut rng);
        let report = TwoTBins.run(&population(n), t, &mut ch, &mut rng);
        prop_assert_eq!(report.queries, ch.queries_issued());
    }

    /// Baselines deliver exact verdicts (CSMA with its safe quiet window).
    #[test]
    fn baselines_exact(
        n in 1usize..128,
        x_frac in 0.0f64..=1.0,
        t in 0usize..64,
        seed in any::<u64>(),
    ) {
        use tcast::baselines::{csma_collect, sequential_collect_random, CsmaConfig};
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let csma = csma_collect(x, t, &CsmaConfig::default(), &mut rng);
        prop_assert_eq!(csma.answer, x >= t, "csma x={} t={}", x, t);
        let seq = sequential_collect_random(n, x, t, &mut rng);
        prop_assert_eq!(seq.answer, x >= t, "sequential x={} t={}", x, t);
        prop_assert!(seq.slots <= n as u64);
    }

    /// Frame encode/decode is the identity on arbitrary payloads.
    #[test]
    fn frame_roundtrip(
        src in any::<u16>(),
        dest in any::<u16>(),
        seq in any::<u8>(),
        ar in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        use tcast_radio::{Frame, ShortAddr};
        let frame = if ar {
            Frame::data_with_ack_request(ShortAddr(src), ShortAddr(dest), seq, payload)
        } else {
            Frame::data(ShortAddr(src), ShortAddr(dest), seq, payload)
        };
        let decoded = Frame::decode(&frame.encode()).expect("roundtrip decodes");
        prop_assert_eq!(frame, decoded);
    }

    /// Any single bit flip is caught by the CRC.
    #[test]
    fn crc_detects_single_bitflips(
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        flip_bit in 0usize..64,
    ) {
        use tcast_radio::{Frame, ShortAddr};
        let frame = Frame::data(ShortAddr(1), ShortAddr(2), seq, payload);
        let mut bytes = frame.encode();
        let bit = flip_bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Frame::decode(&bytes) != Ok(frame));
    }

    /// The event queue pops in non-decreasing time order regardless of
    /// insertion order, with FIFO tie-breaks.
    #[test]
    fn event_queue_is_chronological(delays in proptest::collection::vec(0u64..10_000, 1..64)) {
        use tcast_sim::{EventQueue, SimTime};
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(d), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last.0);
            if t == last.0 && count > 0 {
                prop_assert!(i > last.1, "FIFO tie-break violated");
            }
            last = (t, i);
            count += 1;
        }
        prop_assert_eq!(count, delays.len());
    }

    /// Summary::merge is equivalent to sequential accumulation.
    #[test]
    fn summary_merge_matches_sequential(
        a in proptest::collection::vec(-1e6f64..1e6, 0..40),
        b in proptest::collection::vec(-1e6f64..1e6, 0..40),
    ) {
        use tcast_stats::Summary;
        let mut merged = Summary::of(&a);
        merged.merge(&Summary::of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let whole = Summary::of(&all);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - whole.variance()).abs() < 1e-3);
    }

    /// ABNS's estimator always lands in the physical range [0, n].
    #[test]
    fn estimate_p_stays_in_range(
        e in 0usize..100,
        b in 1usize..100,
        n in 0usize..500,
    ) {
        let p = tcast::abns::estimate_p(e, b, n);
        prop_assert!((0.0..=n as f64).contains(&p), "p={} out of [0,{}]", p, n);
    }

    /// Oracle bin counts are always valid.
    #[test]
    fn oracle_bins_in_range(n in 1usize..500, t in 1usize..64, x_frac in 0.0f64..=1.0) {
        let x = ((n as f64) * x_frac).round() as usize;
        let b = tcast::oracle::oracle_bins(n, t, x);
        prop_assert!((1..=n).contains(&b));
    }

    /// Histogram conserves mass for arbitrary samples.
    #[test]
    fn histogram_conserves_mass(samples in proptest::collection::vec(-1e3f64..1e3, 0..200)) {
        use tcast_stats::Histogram;
        let mut h = Histogram::new(-100.0, 100.0, 13);
        for &s in &samples {
            h.record(s);
        }
        let binned: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), samples.len() as u64);
    }

    /// Exact counting returns the true count and only true positives,
    /// under every collision model.
    #[test]
    fn counting_is_exact(
        n in 1usize..96,
        x_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        use tcast::count_positives;
        let x = ((n as f64) * x_frac).round() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        for model in models() {
            let mut ch = IdealChannel::with_random_positives(n, x, model, seed, &mut rng);
            let report = count_positives(&population(n), &mut ch, &mut rng);
            prop_assert_eq!(report.count, x, "model={:?}", model);
            for id in &report.positives {
                prop_assert!(ch.is_positive(*id));
            }
        }
    }

    /// Interval queries land x in the right band.
    #[test]
    fn interval_query_is_exact(
        n in 1usize..64,
        x_frac in 0.0f64..=1.0,
        lo in 1usize..32,
        width in 1usize..32,
        seed in any::<u64>(),
    ) {
        use tcast::{interval_query, IntervalVerdict};
        let x = ((n as f64) * x_frac).round() as usize;
        let hi = lo + width;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = IdealChannel::with_random_positives(
            n, x, CollisionModel::OnePlus, seed, &mut rng);
        let r = interval_query(&population(n), lo, hi, &TwoTBins, &mut ch, &mut rng);
        let expect = if x < lo {
            IntervalVerdict::Below
        } else if x < hi {
            IntervalVerdict::Within
        } else {
            IntervalVerdict::AtOrAbove
        };
        prop_assert_eq!(r.verdict, expect, "x={} lo={} hi={}", x, lo, hi);
    }

    /// Classification finds the true band with logarithmic sessions.
    #[test]
    fn classification_is_exact(
        n in 8usize..96,
        x_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
        nb in 1usize..6,
    ) {
        use tcast::classify;
        let x = ((n as f64) * x_frac).round() as usize;
        // Strictly ascending boundaries inside 1..n.
        let boundaries: Vec<usize> = (1..=nb).map(|i| i * n / (nb + 1)).collect();
        prop_assume!(boundaries.windows(2).all(|w| w[0] < w[1]));
        prop_assume!(boundaries[0] >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = IdealChannel::with_random_positives(
            n, x, CollisionModel::OnePlus, seed, &mut rng);
        let r = classify(&population(n), &boundaries, &TwoTBins, &mut ch, &mut rng);
        let expect = boundaries.iter().filter(|&&b| x >= b).count();
        prop_assert_eq!(r.class, expect);
        let bound = (boundaries.len() as f64 + 1.0).log2().ceil() as u32;
        prop_assert!(r.sessions <= bound, "{} sessions > log bound {}", r.sessions, bound);
    }

    /// The monitor's verdicts stay exact over arbitrary epoch sequences.
    #[test]
    fn monitor_verdicts_exact(
        n in 4usize..64,
        t in 1usize..24,
        xs in proptest::collection::vec(0usize..64, 1..12),
        seed in any::<u64>(),
    ) {
        use tcast::{MonitorConfig, ThresholdMonitor};
        let mut monitor = ThresholdMonitor::new(MonitorConfig::default());
        let nodes = population(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for &x_raw in &xs {
            let x = x_raw.min(n);
            let mut ch = IdealChannel::with_random_positives(
                n, x, CollisionModel::OnePlus, seed ^ x as u64, &mut rng);
            let report = monitor.epoch(&nodes, t, &mut ch, &mut rng);
            prop_assert_eq!(report.answer, x >= t, "x={} t={}", x, t);
        }
        prop_assert_eq!(monitor.epochs(), xs.len() as u64);
    }

    /// The lossy channel's fault counters match a ground-truth recount of
    /// the query log: a false negative is exactly a final `Silent` on a
    /// group with >= 1 positive, a false positive exactly a final
    /// `Activity` on a group with none.
    #[test]
    fn lossy_fault_counters_match_ground_truth_recount(
        n in 1usize..32,
        x_frac in 0.0f64..=1.0,
        miss in 0.0f64..=1.0,
        false_activity in 0.0f64..=1.0,
        seed in any::<u64>(),
        queries in 1usize..80,
    ) {
        use tcast::{random_positive_set, GroupQueryChannel, LossConfig, LossyChannel, Observation};
        let x = ((n as f64) * x_frac).round() as usize;
        let loss = LossConfig {
            reply_miss_prob: miss,
            false_activity_prob: false_activity,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ch = LossyChannel::new(n, CollisionModel::OnePlus, loss, seed ^ 0x517c_c1b7);
        let positives = random_positive_set(n, x, &mut rng);
        ch.set_positives(&positives);

        let nodes = population(n);
        let (mut expect_fn, mut expect_fp) = (0u64, 0u64);
        for _ in 0..queries {
            use rand::Rng;
            let members: Vec<_> = nodes
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.5))
                .collect();
            let truly_positive = members.iter().any(|id| ch.is_positive(*id));
            match ch.query(&members) {
                Observation::Silent if truly_positive => expect_fn += 1,
                Observation::Activity if !truly_positive => expect_fp += 1,
                _ => {}
            }
        }
        prop_assert_eq!(ch.false_negative_groups(), expect_fn);
        prop_assert_eq!(ch.false_positive_groups(), expect_fp);
    }

    /// Retry accounting invariants hold for every algorithm on lossy
    /// channels at any retry count (rounds == trace length, queries ==
    /// first queries + retries, etc. — see `QueryReport::assert_consistent`).
    #[test]
    fn retry_accounting_is_consistent_on_lossy_channels(
        n in 1usize..48,
        x_frac in 0.0f64..=1.0,
        t in 0usize..24,
        retries in 0u32..3,
        miss in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        use tcast::{ChannelSpec, ExecutionProfile, LossConfig, RetryPolicy};
        let x = ((n as f64) * x_frac).round() as usize;
        let loss = LossConfig {
            reply_miss_prob: miss,
            false_activity_prob: 0.0,
        };
        let spec = ChannelSpec::lossy(n, x, CollisionModel::OnePlus, loss)
            .seeded(seed, seed ^ 0xDEAD_BEEF);
        for alg in all_algorithms() {
            let (mut ch, _) = tcast_adversary::build_with_truth(&spec);
            let mut rng = SmallRng::seed_from_u64(seed);
            let report = alg.run_with_options(
                &population(n),
                t,
                ch.as_mut(),
                &mut rng,
                ExecutionProfile::new()
                    .with_retry(RetryPolicy::verified(retries)),
            );
            report.assert_consistent();
        }
    }

    /// Determinism: the same seed reproduces the same session exactly.
    #[test]
    fn sessions_are_deterministic(
        n in 1usize..64,
        x_frac in 0.0f64..=1.0,
        t in 0usize..32,
        seed in any::<u64>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let run = || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ch = IdealChannel::with_random_positives(
                n, x, CollisionModel::two_plus_default(), seed, &mut rng);
            Abns::p0_2t().run(&population(n), t, &mut ch, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }
}
