//! Batch execution is bit-identical to per-query serial execution.
//!
//! The acceptance bar for the batch-native path: driving queries through a
//! shared [`BatchRunner`] (scratch buffers reused across queries, reports
//! optionally encoded straight to wire bytes) must reproduce the serial
//! path *exactly* — same verdicts, same query counts, same traces, same
//! wire bytes — for every algorithm, channel flavour, retry setting, and
//! batch length. A scratch is capacity, never state; any divergence here
//! means batch state leaked between queries.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::codec::WireEncode;
use tcast::engine::ChannelMut;
use tcast::{
    population, Abns, BatchRunner, ChannelSpec, CollisionModel, ExecutionProfile, ExpIncrease,
    LossConfig, OracleBins, ProbAbns, RetryPolicy, ThresholdQuerier, TwoTBins,
};

fn spec(n: usize, x: usize, lossy: bool, seed: u64) -> ChannelSpec {
    let base = if lossy {
        ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
    } else {
        ChannelSpec::ideal(n, x, CollisionModel::two_plus_default())
    };
    base.seeded(seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// The whole algorithm family, oracle included (it gets the truth bitmap
/// of the *first* channel in the batch; every batch member below reuses
/// the same population size, so the bitmap stays valid).
fn algorithms(truth: Vec<bool>) -> Vec<Box<dyn ThresholdQuerier>> {
    vec![
        Box::new(TwoTBins),
        Box::new(ExpIncrease::standard()),
        Box::new(ExpIncrease::pause_and_continue(0.4)),
        Box::new(ExpIncrease::four_fold()),
        Box::new(Abns::p0_t()),
        Box::new(Abns::p0_2t()),
        Box::new(ProbAbns::standard()),
        Box::new(OracleBins::new(truth)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch of queries through one shared runner reproduces the serial
    /// reports bit-for-bit, across batch lengths 1, 7, and 64.
    #[test]
    fn batched_queries_match_serial_queries(
        n in 1usize..48,
        x_frac in 0.0f64..=1.0,
        t in 0usize..52,
        seed in any::<u64>(),
        lossy in any::<bool>(),
        with_retry in any::<bool>(),
        batch_len_pick in 0usize..3,
    ) {
        let batch_len = [1usize, 7, 64][batch_len_pick];
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if with_retry { RetryPolicy::verified(2) } else { RetryPolicy::none() };
        let profile = ExecutionProfile::new().with_retry(retry);
        let (_, truth) = tcast_adversary::build_with_truth(&spec(n, x, lossy, seed));

        for alg in algorithms(truth) {
            let mut runner = BatchRunner::new(profile);
            for i in 0..batch_len {
                // Each batch member is an independent session with its own
                // channel and seed, exactly as the service would run them.
                let q_seed = seed.wrapping_add(i as u64);
                let s = spec(n, x, lossy, q_seed);

                let (mut ch, _) = tcast_adversary::build_with_truth(&s);
                let mut rng = SmallRng::seed_from_u64(q_seed);
                let batched = runner.run(alg.as_ref(), &population(n), t, ch.as_mut(), &mut rng);

                let (mut ch, _) = tcast_adversary::build_with_truth(&s);
                let mut rng = SmallRng::seed_from_u64(q_seed);
                let serial = alg.run_with_options(
                    &population(n), t, ch.as_mut(), &mut rng, profile);

                prop_assert_eq!(
                    &batched, &serial,
                    "{} diverged at batch index {}/{}", alg.name(), i, batch_len
                );
            }
        }
    }

    /// The zero-copy encoded path writes exactly the bytes
    /// `QueryReport::encode` would, with reports back to back in one
    /// output buffer.
    #[test]
    fn encoded_batch_matches_serial_wire_bytes(
        n in 1usize..48,
        x_frac in 0.0f64..=1.0,
        t in 0usize..52,
        seed in any::<u64>(),
        with_retry in any::<bool>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if with_retry { RetryPolicy::verified(1) } else { RetryPolicy::none() };
        let profile = ExecutionProfile::new().with_retry(retry);

        let mut runner = BatchRunner::new(profile);
        let mut out = Vec::new();
        let mut expected = Vec::new();
        for i in 0..7u64 {
            let q_seed = seed.wrapping_add(i);
            let s = spec(n, x, true, q_seed);

            let (mut ch, _) = tcast_adversary::build_with_truth(&s);
            let mut rng = SmallRng::seed_from_u64(q_seed);
            let answer = runner.run_policy_encoded(
                &population(n),
                t,
                ChannelMut::Single(ch.as_mut()),
                &mut rng,
                &mut out,
                |s, _| 2 * s.threshold(),
            );

            let (mut ch, _) = tcast_adversary::build_with_truth(&s);
            let mut rng = SmallRng::seed_from_u64(q_seed);
            let serial = TwoTBins.run_with_options(
                &population(n), t, ch.as_mut(), &mut rng, profile);
            prop_assert_eq!(answer, serial.answer, "verdict diverged at {}", i);
            serial.encode(&mut expected);
        }
        prop_assert_eq!(&out, &expected, "wire bytes diverged");
    }
}
