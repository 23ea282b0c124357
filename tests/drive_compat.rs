//! Contract properties of the unified `engine::drive` entrypoint:
//!
//! 1. **Determinism**: identical inputs (nodes, threshold, channel spec,
//!    seeds, policy, retry options) produce bit-identical reports, for
//!    both channel flavours.
//! 2. **Options equivalence**: a profile with `RetryPolicy::none()`
//!    behaves exactly like `ExecutionProfile::new()` — the retry layer is
//!    strictly pay-for-what-you-use.
//! 3. **Replayability**: every one of the seven exact algorithms runs on
//!    `drive` internally, and replaying the per-round bin counts recorded
//!    in its trace through a raw `drive` call reproduces the exact same
//!    report — the trace is a complete account of the policy's decisions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::engine::{drive, ChannelMut, Session};
use tcast::{
    population, Abns, ChannelSpec, CollisionModel, ExecutionProfile, ExpIncrease, LossConfig,
    OracleBins, QueryReport, RetryPolicy, RoundStats, ThresholdQuerier, TwoTBins,
};

/// A small family of policies spanning the shapes real algorithms use:
/// constant, threshold-proportional, and stateful doubling driven by the
/// previous round's statistics.
///
/// Every member requests at least `t` bins once it stops adapting — a
/// policy stuck below `t` can loop forever on a channel whose positives
/// outnumber its bins (all bins stay active, nothing is eliminated, and
/// per-round evidence never reaches `t`), which is exactly the paper's
/// argument for scaling bin counts with the threshold.
fn policy(kind: u8) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
    let mut bins = 1usize;
    move |session, last| match kind % 3 {
        0 => 2 * session.threshold(),
        1 => session.threshold() + 3,
        _ => {
            if let Some(stats) = last {
                bins = bins.saturating_mul(if stats.silent_bins == 0 { 4 } else { 2 });
            }
            bins.min(session.remaining_len().max(1))
        }
    }
}

fn spec(n: usize, x: usize, lossy: bool, seed: u64) -> ChannelSpec {
    let base = if lossy {
        ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
    } else {
        ChannelSpec::ideal(n, x, CollisionModel::two_plus_default())
    };
    base.seeded(seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two sequential `drive` calls with identical inputs are
    /// bit-identical, and a no-op retry policy changes nothing.
    #[test]
    fn sequential_drive_is_deterministic_and_retry_none_is_free(
        n in 1usize..64,
        x_frac in 0.0f64..=1.0,
        t in 0usize..70,
        seed in any::<u64>(),
        kind in 0u8..3,
        lossy in any::<bool>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if lossy { RetryPolicy::verified(2) } else { RetryPolicy::none() };
        let profile = ExecutionProfile::new().with_retry(retry);

        let (mut ch_a, _) = tcast_adversary::build_with_truth(&spec(n, x, lossy, seed));
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let first = drive(
            &population(n),
            t,
            ChannelMut::Single(ch_a.as_mut()),
            &mut rng_a,
            profile,
            policy(kind),
        );

        let (mut ch_b, _) = tcast_adversary::build_with_truth(&spec(n, x, lossy, seed));
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let second = drive(
            &population(n),
            t,
            ChannelMut::Single(ch_b.as_mut()),
            &mut rng_b,
            profile,
            policy(kind),
        );
        prop_assert_eq!(&first, &second);

        if !lossy {
            // RetryPolicy::none() above must equal the plain defaults.
            let (mut ch_c, _) = tcast_adversary::build_with_truth(&spec(n, x, lossy, seed));
            let mut rng_c = SmallRng::seed_from_u64(seed);
            let defaults = drive(
                &population(n),
                t,
                ChannelMut::Single(ch_c.as_mut()),
                &mut rng_c,
                ExecutionProfile::new(),
                policy(kind),
            );
            prop_assert_eq!(&first, &defaults);
        }
        first.assert_consistent();
    }

    /// Paired-channel `drive` is deterministic, with and without retry.
    #[test]
    fn paired_drive_is_deterministic(
        n in 1usize..64,
        x_frac in 0.0f64..=1.0,
        t in 0usize..70,
        seed in any::<u64>(),
        kind in 0u8..3,
        with_retry in any::<bool>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if with_retry { RetryPolicy::verified(1) } else { RetryPolicy::none() };
        let profile = ExecutionProfile::new().with_retry(retry);

        // IdealChannel implements the paired primitive; lossy channels are
        // sequential-only, so the paired arm sweeps retry settings instead.
        let mk = || {
            let s = spec(n, x, false, seed);
            let mut rng = SmallRng::seed_from_u64(s.placement_seed);
            tcast::IdealChannel::with_random_positives(n, x, s.model, s.channel_seed, &mut rng)
        };

        let mut ch_a = mk();
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let first = drive(
            &population(n),
            t,
            ChannelMut::paired(&mut ch_a),
            &mut rng_a,
            profile,
            policy(kind),
        );

        let mut ch_b = mk();
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let second = drive(
            &population(n),
            t,
            ChannelMut::paired(&mut ch_b),
            &mut rng_b,
            profile,
            policy(kind),
        );

        prop_assert_eq!(&first, &second);
        first.assert_consistent();
    }

    /// Every one of the seven exact algorithms, on ideal and lossy
    /// channels: replaying the algorithm's recorded per-round bin counts
    /// through a raw `drive` call reproduces its report exactly.
    #[test]
    fn all_seven_algorithms_replay_through_drive(
        n in 1usize..48,
        x_frac in 0.0f64..=1.0,
        t in 0usize..52,
        seed in any::<u64>(),
        lossy in any::<bool>(),
    ) {
        let x = ((n as f64) * x_frac).round() as usize;
        let retry = if lossy { RetryPolicy::verified(2) } else { RetryPolicy::none() };
        let profile = ExecutionProfile::new().with_retry(retry);
        let s = spec(n, x, lossy, seed);
        let (_, truth) = tcast_adversary::build_with_truth(&s);

        let algorithms: Vec<Box<dyn ThresholdQuerier>> = vec![
            Box::new(TwoTBins),
            Box::new(ExpIncrease::standard()),
            Box::new(ExpIncrease::pause_and_continue(0.4)),
            Box::new(ExpIncrease::four_fold()),
            Box::new(Abns::p0_t()),
            Box::new(Abns::p0_2t()),
            Box::new(OracleBins::new(truth)),
        ];

        for alg in algorithms {
            let (mut ch, _) = tcast_adversary::build_with_truth(&s);
            let mut rng = SmallRng::seed_from_u64(seed);
            let original =
                alg.run_with_options(&population(n), t, ch.as_mut(), &mut rng, profile);

            // Policy rounds are the trace entries that actually queried
            // bins; verification episodes (queried_bins == 0) happen
            // inside the driver and never consult the policy.
            let bins: Vec<usize> = original
                .trace
                .iter()
                .filter(|r| r.queried_bins > 0)
                .map(|r| r.bins)
                .collect();
            let mut replay = bins.into_iter();

            let (mut ch, _) = tcast_adversary::build_with_truth(&s);
            let mut rng = SmallRng::seed_from_u64(seed);
            let replayed: QueryReport = drive(
                &population(n),
                t,
                ChannelMut::Single(ch.as_mut()),
                &mut rng,
                profile,
                |_, _| replay.next().expect("replay ran out of rounds"),
            );
            prop_assert_eq!(
                &original, &replayed,
                "{} diverged from its bin-count replay", alg.name()
            );
        }
    }
}
