//! Acceptance: verified-silence retries make exact algorithms reliable on
//! the default lossy channel.
//!
//! Operating point: `x = t` (losing any single positive reply flips the
//! verdict to a false "no") on the calibrated default channel
//! (`reply_miss_prob` = 3%, no false activity). Without retries the
//! wrong-verdict rate is substantial — every exposure of a positive is a
//! 3% chance to falsely eliminate it. With one verified retry, a silent
//! bin is eliminated only after two independent silent observations
//! (per-exposure error 0.03² = 9·10⁻⁴) and a false final verdict must
//! additionally survive two silent re-queries of the whole eliminated
//! pool, leaving a per-session wrong probability around 10⁻⁵ — zero
//! wrong verdicts across this test's 250 seeds × 7 algorithms with
//! enormous margin.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    population, Abns, ChannelSpec, CollisionModel, ExecutionProfile, ExpIncrease, LossConfig,
    ProbAbns, RetryPolicy, ThresholdQuerier, TwoTBins,
};

const N: usize = 32;
const T: usize = 4;
const TRIALS: u64 = 250;

fn exact_algorithms() -> Vec<Box<dyn ThresholdQuerier>> {
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

/// Runs every exact algorithm for `TRIALS` seeds at `x = t` on the default
/// lossy channel; returns (wrong verdicts, total retry queries).
fn run_trials(retries: u32) -> (u64, u64) {
    let policy = RetryPolicy::verified(retries);
    let mut wrong = 0u64;
    let mut retry_queries = 0u64;
    for alg in exact_algorithms() {
        for seed in 0..TRIALS {
            let spec = ChannelSpec::lossy(N, T, CollisionModel::OnePlus, LossConfig::default())
                .seeded(seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let (mut ch, _) = tcast_adversary::build_with_truth(&spec);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
            let report = alg.run_with_options(
                &population(N),
                T,
                ch.as_mut(),
                &mut rng,
                ExecutionProfile::new().with_retry(policy),
            );
            report.assert_consistent();
            wrong += u64::from(!report.answer);
            retry_queries += report.retry_queries;
        }
    }
    (wrong, retry_queries)
}

#[test]
fn no_retries_is_demonstrably_unreliable_under_default_loss() {
    let (wrong, retry_queries) = run_trials(0);
    assert!(
        wrong > 0,
        "3% reply loss at x = t must produce wrong verdicts without retries"
    );
    assert_eq!(retry_queries, 0, "no policy, no retry spending");
}

#[test]
fn one_verified_retry_eliminates_wrong_verdicts() {
    let (wrong, retry_queries) = run_trials(1);
    assert_eq!(
        wrong,
        0,
        "retries=1 must answer every one of the {} sessions correctly",
        TRIALS * 7
    );
    assert!(retry_queries > 0, "verification must actually be exercised");
}

#[test]
fn two_retries_stay_correct_too() {
    let (wrong, _) = run_trials(2);
    assert_eq!(wrong, 0);
}
