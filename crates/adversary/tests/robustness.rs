//! Satellite coverage: `RetryPolicy` + `DefensePolicy` against *adversarial*
//! (non-random) silence and injection, with `QueryReport::assert_consistent`
//! holding while defense rounds are counted.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    population, Abns, AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy,
    ExecutionProfile, ExpIncrease, QueryReport, RetryPolicy, ThresholdQuerier, TwoTBins,
};

const N: usize = 64;
const T: usize = 8;

fn run(
    algorithm: &dyn ThresholdQuerier,
    model: AdversaryModel,
    profile: ExecutionProfile,
    seed: u64,
) -> QueryReport {
    let spec = ChannelSpec::adversarial(
        N,
        T, // exactly t honest positives: every one of them is needed
        CollisionModel::OnePlus,
        None,
        AdversaryConfig { model, seed },
    );
    let (mut channel, _truth) = tcast_adversary::build_with_truth(&spec);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    algorithm.run_with_options(&population(N), T, &mut channel, &mut rng, profile)
}

#[test]
fn targeted_silence_defeats_the_bare_engine() {
    // A silent-drop adversary with enough budget suppresses every reply the
    // retry-free engine ever sees: the verdict is wrong on every seed.
    let mut wrong = 0;
    for seed in 0..25 {
        let r = run(
            &TwoTBins,
            AdversaryModel::SilentDrop { budget: 10_000 },
            ExecutionProfile::new(),
            seed,
        );
        r.assert_consistent();
        if !r.answer {
            wrong += 1;
        }
    }
    assert_eq!(wrong, 25, "unbounded targeted silence always flips x = t");
}

#[test]
fn verified_retries_outlast_a_bounded_silence_budget() {
    // requery_silence treats silence as verified only after 1 + max_retries
    // consecutive silent probes. A budget-B adversary cannot sustain the
    // lie once max_retries >= B: the budget drains and the truth lands.
    let budget = 2u64;
    let profile = ExecutionProfile::new().with_retry(RetryPolicy::verified(2));
    for algorithm in [
        &TwoTBins as &dyn ThresholdQuerier,
        &ExpIncrease::default(),
        &Abns::p0_t(),
    ] {
        for seed in 0..25 {
            let r = run(
                algorithm,
                AdversaryModel::SilentDrop { budget },
                profile,
                seed,
            );
            r.assert_consistent();
            assert!(
                r.answer,
                "{}: verified(2) must outlast budget 2 (seed {seed})",
                algorithm.name()
            );
            assert!(r.retry_queries > 0, "the defense actually fired");
        }
    }
}

#[test]
fn hardened_defenses_keep_reports_consistent_under_every_model() {
    // The accounting invariant (queries == first-pass + retries + defenses)
    // must hold with canary, activity-confirmation, and verdict-confirmation
    // all active, whatever the adversary does to the observations.
    let profile = ExecutionProfile::new()
        .with_retry(RetryPolicy::verified(2))
        .with_defense(DefensePolicy::hardened());
    for model in [
        AdversaryModel::FalseResponders { count: 3 },
        AdversaryModel::Colluders { size: T as u32 - 1 },
        AdversaryModel::Jammer { duty_mille: 350 },
        AdversaryModel::Jammer { duty_mille: 1000 },
        AdversaryModel::SilentDrop { budget: 4 },
    ] {
        for seed in 0..10 {
            for algorithm in [
                &TwoTBins as &dyn ThresholdQuerier,
                &ExpIncrease::default(),
                &Abns::p0_t(),
            ] {
                let r = run(algorithm, model, profile, seed);
                r.assert_consistent();
                assert!(
                    r.defense_queries > 0,
                    "{}: hardened defenses must spend queries ({model:?})",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn canary_flags_a_full_duty_jammer_every_round() {
    for seed in 0..10 {
        let r = run(
            &TwoTBins,
            AdversaryModel::Jammer { duty_mille: 1000 },
            ExecutionProfile::new().with_defense(DefensePolicy::hardened()),
            seed,
        );
        r.assert_consistent();
        assert!(r.adversary_suspected(), "seed {seed}: no anomaly raised");
        assert!(r.anomalies as u32 >= r.rounds, "canary fires every round");
    }
}

#[test]
fn defended_verdicts_are_exact_against_a_bounded_drop_adversary() {
    // Acceptance-style check at small scale: with permutation (inherent),
    // verified retries, and confirmation rounds, a non-colluding bounded
    // adversary can no longer flip any exact algorithm's verdict.
    let profile = ExecutionProfile::new()
        .with_retry(RetryPolicy::verified(2))
        .with_defense(DefensePolicy::hardened());
    for algorithm in [
        &TwoTBins as &dyn ThresholdQuerier,
        &ExpIncrease::default(),
        &Abns::p0_t(),
    ] {
        for seed in 0..50 {
            let r = run(
                algorithm,
                AdversaryModel::SilentDrop { budget: 2 },
                profile,
                seed,
            );
            r.assert_consistent();
            assert!(r.answer, "{} seed {seed}: wrong verdict", algorithm.name());
        }
    }
}
