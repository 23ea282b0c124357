//! Golden fingerprints of the engine's reports and the wire layout.
//!
//! Every constant below is `tcast::fingerprint64` over the concatenated
//! wire bytes of a fixed, seeded set of runs. A refactor of the round
//! executor, the session construction path, or the frame encoder must
//! leave all of them unchanged: the test pins bit-identical output, not
//! just correct verdicts. When a constant legitimately has to move (a
//! deliberate behaviour change), the failure message prints the new
//! value.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::engine::{drive, ChannelMut, RoundStats, Session};
use tcast::{
    fingerprint64, population, Abns, AdversaryConfig, AdversaryModel, BatchRunner, ChannelSpec,
    CollisionModel, DefensePolicy, ExecutionProfile, ExpIncrease, IdealChannel, LossConfig,
    OracleBins, ProbAbns, QueryReport, RetryPolicy, ThresholdQuerier, TwoTBins, WireEncode,
};
use tcast_net::{Frame, PROTOCOL_V4};
use tcast_service::{AlgorithmSpec, QueryJob};

/// `(n, t, x, seed)` operating points: below, at, and above the
/// threshold, including a population smaller than `2t`.
const POINTS: [(usize, usize, usize, u64); 5] = [
    (64, 8, 0, 1),
    (64, 8, 8, 2),
    (64, 8, 30, 3),
    (128, 16, 15, 4),
    (12, 8, 9, 5),
];

const GOLDEN_IDEAL_ONE_PLUS: u64 = 0xb75b_fbbe_5914_039e;
const GOLDEN_IDEAL_TWO_PLUS: u64 = 0x4a86_26cf_c124_d0a5;
const GOLDEN_LOSSY_VERIFIED: u64 = 0x048c_1f09_1ac1_87d2;
const GOLDEN_JAMMER_HARDENED: u64 = 0x6a89_dbae_a6f8_53a1;
const GOLDEN_PAIRED_DRIVE: u64 = 0xc4b6_bc16_49d7_057c;
const GOLDEN_SUBMIT_FRAME: u64 = 0x6da6_fb29_b026_67e2;
const GOLDEN_JOB_OK_FRAME: u64 = 0x7998_fe37_ba99_9be3;

/// The seven exact algorithms plus probabilistic ABNS.
fn algorithms(truth: Vec<bool>) -> Vec<Box<dyn ThresholdQuerier>> {
    vec![
        Box::new(TwoTBins),
        Box::new(ExpIncrease::standard()),
        Box::new(ExpIncrease::pause_and_continue(0.4)),
        Box::new(ExpIncrease::four_fold()),
        Box::new(Abns::p0_t()),
        Box::new(Abns::p0_2t()),
        Box::new(OracleBins::new(truth)),
        Box::new(ProbAbns::standard()),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Scenario {
    IdealOnePlus,
    IdealTwoPlus,
    LossyVerified,
    JammerHardened,
}

impl Scenario {
    fn spec(self, n: usize, x: usize, seed: u64) -> ChannelSpec {
        let spec = match self {
            Scenario::IdealOnePlus => ChannelSpec::ideal(n, x, CollisionModel::OnePlus),
            Scenario::IdealTwoPlus => ChannelSpec::ideal(n, x, CollisionModel::two_plus_default()),
            Scenario::LossyVerified => {
                ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
            }
            Scenario::JammerHardened => ChannelSpec::adversarial(
                n,
                x,
                CollisionModel::OnePlus,
                None,
                AdversaryConfig {
                    model: AdversaryModel::Jammer { duty_mille: 250 },
                    seed: seed ^ 0xA5A5,
                },
            ),
        };
        spec.seeded(seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn profile(self) -> ExecutionProfile {
        match self {
            Scenario::IdealOnePlus | Scenario::IdealTwoPlus => ExecutionProfile::new(),
            Scenario::LossyVerified => ExecutionProfile::new().with_retry(RetryPolicy::verified(2)),
            Scenario::JammerHardened => {
                ExecutionProfile::new().with_defense(DefensePolicy::hardened())
            }
        }
    }
}

/// Runs every algorithm at every point, once through
/// `run_with_options` and once through a pooled `BatchRunner`; the two
/// must agree report for report. Returns the concatenated report bytes.
fn scenario_bytes(scenario: Scenario) -> Vec<u8> {
    let profile = scenario.profile();
    let mut runner = BatchRunner::new(profile);
    let mut out = Vec::new();
    for (n, t, x, seed) in POINTS {
        let spec = scenario.spec(n, x, seed);
        let (_, truth) = tcast_adversary::build_with_truth(&spec);
        for alg in algorithms(truth) {
            let (mut ch, _) = tcast_adversary::build_with_truth(&spec);
            let mut rng = SmallRng::seed_from_u64(seed);
            let direct = alg.run_with_options(&population(n), t, ch.as_mut(), &mut rng, profile);

            let (mut ch, _) = tcast_adversary::build_with_truth(&spec);
            let mut rng = SmallRng::seed_from_u64(seed);
            let pooled = runner.run_with(
                profile,
                alg.as_ref(),
                &population(n),
                t,
                ch.as_mut(),
                &mut rng,
            );
            assert_eq!(
                direct,
                pooled,
                "{} {scenario:?} n={n} t={t} x={x}: pooled run diverged",
                alg.name()
            );
            direct.assert_consistent();
            direct.encode(&mut out);
        }
    }
    out
}

/// The bin policies of the `drive` contract suite: `2t`, `t + 3`, and a
/// stateful doubling driven by the previous round's statistics.
fn policy(kind: u8) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
    let mut bins = 1usize;
    move |session, last| match kind {
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

fn paired_drive_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    for (n, t, x, seed) in POINTS {
        for model in [CollisionModel::OnePlus, CollisionModel::two_plus_default()] {
            for kind in 0..3u8 {
                for retry in [RetryPolicy::none(), RetryPolicy::verified(1)] {
                    let mut placement = SmallRng::seed_from_u64(seed);
                    let mut ch =
                        IdealChannel::with_random_positives(n, x, model, seed, &mut placement);
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let report: QueryReport = drive(
                        &population(n),
                        t,
                        ChannelMut::paired(&mut ch),
                        &mut rng,
                        ExecutionProfile::new().with_retry(retry),
                        policy(kind),
                    );
                    report.assert_consistent();
                    assert_eq!(report.answer, x >= t, "ideal paired drive is exact");
                    report.encode(&mut out);
                }
            }
        }
    }
    out
}

fn check(name: &str, bytes: &[u8], golden: u64) {
    let got = fingerprint64(bytes);
    assert_eq!(
        got,
        golden,
        "{name}: fingerprint {got:#018x} over {} bytes differs from the golden {golden:#018x}",
        bytes.len()
    );
}

#[test]
fn ideal_one_plus_reports_are_golden() {
    check(
        "ideal 1+",
        &scenario_bytes(Scenario::IdealOnePlus),
        GOLDEN_IDEAL_ONE_PLUS,
    );
}

#[test]
fn ideal_two_plus_reports_are_golden() {
    check(
        "ideal 2+",
        &scenario_bytes(Scenario::IdealTwoPlus),
        GOLDEN_IDEAL_TWO_PLUS,
    );
}

#[test]
fn lossy_verified_reports_are_golden() {
    check(
        "lossy + verified(2)",
        &scenario_bytes(Scenario::LossyVerified),
        GOLDEN_LOSSY_VERIFIED,
    );
}

#[test]
fn jammer_hardened_reports_are_golden() {
    check(
        "jammer + hardened",
        &scenario_bytes(Scenario::JammerHardened),
        GOLDEN_JAMMER_HARDENED,
    );
}

#[test]
fn paired_drive_reports_are_golden() {
    check("paired drive", &paired_drive_bytes(), GOLDEN_PAIRED_DRIVE);
}

#[test]
fn submit_and_job_ok_frames_are_golden() {
    let job = QueryJob::new(
        AlgorithmSpec::AbnsP02T,
        ChannelSpec::lossy(96, 12, CollisionModel::OnePlus, LossConfig::default()).seeded(6, 7),
        8,
        99,
    )
    .with_deadline(std::time::Duration::from_millis(250))
    .with_retry_budget(40)
    .with_trace(tcast_obs::TraceId(0x0123_4567_89AB_CDEF))
    .with_priority(tcast_tenant::Priority::High)
    .with_parent_span(tcast_obs::SpanContext {
        parent: 0xCAFE,
        sampled: true,
    });
    let mut submit = Vec::new();
    Frame::Submit {
        request_id: 42,
        job,
    }
    .encode_into(&mut submit, PROTOCOL_V4);
    check("Submit frame", &submit, GOLDEN_SUBMIT_FRAME);

    let report = job.execute();
    let mut ok = Vec::new();
    Frame::encode_job_ok_into(&mut ok, PROTOCOL_V4, 42, &report);
    check("JobOk frame", &ok, GOLDEN_JOB_OK_FRAME);
}
