//! Cross-crate integration: the same threshold-querying algorithms over
//! the abstract channels and over the full CC2420-level PHY must agree
//! whenever the radio is error-free, and must degrade the way the paper
//! describes (false negatives only) when it is not.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    population, Abns, CollisionModel, ExpIncrease, IdealChannel, ThresholdQuerier, TwoTBins,
};
use tcast_motes::rcd::{Primitive, RcdChannel, RcdConfig, RcdStack};
use tcast_motes::{MoteNetwork, NetworkConfig};

const PARTICIPANTS: usize = 12;

fn rcd_channel(positives: &[usize], primitive: Primitive, lossless: bool) -> RcdChannel {
    let cfg = if lossless {
        RcdConfig::lossless()
    } else {
        RcdConfig::testbed()
    };
    let mut stack = RcdStack::new(PARTICIPANTS, cfg, 1234);
    let mut pred = vec![false; PARTICIPANTS];
    for &p in positives {
        pred[p] = true;
    }
    stack.set_predicate(&pred);
    RcdChannel::new(stack, primitive)
}

#[test]
fn abstract_and_full_stack_agree_on_lossless_phy() {
    let algs: Vec<Box<dyn ThresholdQuerier>> = vec![
        Box::new(TwoTBins),
        Box::new(ExpIncrease::standard()),
        Box::new(Abns::p0_t()),
    ];
    let nodes = population(PARTICIPANTS);
    for alg in &algs {
        for x in 0..=PARTICIPANTS {
            for t in [1usize, 3, 6, 12] {
                let positives: Vec<usize> = (0..x).collect();

                // Full stack (backcast over the PHY).
                let mut full = rcd_channel(&positives, Primitive::Backcast, true);
                let mut rng = SmallRng::seed_from_u64(42);
                let full_report = alg.run(&nodes, t, &mut full, &mut rng);

                // Abstract 1+ channel with identical ground truth.
                let mut ideal = IdealChannel::new(PARTICIPANTS, CollisionModel::OnePlus, 42);
                ideal.set_positives(
                    &positives
                        .iter()
                        .map(|&p| tcast::NodeId(p as u32))
                        .collect::<Vec<_>>(),
                );
                let mut rng = SmallRng::seed_from_u64(42);
                let ideal_report = alg.run(&nodes, t, &mut ideal, &mut rng);

                assert_eq!(
                    full_report.answer,
                    x >= t,
                    "{} full-stack wrong at x={x} t={t}",
                    alg.name()
                );
                assert_eq!(
                    full_report.answer,
                    ideal_report.answer,
                    "{} diverged at x={x} t={t}",
                    alg.name()
                );
                // Identical seeds drive identical binning decisions, so the
                // costs agree too.
                assert_eq!(
                    full_report.queries,
                    ideal_report.queries,
                    "{} cost diverged at x={x} t={t}",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn pollcast_full_stack_is_exact_when_lossless() {
    let nodes = population(PARTICIPANTS);
    for x in [0usize, 1, 4, 8, 12] {
        for t in [2usize, 5] {
            let positives: Vec<usize> = (0..x).collect();
            let mut ch = rcd_channel(&positives, Primitive::Pollcast, true);
            let mut rng = SmallRng::seed_from_u64(7);
            let report = TwoTBins.run(&nodes, t, &mut ch, &mut rng);
            assert_eq!(report.answer, x >= t, "pollcast x={x} t={t}");
        }
    }
}

#[test]
fn noisy_phy_yields_no_false_positives_and_few_false_negatives() {
    let nodes = population(PARTICIPANTS);
    let mut false_neg = 0u32;
    let mut runs_with_truth_true = 0u32;
    for seed in 0..150u64 {
        let x = (seed % 13) as usize;
        let t = 4usize;
        let positives: Vec<usize> = (0..x).collect();
        let mut ch = rcd_channel(&positives, Primitive::Backcast, false);
        let mut rng = SmallRng::seed_from_u64(seed);
        let report = TwoTBins.run(&nodes, t, &mut ch, &mut rng);
        let truth = x >= t;
        assert!(
            truth || !report.answer,
            "false positive at x={x} t={t} seed={seed}: backcast cannot invent HACKs"
        );
        if truth {
            runs_with_truth_true += 1;
            if !report.answer {
                false_neg += 1;
            }
        }
    }
    assert!(runs_with_truth_true > 50);
    let rate = false_neg as f64 / runs_with_truth_true as f64;
    assert!(
        rate < 0.15,
        "false-negative rate {rate} should stay small (paper: ~1.4% per session)"
    );
}

#[test]
fn full_stack_baselines_agree_with_truth_on_lossless_phy() {
    for x in [0usize, 2, 5, 9, 12] {
        for t in [1usize, 4, 8] {
            let positives: Vec<usize> = (0..x).collect();
            let mut pred = vec![false; PARTICIPANTS];
            for &p in &positives {
                pred[p] = true;
            }
            let mut net = MoteNetwork::new(NetworkConfig::lossless(PARTICIPANTS), 5);
            net.set_predicate(&pred);
            let csma = net.csma_collection(t);
            assert_eq!(csma.answer, x >= t, "csma x={x} t={t}");

            let mut net = MoteNetwork::new(NetworkConfig::lossless(PARTICIPANTS), 6);
            net.set_predicate(&pred);
            let tdma = net.tdma_collection(t);
            assert_eq!(tdma.answer, x >= t, "tdma x={x} t={t}");
        }
    }
}

#[test]
fn full_stack_crossover_matches_paper_shape() {
    // At x >> t, the event-driven CSMA collection takes much longer than
    // the tcast session needs queries — the Figure 1/7 crossover, observed
    // on the full stack rather than the abstract models.
    let t = 4usize;
    let x = PARTICIPANTS; // everyone positive

    let positives: Vec<usize> = (0..x).collect();
    let mut ch = rcd_channel(&positives, Primitive::Backcast, true);
    let mut rng = SmallRng::seed_from_u64(11);
    let report = TwoTBins.run(&population(PARTICIPANTS), t, &mut ch, &mut rng);
    assert!(report.answer);
    assert!(
        report.queries <= 2 * t as u64,
        "saturated network: ~t queries"
    );

    let mut pred = vec![false; PARTICIPANTS];
    pred.iter_mut().for_each(|p| *p = true);
    let mut net = MoteNetwork::new(NetworkConfig::lossless(PARTICIPANTS), 12);
    net.set_predicate(&pred);
    let csma = net.csma_collection(t);
    assert!(csma.answer);
    // One backcast exchange is ~2.3 ms of air/protocol time; the tcast
    // session total must undercut the CSMA contention time.
    let tcast_time_us = ch.stack().stats.elapsed.as_micros();
    assert!(
        tcast_time_us < 10 * csma.elapsed.as_micros().max(1),
        "tcast {tcast_time_us}us should be in the same league or better than CSMA {}us",
        csma.elapsed.as_micros()
    );
}
