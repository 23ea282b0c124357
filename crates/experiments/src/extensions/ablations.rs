//! Ablations of the design choices DESIGN.md §3 calls out: the capture
//! probability of the 2⁺ model (§3.4), the CSMA quiet window (§3.5),
//! ABNS's initial estimate p0, the Exponential-Increase variants the
//! paper tried and dropped (Section IV-B), and Probabilistic ABNS's
//! probe (§3.6).
//!
//! Every row is `RUNS` sessions at N = 128, t = 16 on a fixed seed, so
//! the table does not follow `--seed`: its mean cost (queries, or reply
//! slots for CSMA) and its wrong verdicts (the answer differs from
//! `x >= t`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::baselines::{csma_collect, CsmaConfig};
use tcast::{
    population, Abns, CaptureModel, CollisionModel, ExpIncrease, IdealChannel, InitialEstimate,
    ProbAbns, ThresholdQuerier, TwoTBins,
};

use crate::output::Table;

const N: usize = 128;
const T: usize = 16;
const RUNS: usize = 400;

/// Mean query count and wrong verdicts of `RUNS` sessions of `alg`, each
/// on a fresh ideal channel drawn from one stream seeded with `seed`.
fn sessions(alg: &dyn ThresholdQuerier, x: usize, model: CollisionModel, seed: u64) -> (f64, u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = population(N);
    let (mut queries, mut wrong) = (0u64, 0);
    for _ in 0..RUNS {
        let ch_seed = rng.random();
        let mut ch = IdealChannel::with_random_positives(N, x, model, ch_seed, &mut rng);
        let report = alg.run(&nodes, T, &mut ch, &mut rng);
        queries += report.queries;
        wrong += u32::from(report.answer != (x >= T));
    }
    (queries as f64 / RUNS as f64, wrong)
}

fn push(table: &mut Table, ablation: &str, variant: &str, x: usize, cost: String, wrong: u32) {
    table.push_row(vec![
        ablation.to_string(),
        variant.to_string(),
        x.to_string(),
        cost,
        format!("{wrong}/{RUNS}"),
    ]);
}

/// One query-count row per `x` for each `(variant, algorithm)`.
fn per_x(
    table: &mut Table,
    ablation: &str,
    algs: &[(&str, &dyn ThresholdQuerier)],
    xs: &[usize],
    seed: u64,
) {
    for (variant, alg) in algs {
        for &x in xs {
            let (mean, wrong) = sessions(*alg, x, CollisionModel::OnePlus, seed);
            push(
                table,
                ablation,
                variant,
                x,
                format!("{mean:.2} queries"),
                wrong,
            );
        }
    }
}

/// Runs every ablation.
pub fn build() -> Table {
    let mut table = Table::new(
        "ext-ablations",
        &format!("Design-choice ablations (N={N}, t={T}, {RUNS} runs/row, fixed seeds)"),
        &["ablation", "variant", "x", "mean cost", "wrong verdicts"],
    );

    // The 2⁺ capture probability at x = t − 1, where captures help most.
    for alpha in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let model = if alpha == 0.0 {
            CollisionModel::TwoPlus(CaptureModel::Never)
        } else {
            CollisionModel::TwoPlus(CaptureModel::Geometric { alpha })
        };
        let (mean, wrong) = sessions(&TwoTBins, T - 1, model, 77);
        let cost = format!("{mean:.2} queries");
        push(
            &mut table,
            "capture (2tBins)",
            &format!("alpha={alpha:.2}"),
            T - 1,
            cost,
            wrong,
        );
    }

    // The CSMA quiet window just below the threshold: cost vs reliability.
    for quiet in [8u32, 16, 33, 64] {
        let cfg = CsmaConfig {
            quiet_window: quiet,
            ..CsmaConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(31);
        let (mut slots, mut wrong) = (0u64, 0);
        for _ in 0..RUNS {
            let r = csma_collect(T - 1, T, &cfg, &mut rng);
            slots += r.slots;
            wrong += u32::from(r.answer);
        }
        let cost = format!("{:.1} slots", slots as f64 / RUNS as f64);
        push(
            &mut table,
            "quiet window (CSMA)",
            &format!("quiet={quiet}"),
            T - 1,
            cost,
            wrong,
        );
    }

    let p0 = |factor| Abns::with_p0(InitialEstimate::FactorOfT(factor));
    let (quarter, one, two, four) = (p0(0.25), p0(1.0), p0(2.0), p0(4.0));
    let algs: [(&str, &dyn ThresholdQuerier); 4] = [
        ("p0=t/4", &quarter),
        ("p0=t", &one),
        ("p0=2t", &two),
        ("p0=4t", &four),
    ];
    per_x(&mut table, "p0 (ABNS)", &algs, &[2, 32], 55);

    let (double, pause, four_fold) = (
        ExpIncrease::standard(),
        ExpIncrease::pause_and_continue(0.4),
        ExpIncrease::four_fold(),
    );
    let algs: [(&str, &dyn ThresholdQuerier); 3] = [
        ("double", &double),
        ("pause_40pct", &pause),
        ("four_fold", &four_fold),
    ];
    per_x(&mut table, "variant (ExpIncrease)", &algs, &[1, 16, 96], 66);

    let paper = ProbAbns::standard();
    let one_over_t = ProbAbns {
        sampling_prob: Some(1.0 / T as f64),
        eliminate_probe: false,
    };
    let eliminating = ProbAbns {
        sampling_prob: None,
        eliminate_probe: true,
    };
    let algs: [(&str, &dyn ThresholdQuerier); 3] = [
        ("paper_2_over_t", &paper),
        ("1_over_t", &one_over_t),
        ("eliminating_probe", &eliminating),
    ];
    per_x(&mut table, "probe (ProbABNS)", &algs, &[2, 32], 88);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number before the unit in a `mean cost` cell.
    fn cost(row: &[String]) -> f64 {
        row[3].split(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn capture_never_costs_queries_and_the_default_quiet_window_is_reliable() {
        let table = build();
        let capture: Vec<f64> = table
            .rows
            .iter()
            .filter(|r| r[0].starts_with("capture"))
            .map(|r| cost(r))
            .collect();
        assert_eq!(capture.len(), 5);
        assert!(
            capture.windows(2).all(|w| w[1] <= w[0]),
            "mean queries at x = t-1 rose with alpha: {capture:?}"
        );
        for quiet in ["quiet=33", "quiet=64"] {
            let row = table.rows.iter().find(|r| r[1] == quiet).unwrap();
            assert_eq!(row[4], format!("0/{RUNS}"), "{quiet}: {row:?}");
        }
    }
}
