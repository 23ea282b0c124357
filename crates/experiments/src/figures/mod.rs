//! One module per paper figure, plus shared single-run helpers.

pub mod adversary;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod loss;

use rand::rngs::SmallRng;

use tcast::{population, ChannelSpec, CollisionModel, OracleBins, ThresholdQuerier};

/// Runs one algorithm session on a fresh ideal channel with `x` random
/// positives; returns the query count. Exact algorithms must answer
/// correctly on the ideal channel — enforced in debug builds.
pub(crate) fn run_alg_once(
    alg: &dyn ThresholdQuerier,
    n: usize,
    x: usize,
    t: usize,
    model: CollisionModel,
    rng: &mut SmallRng,
) -> f64 {
    let (mut ch, _) = tcast_adversary::sample_with(&ChannelSpec::ideal(n, x, model), rng);
    let report = alg.run(&population(n), t, ch.as_mut(), rng);
    debug_assert_eq!(
        report.answer,
        x >= t,
        "{} mis-answered on an ideal channel (n={n} x={x} t={t})",
        alg.name()
    );
    report.queries as f64
}

/// Like [`run_alg_once`] but for the oracle, which additionally needs the
/// channel's ground truth.
pub(crate) fn run_oracle_once(
    n: usize,
    x: usize,
    t: usize,
    model: CollisionModel,
    rng: &mut SmallRng,
) -> f64 {
    let (mut ch, truth) = tcast_adversary::sample_with(&ChannelSpec::ideal(n, x, model), rng);
    let oracle = OracleBins::new(truth);
    let report = oracle.run(&population(n), t, ch.as_mut(), rng);
    debug_assert_eq!(report.answer, x >= t);
    report.queries as f64
}
