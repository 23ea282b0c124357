//! Loss/retry sweep — wrong verdicts and overhead vs `reply_miss_prob`.
//!
//! Not a paper figure: the paper's Section IV-D measures error rates on
//! the mote testbed but never sweeps the loss rate in simulation. This
//! sweep quantifies what the verified-silence [`RetryPolicy`] buys on a
//! lossy channel: for miss probabilities from 0 to 12% and retry counts
//! 0, 1, and 2, it plots
//!
//! * **loss-error** — the wrong-verdict rate of 2tBins at the hardest
//!   operating point `x = t` (where losing a single positive reply flips
//!   the verdict), and
//! * **loss-overhead** — the mean query cost of the same sessions.
//!
//! The two figures share series names on purpose: [`crate::seeding`]
//! derives per-run seeds from the series name, so "retries=1" in the
//! error figure and "retries=1" in the overhead figure replay the *same*
//! sessions — the overhead curve prices exactly the errors the other
//! curve shows. Expected shape: at retries = 0 the error rate climbs
//! roughly linearly in the miss probability (every positive exposure is
//! a chance to falsely eliminate); one retry already collapses it by two
//! orders of magnitude (per-exposure error `p^2` plus a verified final
//! verdict), while overhead grows only by the re-queries actually spent
//! on silent bins.

use rand::rngs::SmallRng;

use tcast::{
    population, ChannelSpec, CollisionModel, ExecutionProfile, LossConfig, QueryReport,
    RetryPolicy, ThresholdQuerier, TwoTBins,
};

use crate::output::Figure;
use crate::runner::{sweep, SweepSpec};

/// Swept miss probabilities, in per-mille (the sweep x axis is integer).
pub const MISS_PER_MILLE: [usize; 8] = [0, 5, 10, 20, 30, 50, 80, 120];

/// Retry counts compared.
pub const RETRY_COUNTS: [u32; 3] = [0, 1, 2];

/// One 2tBins session at `x = t` on a lossy channel with the given miss
/// probability (in per-mille) and retry count.
fn session(miss_mille: usize, spec: SweepSpec, retries: u32, rng: &mut SmallRng) -> QueryReport {
    let loss = LossConfig {
        reply_miss_prob: miss_mille as f64 / 1000.0,
        false_activity_prob: 0.0,
    };
    let channel = ChannelSpec::lossy(spec.n, spec.t, CollisionModel::OnePlus, loss);
    let (mut ch, _) = tcast_adversary::sample_with(&channel, rng);
    TwoTBins.run_with_options(
        &population(spec.n),
        spec.t,
        ch.as_mut(),
        rng,
        ExecutionProfile::new().with_retry(RetryPolicy::verified(retries)),
    )
}

/// Builds the pair: (wrong-verdict figure, query-overhead figure).
pub fn build(spec: SweepSpec) -> (Figure, Figure) {
    let xs = MISS_PER_MILLE;
    let mut error_series = Vec::new();
    let mut overhead_series = Vec::new();
    for retries in RETRY_COUNTS {
        let name = format!("retries={retries}");
        // Ground truth at x = t is "yes": every wrong verdict is a false
        // "no" caused by lost replies.
        error_series.push(sweep(&name, &xs, spec, move |miss, rng| {
            f64::from(!session(miss, spec, retries, rng).answer)
        }));
        overhead_series.push(sweep(&name, &xs, spec, move |miss, rng| {
            session(miss, spec, retries, rng).queries as f64
        }));
    }
    let error = Figure {
        id: "loss-error".into(),
        title: format!(
            "Wrong-verdict rate vs reply loss (2tBins, N={}, x=t={}, {} runs/point)",
            spec.n, spec.t, spec.runs
        ),
        xlabel: "reply_miss_prob (per mille)".into(),
        ylabel: "wrong-verdict rate".into(),
        series: error_series,
    };
    let overhead = Figure {
        id: "loss-overhead".into(),
        title: format!(
            "Query overhead vs reply loss (2tBins, N={}, x=t={}, {} runs/point)",
            spec.n, spec.t, spec.runs
        ),
        xlabel: "reply_miss_prob (per mille)".into(),
        ylabel: "queries".into(),
        series: overhead_series,
    };
    (error, overhead)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            n: 32,
            t: 4,
            runs: 200,
            seed: 11,
        }
    }

    /// Sums a series' means over the lossy part of the sweep (miss > 0).
    fn lossy_sum(fig: &Figure, name: &str) -> f64 {
        fig.series(name)
            .unwrap()
            .points
            .iter()
            .filter(|(x, _)| *x > 0.0)
            .map(|(_, s)| s.mean())
            .sum()
    }

    #[test]
    fn no_retries_means_measurable_error_under_loss() {
        let (error, _) = build(small_spec());
        let r0 = error.series("retries=0").unwrap();
        assert!(
            r0.mean_at(30.0).unwrap() > 0.0 || r0.mean_at(50.0).unwrap() > 0.0,
            "3-5% loss must produce wrong verdicts without retries"
        );
    }

    #[test]
    fn one_retry_collapses_the_error_rate() {
        let (error, _) = build(small_spec());
        let r0 = lossy_sum(&error, "retries=0");
        let r1 = lossy_sum(&error, "retries=1");
        let r2 = lossy_sum(&error, "retries=2");
        assert!(
            r1 < r0 / 4.0,
            "one retry should collapse the error ({r1} vs {r0})"
        );
        assert!(r2 <= r1 + 1e-9, "more retries never hurt accuracy");
    }

    #[test]
    fn overhead_stays_bounded() {
        let (_, overhead) = build(small_spec());
        let r0 = lossy_sum(&overhead, "retries=0");
        let r2 = lossy_sum(&overhead, "retries=2");
        assert!(r2 > r0, "retries cost queries");
        assert!(
            r2 < r0 * 4.0,
            "k=2 retries must stay within (1+k)x plus verification ({r2} vs {r0})"
        );
    }

    #[test]
    fn lossless_point_has_zero_error_for_everyone() {
        let (error, _) = build(small_spec());
        for retries in RETRY_COUNTS {
            let s = error.series(&format!("retries={retries}")).unwrap();
            assert_eq!(s.mean_at(0.0).unwrap(), 0.0, "retries={retries}");
        }
    }
}
