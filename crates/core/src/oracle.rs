//! The oracle bin-selection lower bound (Section V-C).
//!
//! The oracle is given the true positive count `x` (recomputed each round
//! over the surviving candidates) and chooses the bin count from the
//! paper's interpolated optimum:
//!
//! ```text
//! b = x + 1                          if x <= t/2
//! b = 3x - t                         if t/2 < x <= t
//! b = t * (1 + (n - x)/(n - t + 1))  if x > t
//! ```
//!
//! It is not a real algorithm (no initiator knows `x`) but serves as the
//! lower-bound curve in Figures 5 and 6 against which ABNS is judged.

use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::{words, GroupQueryChannel};
use crate::engine::{self, ChannelMut, RoundStats, Session};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, QueryReport};

/// Oracle bin selection with ground-truth knowledge of the positive set,
/// held as `u64` words of storage `P`: owned (`Vec<u64>`, the default)
/// or borrowed from the channel arena the job's channel was built in
/// (`&[u64]`), so a worker's oracle copies no truth.
#[derive(Debug, Clone)]
pub struct OracleBins<P = Vec<u64>> {
    positive: P,
}

impl OracleBins {
    /// Builds an oracle from the ground-truth bitmap (index = node id).
    /// `IdealChannel::positives_bitmap` produces a matching bitmap.
    pub fn new(positive: Vec<bool>) -> Self {
        Self::over(words::from_bools(&positive))
    }
}

impl<P: AsRef<[u64]>> OracleBins<P> {
    /// Builds an oracle over ground-truth words, e.g. a
    /// [`crate::channel::ChannelArena`]'s `truth()`.
    pub fn over(positive: P) -> Self {
        Self { positive }
    }

    /// The round policy: recount the surviving positives, then apply the
    /// piecewise optimum.
    fn policy(&self) -> impl FnMut(&Session, Option<&RoundStats>) -> usize + '_ {
        |session, _| {
            let x = words::count(self.positive.as_ref(), session.remaining());
            // Captured positives reduce the evidence still needed.
            let t_eff = session
                .threshold()
                .saturating_sub(session.confirmed())
                .max(1);
            oracle_bins(session.remaining_len(), t_eff, x)
        }
    }
}

/// The paper's piecewise-optimal bin count (Section V-C), clamped to
/// `[1, n]`.
pub fn oracle_bins(n: usize, t: usize, x: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let t_f = t.max(1) as f64;
    let x_f = x as f64;
    let n_f = n as f64;
    let b = if x_f <= t_f / 2.0 {
        x_f + 1.0
    } else if x_f <= t_f {
        // Interpolation between (t/2, t/2+1) and (t, 2t); never below x+1.
        (3.0 * x_f - t_f).max(x_f + 1.0)
    } else {
        t_f * (1.0 + (n_f - x_f) / (n_f - t_f + 1.0))
    };
    (b.round() as usize).clamp(1, n)
}

impl<P: AsRef<[u64]> + Sync> ThresholdQuerier for OracleBins<P> {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn run_with_profile(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        profile: ExecutionProfile,
        scratch: &mut EngineScratch,
    ) -> QueryReport {
        engine::drive_with_scratch(
            nodes,
            t,
            ChannelMut::Single(channel),
            rng,
            profile,
            scratch,
            self.policy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::twotbins::TwoTBins;
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run_case(n: usize, x: usize, t: usize, seed: u64) -> QueryReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ch_seed = rng.random();
        let mut ch =
            IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, ch_seed, &mut rng);
        let oracle = OracleBins::new(ch.positives_bitmap());
        oracle.run(&population(n), t, &mut ch, &mut rng)
    }

    #[test]
    fn bin_formula_anchor_points() {
        let (n, t) = (128, 16);
        assert_eq!(oracle_bins(n, t, 0), 1, "x = 0: one spanning bin");
        assert_eq!(oracle_bins(n, t, 4), 5, "x <= t/2: b = x + 1");
        assert_eq!(oracle_bins(n, t, t), 2 * t, "x = t: b = 2t");
        assert_eq!(oracle_bins(n, t, n), t, "x = n: b = t");
    }

    #[test]
    fn bin_formula_is_clamped() {
        assert_eq!(oracle_bins(4, 16, 4), 4, "never more bins than nodes");
        assert_eq!(oracle_bins(0, 4, 0), 1);
        assert!(oracle_bins(100, 1, 50) >= 1);
    }

    #[test]
    fn verdict_is_exact_on_ideal_channel() {
        for seed in 0..20 {
            for &(n, x, t) in &[
                (32usize, 0usize, 8usize),
                (32, 7, 8),
                (32, 8, 8),
                (32, 32, 8),
                (128, 4, 16),
                (128, 16, 16),
                (128, 128, 16),
            ] {
                let r = run_case(n, x, t, seed);
                assert_eq!(r.answer, x >= t, "n={n} x={x} t={t} seed={seed}");
            }
        }
    }

    #[test]
    fn x_zero_costs_one_query() {
        let r = run_case(128, 0, 16, 1);
        assert!(!r.answer);
        assert_eq!(r.queries, 1, "one spanning silent bin settles x = 0");
    }

    #[test]
    fn saturated_costs_exactly_t() {
        let r = run_case(128, 128, 16, 2);
        assert!(r.answer);
        assert_eq!(r.queries, 16, "t full bins settle x = n");
    }

    #[test]
    fn oracle_never_loses_to_twotbins_on_average() {
        let (n, t) = (64, 8);
        for x in [0usize, 2, 4, 8, 16, 32, 64] {
            let (mut oracle_total, mut ttb_total) = (0u64, 0u64);
            for seed in 0..150 {
                oracle_total += run_case(n, x, t, seed).queries;
                let mut rng = SmallRng::seed_from_u64(seed);
                let ch_seed = rng.random();
                let mut ch = IdealChannel::with_random_positives(
                    n,
                    x,
                    CollisionModel::OnePlus,
                    ch_seed,
                    &mut rng,
                );
                ttb_total += TwoTBins.run(&population(n), t, &mut ch, &mut rng).queries;
            }
            // Allow a small tolerance: the oracle curve is an interpolated
            // heuristic, not a proven pointwise optimum.
            assert!(
                oracle_total as f64 <= ttb_total as f64 * 1.10,
                "x={x}: oracle {oracle_total} vs 2tBins {ttb_total}"
            );
        }
    }
}
