//! Algorithm 2: the Exponential Increase algorithm, plus the two variants
//! the paper experimented with (Section IV-B).
//!
//! 2tBins pays at least `2t` queries in its first round even when almost no
//! node is positive. Exponential Increase instead starts with 2 bins and
//! doubles the bin count each round: large negative populations are
//! eliminated in a handful of coarse queries, while the doubling quickly
//! reaches fine granularity when many positives exist.

use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::GroupQueryChannel;
use crate::engine::{self, ChannelMut, RoundStats, Session};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, QueryReport};

/// Bin-growth policy variants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GrowthVariant {
    /// Algorithm 2 as published: always double.
    #[default]
    Double,
    /// Pause-and-continue: keep the bin count when a round eliminated at
    /// least `pause_fraction` of its candidates, double otherwise. Tried
    /// and dropped by the authors ("no consistent improvement"); kept here
    /// for the ablation bench.
    PauseAndContinue {
        /// Elimination fraction above which the bin count is frozen.
        pause_fraction: f64,
    },
    /// Four-fold: quadruple instead of double when *every* queried bin
    /// tested non-empty (the other dropped variant).
    FourFold,
}

/// The Exponential Increase algorithm (Algorithm 2) with selectable growth
/// variant.
#[derive(Debug, Clone, Copy)]
pub struct ExpIncrease {
    /// Bin count for the first round (2 in the paper).
    pub initial_bins: usize,
    /// Growth policy between rounds.
    pub variant: GrowthVariant,
}

impl Default for ExpIncrease {
    fn default() -> Self {
        Self {
            initial_bins: 2,
            variant: GrowthVariant::Double,
        }
    }
}

impl ExpIncrease {
    /// The published Algorithm 2.
    pub fn standard() -> Self {
        Self::default()
    }

    /// The pause-and-continue variant with the given elimination fraction.
    pub fn pause_and_continue(pause_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pause_fraction),
            "pause_fraction must be in [0,1]"
        );
        Self {
            initial_bins: 2,
            variant: GrowthVariant::PauseAndContinue { pause_fraction },
        }
    }

    /// The four-fold variant.
    pub fn four_fold() -> Self {
        Self {
            initial_bins: 2,
            variant: GrowthVariant::FourFold,
        }
    }

    /// The round policy: start at `initial_bins`, grow per `variant`.
    fn policy(&self) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
        let mut bin_num = self.initial_bins.max(1);
        let variant = self.variant;
        let mut first = true;
        move |session, last| {
            if first {
                first = false;
            } else if let Some(stats) = last {
                let before = session.remaining_len() + stats.eliminated + stats.captured;
                let grow = match variant {
                    GrowthVariant::Double => 2,
                    GrowthVariant::PauseAndContinue { pause_fraction } => {
                        let frac = if before == 0 {
                            0.0
                        } else {
                            stats.eliminated as f64 / before as f64
                        };
                        if frac >= pause_fraction {
                            1 // significant elimination: keep the bin count
                        } else {
                            2
                        }
                    }
                    GrowthVariant::FourFold => {
                        if stats.silent_bins == 0 && stats.queried_bins > 0 {
                            4
                        } else {
                            2
                        }
                    }
                };
                bin_num = bin_num.saturating_mul(grow);
            }
            // More bins than nodes adds nothing (zero-member bins are free).
            bin_num.min(session.remaining_len().max(1))
        }
    }
}

impl ThresholdQuerier for ExpIncrease {
    fn name(&self) -> &str {
        match self.variant {
            GrowthVariant::Double => "ExpIncrease",
            GrowthVariant::PauseAndContinue { .. } => "ExpIncrease/pause",
            GrowthVariant::FourFold => "ExpIncrease/4x",
        }
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
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run_case(alg: &ExpIncrease, n: usize, x: usize, t: usize, seed: u64) -> QueryReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ch_seed = rng.random();
        let mut ch =
            IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, ch_seed, &mut rng);
        alg.run(&population(n), t, &mut ch, &mut rng)
    }

    #[test]
    fn verdict_is_exact_on_ideal_channel_all_variants() {
        let variants = [
            ExpIncrease::standard(),
            ExpIncrease::pause_and_continue(0.4),
            ExpIncrease::four_fold(),
        ];
        for alg in &variants {
            for seed in 0..15 {
                for &(n, x, t) in &[
                    (32usize, 0usize, 4usize),
                    (32, 3, 4),
                    (32, 4, 4),
                    (32, 32, 4),
                    (128, 16, 16),
                    (128, 17, 16),
                    (64, 1, 2),
                ] {
                    let r = run_case(alg, n, x, t, seed);
                    assert_eq!(r.answer, x >= t, "{} n={n} x={x} t={t}", alg.name());
                }
            }
        }
    }

    #[test]
    fn cheap_for_empty_network() {
        // x = 0: the first 2-bin round eliminates everything in 2 queries.
        let r = run_case(&ExpIncrease::standard(), 128, 0, 16, 1);
        assert!(!r.answer);
        assert_eq!(r.queries, 2);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn beats_twotbins_for_tiny_x() {
        use crate::twotbins::TwoTBins;
        let n = 256;
        let t = 32;
        let (mut exp_total, mut ttb_total) = (0u64, 0u64);
        for seed in 0..100 {
            exp_total += run_case(&ExpIncrease::standard(), n, 1, t, seed).queries;
            let mut rng = SmallRng::seed_from_u64(seed);
            let ch_seed = rng.random();
            let mut ch = IdealChannel::with_random_positives(
                n,
                1,
                CollisionModel::OnePlus,
                ch_seed,
                &mut rng,
            );
            ttb_total += TwoTBins.run(&population(n), t, &mut ch, &mut rng).queries;
        }
        assert!(
            exp_total < ttb_total,
            "ExpIncrease {exp_total} should beat 2tBins {ttb_total} at x=1"
        );
    }

    #[test]
    fn bin_count_doubles_between_rounds() {
        // With x = n no node is ever eliminated and no round decides until
        // enough bins exist, so the trace shows 2, 4, 8, ... until the
        // evidence reaches t.
        let r = run_case(&ExpIncrease::standard(), 64, 64, 16, 3);
        assert!(r.answer);
        let bins: Vec<usize> = r.trace.iter().map(|t| t.bins).collect();
        for w in bins.windows(2) {
            assert_eq!(w[1], w[0] * 2, "trace {bins:?}");
        }
    }

    #[test]
    fn four_fold_accelerates_on_saturation() {
        let r = run_case(&ExpIncrease::four_fold(), 256, 256, 32, 4);
        assert!(r.answer);
        let bins: Vec<usize> = r.trace.iter().map(|t| t.bins).collect();
        // 2, then 8 (a 4x jump because the first round saw no silent bin).
        assert!(bins.len() >= 2);
        assert_eq!(bins[1], 8, "trace {bins:?}");
    }

    #[test]
    #[should_panic(expected = "pause_fraction")]
    fn invalid_pause_fraction_panics() {
        let _ = ExpIncrease::pause_and_continue(1.5);
    }
}
