//! Algorithm 1: the 2tBins algorithm.
//!
//! Every round partitions the surviving candidates into `2t` equal-sized
//! random bins and queries them in turn. Either `t` bins test non-empty
//! (threshold reached) or at least `t+1` bins are silent, halving the
//! candidate set — giving the `2t * log2(N / 2t)` worst-case query bound
//! shown in Section IV-A.

use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::GroupQueryChannel;
use crate::engine::{self, ChannelMut, RoundStats, Session};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, QueryReport};

/// The 2tBins algorithm (Algorithm 1 in the paper) with random bin
/// assignment.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoTBins;

impl TwoTBins {
    /// The round policy: always `2t` bins.
    pub(crate) fn policy(&self) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
        |session, _| 2 * session.threshold()
    }
}

impl ThresholdQuerier for TwoTBins {
    fn name(&self) -> &str {
        "2tBins"
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

/// Worst-case query bound from Section IV-A:
/// `2t * (log2(N / 2t) + 1) + 2t` queries (the `+1` round and trailing `+2t`
/// absorb the final sub-`2t` round and integer rounding). Property tests
/// assert measured costs never exceed this.
pub fn worst_case_queries(n: usize, t: usize) -> u64 {
    if t == 0 || n == 0 {
        return 0;
    }
    let ratio = (n as f64 / (2.0 * t as f64)).max(1.0);
    let rounds = ratio.log2().ceil() + 2.0;
    (2.0 * t as f64 * rounds) as u64 + 2 * t as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run_case(n: usize, x: usize, t: usize, seed: u64) -> QueryReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ch_seed = rng.random();
        let mut ch =
            IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, ch_seed, &mut rng);
        TwoTBins.run(&population(n), t, &mut ch, &mut rng)
    }

    #[test]
    fn verdict_is_exact_on_ideal_channel() {
        for seed in 0..20 {
            for &(n, x, t) in &[
                (32usize, 0usize, 4usize),
                (32, 3, 4),
                (32, 4, 4),
                (32, 5, 4),
                (32, 32, 4),
                (128, 16, 16),
                (128, 15, 16),
                (128, 100, 16),
                (1, 0, 1),
                (1, 1, 1),
            ] {
                let r = run_case(n, x, t, seed);
                assert_eq!(r.answer, x >= t, "n={n} x={x} t={t} seed={seed}");
            }
        }
    }

    #[test]
    fn trivial_thresholds_cost_nothing() {
        let r = run_case(32, 5, 0, 1);
        assert!(r.answer);
        assert_eq!(r.queries, 0);
        let r = run_case(8, 5, 9, 1);
        assert!(!r.answer);
        assert_eq!(r.queries, 0);
    }

    #[test]
    fn saturated_network_costs_about_t_queries() {
        // x = n: every bin is non-empty, so the t-th query decides.
        let r = run_case(128, 128, 16, 2);
        assert!(r.answer);
        assert_eq!(r.queries, 16);
    }

    #[test]
    fn respects_worst_case_bound() {
        for seed in 0..50 {
            for &(n, x, t) in &[(64usize, 7usize, 8usize), (128, 16, 16), (256, 3, 4)] {
                let r = run_case(n, x, t, seed);
                assert!(
                    r.queries <= worst_case_queries(n, t),
                    "n={n} x={x} t={t}: {} > bound {}",
                    r.queries,
                    worst_case_queries(n, t)
                );
            }
        }
    }

    #[test]
    fn empty_network_cost_matches_paper_formula() {
        // Section IV-C: for x = 0 the cost is about (n - t) / (n / 2t):
        // silent bins each eliminate ~n/2t nodes until fewer than t remain.
        let n = 128;
        let t = 16;
        let mut total = 0u64;
        let runs = 200;
        for seed in 0..runs {
            total += run_case(n, 0, t, seed).queries;
        }
        let mean = total as f64 / runs as f64;
        let predicted = (n as f64 - t as f64) / (n as f64 / (2.0 * t as f64));
        assert!(
            (mean - predicted).abs() < predicted * 0.25,
            "mean {mean} vs predicted {predicted}"
        );
    }
}
