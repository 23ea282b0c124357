//! The probabilistic querying model for bimodal workloads (Section VI).
//!
//! When history says `x` is either small (`x <= t_l`) or large (`x >= t_r`)
//! with nothing in between, a constant number of *sampled* probes answers
//! the threshold question with high probability, independent of `n`, `x`
//! and `t`. Each probe puts every node in a bin with probability `1/b` and
//! checks the bin for activity; the per-probe activity probability differs
//! between the two modes by the gap
//!
//! ```text
//! Delta(b) = (1 - 1/b)^t_l - (1 - 1/b)^t_r
//! ```
//!
//! and `r` repeated probes separate the modes by a Chernoff argument.

use rand::{Rng, RngCore};

use crate::channel::GroupQueryChannel;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, Observation, QueryReport, RoundTrace};

/// Configuration of the probabilistic threshold decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticConfig {
    /// Upper edge of the "quiet" mode (`mu1 + 2 sigma1` in the paper).
    pub t_l: f64,
    /// Lower edge of the "activity" mode (`mu2 - 2 sigma2`).
    pub t_r: f64,
    /// Sampling denominator: each node enters a probe with probability `1/b`.
    pub bins: usize,
    /// Number of repeated probes.
    pub repeats: u32,
}

impl ProbabilisticConfig {
    /// Builds a configuration with the gap-maximizing `b` for the given
    /// mode boundaries and `r` repeats.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= t_l < t_r`.
    pub fn with_optimal_bins(t_l: f64, t_r: f64, n: usize, repeats: u32) -> Self {
        assert!(
            t_l >= 0.0 && t_l < t_r,
            "need 0 <= t_l < t_r, got [{t_l}, {t_r}]"
        );
        Self {
            t_l,
            t_r,
            bins: optimal_bins(t_l, t_r, n),
            repeats,
        }
    }

    /// Expected number of active probes out of `repeats` when `x <= t_l`
    /// (the paper's `m1`).
    pub fn m1(&self) -> f64 {
        self.repeats as f64 * (1.0 - keep_prob(self.bins).powf(self.t_l))
    }

    /// Expected number of active probes when `x >= t_r` (`m2`).
    pub fn m2(&self) -> f64 {
        self.repeats as f64 * (1.0 - keep_prob(self.bins).powf(self.t_r))
    }

    /// Per-probe activity-probability gap `Delta(b)`.
    pub fn gap(&self) -> f64 {
        gap(self.bins, self.t_l, self.t_r)
    }

    /// Decision margin `eps = Delta / 2` used in the repeat-count bounds.
    pub fn eps(&self) -> f64 {
        self.gap() / 2.0
    }
}

#[inline]
fn keep_prob(b: usize) -> f64 {
    1.0 - 1.0 / b.max(1) as f64
}

/// `Delta(b) = (1-1/b)^t_l - (1-1/b)^t_r`: how much likelier a probe is to
/// be active under the activity mode than under the quiet mode.
pub fn gap(b: usize, t_l: f64, t_r: f64) -> f64 {
    let q = keep_prob(b);
    q.powf(t_l) - q.powf(t_r)
}

/// The gap-maximizing sampling denominator, searched over `2..=max(n,2)`.
pub fn optimal_bins(t_l: f64, t_r: f64, n: usize) -> usize {
    let hi = n.max(2);
    let mut best = (2usize, f64::MIN);
    for b in 2..=hi {
        let g = gap(b, t_l, t_r);
        if g > best.1 {
            best = (b, g);
        }
    }
    best.0
}

/// Verdict of the probabilistic procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbDecision {
    /// `true` = "activity mode" (`x >= t_r` with high probability).
    pub activity: bool,
    /// Queries actually issued (zero-member probes are free).
    pub queries: u64,
    /// How many probes observed activity.
    pub active_probes: u32,
}

/// The probabilistic threshold querier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticQuerier {
    /// The decision configuration.
    pub config: ProbabilisticConfig,
}

impl ProbabilisticQuerier {
    /// Creates a querier from an explicit configuration.
    pub fn new(config: ProbabilisticConfig) -> Self {
        Self { config }
    }

    /// Runs the `r`-probe decision procedure.
    pub fn decide(
        &self,
        nodes: &[NodeId],
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
    ) -> ProbDecision {
        let cfg = &self.config;
        let include = 1.0 / cfg.bins.max(1) as f64;
        let mut active = 0u32;
        let mut queries = 0u64;
        let mut probe = Vec::with_capacity(nodes.len() / cfg.bins.max(1) + 1);
        for _ in 0..cfg.repeats {
            probe.clear();
            probe.extend(nodes.iter().copied().filter(|_| rng.random_bool(include)));
            if probe.is_empty() {
                continue; // trivially silent, free
            }
            queries += 1;
            if channel.query(&probe) != Observation::Silent {
                active += 1;
            }
        }
        // Final decision: compare against the midpoint of the two expected
        // counts (Section VI-B).
        let midpoint = (cfg.m1() + cfg.m2()) / 2.0;
        ProbDecision {
            activity: f64::from(active) > midpoint,
            queries,
            active_probes: active,
        }
    }
}

impl ThresholdQuerier for ProbabilisticQuerier {
    fn name(&self) -> &str {
        "Probabilistic"
    }

    /// Adapter: interprets "activity mode" as `x >= t`. Unlike the exact
    /// algorithms this may answer incorrectly (by design) with probability
    /// bounded by the Chernoff analysis; `t` is ignored in favour of the
    /// configured mode boundaries, and the [`crate::RetryPolicy`] and
    /// [`crate::DefensePolicy`] are ignored entirely — the decision never
    /// eliminates nodes, so there is no silence to verify, and its
    /// verdict is statistical rather than evidence-counting. No engine
    /// session runs, so the scratch goes unused. The report summarizes
    /// all probes as one aggregate round so its accounting invariants
    /// hold.
    fn run_with_profile(
        &self,
        nodes: &[NodeId],
        _t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        _profile: crate::ExecutionProfile,
        _scratch: &mut crate::EngineScratch,
    ) -> QueryReport {
        let d = self.decide(nodes, channel, rng);
        QueryReport {
            answer: d.activity,
            queries: d.queries,
            rounds: 1,
            retry_queries: 0,
            defense_queries: 0,
            anomalies: 0,
            confirmed_positives: 0,
            trace: vec![RoundTrace {
                bins: self.config.bins,
                queried_bins: d.queries as usize,
                silent_bins: (d.queries as usize).saturating_sub(d.active_probes as usize),
                eliminated: 0,
                captured: 0,
                retries: 0,
                defenses: 0,
                remaining: nodes.len(),
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gap_is_positive_and_peaks_inside_range() {
        let (t_l, t_r) = (16.0, 96.0);
        let b = optimal_bins(t_l, t_r, 128);
        assert!(b > 2 && b < 128, "optimal b = {b}");
        let g = gap(b, t_l, t_r);
        assert!(g > 0.3, "optimal gap {g} should be substantial");
        assert!(gap(2, t_l, t_r) < g);
        assert!(gap(127, t_l, t_r) < g);
    }

    #[test]
    fn m1_below_m2() {
        let cfg = ProbabilisticConfig::with_optimal_bins(16.0, 96.0, 128, 9);
        assert!(cfg.m1() < cfg.m2());
        assert!(cfg.eps() > 0.0);
    }

    #[test]
    fn separated_modes_decide_correctly() {
        let cfg = ProbabilisticConfig::with_optimal_bins(16.0, 96.0, 128, 9);
        let q = ProbabilisticQuerier::new(cfg);
        let nodes = population(128);
        let mut rng = SmallRng::seed_from_u64(1);
        // Quiet mode: x = 4 << t_l.
        let mut ch =
            IdealChannel::with_random_positives(128, 4, CollisionModel::OnePlus, 11, &mut rng);
        let mut correct = 0;
        for _ in 0..200 {
            if !q.decide(&nodes, &mut ch, &mut rng).activity {
                correct += 1;
            }
        }
        assert!(correct >= 190, "quiet-mode accuracy {correct}/200");
        // Activity mode: x = 110 >> t_r.
        let mut ch =
            IdealChannel::with_random_positives(128, 110, CollisionModel::OnePlus, 13, &mut rng);
        let mut correct = 0;
        for _ in 0..200 {
            if q.decide(&nodes, &mut ch, &mut rng).activity {
                correct += 1;
            }
        }
        assert!(correct >= 190, "activity-mode accuracy {correct}/200");
    }

    #[test]
    fn query_cost_is_at_most_r() {
        let cfg = ProbabilisticConfig::with_optimal_bins(16.0, 96.0, 128, 12);
        let q = ProbabilisticQuerier::new(cfg);
        let nodes = population(128);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ch =
            IdealChannel::with_random_positives(128, 64, CollisionModel::OnePlus, 3, &mut rng);
        let d = q.decide(&nodes, &mut ch, &mut rng);
        assert!(d.queries <= 12);
        assert!(d.active_probes as u64 <= d.queries);
    }

    #[test]
    fn more_repeats_help_at_moderate_separation() {
        // Modes at x=56 vs x=72 (the paper's hard d=8-ish regime).
        let nodes = population(128);
        let mut accuracy = Vec::new();
        for r in [1u32, 9, 25] {
            let cfg = ProbabilisticConfig::with_optimal_bins(56.0, 72.0, 128, r);
            let q = ProbabilisticQuerier::new(cfg);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut correct = 0;
            let runs = 400;
            for i in 0..runs {
                let activity = i % 2 == 0;
                let x = if activity { 76 } else { 52 };
                let mut ch = IdealChannel::with_random_positives(
                    128,
                    x,
                    CollisionModel::OnePlus,
                    100 + i as u64,
                    &mut rng,
                );
                if q.decide(&nodes, &mut ch, &mut rng).activity == activity {
                    correct += 1;
                }
            }
            accuracy.push(correct as f64 / runs as f64);
        }
        assert!(
            accuracy[2] > accuracy[0],
            "accuracy should grow with r: {accuracy:?}"
        );
    }

    #[test]
    #[should_panic(expected = "t_l < t_r")]
    fn inverted_boundaries_panic() {
        let _ = ProbabilisticConfig::with_optimal_bins(96.0, 16.0, 128, 1);
    }
}
