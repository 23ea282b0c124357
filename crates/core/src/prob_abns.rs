//! Probabilistic ABNS (Section V-D).
//!
//! A single probabilistic probe decides which regime we are in before any
//! bin-number commitment: each node enters a probe bin independently with
//! probability `2/t`. If the probe bin is silent, most likely `x < t/2`, a
//! regime where ABNS with a small initial estimate shines (`p0 = t/4`);
//! otherwise `x > t/2`, where plain 2tBins is already near-oracle, so the
//! algorithm simply switches to it.

use rand::{Rng, RngCore};

use crate::abns;
use crate::batch::EngineScratch;
use crate::channel::words;
use crate::channel::GroupQueryChannel;
use crate::engine::{self, ChannelMut};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::retry::RetryPolicy;
use crate::twotbins::TwoTBins;
use crate::types::{NodeId, Observation, QueryReport, RoundTrace};

/// Probabilistic ABNS.
#[derive(Debug, Clone, Default)]
pub struct ProbAbns {
    /// Probe inclusion probability; `None` uses the paper's `2/t`.
    pub sampling_prob: Option<f64>,
    /// Whether a silent probe also eliminates the sampled nodes. The paper
    /// uses the probe purely as a hint; elimination is sound (silent ⇒ all
    /// sampled nodes negative) and is exposed for the ablation bench.
    pub eliminate_probe: bool,
}

impl ProbAbns {
    /// The configuration evaluated in the paper.
    pub fn standard() -> Self {
        Self::default()
    }

    fn probe_probability(&self, t: usize) -> f64 {
        match self.sampling_prob {
            Some(q) => q.clamp(0.0, 1.0),
            None => (2.0 / t.max(1) as f64).min(1.0),
        }
    }
}

impl ThresholdQuerier for ProbAbns {
    fn name(&self) -> &str {
        "ProbABNS"
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
        let retry = profile.retry;
        // Degenerate thresholds are decided without probing.
        if t == 0 {
            return QueryReport::trivial(true);
        }
        if nodes.len() < t {
            return QueryReport::trivial(false);
        }

        let q = self.probe_probability(t);
        let mut probe = std::mem::take(&mut scratch.group);
        probe.clear();
        probe.extend(nodes.iter().copied().filter(|_| rng.random_bool(q)));

        let (probe_cost, probe_silent, probe_retries) = if probe.is_empty() {
            // Zero-member bin: free, trivially silent.
            (0u64, true, 0u64)
        } else {
            let mut obs = channel.query(&probe);
            let mut spent = 0u64;
            if self.eliminate_probe {
                // Only the eliminating configuration verifies probe silence:
                // a hint-only probe cannot flip the verdict, so re-querying
                // it would buy nothing.
                while obs == Observation::Silent
                    && spent < u64::from(retry.max_retries)
                    && retry.allows(spent)
                {
                    obs = channel.query(&probe);
                    spent += 1;
                }
            }
            (1 + spent, obs == Observation::Silent, spent)
        };

        let eliminate = probe_silent && self.eliminate_probe && !probe.is_empty();
        if eliminate {
            // Sound elimination: a (verified-)silent probe proves every
            // sampled node negative. The probe is marked in words, so the
            // survivors are one bit test per node; they replace the probe
            // in its buffer.
            let bound = probe.iter().map(|id| id.index() + 1).max().unwrap_or(0);
            words::reset(&mut scratch.marks, bound);
            for id in &probe {
                words::insert(&mut scratch.marks, id.index());
            }
            probe.clear();
            probe.extend(
                nodes
                    .iter()
                    .copied()
                    .filter(|&id| !words::contains(&scratch.marks, id)),
            );
        }
        let inner_nodes: &[NodeId] = if eliminate { &probe } else { nodes };
        let survivors = inner_nodes.len();

        // The probe round happens outside the engine's session, so mirror
        // its trace entry (and any retry burst) as events before the inner
        // session starts — event order must match trace order.
        if probe_cost > 0 {
            if probe_retries > 0 {
                tcast_obs::event_current(
                    "engine.retry",
                    &[("retries", probe_retries), ("dur_ns", 0), ("pool", 0)],
                );
            }
            tcast_obs::event_current(
                "engine.round",
                &[
                    ("bins", 1),
                    ("queried_bins", 1),
                    ("silent_bins", u64::from(probe_silent)),
                    ("eliminated", (nodes.len() - survivors) as u64),
                    ("captured", 0),
                    ("retries", probe_retries),
                    ("defenses", 0),
                    ("remaining", survivors as u64),
                    ("verification", 0),
                ],
            );
        }
        // The probe is exactly one round when it was actually issued; an
        // empty probe costs neither a query nor a round nor a trace entry.
        let lead = (probe_cost > 0).then(|| RoundTrace {
            bins: 1,
            queried_bins: 1,
            silent_bins: usize::from(probe_silent),
            eliminated: nodes.len() - survivors,
            captured: 0,
            retries: probe_retries as usize,
            defenses: 0,
            remaining: survivors,
        });

        // The probe's retry spending counts against the session budget.
        let inner_retry = RetryPolicy {
            budget: retry.budget.map(|b| b.saturating_sub(probe_retries)),
            ..retry
        };
        let inner_profile = ExecutionProfile {
            retry: inner_retry,
            ..profile
        };
        let channel = ChannelMut::Single(channel);
        let report = if probe_silent {
            // Likely x < t/2: ABNS seeded with p0 = t/4.
            let policy = abns::policy(t as f64 / 4.0);
            engine::drive_after(
                lead,
                inner_nodes,
                t,
                channel,
                rng,
                inner_profile,
                scratch,
                policy,
            )
        } else {
            // Likely x > t/2: 2tBins is near-oracle in this regime.
            let policy = TwoTBins.policy();
            engine::drive_after(
                lead,
                inner_nodes,
                t,
                channel,
                rng,
                inner_profile,
                scratch,
                policy,
            )
        };
        scratch.group = probe;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_case(alg: &ProbAbns, n: usize, x: usize, t: usize, seed: u64) -> QueryReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ch_seed = rng.random();
        let mut ch =
            IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, ch_seed, &mut rng);
        alg.run(&population(n), t, &mut ch, &mut rng)
    }

    #[test]
    fn verdict_is_exact_on_ideal_channel() {
        for eliminate in [false, true] {
            let alg = ProbAbns {
                eliminate_probe: eliminate,
                ..ProbAbns::standard()
            };
            for seed in 0..25 {
                for &(n, x, t) in &[
                    (32usize, 0usize, 8usize),
                    (32, 7, 8),
                    (32, 8, 8),
                    (32, 30, 8),
                    (128, 4, 16),
                    (128, 16, 16),
                    (128, 120, 16),
                ] {
                    let r = run_case(&alg, n, x, t, seed);
                    assert_eq!(r.answer, x >= t, "x={x} t={t} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn trivial_cases_cost_nothing() {
        let r = run_case(&ProbAbns::standard(), 16, 4, 0, 1);
        assert!(r.answer);
        assert_eq!(r.queries, 0);
        let r = run_case(&ProbAbns::standard(), 4, 4, 8, 1);
        assert!(!r.answer);
        assert_eq!(r.queries, 0);
    }

    #[test]
    fn probe_is_recorded_in_the_trace() {
        let r = run_case(&ProbAbns::standard(), 128, 64, 16, 2);
        assert_eq!(r.trace[0].bins, 1);
        assert!(r.queries >= 1);
    }

    #[test]
    fn silent_probe_routes_to_small_p0_abns() {
        // x = 0: the probe is silent, so the inner algorithm starts with
        // p0 = t/4 => b = t/4 + 1 bins.
        let t = 16;
        let r = run_case(&ProbAbns::standard(), 128, 0, t, 3);
        assert!(!r.answer);
        assert!(r.trace.len() >= 2);
        assert_eq!(r.trace[1].bins, t / 4 + 1, "trace {:?}", r.trace);
    }

    #[test]
    fn active_probe_routes_to_twotbins() {
        // x = n: the probe (expected 2n/t members) is virtually surely
        // non-empty; the inner algorithm uses 2t bins.
        let t = 16;
        let r = run_case(&ProbAbns::standard(), 128, 128, t, 4);
        assert!(r.answer);
        assert_eq!(r.trace[1].bins, 2 * t, "trace {:?}", r.trace);
    }

    #[test]
    fn empty_probe_is_not_a_round() {
        // sampling_prob = 0 forces an empty probe: free, no round, no trace
        // entry. Regression for the probe cost being added to `rounds`
        // (rounds must always equal the trace length).
        let alg = ProbAbns {
            sampling_prob: Some(0.0),
            ..ProbAbns::standard()
        };
        for seed in 0..10 {
            let r = run_case(&alg, 64, 10, 8, seed);
            assert_eq!(r.rounds as usize, r.trace.len(), "seed={seed}");
            r.assert_consistent();
            assert!(r.answer, "x=10 >= t=8");
        }
    }

    #[test]
    fn issued_probe_counts_exactly_one_round() {
        // An always-issued probe (sampling_prob = 1) is one query and one
        // round, whatever the inner algorithm does afterwards.
        let alg = ProbAbns {
            sampling_prob: Some(1.0),
            ..ProbAbns::standard()
        };
        for seed in 0..10 {
            let r = run_case(&alg, 64, 32, 8, seed);
            assert_eq!(r.rounds as usize, r.trace.len(), "seed={seed}");
            r.assert_consistent();
            assert_eq!(r.trace[0].bins, 1);
            assert_eq!(r.trace[0].queried_bins, 1);
        }
    }

    #[test]
    fn probe_elimination_shrinks_candidates() {
        let alg = ProbAbns {
            eliminate_probe: true,
            ..ProbAbns::standard()
        };
        // x = 0 with a big q: probe silent, members eliminated.
        let alg = ProbAbns {
            sampling_prob: Some(0.5),
            ..alg
        };
        let r = run_case(&alg, 128, 0, 16, 5);
        assert!(!r.answer);
        assert!(r.trace[0].eliminated > 30, "trace {:?}", r.trace[0]);
    }
}
