#![warn(missing_docs)]

//! # tcast-adversary — Byzantine participant models for tcast channels
//!
//! The paper's primitives assume every mote answers honestly; this crate
//! drops that assumption. [`AdversaryChannel`] wraps any
//! [`GroupQueryChannel`] and perturbs its observations according to a
//! plain-data [`AdversaryConfig`] (defined in `tcast` so it rides inside
//! [`ChannelSpec`], the wire codec, and session cache keys):
//!
//! * **false responders** — idle nodes that answer *active* whenever a
//!   query addresses them, inflating the apparent positive count;
//! * **colluders** — a coordinated false-responder group, sized just
//!   below the threshold `t` in the campaign, where the lie is
//!   information-theoretically strongest;
//! * **jammers** — indiscriminate RF noise injected into queried groups
//!   (including empty canary groups) with a configurable duty cycle;
//! * **targeted silent-drop** — suppresses the first `budget` non-silent
//!   observations outright, the worst-case counterpart of
//!   [`tcast::LossConfig`]'s independent coin flips.
//!
//! Every behaviour is deterministic per [`AdversaryConfig::seed`], so
//! robustness campaigns replay bit-identically. The defenses live on the
//! other side of the engine: see [`tcast::DefensePolicy`] and the
//! `tcast-experiments adversary` figure.
//!
//! # Quickstart
//!
//! ```
//! use tcast::{AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel,
//!             DefensePolicy, ExecutionProfile, ThresholdQuerier, TwoTBins, population};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // 128 honest nodes, 10 real positives, threshold 16 — plus a jammer.
//! let spec = ChannelSpec::adversarial(
//!     128, 10, CollisionModel::OnePlus, None,
//!     AdversaryConfig { model: AdversaryModel::Jammer { duty_mille: 1000 }, seed: 7 },
//! ).with_defense(DefensePolicy::hardened());
//!
//! let (mut channel, _truth) = tcast_adversary::build_with_truth(&spec);
//! let mut rng = SmallRng::seed_from_u64(42);
//! let report = TwoTBins.run_with_options(
//!     &population(128), 16, &mut channel, &mut rng,
//!     ExecutionProfile::new().with_defense(spec.defense).options());
//! assert!(report.anomalies > 0, "the canary catches an always-on jammer");
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::channel::PairedGroupQueryChannel;
use tcast::{
    random_positive_set, AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel,
    GroupQueryChannel, NodeId, Observation,
};

/// Counters describing what the adversary actually did during a session;
/// useful for asserting campaign mechanics in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Queries whose observation was changed by lying responders.
    pub lies: u64,
    /// Queries jammed into activity.
    pub jammed: u64,
    /// Non-silent observations suppressed into silence.
    pub suppressed: u64,
}

/// A Byzantine wrapper around an honest [`GroupQueryChannel`].
///
/// The wrapper perturbs observations *after* the honest channel produces
/// them, so the honest channel's own seed stream is untouched — wrapping
/// never changes what the honest participants would have done, only what
/// the initiator sees.
#[derive(Debug)]
pub struct AdversaryChannel<C> {
    inner: C,
    config: AdversaryConfig,
    /// Per-node lying flag (false responders / colluders); empty for the
    /// other models.
    liars: Vec<bool>,
    /// The adversary's own deterministic randomness (capture lotteries
    /// among liars, jam duty draws) — separate from the honest channel's.
    rng: SmallRng,
    /// Remaining suppressions for the silent-drop model.
    budget_left: u64,
    stats: AdversaryStats,
}

impl<C: GroupQueryChannel> AdversaryChannel<C> {
    /// Wraps `inner` with the behaviour described by `config`.
    ///
    /// `truth` is the honest positive bitmap (as returned by
    /// [`ChannelSpec::build_with_truth`]); the false-responder models
    /// recruit their liars among the *idle* nodes — a node that is truly
    /// positive has no need to lie — choosing them deterministically
    /// from `config.seed`.
    pub fn new(inner: C, truth: &[bool], config: AdversaryConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let liar_count = match config.model {
            AdversaryModel::FalseResponders { count } => count as usize,
            AdversaryModel::Colluders { size } => size as usize,
            _ => 0,
        };
        let mut liars = Vec::new();
        if liar_count > 0 {
            let idle: Vec<usize> = (0..truth.len()).filter(|&i| !truth[i]).collect();
            let picks = random_positive_set(idle.len(), liar_count.min(idle.len()), &mut rng);
            liars = vec![false; truth.len()];
            for p in picks {
                liars[idle[p.index()]] = true;
            }
        }
        let budget_left = match config.model {
            AdversaryModel::SilentDrop { budget } => budget,
            _ => 0,
        };
        Self {
            inner,
            config,
            liars,
            rng,
            budget_left,
            stats: AdversaryStats::default(),
        }
    }

    /// What the adversary has done so far.
    pub fn stats(&self) -> AdversaryStats {
        self.stats
    }

    /// The wrapped honest channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of recruited lying nodes (false responders / colluders).
    pub fn liar_count(&self) -> usize {
        self.liars.iter().filter(|&&l| l).count()
    }

    /// Folds the liars' simultaneous replies into an honest observation.
    fn overlay_lies(&mut self, members: &[NodeId], obs: Observation) -> Observation {
        let lying = members
            .iter()
            .filter(|id| self.liars.get(id.index()).copied().unwrap_or(false))
            .count();
        if lying == 0 {
            return obs;
        }
        let perturbed = match (obs, self.inner.model()) {
            // Honest silence, liars reply: activity — or, under 2+, a
            // capture lottery among the liars themselves. A lone liar is
            // always decoded (maximal damage: it becomes a named,
            // *confirmed* positive).
            (Observation::Silent, CollisionModel::OnePlus) => Observation::Activity,
            (Observation::Silent, CollisionModel::TwoPlus(capture)) => {
                if self.rng.random_bool(capture.capture_probability(lying)) {
                    let pick = self.rng.random_range(0..lying);
                    let liar = members
                        .iter()
                        .filter(|id| self.liars.get(id.index()).copied().unwrap_or(false))
                        .nth(pick)
                        .copied()
                        .expect("pick < lying");
                    Observation::Captured(liar)
                } else {
                    Observation::Activity
                }
            }
            // An honest capture collides with the liars' replies and is
            // no longer decodable.
            (Observation::Captured(_), _) => Observation::Activity,
            (Observation::Activity, _) => Observation::Activity,
        };
        if perturbed != obs {
            self.stats.lies += 1;
        }
        perturbed
    }
}

impl<C: GroupQueryChannel> GroupQueryChannel for AdversaryChannel<C> {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        let obs = self.inner.query(members);
        match self.config.model {
            AdversaryModel::SilentDrop { .. } => {
                if obs != Observation::Silent && self.budget_left > 0 {
                    self.budget_left -= 1;
                    self.stats.suppressed += 1;
                    Observation::Silent
                } else {
                    obs
                }
            }
            AdversaryModel::FalseResponders { .. } | AdversaryModel::Colluders { .. } => {
                self.overlay_lies(members, obs)
            }
            AdversaryModel::Jammer { duty_mille } => {
                // Jamming is indiscriminate RF noise per query — it also
                // hits empty (canary) groups, and it smothers captures.
                if duty_mille > 0 && self.rng.random_range(0..1000) < u64::from(duty_mille) {
                    self.stats.jammed += 1;
                    Observation::Activity
                } else {
                    obs
                }
            }
        }
    }

    fn model(&self) -> CollisionModel {
        self.inner.model()
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// Pairing degrades to two adversary-wrapped single queries: the
/// adversary perturbs each exchange independently.
impl<C: GroupQueryChannel> PairedGroupQueryChannel for AdversaryChannel<C> {}

/// Builds the channel described by `spec`, wrapping it in an
/// [`AdversaryChannel`] when the spec carries an adversary. Honest specs
/// delegate to core's [`ChannelSpec::build_with_truth`] untouched, so
/// existing seed streams stay byte-identical.
///
/// The adversary's draws use `spec.adversary.seed` directly, making
/// rebuildings of the same spec replay bit-identically.
pub fn build_with_truth(spec: &ChannelSpec) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
    match spec.adversary {
        None => spec.build_with_truth(),
        Some(config) => {
            let honest = ChannelSpec {
                adversary: None,
                ..*spec
            };
            let (inner, truth) = honest.build_with_truth();
            let wrapped = AdversaryChannel::new(inner, &truth, config);
            (Box::new(wrapped), truth)
        }
    }
}

/// Like [`build_with_truth`] without the truth bitmap: an honest spec
/// builds through [`ChannelSpec::build`], which makes no truth copy;
/// an adversarial one still needs the truth to recruit its liars.
pub fn build(spec: &ChannelSpec) -> Box<dyn GroupQueryChannel + Send> {
    match spec.adversary {
        None => spec.build(),
        Some(_) => build_with_truth(spec).0,
    }
}

/// Builds the channel drawing the honest channel seed and positive
/// placement from `rng` (the sweep drivers' historical draw order — see
/// [`ChannelSpec::sample_with`]), then wraps it when the spec carries an
/// adversary.
///
/// The adversary seed mixes `spec.adversary.seed` with one extra draw
/// taken *after* the honest construction, so honest specs consume `rng`
/// exactly like core's `sample_with` (byte-identical sweeps), while
/// adversarial sweeps get per-run liar placements that still depend on
/// the configured seed.
pub fn sample_with<R: Rng + ?Sized>(
    spec: &ChannelSpec,
    rng: &mut R,
) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
    match spec.adversary {
        None => spec.sample_with(rng),
        Some(config) => {
            let honest = ChannelSpec {
                adversary: None,
                ..*spec
            };
            let (inner, truth) = honest.sample_with(rng);
            let config = AdversaryConfig {
                seed: config.seed ^ rng.random::<u64>(),
                ..config
            };
            let wrapped = AdversaryChannel::new(inner, &truth, config);
            (Box::new(wrapped), truth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast::population;

    fn adversarial(
        n: usize,
        x: usize,
        model: AdversaryModel,
        seed: u64,
    ) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
        build_with_truth(&ChannelSpec::adversarial(
            n,
            x,
            CollisionModel::OnePlus,
            None,
            AdversaryConfig { model, seed },
        ))
    }

    #[test]
    fn false_responders_fake_activity_on_idle_groups() {
        let (mut ch, truth) = adversarial(16, 0, AdversaryModel::FalseResponders { count: 3 }, 1);
        assert!(truth.iter().all(|&p| !p));
        // Querying everyone must observe the liars.
        assert_eq!(ch.query(&population(16)), Observation::Activity);
        // And they lie on every single query — deterministically.
        let active: Vec<usize> = (0..16)
            .filter(|&i| ch.query(&[NodeId(i as u32)]) == Observation::Activity)
            .collect();
        assert_eq!(active.len(), 3, "exactly `count` liars");
        let again: Vec<usize> = (0..16)
            .filter(|&i| ch.query(&[NodeId(i as u32)]) == Observation::Activity)
            .collect();
        assert_eq!(active, again, "liar set is stable across queries");
    }

    #[test]
    fn liars_are_recruited_among_idle_nodes_only() {
        let (mut ch, truth) = adversarial(12, 6, AdversaryModel::Colluders { size: 4 }, 9);
        for (i, &positive) in truth.iter().enumerate() {
            let obs = ch.query(&[NodeId(i as u32)]);
            if positive {
                assert_eq!(obs, Observation::Activity, "honest positive still replies");
            }
        }
        // 6 honest positives + 4 liars: 10 nodes answer active.
        let active = (0..12)
            .filter(|&i| ch.query(&[NodeId(i as u32)]) == Observation::Activity)
            .count();
        assert_eq!(active, 10);
    }

    #[test]
    fn lone_liar_gets_captured_under_two_plus() {
        let spec = ChannelSpec::adversarial(
            8,
            0,
            CollisionModel::two_plus_default(),
            None,
            AdversaryConfig {
                model: AdversaryModel::FalseResponders { count: 1 },
                seed: 3,
            },
        );
        let (mut ch, _) = build_with_truth(&spec);
        // The lone liar's reply is always decoded: it becomes a *named*
        // false positive, the strongest possible lie.
        match ch.query(&population(8)) {
            Observation::Captured(id) => {
                assert_eq!(ch.query(&[id]), Observation::Captured(id));
            }
            obs => panic!("expected a captured liar, got {obs:?}"),
        }
    }

    #[test]
    fn jammer_hits_empty_canary_groups() {
        let (mut ch, _) = adversarial(8, 0, AdversaryModel::Jammer { duty_mille: 1000 }, 4);
        assert_eq!(
            ch.query(&[]),
            Observation::Activity,
            "a 100% duty jammer jams even the empty group"
        );
    }

    #[test]
    fn partial_duty_jammer_matches_its_duty_cycle() {
        let (mut ch, _) = adversarial(8, 0, AdversaryModel::Jammer { duty_mille: 350 }, 5);
        let jammed = (0..2000)
            .filter(|_| ch.query(&[]) == Observation::Activity)
            .count();
        let rate = jammed as f64 / 2000.0;
        assert!((rate - 0.35).abs() < 0.05, "measured duty {rate}");
    }

    #[test]
    fn silent_drop_suppresses_exactly_its_budget() {
        let (mut ch, _) = adversarial(4, 4, AdversaryModel::SilentDrop { budget: 2 }, 6);
        let all = population(4);
        assert_eq!(ch.query(&all), Observation::Silent, "drop 1");
        assert_eq!(ch.query(&all), Observation::Silent, "drop 2");
        assert_eq!(
            ch.query(&all),
            Observation::Activity,
            "budget exhausted: the truth gets through"
        );
    }

    #[test]
    fn replay_is_bit_identical_per_seed() {
        for model in [
            AdversaryModel::FalseResponders { count: 2 },
            AdversaryModel::Jammer { duty_mille: 500 },
            AdversaryModel::SilentDrop { budget: 3 },
        ] {
            let (mut a, _) = adversarial(32, 5, model, 42);
            let (mut b, _) = adversarial(32, 5, model, 42);
            let members = population(32);
            for _ in 0..50 {
                assert_eq!(a.query(&members), b.query(&members), "{model:?}");
            }
        }
    }

    #[test]
    fn honest_specs_pass_through_byte_identically() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let spec = ChannelSpec::ideal(64, 10, CollisionModel::OnePlus);
        let mut rng_here = SmallRng::seed_from_u64(7);
        let mut rng_core = SmallRng::seed_from_u64(7);
        let (mut a, truth_a) = sample_with(&spec, &mut rng_here);
        let (mut b, truth_b) = spec.sample_with(&mut rng_core);
        assert_eq!(truth_a, truth_b);
        let members = population(64);
        for _ in 0..20 {
            assert_eq!(a.query(&members), b.query(&members));
        }
        assert_eq!(rng_here.next_u64(), rng_core.next_u64(), "same rng state");
    }

    #[test]
    fn stats_count_what_happened() {
        let spec = ChannelSpec::adversarial(
            8,
            8,
            CollisionModel::OnePlus,
            None,
            AdversaryConfig {
                model: AdversaryModel::SilentDrop { budget: 5 },
                seed: 0,
            },
        );
        let honest = ChannelSpec {
            adversary: None,
            ..spec
        };
        let (inner, truth) = honest.build_with_truth();
        let mut ch = AdversaryChannel::new(inner, &truth, spec.adversary.unwrap());
        let all = population(8);
        for _ in 0..7 {
            ch.query(&all);
        }
        assert_eq!(ch.stats().suppressed, 5);
        assert_eq!(ch.liar_count(), 0);
        assert_eq!(ch.queries_issued(), 7);
    }
}
