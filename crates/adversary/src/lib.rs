#![warn(missing_docs)]

//! # tcast-adversary — Byzantine participant models for tcast channels
//!
//! The paper's primitives assume every mote answers honestly; this crate
//! drops that assumption. [`AdversaryChannel`] wraps any
//! [`GroupQueryChannel`] and perturbs its observations according to a
//! plain-data [`AdversaryConfig`] (defined in `tcast` so it rides inside
//! [`ChannelSpec`], the wire codec, and job identity keys):
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
//!     ExecutionProfile::new().with_defense(spec.defense));
//! assert!(report.anomalies > 0, "the canary catches an always-on jammer");
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::channel::ChannelArena;
use tcast::channel::PairedGroupQueryChannel;
use tcast::{
    AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, GroupQueryChannel, NodeId,
    Observation,
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
///
/// The liar set is `u64` node-set words of storage `L`: owned
/// (`Vec<u64>`, the default) or borrowed from the [`ChannelArena`] the
/// liars were recruited in (`&[u64]`).
#[derive(Debug)]
pub struct AdversaryChannel<C, L = Vec<u64>> {
    inner: C,
    config: AdversaryConfig,
    /// Lying nodes (false responders / colluders); empty for the other
    /// models.
    liars: L,
    /// The adversary's own deterministic randomness (liar recruitment,
    /// then capture lotteries among liars and jam duty draws) — separate
    /// from the honest channel's.
    rng: SmallRng,
    /// Remaining suppressions for the silent-drop model.
    budget_left: u64,
    stats: AdversaryStats,
}

impl<C: GroupQueryChannel, L: AsRef<[u64]>> AdversaryChannel<C, L> {
    /// Wraps `inner` with `config`'s behaviour over recruited `liars`;
    /// `rng` continues the stream the recruitment drew from.
    fn over(inner: C, liars: L, config: AdversaryConfig, rng: SmallRng) -> Self {
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

    /// Number of recruited lying nodes (false responders / colluders).
    pub fn liar_count(&self) -> usize {
        let liars = self.liars.as_ref();
        liars.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `id` is a recruited liar.
    fn lies(&self, id: NodeId) -> bool {
        let (liars, i) = (self.liars.as_ref(), id.index());
        liars.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Folds the liars' simultaneous replies into an honest observation.
    fn overlay_lies(&mut self, members: &[NodeId], obs: Observation) -> Observation {
        let lying = members.iter().filter(|&&id| self.lies(id)).count();
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
                        .copied()
                        .filter(|&id| self.lies(id))
                        .nth(pick)
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

impl<C: GroupQueryChannel, L: AsRef<[u64]>> GroupQueryChannel for AdversaryChannel<C, L> {
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
impl<C: GroupQueryChannel, L: AsRef<[u64]>> PairedGroupQueryChannel for AdversaryChannel<C, L> {}

/// Liars a model recruits: the false-responder group's size, else none.
fn liar_count(model: AdversaryModel) -> usize {
    match model {
        AdversaryModel::FalseResponders { count } => count as usize,
        AdversaryModel::Colluders { size } => size as usize,
        _ => 0,
    }
}

/// Seeds the adversary's generator from `config.seed` and, for the
/// false-responder models, recruits the liars into `arena` from it.
/// Returns the generator, positioned after the recruitment draws.
fn recruit(arena: &mut ChannelArena, config: AdversaryConfig) -> SmallRng {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let count = liar_count(config.model);
    if count > 0 {
        arena.recruit(count, &mut rng);
    }
    rng
}

/// [`fill_from`] with the spec's stored seeds: placement from
/// `placement_seed`, the adversary from its configured seed.
fn fill(spec: &ChannelSpec, arena: &mut ChannelArena) -> Option<(AdversaryConfig, SmallRng)> {
    let placement = &mut SmallRng::seed_from_u64(spec.placement_seed);
    fill_from(spec, arena, placement, |_, seed| seed)
}

/// The one construction every builder runs: places `spec`'s positives
/// into `arena` from `placement`, then recruits its adversary's liars
/// with the seed `reseed` derives from the configured one (drawing from
/// `placement` only for adversarial specs). Returns the adversary's
/// final config and generator.
fn fill_from<R: Rng + ?Sized>(
    spec: &ChannelSpec,
    arena: &mut ChannelArena,
    placement: &mut R,
    reseed: impl FnOnce(&mut R, u64) -> u64,
) -> Option<(AdversaryConfig, SmallRng)> {
    arena.place(spec.n, spec.x, placement);
    spec.adversary.map(|config| {
        let config = AdversaryConfig {
            seed: reseed(placement, config.seed),
            ..config
        };
        (config, recruit(arena, config))
    })
}

/// Builds `spec`'s channel into a worker's `arena` and runs `f` on it
/// with the ground truth's words. The truth and liar sets are the
/// arena's reused words, which the channel borrows, and the channel
/// lives on the stack, so a warm arena builds it without allocating.
/// Draws exactly like [`build_with_truth`], so both give the same
/// channel.
pub fn with_channel<T>(
    spec: &ChannelSpec,
    arena: &mut ChannelArena,
    f: impl FnOnce(&mut dyn GroupQueryChannel, &[u64]) -> T,
) -> T {
    let adversary = fill(spec, arena);
    let (truth, liars) = (arena.truth(), arena.liars());
    spec.with_honest(truth, spec.channel_seed, |honest| match adversary {
        None => f(honest, truth),
        Some((config, rng)) => f(
            &mut AdversaryChannel::over(honest, liars, config, rng),
            truth,
        ),
    })
}

/// Builds the channel described by `spec` from its stored seeds,
/// wrapping it in an [`AdversaryChannel`] when the spec carries an
/// adversary, and returns it with the ground-truth bitmap. The channel
/// owns its words.
///
/// The positives are placed from `spec.placement_seed` and the honest
/// channel draws from `spec.channel_seed`; the adversary's draws use
/// `spec.adversary.seed` directly, making rebuildings of the same spec
/// replay bit-identically.
pub fn build_with_truth(spec: &ChannelSpec) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
    let mut arena = ChannelArena::new();
    let adversary = fill(spec, &mut arena);
    owned(spec, arena, spec.channel_seed, adversary)
}

/// Builds the channel drawing the honest channel seed and then the
/// positive placement from `rng`, ignoring the spec's stored seeds, and
/// wraps it when the spec carries an adversary.
///
/// This is the draw order the experiment sweeps have always used: one
/// `u64` for the channel seed, then Floyd placement, from one per-run
/// generator, so figures regenerated through a spec stay byte-identical.
/// The adversary seed mixes `spec.adversary.seed` with one extra draw
/// taken *after* the honest construction, so honest specs consume
/// nothing more, while adversarial sweeps get per-run liar placements
/// that still depend on the configured seed.
pub fn sample_with<R: Rng + ?Sized>(
    spec: &ChannelSpec,
    rng: &mut R,
) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
    let channel_seed = rng.random();
    let mut arena = ChannelArena::new();
    let adversary = fill_from(spec, &mut arena, rng, |rng, seed| {
        seed ^ rng.random::<u64>()
    });
    owned(spec, arena, channel_seed, adversary)
}

/// `spec`'s honest channel owning `arena`'s truth words, wrapped over its
/// liar words when [`fill_from`] returned an adversary, with the truth as
/// a bitmap.
fn owned(
    spec: &ChannelSpec,
    arena: ChannelArena,
    channel_seed: u64,
    adversary: Option<(AdversaryConfig, SmallRng)>,
) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
    let truth = arena.truth_bools();
    let (words, liars) = arena.into_words();
    let honest = spec.honest_boxed(words, channel_seed);
    let channel = match adversary {
        None => honest,
        Some((config, rng)) => Box::new(AdversaryChannel::over(honest, liars, config, rng)),
    };
    (channel, truth)
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
        let mut arena = ChannelArena::new();
        let (config, rng) = fill(&spec, &mut arena).expect("adversarial spec");
        let (truth, liars) = arena.into_words();
        let inner = spec.honest_boxed(truth, spec.channel_seed);
        let mut ch = AdversaryChannel::over(inner, liars, config, rng);
        let all = population(8);
        for _ in 0..7 {
            ch.query(&all);
        }
        assert_eq!(ch.stats().suppressed, 5);
        assert_eq!(ch.liar_count(), 0);
        assert_eq!(ch.queries_issued(), 7);
    }

    #[test]
    fn build_is_deterministic() {
        let spec = ChannelSpec::ideal(64, 10, CollisionModel::OnePlus).seeded(7, 8);
        let (mut a, truth_a) = build_with_truth(&spec);
        let (mut b, truth_b) = build_with_truth(&spec);
        assert_eq!(truth_a, truth_b);
        let members = population(64);
        for _ in 0..20 {
            assert_eq!(a.query(&members), b.query(&members));
        }
    }

    #[test]
    fn truth_matches_channel_behaviour() {
        let spec = ChannelSpec::ideal(16, 4, CollisionModel::OnePlus).seeded(3, 4);
        let (mut ch, truth) = build_with_truth(&spec);
        assert_eq!(truth.iter().filter(|&&p| p).count(), 4);
        for (i, &positive) in truth.iter().enumerate() {
            let obs = ch.query(&[NodeId(i as u32)]);
            assert_eq!(obs == Observation::Activity, positive);
        }
    }

    #[test]
    fn sample_with_matches_historical_draw_order() {
        // The spec path must consume rng exactly like the original inline
        // construction: one u64 for the channel seed, then Floyd placement.
        use rand::RngCore;
        use tcast::IdealChannel;
        let spec = ChannelSpec::ideal(128, 20, CollisionModel::OnePlus);
        let mut rng_spec = SmallRng::seed_from_u64(42);
        let mut rng_inline = SmallRng::seed_from_u64(42);

        let (mut via_spec, _) = sample_with(&spec, &mut rng_spec);
        let ch_seed = rng_inline.random();
        let mut inline = IdealChannel::with_random_positives(
            128,
            20,
            CollisionModel::OnePlus,
            ch_seed,
            &mut rng_inline,
        );

        let members = population(128);
        for _ in 0..20 {
            assert_eq!(via_spec.query(&members), inline.query(&members));
        }
        // And the generators must be left in identical states.
        assert_eq!(rng_spec.next_u64(), rng_inline.next_u64());
    }

    #[test]
    fn lossy_spec_builds_lossy_channel() {
        let loss = tcast::LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 0.0,
        };
        let spec = ChannelSpec::lossy(8, 8, CollisionModel::OnePlus, loss).seeded(1, 2);
        let (mut ch, truth) = build_with_truth(&spec);
        assert!(truth.iter().all(|&p| p));
        // Every reply is lost, so even an all-positive group looks silent.
        assert_eq!(ch.query(&population(8)), Observation::Silent);
    }
}
