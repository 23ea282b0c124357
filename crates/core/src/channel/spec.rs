//! Plain-data channel descriptions buildable into live channels.
//!
//! Experiment sweeps and the `tcast-service` worker pool both need to
//! construct channels away from where the parameters were chosen — on
//! another thread, after a queue hop, or inside a retry. [`ChannelSpec`]
//! captures a channel as pure data (`Copy + Send`) so the construction
//! site needs no borrowed state, and rebuilding the same spec always
//! yields a bit-identical channel.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{GroupQueryChannel, IdealChannel, LossConfig, LossyChannel};
use crate::retry::{DefensePolicy, RetryPolicy};
use crate::types::{CollisionModel, NodeId};

/// Plain-data description of a Byzantine participant model.
///
/// Lives in `tcast` (not `tcast-adversary`) so it can ride inside
/// [`ChannelSpec`] through the wire codec and session cache keys; the
/// live wrapper that *implements* the behaviour is
/// `tcast_adversary::AdversaryChannel`, and core's own builders refuse
/// adversarial specs (see [`ChannelSpec::build_with_truth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryConfig {
    /// Which Byzantine behaviour the wrapped channel exhibits.
    pub model: AdversaryModel,
    /// Seed for the adversary's own deterministic draws (liar placement,
    /// jammer duty lottery), independent of the honest channel's seed.
    pub seed: u64,
}

/// The Byzantine participant taxonomy the robustness campaign measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryModel {
    /// `count` idle nodes that answer *active* whenever queried,
    /// inflating the apparent positive count by up to `count`.
    FalseResponders {
        /// Number of lying idle nodes.
        count: u32,
    },
    /// A coordinated false-responder group. Campaigns size it `t - 1` —
    /// just below the threshold — where the lie is information-
    /// theoretically strongest. Behaviourally identical to
    /// `FalseResponders` (the coordination *is* the size); kept as a
    /// separate arm so campaign figures and wire captures name it.
    Colluders {
        /// Number of colluding lying nodes.
        size: u32,
    },
    /// A jammer that injects channel activity into queried groups with
    /// probability `duty_mille / 1000` per query — including empty
    /// (canary) groups; jamming is indiscriminate RF noise, not a
    /// targeted reply.
    Jammer {
        /// Jamming probability per query, in per-mille (`1000` = always).
        duty_mille: u32,
    },
    /// A targeted silent-drop adversary: suppresses the first `budget`
    /// non-silent observations of the session, turning them into
    /// silence. Unlike [`LossConfig`]'s independent coin flips this is
    /// worst-case targeted — it always hits, until the budget runs out.
    SilentDrop {
        /// Number of observations the adversary can suppress.
        budget: u64,
    },
}

/// Uniform `x`-subset of `0..n` chosen with Floyd's algorithm.
///
/// Consumes exactly `x` draws from `rng`, independent of `n`, which keeps
/// seed streams stable when sweeps vary the population size.
///
/// # Panics
///
/// Panics when `x > n`.
pub fn random_positive_set<R: Rng + ?Sized>(n: usize, x: usize, rng: &mut R) -> Vec<NodeId> {
    floyd_bitmap(n, x, rng)
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| p.then_some(NodeId(i as u32)))
        .collect()
}

/// [`random_positive_set`] as the membership bitmap the channels own:
/// the same `x` draws, written straight into an `n`-entry `Vec<bool>`.
pub(crate) fn floyd_bitmap<R: Rng + ?Sized>(n: usize, x: usize, rng: &mut R) -> Vec<bool> {
    assert!(x <= n, "cannot place {x} positives among {n} nodes");
    let mut positive = vec![false; n];
    for j in (n - x)..n {
        let k = rng.random_range(0..=j);
        if positive[k] {
            positive[j] = true;
        } else {
            positive[k] = true;
        }
    }
    positive
}

/// Plain-data description of an abstract group-query channel.
///
/// Contains everything needed to rebuild the same channel anywhere: the
/// population, the ground-truth positive count, the collision model,
/// optional loss parameters, and the two seeds that determine the positive
/// placement and the channel's internal randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Population size (node ids `0..n`).
    pub n: usize,
    /// Ground-truth number of predicate-positive nodes.
    pub x: usize,
    /// Collision model the channel implements.
    pub model: CollisionModel,
    /// Loss parameters; `None` builds an error-free [`IdealChannel`].
    pub loss: Option<LossConfig>,
    /// Seed for the uniform placement of the `x` positives.
    pub placement_seed: u64,
    /// Seed for the channel's internal draws (capture lotteries, losses).
    pub channel_seed: u64,
    /// Verified-silence retry policy executors should run sessions with.
    /// Plain data riding along with the channel description — the built
    /// channel itself ignores it; `QueryJob` and sweep drivers fold it
    /// into the [`crate::ExecutionProfile`] they run sessions with.
    pub retry: RetryPolicy,
    /// Byzantine participant model wrapped around the honest channel;
    /// `None` is the honest baseline. Building an adversarial spec
    /// requires `tcast_adversary::build_with_truth` — core's own
    /// builders panic on it rather than silently dropping the adversary.
    pub adversary: Option<AdversaryConfig>,
    /// Verdict-hardening defenses executors should run sessions with.
    /// Plain data like `retry`: passed to the engine via `RunOptions`.
    pub defense: DefensePolicy,
}

impl ChannelSpec {
    /// Spec for an error-free channel; seeds start at zero.
    pub fn ideal(n: usize, x: usize, model: CollisionModel) -> Self {
        Self {
            n,
            x,
            model,
            loss: None,
            placement_seed: 0,
            channel_seed: 0,
            retry: RetryPolicy::none(),
            adversary: None,
            defense: DefensePolicy::none(),
        }
    }

    /// Spec for an honest base channel (`loss` chooses ideal vs lossy)
    /// wrapped by the given Byzantine participant model; seeds start at
    /// zero. Build it with `tcast_adversary::build_with_truth`.
    pub fn adversarial(
        n: usize,
        x: usize,
        model: CollisionModel,
        loss: Option<LossConfig>,
        adversary: AdversaryConfig,
    ) -> Self {
        Self {
            loss,
            adversary: Some(adversary),
            ..Self::ideal(n, x, model)
        }
    }

    /// Spec for a channel with radio imperfections; seeds start at zero.
    pub fn lossy(n: usize, x: usize, model: CollisionModel, loss: LossConfig) -> Self {
        Self {
            loss: Some(loss),
            ..Self::ideal(n, x, model)
        }
    }

    /// Returns the spec with both seeds set.
    pub fn seeded(mut self, placement_seed: u64, channel_seed: u64) -> Self {
        self.placement_seed = placement_seed;
        self.channel_seed = channel_seed;
        self
    }

    /// Returns the spec with a verified-silence retry policy attached.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the spec with a Byzantine participant model attached.
    pub fn with_adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Returns the spec with verdict-hardening defenses attached.
    pub fn with_defense(mut self, defense: DefensePolicy) -> Self {
        self.defense = defense;
        self
    }

    /// Appends this spec's full cache identity to `out`.
    ///
    /// Two specs append identical bytes iff rebuilding them yields
    /// bit-identical channels *and* identical session retry behaviour:
    /// every field participates (population, truth count, model, loss,
    /// both seeds, retry policy). Session caches extend the buffer with
    /// the job's own fields (algorithm, threshold, session seed) and use
    /// the exact bytes as the key, so a cache hit can never return a
    /// report the job would not have produced itself.
    pub fn cache_key_into(&self, out: &mut Vec<u8>) {
        use crate::codec::WireEncode;
        self.encode(out);
    }

    /// Builds the channel described by this spec from its stored seeds.
    /// The channel owns the one placement bitmap; no truth copy is made.
    pub fn build(&self) -> Box<dyn GroupQueryChannel + Send> {
        let mut placement = SmallRng::seed_from_u64(self.placement_seed);
        self.channel_from(self.placement(&mut placement), self.channel_seed)
    }

    /// Like [`build`](Self::build), additionally returning the ground-truth
    /// positive bitmap (needed to construct a matching oracle).
    pub fn build_with_truth(&self) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
        let mut placement = SmallRng::seed_from_u64(self.placement_seed);
        self.construct(self.channel_seed, &mut placement)
    }

    /// Builds the channel drawing the channel seed and then the positive
    /// placement from `rng`, ignoring the stored seeds.
    ///
    /// This is the draw order the experiment sweeps have always used
    /// (channel seed first, placement second, from one per-run generator),
    /// so figures regenerated through a spec stay byte-identical.
    pub fn sample_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
        let channel_seed = rng.random();
        self.construct(channel_seed, rng)
    }

    fn construct<R: Rng + ?Sized>(
        &self,
        channel_seed: u64,
        placement: &mut R,
    ) -> (Box<dyn GroupQueryChannel + Send>, Vec<bool>) {
        // One placement pass: the channel owns the bitmap, the caller
        // gets the one copy it needs as ground truth.
        let bitmap = self.placement(placement);
        let truth = bitmap.clone();
        (self.channel_from(bitmap, channel_seed), truth)
    }

    /// The positive bitmap, drawn from `placement`; refuses adversarial
    /// specs before drawing anything.
    fn placement<R: Rng + ?Sized>(&self, placement: &mut R) -> Vec<bool> {
        assert!(
            self.adversary.is_none(),
            "adversarial ChannelSpec must be built via tcast_adversary::build_with_truth \
             (core cannot construct Byzantine wrappers)"
        );
        floyd_bitmap(self.n, self.x, placement)
    }

    /// The honest channel owning `bitmap`.
    fn channel_from(
        &self,
        bitmap: Vec<bool>,
        channel_seed: u64,
    ) -> Box<dyn GroupQueryChannel + Send> {
        match self.loss {
            None => Box::new(IdealChannel::from_bitmap(bitmap, self.model, channel_seed)),
            Some(loss) => Box::new(LossyChannel::from_bitmap(
                bitmap,
                self.model,
                loss,
                channel_seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{population, Observation};
    use rand::RngCore;

    #[test]
    fn positive_set_has_exactly_x_elements() {
        let mut rng = SmallRng::seed_from_u64(1);
        for x in [0, 1, 5, 31, 32] {
            let set = random_positive_set(32, x, &mut rng);
            assert_eq!(set.len(), x);
            assert!(set.windows(2).all(|w| w[0].0 < w[1].0), "sorted, distinct");
        }
    }

    #[test]
    #[should_panic(expected = "positives")]
    fn oversized_positive_set_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = random_positive_set(4, 5, &mut rng);
    }

    #[test]
    fn build_is_deterministic() {
        let spec = ChannelSpec::ideal(64, 10, CollisionModel::OnePlus).seeded(7, 8);
        let (mut a, truth_a) = spec.build_with_truth();
        let (mut b, truth_b) = spec.build_with_truth();
        assert_eq!(truth_a, truth_b);
        let members = population(64);
        for _ in 0..20 {
            assert_eq!(a.query(&members), b.query(&members));
        }
    }

    #[test]
    fn truth_matches_channel_behaviour() {
        let spec = ChannelSpec::ideal(16, 4, CollisionModel::OnePlus).seeded(3, 4);
        let (mut ch, truth) = spec.build_with_truth();
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
        let spec = ChannelSpec::ideal(128, 20, CollisionModel::OnePlus);
        let mut rng_spec = SmallRng::seed_from_u64(42);
        let mut rng_inline = SmallRng::seed_from_u64(42);

        let (mut via_spec, _) = spec.sample_with(&mut rng_spec);
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
    fn retry_policy_rides_along_as_plain_data() {
        use crate::retry::RetryPolicy;
        let base = ChannelSpec::ideal(8, 2, CollisionModel::OnePlus);
        assert_eq!(base.retry, RetryPolicy::none());
        let with = base.with_retry(RetryPolicy::verified(2).with_budget(50));
        assert_eq!(with.retry.max_retries, 2);
        assert_eq!(with.retry.budget, Some(50));
        assert_ne!(base, with, "retry participates in spec equality");
    }

    #[test]
    fn adversarial_fields_ride_along_as_plain_data() {
        let base = ChannelSpec::ideal(8, 2, CollisionModel::OnePlus);
        assert_eq!(base.adversary, None);
        assert_eq!(base.defense, DefensePolicy::none());
        let adv = AdversaryConfig {
            model: AdversaryModel::Jammer { duty_mille: 350 },
            seed: 99,
        };
        let with = base
            .with_adversary(adv)
            .with_defense(DefensePolicy::hardened());
        assert_eq!(with.adversary, Some(adv));
        assert_ne!(base, with, "adversary/defense participate in equality");
        let direct = ChannelSpec::adversarial(8, 2, CollisionModel::OnePlus, None, adv);
        assert_eq!(direct.adversary, Some(adv));
    }

    #[test]
    #[should_panic(expected = "tcast_adversary")]
    fn core_refuses_to_build_adversarial_specs() {
        let adv = AdversaryConfig {
            model: AdversaryModel::FalseResponders { count: 1 },
            seed: 0,
        };
        let _ = ChannelSpec::adversarial(8, 2, CollisionModel::OnePlus, None, adv).build();
    }

    #[test]
    fn lossy_spec_builds_lossy_channel() {
        let loss = LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 0.0,
        };
        let spec = ChannelSpec::lossy(8, 8, CollisionModel::OnePlus, loss).seeded(1, 2);
        let (mut ch, truth) = spec.build_with_truth();
        assert!(truth.iter().all(|&p| p));
        // Every reply is lost, so even an all-positive group looks silent.
        assert_eq!(ch.query(&population(8)), Observation::Silent);
    }
}
