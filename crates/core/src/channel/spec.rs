//! Plain-data channel descriptions buildable into live channels.
//!
//! Experiment sweeps and the `tcast-service` worker pool both need to
//! construct channels away from where the parameters were chosen — on
//! another thread, after a queue hop, or inside a retry. [`ChannelSpec`]
//! captures a channel as pure data (`Copy + Send`) so the construction
//! site needs no borrowed state, and rebuilding the same spec always
//! yields a bit-identical channel. `tcast_adversary::with_channel`,
//! `build_with_truth` and `sample_with` turn a spec into a live channel,
//! applying its adversary when it carries one.

use rand::Rng;

use super::{words, GroupQueryChannel, IdealChannel, LossConfig, LossyChannel};
use crate::retry::{DefensePolicy, RetryPolicy};
use crate::types::{CollisionModel, NodeId};

/// Plain-data description of a Byzantine participant model.
///
/// Lives in `tcast` (not `tcast-adversary`) so it can ride inside
/// [`ChannelSpec`] through the wire codec and job identity keys; the
/// live wrapper that *implements* the behaviour is
/// `tcast_adversary::AdversaryChannel`, which the `tcast_adversary`
/// builders apply.
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

/// Uniform `x`-subset of `0..n` chosen with Floyd's algorithm, in
/// ascending id order.
///
/// Consumes exactly `x` draws from `rng`, independent of `n`, which keeps
/// seed streams stable when sweeps vary the population size.
///
/// # Panics
///
/// Panics when `x > n`.
pub fn random_positive_set<R: Rng + ?Sized>(n: usize, x: usize, rng: &mut R) -> Vec<NodeId> {
    let mut set = Vec::new();
    words::floyd(&mut set, n, x, rng);
    words::to_ids(&set, n)
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
    /// `None` is the honest baseline. The `tcast_adversary` builders
    /// apply it; [`ChannelSpec::with_honest`] builds only the honest
    /// channel underneath.
    pub adversary: Option<AdversaryConfig>,
    /// Verdict-hardening defenses executors should run sessions with.
    /// Plain data like `retry`: folded into the
    /// [`crate::ExecutionProfile`] sessions run with.
    pub defense: DefensePolicy,
}

impl ChannelSpec {
    /// The longest [`encode`](crate::WireEncode::encode) output of any
    /// spec, in bytes: `n` and `x` (8 + 8), a 2+ model with
    /// geometric capture (10), loss (17), both seeds (16), a retry policy
    /// with a budget (13), an adversary with a `u64` parameter (18) and
    /// the defense policy (9).
    pub const MAX_CACHE_KEY_LEN: usize = 8 + 8 + 10 + 17 + 16 + 13 + 18 + 9;

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

    /// Builds the honest channel this spec describes (its adversary, if
    /// any, is not applied) over borrowed truth words — a worker's
    /// [`ChannelArena`](super::ChannelArena) — on the stack, and runs `f`
    /// on it. The trait object dispatches straight to the concrete
    /// channel, as a boxed one does.
    pub fn with_honest<T>(
        &self,
        truth: &[u64],
        channel_seed: u64,
        f: impl FnOnce(&mut dyn GroupQueryChannel) -> T,
    ) -> T {
        match self.loss {
            None => f(&mut IdealChannel::over(
                truth,
                self.n,
                self.model,
                channel_seed,
            )),
            Some(loss) => f(&mut LossyChannel::over(
                truth,
                self.n,
                self.model,
                loss,
                channel_seed,
            )),
        }
    }

    /// [`with_honest`](Self::with_honest)'s channel, boxed and owning its
    /// truth words.
    pub fn honest_boxed(
        &self,
        truth: Vec<u64>,
        channel_seed: u64,
    ) -> Box<dyn GroupQueryChannel + Send> {
        match self.loss {
            None => Box::new(IdealChannel::over(truth, self.n, self.model, channel_seed)),
            Some(loss) => Box::new(LossyChannel::over(
                truth,
                self.n,
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
}
