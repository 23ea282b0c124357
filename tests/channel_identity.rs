//! The count-then-pick channels against the collect-then-`choose` query
//! they replaced.
//!
//! The reference below is the earlier channel query rebuilt from public
//! items: collect the repliers (the heard ones, for the lossy channel)
//! into a `Vec`, run the `capture_probability` lottery with
//! `random_bool`, and pick the decoded reply with `choose`. Every
//! observation, every RNG draw and every fault counter of the production
//! channels must match it over seeded random member slices, including
//! empty ones. Construction is pinned the same way: Floyd placement and
//! the spec builders must consume a shared generator exactly as before.

use rand::rngs::SmallRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, RngCore, SeedableRng};

use tcast::{
    population, random_positive_set, CaptureModel, ChannelSpec, CollisionModel, GroupQueryChannel,
    IdealChannel, LossConfig, LossyChannel, NodeId, Observation,
};

const N: usize = 64;
/// Positive counts, one per channel instance: none, sparse, dense, all.
const XS: [usize; 10] = [0, 1, 2, 3, 7, 16, 24, 40, 63, 64];
const QUERIES_PER_CHANNEL: usize = 1_000;

/// The earlier channel query: collect, then lottery, then `choose`.
struct Reference {
    positive: Vec<bool>,
    model: CollisionModel,
    loss: Option<LossConfig>,
    rng: SmallRng,
    false_negative_groups: u64,
    false_positive_groups: u64,
}

impl Reference {
    fn new(
        positives: &[NodeId],
        model: CollisionModel,
        loss: Option<LossConfig>,
        seed: u64,
    ) -> Self {
        let mut positive = vec![false; N];
        for id in positives {
            positive[id.index()] = true;
        }
        Self {
            positive,
            model,
            loss,
            rng: SmallRng::seed_from_u64(seed),
            false_negative_groups: 0,
            false_positive_groups: 0,
        }
    }

    fn query(&mut self, members: &[NodeId]) -> Observation {
        let Some(loss) = self.loss else {
            let repliers: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|id| self.positive[id.index()])
                .collect();
            return observe(&repliers, self.model, &mut self.rng);
        };
        let truly_positive = members
            .iter()
            .filter(|id| self.positive[id.index()])
            .count();
        let heard: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|id| self.positive[id.index()] && !self.rng.random_bool(loss.reply_miss_prob))
            .collect();
        if heard.is_empty() {
            if loss.false_activity_prob > 0.0 && self.rng.random_bool(loss.false_activity_prob) {
                if truly_positive == 0 {
                    self.false_positive_groups += 1;
                }
                return Observation::Activity;
            }
            if truly_positive > 0 {
                self.false_negative_groups += 1;
            }
            return Observation::Silent;
        }
        observe(&heard, self.model, &mut self.rng)
    }
}

fn observe(repliers: &[NodeId], model: CollisionModel, rng: &mut dyn RngCore) -> Observation {
    if repliers.is_empty() {
        return Observation::Silent;
    }
    match model {
        CollisionModel::OnePlus => Observation::Activity,
        CollisionModel::TwoPlus(capture) => {
            let p = capture.capture_probability(repliers.len());
            if p >= 1.0 || (p > 0.0 && rng.random_bool(p)) {
                Observation::Captured(*repliers.choose(rng).expect("k >= 1"))
            } else {
                Observation::Activity
            }
        }
    }
}

/// The earlier Floyd placement, verbatim.
fn reference_positive_set<R: Rng + ?Sized>(n: usize, x: usize, rng: &mut R) -> Vec<NodeId> {
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
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| p.then_some(NodeId(i as u32)))
        .collect()
}

/// A random group: a shuffled prefix of the population, empty one time
/// in eight and otherwise of uniform length.
fn random_members(rng: &mut SmallRng) -> Vec<NodeId> {
    if rng.random_range(0..8) == 0 {
        return Vec::new();
    }
    let mut members = population(N);
    members.shuffle(rng);
    members.truncate(rng.random_range(1..=N));
    members
}

/// Runs `QUERIES_PER_CHANNEL` seeded queries against each of `XS`'s
/// channels, built by `make` next to the reference, compares every
/// observation, then hands both to `check` for counter comparisons.
fn assert_identical<C: GroupQueryChannel>(
    name: &str,
    model: CollisionModel,
    loss: Option<LossConfig>,
    make: impl Fn(&[NodeId], u64) -> C,
    check: impl Fn(&C, &Reference),
) {
    let mut members_rng = SmallRng::seed_from_u64(0x0b5e_57e5);
    for (i, &x) in XS.iter().enumerate() {
        let seed = 1_000 + i as u64;
        let positives = random_positive_set(N, x, &mut SmallRng::seed_from_u64(seed));
        let mut channel = make(&positives, seed);
        let mut reference = Reference::new(&positives, model, loss, seed);
        for q in 0..QUERIES_PER_CHANNEL {
            let members = random_members(&mut members_rng);
            assert_eq!(
                channel.query(&members),
                reference.query(&members),
                "{name}: x={x} query {q} over {members:?}"
            );
        }
        assert_eq!(
            channel.queries_issued(),
            QUERIES_PER_CHANNEL as u64,
            "{name}: x={x}"
        );
        check(&channel, &reference);
    }
}

fn assert_ideal_identical(name: &str, model: CollisionModel) {
    assert_identical(
        name,
        model,
        None,
        |positives, seed| {
            let mut ch = IdealChannel::new(N, model, seed);
            ch.set_positives(positives);
            ch
        },
        |_, _| {},
    );
}

#[test]
fn ideal_one_plus_matches_collect_then_choose() {
    assert_ideal_identical("ideal 1+", CollisionModel::OnePlus);
}

#[test]
fn ideal_two_plus_geometric_matches_collect_then_choose() {
    let model = CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 });
    assert_ideal_identical("ideal 2+ geometric", model);
}

#[test]
fn ideal_two_plus_never_matches_collect_then_choose() {
    let model = CollisionModel::TwoPlus(CaptureModel::Never);
    assert_ideal_identical("ideal 2+ never", model);
}

fn assert_lossy_identical(name: &str, model: CollisionModel, loss: LossConfig) {
    assert_identical(
        name,
        model,
        Some(loss),
        |positives, seed| {
            let mut ch = LossyChannel::new(N, model, loss, seed);
            ch.set_positives(positives);
            ch
        },
        |ch, reference| {
            assert_eq!(
                ch.false_negative_groups(),
                reference.false_negative_groups,
                "{name}"
            );
            assert_eq!(
                ch.false_positive_groups(),
                reference.false_positive_groups,
                "{name}"
            );
        },
    );
}

#[test]
fn lossy_default_matches_collect_then_choose() {
    assert_lossy_identical(
        "lossy default 2+",
        CollisionModel::two_plus_default(),
        LossConfig::default(),
    );
    assert_lossy_identical(
        "lossy default 1+",
        CollisionModel::OnePlus,
        LossConfig::default(),
    );
}

#[test]
fn lossy_false_activity_matches_collect_then_choose() {
    let loss = LossConfig {
        false_activity_prob: 0.3,
        ..LossConfig::default()
    };
    assert_lossy_identical("lossy fa=0.3 2+", CollisionModel::two_plus_default(), loss);
    assert_lossy_identical("lossy fa=0.3 1+", CollisionModel::OnePlus, loss);
}

#[test]
fn floyd_placement_consumes_the_shared_rng_as_before() {
    for (i, &x) in XS.iter().enumerate() {
        for n in [x, x + 1, 2 * x + 3, 1024] {
            let seed = 77 + i as u64;
            let mut before = SmallRng::seed_from_u64(seed);
            let expected = reference_positive_set(n, x, &mut before);
            let after = before.next_u64();

            let mut now = SmallRng::seed_from_u64(seed);
            assert_eq!(random_positive_set(n, x, &mut now), expected, "n={n} x={x}");
            assert_eq!(now.next_u64(), after, "n={n} x={x}: RNG state");

            let mut now = SmallRng::seed_from_u64(seed);
            let ch =
                IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, 0, &mut now);
            let placed: Vec<NodeId> = population(n)
                .into_iter()
                .filter(|&id| ch.is_positive(id))
                .collect();
            assert_eq!(placed, expected, "with_random_positives n={n} x={x}");
            assert_eq!(
                now.next_u64(),
                after,
                "with_random_positives n={n} x={x}: RNG state"
            );
        }
    }
}

/// A spec's channel and truth against the reference built from the same
/// channel seed and placement.
fn assert_spec_matches(
    spec: &ChannelSpec,
    built: (Box<dyn GroupQueryChannel + Send>, Vec<bool>),
    channel_seed: u64,
    positives: &[NodeId],
) {
    let (mut channel, truth) = built;
    let mut expected = vec![false; spec.n];
    for id in positives {
        expected[id.index()] = true;
    }
    assert_eq!(truth, expected, "{spec:?}: truth bitmap");
    let mut reference = Reference::new(positives, spec.model, spec.loss, channel_seed);
    let mut members_rng = SmallRng::seed_from_u64(channel_seed ^ 0x5eed);
    for q in 0..200 {
        let members = random_members(&mut members_rng);
        assert_eq!(
            channel.query(&members),
            reference.query(&members),
            "{spec:?}: query {q}"
        );
    }
}

#[test]
fn spec_builders_draw_in_the_same_order_as_before() {
    let lossy = LossConfig {
        false_activity_prob: 0.3,
        ..LossConfig::default()
    };
    for (i, &x) in XS.iter().enumerate() {
        let (placement_seed, channel_seed) = (500 + i as u64, 900 + i as u64);
        for spec in [
            ChannelSpec::ideal(N, x, CollisionModel::OnePlus),
            ChannelSpec::ideal(N, x, CollisionModel::two_plus_default()),
            ChannelSpec::lossy(N, x, CollisionModel::two_plus_default(), lossy),
        ] {
            // Stored seeds: placement from its own generator, channel
            // draws from the channel seed.
            let spec = spec.seeded(placement_seed, channel_seed);
            let mut placement = SmallRng::seed_from_u64(placement_seed);
            let positives = reference_positive_set(N, x, &mut placement);
            assert_spec_matches(&spec, spec.build_with_truth(), channel_seed, &positives);

            // Shared generator: one u64 for the channel seed, then Floyd
            // placement, and the generator left where the old path left it.
            let mut now = SmallRng::seed_from_u64(placement_seed);
            let mut before = SmallRng::seed_from_u64(placement_seed);
            let built = spec.sample_with(&mut now);
            let drawn_seed: u64 = before.random();
            let positives = reference_positive_set(N, x, &mut before);
            assert_spec_matches(&spec, built, drawn_seed, &positives);
            assert_eq!(now.next_u64(), before.next_u64(), "{spec:?}: RNG state");
        }
    }
}
