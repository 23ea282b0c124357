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
//! Channels built into a reused channel arena, on `u64` words, must
//! answer and draw like the `Vec<bool>` construction they replaced,
//! liar recruitment and every adversary model included, and an oracle
//! reading the arena's truth must pick the same bin counts as one over a
//! copy.

use rand::rngs::SmallRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, RngCore, SeedableRng};

use tcast::channel::ChannelArena;
use tcast::{
    population, random_positive_set, AdversaryConfig, AdversaryModel, CaptureModel, ChannelSpec,
    CollisionModel, GroupQueryChannel, IdealChannel, LossConfig, LossyChannel, NodeId, Observation,
    OracleBins, QueryReport, ThresholdQuerier,
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
            assert_spec_matches(
                &spec,
                tcast_adversary::build_with_truth(&spec),
                channel_seed,
                &positives,
            );

            // Shared generator: one u64 for the channel seed, then Floyd
            // placement, and the generator left where the old path left it.
            let mut now = SmallRng::seed_from_u64(placement_seed);
            let mut before = SmallRng::seed_from_u64(placement_seed);
            let built = tcast_adversary::sample_with(&spec, &mut now);
            let drawn_seed: u64 = before.random();
            let positives = reference_positive_set(N, x, &mut before);
            assert_spec_matches(&spec, built, drawn_seed, &positives);
            assert_eq!(now.next_u64(), before.next_u64(), "{spec:?}: RNG state");
        }
    }
}

/// The earlier Byzantine wrapper over the reference channel: liars
/// recruited through a list of the idle nodes and kept as a `Vec<bool>`.
struct ReferenceAdversary {
    honest: Reference,
    config: AdversaryConfig,
    liars: Vec<bool>,
    rng: SmallRng,
    budget_left: u64,
}

impl ReferenceAdversary {
    fn new(honest: Reference, config: AdversaryConfig) -> Self {
        let truth = honest.positive.clone();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let liar_count = match config.model {
            AdversaryModel::FalseResponders { count } => count as usize,
            AdversaryModel::Colluders { size } => size as usize,
            _ => 0,
        };
        let mut liars = Vec::new();
        if liar_count > 0 {
            let idle: Vec<usize> = (0..truth.len()).filter(|&i| !truth[i]).collect();
            let picks = reference_positive_set(idle.len(), liar_count.min(idle.len()), &mut rng);
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
            honest,
            config,
            liars,
            rng,
            budget_left,
        }
    }

    fn lies(&self, id: NodeId) -> bool {
        self.liars.get(id.index()).copied().unwrap_or(false)
    }

    fn query(&mut self, members: &[NodeId]) -> Observation {
        let obs = self.honest.query(members);
        match self.config.model {
            AdversaryModel::SilentDrop { .. } => {
                if obs != Observation::Silent && self.budget_left > 0 {
                    self.budget_left -= 1;
                    Observation::Silent
                } else {
                    obs
                }
            }
            AdversaryModel::FalseResponders { .. } | AdversaryModel::Colluders { .. } => {
                let lying = members.iter().filter(|&&id| self.lies(id)).count();
                if lying == 0 {
                    return obs;
                }
                match (obs, self.honest.model) {
                    (Observation::Silent, CollisionModel::OnePlus) => Observation::Activity,
                    (Observation::Silent, CollisionModel::TwoPlus(capture)) => {
                        if self.rng.random_bool(capture.capture_probability(lying)) {
                            let pick = self.rng.random_range(0..lying);
                            let liars: Vec<NodeId> = members
                                .iter()
                                .copied()
                                .filter(|&id| self.lies(id))
                                .collect();
                            Observation::Captured(liars[pick])
                        } else {
                            Observation::Activity
                        }
                    }
                    _ => Observation::Activity,
                }
            }
            AdversaryModel::Jammer { duty_mille } => {
                if duty_mille > 0 && self.rng.random_range(0..1000) < u64::from(duty_mille) {
                    Observation::Activity
                } else {
                    obs
                }
            }
        }
    }
}

/// Every adversary model, over a few liar-group sizes and duty cycles.
fn adversary_models() -> [AdversaryModel; 6] {
    [
        AdversaryModel::FalseResponders { count: 1 },
        AdversaryModel::FalseResponders { count: 9 },
        AdversaryModel::Colluders { size: 15 },
        AdversaryModel::Jammer { duty_mille: 350 },
        AdversaryModel::Jammer { duty_mille: 1000 },
        AdversaryModel::SilentDrop { budget: 5 },
    ]
}

/// Whether node `i` is in the node-set words `words`.
fn word_bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

/// `QUERIES` seeded random-member queries against both channels.
fn assert_same_observations(
    name: &str,
    channel: &mut dyn GroupQueryChannel,
    reference: &mut ReferenceAdversary,
    seed: u64,
) {
    let mut members_rng = SmallRng::seed_from_u64(seed ^ 0xad5e);
    for q in 0..300 {
        let members = random_members(&mut members_rng);
        assert_eq!(
            channel.query(&members),
            reference.query(&members),
            "{name}: query {q} over {members:?}"
        );
    }
}

#[test]
fn arena_built_channels_match_the_bitmap_construction() {
    let lossy = LossConfig {
        false_activity_prob: 0.3,
        ..LossConfig::default()
    };
    // One arena for every case, as a worker reuses it across jobs.
    let mut arena = ChannelArena::new();
    for (i, &x) in XS.iter().enumerate() {
        for (j, model) in adversary_models().into_iter().enumerate() {
            for (collision, loss) in [
                (CollisionModel::OnePlus, None),
                (CollisionModel::two_plus_default(), None),
                (CollisionModel::two_plus_default(), Some(lossy)),
            ] {
                let seed = (100 * i + j) as u64;
                let config = AdversaryConfig {
                    model,
                    seed: 7 + seed,
                };
                let (placement_seed, channel_seed) = (500 + seed, 900 + seed);
                let spec = ChannelSpec::adversarial(N, x, collision, loss, config)
                    .seeded(placement_seed, channel_seed);
                let name = format!("{spec:?}");
                let positives =
                    reference_positive_set(N, x, &mut SmallRng::seed_from_u64(placement_seed));
                let reference = || {
                    let honest = Reference::new(&positives, collision, loss, channel_seed);
                    ReferenceAdversary::new(honest, config)
                };

                // Stored seeds, into the reused arena.
                let mut expected = reference();
                tcast_adversary::with_channel(&spec, &mut arena, |channel, truth| {
                    let truth: Vec<bool> = (0..N).map(|i| word_bit(truth, i)).collect();
                    assert_eq!(truth, expected.honest.positive, "{name}: truth");
                    assert_same_observations(&name, channel, &mut expected, seed);
                });

                // The owned builder draws the same.
                let (mut owned, truth) = tcast_adversary::build_with_truth(&spec);
                let mut expected = reference();
                assert_eq!(truth, expected.honest.positive, "{name}: owned truth");
                assert_same_observations(&name, owned.as_mut(), &mut expected, seed);

                // Shared generator: channel seed, placement, then one draw
                // mixed into the adversary seed, leaving the generator
                // where the bitmap construction left it.
                let mut now = SmallRng::seed_from_u64(seed);
                let (mut sampled, _) = tcast_adversary::sample_with(&spec, &mut now);
                let mut before = SmallRng::seed_from_u64(seed);
                let drawn_seed: u64 = before.random();
                let positives = reference_positive_set(N, x, &mut before);
                let config = AdversaryConfig {
                    seed: config.seed ^ before.random::<u64>(),
                    ..config
                };
                let honest = Reference::new(&positives, collision, loss, drawn_seed);
                let mut expected = ReferenceAdversary::new(honest, config);
                assert_same_observations(&name, sampled.as_mut(), &mut expected, seed);
                assert_eq!(now.next_u64(), before.next_u64(), "{name}: RNG state");
            }
        }
    }
}

#[test]
fn oracle_over_borrowed_truth_matches_oracle_over_a_copy() {
    let mut arena = ChannelArena::new();
    for (i, &x) in XS.iter().enumerate() {
        for model in [CollisionModel::OnePlus, CollisionModel::two_plus_default()] {
            let spec = ChannelSpec::ideal(N, x, model).seeded(40 + i as u64, 60 + i as u64);
            let (t, session_seed) = (8, 80 + i as u64);

            let borrowed = tcast_adversary::with_channel(&spec, &mut arena, |channel, truth| {
                OracleBins::over(truth).run(
                    &population(N),
                    t,
                    channel,
                    &mut SmallRng::seed_from_u64(session_seed),
                )
            });

            let (mut channel, truth) = tcast_adversary::build_with_truth(&spec);
            let copied = OracleBins::new(truth).run(
                &population(N),
                t,
                channel.as_mut(),
                &mut SmallRng::seed_from_u64(session_seed),
            );
            let bins = |r: &QueryReport| r.trace.iter().map(|round| round.bins).collect::<Vec<_>>();
            assert_eq!(bins(&borrowed), bins(&copied), "{spec:?}: bin counts");
            assert_eq!(borrowed, copied, "{spec:?}");
        }
    }
}
