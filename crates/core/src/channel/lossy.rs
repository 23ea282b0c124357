//! A channel with radio imperfections — per-reply losses and (optionally)
//! spurious activity.
//!
//! The mote experiments (Section IV-D) attribute their 1.4% error rate to
//! false negatives that concentrate on groups with a single positive node:
//! one hardware ACK is fragile, while superposed HACKs add power and are
//! decoded almost surely. This channel reproduces that aggregate behaviour
//! cheaply: every positive reply is *heard* independently with probability
//! `1 - reply_miss_prob`, so a whole group of `k` positives is missed with
//! probability `reply_miss_prob^k` — exponentially vanishing in `k`.
//!
//! The full-PHY version of the same effect (power summation under SINR)
//! lives in `tcast-radio`; this one exists so the abstract algorithm
//! simulations can inject faults without paying for the event-driven PHY.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::ideal::observe;
use super::{words, ChannelStats, GroupQueryChannel};
use crate::types::{CollisionModel, NodeId, Observation};

/// Loss parameters for [`LossyChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Probability that an individual positive reply goes unheard.
    pub reply_miss_prob: f64,
    /// Probability that a group with no heard reply is nevertheless
    /// observed as activity (e.g. co-channel interference). The paper's
    /// backcast-based implementation reports zero false positives, so this
    /// defaults to 0; it is exposed for fault-injection tests.
    pub false_activity_prob: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        Self {
            // Calibrated so the 12-mote sweep lands near the paper's 1.4%
            // aggregate false-negative rate (see EXPERIMENTS.md).
            reply_miss_prob: 0.03,
            false_activity_prob: 0.0,
        }
    }
}

/// Group-query channel with independent per-reply losses.
///
/// Like [`super::IdealChannel`], the truth is `u64` words the channel
/// owns (`P = Vec<u64>`) or borrows from a
/// [`ChannelArena`](super::ChannelArena) (`P = &[u64]`).
#[derive(Debug, Clone)]
pub struct LossyChannel<P = Vec<u64>> {
    positive: P,
    n: usize,
    model: CollisionModel,
    loss: LossConfig,
    rng: SmallRng,
    stats: ChannelStats,
    false_negative_groups: u64,
    false_positive_groups: u64,
}

impl LossyChannel {
    /// Creates a lossy channel over `n` nodes, none positive yet.
    pub fn new(n: usize, model: CollisionModel, loss: LossConfig, seed: u64) -> Self {
        Self::over(vec![0; words::words_for(n)], n, model, loss, seed)
    }

    /// Marks exactly the given nodes positive.
    pub fn set_positives(&mut self, positives: &[NodeId]) {
        words::reset(&mut self.positive, self.n);
        for id in positives {
            assert!(id.index() < self.n, "node {id} outside 0..{}", self.n);
            words::insert(&mut self.positive, id.index());
        }
    }
}

impl<P: AsRef<[u64]>> LossyChannel<P> {
    /// Creates a lossy channel over nodes `0..n` whose truth is
    /// `positive`'s words.
    pub(crate) fn over(
        positive: P,
        n: usize,
        model: CollisionModel,
        loss: LossConfig,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss.reply_miss_prob),
            "reply_miss_prob out of range"
        );
        assert!(
            (0.0..=1.0).contains(&loss.false_activity_prob),
            "false_activity_prob out of range"
        );
        Self {
            positive,
            n,
            model,
            loss,
            rng: SmallRng::seed_from_u64(seed),
            stats: ChannelStats::default(),
            false_negative_groups: 0,
            false_positive_groups: 0,
        }
    }

    /// Group queries whose every positive reply was lost (observed silent
    /// despite >= 1 positive member).
    pub fn false_negative_groups(&self) -> u64 {
        self.false_negative_groups
    }

    /// Group queries observed active despite having no positive member.
    pub fn false_positive_groups(&self) -> u64 {
        self.false_positive_groups
    }

    /// Ground-truth check.
    pub fn is_positive(&self, id: NodeId) -> bool {
        words::contains(self.positive.as_ref(), id)
    }
}

impl<P: AsRef<[u64]>> GroupQueryChannel for LossyChannel<P> {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        self.stats.queries += 1;
        let positive = self.positive.as_ref();
        let truly_positive = words::count(positive, members);
        // The loss draws run once to count the heard replies. A capture
        // replays them from a copy of the generator taken beforehand to
        // find the picked reply, so no list of heard ids is ever built.
        let miss = self.loss.reply_miss_prob;
        let mut replay = self.rng.clone();
        let k = heard(members, positive, miss, &mut self.rng).count();
        if k == 0 {
            if self.loss.false_activity_prob > 0.0
                && self.rng.random_bool(self.loss.false_activity_prob)
            {
                if truly_positive == 0 {
                    self.false_positive_groups += 1;
                }
                return Observation::Activity;
            }
            // A false negative requires the *final* observation to be
            // silent: missed replies masked by injected false activity
            // leave the initiator seeing Activity, which is correct for a
            // positive group.
            if truly_positive > 0 {
                self.false_negative_groups += 1;
            }
            return Observation::Silent;
        }
        observe(k, self.model, &mut self.rng, |i| {
            heard(members, positive, miss, &mut replay)
                .nth(i)
                .expect("the replayed draws hear the same k replies")
        })
    }

    fn model(&self) -> CollisionModel {
        self.model
    }

    fn queries_issued(&self) -> u64 {
        self.stats.queries
    }
}

/// The positive members whose reply survives its loss draw, in `members`
/// order: one `random_bool(miss)` per positive member.
fn heard<'a>(
    members: &'a [NodeId],
    positive: &'a [u64],
    miss: f64,
    rng: &'a mut SmallRng,
) -> impl Iterator<Item = NodeId> + 'a {
    members
        .iter()
        .copied()
        .filter(move |&id| words::contains(positive, id) && !rng.random_bool(miss))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn lossless_config_matches_ideal_semantics() {
        let loss = LossConfig {
            reply_miss_prob: 0.0,
            false_activity_prob: 0.0,
        };
        let mut ch = LossyChannel::new(8, CollisionModel::OnePlus, loss, 1);
        ch.set_positives(&ids(&[2]));
        assert_eq!(ch.query(&ids(&[0, 1])), Observation::Silent);
        assert_eq!(ch.query(&ids(&[2, 3])), Observation::Activity);
        assert_eq!(ch.false_negative_groups(), 0);
    }

    #[test]
    fn single_reply_miss_rate_matches_config() {
        let loss = LossConfig {
            reply_miss_prob: 0.2,
            false_activity_prob: 0.0,
        };
        let mut ch = LossyChannel::new(4, CollisionModel::OnePlus, loss, 2);
        ch.set_positives(&ids(&[0]));
        let runs = 50_000;
        let silent = (0..runs)
            .filter(|_| ch.query(&ids(&[0])) == Observation::Silent)
            .count();
        let frac = silent as f64 / runs as f64;
        assert!((frac - 0.2).abs() < 0.01, "miss fraction {frac}");
        assert_eq!(ch.false_negative_groups(), silent as u64);
    }

    #[test]
    fn miss_rate_vanishes_with_superposition() {
        let loss = LossConfig {
            reply_miss_prob: 0.2,
            false_activity_prob: 0.0,
        };
        let mut ch = LossyChannel::new(8, CollisionModel::OnePlus, loss, 3);
        ch.set_positives(&ids(&[0, 1, 2, 3]));
        let runs = 50_000;
        let silent = (0..runs)
            .filter(|_| ch.query(&ids(&[0, 1, 2, 3])) == Observation::Silent)
            .count();
        // Expected 0.2^4 = 0.0016.
        let frac = silent as f64 / runs as f64;
        assert!(frac < 0.01, "k=4 miss fraction {frac} should be tiny");
    }

    #[test]
    fn no_false_positives_by_default() {
        let mut ch = LossyChannel::new(8, CollisionModel::OnePlus, LossConfig::default(), 4);
        ch.set_positives(&[]);
        for _ in 0..10_000 {
            assert_eq!(ch.query(&ids(&[0, 1, 2, 3])), Observation::Silent);
        }
        assert_eq!(ch.false_positive_groups(), 0);
    }

    #[test]
    fn false_activity_injection_is_counted() {
        let loss = LossConfig {
            reply_miss_prob: 0.0,
            false_activity_prob: 0.5,
        };
        let mut ch = LossyChannel::new(4, CollisionModel::OnePlus, loss, 5);
        ch.set_positives(&[]);
        let runs = 10_000;
        let active = (0..runs)
            .filter(|_| ch.query(&ids(&[0, 1])) == Observation::Activity)
            .count();
        assert!(active > 0);
        assert_eq!(ch.false_positive_groups(), active as u64);
    }

    #[test]
    fn masked_miss_is_not_a_false_negative() {
        // Every reply is lost AND every silent group is masked by false
        // activity: the initiator always observes Activity, so a positive
        // group is never a false negative (the observation is accidentally
        // correct) while an empty group always is a false positive.
        let loss = LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 1.0,
        };
        let mut ch = LossyChannel::new(4, CollisionModel::OnePlus, loss, 6);
        ch.set_positives(&ids(&[0]));
        for _ in 0..100 {
            assert_eq!(ch.query(&ids(&[0])), Observation::Activity);
            assert_eq!(ch.query(&ids(&[1])), Observation::Activity);
        }
        assert_eq!(
            ch.false_negative_groups(),
            0,
            "masked misses were observed as Activity"
        );
        assert_eq!(ch.false_positive_groups(), 100);
    }

    #[test]
    fn partially_masked_misses_split_by_final_observation() {
        // 50% false activity on top of certain reply loss: exactly the
        // queries that end Silent are false negatives.
        let loss = LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 0.5,
        };
        let mut ch = LossyChannel::new(4, CollisionModel::OnePlus, loss, 7);
        ch.set_positives(&ids(&[0]));
        let runs = 10_000;
        let silent = (0..runs)
            .filter(|_| ch.query(&ids(&[0])) == Observation::Silent)
            .count();
        assert!(silent > 0 && silent < runs);
        assert_eq!(ch.false_negative_groups(), silent as u64);
        assert_eq!(ch.false_positive_groups(), 0);
    }

    #[test]
    #[should_panic(expected = "reply_miss_prob")]
    fn invalid_loss_config_panics() {
        let loss = LossConfig {
            reply_miss_prob: 1.5,
            false_activity_prob: 0.0,
        };
        let _ = LossyChannel::new(4, CollisionModel::OnePlus, loss, 0);
    }
}
