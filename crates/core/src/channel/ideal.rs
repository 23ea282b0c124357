//! The ideal (error-free) channel — the paper's simulation model.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{words, ChannelStats, GroupQueryChannel};
use crate::types::{CollisionModel, NodeId, Observation};

/// Error-free group-query channel over a fixed ground-truth assignment of
/// positives, held as `u64` words (see the `words` module).
///
/// * 1+ model: any positive member ⇒ [`Observation::Activity`].
/// * 2+ model: a lone positive is always decoded; `k >= 2` positives are
///   decoded with the configured capture probability (one of them chosen
///   uniformly), otherwise observed as undecodable activity.
///
/// `P` is the truth's storage: the channel owns its words (`Vec<u64>`,
/// the default) or borrows them from a worker's
/// [`ChannelArena`](super::ChannelArena) (`&[u64]`).
#[derive(Debug, Clone)]
pub struct IdealChannel<P = Vec<u64>> {
    positive: P,
    n: usize,
    model: CollisionModel,
    rng: SmallRng,
    stats: ChannelStats,
}

impl IdealChannel {
    /// Creates a channel over `n` nodes (ids `0..n`), none positive yet.
    pub fn new(n: usize, model: CollisionModel, seed: u64) -> Self {
        Self::over(vec![0; words::words_for(n)], n, model, seed)
    }

    /// Marks exactly the given nodes positive (all others negative).
    pub fn set_positives(&mut self, positives: &[NodeId]) {
        words::reset(&mut self.positive, self.n);
        for id in positives {
            assert!(id.index() < self.n, "node {id} outside 0..{}", self.n);
            words::insert(&mut self.positive, id.index());
        }
    }

    /// Creates a channel with `x` positives drawn uniformly without
    /// replacement — the sampling used for every per-`x` sweep point.
    pub fn with_random_positives<R: Rng + ?Sized>(
        n: usize,
        x: usize,
        model: CollisionModel,
        seed: u64,
        rng: &mut R,
    ) -> Self {
        let mut positive = Vec::new();
        words::floyd(&mut positive, n, x, rng);
        Self::over(positive, n, model, seed)
    }

    /// Clones the ground-truth bitmap (for constructing a matching oracle).
    pub fn positives_bitmap(&self) -> Vec<bool> {
        words::to_bools(&self.positive, self.n)
    }
}

impl<P: AsRef<[u64]>> IdealChannel<P> {
    /// Creates a channel over nodes `0..n` whose truth is `positive`'s
    /// words, so construction copies them nowhere.
    pub(crate) fn over(positive: P, n: usize, model: CollisionModel, seed: u64) -> Self {
        Self {
            positive,
            n,
            model,
            rng: SmallRng::seed_from_u64(seed),
            stats: ChannelStats::default(),
        }
    }

    /// Ground-truth check (used by the oracle algorithm and by tests).
    pub fn is_positive(&self, id: NodeId) -> bool {
        words::contains(self.positive.as_ref(), id)
    }

    /// Ground-truth positive count among an arbitrary node set.
    pub fn count_positives(&self, members: &[NodeId]) -> usize {
        words::count(self.positive.as_ref(), members)
    }
}

impl<P: AsRef<[u64]>> GroupQueryChannel for IdealChannel<P> {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        self.stats.queries += 1;
        let positive = self.positive.as_ref();
        // 1+ observes only "is any member positive?", so stop at the first.
        let k = match self.model {
            CollisionModel::OnePlus => usize::from(words::any(positive, members)),
            CollisionModel::TwoPlus(_) => words::count(positive, members),
        };
        observe(k, self.model, &mut self.rng, |i| {
            words::nth(positive, members, i)
        })
    }

    fn model(&self) -> CollisionModel {
        self.model
    }

    fn queries_issued(&self) -> u64 {
        self.stats.queries
    }
}

/// Maps `k` simultaneous repliers to an observation under a collision
/// model — the one capture rule, shared with [`super::LossyChannel`].
///
/// Under 2+ a capture runs the `capture_probability(k)` lottery and then
/// draws the decoded reply's index uniformly from `0..k` with one
/// `next_u64` (multiply-shift, the same draw as `rand`'s `choose` on a
/// `k`-element slice); `nth(i)` returns the `i`-th replier in `members`
/// order. Callers therefore never materialize the replier list.
pub(crate) fn observe<R: Rng + ?Sized>(
    k: usize,
    model: CollisionModel,
    rng: &mut R,
    nth: impl FnOnce(usize) -> NodeId,
) -> Observation {
    if k == 0 {
        return Observation::Silent;
    }
    match model {
        CollisionModel::OnePlus => Observation::Activity,
        CollisionModel::TwoPlus(capture) => {
            let p = capture.capture_probability(k);
            if p >= 1.0 || (p > 0.0 && rng.random_bool(p)) {
                let i = ((u128::from(rng.next_u64()) * k as u128) >> 64) as usize;
                Observation::Captured(nth(i))
            } else {
                Observation::Activity
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{population, CaptureModel};

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn silent_when_no_positive_member() {
        let mut ch = IdealChannel::new(8, CollisionModel::OnePlus, 1);
        ch.set_positives(&ids(&[5]));
        assert_eq!(ch.query(&ids(&[0, 1, 2])), Observation::Silent);
        assert_eq!(ch.query(&ids(&[4, 5])), Observation::Activity);
        assert_eq!(ch.queries_issued(), 2);
    }

    #[test]
    fn empty_group_is_silent() {
        let mut ch = IdealChannel::new(4, CollisionModel::two_plus_default(), 1);
        ch.set_positives(&ids(&[0, 1, 2, 3]));
        assert_eq!(ch.query(&[]), Observation::Silent);
    }

    #[test]
    fn two_plus_decodes_lone_reply() {
        let mut ch = IdealChannel::new(8, CollisionModel::two_plus_default(), 2);
        ch.set_positives(&ids(&[3]));
        assert_eq!(ch.query(&ids(&[1, 2, 3])), Observation::Captured(NodeId(3)));
    }

    #[test]
    fn two_plus_without_capture_reports_activity_on_collision() {
        let mut ch = IdealChannel::new(8, CollisionModel::TwoPlus(CaptureModel::Never), 3);
        ch.set_positives(&ids(&[1, 2]));
        for _ in 0..50 {
            assert_eq!(ch.query(&ids(&[1, 2])), Observation::Activity);
        }
    }

    #[test]
    fn capture_frequency_tracks_alpha() {
        let mut ch = IdealChannel::new(
            8,
            CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
            4,
        );
        ch.set_positives(&ids(&[1, 2])); // k = 2 -> capture prob 0.5
        let runs = 20_000;
        let captured = (0..runs)
            .filter(|_| matches!(ch.query(&ids(&[1, 2])), Observation::Captured(_)))
            .count();
        let frac = captured as f64 / runs as f64;
        assert!((frac - 0.5).abs() < 0.02, "capture fraction {frac}");
    }

    #[test]
    fn captured_node_is_a_real_positive() {
        let mut ch = IdealChannel::new(
            16,
            CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.9 }),
            5,
        );
        ch.set_positives(&ids(&[2, 7, 9]));
        let members = population(16);
        for _ in 0..200 {
            if let Observation::Captured(id) = ch.query(&members) {
                assert!(ch.is_positive(id));
            }
        }
    }

    #[test]
    fn random_positives_places_exactly_x() {
        let mut rng = SmallRng::seed_from_u64(9);
        for x in [0, 1, 17, 64, 128] {
            let ch =
                IdealChannel::with_random_positives(128, x, CollisionModel::OnePlus, 0, &mut rng);
            assert_eq!(ch.count_positives(&population(128)), x);
        }
    }

    #[test]
    #[should_panic(expected = "positives")]
    fn too_many_positives_panics() {
        let mut rng = SmallRng::seed_from_u64(9);
        let _ = IdealChannel::with_random_positives(4, 5, CollisionModel::OnePlus, 0, &mut rng);
    }

    #[test]
    fn one_plus_never_yields_capture() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut ch =
            IdealChannel::with_random_positives(32, 16, CollisionModel::OnePlus, 7, &mut rng);
        let members = population(32);
        for _ in 0..100 {
            assert!(!matches!(ch.query(&members), Observation::Captured(_)));
        }
    }
}
