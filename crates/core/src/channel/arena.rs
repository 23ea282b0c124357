//! The per-worker channel arena: one job's ground truth and liar set as
//! reused `u64` words, and the honest channel built over them.
//!
//! A worker runs thousands of jobs, each over its own channel. Building
//! that channel used to allocate a placement bitmap, a truth copy, a box
//! and (for adversarial specs) a liar bitmap plus an idle-node list. The
//! arena keeps those words instead: [`ChannelArena::place`] and
//! [`ChannelArena::recruit`] refill them with the same draws as before,
//! and [`ChannelSpec::with_honest`] builds a channel that borrows them.
//! The owned builders (`tcast_adversary::build_with_truth` and
//! `sample_with`) run the same placement into a fresh arena and move its
//! words into the channel ([`ChannelSpec::honest_boxed`]).

use rand::Rng;

use super::words;
use crate::types::NodeId;

#[cfg(doc)]
use super::ChannelSpec;

/// Reusable words for one job's channel: the ground-truth positive set
/// and the liar set, each a node set over `0..n`.
///
/// Like [`crate::EngineScratch`], an arena is capacity, never state:
/// every fill clears what it writes, so a fresh arena and a well-used
/// one build identical channels.
#[derive(Debug, Default, Clone)]
pub struct ChannelArena {
    n: usize,
    truth: Vec<u64>,
    liars: Vec<u64>,
    /// Liar picks by idle rank, before they are mapped to node ids.
    picks: Vec<u64>,
}

impl ChannelArena {
    /// An empty arena; its words grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places `x` positives uniformly among nodes `0..n` with Floyd's
    /// algorithm, drawing exactly `x` values from `placement` (the draws
    /// of [`super::random_positive_set`]), and clears the liar set.
    ///
    /// # Panics
    ///
    /// Panics when `x > n`.
    pub fn place<R: Rng + ?Sized>(&mut self, n: usize, x: usize, placement: &mut R) {
        self.n = n;
        words::floyd(&mut self.truth, n, x, placement);
        self.liars.clear();
    }

    /// Recruits `count` liars (at most every idle node) uniformly among
    /// the nodes the truth leaves idle: a truly positive node has no
    /// need to lie.
    ///
    /// The draws are Floyd's over the idle nodes' ranks — those of
    /// `random_positive_set(idle, count.min(idle), rng)` — and rank `r`
    /// maps to the `r`-th idle node in id order, so no idle list is
    /// built.
    pub fn recruit<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        let positives: u32 = self.truth.iter().map(|w| w.count_ones()).sum();
        let idle = self.n - positives as usize;
        words::floyd(&mut self.picks, idle, count.min(idle), rng);
        words::reset(&mut self.liars, self.n);
        let mut rank = 0u32;
        for i in 0..self.n {
            if !words::contains(&self.truth, NodeId(i as u32)) {
                if words::contains(&self.picks, NodeId(rank)) {
                    words::insert(&mut self.liars, i);
                }
                rank += 1;
            }
        }
    }

    /// The ground-truth positive set's words.
    pub fn truth(&self) -> &[u64] {
        &self.truth
    }

    /// The liar set's words; empty until [`recruit`](Self::recruit).
    pub fn liars(&self) -> &[u64] {
        &self.liars
    }

    /// The ground truth as a `Vec<bool>` indexed by node id.
    pub fn truth_bools(&self) -> Vec<bool> {
        words::to_bools(&self.truth, self.n)
    }

    /// Gives up the truth and liar words, for a channel that owns them.
    pub fn into_words(self) -> (Vec<u64>, Vec<u64>) {
        (self.truth, self.liars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::random_positive_set;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn recruit_matches_floyd_over_the_idle_list() {
        let mut arena = ChannelArena::new();
        for (seed, (n, x, count)) in [
            (10, 3, 4),
            (64, 20, 44),
            (70, 0, 5),
            (9, 9, 2),
            (130, 60, 0),
        ]
        .into_iter()
        .enumerate()
        {
            let seed = seed as u64;
            arena.place(n, x, &mut SmallRng::seed_from_u64(seed));
            let truth = arena.truth_bools();
            let mut now = SmallRng::seed_from_u64(seed + 100);
            arena.recruit(count, &mut now);

            let idle: Vec<usize> = (0..n).filter(|&i| !truth[i]).collect();
            let mut before = SmallRng::seed_from_u64(seed + 100);
            let picks = random_positive_set(idle.len(), count.min(idle.len()), &mut before);
            let mut expected = vec![false; n];
            for p in picks {
                expected[idle[p.index()]] = true;
            }
            assert_eq!(words::to_bools(arena.liars(), n), expected, "n={n} x={x}");
            assert_eq!(now.next_u64(), before.next_u64(), "n={n} x={x}: RNG state");
        }
    }

    #[test]
    fn refilling_clears_the_previous_job() {
        let mut arena = ChannelArena::new();
        arena.place(128, 100, &mut SmallRng::seed_from_u64(1));
        arena.recruit(20, &mut SmallRng::seed_from_u64(2));
        arena.place(8, 2, &mut SmallRng::seed_from_u64(3));
        assert_eq!(arena.truth_bools().iter().filter(|&&p| p).count(), 2);
        assert!(arena.liars().is_empty());
        assert_eq!(arena.truth().len(), 1);
    }
}
