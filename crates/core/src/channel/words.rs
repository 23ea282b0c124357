//! Node sets as `u64` words: bit `i % 64` of word `i / 64` is node `i`.
//!
//! The ground truth, the liar set and the oracle's view of both are one
//! fixed set of nodes per job, and every group query asks how many of a
//! bin's members fall in such a set. Holding the set as words makes that
//! a shift and a mask per member, and lets a worker reuse the same few
//! words for every job it runs (see [`super::ChannelArena`]). Bins stay
//! member slices: the engine's capture choice and kept order depend on
//! the members' order, which a bitset does not keep.

use rand::Rng;

use crate::types::NodeId;

/// Words needed for a set over nodes `0..n`.
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Clears `words` to the empty set over `0..n`, keeping its capacity.
pub(crate) fn reset(words: &mut Vec<u64>, n: usize) {
    words.clear();
    words.resize(words_for(n), 0);
}

/// `1` when `id` is in the set, else `0`; ids past the words are not.
#[inline]
pub(crate) fn bit(words: &[u64], id: NodeId) -> u64 {
    let i = id.index();
    words.get(i >> 6).map_or(0, |w| (w >> (i & 63)) & 1)
}

/// Whether `id` is in the set.
#[inline]
pub(crate) fn contains(words: &[u64], id: NodeId) -> bool {
    bit(words, id) != 0
}

/// Adds node `i` to the set; `i` must be below the words' capacity.
#[inline]
pub(crate) fn insert(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// How many of `members` are in the set: a branchless sum of bits.
#[inline]
pub(crate) fn count(words: &[u64], members: &[NodeId]) -> usize {
    members.iter().map(|&id| bit(words, id) as usize).sum()
}

/// Whether any of `members` is in the set: the bits of eight members
/// are ORed before each test, so a long silent bin costs one branch per
/// eight members.
#[inline]
pub(crate) fn any(words: &[u64], members: &[NodeId]) -> bool {
    let mut chunks = members.chunks_exact(8);
    for chunk in &mut chunks {
        if chunk.iter().fold(0, |acc, &id| acc | bit(words, id)) != 0 {
            return true;
        }
    }
    chunks.remainder().iter().any(|&id| contains(words, id))
}

/// The `i`-th of `members` (in `members` order) that is in the set.
#[inline]
pub(crate) fn nth(words: &[u64], members: &[NodeId], i: usize) -> NodeId {
    members
        .iter()
        .copied()
        .filter(|&id| contains(words, id))
        .nth(i)
        .expect("index drawn below the member count")
}

/// Fills `words` with a uniform `x`-subset of `0..n` chosen with Floyd's
/// algorithm: exactly `x` draws from `rng`, independent of `n`, which
/// keeps seed streams stable when sweeps vary the population size.
///
/// # Panics
///
/// Panics when `x > n`.
pub(crate) fn floyd<R: Rng + ?Sized>(words: &mut Vec<u64>, n: usize, x: usize, rng: &mut R) {
    assert!(x <= n, "cannot place {x} positives among {n} nodes");
    reset(words, n);
    for j in (n - x)..n {
        let k = rng.random_range(0..=j);
        if contains(words, NodeId(k as u32)) {
            insert(words, j);
        } else {
            insert(words, k);
        }
    }
}

/// The set over `0..n` as a `Vec<bool>` indexed by node id.
pub(crate) fn to_bools(words: &[u64], n: usize) -> Vec<bool> {
    (0..n).map(|i| contains(words, NodeId(i as u32))).collect()
}

/// The set's members in ascending id order.
pub(crate) fn to_ids(words: &[u64], n: usize) -> Vec<NodeId> {
    (0..n as u32)
        .map(NodeId)
        .filter(|&id| contains(words, id))
        .collect()
}

/// The words of a `Vec<bool>` membership bitmap.
pub(crate) fn from_bools(bools: &[bool]) -> Vec<u64> {
    let mut words = vec![0; words_for(bools.len())];
    for (i, &b) in bools.iter().enumerate() {
        if b {
            insert(&mut words, i);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::population;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn queries_agree_with_a_bool_bitmap() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [0, 1, 63, 64, 65, 200] {
            let bools: Vec<bool> = (0..n).map(|_| rng.random_bool(0.3)).collect();
            let words = from_bools(&bools);
            assert_eq!(to_bools(&words, n), bools);
            let members = population(n);
            let expected = bools.iter().filter(|&&b| b).count();
            assert_eq!(count(&words, &members), expected, "n={n}");
            assert_eq!(any(&words, &members), expected > 0, "n={n}");
            for i in 0..expected {
                assert!(bools[nth(&words, &members, i).index()]);
            }
            assert!(!contains(&words, NodeId(n as u32 + 64)), "past the words");
        }
    }

    #[test]
    fn any_finds_a_member_in_every_chunk_position() {
        let members = population(21);
        for i in 0..21 {
            let mut words = vec![0; 1];
            insert(&mut words, i);
            assert!(any(&words, &members), "member {i}");
            assert!(!any(&words, &members[..i]), "prefix before {i}");
        }
    }
}
