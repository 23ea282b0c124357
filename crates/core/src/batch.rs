//! Batch-native execution: pooled engine buffers and the [`BatchRunner`].
//!
//! `engine::drive` allocates a handful of vectors per query (candidate
//! set, scratch, trace, eliminated pool). At one query a time that is
//! noise; at service throughput it is the dominant steady-state cost
//! (`ROADMAP` item 5, `tcast-experiments trace` phase breakdown). This module pools those buffers in an [`EngineScratch`]
//! owned by a worker (or bench loop) and reuses them across queries:
//!
//! * [`BatchRunner::run`] — run any [`ThresholdQuerier`] over the pooled
//!   scratch; the only steady-state allocation left is the returned
//!   report's own trace, copied out at its exact length (or into a
//!   trace handed back by [`EngineScratch::recycle_trace`]).
//! * [`BatchRunner::run_policy_encoded`] — drive a bin policy and encode
//!   the report **directly into a caller-supplied wire buffer** in
//!   `tcast::codec` layout, skipping the report object entirely: zero
//!   steady-state heap allocations per query.
//!
//! Both paths execute the exact same engine loop as `drive` (same RNG
//! draw order), so results are bit-identical to serial execution — pinned
//! by `tests/batch_identity.rs`.

use rand::RngCore;

use crate::channel::{ChannelArena, GroupQueryChannel};
use crate::engine::{self, ChannelMut, RoundStats, Session};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, QueryReport, RoundTrace};

/// Reusable engine buffers for batch execution.
///
/// A scratch is plain capacity, never state: every buffer is cleared
/// before use, so runs through a scratch are bit-identical to runs
/// without one. One scratch serves one worker; it is `Send` but not
/// shared.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Candidate buffer (the session's `remaining` set).
    pub(crate) remaining: Vec<NodeId>,
    /// Per-round keep buffer.
    pub(crate) scratch: Vec<NodeId>,
    /// Round trace buffer; a report gets a copy.
    pub(crate) trace: Vec<RoundTrace>,
    /// A finished report's trace handed back by
    /// [`EngineScratch::recycle_trace`]; the next report's copy fills it.
    pub(crate) spare_trace: Vec<RoundTrace>,
    /// Silently-eliminated pool for verified-silence confirmation.
    pub(crate) eliminated: Vec<NodeId>,
    /// A group chosen outside the engine: ProbABNS's probe, then its
    /// survivors.
    pub(crate) group: Vec<NodeId>,
    /// Node-set words marking `group`'s members.
    pub(crate) marks: Vec<u64>,
    /// Pooled population buffer for [`EngineScratch::take_population`].
    population: Vec<NodeId>,
    /// The worker's channel arena, for [`EngineScratch::take_arena`].
    arena: ChannelArena,
}

impl EngineScratch {
    /// An empty scratch; buffers grow to steady state over the first few
    /// queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for populations of `n` nodes, so even the
    /// first query through it allocates nothing beyond its trace.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            remaining: Vec::with_capacity(n),
            scratch: Vec::with_capacity(n),
            trace: Vec::with_capacity(32),
            eliminated: Vec::with_capacity(n),
            population: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Takes the pooled population buffer filled with node ids `0..n`
    /// (the batch-path equivalent of [`crate::population`]). Return it
    /// with [`EngineScratch::restore_population`] after the query so the
    /// next one reuses its capacity.
    pub fn take_population(&mut self, n: usize) -> Vec<NodeId> {
        let mut buf = std::mem::take(&mut self.population);
        buf.clear();
        buf.extend((0..n).map(|i| NodeId(i as u32)));
        buf
    }

    /// Returns a buffer taken by [`EngineScratch::take_population`].
    pub fn restore_population(&mut self, buf: Vec<NodeId>) {
        self.population = buf;
    }

    /// Takes the pooled [`ChannelArena`], so a job's channel can borrow
    /// its words while the engine borrows the rest of this scratch.
    /// Return it with [`EngineScratch::restore_arena`] after the query.
    pub fn take_arena(&mut self) -> ChannelArena {
        std::mem::take(&mut self.arena)
    }

    /// Returns an arena taken by [`EngineScratch::take_arena`].
    pub fn restore_arena(&mut self, arena: ChannelArena) {
        self.arena = arena;
    }

    /// Hands back the round trace of a report nobody will read again, so
    /// the next report finished over this scratch copies its trace into
    /// that buffer instead of allocating one. A report then holds a
    /// trace with at least, not exactly, its length of capacity.
    pub fn recycle_trace(&mut self, trace: Vec<RoundTrace>) {
        self.spare_trace = trace;
    }
}

/// Drives many queries over one shared [`EngineScratch`].
///
/// One runner serves one worker thread: construct it once, then call
/// [`run`](Self::run) (or [`run_policy_encoded`](Self::run_policy_encoded))
/// per query. The runner's [`ExecutionProfile`] is the default for both;
/// per-query overrides go through [`run_with`](Self::run_with).
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use tcast::channel::IdealChannel;
/// use tcast::{population, BatchRunner, CollisionModel, ExecutionProfile, TwoTBins};
///
/// let mut runner = BatchRunner::new(ExecutionProfile::new());
/// let mut rng = SmallRng::seed_from_u64(42);
/// let mut channel = IdealChannel::with_random_positives(
///     128, 20, CollisionModel::OnePlus, 7, &mut rng);
/// let report = runner.run(&TwoTBins, &population(128), 16, &mut channel, &mut rng);
/// assert!(report.answer);
/// ```
#[derive(Debug, Default)]
pub struct BatchRunner {
    profile: ExecutionProfile,
    scratch: EngineScratch,
}

impl BatchRunner {
    /// A runner with the given default profile and an empty scratch.
    pub fn new(profile: ExecutionProfile) -> Self {
        Self {
            profile,
            scratch: EngineScratch::new(),
        }
    }

    /// A runner pre-sized for populations of `n` nodes.
    pub fn with_capacity(profile: ExecutionProfile, n: usize) -> Self {
        Self {
            profile,
            scratch: EngineScratch::with_capacity(n),
        }
    }

    /// The pooled buffers, for callers that thread the scratch through
    /// [`ThresholdQuerier::run_with_profile`] themselves.
    pub fn scratch(&mut self) -> &mut EngineScratch {
        &mut self.scratch
    }

    /// Runs one query through `querier` over the pooled scratch with the
    /// runner's default profile. Bit-identical to
    /// [`ThresholdQuerier::run_with_options`] with the same profile.
    pub fn run<Q: ThresholdQuerier + ?Sized>(
        &mut self,
        querier: &Q,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
    ) -> QueryReport {
        let profile = self.profile;
        self.run_with(profile, querier, nodes, t, channel, rng)
    }

    /// [`run`](Self::run) with a per-query profile override.
    pub fn run_with<Q: ThresholdQuerier + ?Sized>(
        &mut self,
        profile: ExecutionProfile,
        querier: &Q,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
    ) -> QueryReport {
        querier.run_with_profile(nodes, t, channel, rng, profile, &mut self.scratch)
    }

    /// Drives a bin-count policy and appends the finished report to `out`
    /// as `tcast::codec` wire bytes (exactly what `QueryReport::encode`
    /// would produce) without materializing a [`QueryReport`]. This is
    /// the zero-allocation steady path: once buffers reach capacity, a
    /// query allocates nothing. Returns the verdict.
    pub fn run_policy_encoded(
        &mut self,
        nodes: &[NodeId],
        t: usize,
        channel: ChannelMut<'_>,
        rng: &mut dyn RngCore,
        out: &mut Vec<u8>,
        policy: impl FnMut(&Session, Option<&RoundStats>) -> usize,
    ) -> bool {
        engine::drive_encoded(
            nodes,
            t,
            channel,
            rng,
            self.profile,
            &mut self.scratch,
            out,
            policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::codec::WireEncode;
    use crate::types::{population, CollisionModel};
    use crate::TwoTBins;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn channel(seed: u64) -> IdealChannel {
        let mut rng = SmallRng::seed_from_u64(seed);
        IdealChannel::with_random_positives(96, 12, CollisionModel::OnePlus, seed, &mut rng)
    }

    #[test]
    fn runner_matches_serial_execution() {
        for seed in 0..20u64 {
            let mut runner = BatchRunner::new(ExecutionProfile::new());
            let nodes = population(96);
            let mut ch_a = channel(seed);
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let batched = runner.run(&TwoTBins, &nodes, 8, &mut ch_a, &mut rng_a);

            let mut ch_b = channel(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let serial = TwoTBins.run(&nodes, 8, &mut ch_b, &mut rng_b);
            assert_eq!(batched, serial, "seed={seed}");
        }
    }

    #[test]
    fn encoded_path_matches_report_encode_bytes() {
        let mut runner = BatchRunner::new(ExecutionProfile::new());
        let nodes = population(96);
        let mut out = Vec::new();
        for seed in 0..20u64 {
            out.clear();
            let mut ch_a = channel(seed);
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let answer = runner.run_policy_encoded(
                &nodes,
                8,
                ChannelMut::single(&mut ch_a),
                &mut rng_a,
                &mut out,
                |s, _| 2 * s.threshold(),
            );

            let mut ch_b = channel(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let serial = TwoTBins.run(&nodes, 8, &mut ch_b, &mut rng_b);
            assert_eq!(answer, serial.answer, "seed={seed}");
            assert_eq!(out, serial.to_wire(), "seed={seed}");
        }
    }

    #[test]
    fn population_buffer_round_trips() {
        let mut scratch = EngineScratch::new();
        let buf = scratch.take_population(5);
        assert_eq!(buf, population(5));
        scratch.restore_population(buf);
        let buf = scratch.take_population(3);
        assert_eq!(buf, population(3));
    }
}
