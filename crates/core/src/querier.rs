//! The [`ThresholdQuerier`] trait unifying all tcast algorithms.

use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::GroupQueryChannel;
use crate::profile::ExecutionProfile;
use crate::types::{NodeId, QueryReport};

/// A threshold-querying strategy: decides whether at least `t` of `nodes`
/// satisfy the predicate, using only group queries on `channel`.
///
/// Implementations are stateless configuration objects; all per-session
/// state lives inside `run`, so a single instance can be reused across the
/// thousands of runs of a parameter sweep (including concurrently, from the
/// parallel sweep driver).
///
/// The one required method is [`run_with_profile`](Self::run_with_profile);
/// [`run`](Self::run) and [`run_with_options`](Self::run_with_options) are
/// wrappers that hand it a fresh [`EngineScratch`], so every execution
/// path — trusting, loss-verified, adversary-hardened, or batched — flows
/// through a single implementation. A scratch carries capacity, never
/// state, so a fresh one and a pooled one produce bit-identical reports.
pub trait ThresholdQuerier: Sync {
    /// Short identifier used in experiment output (e.g. `"2tBins"`).
    fn name(&self) -> &str;

    /// Runs one complete threshold-querying session with `profile`'s
    /// verified-silence retries (see the `retry` module) and adversary
    /// defenses (see [`crate::DefensePolicy`]), borrowing engine buffers
    /// from `scratch`. With [`ExecutionProfile::new`] this is the trusting
    /// ideal-channel configuration.
    ///
    /// Algorithms whose verdicts are probabilistic by design may ignore
    /// the retry and defense policies; they must say so in their
    /// documentation.
    fn run_with_profile(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        profile: ExecutionProfile,
        scratch: &mut EngineScratch,
    ) -> QueryReport;

    /// Runs one session under `profile` over a fresh scratch.
    fn run_with_options(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        profile: ExecutionProfile,
    ) -> QueryReport {
        self.run_with_profile(nodes, t, channel, rng, profile, &mut EngineScratch::new())
    }

    /// Runs one session trusting every observation (the ideal-channel
    /// configuration).
    fn run(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
    ) -> QueryReport {
        self.run_with_options(nodes, t, channel, rng, ExecutionProfile::new())
    }
}

impl<T: ThresholdQuerier + ?Sized> ThresholdQuerier for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn run_with_profile(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        profile: ExecutionProfile,
        scratch: &mut EngineScratch,
    ) -> QueryReport {
        (**self).run_with_profile(nodes, t, channel, rng, profile, scratch)
    }
}
