//! [`ExecutionProfile`]: the one builder bundling every execution knob.
//!
//! A single `Copy` builder accepted by [`crate::engine::drive`],
//! [`crate::BatchRunner`], [`crate::ThresholdQuerier::run_with_profile`],
//! and (in `tcast-service`) `QueryJob`.

use crate::engine::RunOptions;
use crate::retry::{DefensePolicy, RetryPolicy};

/// One bundle of execution knobs: verified-silence retries, adversary
/// defenses, and batch tuning.
///
/// The engine-facing half ([`retry`](Self::retry) and
/// [`defense`](Self::defense)) converts losslessly to and from
/// [`RunOptions`]; the batch half ([`batch_size`](Self::batch_size)) is
/// consumed by [`crate::BatchRunner`] and the service-side batch dequeue
/// and is ignored by single-query execution.
///
/// ```
/// use tcast::{ExecutionProfile, RetryPolicy};
///
/// let profile = ExecutionProfile::new()
///     .with_retry(RetryPolicy::verified(2))
///     .with_batch_size(16);
/// assert_eq!(profile.options().retry, RetryPolicy::verified(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutionProfile {
    /// Verified-silence policy (default: [`RetryPolicy::none`]).
    pub retry: RetryPolicy,
    /// Verdict-hardening policy (default: [`DefensePolicy::none`]).
    pub defense: DefensePolicy,
    /// Preferred number of jobs a service worker claims per queue lock
    /// (default: [`ExecutionProfile::DEFAULT_BATCH`]). Clamped to at
    /// least 1. Single-query entrypoints ignore it.
    pub batch_size: usize,
}

impl ExecutionProfile {
    /// Default batch size used by the service worker dequeue.
    pub const DEFAULT_BATCH: usize = 8;

    /// The trusting single-knob-free profile: no retries, no defenses,
    /// default batch size.
    pub fn new() -> Self {
        Self {
            retry: RetryPolicy::none(),
            defense: DefensePolicy::none(),
            batch_size: Self::DEFAULT_BATCH,
        }
    }

    /// Returns the profile with the given verified-silence policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the profile with the given verdict-hardening policy.
    #[must_use]
    pub fn with_defense(mut self, defense: DefensePolicy) -> Self {
        self.defense = defense;
        self
    }

    /// Returns the profile with the given worker batch size (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The engine-facing half of the profile as [`RunOptions`].
    pub fn options(&self) -> RunOptions {
        RunOptions {
            retry: self.retry,
            defense: self.defense,
        }
    }
}

impl Default for ExecutionProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl From<RunOptions> for ExecutionProfile {
    fn from(options: RunOptions) -> Self {
        Self::new()
            .with_retry(options.retry)
            .with_defense(options.defense)
    }
}

impl From<ExecutionProfile> for RunOptions {
    fn from(profile: ExecutionProfile) -> Self {
        profile.options()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_run_options() {
        let profile = ExecutionProfile::new()
            .with_retry(RetryPolicy::verified(3).with_budget(7))
            .with_defense(DefensePolicy::hardened());
        let options: RunOptions = profile.into();
        assert_eq!(options.retry, profile.retry);
        assert_eq!(options.defense, profile.defense);
        let back = ExecutionProfile::from(options);
        assert_eq!(back.retry, profile.retry);
        assert_eq!(back.defense, profile.defense);
        assert_eq!(back.batch_size, ExecutionProfile::DEFAULT_BATCH);
    }

    #[test]
    fn batch_size_is_clamped_to_one() {
        assert_eq!(ExecutionProfile::new().with_batch_size(0).batch_size, 1);
        assert_eq!(ExecutionProfile::new().with_batch_size(64).batch_size, 64);
    }
}
