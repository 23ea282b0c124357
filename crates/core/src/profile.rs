//! [`ExecutionProfile`]: the one builder bundling every execution knob.
//!
//! A single `Copy` builder accepted by [`crate::engine::drive`],
//! [`crate::BatchRunner`], [`crate::ThresholdQuerier::run_with_profile`],
//! and (in `tcast-service`) `QueryJob`.

use crate::engine::RunOptions;
use crate::retry::{DefensePolicy, RetryPolicy};

/// One bundle of execution knobs: verified-silence retries and adversary
/// defenses. It converts losslessly to and from [`RunOptions`].
///
/// ```
/// use tcast::{ExecutionProfile, RetryPolicy};
///
/// let profile = ExecutionProfile::new()
///     .with_retry(RetryPolicy::verified(2));
/// assert_eq!(profile.options().retry, RetryPolicy::verified(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutionProfile {
    /// Verified-silence policy (default: [`RetryPolicy::none`]).
    pub retry: RetryPolicy,
    /// Verdict-hardening policy (default: [`DefensePolicy::none`]).
    pub defense: DefensePolicy,
}

impl ExecutionProfile {
    /// The trusting profile: no retries, no defenses.
    pub fn new() -> Self {
        Self {
            retry: RetryPolicy::none(),
            defense: DefensePolicy::none(),
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
    }
}
