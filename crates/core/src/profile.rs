//! [`ExecutionProfile`]: the one builder bundling every execution knob.
//!
//! The one execution-policy type: a `Copy` builder accepted by
//! [`crate::engine::drive`], [`crate::Session::with_options`],
//! [`crate::BatchRunner`] and the [`crate::ThresholdQuerier`] methods.
//! `tcast-service`'s `QueryJob` builds one from its channel spec's retry
//! and defense policies.

use crate::retry::{DefensePolicy, RetryPolicy};

/// One bundle of execution knobs: verified-silence retries and adversary
/// defenses.
///
/// ```
/// use tcast::{ExecutionProfile, RetryPolicy};
///
/// let profile = ExecutionProfile::new()
///     .with_retry(RetryPolicy::verified(2));
/// assert_eq!(profile.retry, RetryPolicy::verified(2));
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
}

impl Default for ExecutionProfile {
    fn default() -> Self {
        Self::new()
    }
}
