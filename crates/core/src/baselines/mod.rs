//! The two traditional feedback-collection baselines the paper compares
//! against (Section IV-C): CSMA contention and sequential (TDMA) ordering.
//!
//! Both are *slot-level* models: their cost unit is one reply slot, plotted
//! on the same axis as one tcast query (one poll + simultaneous-reply
//! exchange), exactly as in the paper's figures. The full packet-level
//! versions over the simulated PHY live in `tcast-motes` (`network`); these abstract
//! models are what the per-`x` sweeps use.

mod csma;
mod sequential;

pub use csma::{csma_collect, CsmaConfig};
pub use sequential::{sequential_collect, sequential_collect_random};

/// Outcome of a baseline collection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineReport {
    /// Verdict: `true` iff the initiator concluded `x >= t`.
    pub answer: bool,
    /// Reply slots consumed until the verdict.
    pub slots: u64,
    /// Successfully received replies.
    pub received: u32,
    /// Collided slots (CSMA only; 0 for sequential).
    pub collisions: u64,
}
