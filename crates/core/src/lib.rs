#![warn(missing_docs)]

//! # tcast — threshold querying over receiver-side collision detection
//!
//! A from-scratch reproduction of *"Singlehop Collaborative Feedback
//! Primitives for Threshold Querying in Wireless Sensor Networks"*
//! (Demirbas, Tasci, Gunes, Rudra; IPPS 2011).
//!
//! An initiator wants to know whether at least `t` of `N` single-hop
//! neighbours satisfy a predicate. The only primitive available is a
//! *group query*: ask a set of nodes at once; every positive member replies
//! simultaneously, and the initiator observes silence, undecodable
//! activity, or (under the 2+ radio model) one decoded reply. This crate
//! implements the paper's full algorithm family on top of that abstraction:
//!
//! | Algorithm | Paper section | Type |
//! |-----------|---------------|------|
//! | [`TwoTBins`] | IV-A | fixed `2t` bins per round |
//! | [`ExpIncrease`] | IV-B | doubling bin count (+2 dropped variants) |
//! | [`Abns`] | V | adaptive bin count from an `x` estimate |
//! | [`ProbAbns`] | V-D | one sampled probe to seed ABNS |
//! | [`OracleBins`] | V-C | ground-truth lower bound |
//! | [`ProbabilisticQuerier`] | VI | constant-cost bimodal decision |
//! | [`baselines`] | IV-C | CSMA and sequential (TDMA) collection |
//!
//! # Quickstart
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use tcast::channel::IdealChannel;
//! use tcast::{population, CollisionModel, ThresholdQuerier, TwoTBins};
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! // 128 nodes, 20 of them detect the intruder.
//! let mut channel = IdealChannel::with_random_positives(
//!     128, 20, CollisionModel::OnePlus, 7, &mut rng);
//! let report = TwoTBins.run(&population(128), 16, &mut channel, &mut rng);
//! assert!(report.answer, "20 detections >= threshold 16");
//! println!("decided in {} queries / {} rounds", report.queries, report.rounds);
//! ```
//!
//! The abstract channels in [`channel`] mirror the paper's simulator; the
//! same algorithms run unmodified over the full CC2420-level PHY through
//! the adapter in the `tcast-rcd` crate.

pub mod abns;
pub mod baselines;
pub mod batch;
pub mod channel;
pub mod codec;
pub mod counting;
pub mod engine;
pub mod exp_increase;
pub mod interval;
pub mod monitor;
pub mod oracle;
pub mod prob_abns;
pub mod probabilistic;
pub mod profile;
pub mod querier;
pub mod render;
pub mod retry;
pub mod twotbins;
pub mod types;

pub use abns::{Abns, InitialEstimate};
pub use batch::{BatchRunner, EngineScratch};
pub use channel::{
    random_positive_set, AdversaryConfig, AdversaryModel, ChannelSpec, GroupQueryChannel,
    IdealChannel, LossConfig, LossyChannel,
};
pub use codec::{fingerprint64, fingerprint64_extend, DecodeError, WireDecode, WireEncode};
pub use counting::{count_positives, CountReport};
pub use engine::{drive, ChannelMut, RoundOutcome, RoundStats, Session};
pub use exp_increase::{ExpIncrease, GrowthVariant};
pub use interval::{classify, interval_query, ClassReport, IntervalReport, IntervalVerdict};
pub use monitor::{MonitorConfig, ThresholdMonitor};
pub use oracle::OracleBins;
pub use prob_abns::ProbAbns;
pub use probabilistic::{ProbDecision, ProbabilisticConfig, ProbabilisticQuerier};
pub use profile::ExecutionProfile;
pub use querier::ThresholdQuerier;
pub use retry::{DefensePolicy, RetryPolicy};
pub use twotbins::TwoTBins;
pub use types::{
    population, CaptureModel, CollisionModel, NodeId, Observation, QueryReport, RoundTrace,
};

/// The blessed entrypoints, importable in one line.
///
/// Downstream code should prefer `use tcast::prelude::*;` over reaching
/// into individual modules: the prelude is the stable face of the API,
/// while module paths may shift as the crate grows. The service and net
/// crates layer their own preludes on top of this one
/// (`tcast_service::prelude`, `tcast_net::prelude`).
pub mod prelude {
    pub use crate::batch::{BatchRunner, EngineScratch};
    pub use crate::channel::{ChannelSpec, GroupQueryChannel, IdealChannel, LossyChannel};
    pub use crate::engine::drive;
    pub use crate::profile::ExecutionProfile;
    pub use crate::querier::ThresholdQuerier;
    pub use crate::retry::{DefensePolicy, RetryPolicy};
    pub use crate::types::{population, CaptureModel, CollisionModel, NodeId, QueryReport};
    pub use crate::{Abns, ExpIncrease, OracleBins, ProbAbns, ProbabilisticQuerier, TwoTBins};
}
