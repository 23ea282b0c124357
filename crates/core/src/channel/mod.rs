//! Abstract group-query channels.
//!
//! The tcast algorithms only interact with the network through one
//! operation: *query a group of nodes and observe silence / activity /
//! (in the 2+ model) a decoded reply*. [`GroupQueryChannel`] captures that
//! contract. Two families of implementations exist:
//!
//! * the abstract channels in this module ([`IdealChannel`],
//!   [`LossyChannel`]) — the direct analogue of the paper's simulator, used
//!   for Figures 1–3 and 5–7 and 9–10;
//! * the full-stack adapter in `tcast-motes` (`rcd::RcdChannel`), which realizes the
//!   same trait on top of backcast/pollcast over the simulated CC2420 PHY,
//!   used for Figure 4 and the error-rate table.
//!
//! The abstract channels hold their ground truth as `u64` node-set words
//! (`words`), either owned or borrowed from a worker's reused
//! [`ChannelArena`]; [`ChannelSpec::with_honest`] and
//! [`ChannelSpec::honest_boxed`] build a spec's honest channel. Whole
//! specs, adversary included, become channels only through
//! `tcast_adversary::{with_channel, build_with_truth, sample_with}`.

mod arena;
mod ideal;
mod lossy;
mod spec;
pub(crate) mod words;

pub use arena::ChannelArena;
pub use ideal::IdealChannel;
pub use lossy::{LossConfig, LossyChannel};
pub use spec::{random_positive_set, AdversaryConfig, AdversaryModel, ChannelSpec};

use crate::types::{CollisionModel, NodeId, Observation};

/// One group query against the network.
///
/// Implementations must be deterministic given their seed so experiments
/// are reproducible.
pub trait GroupQueryChannel {
    /// Queries the group `members`; every predicate-positive member replies
    /// simultaneously and the initiator observes the superposition.
    fn query(&mut self, members: &[NodeId]) -> Observation;

    /// The collision model the initiator assumes when interpreting
    /// observations.
    fn model(&self) -> CollisionModel;

    /// Number of queries issued so far (for cross-checking the algorithms'
    /// own accounting).
    fn queries_issued(&self) -> u64;
}

/// A channel that can answer two group queries in one exchange.
///
/// The CC2420 exposes two hardware address recognizers, which backcast can
/// use for "two concurrent backcasts" (Section IV-D): one announce frame
/// configures two ephemeral groups and the poller interrogates them back to
/// back, saving one announce and a turnaround per pair. Query-count
/// accounting is unchanged (a pair is two queries); only wall-clock time
/// shrinks, so this trait matters for the full-stack adapters.
///
/// Abstract channels implement it as two independent queries.
pub trait PairedGroupQueryChannel: GroupQueryChannel {
    /// Queries two groups in one exchange.
    fn query_pair(&mut self, a: &[NodeId], b: &[NodeId]) -> (Observation, Observation) {
        (self.query(a), self.query(b))
    }
}

impl<P: AsRef<[u64]>> PairedGroupQueryChannel for IdealChannel<P> {}
impl<P: AsRef<[u64]>> PairedGroupQueryChannel for LossyChannel<P> {}

/// Boxed channels forward the contract, so wrappers (e.g. the Byzantine
/// models in `tcast-adversary`) can layer over `Box<dyn
/// GroupQueryChannel + Send>` without unboxing.
impl<C: GroupQueryChannel + ?Sized> GroupQueryChannel for Box<C> {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        (**self).query(members)
    }

    fn model(&self) -> CollisionModel {
        (**self).model()
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
}

/// A borrowed channel forwards the contract too, so a wrapper can layer
/// over a `&mut dyn GroupQueryChannel` built on the stack.
impl<C: GroupQueryChannel + ?Sized> GroupQueryChannel for &mut C {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        (**self).query(members)
    }

    fn model(&self) -> CollisionModel {
        (**self).model()
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
}

/// Shared bookkeeping for channel implementations.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ChannelStats {
    pub queries: u64,
}

/// Validates an observation against a collision model; used by debug
/// assertions and property tests.
pub fn observation_valid(model: CollisionModel, obs: Observation) -> bool {
    !matches!(
        (model, obs),
        (CollisionModel::OnePlus, Observation::Captured(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CaptureModel;

    #[test]
    fn one_plus_never_captures() {
        assert!(!observation_valid(
            CollisionModel::OnePlus,
            Observation::Captured(NodeId(0))
        ));
        assert!(observation_valid(
            CollisionModel::OnePlus,
            Observation::Activity
        ));
        assert!(observation_valid(
            CollisionModel::TwoPlus(CaptureModel::Never),
            Observation::Captured(NodeId(0))
        ));
    }
}
