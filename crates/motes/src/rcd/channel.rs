//! Adapter exposing the RCD stack through `tcast`'s
//! [`GroupQueryChannel`] trait.
//!
//! Participant `i` of the stack maps to `NodeId(i)`; the initiator is not a
//! participant. With this adapter, every threshold-querying algorithm from
//! the core crate executes over the full PHY — radio losses, HACK
//! superposition, capture and all.

use tcast::channel::PairedGroupQueryChannel;
use tcast::{CaptureModel, CollisionModel, GroupQueryChannel, NodeId, Observation};

use super::stack::{RcdOutcome, RcdStack};

/// Which RCD primitive backs the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// HACK-based, 1+ semantics, no false positives.
    Backcast,
    /// CCA-energy based, 2+ semantics via the capture effect.
    Pollcast,
}

/// A [`GroupQueryChannel`] backed by a full [`RcdStack`].
#[derive(Debug)]
pub struct RcdChannel {
    stack: RcdStack,
    primitive: Primitive,
    queries: u64,
    group_buf: Vec<usize>,
}

impl RcdChannel {
    /// Wraps a stack with the chosen primitive.
    pub fn new(stack: RcdStack, primitive: Primitive) -> Self {
        Self {
            stack,
            primitive,
            queries: 0,
            group_buf: Vec::new(),
        }
    }

    /// Access to the underlying stack (statistics, ground truth, time).
    pub fn stack(&self) -> &RcdStack {
        &self.stack
    }

    /// Mutable access (predicate reconfiguration between runs).
    pub(crate) fn stack_mut(&mut self) -> &mut RcdStack {
        &mut self.stack
    }
}

impl GroupQueryChannel for RcdChannel {
    fn query(&mut self, members: &[NodeId]) -> Observation {
        self.queries += 1;
        self.group_buf.clear();
        self.group_buf.extend(members.iter().map(|m| m.index()));
        let outcome = match self.primitive {
            Primitive::Backcast => self.stack.backcast(&self.group_buf),
            Primitive::Pollcast => self.stack.pollcast(&self.group_buf),
        };
        match outcome {
            RcdOutcome::Silent => Observation::Silent,
            RcdOutcome::NonEmpty => Observation::Activity,
            RcdOutcome::Decoded(p) => match self.primitive {
                // Backcast cannot identify nodes; fold to activity.
                Primitive::Backcast => Observation::Activity,
                Primitive::Pollcast => Observation::Captured(NodeId(p as u32)),
            },
        }
    }

    fn model(&self) -> CollisionModel {
        match self.primitive {
            Primitive::Backcast => CollisionModel::OnePlus,
            // Capture probabilities are produced by the PHY itself; the
            // nominal model only matters for evidence lower bounds.
            Primitive::Pollcast => CollisionModel::TwoPlus(CaptureModel::Never),
        }
    }

    fn queries_issued(&self) -> u64 {
        self.queries
    }
}

impl PairedGroupQueryChannel for RcdChannel {
    /// Backcast pairs ride the CC2420's two hardware address recognizers
    /// (one announce for both groups); pollcast has no pairing support in
    /// hardware and falls back to two exchanges.
    fn query_pair(&mut self, a: &[NodeId], b: &[NodeId]) -> (Observation, Observation) {
        match self.primitive {
            Primitive::Backcast => {
                self.queries += 2;
                let group_a: Vec<usize> = a.iter().map(|m| m.index()).collect();
                let group_b: Vec<usize> = b.iter().map(|m| m.index()).collect();
                let (oa, ob) = self.stack.backcast_pair(&group_a, &group_b);
                let map = |o: RcdOutcome| match o {
                    RcdOutcome::Silent => Observation::Silent,
                    _ => Observation::Activity,
                };
                (map(oa), map(ob))
            }
            Primitive::Pollcast => (self.query(a), self.query(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcd::RcdConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tcast::{population, ThresholdQuerier, TwoTBins};

    fn channel(participants: usize, positives: &[usize], primitive: Primitive) -> RcdChannel {
        let mut stack = RcdStack::new(participants, RcdConfig::lossless(), 42);
        let mut pred = vec![false; participants];
        for &p in positives {
            pred[p] = true;
        }
        stack.set_predicate(&pred);
        RcdChannel::new(stack, primitive)
    }

    #[test]
    fn backcast_channel_observations() {
        let mut ch = channel(8, &[3], Primitive::Backcast);
        assert_eq!(ch.query(&[NodeId(0), NodeId(1)]), Observation::Silent);
        assert_eq!(ch.query(&[NodeId(2), NodeId(3)]), Observation::Activity);
        assert_eq!(ch.queries_issued(), 2);
        assert_eq!(ch.model(), CollisionModel::OnePlus);
    }

    #[test]
    fn pollcast_channel_captures_single_replier() {
        let mut ch = channel(8, &[3], Primitive::Pollcast);
        assert_eq!(
            ch.query(&[NodeId(2), NodeId(3), NodeId(4)]),
            Observation::Captured(NodeId(3))
        );
    }

    #[test]
    fn twotbins_runs_over_the_full_phy() {
        // End-to-end: the unmodified core algorithm over lossless radio.
        for &(x, t, expect) in &[(6usize, 4usize, true), (2, 4, false), (0, 2, false)] {
            let positives: Vec<usize> = (0..x).collect();
            let mut ch = channel(12, &positives, Primitive::Backcast);
            let mut rng = SmallRng::seed_from_u64(7);
            let report = TwoTBins.run(&population(12), t, &mut ch, &mut rng);
            assert_eq!(report.answer, expect, "x={x} t={t}");
            assert_eq!(report.queries, ch.queries_issued());
        }
    }

    #[test]
    fn paired_backcast_session_is_exact_and_faster() {
        use tcast::engine::{drive, ChannelMut};
        use tcast::ExecutionProfile;
        let positives: Vec<usize> = (0..6).collect();
        for &(t, expect) in &[(4usize, true), (8, false)] {
            // Paired session.
            let mut ch = channel(12, &positives, Primitive::Backcast);
            let mut rng = SmallRng::seed_from_u64(5);
            let report = drive(
                &population(12),
                t,
                ChannelMut::paired(&mut ch),
                &mut rng,
                ExecutionProfile::new(),
                |s, _| 2 * s.threshold(),
            );
            assert_eq!(report.answer, expect, "t={t}");
            let paired_elapsed = ch.stack().stats.elapsed;
            let paired_queries = report.queries;

            // Sequential session with identical seeds.
            let mut ch = channel(12, &positives, Primitive::Backcast);
            let mut rng = SmallRng::seed_from_u64(5);
            let report = TwoTBins.run(&population(12), t, &mut ch, &mut rng);
            assert_eq!(report.answer, expect);
            let seq_elapsed = ch.stack().stats.elapsed;

            // Same airwork up to one extra query, strictly less time.
            assert!(paired_queries <= report.queries + 1);
            assert!(
                paired_elapsed < seq_elapsed,
                "t={t}: paired {paired_elapsed} vs sequential {seq_elapsed}"
            );
        }
    }

    #[test]
    fn pollcast_twotbins_confirms_by_capture() {
        let positives: Vec<usize> = (0..6).collect();
        let mut ch = channel(12, &positives, Primitive::Pollcast);
        let mut rng = SmallRng::seed_from_u64(9);
        let report = TwoTBins.run(&population(12), 4, &mut ch, &mut rng);
        assert!(report.answer);
    }
}
