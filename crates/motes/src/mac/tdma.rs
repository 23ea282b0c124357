//! TDMA sequential-ordering schedule (the paper's second baseline).
//!
//! The initiator assigns every participant a dedicated reply slot and
//! broadcasts the schedule. Nodes transmit at their slot start, offset by
//! their (imperfectly synchronized) local clocks; a guard time absorbs
//! moderate sync error. The paper notes this variant "favours sequential
//! ordering" since schedule distribution and clock sync are not charged —
//! we keep the same convention and expose the clock-error model so the
//! favourable assumption can be relaxed in experiments.

use rand::RngCore;
use tcast_stats::normal::sample_standard_normal;

use crate::sim::{SimDuration, SimTime};

/// TDMA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdmaConfig {
    /// Time reserved for one reply (frame airtime + turnaround).
    pub slot_len: SimDuration,
    /// Guard time at the head of each slot.
    pub guard: SimDuration,
    /// Standard deviation of each node's clock offset (ns); 0 = perfect
    /// synchronization.
    pub clock_sigma_ns: f64,
}

impl Default for TdmaConfig {
    fn default() -> Self {
        Self {
            // A short-payload reply (~19 bytes on air = 608 µs) plus
            // turnaround, rounded up.
            slot_len: SimDuration::micros(1000),
            guard: SimDuration::micros(100),
            clock_sigma_ns: 0.0,
        }
    }
}

/// A concrete reply schedule for one collection round.
#[derive(Debug, Clone)]
pub struct TdmaSchedule {
    cfg: TdmaConfig,
    start: SimTime,
    /// `order[slot] = node`; inverse map below.
    order: Vec<usize>,
    slot_of: Vec<Option<usize>>,
    /// Per-node clock offsets (signed ns), drawn once per schedule.
    clock_offset: Vec<i64>,
}

impl TdmaSchedule {
    /// Builds a schedule over the given participant order (slot i belongs
    /// to `order[i]`), starting at `start`. `node_count` bounds the node
    /// index space; nodes absent from `order` get no slot.
    pub fn new(
        cfg: TdmaConfig,
        start: SimTime,
        order: Vec<usize>,
        node_count: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        let mut slot_of = vec![None; node_count];
        for (slot, &node) in order.iter().enumerate() {
            assert!(node < node_count, "node {node} out of range");
            assert!(slot_of[node].is_none(), "node {node} scheduled twice");
            slot_of[node] = Some(slot);
        }
        let clock_offset = (0..node_count)
            .map(|_| {
                if cfg.clock_sigma_ns == 0.0 {
                    0
                } else {
                    (sample_standard_normal(rng) * cfg.clock_sigma_ns).round() as i64
                }
            })
            .collect();
        Self {
            cfg,
            start,
            order,
            slot_of,
            clock_offset,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The slot assigned to `node`, if any.
    pub fn slot_of(&self, node: usize) -> Option<usize> {
        self.slot_of.get(node).copied().flatten()
    }

    /// Nominal (initiator-clock) start of slot `slot`, guard included.
    pub fn slot_start(&self, slot: usize) -> SimTime {
        self.start + self.cfg.slot_len * slot as u64 + self.cfg.guard
    }

    /// Nominal end of slot `slot`.
    pub fn slot_end(&self, slot: usize) -> SimTime {
        self.start + self.cfg.slot_len * (slot as u64 + 1)
    }

    /// When `node` will actually transmit: its nominal slot start shifted
    /// by its local clock offset.
    pub fn tx_time(&self, node: usize) -> Option<SimTime> {
        let slot = self.slot_of(node)?;
        let nominal = self.slot_start(slot);
        let off = self.clock_offset[node];
        Some(if off >= 0 {
            nominal + SimDuration::nanos(off as u64)
        } else {
            let back = SimDuration::nanos(off.unsigned_abs());
            // Clamp at the schedule start rather than simulation time zero.
            if nominal.since(self.start) > back {
                SimTime::from_nanos(nominal.as_nanos() - back.as_nanos())
            } else {
                self.start
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sched(order: Vec<usize>, n: usize, sigma: f64) -> TdmaSchedule {
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = TdmaConfig {
            clock_sigma_ns: sigma,
            ..TdmaConfig::default()
        };
        TdmaSchedule::new(cfg, SimTime::ZERO, order, n, &mut rng)
    }

    /// Whether `node`'s actual transmission lands inside its own slot
    /// (false = the clock error defeated the guard time).
    fn tx_within_slot(s: &TdmaSchedule, node: usize) -> bool {
        match (s.slot_of(node), s.tx_time(node)) {
            (Some(slot), Some(t)) => {
                let lo = s.start + s.cfg.slot_len * slot as u64;
                t >= lo && t < s.slot_end(slot)
            }
            _ => false,
        }
    }

    #[test]
    fn slots_are_contiguous_and_ordered() {
        let s = sched(vec![2, 0, 1], 3, 0.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.order[0], 2);
        assert_eq!(s.slot_of(0), Some(1));
        assert_eq!(s.slot_of(1), Some(2));
        assert_eq!(
            s.slot_start(1).since(s.slot_end(0)),
            SimDuration::micros(100)
        );
        assert_eq!(s.slot_end(0), SimTime::ZERO + SimDuration::micros(1000));
    }

    #[test]
    fn unscheduled_node_has_no_slot() {
        let s = sched(vec![0, 2], 4, 0.0);
        assert_eq!(s.slot_of(1), None);
        assert_eq!(s.tx_time(1), None);
        assert_eq!(s.slot_of(3), None);
    }

    #[test]
    fn perfect_clocks_transmit_at_guard_boundary() {
        let s = sched(vec![0, 1], 2, 0.0);
        assert_eq!(s.tx_time(0), Some(SimTime::ZERO + SimDuration::micros(100)));
        assert_eq!(
            s.tx_time(1),
            Some(SimTime::ZERO + SimDuration::micros(1100))
        );
        assert!(tx_within_slot(&s, 0));
        assert!(tx_within_slot(&s, 1));
    }

    #[test]
    fn small_clock_error_stays_within_guard() {
        // sigma 10 µs against a 100 µs guard: virtually always in-slot.
        let s = sched((0..20).collect(), 20, 10_000.0);
        let in_slot = (0..20).filter(|&n| tx_within_slot(&s, n)).count();
        assert!(in_slot >= 19, "{in_slot}/20 in slot");
    }

    #[test]
    fn large_clock_error_defeats_the_guard() {
        // sigma 2 ms against 100 µs guard and 1 ms slots: chaos.
        let s = sched((0..50).collect(), 50, 2_000_000.0);
        let out_of_slot = (0..50).filter(|&n| !tx_within_slot(&s, n)).count();
        assert!(out_of_slot > 10, "{out_of_slot}/50 out of slot");
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn duplicate_slot_assignment_panics() {
        let _ = sched(vec![1, 1], 3, 0.0);
    }

    #[test]
    fn empty_schedule() {
        let s = sched(vec![], 3, 0.0);
        assert_eq!(s.len(), 0);
    }
}
