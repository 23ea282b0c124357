//! Event-driven full-stack baselines: CSMA contention and TDMA sequential
//! collection over the simulated PHY.
//!
//! These complement the slot-level abstract baselines in
//! `tcast::baselines`: here the contention is fought out frame by frame on
//! the medium — CCA samples, capture, fading losses, colliding votes — so
//! the baselines suffer exactly the reliability problems the paper
//! attributes to them (lost votes under contention, no certainty about
//! `x >= t`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::mac::{CsmaCa, CsmaCaConfig, CsmaStep, TdmaConfig, TdmaSchedule};
use crate::radio::{Frame, Medium, MediumConfig, RadioDevice, ShortAddr, TxId, TURNAROUND};
use crate::sim::{EventQueue, SimDuration, SimTime};

/// Deployment and protocol parameters for the full-stack baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Number of participant motes (the initiator is extra).
    pub participants: usize,
    /// PHY parameters.
    pub medium: MediumConfig,
    /// Deployment radius (m).
    pub radius_m: f64,
    /// CSMA-CA parameters for the contention baseline.
    pub csma: CsmaCaConfig,
    /// Initiator silence timeout closing a CSMA collection.
    pub quiet_window: SimDuration,
    /// Retry delay after a CSMA channel-access failure.
    pub retry_delay: SimDuration,
    /// TDMA parameters for the sequential baseline.
    pub tdma: TdmaConfig,
}

impl NetworkConfig {
    /// Lossless-PHY configuration for `n` participants.
    pub fn lossless(participants: usize) -> Self {
        Self {
            participants,
            medium: MediumConfig::lossless(),
            radius_m: 8.0,
            csma: CsmaCaConfig::default(),
            quiet_window: SimDuration::millis(12),
            retry_delay: SimDuration::millis(2),
            tdma: TdmaConfig::default(),
        }
    }
}

/// Outcome of one full-stack collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullStackReport {
    /// The initiator's verdict (`x >= t` as far as it can tell).
    pub answer: bool,
    /// Ground truth for error accounting.
    pub truth: bool,
    /// Wall-clock (simulated) duration of the collection.
    pub elapsed: SimDuration,
    /// Distinct votes the initiator received.
    pub votes_received: u32,
    /// Vote frames transmitted (retries included).
    pub frames_sent: u64,
}

/// A deployed network of motes executing baseline collections.
#[derive(Debug)]
pub struct MoteNetwork {
    cfg: NetworkConfig,
    medium: Medium,
    devices: Vec<RadioDevice>,
    predicate: Vec<bool>,
    rng: SmallRng,
    seq: u8,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A contender's backoff timer expired (CCA is sampled now).
    BackoffDone { node: usize },
    /// A vote frame left the air.
    TxEnd { node: usize, tx: TxId },
    /// A failed contender retries its whole attempt.
    Retry { node: usize },
}

impl MoteNetwork {
    /// Deploys the network (initiator at the origin, participants in a
    /// disc).
    pub fn new(cfg: NetworkConfig, seed: u64) -> Self {
        let n = cfg.participants + 1;
        Self {
            cfg,
            medium: Medium::single_hop(n, cfg.radius_m, cfg.medium, seed),
            devices: (0..n)
                .map(|i| RadioDevice::new(ShortAddr(i as u16)))
                .collect(),
            predicate: vec![false; cfg.participants],
            rng: SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e),
            seq: 0,
        }
    }

    /// Sets the ground-truth predicate.
    pub fn set_predicate(&mut self, positive: &[bool]) {
        assert_eq!(positive.len(), self.predicate.len());
        self.predicate.copy_from_slice(positive);
    }

    /// Marks exactly `x` random participants positive.
    pub fn set_random_positives(&mut self, x: usize) {
        let n = self.predicate.len();
        assert!(x <= n);
        self.predicate.fill(false);
        for j in (n - x)..n {
            let k = self.rng.random_range(0..=j);
            if self.predicate[k] {
                self.predicate[j] = true;
            } else {
                self.predicate[k] = true;
            }
        }
    }

    fn truth(&self, t: usize) -> bool {
        self.predicate.iter().filter(|&&p| p).count() >= t
    }

    fn vote_frame(&mut self, participant: usize) -> Frame {
        self.seq = self.seq.wrapping_add(1);
        Frame::data(
            ShortAddr((participant + 1) as u16),
            ShortAddr(0),
            self.seq,
            vec![participant as u8],
        )
    }

    /// Runs one CSMA feedback collection with threshold `t`.
    ///
    /// All positive participants contend (802.15.4 unslotted CSMA-CA) to
    /// deliver one vote each. Physical realism that matters here: after a
    /// clear CCA the radio still needs the 192 µs rx/tx turnaround before
    /// energy appears on the air, so two contenders whose CCAs fall within
    /// that window collide — the vulnerability window that makes CSMA
    /// degrade under contention. Following the paper's model ("in case of
    /// a collision they use exponential backoff to calculate the next time
    /// slot"), a contender whose vote was not delivered re-enters backoff
    /// with an escalated exponent and tries again. The initiator stops at
    /// `t` votes or after `quiet_window` of silence.
    pub fn csma_collection(&mut self, t: usize) -> FullStackReport {
        let truth = self.truth(t);
        if t == 0 {
            return FullStackReport {
                answer: true,
                truth,
                elapsed: SimDuration::ZERO,
                votes_received: 0,
                frames_sent: 0,
            };
        }
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut macs: Vec<Option<CsmaCa>> = (0..self.predicate.len())
            .map(|p| self.predicate[p].then(|| CsmaCa::new(self.cfg.csma)))
            .collect();
        // Stagger attempt starts by a tiny app-level jitter.
        for (p, mac_slot) in macs.iter_mut().enumerate() {
            if let Some(mac) = mac_slot.as_mut() {
                match mac.request(&mut self.rng) {
                    CsmaStep::Backoff(d) => {
                        let jitter = SimDuration::micros(self.rng.random_range(0..64));
                        queue.schedule_in(d + jitter, Ev::BackoffDone { node: p });
                    }
                    _ => unreachable!("request always backs off first"),
                }
            }
        }

        let mut votes: Vec<bool> = vec![false; self.predicate.len()];
        let mut votes_received = 0u32;
        let mut frames_sent = 0u64;
        let mut last_activity = SimTime::ZERO;
        let mut decided_at: Option<SimTime> = None;

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::BackoffDone { node } => {
                    let busy = self.medium.cca_busy(node + 1, now);
                    let mac = macs[node].as_mut().expect("contender has a MAC");
                    match mac.timer_fired(busy, &mut self.rng) {
                        CsmaStep::Backoff(d) => {
                            queue.schedule_in(d, Ev::BackoffDone { node });
                        }
                        CsmaStep::Transmit => {
                            // Rx/tx turnaround: energy reaches the air 192 us
                            // after the clear CCA (the vulnerability window).
                            let frame = self.vote_frame(node);
                            let at = now + TURNAROUND;
                            let (tx, end) = self.medium.begin_tx(node + 1, &frame, at);
                            frames_sent += 1;
                            queue.schedule_at(end, Ev::TxEnd { node, tx });
                        }
                        CsmaStep::Failure => {
                            // App-level retry after a delay.
                            let jitter = SimDuration::micros(self.rng.random_range(0..1000));
                            queue.schedule_in(self.cfg.retry_delay + jitter, Ev::Retry { node });
                        }
                    }
                }
                Ev::Retry { node } => {
                    let mac = macs[node].as_mut().expect("contender has a MAC");
                    mac.reset();
                    if let CsmaStep::Backoff(d) = mac.request(&mut self.rng) {
                        queue.schedule_in(d, Ev::BackoffDone { node });
                    }
                }
                Ev::TxEnd { node, tx } => {
                    last_activity = now;
                    for r in self.medium.complete_tx(tx) {
                        if r.receiver == 0 && self.devices[0].accepts(&r.frame) && !votes[node] {
                            votes[node] = true;
                            votes_received += 1;
                            if votes_received as usize >= t && decided_at.is_none() {
                                decided_at = Some(now);
                            }
                        }
                    }
                    if decided_at.is_some() {
                        // Initiator announced completion; stop simulating
                        // the residual contention.
                        break;
                    }
                    if !votes[node] {
                        // Collision or loss: re-enter backoff with an
                        // escalated exponent (the paper's CSMA model).
                        let mac = macs[node].as_mut().expect("contender has a MAC");
                        if !mac.busy() {
                            mac.request(&mut self.rng);
                        }
                        match mac.timer_fired(true, &mut self.rng) {
                            CsmaStep::Backoff(d) => {
                                queue.schedule_in(d, Ev::BackoffDone { node });
                            }
                            CsmaStep::Failure => {
                                let jitter = SimDuration::micros(self.rng.random_range(0..1000));
                                queue
                                    .schedule_in(self.cfg.retry_delay + jitter, Ev::Retry { node });
                            }
                            CsmaStep::Transmit => unreachable!("busy CCA cannot transmit"),
                        }
                    }
                }
            }
        }

        match decided_at {
            Some(at) => FullStackReport {
                answer: true,
                truth,
                elapsed: at.since(SimTime::ZERO),
                votes_received,
                frames_sent,
            },
            None => FullStackReport {
                answer: false,
                truth,
                elapsed: last_activity.since(SimTime::ZERO) + self.cfg.quiet_window,
                votes_received,
                frames_sent,
            },
        }
    }

    /// Runs one TDMA sequential collection with threshold `t`.
    ///
    /// Every participant gets a dedicated slot in a random order; positive
    /// ones transmit their vote at their (clock-offset) slot start. The
    /// initiator terminates early in both directions.
    pub fn tdma_collection(&mut self, t: usize) -> FullStackReport {
        let truth = self.truth(t);
        let n = self.predicate.len();
        if t == 0 || n < t {
            return FullStackReport {
                answer: t == 0,
                truth,
                elapsed: SimDuration::ZERO,
                votes_received: 0,
                frames_sent: 0,
            };
        }
        let mut order: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut self.rng);
        let schedule = TdmaSchedule::new(self.cfg.tdma, SimTime::ZERO, order, n, &mut self.rng);

        // Begin all transmissions in chronological order so overlapping
        // slots (clock error) interfere correctly on the medium.
        let mut txs: Vec<(usize, SimTime, TxId, SimTime)> = Vec::new();
        let mut planned: Vec<(SimTime, usize)> = (0..n)
            .filter(|&p| self.predicate[p])
            .map(|p| (schedule.tx_time(p).expect("every node has a slot"), p))
            .collect();
        planned.sort();
        let mut frames_sent = 0u64;
        for (at, p) in planned {
            let frame = self.vote_frame(p);
            let (tx, end) = self.medium.begin_tx(p + 1, &frame, at);
            frames_sent += 1;
            txs.push((p, at, tx, end));
        }
        // Deliver in completion order.
        txs.sort_by_key(|&(_, _, _, end)| end);
        let mut received: Vec<(usize, SimTime)> = Vec::new();
        for (p, _, tx, end) in txs {
            for r in self.medium.complete_tx(tx) {
                if r.receiver == 0 && self.devices[0].accepts(&r.frame) {
                    received.push((p, end));
                }
            }
        }
        received.sort_by_key(|&(_, at)| at);

        // The initiator walks the slots, counting votes as they arrive.
        let mut seen = 0usize;
        let mut rx_iter = received.iter().peekable();
        for slot in 0..schedule.len() {
            let slot_end = schedule.slot_end(slot);
            while let Some(&&(_, at)) = rx_iter.peek() {
                if at <= slot_end {
                    seen += 1;
                    rx_iter.next();
                } else {
                    break;
                }
            }
            if seen >= t {
                return FullStackReport {
                    answer: true,
                    truth,
                    elapsed: slot_end.since(SimTime::ZERO),
                    votes_received: seen as u32,
                    frames_sent,
                };
            }
            let remaining = schedule.len() - slot - 1;
            if seen + remaining < t {
                return FullStackReport {
                    answer: false,
                    truth,
                    elapsed: slot_end.since(SimTime::ZERO),
                    votes_received: seen as u32,
                    frames_sent,
                };
            }
        }
        FullStackReport {
            answer: seen >= t,
            truth,
            elapsed: schedule.slot_end(schedule.len() - 1).since(SimTime::ZERO),
            votes_received: seen as u32,
            frames_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(participants: usize, positives: &[usize], seed: u64) -> MoteNetwork {
        let mut net = MoteNetwork::new(NetworkConfig::lossless(participants), seed);
        let mut pred = vec![false; participants];
        for &p in positives {
            pred[p] = true;
        }
        net.set_predicate(&pred);
        net
    }

    #[test]
    fn csma_reaches_threshold_on_lossless_phy() {
        let mut net = network(12, &[0, 1, 2, 3, 4, 5], 1);
        let r = net.csma_collection(4);
        assert!(r.answer);
        assert!(r.truth);
        assert!(r.votes_received >= 4);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn csma_below_threshold_times_out_false() {
        let mut net = network(12, &[3, 7], 2);
        let r = net.csma_collection(5);
        assert!(!r.answer);
        assert!(!r.truth);
        assert_eq!(r.votes_received, 2, "both votes still arrive");
    }

    #[test]
    fn csma_empty_network_costs_only_the_quiet_window() {
        let mut net = network(8, &[], 3);
        let r = net.csma_collection(2);
        assert!(!r.answer);
        assert_eq!(r.votes_received, 0);
        assert_eq!(r.elapsed, NetworkConfig::lossless(8).quiet_window);
    }

    #[test]
    fn csma_cost_grows_with_contention() {
        let avg = |x: usize, seed: u64| {
            let mut total = SimDuration::ZERO;
            for s in 0..10 {
                let positives: Vec<usize> = (0..x).collect();
                let mut net = network(64, &positives, seed + s);
                total = total + net.csma_collection(usize::MAX >> 1).elapsed;
            }
            total.as_micros() / 10
        };
        // Both cases pay the same quiet-window constant at the end; the
        // contention cost on top must grow clearly super-linearly.
        let few = avg(4, 10);
        let many = avg(48, 20);
        assert!(many > 2 * few, "48 contenders ({many}us) vs 4 ({few}us)");
    }

    #[test]
    fn tdma_exact_on_lossless_phy() {
        for &(x, t, expect) in &[(6usize, 4usize, true), (2, 4, false), (0, 1, false)] {
            let positives: Vec<usize> = (0..x).collect();
            let mut net = network(12, &positives, 4);
            let r = net.tdma_collection(t);
            assert_eq!(r.answer, expect, "x={x} t={t}");
            assert_eq!(r.answer, r.truth);
        }
    }

    #[test]
    fn tdma_early_true_terminates_before_schedule_end() {
        let positives: Vec<usize> = (0..12).collect();
        let mut net = network(12, &positives, 5);
        let r = net.tdma_collection(3);
        assert!(r.answer);
        let full = NetworkConfig::lossless(12).tdma.slot_len * 12;
        assert!(r.elapsed < full, "{} < {}", r.elapsed, full);
    }

    #[test]
    fn tdma_trivial_thresholds() {
        let mut net = network(4, &[0], 6);
        assert!(net.tdma_collection(0).answer);
        assert!(!net.tdma_collection(9).answer);
    }

    #[test]
    fn clock_chaos_can_lose_votes() {
        // Huge clock error makes slots collide; some votes are destroyed.
        let mut cfg = NetworkConfig::lossless(24);
        cfg.tdma.clock_sigma_ns = 3_000_000.0; // 3 ms vs 1 ms slots
        let mut lost_any = false;
        for seed in 0..20 {
            let mut net = MoteNetwork::new(cfg, seed);
            let pred = vec![true; 24];
            net.set_predicate(&pred);
            let r = net.tdma_collection(24);
            if (r.votes_received as usize) < 24 {
                lost_any = true;
            }
        }
        assert!(lost_any, "colliding slots should destroy some votes");
    }
}
