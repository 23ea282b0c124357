//! The RCD protocol stack: one initiator plus N participants over a shared
//! medium, executing pollcast/backcast exchanges phase by phase on a
//! discrete-event queue.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::radio::{
    Frame, Medium, MediumConfig, RadioDevice, ShortAddr, TxId, BROADCAST_ADDR, TURNAROUND,
};
use crate::sim::{EventQueue, SimDuration, SimTime};

/// Foreign traffic from a neighboring region (Section III-B): independent
/// transmitters outside the deployment that the initiator cannot silence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceSpec {
    /// Number of interfering transmitters.
    pub sources: usize,
    /// Their distance from the initiator (m).
    pub distance_m: f64,
    /// Fraction of time each source spends transmitting, in `[0, 1)`.
    pub duty_cycle: f64,
    /// Payload length of each interfering burst (bytes).
    pub frame_len: usize,
}

/// Stack configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcdConfig {
    /// PHY parameters.
    pub medium: MediumConfig,
    /// Deployment radius around the initiator (m).
    pub radius_m: f64,
    /// Idle gap between consecutive exchanges.
    pub inter_query_gap: SimDuration,
    /// Optional foreign traffic from a neighboring region.
    pub interference: Option<InterferenceSpec>,
}

impl Default for RcdConfig {
    fn default() -> Self {
        Self {
            medium: MediumConfig::default(),
            radius_m: 8.0,
            inter_query_gap: SimDuration::micros(500),
            interference: None,
        }
    }
}

impl RcdConfig {
    /// A configuration with a perfect PHY (no shadowing/fading): exchanges
    /// never lose frames. Used to validate protocol logic separately from
    /// radio noise.
    pub fn lossless() -> Self {
        Self {
            medium: MediumConfig::lossless(),
            ..Self::default()
        }
    }

    /// The "testbed" preset used for the Figure 4 / Section IV-D
    /// reproduction: the deployment sits near the edge of the link budget
    /// (mean SNR ≈ demod threshold + ~10 dB), so a lone HACK is
    /// occasionally lost to fading while superposed HACKs (+3 dB per
    /// doubling) almost never are — the paper's observed error mode.
    pub fn testbed() -> Self {
        Self {
            medium: MediumConfig {
                shadowing_sigma_db: 3.0,
                fading_sigma_db: 5.0,
                ..MediumConfig::default()
            },
            radius_m: 95.0,
            ..Self::default()
        }
    }
}

/// Result of one group query at the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcdOutcome {
    /// No activity / no HACK decoded.
    Silent,
    /// Activity detected but nothing decoded.
    NonEmpty,
    /// A single reply was decoded (capture): the participant index.
    Decoded(usize),
}

/// Ground-truth-aware accounting of every exchange, per positive-member
/// count (`by_k[k]` = queries on groups with exactly `k` positive members).
/// This is the data behind the Section IV-D error-rate discussion.
#[derive(Debug, Clone, Default)]
pub struct GroupQueryStats {
    /// Exchanges executed.
    pub queries: u64,
    /// Observed silent although the group had >= 1 positive member.
    pub false_negatives: u64,
    /// Observed non-empty although the group had no positive member.
    pub false_positives: u64,
    /// Queries / false negatives bucketed by the group's positive count.
    pub by_k: Vec<(u64, u64)>,
    /// Total simulated air/protocol time consumed.
    pub elapsed: SimDuration,
}

impl GroupQueryStats {
    fn record(&mut self, k: usize, outcome: RcdOutcome) {
        self.queries += 1;
        if self.by_k.len() <= k {
            self.by_k.resize(k + 1, (0, 0));
        }
        self.by_k[k].0 += 1;
        match outcome {
            RcdOutcome::Silent if k > 0 => {
                self.false_negatives += 1;
                self.by_k[k].1 += 1;
            }
            RcdOutcome::NonEmpty | RcdOutcome::Decoded(_) if k == 0 => {
                self.false_positives += 1;
            }
            _ => {}
        }
    }
}

/// Events inside one exchange.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // phases *are* all frame-end instants
enum Phase {
    AnnounceEnd(TxId),
    PollEnd(TxId),
    HackWindowEnd(Vec<TxId>),
    RepliesEnd(Vec<(usize, TxId)>),
}

/// One initiator plus `participants` nodes sharing a medium.
///
/// Medium node index 0 is the initiator; participant `i` is medium node
/// `i + 1`. All public APIs use participant indices.
#[derive(Debug)]
pub struct RcdStack {
    medium: Medium,
    devices: Vec<RadioDevice>,
    predicate: Vec<bool>,
    now: SimTime,
    seq: u8,
    next_ephemeral: u16,
    rng: SmallRng,
    interference: Option<InterferenceSpec>,
    /// Exchange statistics with ground-truth error accounting.
    pub stats: GroupQueryStats,
}

impl RcdStack {
    /// Deploys `participants` nodes uniformly in a disc around the
    /// initiator.
    pub fn new(participants: usize, cfg: RcdConfig, seed: u64) -> Self {
        let n = participants + 1;
        let medium = match cfg.interference {
            Some(spec) => Medium::single_hop_with_interferers(
                n,
                cfg.radius_m,
                spec.sources,
                spec.distance_m,
                cfg.medium,
                seed,
            ),
            None => Medium::single_hop(n, cfg.radius_m, cfg.medium, seed),
        };
        let devices = (0..n)
            .map(|i| RadioDevice::new(ShortAddr(i as u16)))
            .collect();
        Self {
            medium,
            devices,
            predicate: vec![false; participants],
            now: SimTime::ZERO,
            seq: 0,
            next_ephemeral: 0x8000,
            rng: SmallRng::seed_from_u64(seed ^ 0xdead_beef),
            interference: cfg.interference,
            stats: GroupQueryStats::default(),
        }
    }

    /// Injects neighboring-region bursts over `[from, from + window)`.
    /// Returns the transmission handles; they must be completed (and
    /// discarded) once the exchange's own frames are resolved.
    fn inject_interference(&mut self, from: SimTime, window: SimDuration) -> Vec<TxId> {
        let Some(spec) = self.interference else {
            return Vec::new();
        };
        if spec.duty_cycle <= 0.0 || spec.sources == 0 {
            return Vec::new();
        }
        let base = self.predicate.len() + 1;
        let burst = Frame::data(
            ShortAddr(0x7FFF),
            ShortAddr(0x7FFE),
            0,
            vec![0x55; spec.frame_len],
        );
        let burst_len = burst.airtime();
        // Mean idle gap chosen so the long-run duty cycle matches.
        let mean_gap_ns =
            burst_len.as_nanos() as f64 * (1.0 - spec.duty_cycle) / spec.duty_cycle.max(1e-6);
        let end = from + window;
        let mut txs = Vec::new();
        for src in 0..spec.sources {
            // Random phase so sources are uncorrelated.
            let mut t = from
                + SimDuration::nanos(
                    (self.rng.random::<f64>() * (burst_len.as_nanos() as f64 + mean_gap_ns)) as u64,
                );
            while t < end {
                let (tx, tx_end) = self.medium.begin_tx(base + src, &burst, t);
                txs.push(tx);
                let gap = -self.rng.random::<f64>().max(1e-12).ln() * mean_gap_ns;
                t = tx_end + SimDuration::nanos(gap as u64);
            }
        }
        txs
    }

    /// Number of participants (excludes the initiator).
    pub(crate) fn participants(&self) -> usize {
        self.predicate.len()
    }

    /// Sets the ground-truth predicate assignment.
    pub fn set_predicate(&mut self, positive: &[bool]) {
        assert_eq!(
            positive.len(),
            self.predicate.len(),
            "predicate length mismatch"
        );
        self.predicate.copy_from_slice(positive);
    }

    /// Marks exactly `x` random participants positive.
    pub fn set_random_positives(&mut self, x: usize) {
        let n = self.predicate.len();
        assert!(x <= n, "x={x} > participants={n}");
        self.predicate.fill(false);
        // Floyd's sampling for a uniform x-subset.
        for j in (n - x)..n {
            let k = self.rng.random_range(0..=j);
            if self.predicate[k] {
                self.predicate[j] = true;
            } else {
                self.predicate[k] = true;
            }
        }
    }

    /// Ground truth: number of positive members in a participant group.
    pub(crate) fn count_positive(&self, group: &[usize]) -> usize {
        group.iter().filter(|&&p| self.predicate[p]).count()
    }

    fn fresh_seq(&mut self) -> u8 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    fn fresh_ephemeral(&mut self) -> ShortAddr {
        // Cycle through 0x8000..=0xFFFE: the high half of the address space,
        // away from the permanent per-node addresses, without the broadcast
        // address, which every radio accepts and none acknowledges.
        self.next_ephemeral = 0x8000 | (((self.next_ephemeral & 0x7FFF) + 1) % 0x7FFF);
        ShortAddr(self.next_ephemeral)
    }

    /// Encodes a participant group as `ephemeral id (2B) || bitmap`.
    fn announce_payload(&self, ephemeral: ShortAddr, group: &[usize]) -> Vec<u8> {
        let n = self.participants();
        let mut payload = vec![0u8; 2 + n.div_ceil(8)];
        payload[..2].copy_from_slice(&ephemeral.0.to_le_bytes());
        for &p in group {
            assert!(p < n, "participant {p} out of range");
            payload[2 + p / 8] |= 1 << (p % 8);
        }
        payload
    }

    /// Executes one **backcast** exchange on `group` (participant indices).
    ///
    /// Three phases: announce (broadcast: ephemeral id + group bitmap),
    /// poll (unicast to the ephemeral id with the AR flag), HACK window.
    /// Returns `Silent` or `NonEmpty` — backcast cannot decode identities.
    pub fn backcast(&mut self, group: &[usize]) -> RcdOutcome {
        let ephemeral = self.fresh_ephemeral();
        let announce_seq = self.fresh_seq();
        let poll_seq = self.fresh_seq();
        let truth_k = self.count_positive(group);

        let mut queue: EventQueue<Phase> = EventQueue::new();
        queue.advance_to(self.now);
        let foreign = self.inject_interference(self.now, SimDuration::millis(4));

        // Phase 1: announce.
        let announce = Frame::data(
            ShortAddr(0),
            BROADCAST_ADDR,
            announce_seq,
            self.announce_payload(ephemeral, group),
        );
        let (a_tx, a_end) = self.medium.begin_tx(0, &announce, queue.now());
        queue.schedule_at(a_end, Phase::AnnounceEnd(a_tx));

        let mut outcome = RcdOutcome::Silent;
        while let Some((now, phase)) = queue.pop() {
            match phase {
                Phase::AnnounceEnd(tx) => {
                    // Participants that hear the announce and hold the
                    // predicate program the ephemeral id.
                    let receptions = self.medium.complete_tx(tx);
                    for r in receptions {
                        let node = r.receiver;
                        if node == 0 || node >= self.devices.len() {
                            continue; // initiator or interferer
                        }
                        let p = node - 1;
                        if self.devices[node].accepts(&r.frame) && self.predicate[p] {
                            let in_group = r.frame.payload[2 + p / 8] & (1 << (p % 8)) != 0;
                            if in_group {
                                self.devices[node].set_short_addr(ephemeral);
                            }
                        }
                    }
                    // Phase 2: poll the ephemeral address after turnaround.
                    let poll =
                        Frame::data_with_ack_request(ShortAddr(0), ephemeral, poll_seq, Vec::new());
                    let (p_tx, p_end) = self.medium.begin_tx(0, &poll, now + TURNAROUND);
                    queue.schedule_at(p_end, Phase::PollEnd(p_tx));
                }
                Phase::PollEnd(tx) => {
                    // Matching radios HACK simultaneously after turnaround.
                    let receptions = self.medium.complete_tx(tx);
                    let hack_at = now + TURNAROUND;
                    let mut hacks = Vec::new();
                    let mut hack_end = hack_at;
                    for r in receptions {
                        let node = r.receiver;
                        if node == 0
                            || node >= self.devices.len()
                            || !self.devices[node].accepts(&r.frame)
                        {
                            continue;
                        }
                        if let Some(hack) = self.devices[node].should_hack(&r.frame) {
                            let (h_tx, h_end) =
                                self.medium.begin_tx_superposable(node, &hack, hack_at);
                            hacks.push(h_tx);
                            hack_end = h_end;
                        }
                    }
                    if hacks.is_empty() {
                        // Nothing on the air: the window closes silent.
                        queue.schedule_at(
                            hack_at + Frame::hack(poll_seq).airtime(),
                            Phase::HackWindowEnd(Vec::new()),
                        );
                    } else {
                        queue.schedule_at(hack_end, Phase::HackWindowEnd(hacks));
                    }
                }
                Phase::HackWindowEnd(hacks) => {
                    for h in hacks {
                        for r in self.medium.complete_tx(h) {
                            if r.receiver == 0
                                && r.frame == Frame::hack(poll_seq)
                                && self.devices[0].accepts(&r.frame)
                            {
                                outcome = RcdOutcome::NonEmpty;
                            }
                        }
                    }
                }
                Phase::RepliesEnd(_) => unreachable!("pollcast phase in backcast"),
            }
        }

        // Foreign bursts are over too (nobody processes them).
        for tx in foreign {
            let _ = self.medium.complete_tx(tx);
        }
        // Exchange over: restore permanent addresses.
        for (node, dev) in self.devices.iter_mut().enumerate().skip(1) {
            dev.set_short_addr(ShortAddr(node as u16));
            dev.set_alt_addr(None);
        }
        let end = queue.now() + SimDuration::micros(500);
        self.stats.elapsed = self.stats.elapsed + end.since(self.now);
        self.now = end;
        self.stats.record(truth_k, outcome);
        outcome
    }

    /// Executes a **paired backcast**: two groups in one exchange, using
    /// both CC2420 hardware address recognizers (the paper: "CC2420 radio
    /// supports two hardware addresses ... enabling two concurrent
    /// backcasts at most").
    ///
    /// One announce frame carries both ephemeral identifiers and both
    /// membership bitmaps; positive members of group A program their short
    /// address, positive members of group B the alternate recognizer; the
    /// initiator then polls the two ephemeral addresses back to back. This
    /// saves one announce plus a turnaround per pair of queries without
    /// changing query-count accounting.
    pub fn backcast_pair(
        &mut self,
        group_a: &[usize],
        group_b: &[usize],
    ) -> (RcdOutcome, RcdOutcome) {
        let eph_a = self.fresh_ephemeral();
        let eph_b = self.fresh_ephemeral();
        let announce_seq = self.fresh_seq();
        let (k_a, k_b) = (self.count_positive(group_a), self.count_positive(group_b));

        // Joint announce payload: (eph_a || bitmap_a) || (eph_b || bitmap_b).
        let pa = self.announce_payload(eph_a, group_a);
        let pb = self.announce_payload(eph_b, group_b);
        let half = pa.len();
        let mut payload = Vec::with_capacity(2 * half);
        payload.extend_from_slice(&pa);
        payload.extend_from_slice(&pb);

        let start = self.now;
        let foreign = self.inject_interference(start, SimDuration::millis(6));
        let announce = Frame::data(ShortAddr(0), BROADCAST_ADDR, announce_seq, payload);
        let (a_tx, a_end) = self.medium.begin_tx(0, &announce, start);
        for r in self.medium.complete_tx(a_tx) {
            let node = r.receiver;
            if node == 0 || node >= self.devices.len() {
                continue;
            }
            let p = node - 1;
            if !self.devices[node].accepts(&r.frame) || !self.predicate[p] {
                continue;
            }
            let in_a = r.frame.payload[2 + p / 8] & (1 << (p % 8)) != 0;
            let in_b = r.frame.payload[half + 2 + p / 8] & (1 << (p % 8)) != 0;
            if in_a {
                self.devices[node].set_short_addr(eph_a);
            }
            if in_b {
                self.devices[node].set_alt_addr(Some(eph_b));
            }
        }

        // Two back-to-back poll + HACK-window sub-exchanges.
        let mut at = a_end + TURNAROUND;
        let mut outcomes = [RcdOutcome::Silent, RcdOutcome::Silent];
        for (slot, &eph) in [eph_a, eph_b].iter().enumerate() {
            let poll_seq = self.fresh_seq();
            let poll = Frame::data_with_ack_request(ShortAddr(0), eph, poll_seq, Vec::new());
            let (p_tx, p_end) = self.medium.begin_tx(0, &poll, at);
            let hack_at = p_end + TURNAROUND;
            let mut hacks = Vec::new();
            let mut hack_end = hack_at + Frame::hack(poll_seq).airtime();
            for r in self.medium.complete_tx(p_tx) {
                let node = r.receiver;
                if node == 0 || node >= self.devices.len() {
                    continue;
                }
                if !self.devices[node].accepts(&r.frame) {
                    continue;
                }
                if let Some(hack) = self.devices[node].should_hack(&r.frame) {
                    let (h_tx, h_end) = self.medium.begin_tx_superposable(node, &hack, hack_at);
                    hacks.push(h_tx);
                    hack_end = h_end;
                }
            }
            for h in hacks {
                for r in self.medium.complete_tx(h) {
                    if r.receiver == 0
                        && r.frame == Frame::hack(poll_seq)
                        && self.devices[0].accepts(&r.frame)
                    {
                        outcomes[slot] = RcdOutcome::NonEmpty;
                    }
                }
            }
            at = hack_end + TURNAROUND;
        }

        for tx in foreign {
            let _ = self.medium.complete_tx(tx);
        }
        for (node, dev) in self.devices.iter_mut().enumerate().skip(1) {
            dev.set_short_addr(ShortAddr(node as u16));
            dev.set_alt_addr(None);
        }
        let end = at + SimDuration::micros(500);
        self.stats.elapsed = self.stats.elapsed + end.since(start);
        self.now = end;
        self.stats.record(k_a, outcomes[0]);
        self.stats.record(k_b, outcomes[1]);
        (outcomes[0], outcomes[1])
    }

    /// Executes one **pollcast** exchange on `group`.
    ///
    /// The initiator broadcasts the poll (group bitmap in the payload);
    /// positive group members reply simultaneously with ordinary data
    /// frames; the initiator detects activity via CCA energy sensing and —
    /// thanks to the capture effect — occasionally decodes one reply,
    /// yielding `Decoded(participant)`.
    pub fn pollcast(&mut self, group: &[usize]) -> RcdOutcome {
        let poll_seq = self.fresh_seq();
        let truth_k = self.count_positive(group);

        let mut queue: EventQueue<Phase> = EventQueue::new();
        queue.advance_to(self.now);
        let foreign = self.inject_interference(self.now, SimDuration::millis(3));

        let poll = Frame::data(
            ShortAddr(0),
            BROADCAST_ADDR,
            poll_seq,
            self.announce_payload(ShortAddr(0), group),
        );
        let (p_tx, p_end) = self.medium.begin_tx(0, &poll, queue.now());
        queue.schedule_at(p_end, Phase::PollEnd(p_tx));

        let mut outcome = RcdOutcome::Silent;
        let mut window: Option<(SimTime, SimTime)> = None;
        while let Some((now, phase)) = queue.pop() {
            match phase {
                Phase::PollEnd(tx) => {
                    let receptions = self.medium.complete_tx(tx);
                    let reply_at = now + TURNAROUND;
                    let mut replies = Vec::new();
                    let mut replies_end = reply_at;
                    for r in receptions {
                        let node = r.receiver;
                        if node == 0
                            || node >= self.devices.len()
                            || !self.devices[node].accepts(&r.frame)
                        {
                            continue;
                        }
                        let p = node - 1;
                        let in_group = r.frame.payload[2 + p / 8] & (1 << (p % 8)) != 0;
                        if in_group && self.predicate[p] {
                            // Vote frame: "P holds here".
                            let vote = Frame::data(
                                ShortAddr(node as u16),
                                ShortAddr(0),
                                poll_seq,
                                vec![p as u8],
                            );
                            let (v_tx, v_end) = self.medium.begin_tx(node, &vote, reply_at);
                            replies.push((p, v_tx));
                            replies_end = v_end;
                        }
                    }
                    let win_end = if replies.is_empty() {
                        reply_at + Frame::data(ShortAddr(0), ShortAddr(0), 0, vec![0]).airtime()
                    } else {
                        replies_end
                    };
                    window = Some((reply_at, win_end));
                    queue.schedule_at(win_end, Phase::RepliesEnd(replies));
                }
                Phase::RepliesEnd(replies) => {
                    // Energy detection over the reply window (RCD proper).
                    let (w_start, w_end) = window.expect("window set at poll end");
                    if self.medium.activity_in(0, w_start, w_end) {
                        outcome = RcdOutcome::NonEmpty;
                    }
                    // Capture: did any single reply decode at the initiator?
                    for (p, v_tx) in replies {
                        for r in self.medium.complete_tx(v_tx) {
                            if r.receiver == 0 && self.devices[0].accepts(&r.frame) {
                                outcome = RcdOutcome::Decoded(p);
                            }
                        }
                    }
                }
                other => unreachable!("backcast phase {other:?} in pollcast"),
            }
        }
        for tx in foreign {
            let _ = self.medium.complete_tx(tx);
        }

        let end = queue.now() + SimDuration::micros(500);
        self.stats.elapsed = self.stats.elapsed + end.since(self.now);
        self.now = end;
        self.stats.record(truth_k, outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(participants: usize, positives: &[usize], seed: u64) -> RcdStack {
        let mut s = RcdStack::new(participants, RcdConfig::lossless(), seed);
        let mut pred = vec![false; participants];
        for &p in positives {
            pred[p] = true;
        }
        s.set_predicate(&pred);
        s
    }

    #[test]
    fn backcast_silent_group_is_silent() {
        let mut s = stack(12, &[5], 1);
        assert_eq!(s.backcast(&[0, 1, 2, 3]), RcdOutcome::Silent);
        assert_eq!(s.stats.queries, 1);
        assert_eq!(s.stats.false_negatives, 0);
    }

    #[test]
    fn backcast_detects_single_positive() {
        let mut s = stack(12, &[5], 2);
        assert_eq!(s.backcast(&[4, 5, 6]), RcdOutcome::NonEmpty);
    }

    #[test]
    fn backcast_detects_many_positives_via_superposition() {
        let mut s = stack(12, &[0, 1, 2, 3, 4, 5, 6, 7], 3);
        assert_eq!(s.backcast(&[0, 1, 2, 3, 4, 5, 6, 7]), RcdOutcome::NonEmpty);
    }

    #[test]
    fn backcast_positive_outside_group_is_silent() {
        let mut s = stack(12, &[9], 4);
        assert_eq!(s.backcast(&[0, 1, 2]), RcdOutcome::Silent);
    }

    #[test]
    fn backcast_never_decodes_identities() {
        let mut s = stack(12, &[3], 5);
        assert!(!matches!(s.backcast(&[3]), RcdOutcome::Decoded(_)));
    }

    #[test]
    fn pollcast_silent_and_active_groups() {
        let mut s = stack(12, &[7, 8], 6);
        assert_eq!(s.pollcast(&[0, 1, 2]), RcdOutcome::Silent);
        assert_ne!(s.pollcast(&[6, 7]), RcdOutcome::Silent);
    }

    #[test]
    fn pollcast_single_replier_is_decoded() {
        let mut s = stack(12, &[7], 7);
        assert_eq!(s.pollcast(&[6, 7, 8]), RcdOutcome::Decoded(7));
    }

    #[test]
    fn exchanges_advance_time() {
        let mut s = stack(4, &[0], 8);
        let t0 = s.now;
        s.backcast(&[0, 1]);
        let t1 = s.now;
        assert!(t1 > t0);
        s.pollcast(&[0, 1]);
        assert!(s.now > t1);
        assert!(s.stats.elapsed.as_micros() > 0);
    }

    #[test]
    fn stats_bucket_by_group_positive_count() {
        let mut s = stack(12, &[1, 2, 3], 9);
        s.backcast(&[1, 2]); // k = 2
        s.backcast(&[4, 5]); // k = 0
        assert_eq!(s.stats.by_k[2].0, 1);
        assert_eq!(s.stats.by_k[0].0, 1);
        assert_eq!(s.stats.false_negatives + s.stats.false_positives, 0);
    }

    #[test]
    fn random_positive_placement_counts() {
        let mut s = RcdStack::new(12, RcdConfig::lossless(), 10);
        s.set_random_positives(5);
        let all: Vec<usize> = (0..12).collect();
        assert_eq!(s.count_positive(&all), 5);
    }

    #[test]
    fn backcast_pair_matches_two_singles() {
        let mut s = stack(12, &[2, 7], 21);
        let (a, b) = s.backcast_pair(&[0, 1, 2], &[6, 7, 8]);
        assert_eq!(a, RcdOutcome::NonEmpty);
        assert_eq!(b, RcdOutcome::NonEmpty);
        let (a, b) = s.backcast_pair(&[0, 1], &[3, 4]);
        assert_eq!(a, RcdOutcome::Silent);
        assert_eq!(b, RcdOutcome::Silent);
        assert_eq!(s.stats.queries, 4, "a pair counts as two queries");
        assert_eq!(s.stats.false_negatives, 0);
        assert_eq!(s.stats.false_positives, 0);
    }

    #[test]
    fn backcast_pair_node_in_both_groups_answers_both() {
        let mut s = stack(12, &[5], 22);
        let (a, b) = s.backcast_pair(&[5, 6], &[4, 5]);
        assert_eq!(a, RcdOutcome::NonEmpty);
        assert_eq!(b, RcdOutcome::NonEmpty);
    }

    #[test]
    fn backcast_pair_is_faster_than_two_singles() {
        let mut s1 = stack(12, &[2, 7], 23);
        s1.backcast(&[0, 1, 2]);
        s1.backcast(&[6, 7, 8]);
        let singles = s1.stats.elapsed;
        let mut s2 = stack(12, &[2, 7], 23);
        s2.backcast_pair(&[0, 1, 2], &[6, 7, 8]);
        let paired = s2.stats.elapsed;
        assert!(
            paired < singles,
            "pair {paired} should beat two singles {singles}"
        );
    }

    #[test]
    fn ephemeral_addresses_never_hit_broadcast() {
        let mut s = stack(4, &[], 24);
        let mut wrapped = false;
        for _ in 0..2 * 0x8000 + 2 {
            let addr = s.fresh_ephemeral();
            assert_ne!(addr, BROADCAST_ADDR);
            assert!(
                addr.0 >= 0x8000,
                "{addr:?} collides with a permanent address"
            );
            wrapped |= addr.0 == 0x8000;
        }
        assert!(wrapped, "the cycle should come back to 0x8000");
    }

    #[test]
    fn backcast_detects_positives_across_the_ephemeral_wrap() {
        // A long sweep on one stack carries the counter to the top of the
        // ephemeral range; the queries there must still be answered.
        let mut s = stack(12, &[5], 25);
        s.next_ephemeral = 0xFFFC;
        for _ in 0..4 {
            assert_eq!(s.backcast(&[4, 5, 6]), RcdOutcome::NonEmpty);
        }
        s.next_ephemeral = 0xFFFC;
        for _ in 0..2 {
            let (a, b) = s.backcast_pair(&[5], &[4, 5]);
            assert_eq!(a, RcdOutcome::NonEmpty);
            assert_eq!(b, RcdOutcome::NonEmpty);
        }
    }

    #[test]
    fn interference_cannot_fake_a_backcast_positive() {
        // Heavy neighboring traffic, empty group: backcast must stay
        // silent (no HACK can be triggered by foreign frames).
        let cfg = RcdConfig {
            interference: Some(InterferenceSpec {
                sources: 4,
                distance_m: 20.0,
                duty_cycle: 0.5,
                frame_len: 32,
            }),
            ..RcdConfig::lossless()
        };
        let mut s = RcdStack::new(8, cfg, 77);
        s.set_predicate(&[false; 8]);
        for _ in 0..50 {
            assert_eq!(s.backcast(&[0, 1, 2, 3]), RcdOutcome::Silent);
        }
        assert_eq!(s.stats.false_positives, 0);
    }

    #[test]
    fn interference_triggers_pollcast_false_positives() {
        // The same foreign traffic fools pollcast's energy detection.
        let cfg = RcdConfig {
            interference: Some(InterferenceSpec {
                sources: 4,
                distance_m: 20.0,
                duty_cycle: 0.5,
                frame_len: 32,
            }),
            ..RcdConfig::lossless()
        };
        let mut s = RcdStack::new(8, cfg, 78);
        s.set_predicate(&[false; 8]);
        for _ in 0..50 {
            s.pollcast(&[0, 1, 2, 3]);
        }
        assert!(
            s.stats.false_positives > 0,
            "pollcast energy detection should be fooled by interference"
        );
    }

    #[test]
    fn interference_induces_backcast_false_negatives() {
        // Strong nearby interference can break HACK decoding: false
        // negatives, exactly the failure mode Section III-B predicts.
        let cfg = RcdConfig {
            interference: Some(InterferenceSpec {
                sources: 4,
                distance_m: 12.0,
                duty_cycle: 0.8,
                frame_len: 64,
            }),
            ..RcdConfig::lossless()
        };
        let mut s = RcdStack::new(8, cfg, 79);
        let mut pred = vec![false; 8];
        pred[0] = true;
        s.set_predicate(&pred);
        let mut silent = 0;
        for _ in 0..80 {
            if s.backcast(&[0, 1]) == RcdOutcome::Silent {
                silent += 1;
            }
        }
        assert!(silent > 0, "heavy interference should cost some HACKs");
        assert_eq!(s.stats.false_negatives, silent);
    }

    #[test]
    fn lossy_phy_false_negatives_concentrate_on_single_hacks() {
        // With radio noise on, aggregate FN rate should be small and
        // heavily biased toward k = 1 groups (the paper's observation).
        let cfg = RcdConfig::testbed();
        let mut fn_k1 = 0u64;
        let mut q_k1 = 0u64;
        let mut fn_k4 = 0u64;
        let mut q_k4 = 0u64;
        for seed in 0..40 {
            let mut s = RcdStack::new(12, cfg, seed);
            let mut pred = vec![false; 12];
            pred[0] = true;
            s.set_predicate(&pred);
            for _ in 0..10 {
                s.backcast(&[0, 1, 2]); // k = 1
            }
            let mut pred = vec![false; 12];
            for p in pred.iter_mut().take(4) {
                *p = true;
            }
            s.set_predicate(&pred);
            for _ in 0..10 {
                s.backcast(&[0, 1, 2, 3]); // k = 4
            }
            if s.stats.by_k.len() > 1 {
                q_k1 += s.stats.by_k[1].0;
                fn_k1 += s.stats.by_k[1].1;
            }
            if s.stats.by_k.len() > 4 {
                q_k4 += s.stats.by_k[4].0;
                fn_k4 += s.stats.by_k[4].1;
            }
        }
        assert_eq!(q_k1, 400);
        assert_eq!(q_k4, 400);
        let r1 = fn_k1 as f64 / q_k1 as f64;
        let r4 = fn_k4 as f64 / q_k4 as f64;
        assert!(r1 > r4, "k=1 FN rate {r1} should exceed k=4 rate {r4}");
    }
}
