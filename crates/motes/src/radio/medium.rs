//! The shared wireless medium: propagation, interference, capture, and
//! non-destructive superposition of identical frames.
//!
//! ## Propagation model
//!
//! Received power follows log-distance path loss with static per-link
//! log-normal shadowing and a per-frame fading draw:
//!
//! ```text
//! P_rx(dBm) = P_tx - [PL(d0) + 10 n log10(d/d0)] - X_link + F_frame
//! ```
//!
//! A frame is decodable at a receiver iff it clears the sensitivity floor
//! *and* its SINR (signal over noise plus the power sum of all overlapping
//! foreign transmissions) clears the demodulation threshold — which also
//! yields the capture effect: the stronger of two colliding frames can
//! still be received.
//!
//! ## HACK superposition
//!
//! Transmissions marked *superposable* (hardware ACKs) that carry identical
//! bytes over the identical interval are treated as one signal whose power
//! is the linear sum of the copies — the CC2420 behaviour backcast exploits
//! ("wireless ACK collisions not considered harmful"). More copies ⇒ more
//! power ⇒ the single-HACK false negatives of the paper's testbed fade
//! away as group sizes grow.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tcast_stats::normal::sample_standard_normal;

use crate::sim::SimTime;

use super::frame::Frame;
use super::units::{dbm_to_mw, mw_to_dbm};

/// Node position in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Position {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`, clamped below at 10 cm so co-located
    /// nodes do not produce infinite receive power.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2))
            .sqrt()
            .max(0.1)
    }
}

/// Propagation and receiver parameters (CC2420-flavoured defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// Path-loss exponent `n` (2.0 free space; ~2.2 indoor line-of-sight).
    pub path_loss_exponent: f64,
    /// Path loss at the 1 m reference distance (dB); ~40 dB at 2.4 GHz.
    pub ref_loss_db: f64,
    /// Standard deviation of the static per-link shadowing (dB).
    pub shadowing_sigma_db: f64,
    /// Standard deviation of the per-frame fading draw (dB).
    pub fading_sigma_db: f64,
    /// Thermal noise floor (dBm).
    pub noise_floor_dbm: f64,
    /// SINR required to demodulate (dB).
    pub demod_snr_db: f64,
    /// Minimum absolute signal level to lock at all (dBm).
    pub sensitivity_dbm: f64,
    /// CCA energy-detection threshold (dBm).
    pub cca_threshold_dbm: f64,
    /// Transmit power used by every node (dBm).
    pub tx_power_dbm: f64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        Self {
            path_loss_exponent: 2.2,
            ref_loss_db: 40.2,
            shadowing_sigma_db: 2.0,
            fading_sigma_db: 1.8,
            noise_floor_dbm: -98.0,
            demod_snr_db: 4.0,
            sensitivity_dbm: -94.0,
            cca_threshold_dbm: -77.0,
            tx_power_dbm: 0.0,
        }
    }
}

impl MediumConfig {
    /// A noiseless configuration: no shadowing, no fading, generous margins
    /// — every in-range frame is received. Used by tests that need
    /// deterministic PHY behaviour.
    pub(crate) fn lossless() -> Self {
        Self {
            shadowing_sigma_db: 0.0,
            fading_sigma_db: 0.0,
            ..Self::default()
        }
    }
}

/// Handle to an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TxId(u64);

#[derive(Debug, Clone)]
struct ActiveTx {
    id: u64,
    sender: usize,
    start: SimTime,
    end: SimTime,
    bytes: Vec<u8>,
    superposable: bool,
    completed: bool,
}

/// A successful reception at one node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Reception {
    /// Receiving node index.
    pub receiver: usize,
    /// Received signal strength (dBm) including fading.
    pub rssi_dbm: f64,
    /// Post-fading SINR (dB).
    pub sinr_db: f64,
    /// The decoded frame.
    pub frame: Frame,
    /// How many superposed copies contributed to the signal.
    pub copies: usize,
}

/// The shared single-channel medium over a fixed set of node positions.
#[derive(Debug, Clone)]
pub(crate) struct Medium {
    cfg: MediumConfig,
    positions: Vec<Position>,
    /// Symmetric per-link shadowing (dB), row-major `n x n`.
    shadow: Vec<f64>,
    txs: Vec<ActiveTx>,
    rng: SmallRng,
    next_id: u64,
}

impl Medium {
    /// Builds a medium over explicit positions. Shadowing is drawn once per
    /// link from the seeded RNG (static for the lifetime of the medium,
    /// like a fixed deployment).
    pub fn new(positions: Vec<Position>, cfg: MediumConfig, seed: u64) -> Self {
        let n = positions.len();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut shadow = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let x = sample_standard_normal(&mut rng) * cfg.shadowing_sigma_db;
                shadow[i * n + j] = x;
                shadow[j * n + i] = x;
            }
        }
        Self {
            cfg,
            positions,
            shadow,
            txs: Vec::new(),
            rng,
            next_id: 0,
        }
    }

    /// A single-hop deployment: node 0 (the initiator) at the origin and
    /// `n - 1` participants uniform in a disc of `radius_m` meters.
    pub fn single_hop(n: usize, radius_m: f64, cfg: MediumConfig, seed: u64) -> Self {
        assert!(n >= 1, "need at least the initiator");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut positions = Vec::with_capacity(n);
        positions.push(Position { x: 0.0, y: 0.0 });
        for _ in 1..n {
            // Uniform in the disc via sqrt-radius sampling.
            let r = radius_m * rng.random::<f64>().sqrt();
            let theta = rng.random::<f64>() * std::f64::consts::TAU;
            positions.push(Position {
                x: r * theta.cos(),
                y: r * theta.sin(),
            });
        }
        Self::new(positions, cfg, seed)
    }

    /// A single-hop deployment plus `interferers` foreign transmitters
    /// placed evenly on a circle of radius `interferer_distance_m` — the
    /// "traffic from neighboring regions" of the paper's multihop
    /// discussion (Section III-B). Interferer node indices are
    /// `n..n + interferers`.
    pub fn single_hop_with_interferers(
        n: usize,
        radius_m: f64,
        interferers: usize,
        interferer_distance_m: f64,
        cfg: MediumConfig,
        seed: u64,
    ) -> Self {
        let mut base = Self::single_hop(n, radius_m, cfg, seed);
        let total = n + interferers;
        let mut positions = base.positions;
        for i in 0..interferers {
            let theta = std::f64::consts::TAU * (i as f64 + 0.5) / interferers.max(1) as f64;
            positions.push(Position {
                x: interferer_distance_m * theta.cos(),
                y: interferer_distance_m * theta.sin(),
            });
        }
        // Re-draw shadowing over the enlarged link matrix (reusing the
        // medium's RNG keeps everything derived from `seed`).
        let mut shadow = vec![0.0; total * total];
        for i in 0..total {
            for j in (i + 1)..total {
                let x = sample_standard_normal(&mut base.rng) * cfg.shadowing_sigma_db;
                shadow[i * total + j] = x;
                shadow[j * total + i] = x;
            }
        }
        Self {
            positions,
            shadow,
            ..base
        }
    }

    /// Mean received power (dBm) on link `sender -> receiver`, i.e. path
    /// loss and shadowing but no per-frame fading.
    pub fn mean_rx_power_dbm(&self, sender: usize, receiver: usize) -> f64 {
        let d = self.positions[sender].distance(&self.positions[receiver]);
        let n = self.positions.len();
        let pl = self.cfg.ref_loss_db + 10.0 * self.cfg.path_loss_exponent * d.log10();
        self.cfg.tx_power_dbm - pl - self.shadow[sender * n + receiver]
    }

    /// Starts a transmission of `frame` from `sender` at `now`. Returns the
    /// handle and the instant the frame leaves the air; the caller must
    /// invoke [`Medium::complete_tx`] at exactly that instant.
    pub fn begin_tx(&mut self, sender: usize, frame: &Frame, now: SimTime) -> (TxId, SimTime) {
        self.begin_tx_inner(sender, frame, now, false)
    }

    /// Like [`Medium::begin_tx`] but marks the transmission superposable:
    /// identical bytes over the identical interval add power instead of
    /// interfering (hardware ACKs).
    pub fn begin_tx_superposable(
        &mut self,
        sender: usize,
        frame: &Frame,
        now: SimTime,
    ) -> (TxId, SimTime) {
        self.begin_tx_inner(sender, frame, now, true)
    }

    fn begin_tx_inner(
        &mut self,
        sender: usize,
        frame: &Frame,
        now: SimTime,
        superposable: bool,
    ) -> (TxId, SimTime) {
        assert!(sender < self.positions.len(), "unknown sender {sender}");
        self.gc(now);
        let end = now + frame.airtime();
        let id = self.next_id;
        self.next_id += 1;
        self.txs.push(ActiveTx {
            id,
            sender,
            start: now,
            end,
            bytes: frame.encode(),
            superposable,
            completed: false,
        });
        (TxId(id), end)
    }

    /// Completes a transmission and computes who received it.
    ///
    /// For a superposable group (identical bytes, identical interval) the
    /// receptions are attributed to the group's first transmission; calling
    /// `complete_tx` on the other members returns an empty vector.
    pub fn complete_tx(&mut self, id: TxId) -> Vec<Reception> {
        let Some(idx) = self.txs.iter().position(|t| t.id == id.0) else {
            return Vec::new();
        };
        if self.txs[idx].completed {
            return Vec::new();
        }
        self.txs[idx].completed = true;

        // Collect the superposition group.
        let me = self.txs[idx].clone();
        let group: Vec<usize> = if me.superposable {
            self.txs
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    t.superposable && t.start == me.start && t.end == me.end && t.bytes == me.bytes
                })
                .map(|(i, _)| i)
                .collect()
        } else {
            vec![idx]
        };
        let primary = group
            .iter()
            .map(|&i| self.txs[i].id)
            .min()
            .expect("group contains self");
        if primary != me.id {
            return Vec::new();
        }
        // Mark the whole group completed so later calls return empty.
        for &i in &group {
            self.txs[i].completed = true;
        }

        let frame = match Frame::decode(&me.bytes) {
            Ok(f) => f,
            Err(_) => return Vec::new(),
        };
        let group_ids: Vec<u64> = group.iter().map(|&i| self.txs[i].id).collect();
        let group_senders: Vec<usize> = group.iter().map(|&i| self.txs[i].sender).collect();

        let noise_mw = dbm_to_mw(self.cfg.noise_floor_dbm);
        let mut receptions = Vec::new();
        for receiver in 0..self.positions.len() {
            if group_senders.contains(&receiver) {
                continue; // a sender cannot hear itself
            }
            // Half-duplex: a node transmitting anything overlapping this
            // frame cannot receive it.
            let busy_txing = self
                .txs
                .iter()
                .any(|t| t.sender == receiver && overlaps(t.start, t.end, me.start, me.end));
            if busy_txing {
                continue;
            }
            // Aggregate signal power: linear sum over superposed copies.
            let signal_mw: f64 = group
                .iter()
                .map(|&i| dbm_to_mw(self.mean_rx_power_dbm(self.txs[i].sender, receiver)))
                .sum();
            // Per-frame fading on the aggregate.
            let fade_db = sample_standard_normal(&mut self.rng) * self.cfg.fading_sigma_db;
            let rssi_dbm = mw_to_dbm(signal_mw) + fade_db;
            // Interference: all foreign transmissions overlapping in time.
            let interference_mw: f64 = self
                .txs
                .iter()
                .filter(|t| {
                    !group_ids.contains(&t.id)
                        && t.sender != receiver
                        && overlaps(t.start, t.end, me.start, me.end)
                })
                .map(|t| dbm_to_mw(self.mean_rx_power_dbm(t.sender, receiver)))
                .sum();
            let sinr_db = rssi_dbm - mw_to_dbm(noise_mw + interference_mw);
            if rssi_dbm >= self.cfg.sensitivity_dbm && sinr_db >= self.cfg.demod_snr_db {
                receptions.push(Reception {
                    receiver,
                    rssi_dbm,
                    sinr_db,
                    frame: frame.clone(),
                    copies: group.len(),
                });
            }
        }
        receptions
    }

    /// CCA energy detection: does `listener` see any in-flight foreign
    /// transmission above the CCA threshold at `now`? Uses mean link power
    /// (energy detection integrates over several symbols, averaging fades).
    pub fn cca_busy(&self, listener: usize, now: SimTime) -> bool {
        self.energy_at(listener, now) >= self.cfg.cca_threshold_dbm
    }

    /// Total foreign in-flight power (dBm) at `listener` at instant `now`.
    pub fn energy_at(&self, listener: usize, now: SimTime) -> f64 {
        let total_mw: f64 = self
            .txs
            .iter()
            .filter(|t| t.sender != listener && t.start <= now && now < t.end)
            .map(|t| dbm_to_mw(self.mean_rx_power_dbm(t.sender, listener)))
            .sum();
        mw_to_dbm(total_mw)
    }

    /// Energy detection over an interval: true if any foreign transmission
    /// overlapping `[start, end)` exceeds the CCA threshold at `listener`.
    /// This is the pollcast receive-side collision detector.
    pub fn activity_in(&self, listener: usize, start: SimTime, end: SimTime) -> bool {
        self.txs
            .iter()
            .filter(|t| t.sender != listener && overlaps(t.start, t.end, start, end))
            .any(|t| self.mean_rx_power_dbm(t.sender, listener) >= self.cfg.cca_threshold_dbm)
    }

    /// Drops transmissions that can no longer interfere with anything
    /// starting at or after `now`.
    fn gc(&mut self, now: SimTime) {
        self.txs.retain(|t| !(t.completed && t.end < now));
    }
}

#[inline]
fn overlaps(a_start: SimTime, a_end: SimTime, b_start: SimTime, b_end: SimTime) -> bool {
    a_start < b_end && b_start < a_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::frame::{Frame, ShortAddr};
    use crate::sim::SimDuration;

    fn line_medium(n: usize, spacing: f64, cfg: MediumConfig) -> Medium {
        let positions = (0..n)
            .map(|i| Position {
                x: i as f64 * spacing,
                y: 0.0,
            })
            .collect();
        Medium::new(positions, cfg, 7)
    }

    fn data_frame(seq: u8) -> Frame {
        Frame::data(ShortAddr(1), ShortAddr(2), seq, vec![seq; 8])
    }

    #[test]
    fn lone_frame_is_received_in_lossless_medium() {
        let mut m = line_medium(3, 5.0, MediumConfig::lossless());
        let (tx, end) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        assert_eq!(end, SimTime::ZERO + data_frame(1).airtime());
        let rx = m.complete_tx(tx);
        let receivers: Vec<usize> = rx.iter().map(|r| r.receiver).collect();
        assert_eq!(receivers, [1, 2], "both other nodes hear it");
        assert_eq!(rx[0].frame, data_frame(1));
    }

    #[test]
    fn power_decays_with_distance() {
        let m = line_medium(3, 10.0, MediumConfig::lossless());
        assert!(m.mean_rx_power_dbm(0, 1) > m.mean_rx_power_dbm(0, 2));
    }

    #[test]
    fn colliding_frames_destroy_each_other_at_equal_power() {
        // Receivers equidistant from two simultaneous senders: SINR ~ 0 dB,
        // below the demod threshold -> nobody decodes either frame.
        let positions = vec![
            Position { x: -5.0, y: 0.0 },
            Position { x: 5.0, y: 0.0 },
            Position { x: 0.0, y: 5.0 },
        ];
        let mut m = Medium::new(positions, MediumConfig::lossless(), 1);
        let (a, _) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        let (b, _) = m.begin_tx(1, &data_frame(2), SimTime::ZERO);
        assert!(m.complete_tx(a).is_empty());
        assert!(m.complete_tx(b).is_empty());
    }

    #[test]
    fn capture_effect_near_strong_sender() {
        // Receiver 2 sits right next to sender 0 and far from sender 1:
        // node 0's frame captures despite the collision.
        let positions = vec![
            Position { x: 0.0, y: 0.0 },
            Position { x: 40.0, y: 0.0 },
            Position { x: 1.0, y: 0.0 },
        ];
        let mut m = Medium::new(positions, MediumConfig::lossless(), 1);
        let (a, _) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        let (b, _) = m.begin_tx(1, &data_frame(2), SimTime::ZERO);
        let rx_a = m.complete_tx(a);
        assert_eq!(rx_a.len(), 1);
        assert_eq!(rx_a[0].receiver, 2);
        assert!(m.complete_tx(b).is_empty(), "weak frame lost everywhere");
    }

    #[test]
    fn identical_hacks_superpose_instead_of_colliding() {
        // Three participants HACK simultaneously; the initiator decodes the
        // superposition as one frame with summed power.
        let mut m = Medium::single_hop(4, 8.0, MediumConfig::lossless(), 3);
        let hack = Frame::hack(9);
        let t0 = SimTime::ZERO;
        let (a, _) = m.begin_tx_superposable(1, &hack, t0);
        let (b, _) = m.begin_tx_superposable(2, &hack, t0);
        let (c, _) = m.begin_tx_superposable(3, &hack, t0);
        let rx = m.complete_tx(a);
        let initiator_rx: Vec<&Reception> = rx.iter().filter(|r| r.receiver == 0).collect();
        assert_eq!(initiator_rx.len(), 1, "initiator hears the superposition");
        assert_eq!(initiator_rx[0].copies, 3);
        assert!(m.complete_tx(b).is_empty());
        assert!(m.complete_tx(c).is_empty());
    }

    #[test]
    fn superposition_raises_received_power() {
        let mut m = Medium::single_hop(3, 5.0, MediumConfig::lossless(), 4);
        let hack = Frame::hack(1);
        // Single HACK first.
        let (a, end) = m.begin_tx_superposable(1, &hack, SimTime::ZERO);
        let solo = m
            .complete_tx(a)
            .into_iter()
            .find(|r| r.receiver == 0)
            .expect("solo HACK received");
        // Two simultaneous HACKs later.
        let t1 = end + SimDuration::millis(1);
        let (b, _) = m.begin_tx_superposable(1, &hack, t1);
        let (_c, _) = m.begin_tx_superposable(2, &hack, t1);
        let duo = m
            .complete_tx(b)
            .into_iter()
            .find(|r| r.receiver == 0)
            .expect("superposed HACK received");
        assert!(
            duo.rssi_dbm > solo.rssi_dbm,
            "{} !> {}",
            duo.rssi_dbm,
            solo.rssi_dbm
        );
    }

    #[test]
    fn different_seq_hacks_do_not_superpose() {
        // Symmetric layout: both HACK senders equidistant from the
        // initiator, so without superposition the equal-power collision is
        // undecodable at node 0.
        let positions = vec![
            Position { x: 0.0, y: 0.0 },
            Position { x: -4.0, y: 0.0 },
            Position { x: 4.0, y: 0.0 },
        ];
        let mut m = Medium::new(positions, MediumConfig::lossless(), 5);
        let (a, _) = m.begin_tx_superposable(1, &Frame::hack(1), SimTime::ZERO);
        let (b, _) = m.begin_tx_superposable(2, &Frame::hack(2), SimTime::ZERO);
        let rx_a = m.complete_tx(a);
        let rx_b = m.complete_tx(b);
        assert!(rx_a.iter().all(|r| r.receiver != 0));
        assert!(rx_b.iter().all(|r| r.receiver != 0));
    }

    #[test]
    fn half_duplex_sender_cannot_receive() {
        let mut m = line_medium(3, 5.0, MediumConfig::lossless());
        let (a, _) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        // Node 1 transmits something overlapping.
        let (_b, _) = m.begin_tx(1, &data_frame(2), SimTime::ZERO);
        let rx = m.complete_tx(a);
        assert!(
            rx.iter().all(|r| r.receiver != 1),
            "transmitting node must not receive"
        );
    }

    #[test]
    fn cca_sees_inflight_transmissions() {
        let mut m = line_medium(2, 3.0, MediumConfig::lossless());
        assert!(!m.cca_busy(1, SimTime::ZERO));
        let (_tx, end) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        assert!(m.cca_busy(1, SimTime::ZERO));
        assert!(m.cca_busy(1, SimTime::from_nanos(end.as_nanos() - 1)));
        assert!(
            !m.cca_busy(1, end),
            "tx no longer on air at its end instant"
        );
    }

    #[test]
    fn activity_in_window_matches_overlap() {
        let mut m = line_medium(2, 3.0, MediumConfig::lossless());
        let start = SimTime::ZERO + SimDuration::micros(100);
        let (_tx, end) = m.begin_tx(0, &data_frame(1), start);
        assert!(m.activity_in(1, SimTime::ZERO, SimTime::ZERO + SimDuration::millis(5)));
        assert!(!m.activity_in(1, SimTime::ZERO, start));
        assert!(!m.activity_in(1, end, end + SimDuration::millis(1)));
    }

    #[test]
    fn far_node_misses_frame() {
        // 500 m apart with exponent 2.2: below sensitivity.
        let mut m = line_medium(2, 500.0, MediumConfig::lossless());
        let (tx, _) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        assert!(m.complete_tx(tx).is_empty());
    }

    #[test]
    fn interferer_layout_and_energy() {
        let m = Medium::single_hop_with_interferers(4, 5.0, 3, 30.0, MediumConfig::lossless(), 9);
        assert_eq!(m.positions.len(), 7);
        // Interferers sit on the 30 m circle.
        for i in 4..7 {
            let d = m.positions[i].distance(&Position { x: 0.0, y: 0.0 });
            assert!((d - 30.0).abs() < 1e-6, "interferer {i} at {d} m");
        }
        // An interferer transmission registers as energy at the initiator.
        let mut m = m;
        let (_tx, _end) = m.begin_tx(
            4,
            &Frame::data(ShortAddr(9), ShortAddr(0), 0, vec![0; 8]),
            SimTime::ZERO,
        );
        assert!(
            m.energy_at(0, SimTime::ZERO) > -80.0,
            "interference is audible"
        );
    }

    #[test]
    fn shadowing_is_symmetric_and_deterministic() {
        let a = Medium::single_hop(6, 10.0, MediumConfig::default(), 42);
        let b = Medium::single_hop(6, 10.0, MediumConfig::default(), 42);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                assert_eq!(
                    a.mean_rx_power_dbm(i, j),
                    a.mean_rx_power_dbm(j, i),
                    "link {i}<->{j} asymmetric"
                );
                assert_eq!(
                    a.mean_rx_power_dbm(i, j),
                    b.mean_rx_power_dbm(i, j),
                    "same seed, different medium"
                );
            }
        }
        let c = Medium::single_hop(6, 10.0, MediumConfig::default(), 43);
        assert_ne!(a.mean_rx_power_dbm(0, 1), c.mean_rx_power_dbm(0, 1));
    }

    #[test]
    fn completed_old_transmissions_are_garbage_collected() {
        let mut m = line_medium(2, 3.0, MediumConfig::lossless());
        let mut at = SimTime::ZERO;
        for i in 0..100u8 {
            let (tx, end) = m.begin_tx(0, &data_frame(i), at);
            let _ = m.complete_tx(tx);
            at = end + SimDuration::millis(1);
        }
        assert!(
            m.txs.len() < 10,
            "completed txs should be pruned, {} retained",
            m.txs.len()
        );
    }

    #[test]
    fn interference_power_sums_linearly() {
        // Two equal interferers at the listener add ~3 dB over one.
        let positions = vec![
            Position { x: 0.0, y: 0.0 },
            Position { x: 5.0, y: 0.0 },
            Position { x: -5.0, y: 0.0 },
        ];
        let mut m = Medium::new(positions, MediumConfig::lossless(), 1);
        let (_a, _) = m.begin_tx(1, &data_frame(1), SimTime::ZERO);
        let one = m.energy_at(0, SimTime::ZERO);
        let (_b, _) = m.begin_tx(2, &data_frame(2), SimTime::ZERO);
        let two = m.energy_at(0, SimTime::ZERO);
        assert!((two - one - 3.0103).abs() < 0.01, "one={one} two={two}");
    }

    #[test]
    fn completing_twice_is_idempotent() {
        let mut m = line_medium(2, 3.0, MediumConfig::lossless());
        let (tx, _) = m.begin_tx(0, &data_frame(1), SimTime::ZERO);
        assert!(!m.complete_tx(tx).is_empty());
        assert!(m.complete_tx(tx).is_empty());
        assert!(m.complete_tx(TxId(12345)).is_empty(), "unknown id is empty");
    }
}
