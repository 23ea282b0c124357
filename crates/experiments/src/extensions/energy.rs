//! Time and energy study on the full stack.
//!
//! WSN deployments care about joules at least as much as latency. This
//! study runs the three collection strategies end to end over the
//! simulated PHY and converts their wall-clock durations into radio energy
//! with a CC2420 power model. With no radio duty cycling (the regime of
//! the paper's experiments), idle listening dominates: every participant's
//! radio is in RX for the whole collection, so network energy is
//! essentially `(N + 1) * duration * P_rx` plus the (small) TX surplus.
//!
//! CC2420 at 3.0 V: RX 18.8 mA (56.4 mW), TX at 0 dBm 17.4 mA (52.2 mW) —
//! TX is *cheaper* than RX, which is why duration is the whole story.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{population, ThresholdQuerier, TwoTBins};
use tcast_motes::rcd::{Primitive, RcdChannel, RcdConfig, RcdStack};
use tcast_motes::{MoteNetwork, NetworkConfig};

use crate::output::Table;
use crate::seeding::derive;

/// RX power of the CC2420 at 3.0 V (milliwatts).
pub const P_RX_MW: f64 = 56.4;

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct EnergySweep {
    /// Participant motes.
    pub participants: usize,
    /// Threshold.
    pub t: usize,
    /// Runs averaged per cell.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for EnergySweep {
    fn default() -> Self {
        Self {
            participants: 128,
            t: 16,
            runs: 15,
            seed: 23,
        }
    }
}

/// Network radio energy (millijoules) for an all-listening collection of
/// the given duration.
pub fn network_energy_mj(nodes_listening: usize, duration_us: f64) -> f64 {
    nodes_listening as f64 * duration_us * 1e-6 * P_RX_MW
}

/// Runs the study.
pub fn build(sweep: &EnergySweep) -> Table {
    let n = sweep.participants;
    let mut table = Table::new(
        "ext-energy",
        &format!(
            "Full-stack time & network energy (N={n}, t={}, {} runs/cell, lossless PHY)",
            sweep.t, sweep.runs
        ),
        &[
            "x",
            "tcast time (ms)",
            "csma time (ms)",
            "tdma time (ms)",
            "tcast energy (mJ)",
            "csma energy (mJ)",
            "tdma energy (mJ)",
        ],
    );

    let xs: Vec<usize> = [0usize, sweep.t / 2, sweep.t, 4 * sweep.t, n]
        .into_iter()
        .filter(|&x| x <= n)
        .collect();
    for &x in &xs {
        let mut tcast_us = 0.0;
        let mut csma_us = 0.0;
        let mut tdma_us = 0.0;
        for run in 0..sweep.runs {
            let seed = derive(sweep.seed, &[x as u64, run as u64]);

            // tcast (2tBins over backcast): measure the session's elapsed
            // protocol time on the stack clock.
            let mut stack = RcdStack::new(n, RcdConfig::lossless(), seed);
            stack.set_random_positives(x);
            let mut ch = RcdChannel::new(stack, Primitive::Backcast);
            let mut rng = SmallRng::seed_from_u64(seed);
            let before = ch.stack().stats.elapsed;
            let report = TwoTBins.run(&population(n), sweep.t, &mut ch, &mut rng);
            debug_assert_eq!(report.answer, x >= sweep.t);
            tcast_us += (ch.stack().stats.elapsed - before).as_micros() as f64;

            // CSMA contention collection.
            let mut net = MoteNetwork::new(NetworkConfig::lossless(n), seed);
            net.set_random_positives(x);
            csma_us += net.csma_collection(sweep.t).elapsed.as_micros() as f64;

            // TDMA sequential collection.
            let mut net = MoteNetwork::new(NetworkConfig::lossless(n), seed ^ 1);
            net.set_random_positives(x);
            tdma_us += net.tdma_collection(sweep.t).elapsed.as_micros() as f64;
        }
        let r = sweep.runs as f64;
        let (t_us, c_us, d_us) = (tcast_us / r, csma_us / r, tdma_us / r);
        table.push_row(vec![
            x.to_string(),
            format!("{:.2}", t_us / 1e3),
            format!("{:.2}", c_us / 1e3),
            format!("{:.2}", d_us / 1e3),
            format!("{:.3}", network_energy_mj(n + 1, t_us)),
            format!("{:.3}", network_energy_mj(n + 1, c_us)),
            format!("{:.3}", network_energy_mj(n + 1, d_us)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EnergySweep {
        EnergySweep {
            runs: 4,
            ..EnergySweep::default()
        }
    }

    #[test]
    fn energy_is_proportional_to_time() {
        assert!((network_energy_mj(25, 1e3) - 25.0 * 56.4 * 1e-3).abs() < 1e-9);
    }

    #[test]
    fn tcast_beats_csma_at_saturation() {
        // With every node positive, CSMA fights 128-way contention for its
        // t replies while tcast needs ~t short exchanges.
        let table = build(&tiny());
        let row = table.rows.last().unwrap(); // x = n
        let tcast_ms: f64 = row[1].parse().unwrap();
        let csma_ms: f64 = row[2].parse().unwrap();
        assert!(
            tcast_ms < csma_ms,
            "saturated field: tcast {tcast_ms}ms vs CSMA {csma_ms}ms"
        );
    }

    #[test]
    fn csma_beats_tcast_on_an_empty_field() {
        // The paper's other half: for x << t CSMA is cheap (one quiet
        // window) while tcast must eliminate nearly everyone.
        let table = build(&tiny());
        let row = &table.rows[0]; // x = 0
        let tcast_ms: f64 = row[1].parse().unwrap();
        let csma_ms: f64 = row[2].parse().unwrap();
        assert!(
            csma_ms < tcast_ms,
            "empty field: CSMA {csma_ms}ms vs tcast {tcast_ms}ms"
        );
    }

    #[test]
    fn tdma_cost_tracks_schedule_length_when_empty() {
        let table = build(&tiny());
        let row = &table.rows[0]; // x = 0
        let tdma_ms: f64 = row[3].parse().unwrap();
        // n slots of 1 ms; early-false fires t-1 slots before the end.
        let n = tiny().participants as f64;
        assert!(
            tdma_ms > n / 2.0 && tdma_ms <= n,
            "tdma at x=0: {tdma_ms}ms"
        );
    }
}
