//! Monitoring study: the value of history (Section V-C's closing remark,
//! realized).
//!
//! A sensing field is monitored over many epochs; the true positive count
//! evolves as a clamped random walk (physical processes drift rather than
//! jump). We compare the warm-started [`ThresholdMonitor`] against
//! restarting ABNS(p0 = 2t) and 2tBins cold each epoch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::{
    population, Abns, ChannelSpec, CollisionModel, MonitorConfig, ThresholdMonitor,
    ThresholdQuerier, TwoTBins,
};

use crate::output::Table;
use crate::seeding::derive;

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSweep {
    /// Population size.
    pub n: usize,
    /// Threshold per epoch.
    pub t: usize,
    /// Epochs per trace.
    pub epochs: usize,
    /// Independent traces averaged.
    pub traces: usize,
    /// Random-walk step bound per epoch.
    pub drift: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for MonitorSweep {
    fn default() -> Self {
        Self {
            n: 128,
            t: 16,
            epochs: 50,
            traces: 40,
            drift: 1,
            seed: 17,
        }
    }
}

/// Generates one x-trace: a random walk around `start`, confined to a
/// ±4·drift band (physical processes fluctuate around an operating point;
/// an unconfined walk would leave its regime within a few dozen epochs).
fn x_trace(sweep: &MonitorSweep, start: usize, rng: &mut SmallRng) -> Vec<usize> {
    let band = 4 * sweep.drift as i64;
    let lo = (start as i64 - band).max(0);
    let hi = (start as i64 + band).min(sweep.n as i64);
    let mut x = start as i64;
    let mut out = Vec::with_capacity(sweep.epochs);
    for _ in 0..sweep.epochs {
        let step = rng.random_range(-(sweep.drift as i64)..=(sweep.drift as i64));
        x = (x + step).clamp(lo, hi);
        out.push(x as usize);
    }
    out
}

/// Runs the study for quiet (x ~ small), near-threshold and busy regimes.
pub fn build(sweep: &MonitorSweep) -> Table {
    let mut table = Table::new(
        "ext-monitoring",
        &format!(
            "Warm-started monitoring vs cold starts (N={}, t={}, {} epochs x {} traces)",
            sweep.n, sweep.t, sweep.epochs, sweep.traces
        ),
        &[
            "regime",
            "monitor (queries/epoch)",
            "cold ABNS(2t)",
            "cold 2tBins",
            "saving vs ABNS",
        ],
    );

    for (regime, start) in [
        ("quiet (x ~ 2)", 2usize),
        ("near threshold (x ~ t)", sweep.t),
        ("busy (x ~ 4t)", 4 * sweep.t),
    ] {
        let mut monitor_total = 0u64;
        let mut abns_total = 0u64;
        let mut ttb_total = 0u64;
        let nodes = population(sweep.n);
        for trace_idx in 0..sweep.traces {
            let seed = derive(sweep.seed, &[start as u64, trace_idx as u64]);
            let mut rng = SmallRng::seed_from_u64(seed);
            let xs = x_trace(sweep, start, &mut rng);

            let mut monitor = ThresholdMonitor::new(MonitorConfig::default());
            for (i, &x) in xs.iter().enumerate() {
                let ch_seed = derive(seed, &[i as u64]);
                let mut rng_run = SmallRng::seed_from_u64(ch_seed);
                let spec = ChannelSpec::ideal(sweep.n, x, CollisionModel::OnePlus);
                let mk = |r: &mut SmallRng| tcast_adversary::sample_with(&spec, r).0;
                let mut ch = mk(&mut rng_run);
                let rep = monitor.epoch(&nodes, sweep.t, ch.as_mut(), &mut rng_run);
                debug_assert_eq!(rep.answer, x >= sweep.t);
                monitor_total += rep.queries;

                let mut ch = mk(&mut rng_run);
                abns_total += Abns::p0_2t()
                    .run(&nodes, sweep.t, ch.as_mut(), &mut rng_run)
                    .queries;

                let mut ch = mk(&mut rng_run);
                ttb_total += TwoTBins
                    .run(&nodes, sweep.t, ch.as_mut(), &mut rng_run)
                    .queries;
            }
        }
        let per_epoch = (sweep.traces * sweep.epochs) as f64;
        let m = monitor_total as f64 / per_epoch;
        let a = abns_total as f64 / per_epoch;
        let b = ttb_total as f64 / per_epoch;
        table.push_row(vec![
            regime.to_string(),
            format!("{m:.2}"),
            format!("{a:.2}"),
            format!("{b:.2}"),
            format!("{:.1}%", 100.0 * (1.0 - m / a)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MonitorSweep {
        MonitorSweep {
            epochs: 25,
            traces: 10,
            ..MonitorSweep::default()
        }
    }

    #[test]
    fn monitor_wins_in_the_quiet_regime() {
        let table = build(&tiny());
        let quiet = &table.rows[0];
        let m: f64 = quiet[1].parse().unwrap();
        let a: f64 = quiet[2].parse().unwrap();
        assert!(
            m < a,
            "monitor {m} should beat cold ABNS {a} on a quiet field"
        );
    }

    #[test]
    fn monitor_never_catastrophically_loses() {
        let table = build(&tiny());
        for row in &table.rows {
            let m: f64 = row[1].parse().unwrap();
            let a: f64 = row[2].parse().unwrap();
            assert!(m < a * 1.7 + 2.0, "{}: monitor {m} vs ABNS {a}", row[0]);
        }
    }
}
