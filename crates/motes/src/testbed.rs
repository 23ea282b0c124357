//! The Figure 4 / Section IV-D testbed harness.
//!
//! Methodology, mirroring the paper: one initiator plus 12 participant
//! TelosB motes on a fixed deployment; for each threshold `t` in {2, 4, 6}
//! and each positive count `x` in 0..=12, the harness installs `x` random
//! positives on the RCD stack, runs a 2tBins query from the initiator, and
//! reboots all motes before the next run. (The paper's laptop drives these
//! steps over serial; here they are direct calls.) 100 runs per
//! configuration. Ground truth is known to the harness, so every run is
//! classified correct / false-negative / false-positive, and every group
//! query is bucketed by its positive-member count `k` (the paper observes
//! that false negatives concentrate at `k = 1`).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{population, QueryReport, ThresholdQuerier, TwoTBins};
use tcast_rcd::{Primitive, RcdChannel, RcdConfig, RcdStack};
use tcast_stats::Summary;

/// Testbed sweep configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Participant motes (12 in the paper).
    pub participants: usize,
    /// Thresholds to sweep ({2, 4, 6} in the paper).
    pub thresholds: Vec<usize>,
    /// Runs per (t, x) configuration (100 in the paper).
    pub runs_per_config: usize,
    /// Radio/deployment parameters.
    pub rcd: RcdConfig,
    /// Which RCD primitive the initiator uses.
    pub primitive: Primitive,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            participants: 12,
            thresholds: vec![2, 4, 6],
            runs_per_config: 100,
            rcd: RcdConfig::testbed(),
            primitive: Primitive::Backcast,
        }
    }
}

/// Aggregated result for one (t, x) cell.
#[derive(Debug, Clone)]
pub struct TestbedRow {
    /// Threshold under test.
    pub t: usize,
    /// Ground-truth positive count.
    pub x: usize,
    /// Query-count statistics over the runs.
    pub queries: Summary,
    /// Runs that answered `false` although `x >= t`.
    pub false_negative_runs: u64,
    /// Runs that answered `true` although `x < t`.
    pub false_positive_runs: u64,
    /// Total runs.
    pub runs: u64,
}

/// Whole-sweep error accounting.
#[derive(Debug, Clone, Default)]
pub struct ErrorStats {
    /// Total tcast sessions executed.
    pub total_runs: u64,
    /// Sessions with a false-negative verdict.
    pub false_negative_runs: u64,
    /// Sessions with a false-positive verdict.
    pub false_positive_runs: u64,
    /// Per-group-size accounting from the RCD stack:
    /// `(queries on k-positive groups, silent observations among them)`.
    pub group_queries_by_k: Vec<(u64, u64)>,
}

impl ErrorStats {
    /// Fraction of sessions with a wrong verdict.
    pub fn run_error_rate(&self) -> f64 {
        if self.total_runs == 0 {
            0.0
        } else {
            (self.false_negative_runs + self.false_positive_runs) as f64 / self.total_runs as f64
        }
    }
}

/// Full sweep output.
#[derive(Debug, Clone)]
pub struct TestbedReport {
    /// One row per (t, x).
    pub rows: Vec<TestbedRow>,
    /// Error accounting across the sweep.
    pub errors: ErrorStats,
}

impl TestbedReport {
    /// Rows for one threshold, ordered by x.
    pub fn rows_for_t(&self, t: usize) -> Vec<&TestbedRow> {
        self.rows.iter().filter(|r| r.t == t).collect()
    }
}

/// Runs the full testbed sweep.
pub fn run_testbed(cfg: &TestbedConfig, seed: u64) -> TestbedReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    // One fixed deployment for the whole experiment, as on a real desk.
    let stack = RcdStack::new(cfg.participants, cfg.rcd, seed);
    let mut channel = RcdChannel::new(stack, cfg.primitive);
    let nodes = population(cfg.participants);

    let mut rows = Vec::new();
    let mut errors = ErrorStats::default();

    for &t in &cfg.thresholds {
        for x in 0..=cfg.participants {
            let mut queries = Summary::new();
            let mut fn_runs = 0u64;
            let mut fp_runs = 0u64;
            for _ in 0..cfg.runs_per_config {
                let report = run_one(&mut channel, &nodes, t, x, &mut rng);
                let truth = x >= t;
                queries.record(report.queries as f64);
                if report.answer && !truth {
                    fp_runs += 1;
                }
                if !report.answer && truth {
                    fn_runs += 1;
                }
                errors.total_runs += 1;
            }
            errors.false_negative_runs += fn_runs;
            errors.false_positive_runs += fp_runs;
            rows.push(TestbedRow {
                t,
                x,
                queries,
                false_negative_runs: fn_runs,
                false_positive_runs: fp_runs,
                runs: cfg.runs_per_config as u64,
            });
        }
    }
    errors.group_queries_by_k = channel.stack().stats.by_k.clone();
    TestbedReport { rows, errors }
}

/// One run: install `x` positives, run a 2tBins session, reboot.
fn run_one(
    channel: &mut RcdChannel,
    nodes: &[tcast::NodeId],
    t: usize,
    x: usize,
    rng: &mut SmallRng,
) -> QueryReport {
    channel.stack_mut().set_random_positives(x);
    let report = TwoTBins.run(nodes, t, channel, rng);
    channel.stack_mut().reboot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(lossless: bool) -> TestbedConfig {
        TestbedConfig {
            participants: 8,
            thresholds: vec![2, 4],
            runs_per_config: 8,
            rcd: if lossless {
                RcdConfig::lossless()
            } else {
                RcdConfig::testbed()
            },
            primitive: Primitive::Backcast,
        }
    }

    #[test]
    fn lossless_testbed_never_errs() {
        let report = run_testbed(&tiny_config(true), 7);
        assert_eq!(report.errors.false_negative_runs, 0);
        assert_eq!(report.errors.false_positive_runs, 0);
        assert_eq!(report.errors.total_runs, 2 * 9 * 8);
        assert_eq!(report.rows.len(), 2 * 9);
    }

    #[test]
    fn rows_cover_the_sweep_grid() {
        let report = run_testbed(&tiny_config(true), 8);
        let t2 = report.rows_for_t(2);
        assert_eq!(t2.len(), 9);
        assert!(t2.iter().enumerate().all(|(i, r)| r.x == i));
        assert!(t2.iter().all(|r| r.runs == 8));
    }

    #[test]
    fn query_cost_peaks_near_threshold() {
        let report = run_testbed(
            &TestbedConfig {
                runs_per_config: 30,
                ..tiny_config(true)
            },
            9,
        );
        let rows = report.rows_for_t(4);
        let at_t = rows[4].queries.mean();
        let at_zero = rows[0].queries.mean();
        let at_n = rows[8].queries.mean();
        assert!(
            at_t > at_zero,
            "x=t ({at_t}) should cost more than x=0 ({at_zero})"
        );
        assert!(
            at_t > at_n,
            "x=t ({at_t}) should cost more than x=n ({at_n})"
        );
    }

    #[test]
    fn noisy_testbed_has_no_false_positives() {
        let report = run_testbed(&tiny_config(false), 10);
        assert_eq!(
            report.errors.false_positive_runs, 0,
            "backcast cannot produce false positives"
        );
    }

    #[test]
    fn group_stats_are_collected() {
        let report = run_testbed(&tiny_config(true), 11);
        let total: u64 = report
            .errors
            .group_queries_by_k
            .iter()
            .map(|&(q, _)| q)
            .sum();
        assert!(total > 0, "group queries were recorded");
    }
}
