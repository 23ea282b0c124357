//! Interference-tolerance study (the paper's Section III-B claims and its
//! stated future work: "testing and evaluation of tcast in a multihop
//! network environment with interfering traffic").
//!
//! For a sweep of neighboring-region duty cycles, both RCD primitives
//! query the same groups; false-positive and false-negative rates are
//! recorded against ground truth. Expected outcome (the paper's argument):
//! backcast never produces a false positive no matter the interference —
//! HACKs cannot be faked — while pollcast's energy detection is fooled;
//! both can suffer false negatives under heavy interference.

use tcast_motes::rcd::{InterferenceSpec, RcdConfig, RcdOutcome, RcdStack};

use crate::output::Table;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceSweep {
    /// Participant motes.
    pub participants: usize,
    /// Queries per (duty cycle, primitive, k) cell.
    pub queries_per_cell: usize,
    /// Interferer count and placement.
    pub sources: usize,
    /// Interferer distance from the initiator (m).
    pub distance_m: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for InterferenceSweep {
    fn default() -> Self {
        Self {
            participants: 12,
            queries_per_cell: 400,
            sources: 3,
            distance_m: 25.0,
            seed: 31,
        }
    }
}

/// Runs the study and renders the rate table.
pub fn build(sweep: &InterferenceSweep) -> Table {
    let mut table = Table::new(
        "ext-interference",
        &format!(
            "RCD primitives under neighboring-region traffic ({} sources at {} m, {} queries/cell)",
            sweep.sources, sweep.distance_m, sweep.queries_per_cell
        ),
        &[
            "duty cycle",
            "backcast FP",
            "backcast FN (k=1)",
            "pollcast FP",
            "pollcast FN (k=1)",
        ],
    );

    for &duty in &[0.0f64, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let interference = (duty > 0.0).then_some(InterferenceSpec {
            sources: sweep.sources,
            distance_m: sweep.distance_m,
            duty_cycle: duty,
            frame_len: 32,
        });
        let cfg = RcdConfig {
            interference,
            ..RcdConfig::testbed()
        };
        let back = measure(sweep, cfg, Primitive::Backcast);
        let poll = measure(sweep, cfg, Primitive::Pollcast);
        table.push_row(vec![
            format!("{duty:.2}"),
            format!("{:.2}%", 100.0 * back.fp_rate),
            format!("{:.2}%", 100.0 * back.fn_rate),
            format!("{:.2}%", 100.0 * poll.fp_rate),
            format!("{:.2}%", 100.0 * poll.fn_rate),
        ]);
    }
    table
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Primitive {
    Backcast,
    Pollcast,
}

#[derive(Debug, Clone, Copy)]
struct Rates {
    fp_rate: f64,
    fn_rate: f64,
}

fn measure(sweep: &InterferenceSweep, cfg: RcdConfig, primitive: Primitive) -> Rates {
    let mut stack = RcdStack::new(sweep.participants, cfg, sweep.seed);
    // Half the queries on an empty group (FP exposure), half on a
    // single-positive group (FN exposure, the fragile case).
    let empty_group: Vec<usize> = (1..5).collect();
    let hot_group: Vec<usize> = vec![0, 5, 6];
    let mut pred = vec![false; sweep.participants];
    pred[0] = true;
    stack.set_predicate(&pred);

    let (mut fp, mut fneg) = (0u64, 0u64);
    let half = sweep.queries_per_cell / 2;
    for _ in 0..half {
        let out = match primitive {
            Primitive::Backcast => stack.backcast(&empty_group),
            Primitive::Pollcast => stack.pollcast(&empty_group),
        };
        if out != RcdOutcome::Silent {
            fp += 1;
        }
        let out = match primitive {
            Primitive::Backcast => stack.backcast(&hot_group),
            Primitive::Pollcast => stack.pollcast(&hot_group),
        };
        if out == RcdOutcome::Silent {
            fneg += 1;
        }
    }
    Rates {
        fp_rate: fp as f64 / half as f64,
        fn_rate: fneg as f64 / half as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InterferenceSweep {
        InterferenceSweep {
            queries_per_cell: 120,
            ..InterferenceSweep::default()
        }
    }

    #[test]
    fn backcast_fp_column_is_all_zero() {
        let table = build(&tiny());
        for row in &table.rows {
            assert_eq!(row[1], "0.00%", "backcast FP at duty {}", row[0]);
        }
    }

    #[test]
    fn pollcast_fp_grows_with_duty_cycle() {
        let table = build(&tiny());
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let quiet = parse(&table.rows[0][3]);
        let loud = parse(&table.rows.last().unwrap()[3]);
        assert_eq!(quiet, 0.0, "no interference, no pollcast FP");
        assert!(
            loud > 20.0,
            "heavy interference should fool pollcast, got {loud}%"
        );
    }

    #[test]
    fn heavy_interference_costs_backcast_some_hacks() {
        let table = build(&tiny());
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let loud_fn = parse(&table.rows.last().unwrap()[2]);
        let quiet_fn = parse(&table.rows[0][2]);
        assert!(
            loud_fn >= quiet_fn,
            "FN rate should not improve under interference"
        );
    }
}
