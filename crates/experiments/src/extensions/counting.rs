//! Counting study: what the threshold primitive saves over exact counting.
//!
//! The intro's classification use-case ("is it a soldier, a car, or a
//! tank?") can be served either by counting detections exactly (countcast,
//! our group-testing extension) or by a handful of threshold queries at
//! the class boundaries. This table quantifies both, per x, under both
//! collision models.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::counting::count_positives;
use tcast::{population, ChannelSpec, CollisionModel, ThresholdQuerier, TwoTBins};
use tcast_stats::Summary;

use crate::output::Table;
use crate::runner::SweepSpec;
use crate::seeding::derive;

/// Runs the study.
pub fn build(spec: SweepSpec) -> Table {
    let mut table = Table::new(
        "ext-counting",
        &format!(
            "Exact counting vs threshold querying (N={}, t={}, {} runs/point)",
            spec.n, spec.t, spec.runs
        ),
        &[
            "x",
            "count 1+",
            "count 2+",
            "tcast 2tBins",
            "count/tcast ratio",
        ],
    );

    let xs = [0usize, 1, 2, 4, 8, 16, 32, 64, spec.n]
        .into_iter()
        .filter(|&x| x <= spec.n)
        .collect::<Vec<_>>();
    for x in xs {
        let count1 = summarize(spec, x, CollisionModel::OnePlus, true);
        let count2 = summarize(spec, x, CollisionModel::two_plus_default(), true);
        let tcast = summarize(spec, x, CollisionModel::OnePlus, false);
        let ratio = if tcast.mean() > 0.0 {
            count1.mean() / tcast.mean()
        } else {
            f64::INFINITY
        };
        table.push_row(vec![
            x.to_string(),
            format!("{:.1}", count1.mean()),
            format!("{:.1}", count2.mean()),
            format!("{:.1}", tcast.mean()),
            if ratio.is_finite() {
                format!("{ratio:.1}x")
            } else {
                "inf".into()
            },
        ]);
    }
    table
}

fn summarize(spec: SweepSpec, x: usize, model: CollisionModel, counting: bool) -> Summary {
    let mut out = Summary::new();
    let nodes = population(spec.n);
    for run in 0..spec.runs {
        let seed = derive(spec.seed, &[u64::from(counting), x as u64, run as u64]);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut ch, _) =
            tcast_adversary::sample_with(&ChannelSpec::ideal(spec.n, x, model), &mut rng);
        let queries = if counting {
            let report = count_positives(&nodes, ch.as_mut(), &mut rng);
            assert_eq!(report.count, x, "countcast must be exact");
            report.queries
        } else {
            TwoTBins.run(&nodes, spec.t, ch.as_mut(), &mut rng).queries
        };
        out.record(queries as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepSpec {
        SweepSpec {
            n: 64,
            t: 8,
            runs: 60,
            seed: 3,
        }
    }

    #[test]
    fn counting_never_cheaper_than_threshold_at_large_x() {
        let table = build(tiny());
        // Last row: x = n. Counting must identify everyone; tcast stops at t.
        let row = table.rows.last().unwrap();
        let count: f64 = row[1].parse().unwrap();
        let tcast: f64 = row[3].parse().unwrap();
        assert!(count > 2.0 * tcast, "count {count} vs tcast {tcast}");
    }

    #[test]
    fn capture_helps_counting() {
        let table = build(tiny());
        // At moderate x, the 2+ column should be at or below the 1+ column.
        let mid = &table.rows[5]; // x = 16
        let c1: f64 = mid[1].parse().unwrap();
        let c2: f64 = mid[2].parse().unwrap();
        assert!(c2 <= c1 + 1.0, "2+ counting {c2} vs 1+ {c1}");
    }
}
