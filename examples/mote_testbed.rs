//! The Section IV-D mote testbed, end to end over the simulated PHY.
//!
//! 12 participant TelosB-style motes plus an initiator; 2tBins over
//! backcast hardware ACKs; thresholds {2, 4, 6}.
//! Prints the Figure 4 query-cost curves and the error-rate table
//! (the paper reports 0 false positives and 1.4% false negatives,
//! concentrated at single-HACK groups).
//!
//! ```text
//! cargo run --release --example mote_testbed
//! ```

use tcast_motes::{run_testbed, TestbedConfig};

fn main() {
    let cfg = TestbedConfig {
        runs_per_config: 50, // 100 in the paper; 50 keeps the example snappy
        ..TestbedConfig::default()
    };
    println!(
        "testbed: {} participants, thresholds {:?}, {} runs/config, full CC2420-style PHY\n",
        cfg.participants, cfg.thresholds, cfg.runs_per_config
    );

    let report = run_testbed(&cfg, 20110516);

    for &t in &cfg.thresholds {
        println!("t = {t}:  x -> mean backcast queries (95% CI)");
        for row in report.rows_for_t(t) {
            let bar = "#".repeat(row.queries.mean().round() as usize);
            println!(
                "  x={:>2}  {:>6.2} ±{:>4.2}  {}",
                row.x,
                row.queries.mean(),
                row.queries.ci95_half_width(),
                bar
            );
        }
        println!();
    }

    let e = &report.errors;
    println!("error statistics over {} tcast sessions:", e.total_runs);
    println!("  false positives : {}", e.false_positive_runs);
    println!(
        "  false negatives : {} ({:.2}%)",
        e.false_negative_runs,
        100.0 * e.run_error_rate()
    );
    println!("\nper-group-size false-negative rates (backcast exchanges):");
    for (k, &(queries, silent)) in e.group_queries_by_k.iter().enumerate() {
        if queries == 0 || k == 0 {
            continue;
        }
        println!(
            "  k={k} positives: {silent}/{queries} missed = {:.2}%",
            100.0 * silent as f64 / queries as f64
        );
    }
    println!("\n(the paper: majority of false negatives occur at k=1; superposed");
    println!(" HACKs slash the error rate — compare the k=1 row against k>=2)");
}
