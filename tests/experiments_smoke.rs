//! Smoke tests: every figure builder produces well-formed output at a
//! reduced scale, and the rendered artifacts contain the series the paper
//! plots. (Shape assertions live next to each figure module; these tests
//! guard the harness plumbing end to end.)

use tcast_experiments::figures::{fig1, fig11, fig2, fig4, fig5, fig8, fig9};
use tcast_experiments::SweepSpec;
use tcast_motes::TestbedConfig;

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        n: 32,
        t: 4,
        runs: 25,
        seed: 123,
    }
}

#[test]
fn fig1_renders_all_four_series() {
    let fig = fig1::build(tiny_spec());
    assert_eq!(fig.series.len(), 4);
    let md = fig.to_markdown();
    for name in ["2tBins", "ExpIncrease", "CSMA", "Sequential"] {
        assert!(md.contains(name), "missing {name} in markdown");
    }
    let csv = fig.to_csv();
    assert!(csv.lines().count() > 4 * 10, "csv has per-point rows");
}

#[test]
fn fig2_has_both_models_per_algorithm() {
    let fig = fig2::build(tiny_spec());
    assert!(fig.series("2tBins 1+").is_some());
    assert!(fig.series("2tBins 2+").is_some());
    assert!(fig.series("ExpIncrease 2+").is_some());
}

/// The committed Figure 4 and its error table come out byte for byte
/// from the testbed harness at the default configuration and seed.
#[test]
fn fig4_and_the_error_table_reproduce_the_committed_results() {
    let (fig, table) = fig4::build(&TestbedConfig::default(), 20_110_516);
    assert_eq!(fig.to_csv(), include_str!("../results/fig4.csv"));
    assert_eq!(fig.to_markdown(), include_str!("../results/fig4.md"));
    assert_eq!(table.to_csv(), include_str!("../results/error-table.csv"));
    assert_eq!(
        table.to_markdown(),
        include_str!("../results/error-table.md")
    );
}

#[test]
fn fig5_includes_the_oracle_lower_bound() {
    let fig = fig5::build(tiny_spec());
    assert!(fig.series("Oracle").is_some());
    // Oracle never beaten by more than noise anywhere in the sweep sum.
    let oracle_sum: f64 = fig
        .series("Oracle")
        .unwrap()
        .points
        .iter()
        .map(|(_, s)| s.mean())
        .sum();
    let ttb_sum: f64 = fig
        .series("2tBins")
        .unwrap()
        .points
        .iter()
        .map(|(_, s)| s.mean())
        .sum();
    assert!(oracle_sum <= ttb_sum * 1.1 + 5.0);
}

#[test]
fn fig8_and_fig11_tables_render() {
    let t8 = fig8::build(64, 4.0);
    assert!(t8.to_markdown().contains("Delta"));
    let t11 = fig11::build(64, 4.0, 2_000, 3);
    assert_eq!(t11.rows.len(), 32);
    assert!(t11.to_csv().lines().count() > 30);
}

#[test]
fn fig9_accuracy_is_a_probability() {
    let spec = fig9::ProbSpec {
        n: 64,
        sigma: 4.0,
        runs: 60,
        seed: 5,
    };
    let a = fig9::accuracy(&spec, 16.0, 3);
    assert!(a.mean() >= 0.0 && a.mean() <= 1.0);
    assert_eq!(a.count(), 60);
}

#[test]
fn sweeps_reproduce_bit_for_bit() {
    let a = fig1::build(tiny_spec());
    let b = fig1::build(tiny_spec());
    assert_eq!(a.to_csv(), b.to_csv(), "same spec, same output");
}
