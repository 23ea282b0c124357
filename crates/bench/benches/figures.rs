//! One arm per paper figure/table: times the regeneration of each
//! artifact at a reduced (but shape-preserving) scale. The full-scale
//! numbers are produced by the `tcast-experiments` binary; this bench
//! keeps the regeneration cost visible.
//!
//! Output: one JSON document of median nanoseconds per regeneration on
//! stdout; progress on stderr.

use tcast_bench::{median_ns, Report};
use tcast_experiments::figures::{
    fig1, fig10, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
};
use tcast_experiments::SweepSpec;
use tcast_motes::TestbedConfig;
use tcast_rcd::{Primitive, RcdConfig};

/// Samples per arm; each sample regenerates its artifact `iters` times.
const SAMPLES: usize = 11;

fn bench_spec() -> SweepSpec {
    SweepSpec {
        n: 64,
        t: 8,
        runs: 30,
        seed: 42,
    }
}

fn prob_spec() -> fig9::ProbSpec {
    fig9::ProbSpec {
        n: 128,
        sigma: 4.0,
        runs: 60,
        seed: 42,
    }
}

fn testbed_cfg() -> TestbedConfig {
    TestbedConfig {
        participants: 12,
        thresholds: vec![2, 4, 6],
        runs_per_config: 5,
        rcd: RcdConfig::testbed(),
        primitive: Primitive::Backcast,
    }
}

fn main() {
    let testbed = testbed_cfg();
    let prob = prob_spec();
    let mut r = Report::new("figures", "ns_per_call");
    r.arm(
        "fig1_oneplus",
        median_ns(SAMPLES, 5, || fig1::build(bench_spec())),
    );
    r.arm(
        "fig2_twoplus",
        median_ns(SAMPLES, 5, || fig2::build(bench_spec())),
    );
    r.arm(
        "fig3_threshold_sweep",
        median_ns(SAMPLES, 10, || fig3::build(bench_spec())),
    );
    r.arm(
        "fig4_motes",
        median_ns(SAMPLES, 5, || fig4::build(&testbed, 42)),
    );
    r.arm(
        "table_error_rates",
        median_ns(SAMPLES, 5, || tcast_motes::run_testbed(&testbed, 43).errors),
    );
    r.arm(
        "fig5_abns",
        median_ns(SAMPLES, 5, || fig5::build(bench_spec())),
    );
    r.arm(
        "fig6_prob_abns",
        median_ns(SAMPLES, 5, || fig6::build(bench_spec())),
    );
    r.arm(
        "fig7_vs_csma",
        median_ns(SAMPLES, 10, || fig7::build(fig7::paper_spec(42, 30))),
    );
    r.arm(
        "fig8_gap_table",
        median_ns(SAMPLES, 500, || fig8::build(128, 4.0)),
    );
    r.arm(
        "fig9_accuracy",
        median_ns(SAMPLES, 100, || fig9::accuracy(&prob, 24.0, 5)),
    );
    r.arm(
        "fig10_repeats",
        median_ns(SAMPLES, 20, || fig10::measured_repeats(&prob, 32.0, 0.9)),
    );
    r.arm(
        "fig11_histograms",
        median_ns(SAMPLES, 50, || fig11::build(128, 4.0, 5_000, 42)),
    );
    r.print();
}
