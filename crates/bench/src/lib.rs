//! The one timing harness of the micro-benches under `benches/`. Each
//! bench is a plain `main`: it builds its state, times every arm with
//! [`median_ns`], and prints one JSON document through [`Report`] on
//! stdout, progress on stderr.

use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per iteration of `f`, after one warm-up pass.
pub fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median nanoseconds per call of `f` over `samples` [`time_ns`] samples
/// of `iters` calls each. Whatever `f` captures is built by the caller,
/// outside the timer, and its result goes through [`black_box`]. A
/// preempted sample moves the median by one rank, not by its length.
pub fn median_ns<T>(samples: usize, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            time_ns(iters, || {
                black_box(f());
            })
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// One bench's timed arms, printed as one JSON document in
/// `obs_plane`'s layout: `{"bench":…,"cpus":…,"<unit>":{"<arm>":value,…}}`.
pub struct Report {
    bench: &'static str,
    unit: &'static str,
    arms: Vec<(String, f64)>,
}

impl Report {
    pub fn new(bench: &'static str, unit: &'static str) -> Self {
        Self {
            bench,
            unit,
            arms: Vec::new(),
        }
    }

    /// Adds one arm and echoes it on stderr.
    pub fn arm(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        eprintln!("{name:<44} {value:>14.2} {}", self.unit);
        self.arms.push((name, value));
    }

    /// Prints the document on stdout.
    pub fn print(&self) {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let arms: Vec<String> = self
            .arms
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value:.2}"))
            .collect();
        println!(
            "{{\"bench\":\"{}\",\"cpus\":{cpus},\"{}\":{{{}}}}}",
            self.bench,
            self.unit,
            arms.join(",")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_runs_every_sample_and_its_warm_up() {
        let mut calls = 0u64;
        let ns = median_ns(5, 100, || calls += 1);
        assert_eq!(calls, 5 * 110);
        assert!(ns >= 0.0);
    }
}
