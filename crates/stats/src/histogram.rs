//! Fixed-width histograms (used to regenerate Figure 11 and to summarize
//! per-group-size error counts in the testbed experiments).

/// A histogram over `[lo, hi)` with equally sized bins. Out-of-range samples
/// are tallied in dedicated underflow/overflow counters so total mass is
/// never silently lost; the observed min and max bound every quantile.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "empty histogram range [{lo}, {hi})");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Floating-point edge: value just below `hi` can round to len().
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Folds another histogram's mass into this one, bin by bin.
    ///
    /// Both histograms must share the same geometry (range and bin
    /// count); per-worker metric shards are created from one constructor,
    /// so folding them at snapshot time always satisfies this.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different geometry: \
             [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len(),
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `idx`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Samples below `lo` / at-or-above `hi`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded (in range or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive-exclusive bounds of bin `idx`.
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let lo = self.lo + idx as f64 * width;
        (lo, lo + width)
    }

    /// Center of bin `idx` (x-coordinate when plotting).
    pub fn bin_center(&self, idx: usize) -> f64 {
        let (lo, hi) = self.bin_range(idx);
        0.5 * (lo + hi)
    }

    /// Fraction of all recorded samples in bin `idx`.
    pub fn frequency(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[idx] as f64 / self.total as f64
        }
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.bins()).map(move |i| (self.bin_center(i), self.counts[i]))
    }

    /// Value at quantile `q` (clamped to `[0, 1]`), linearly interpolated
    /// within the containing bin, then clamped to the observed
    /// `[min, max]` of the recorded samples.
    ///
    /// Out-of-range mass resolves to the nearest bound: a rank landing in
    /// the underflow counter reports `lo`, one landing in the overflow
    /// counter reports `hi`. Both are honest one-sided bounds — the true
    /// sample is at most `lo` / at least `hi` — which is the best a
    /// fixed-range histogram can say. An empty histogram reports `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bin_quantile(q).max(self.min).min(self.max)
    }

    /// The unclamped quantile: interpolated within the bins, with
    /// out-of-range mass at the nearest bound.
    fn bin_quantile(&self, q: f64) -> f64 {
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = self.underflow as f64;
        if rank <= seen {
            return self.lo;
        }
        for idx in 0..self.counts.len() {
            let c = self.counts[idx] as f64;
            if c > 0.0 && rank <= seen + c {
                let (b_lo, b_hi) = self.bin_range(idx);
                return b_lo + (rank - seen) / c * (b_hi - b_lo);
            }
            seen += c;
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.99);
        h.record(5.5);
        h.record(9.999);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // hi is exclusive
        h.record(7.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn mass_is_conserved() {
        let mut h = Histogram::new(-5.0, 5.0, 7);
        for i in -100..100 {
            h.record(i as f64 / 10.0);
        }
        let in_bins: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        assert_eq!(in_bins + h.underflow() + h.overflow(), h.total());
        assert_eq!(h.total(), 200);
    }

    #[test]
    fn bin_geometry() {
        let h = Histogram::new(0.0, 8.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 2.0));
        assert_eq!(h.bin_range(3), (6.0, 8.0));
        assert_eq!(h.bin_center(1), 3.0);
    }

    #[test]
    fn frequency_normalizes_by_total() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        h.record(0.6);
        h.record(1.5);
        h.record(99.0); // overflow still counts in the denominator
        assert_eq!(h.frequency(0), 0.5);
        assert_eq!(h.frequency(1), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn merge_folds_counts_and_flows() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        a.record(1.5);
        a.record(-1.0);
        let mut b = Histogram::new(0.0, 10.0, 10);
        b.record(1.7);
        b.record(42.0);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn quantiles_interpolate_within_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        // 10 samples per 10-wide bin: the quantile curve is (nearly) the
        // identity, up to the linear interpolation within one bin.
        assert!((h.quantile(0.5) - 50.0).abs() < 1.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 90.0).abs() < 1.0);
        assert_eq!(
            h.quantile(1.0),
            99.0,
            "the top bin's bound clamps to the max seen"
        );
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn in_range_quantiles_stay_within_the_observed_samples() {
        // Regression: two samples in one 2ms bin reported a p99 of 1980
        // against an observed max of 300 — the bin's upper bound leaked.
        let mut h = Histogram::new(0.0, 100_000.0, 50);
        h.record(100.0);
        h.record(300.0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((100.0..=300.0).contains(&v), "q{q} = {v}");
        }
        assert_eq!(h.quantile(0.99), 300.0);
        assert_eq!(h.quantile(0.0), 100.0);
    }

    #[test]
    fn underflow_quantiles_clamp_to_the_observed_range() {
        let mut h = Histogram::new(10.0, 20.0, 2);
        h.record(2.0);
        h.record(4.0);
        // Every rank lands in the underflow counter, whose bound `lo` is
        // above anything seen: the max seen is the honest answer.
        assert_eq!(h.quantile(0.5), 4.0);
        assert_eq!(h.quantile(0.0), 4.0);
    }

    #[test]
    fn overflow_quantiles_clamp_to_the_observed_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(50.0);
        h.record(70.0);
        // The overflow bound `hi` is below anything seen: the min seen is
        // the tightest value still inside the observed range.
        assert_eq!(h.quantile(0.99), 50.0);
        h.record(5.0);
        assert_eq!(
            h.quantile(0.1),
            5.0,
            "an in-range rank clamps up to the min"
        );
    }

    #[test]
    fn merged_histograms_clamp_to_the_union_of_ranges() {
        let mut a = Histogram::new(0.0, 1000.0, 10);
        a.record(110.0);
        let mut b = Histogram::new(0.0, 1000.0, 10);
        b.record(150.0);
        b.record(-5.0);
        a.merge(&b);
        assert_eq!(a.quantile(0.99), 150.0, "max comes from the other side");
        assert_eq!(a.quantile(0.01), 0.0, "underflow bound is inside [-5, 150]");
        let empty = Histogram::new(0.0, 1000.0, 10);
        a.merge(&empty);
        assert_eq!(
            a.quantile(0.99),
            150.0,
            "an empty merge leaves the range alone"
        );
    }

    #[test]
    fn quantile_bounds_out_of_range_mass() {
        let mut h = Histogram::new(10.0, 20.0, 2);
        h.record(0.0); // underflow
        h.record(15.0);
        h.record(99.0); // overflow
        assert_eq!(h.quantile(0.1), 10.0, "underflow mass reports lo");
        assert_eq!(h.quantile(0.99), 20.0, "overflow mass reports hi");
        let mid = h.quantile(0.5);
        assert!((15.0..=20.0).contains(&mid), "{mid}");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 10.0, 5);
        a.merge(&b);
    }
}
