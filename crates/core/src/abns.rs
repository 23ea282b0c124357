//! Algorithm 3: Adaptive Bin Number Selection (ABNS), Section V.
//!
//! ABNS keeps a running estimate `p` of the unknown positive count `x` and
//! sizes each round with the optimum derived in Section V-A: `b = p + 1`
//! bins maximize the expected number of nodes eliminated per query
//! (Eq. (4)). After each round the estimate is refreshed from the observed
//! number of empty bins via Eq. (6):
//!
//! ```text
//! p = (ln e_real - ln b) / ln(1 - 1/b)
//! ```

use std::borrow::Cow;

use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::GroupQueryChannel;
use crate::engine::{self, ChannelMut, RoundStats, Session};
use crate::profile::ExecutionProfile;
use crate::querier::ThresholdQuerier;
use crate::types::{NodeId, QueryReport};

/// Initial estimate `p0` for ABNS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialEstimate {
    /// `p0 = factor * t`. The paper evaluates factors 1 and 2.
    FactorOfT(f64),
    /// A fixed absolute estimate (used by probabilistic ABNS: `t/4`).
    Fixed(f64),
}

/// The ABNS algorithm.
#[derive(Debug, Clone)]
pub struct Abns {
    /// Initial `p` estimate.
    pub p0: InitialEstimate,
    /// Borrowed for the paper's two configurations, so building one for
    /// a job allocates nothing.
    name: Cow<'static, str>,
}

impl Abns {
    /// ABNS with `p0 = t` — the paper's small-`x`-friendly configuration.
    pub fn p0_t() -> Self {
        Self::with_p0(InitialEstimate::FactorOfT(1.0))
    }

    /// ABNS with `p0 = 2t` — the paper's default configuration.
    pub fn p0_2t() -> Self {
        Self::with_p0(InitialEstimate::FactorOfT(2.0))
    }

    /// ABNS with an arbitrary initial estimate.
    pub fn with_p0(p0: InitialEstimate) -> Self {
        let name = match p0 {
            InitialEstimate::FactorOfT(f) => {
                if f == 1.0 {
                    Cow::Borrowed("ABNS(p0=t)")
                } else if f == 2.0 {
                    Cow::Borrowed("ABNS(p0=2t)")
                } else {
                    Cow::Owned(format!("ABNS(p0={f}t)"))
                }
            }
            InitialEstimate::Fixed(v) => Cow::Owned(format!("ABNS(p0={v})")),
        };
        Self { p0, name }
    }

    fn initial_p(&self, t: usize) -> f64 {
        match self.p0 {
            InitialEstimate::FactorOfT(f) => f * t as f64,
            InitialEstimate::Fixed(v) => v,
        }
    }

    /// The round policy for threshold `t`.
    pub(crate) fn policy(&self, t: usize) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
        policy(self.initial_p(t))
    }
}

/// The ABNS round policy from the initial estimate `p0`: `b = p + 1`
/// with `p` refreshed from Eq. (6).
pub(crate) fn policy(p0: f64) -> impl FnMut(&Session, Option<&RoundStats>) -> usize {
    let mut p = p0.max(0.0);
    move |session, last| {
        if let Some(stats) = last {
            p = estimate_p(
                stats.silent_bins,
                stats.queried_bins,
                session.remaining_len(),
            );
        }
        // Line 6: b_i = p_i + 1.
        (p.round() as usize).saturating_add(1)
    }
}

/// Eq. (6) with a half-count continuity correction: `e_real = 0` would send
/// the estimate to infinity (every bin non-empty says only that `x` is
/// *large*), so zero counts are replaced by 0.5 — the standard correction
/// for log-of-count estimators. The result is clamped to `[0, n]`, the only
/// physically meaningful range.
pub fn estimate_p(e_real: usize, b: usize, n: usize) -> f64 {
    if b <= 1 {
        // A single bin yields no ratio information; an empty bin means
        // everything was eliminated, a non-empty one only that x >= 1.
        return if e_real == 0 { n as f64 } else { 0.0 };
    }
    let e = if e_real == 0 { 0.5 } else { e_real as f64 };
    let b_f = b as f64;
    if e >= b_f {
        return 0.0;
    }
    let p = (e.ln() - b_f.ln()) / (1.0 - 1.0 / b_f).ln();
    p.clamp(0.0, n as f64)
}

impl ThresholdQuerier for Abns {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_with_profile(
        &self,
        nodes: &[NodeId],
        t: usize,
        channel: &mut dyn GroupQueryChannel,
        rng: &mut dyn RngCore,
        profile: ExecutionProfile,
        scratch: &mut EngineScratch,
    ) -> QueryReport {
        engine::drive_with_scratch(
            nodes,
            t,
            ChannelMut::Single(channel),
            rng,
            profile,
            scratch,
            self.policy(t),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::types::{population, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn run_case(alg: &Abns, n: usize, x: usize, t: usize, seed: u64) -> QueryReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ch_seed = rng.random();
        let mut ch =
            IdealChannel::with_random_positives(n, x, CollisionModel::OnePlus, ch_seed, &mut rng);
        alg.run(&population(n), t, &mut ch, &mut rng)
    }

    #[test]
    fn verdict_is_exact_on_ideal_channel() {
        for alg in [Abns::p0_t(), Abns::p0_2t()] {
            for seed in 0..15 {
                for &(n, x, t) in &[
                    (32usize, 0usize, 4usize),
                    (32, 3, 4),
                    (32, 4, 4),
                    (32, 32, 4),
                    (128, 8, 16),
                    (128, 16, 16),
                    (128, 64, 16),
                ] {
                    let r = run_case(&alg, n, x, t, seed);
                    assert_eq!(r.answer, x >= t, "{} n={n} x={x} t={t}", alg.name());
                }
            }
        }
    }

    #[test]
    fn estimate_p_recovers_the_true_scale() {
        // With x positives in b bins, E[empty bins] = b (1 - 1/b)^x;
        // feeding that expectation back must return ~x.
        for &(x, b) in &[(4usize, 9usize), (16, 17), (32, 33), (8, 64)] {
            let e_expected = b as f64 * (1.0 - 1.0 / b as f64).powi(x as i32);
            let p = estimate_p(e_expected.round() as usize, b, 1000);
            assert!(
                (p - x as f64).abs() <= x as f64 * 0.5 + 2.0,
                "x={x} b={b}: estimated {p}"
            );
        }
    }

    #[test]
    fn estimate_p_edge_cases() {
        assert_eq!(estimate_p(5, 5, 100), 0.0, "all bins empty => x ~ 0");
        assert_eq!(estimate_p(1, 1, 100), 0.0);
        assert_eq!(estimate_p(0, 1, 100), 100.0);
        let huge = estimate_p(0, 8, 100);
        assert!(huge > 10.0, "no empty bins => large estimate, got {huge}");
        assert!(huge <= 100.0, "estimate is clamped to n");
    }

    #[test]
    fn first_round_uses_p0_plus_one_bins() {
        let r = run_case(&Abns::p0_2t(), 128, 8, 16, 1);
        assert_eq!(r.trace[0].bins, 33, "p0 = 2t = 32 => b = 33");
        let r = run_case(&Abns::p0_t(), 128, 8, 16, 1);
        assert_eq!(r.trace[0].bins, 17, "p0 = t = 16 => b = 17");
    }

    #[test]
    fn cheaper_than_twotbins_for_small_x() {
        use crate::twotbins::TwoTBins;
        let (n, t, x) = (128, 16, 2);
        let (mut abns_total, mut ttb_total) = (0u64, 0u64);
        for seed in 0..200 {
            abns_total += run_case(&Abns::p0_t(), n, x, t, seed).queries;
            let mut rng = SmallRng::seed_from_u64(seed);
            let ch_seed = rng.random();
            let mut ch = IdealChannel::with_random_positives(
                n,
                x,
                CollisionModel::OnePlus,
                ch_seed,
                &mut rng,
            );
            ttb_total += TwoTBins.run(&population(n), t, &mut ch, &mut rng).queries;
        }
        assert!(
            abns_total < ttb_total,
            "ABNS(p0=t) {abns_total} should beat 2tBins {ttb_total} at x << t"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Abns::p0_t().name(), "ABNS(p0=t)");
        assert_eq!(Abns::p0_2t().name(), "ABNS(p0=2t)");
        assert_eq!(
            Abns::with_p0(InitialEstimate::Fixed(4.0)).name(),
            "ABNS(p0=4)"
        );
    }
}
