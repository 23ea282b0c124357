//! Declarative service-level objectives evaluated in-process.
//!
//! An [`Objective`] names a good-event target over a signal — e.g.
//! "99.9% of jobs finish under 50 ms", "99.99% of sessions raise no
//! adversary anomaly", "99% of auth handshakes succeed". A
//! [`SloTracker`] holds a bucketed sliding window per objective and
//! answers, at any instant:
//!
//! * **burn rate** over a short and a long window — the ratio of the
//!   observed bad fraction to the budgeted bad fraction `1 - target`.
//!   Burn 1.0 spends exactly the error budget over the window; burn 14.4
//!   (the classic fast-burn page threshold) exhausts a 30-day budget in
//!   ~2 days.
//! * **error budget remaining** — `max(0, 1 - burn_long)`: the fraction
//!   of the long window's budget left at the current long-window burn.
//! * a **fast-burn flag** — `burn_short >= 14.4` with at least one
//!   bad event in the short window, the page-worthy condition.
//!
//! Feeds are two calls on the hot path (`observe` / `observe_latency`),
//! each a handful of atomics on a time-bucketed ring — no allocation,
//! no lock. The service's `MetricsRegistry` exposes the snapshot as
//! gated `tcast_slo_*` Prometheus series, and the cluster front-end
//! folds shard burn rates into routing weights.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which event stream feeds an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Per-job end-to-end latency; bad = failed or over the objective's
    /// latency threshold.
    Latency,
    /// Per-session verdict trustworthiness; bad = the session raised
    /// adversary anomalies (the in-process proxy for wrong-verdict
    /// risk — ground truth is unknowable online).
    Verdict,
    /// Per-handshake authentication outcome; bad = auth failure.
    Auth,
}

impl SloSignal {
    /// Stable lowercase name used in metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            SloSignal::Latency => "latency",
            SloSignal::Verdict => "verdict",
            SloSignal::Auth => "auth",
        }
    }
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Objective name, the `objective` label on every exported series.
    pub name: String,
    /// The signal feeding this objective.
    pub signal: SloSignal,
    /// Target good fraction in `(0, 1)`, e.g. `0.999`.
    pub target: f64,
    /// For [`SloSignal::Latency`]: the threshold in microseconds above
    /// which a successful job still counts as bad. Ignored otherwise.
    pub latency_threshold_us: f64,
}

/// Short-window burn rate at or above which the fast-burn flag raises:
/// the classic paging threshold.
const FAST_BURN: f64 = 14.4;

impl Objective {
    /// A latency objective: `target` of jobs must finish (successfully)
    /// within `threshold_us` microseconds.
    pub fn latency(name: impl Into<String>, threshold_us: f64, target: f64) -> Objective {
        Objective {
            name: name.into(),
            signal: SloSignal::Latency,
            target,
            latency_threshold_us: threshold_us,
        }
    }

    /// A verdict-trust objective: `target` of sessions must complete
    /// without adversary anomalies.
    pub fn verdicts(name: impl Into<String>, target: f64) -> Objective {
        Objective {
            name: name.into(),
            signal: SloSignal::Verdict,
            target,
            latency_threshold_us: 0.0,
        }
    }

    /// An auth objective: `target` of handshakes must succeed.
    pub fn auth(name: impl Into<String>, target: f64) -> Objective {
        Objective {
            name: name.into(),
            signal: SloSignal::Auth,
            target,
            latency_threshold_us: 0.0,
        }
    }
}

/// Point-in-time evaluation of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// Signal label (see [`SloSignal::name`]).
    pub signal: &'static str,
    /// Good events in the long window.
    pub good: u64,
    /// Bad events in the long window.
    pub bad: u64,
    /// Burn rate over the short window.
    pub burn_short: f64,
    /// Burn rate over the long window.
    pub burn_long: f64,
    /// `max(0, 1 - burn_long)`.
    pub budget_remaining: f64,
    /// Whether the fast-burn condition holds right now.
    pub fast_burn: bool,
}

/// Buckets per objective ring. The long window divides into this many
/// slots; the short window must cover at least one slot.
const BUCKETS: usize = 64;

struct Bucket {
    /// Absolute bucket index this slot currently holds (u64::MAX =
    /// never written).
    epoch: AtomicU64,
    good: AtomicU64,
    bad: AtomicU64,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            epoch: AtomicU64::new(u64::MAX),
            good: AtomicU64::new(0),
            bad: AtomicU64::new(0),
        }
    }
}

struct ObjectiveState {
    spec: Objective,
    buckets: Vec<Bucket>,
}

impl ObjectiveState {
    /// Adds one event to the bucket owning `now_ms`. A slot left over
    /// from a previous ring revolution is reset first; the reset races
    /// only with other writers of the *same* new epoch, so at worst a
    /// concurrent increment of the expiring epoch is lost — bounded,
    /// self-healing staleness, never corruption.
    fn observe(&self, good: bool, now_ms: u64, bucket_ms: u64) {
        let abs = now_ms / bucket_ms;
        let slot = &self.buckets[(abs as usize) % BUCKETS];
        if slot.epoch.load(Ordering::Acquire) != abs {
            slot.good.store(0, Ordering::Relaxed);
            slot.bad.store(0, Ordering::Relaxed);
            slot.epoch.store(abs, Ordering::Release);
        }
        if good {
            slot.good.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.bad.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sums (good, bad) over the buckets covering the last `window_ms`.
    fn window_totals(&self, now_ms: u64, bucket_ms: u64, window_ms: u64) -> (u64, u64) {
        let newest = now_ms / bucket_ms;
        let span = (window_ms / bucket_ms).max(1).min(BUCKETS as u64);
        let oldest = newest.saturating_sub(span - 1);
        let (mut good, mut bad) = (0u64, 0u64);
        for abs in oldest..=newest {
            let slot = &self.buckets[(abs as usize) % BUCKETS];
            if slot.epoch.load(Ordering::Acquire) == abs {
                good += slot.good.load(Ordering::Relaxed);
                bad += slot.bad.load(Ordering::Relaxed);
            }
        }
        (good, bad)
    }
}

fn burn(good: u64, bad: u64, target: f64) -> f64 {
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    let budget = (1.0 - target).max(f64::EPSILON);
    (bad as f64 / total as f64) / budget
}

/// Sliding-window evaluator for a set of [`Objective`]s. Cheap to feed
/// from hot paths; share via `Arc`.
pub struct SloTracker {
    objectives: Vec<ObjectiveState>,
    short_ms: u64,
    long_ms: u64,
    bucket_ms: u64,
    epoch: Instant,
}

impl SloTracker {
    /// A tracker over `objectives` with the default windows: 1 minute
    /// short, 10 minutes long.
    pub fn new(objectives: Vec<Objective>) -> SloTracker {
        SloTracker::with_windows(objectives, 60_000, 600_000)
    }

    /// A tracker with explicit window lengths in milliseconds. The long
    /// window is divided into `BUCKETS` (64) slots; both windows are
    /// rounded up to at least one slot.
    pub fn with_windows(objectives: Vec<Objective>, short_ms: u64, long_ms: u64) -> SloTracker {
        let long_ms = long_ms.max(BUCKETS as u64);
        let bucket_ms = (long_ms / BUCKETS as u64).max(1);
        SloTracker {
            objectives: objectives
                .into_iter()
                .map(|spec| ObjectiveState {
                    spec,
                    buckets: (0..BUCKETS).map(|_| Bucket::new()).collect(),
                })
                .collect(),
            short_ms: short_ms.clamp(bucket_ms, long_ms),
            long_ms,
            bucket_ms,
            epoch: Instant::now(),
        }
    }

    /// Whether any objective is registered.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Feed one event of `signal`.
    pub fn observe(&self, signal: SloSignal, good: bool) {
        self.observe_at_ms(signal, good, self.now_ms());
    }

    /// Feed one job latency: `us` microseconds, `failed` when the job
    /// errored. Feeds every [`SloSignal::Latency`] objective (bad when
    /// failed or over the objective's threshold).
    pub fn observe_latency(&self, us: f64, failed: bool) {
        let now_ms = self.now_ms();
        for o in &self.objectives {
            if o.spec.signal == SloSignal::Latency {
                let good = !failed && us <= o.spec.latency_threshold_us;
                o.observe(good, now_ms, self.bucket_ms);
            }
        }
    }

    /// Test seam: like [`Self::observe`] at an explicit tracker-relative
    /// time, for deterministic window tests.
    pub fn observe_at_ms(&self, signal: SloSignal, good: bool, now_ms: u64) {
        for o in &self.objectives {
            if o.spec.signal == signal {
                o.observe(good, now_ms, self.bucket_ms);
            }
        }
    }

    /// Evaluate every objective now.
    pub fn snapshot(&self) -> Vec<SloStatus> {
        self.snapshot_at_ms(self.now_ms())
    }

    /// Test seam: evaluate at an explicit tracker-relative time.
    pub fn snapshot_at_ms(&self, now_ms: u64) -> Vec<SloStatus> {
        self.objectives
            .iter()
            .map(|o| {
                let (good_s, bad_s) = o.window_totals(now_ms, self.bucket_ms, self.short_ms);
                let (good_l, bad_l) = o.window_totals(now_ms, self.bucket_ms, self.long_ms);
                let burn_short = burn(good_s, bad_s, o.spec.target);
                let burn_long = burn(good_l, bad_l, o.spec.target);
                SloStatus {
                    name: o.spec.name.clone(),
                    signal: o.spec.signal.name(),
                    good: good_l,
                    bad: bad_l,
                    burn_short,
                    burn_long,
                    budget_remaining: (1.0 - burn_long).max(0.0),
                    fast_burn: bad_s > 0 && burn_short >= FAST_BURN,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> SloTracker {
        // 1 s short, 64 s long => 1 s buckets.
        SloTracker::with_windows(
            vec![
                Objective::latency("e2e_latency_p99", 1_000.0, 0.99),
                Objective::verdicts("verdict_trust", 0.999),
                Objective::auth("auth_success", 0.99),
            ],
            1_000,
            64_000,
        )
    }

    #[test]
    fn all_good_events_leave_the_budget_untouched() {
        let t = tracker();
        for k in 0..1000 {
            t.observe_at_ms(SloSignal::Auth, true, k);
        }
        let auth = &t.snapshot_at_ms(1000)[2];
        assert_eq!((auth.good, auth.bad), (1000, 0));
        assert_eq!(auth.burn_short, 0.0);
        assert_eq!(auth.budget_remaining, 1.0);
        assert!(!auth.fast_burn);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let t = tracker();
        // 2% bad on a 1% budget => burn 2.0 on both windows.
        for k in 0..100 {
            t.observe_at_ms(SloSignal::Auth, k % 50 != 0, 500);
        }
        let auth = &t.snapshot_at_ms(500)[2];
        assert_eq!((auth.good, auth.bad), (98, 2));
        assert!((auth.burn_short - 2.0).abs() < 1e-9, "{}", auth.burn_short);
        assert!((auth.burn_long - 2.0).abs() < 1e-9);
        assert!((auth.budget_remaining - 0.0).abs() < 1e-9);
        assert!(!auth.fast_burn, "burn 2.0 is below the 14.4 page line");
    }

    #[test]
    fn fast_burn_raises_on_a_failure_spike_and_clears_as_it_ages_out() {
        let t = tracker();
        // A burst where 30% of jobs blow the deadline: burn 30x on a 1%
        // budget.
        for k in 0..100 {
            if k % 10 < 3 {
                t.observe_latency(5_000.0, true); // over threshold + failed
            } else {
                t.observe_latency(100.0, false);
            }
            let _ = k;
        }
        let lat = &t.snapshot()[0];
        assert!(lat.fast_burn, "30x burn must raise the fast-burn flag");
        assert!(lat.burn_short > 14.4);
        // 70 s later the burst has left both windows entirely.
        let later = t.now_ms() + 70_000;
        let lat = &t.snapshot_at_ms(later)[0];
        assert_eq!((lat.good, lat.bad), (0, 0));
        assert!(!lat.fast_burn);
        assert_eq!(lat.budget_remaining, 1.0);
    }

    #[test]
    fn short_window_recovers_before_the_long_window() {
        let t = tracker();
        // Bad minute at t=0..1s, then clean traffic for 10 s.
        for _ in 0..50 {
            t.observe_at_ms(SloSignal::Verdict, false, 100);
        }
        for k in 0..100 {
            t.observe_at_ms(SloSignal::Verdict, true, 2_000 + k * 80);
        }
        let s = &t.snapshot_at_ms(10_000)[1];
        assert_eq!(s.burn_short, 0.0, "bad burst left the short window");
        assert!(s.burn_long > 1.0, "long window still remembers the burst");
        assert!(!s.fast_burn);
    }

    #[test]
    fn latency_threshold_splits_good_from_bad() {
        let t = tracker();
        t.observe_latency(999.0, false); // good
        t.observe_latency(1_001.0, false); // bad: over threshold
        t.observe_latency(10.0, true); // bad: failed
        let lat = &t.snapshot()[0];
        assert_eq!((lat.good, lat.bad), (1, 2));
        // Latency feeds must not leak into other signals.
        let verdict = &t.snapshot()[1];
        assert_eq!((verdict.good, verdict.bad), (0, 0));
    }

    #[test]
    fn ring_revolution_resets_stale_slots() {
        let t = tracker();
        t.observe_at_ms(SloSignal::Auth, false, 500);
        // One full revolution later (64 buckets * 1 s), the same slot
        // index is reused for a new epoch; the stale count must not
        // resurface.
        t.observe_at_ms(SloSignal::Auth, true, 500 + 64_000);
        let s = &t.snapshot_at_ms(500 + 64_000)[2];
        assert_eq!((s.good, s.bad), (1, 0), "stale bucket leaked: {s:?}");
    }
}
