//! Job descriptions and results.
//!
//! A job is pure data: everything a worker needs to execute it is inside
//! the spec, including every seed. Executing the same job twice — on any
//! worker, in any order — therefore produces bit-identical results, which
//! is what lets the service promise determinism at any pool size.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tcast::{
    Abns, ChannelSpec, EngineScratch, ExecutionProfile, ExpIncrease, OracleBins, ProbAbns,
    QueryReport, RetryPolicy, ThresholdQuerier, TwoTBins, WireEncode,
};
use tcast_stats::Summary;

/// Which threshold-querying algorithm a job runs, as plain data.
///
/// Each variant maps to one of the paper's configurations; the live
/// algorithm object is constructed on the worker just before the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmSpec {
    /// Fixed `2t` bins per round (Section IV-A).
    TwoTBins,
    /// Exponential Increase, standard doubling (Section IV-B).
    ExpIncrease,
    /// Exponential Increase, pause-and-continue variant (pause at 40%).
    ExpIncreasePause,
    /// Exponential Increase, four-fold growth variant.
    ExpIncreaseFourFold,
    /// ABNS seeded with `p0 = t` (Section V).
    AbnsP0T,
    /// ABNS seeded with `p0 = 2t` (Section V).
    AbnsP02T,
    /// Probabilistic ABNS (Section V-D).
    ProbAbns,
    /// Ground-truth oracle lower bound (Section V-C).
    OracleBins,
}

impl AlgorithmSpec {
    /// Every algorithm the service can run.
    pub const ALL: [AlgorithmSpec; 8] = [
        AlgorithmSpec::TwoTBins,
        AlgorithmSpec::ExpIncrease,
        AlgorithmSpec::ExpIncreasePause,
        AlgorithmSpec::ExpIncreaseFourFold,
        AlgorithmSpec::AbnsP0T,
        AlgorithmSpec::AbnsP02T,
        AlgorithmSpec::ProbAbns,
        AlgorithmSpec::OracleBins,
    ];

    /// The algorithm's wire tag: its index in [`Self::ALL`], which lists
    /// the variants in declaration order.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Stable identifier used as the metrics label.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::TwoTBins => "2tBins",
            AlgorithmSpec::ExpIncrease => "ExpIncrease",
            AlgorithmSpec::ExpIncreasePause => "ExpIncrease/pause",
            AlgorithmSpec::ExpIncreaseFourFold => "ExpIncrease/4fold",
            AlgorithmSpec::AbnsP0T => "ABNS(p0=t)",
            AlgorithmSpec::AbnsP02T => "ABNS(p0=2t)",
            AlgorithmSpec::ProbAbns => "ProbABNS",
            AlgorithmSpec::OracleBins => "Oracle",
        }
    }

    /// Builds the live algorithm on the stack and hands it to `run`.
    /// `truth` is the words of the channel's ground truth; only the
    /// oracle reads them.
    fn with_live<R>(self, truth: &[u64], run: impl FnOnce(&dyn ThresholdQuerier) -> R) -> R {
        let (exp, abns, prob, oracle);
        let algorithm: &dyn ThresholdQuerier = match self {
            AlgorithmSpec::TwoTBins => &TwoTBins,
            AlgorithmSpec::ExpIncrease => {
                exp = ExpIncrease::standard();
                &exp
            }
            AlgorithmSpec::ExpIncreasePause => {
                exp = ExpIncrease::pause_and_continue(0.4);
                &exp
            }
            AlgorithmSpec::ExpIncreaseFourFold => {
                exp = ExpIncrease::four_fold();
                &exp
            }
            AlgorithmSpec::AbnsP0T => {
                abns = Abns::p0_t();
                &abns
            }
            AlgorithmSpec::AbnsP02T => {
                abns = Abns::p0_2t();
                &abns
            }
            AlgorithmSpec::ProbAbns => {
                prob = ProbAbns::standard();
                &prob
            }
            AlgorithmSpec::OracleBins => {
                oracle = OracleBins::over(truth);
                &oracle
            }
        };
        run(algorithm)
    }
}

/// One self-contained threshold-query session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryJob {
    /// Algorithm to run.
    pub algorithm: AlgorithmSpec,
    /// Channel to run it on (carries population, truth, and channel seeds,
    /// plus the verified-silence [`RetryPolicy`] sessions run with).
    pub channel: ChannelSpec,
    /// Threshold `t`.
    pub t: usize,
    /// Seed for the algorithm's own random draws (bin assignments etc.).
    pub session_seed: u64,
    /// Service-level deadline measured from submission. A job still
    /// unstarted (or whose queue wait already exceeded the deadline) when
    /// a worker picks it up completes with
    /// [`JobError::DeadlineExceeded`] instead of running.
    pub deadline: Option<Duration>,
    /// Cap on the retry queries this job's session may spend, combined
    /// (as a minimum) with the channel policy's own budget.
    pub retry_budget: Option<u64>,
    /// Trace correlating this job's spans and events across tiers (see
    /// `tcast-obs`). [`tcast_obs::TraceId::NONE`] leaves the job
    /// untraced. Like the deadline, the trace id never shapes the
    /// report, so it is excluded from [`QueryJob::cache_key`].
    pub trace: tcast_obs::TraceId,
    /// Owning tenant, stamped by whichever tier authenticated the
    /// submitter (never trusted off the wire). `None` = the default
    /// (single-tenant) lane. Scheduling metadata only: excluded from
    /// [`QueryJob::cache_key`] because it never shapes the report.
    pub tenant: Option<tcast_tenant::TenantId>,
    /// Priority class within the tenant's queue. Like the tenant id,
    /// pure scheduling metadata — excluded from
    /// [`QueryJob::cache_key`].
    pub priority: tcast_tenant::Priority,
    /// Parent span context for cross-tier trace stitching: the
    /// submitter's enclosing span (e.g. the cluster's route span) plus
    /// its head-sampling decision. The service's `service.execute` span
    /// parents under it, so one fan-out query forms a single connected
    /// tree. Pure observability metadata — excluded from
    /// [`QueryJob::cache_key`] because it never shapes the report.
    pub span_parent: tcast_obs::SpanContext,
}

impl QueryJob {
    /// A job with no deadline and no extra retry budget.
    pub fn new(
        algorithm: AlgorithmSpec,
        channel: ChannelSpec,
        t: usize,
        session_seed: u64,
    ) -> Self {
        Self {
            algorithm,
            channel,
            t,
            session_seed,
            deadline: None,
            retry_budget: None,
            trace: tcast_obs::TraceId::NONE,
            tenant: None,
            priority: tcast_tenant::Priority::Normal,
            span_parent: tcast_obs::SpanContext::NONE,
        }
    }

    /// Returns the job with a submission-relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the job with a retry-query budget.
    pub fn with_retry_budget(mut self, budget: u64) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Returns the job tagged with a trace id; its engine rounds,
    /// service spans, and wire hops will all correlate under it.
    pub fn with_trace(mut self, trace: tcast_obs::TraceId) -> Self {
        self.trace = trace;
        self
    }

    /// Returns the job carrying the submitter's span context, so the
    /// executing tier's spans parent under the submitter's (e.g. a
    /// cluster route span) instead of starting a disconnected tree.
    pub fn with_parent_span(mut self, parent: tcast_obs::SpanContext) -> Self {
        self.span_parent = parent;
        self
    }

    /// Returns the job stamped with its owning tenant. Called by the
    /// tier that authenticated the submitter — client-supplied tenant
    /// ids are never honored.
    pub fn with_tenant(mut self, tenant: tcast_tenant::TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Returns the job in the given priority class.
    pub fn with_priority(mut self, priority: tcast_tenant::Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The longest [`cache_key`](Self::cache_key) of any job, in bytes:
    /// the algorithm (1), the channel spec
    /// ([`ChannelSpec::MAX_CACHE_KEY_LEN`]), the threshold and session
    /// seed (8 + 8) and a retry budget (9).
    pub const MAX_CACHE_KEY_LEN: usize = 1 + ChannelSpec::MAX_CACHE_KEY_LEN + 8 + 8 + 9;

    /// This job's identity key, as bytes: every field that shapes the
    /// produced [`QueryReport`] participates — the algorithm, the full
    /// channel spec (both seeds, model, loss, retry policy), the
    /// threshold, the session seed, and the retry budget. The deadline,
    /// trace id, tenant and priority are deliberately excluded: they
    /// decide *whether* and *when* a session runs, never what it
    /// reports.
    ///
    /// Two jobs with equal keys produce bit-identical reports (execution
    /// is a pure function of the spec), so cluster placement keys on
    /// these bytes. The key is one allocation of
    /// [`Self::MAX_CACHE_KEY_LEN`] bytes.
    pub fn cache_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(Self::MAX_CACHE_KEY_LEN);
        self.cache_key_into(&mut key);
        key
    }

    /// Appends [`cache_key`](Self::cache_key)'s bytes to `out`, so a
    /// caller that keys many jobs can reuse one buffer.
    pub fn cache_key_into(&self, out: &mut Vec<u8>) {
        out.push(self.algorithm.tag());
        self.channel.encode(out);
        out.extend_from_slice(&(self.t as u64).to_le_bytes());
        out.extend_from_slice(&self.session_seed.to_le_bytes());
        match self.retry_budget {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
    }

    /// The effective retry policy: the channel's, tightened by the job's
    /// own budget when one is set.
    pub fn retry_policy(&self) -> RetryPolicy {
        let mut policy = self.channel.retry;
        if let Some(b) = self.retry_budget {
            policy.budget = Some(policy.budget.map_or(b, |pb| pb.min(b)));
        }
        policy
    }

    /// Executes the session; fully determined by the job's fields. This
    /// is [`execute_in`](Self::execute_in) over a fresh [`EngineScratch`].
    pub fn execute(&self) -> QueryReport {
        self.execute_in(&mut EngineScratch::new())
    }

    /// Executes the session over pooled engine buffers: the batch-native
    /// path workers use, reusing `scratch` across jobs so steady-state
    /// execution allocates only the report's trace. A scratch is
    /// capacity, never state, so any scratch gives the same report
    /// (pinned by `tests/batch_parity.rs`). The job's trace id becomes
    /// the thread's current trace for the duration, so the engine's spans
    /// and round events correlate to it.
    ///
    /// The channel is built into the scratch's channel arena through
    /// [`tcast_adversary::with_channel`], so a spec carrying an
    /// [`tcast::AdversaryConfig`] gets its Byzantine wrapper here and
    /// the spec's [`tcast::DefensePolicy`] shapes the session; every spec
    /// builds exactly like [`tcast_adversary::build_with_truth`]. The
    /// oracle reads the arena's truth words; nothing copies them.
    pub fn execute_in(&self, scratch: &mut EngineScratch) -> QueryReport {
        let _scope = tcast_obs::scoped_trace(self.trace);
        let mut arena = scratch.take_arena();
        let mut rng = SmallRng::seed_from_u64(self.session_seed);
        let profile = ExecutionProfile::new()
            .with_retry(self.retry_policy())
            .with_defense(self.channel.defense);
        let nodes = scratch.take_population(self.channel.n);
        let report = tcast_adversary::with_channel(&self.channel, &mut arena, |channel, truth| {
            self.algorithm.with_live(truth, |algorithm| {
                algorithm.run_with_profile(&nodes, self.t, channel, &mut rng, profile, scratch)
            })
        });
        scratch.restore_population(nodes);
        scratch.restore_arena(arena);
        report
    }
}

/// What a finished job produced.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A full session report (from a [`QueryJob`]).
    Report(QueryReport),
    /// One sweep point: x coordinate plus the summarized metric values
    /// (from a custom task aggregating many runs).
    Point {
        /// The sweep's x coordinate.
        x: f64,
        /// Summary over the point's repetitions.
        summary: Summary,
    },
    /// A bare number.
    Value(f64),
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's code panicked on the worker; the payload's message is
    /// preserved. Other jobs in the batch are unaffected.
    Panicked(String),
    /// The job's deadline expired before a worker could start it; the
    /// session was never run.
    DeadlineExceeded,
    /// The submitting tenant was over a quota (token-bucket rate or
    /// max-in-flight cap); the job was rejected at admission and never
    /// queued.
    QuotaExceeded,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::DeadlineExceeded => f.write_str("job deadline exceeded before execution"),
            JobError::QuotaExceeded => f.write_str("tenant quota exceeded at admission"),
        }
    }
}

impl std::error::Error for JobError {}

/// Outcome of one job.
pub type JobResult = Result<JobOutput, JobError>;

#[cfg(test)]
mod tests {
    use super::*;
    use tcast::CollisionModel;

    #[test]
    fn every_algorithm_answers_correctly_on_ideal_channels() {
        for (x, t) in [(0usize, 8usize), (7, 8), (8, 8), (30, 8), (64, 8)] {
            for alg in AlgorithmSpec::ALL {
                let job = QueryJob::new(
                    alg,
                    ChannelSpec::ideal(64, x, CollisionModel::OnePlus).seeded(1, 2),
                    t,
                    3,
                );
                let report = job.execute();
                assert_eq!(report.answer, x >= t, "{} wrong on x={x} t={t}", alg.name());
            }
        }
    }

    #[test]
    fn execution_is_a_pure_function_of_the_spec() {
        let job = QueryJob::new(
            AlgorithmSpec::AbnsP02T,
            ChannelSpec::ideal(128, 20, CollisionModel::two_plus_default()).seeded(5, 6),
            16,
            7,
        );
        assert_eq!(job.execute(), job.execute());
    }

    #[test]
    fn retry_budget_tightens_the_channel_policy() {
        use tcast::LossConfig;
        let spec = ChannelSpec::lossy(32, 8, CollisionModel::OnePlus, LossConfig::default())
            .with_retry(RetryPolicy::verified(2).with_budget(100));
        let job = QueryJob::new(AlgorithmSpec::TwoTBins, spec, 8, 1).with_retry_budget(10);
        assert_eq!(job.retry_policy().budget, Some(10), "min of 100 and 10");
        assert_eq!(job.retry_policy().max_retries, 2);
        let unbudgeted = QueryJob::new(AlgorithmSpec::TwoTBins, spec, 8, 1);
        assert_eq!(unbudgeted.retry_policy().budget, Some(100));
    }

    #[test]
    fn retry_policy_spends_retry_queries_under_loss() {
        use tcast::LossConfig;
        // A certain-loss channel forces retries on every bin.
        let loss = LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 0.0,
        };
        let spec = ChannelSpec::lossy(16, 16, CollisionModel::OnePlus, loss)
            .seeded(1, 2)
            .with_retry(RetryPolicy::verified(1));
        let report = QueryJob::new(AlgorithmSpec::TwoTBins, spec, 4, 3).execute();
        assert!(report.retry_queries > 0);
        report.assert_consistent();
    }

    #[test]
    fn cache_key_separates_every_report_shaping_field() {
        let base = QueryJob::new(
            AlgorithmSpec::TwoTBins,
            ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(1, 2),
            8,
            3,
        );
        let mut variants = vec![base];
        variants.push(QueryJob {
            algorithm: AlgorithmSpec::ExpIncrease,
            ..base
        });
        variants.push(QueryJob { t: 9, ..base });
        variants.push(QueryJob {
            session_seed: 4,
            ..base
        });
        variants.push(QueryJob {
            channel: base.channel.seeded(1, 3),
            ..base
        });
        variants.push(QueryJob {
            channel: base.channel.with_retry(RetryPolicy::verified(1)),
            ..base
        });
        variants.push(base.with_retry_budget(5));
        variants.push(QueryJob {
            channel: base.channel.with_adversary(tcast::AdversaryConfig {
                model: tcast::AdversaryModel::Jammer { duty_mille: 100 },
                seed: 9,
            }),
            ..base
        });
        variants.push(QueryJob {
            channel: base.channel.with_defense(tcast::DefensePolicy::hardened()),
            ..base
        });
        let mut keys: Vec<_> = variants.iter().map(QueryJob::cache_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), variants.len(), "every field must separate");

        // The deadline must NOT separate: it never changes the report.
        assert_eq!(
            base.cache_key(),
            base.with_deadline(Duration::from_secs(1)).cache_key()
        );
        // Neither must the trace id: observability must not move a job
        // to another shard.
        assert_eq!(
            base.cache_key(),
            base.with_trace(tcast_obs::TraceId::fresh()).cache_key()
        );
        // Nor tenant or priority: scheduling metadata never shapes the
        // report, so identical specs from different tenants share one
        // identity.
        assert_eq!(
            base.cache_key(),
            base.with_tenant(tcast_tenant::TenantId(7)).cache_key()
        );
        assert_eq!(
            base.cache_key(),
            base.with_priority(tcast_tenant::Priority::High).cache_key()
        );
        // Nor the parent span context: trace stitching is observability
        // metadata, same as the trace id.
        assert_eq!(
            base.cache_key(),
            base.with_parent_span(tcast_obs::SpanContext::child_of(42))
                .cache_key()
        );
    }

    #[test]
    fn adversarial_jobs_execute_with_the_spec_defenses() {
        use tcast::{AdversaryConfig, AdversaryModel, DefensePolicy};
        // x = t honest positives, a full-duty jammer, hardened defenses:
        // the session must run (core alone would panic on this spec) and
        // the canary must flag the jammer.
        let spec = ChannelSpec::adversarial(
            64,
            8,
            CollisionModel::OnePlus,
            None,
            AdversaryConfig {
                model: AdversaryModel::Jammer { duty_mille: 1000 },
                seed: 4,
            },
        )
        .seeded(1, 2)
        .with_defense(DefensePolicy::hardened());
        let report = QueryJob::new(AlgorithmSpec::TwoTBins, spec, 8, 3).execute();
        report.assert_consistent();
        assert!(report.adversary_suspected(), "canary must flag the jammer");
        assert!(report.defense_queries > 0);
        // Determinism still holds for adversarial jobs.
        let again = QueryJob::new(AlgorithmSpec::TwoTBins, spec, 8, 3).execute();
        assert_eq!(report, again);
    }

    #[test]
    fn the_largest_cache_key_fits_one_allocation() {
        use tcast::{AdversaryConfig, AdversaryModel, DefensePolicy, LossConfig};
        let spec = ChannelSpec::adversarial(
            512,
            16,
            CollisionModel::TwoPlus(tcast::CaptureModel::Geometric { alpha: 0.5 }),
            Some(LossConfig::default()),
            AdversaryConfig {
                model: AdversaryModel::SilentDrop { budget: u64::MAX },
                seed: 7,
            },
        )
        .seeded(1, 2)
        .with_retry(RetryPolicy::verified(2).with_budget(50))
        .with_defense(DefensePolicy::hardened());
        let job = QueryJob::new(AlgorithmSpec::OracleBins, spec, 16, 3).with_retry_budget(9);
        let key = job.cache_key();
        assert_eq!(key.len(), QueryJob::MAX_CACHE_KEY_LEN);
        assert_eq!(
            key.capacity(),
            QueryJob::MAX_CACHE_KEY_LEN,
            "the key never outgrew its first allocation"
        );
    }

    #[test]
    fn algorithm_names_are_unique() {
        let mut names: Vec<_> = AlgorithmSpec::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AlgorithmSpec::ALL.len());
    }

    #[test]
    fn algorithm_tags_are_indices_into_all() {
        for (i, alg) in AlgorithmSpec::ALL.iter().enumerate() {
            assert_eq!(usize::from(alg.tag()), i, "{}", alg.name());
        }
    }
}
