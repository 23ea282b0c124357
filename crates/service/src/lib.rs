#![warn(missing_docs)]

//! # tcast-service — a concurrent multi-session query service
//!
//! The algorithm crates answer *one* threshold query. Real deployments —
//! and the experiment harness — run thousands of sessions: different
//! algorithms, channels, and seeds, often concurrently. This crate turns
//! the single-session machinery into a service:
//!
//! * **Jobs, not calls.** A [`QueryJob`] is plain data: an
//!   [`AlgorithmSpec`], a [`tcast::ChannelSpec`], a threshold, and a
//!   session seed. Workers rebuild everything from the spec, so execution
//!   is a pure function of the job.
//! * **Bounded admission.** [`QueryService::submit`] blocks when the
//!   queue is over capacity; [`QueryService::try_submit`] hands the jobs
//!   back instead. Producers can't outrun the pool unboundedly.
//! * **Deterministic scheduling.** Workers steal jobs through an atomic
//!   claim index, yet batch results always come back in submission order
//!   and bit-identical at any worker count — seeds live in the jobs, not
//!   the threads.
//! * **Per-job isolation.** A panicking session becomes
//!   [`JobError::Panicked`] in its own result slot; the worker and the
//!   rest of the batch continue.
//! * **Deadlines and retry budgets.** A job may carry a
//!   submission-relative deadline ([`QueryJob::with_deadline`]); one that
//!   expires in the queue completes as [`JobError::DeadlineExceeded`]
//!   without running. [`QueryJob::with_retry_budget`] caps the
//!   verified-silence retries a lossy-channel session may spend.
//! * **Built-in metrics.** Per-algorithm jobs/queries/retries/rounds/
//!   verdict/deadline counters and latency, query-count, and
//!   retry-overhead histograms, dumpable as CSV or markdown via
//!   [`MetricsSnapshot`].
//! * **Graceful shutdown.** [`QueryService::shutdown`] drains every
//!   queued job before joining the workers.
//!
//! The experiment harness (`tcast-experiments`) routes all its sweeps
//! through this service; see `examples/service.rs` for a mixed-traffic
//! demo.

mod cache;
mod job;
mod metrics;
mod service;

pub use job::{AlgorithmSpec, JobError, JobOutput, JobResult, QueryJob};
pub use metrics::{
    metric_names, render_prometheus, Family, MetricKind, MetricValue, MetricsRegistry, MetricsRow,
    MetricsSnapshot, NetCounters, NetMetricsRow, Sample, TenantMetricsRow,
};
pub use service::{
    Batch, Completion, CompletionWatcher, JobHandle, QueryService, ServiceClosed, ServiceConfig,
    SubmitError, SubmitOptions, INLINE_MAX_QUERIES,
};

/// Blessed service-tier entrypoints, layered over [`tcast::prelude`].
///
/// `use tcast_service::prelude::*;` brings in everything a typical
/// embedding needs: the core algorithm/engine surface plus the service's
/// job, submission, and metrics types.
pub mod prelude {
    pub use tcast::prelude::*;

    pub use crate::job::{AlgorithmSpec, JobError, JobOutput, JobResult, QueryJob};
    pub use crate::metrics::{MetricsRegistry, MetricsSnapshot};
    pub use crate::service::{
        Batch, JobHandle, QueryService, ServiceConfig, SubmitError, SubmitOptions,
    };
}
