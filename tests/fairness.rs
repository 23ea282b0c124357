//! Starvation-freedom under deficit round robin: a quiet tenant's jobs
//! are never buried behind a noisy tenant's backlog.
//!
//! The harness parks a one-worker service inside a gate task, queues a
//! 40-job backlog for tenant `noisy` and 8 sparse jobs for tenant
//! `quiet` (equal weights), then releases the worker and records the
//! exact completion order through watchers. Everything is seeded, the
//! worker is single, and the scheduler is deterministic, so the order —
//! and therefore the starvation bound — is exact, not statistical.
//! Strict FIFO would complete all 40 noisy jobs before the first quiet
//! one; DRR alternates, so at most `k + 1` noisy jobs finish before the
//! k-th quiet job.
//!
//! The measured interleaving is written to `BENCH_fairness.json` at the
//! repo root. Only deterministic fields go there, so re-running the test
//! rewrites identical bytes; per-tenant queue-wait timings are noisy and
//! belong to the end-to-end benchmark instead.

use std::sync::{Arc, Mutex};

use tcast::{ChannelSpec, CollisionModel};
use tcast_service::{
    AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig, SubmitOptions,
};
use tcast_tenant::{TenantRegistry, TenantSpec};

const NOISY_JOBS: usize = 40;
const QUIET_JOBS: usize = 8;
const SEED: u64 = 0x5eed_fa1f;

fn job(i: u64) -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(SEED ^ i, SEED ^ (i << 1)),
        8,
        i,
    )
}

#[test]
fn quiet_tenant_is_never_starved_by_a_noisy_backlog() {
    let mut registry = TenantRegistry::new();
    let noisy = registry.register(TenantSpec::new("noisy", b"noisy-key"));
    let quiet = registry.register(TenantSpec::new("quiet", b"quiet-key"));
    let service = QueryService::with_tenants(ServiceConfig::with_workers(1), Arc::new(registry));

    // Park the single worker so both backlogs queue up fully before
    // the scheduler serves anything.
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
        started_tx.send(()).ok();
        release_rx.recv().ok();
        JobOutput::Value(0.0)
    });
    let gate_batch = service.submit_tasks("gate", vec![gate]).expect("open");
    started_rx.recv().expect("gate reached the worker");

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let mut batches = Vec::new();
    for i in 0..NOISY_JOBS {
        let order = order.clone();
        batches.push(
            service
                .submit_with(
                    vec![job(i as u64).with_tenant(noisy)],
                    SubmitOptions::new()
                        .watched(Arc::new(move |_, _| order.lock().unwrap().push("noisy"))),
                )
                .expect("open"),
        );
    }
    for i in 0..QUIET_JOBS {
        let order = order.clone();
        batches.push(
            service
                .submit_with(
                    vec![job(1000 + i as u64).with_tenant(quiet)],
                    SubmitOptions::new()
                        .watched(Arc::new(move |_, _| order.lock().unwrap().push("quiet"))),
                )
                .expect("open"),
        );
    }

    release_tx.send(()).expect("gate listening");
    gate_batch.wait();
    for batch in batches {
        batch.wait();
    }

    let order = order.lock().unwrap().clone();
    assert_eq!(order.len(), NOISY_JOBS + QUIET_JOBS);

    // The starvation bound: before the k-th quiet completion (1-based)
    // at most k + 1 noisy jobs have completed. FIFO would put all 40.
    let mut noisy_before = 0usize;
    let mut quiet_seen = 0usize;
    let mut worst_noisy_lead = 0usize;
    for tag in &order {
        match *tag {
            "noisy" => noisy_before += 1,
            _ => {
                quiet_seen += 1;
                let lead = noisy_before.saturating_sub(quiet_seen);
                worst_noisy_lead = worst_noisy_lead.max(lead);
                assert!(
                    noisy_before <= quiet_seen + 1,
                    "quiet job {quiet_seen} waited behind {noisy_before} noisy jobs: {order:?}"
                );
            }
        }
    }
    assert_eq!(quiet_seen, QUIET_JOBS);

    let rows = service.metrics().tenant_rows;
    let jobs = |name: &str| {
        rows.iter()
            .find(|r| r.tenant == name)
            .expect("tenant row")
            .jobs
    };
    assert_eq!(
        (jobs("noisy"), jobs("quiet")),
        (NOISY_JOBS as u64, QUIET_JOBS as u64)
    );

    // Record the measured bound next to the claim it supports.

    let json = format!(
        r#"{{
  "bench": "tenant-fairness",
  "setup": {{
    "workers": 1,
    "seed": {SEED},
    "weights": {{ "noisy": 1, "quiet": 1 }},
    "noisy_backlog_jobs": {NOISY_JOBS},
    "quiet_jobs": {QUIET_JOBS}
  }},
  "starvation_bound": {{
    "claim": "at most k+1 noisy completions precede the k-th quiet completion",
    "worst_noisy_lead_observed": {worst_noisy_lead},
    "fifo_counterfactual_lead": {NOISY_JOBS}
  }}
}}
"#
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fairness.json");
    std::fs::write(path, json).expect("write BENCH_fairness.json");
}
