//! A job a waiting caller runs itself is traced as on a worker.
//!
//! The caller waits inside an open span of its own while the service's
//! only worker is held in a gate, so the caller runs the job. The job's
//! `service.execute` span must still be a local root parented by the
//! job's propagated span context, not nested under the caller's span,
//! and both trees must pass `check_nesting`.
//!
//! The trace sink is process-wide, so this file holds one test.

#[path = "support/gated.rs"]
mod gated;

use std::sync::Arc;

use tcast::{ChannelSpec, CollisionModel};
use tcast_obs::{MemorySink, RecordKind, Span, TraceId};
use tcast_service::{AlgorithmSpec, QueryJob};

use gated::Gated;

#[test]
fn a_helped_job_is_a_local_root_under_its_propagated_parent() {
    let sink = Arc::new(MemorySink::new());
    let _installed = tcast_obs::add_sink(sink.clone());
    let gated = Gated::start();

    // The submitter's span, as a cluster route span would be on
    // another tier; the job carries its context.
    let job_trace = TraceId::fresh();
    let route = Span::enter(job_trace, "client.route");
    let propagated = route.context();
    drop(route);
    let job = QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(3, 4),
        8,
        5,
    )
    .with_trace(job_trace)
    .with_parent_span(propagated);

    let caller_trace = TraceId::fresh();
    let caller = Span::enter(caller_trace, "caller.wait");
    let results = gated
        .service
        .submit(vec![job])
        .expect("service open")
        .wait();
    drop(caller);
    assert!(!gated.open(), "the wait blocked on the gate");
    assert!(results[0].is_ok(), "{:?}", results[0]);
    tcast_obs::flush();

    let records = sink.for_trace(job_trace);
    let execute = records
        .iter()
        .find(|r| r.name == "service.execute" && r.kind == RecordKind::SpanStart)
        .expect("the helped job recorded its service.execute span");
    assert_eq!(
        execute.parent, propagated.parent,
        "service.execute is parented by the job's propagated context"
    );
    tcast_obs::check_nesting(&records).expect("the job's tree nests");
    let caller_records = sink.for_trace(caller_trace);
    assert_eq!(caller_records.len(), 2, "{caller_records:?}");
    tcast_obs::check_nesting(&caller_records).expect("the caller's tree nests");
}
