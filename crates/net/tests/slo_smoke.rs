//! SLO smoke: inject deadline failures into a loopback server with an
//! SLO tracker attached and assert the fast-burn alarm crosses — end
//! to end, from job execution through the tracker's multi-window burn
//! math to the gated Prometheus series served over the wire.

use std::sync::Arc;
use std::time::Duration;

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use tcast_obs::{Objective, SloTracker};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};

fn job(seed: u64) -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(64, 10, CollisionModel::OnePlus).seeded(seed, seed ^ 1),
        8,
        seed,
    )
}

#[test]
fn injected_deadline_failures_cross_the_fast_burn_alarm() {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    let tracker = Arc::new(SloTracker::new(vec![Objective::latency(
        "e2e-latency",
        1_000_000.0,
        0.99,
    )]));
    service.metrics_registry().attach_slo(tracker.clone());
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind ephemeral port");
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");

    // A healthy baseline first: plenty of good events, alarm quiet.
    for result in client.submit((0..8).map(job).collect()).wait() {
        result.expect("baseline job succeeded");
    }
    let calm = tracker.snapshot();
    assert_eq!(calm.len(), 1);
    assert_eq!(calm[0].bad, 0);
    assert!(!calm[0].fast_burn, "alarm must be quiet at baseline");

    // Now a spike of impossible deadlines: every one fails, each is a
    // bad latency event, and the short-window burn blasts past the
    // fast-burn threshold (14.4x at a 99% target needs >14.4% bad).
    let doomed: Vec<QueryJob> = (100..108)
        .map(|k| job(k).with_deadline(Duration::from_nanos(1)))
        .collect();
    for result in client.submit(doomed).wait() {
        result.expect_err("deadline of 1ns must fail");
    }

    let burning = tracker.snapshot();
    assert_eq!(burning[0].bad, 8, "every doomed job burned budget");
    assert!(
        burning[0].burn_short >= 14.4,
        "short-window burn {:.1} did not cross the 14.4x threshold",
        burning[0].burn_short
    );
    assert!(
        burning[0].fast_burn,
        "fast-burn alarm must fire: {burning:?}"
    );

    // The crossing is visible over the wire, in the gated SLO section.
    let text = tcast_service::render_prometheus(&client.server_metrics().expect("metrics fetch"));
    assert!(
        text.contains("tcast_slo_fast_burn{objective=\"e2e-latency\"} 1"),
        "fast burn not exposed:\n{text}"
    );
    assert!(
        text.contains("tcast_slo_error_budget_remaining{objective=\"e2e-latency\"} 0.000000"),
        "budget not exhausted on the wire:\n{text}"
    );

    client.close();
    server.shutdown();
}
