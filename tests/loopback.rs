//! End-to-end loopback tests: a real `NetServer` on an ephemeral port,
//! a real `NetClient`, and the properties the network layer must keep —
//! remote verdicts bit-identical to in-process runs, deep pipelining
//! with out-of-order completion matched by request id, transparent
//! `Busy` retry under backpressure, and drain-on-shutdown.

use std::time::Duration;

use tcast::{CaptureModel, ChannelSpec, CollisionModel, QueryReport};
use tcast_net::{NetClient, NetClientConfig, NetError, NetServerConfig};
use tcast_service::{AlgorithmSpec, JobOutput, QueryJob};

#[path = "support/net.rs"]
mod net;
use net::{in_process, start_server};

const MODELS: [CollisionModel; 3] = [
    CollisionModel::OnePlus,
    CollisionModel::TwoPlus(CaptureModel::Never),
    CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
];

fn full_coverage_batch(n: usize, x: usize, t: usize, base_seed: u64) -> Vec<QueryJob> {
    let mut jobs = Vec::new();
    for (mi, model) in MODELS.into_iter().enumerate() {
        for (ai, algorithm) in AlgorithmSpec::ALL.into_iter().enumerate() {
            let k = (mi * AlgorithmSpec::ALL.len() + ai) as u64;
            jobs.push(QueryJob::new(
                algorithm,
                ChannelSpec::ideal(n, x, model)
                    .seeded(base_seed ^ (k << 8), base_seed.wrapping_add(k)),
                t,
                base_seed.rotate_left(k as u32),
            ));
        }
    }
    jobs
}

#[test]
fn remote_verdicts_are_bit_identical_to_in_process_runs() {
    let jobs = full_coverage_batch(48, 14, 6, 0xC0FF_EE00_1234_5678);
    let local = in_process(&jobs);

    let (server, _service) = start_server(4, NetServerConfig::default());
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    let remote: Vec<QueryReport> = client
        .submit(jobs.clone())
        .wait()
        .into_iter()
        .map(|r| r.expect("remote job succeeded"))
        .collect();

    // Everything `PartialEq` sees — answers, query counts, full traces —
    // must survive the network round trip bit-identically.
    assert_eq!(local, remote);
    client.close();
    server.shutdown();
}

#[test]
fn batch_handles_are_non_consuming_and_wait_timeout_resolves() {
    let jobs = full_coverage_batch(32, 10, 5, 0xAB);
    let local = in_process(&jobs);

    let (server, _service) = start_server(2, NetServerConfig::default());
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");
    let batch = client.submit(jobs);

    // `handles(&self)` mirrors the in-process `Batch`: taking per-job
    // handles does not consume the batch, and both views resolve to the
    // same responses.
    let handles = batch.handles();
    assert_eq!(handles.len(), batch.len());
    let via_handles: Vec<QueryReport> = handles
        .into_iter()
        .map(|h| h.wait().expect("remote job succeeded"))
        .collect();
    let via_batch: Vec<QueryReport> = batch
        .wait_timeout(Duration::from_secs(30))
        .expect("responses already arrived")
        .into_iter()
        .map(|r| r.expect("remote job succeeded"))
        .collect();
    assert_eq!(via_handles, local);
    assert_eq!(via_batch, local);

    client.close();
    server.shutdown();
}

#[test]
fn a_connection_pipelines_64_inflight_requests_with_out_of_order_completion() {
    let (server, _service) = start_server(
        4,
        NetServerConfig::default().with_max_inflight_per_conn(128),
    );
    // One connection only: every request id rides the same TCP stream.
    let client = NetClient::connect(
        server.local_addr(),
        NetClientConfig::default().with_pool_size(1),
    )
    .expect("connect");

    // The first request of each round is deliberately expensive (tens of
    // milliseconds); the following 64 are trivial and overtake it on the
    // pool, so the first id's response arrives last — the client must
    // match all 65 by request id, not arrival order. Scheduling on a
    // loaded single-core test box can in principle finish the slow job
    // before any fast one is admitted, so the round is repeated (fresh
    // seeds each time) until an inversion is observed.
    let mut inverted = false;
    for round in 0..10u64 {
        let slow = QueryJob::new(
            AlgorithmSpec::TwoTBins,
            ChannelSpec::ideal(2_000_000, 400_000, CollisionModel::OnePlus)
                .seeded(round + 1, round + 2),
            262_144,
            round + 3,
        );
        let fast: Vec<QueryJob> = (0..64)
            .map(|k| {
                QueryJob::new(
                    AlgorithmSpec::ExpIncrease,
                    ChannelSpec::ideal(8, 3, CollisionModel::OnePlus)
                        .seeded(round * 100 + k, round * 100 + k + 1),
                    2,
                    k,
                )
            })
            .collect();

        let mut jobs = vec![slow];
        jobs.extend(fast);
        let expected = in_process(&jobs);

        let batch = client.submit(jobs);
        assert_eq!(batch.len(), 65);
        let got: Vec<QueryReport> = batch
            .wait()
            .into_iter()
            .map(|r| r.expect("remote job succeeded"))
            .collect();
        assert_eq!(expected, got, "responses matched to the wrong request ids");
        if client.out_of_order_responses() >= 1 {
            inverted = true;
            break;
        }
    }
    assert!(
        inverted,
        "the slow first request should have completed after later ones"
    );
    client.close();
    server.shutdown();
}

#[test]
fn busy_backpressure_is_retried_transparently() {
    // In-flight window of 1 forces the server to bounce overlapping
    // submits with `Busy`; the client's retry loop must still land every
    // job, with results identical to an unconstrained run. The service's
    // only worker is held by a gate task until a `Busy` has been resent,
    // so the first admitted job provably fills the window while the
    // others arrive.
    let (server, service) =
        start_server(1, NetServerConfig::default().with_max_inflight_per_conn(1));
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
        started_tx.send(()).ok();
        release_rx.recv().ok();
        JobOutput::Value(0.0)
    });
    let gate_batch = service
        .submit_tasks("gate", vec![gate])
        .expect("service open");
    started_rx.recv().expect("gate task reached the worker");

    let client = NetClient::connect(
        server.local_addr(),
        NetClientConfig::default()
            .with_pool_size(1)
            .with_busy_retries(200)
            .with_busy_backoff(Duration::from_millis(1)),
    )
    .expect("connect");

    let jobs: Vec<QueryJob> = (0..8)
        .map(|k| {
            QueryJob::new(
                AlgorithmSpec::TwoTBins,
                ChannelSpec::ideal(2_048, 700, CollisionModel::OnePlus).seeded(k, k ^ 7),
                512,
                k,
            )
        })
        .collect();
    let expected = in_process(&jobs);

    let batch = client.submit(jobs);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while client.busy_resends() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no Busy resend while the only worker was held"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release_tx.send(()).expect("gate still waiting");
    gate_batch.wait();

    let got: Vec<QueryReport> = batch
        .wait()
        .into_iter()
        .map(|r| r.expect("remote job succeeded despite backpressure"))
        .collect();
    assert_eq!(expected, got);
    assert!(
        client.busy_resends() > 0,
        "an in-flight window of 1 with 8 pipelined jobs must trigger Busy"
    );
    client.close();
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_jobs_before_closing() {
    let (server, _service) = start_server(2, NetServerConfig::default());
    let client =
        NetClient::connect(server.local_addr(), NetClientConfig::default()).expect("connect");

    let jobs = full_coverage_batch(64, 20, 8, 42);
    let expected = in_process(&jobs);
    let batch = client.submit(jobs);
    // Shut down while responses are still streaming back. Every admitted
    // job must complete with a real report (drain, not abort); jobs the
    // server had not yet admitted may be refused, but must be refused
    // loudly — never dropped or corrupted.
    server.shutdown();
    for (i, result) in batch.wait().into_iter().enumerate() {
        match result {
            Ok(report) => assert_eq!(report, expected[i], "drained job {i} report differs"),
            Err(NetError::ServerShutdown) => {}
            Err(other) => panic!("job {i} lost in shutdown: {other}"),
        }
    }
    client.close();
}

#[test]
fn submitting_to_a_dead_server_reports_connection_loss_not_a_hang() {
    let (server, _service) = start_server(1, NetServerConfig::default());
    let addr = server.local_addr();
    let client = NetClient::connect(addr, NetClientConfig::default()).expect("connect");
    server.shutdown();
    // Give the closed socket a moment to surface on the client side.
    std::thread::sleep(Duration::from_millis(100));

    let job = QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(16, 4, CollisionModel::OnePlus),
        2,
        1,
    );
    let result = client
        .submit_one(job)
        .wait_timeout(Duration::from_secs(10))
        .expect("must resolve well before the timeout");
    assert!(
        matches!(
            result,
            Err(NetError::ConnectionLost(_)) | Err(NetError::ServerShutdown)
        ),
        "got {result:?}"
    );
}
