//! Thread guard for `Busy` backpressure: a wave of rejections must not
//! start any thread. Each client connection's fallback reader, which it
//! keeps from the connect on, resends its bounced jobs as they fall due,
//! so the process has as many threads during the wave as before it.
//!
//! The file holds exactly one `#[test]`: it counts the threads of the
//! whole process, and a second test running in parallel would add its
//! own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use tcast_service::{AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig};

const CONNECTIONS: usize = 2;
const JOBS: u64 = 32;
/// Resends the wave runs to before it is released: every job bounced
/// several times over.
const WAVE_RESENDS: u64 = 4 * JOBS;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_busy_wave_adds_no_thread() {
    // An in-flight window of 1 per connection, and the service's only
    // worker held by a gate task: the first job on each connection fills
    // its window and every other submit is bounced with `Busy` until the
    // gate opens.
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_max_inflight_per_conn(1),
    )
    .expect("bind ephemeral port");
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
            .with_pool_size(CONNECTIONS)
            .with_busy_retries(10_000)
            .with_busy_backoff(Duration::from_micros(200)),
    )
    .expect("connect");
    let jobs: Vec<QueryJob> = (0..JOBS)
        .map(|k| {
            let channel = ChannelSpec::ideal(256, k as usize * 8, CollisionModel::OnePlus)
                .seeded(k, k ^ 0x33);
            QueryJob::new(AlgorithmSpec::TwoTBins, channel, 64, k)
        })
        .collect();

    let before = threads();
    let batch = client.submit(jobs.clone());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut most = before;
    while client.busy_resends() < WAVE_RESENDS {
        assert!(Instant::now() < deadline, "the Busy wave stalled");
        most = most.max(threads());
        std::thread::sleep(Duration::from_micros(100));
    }
    most = most.max(threads());
    release_tx.send(()).expect("gate still waiting");
    gate_batch.wait();

    let got: Vec<_> = batch
        .wait()
        .into_iter()
        .map(|r| r.expect("remote job succeeded despite backpressure"))
        .collect();
    let expected: Vec<_> = jobs.iter().map(QueryJob::execute).collect();
    assert_eq!(got, expected);
    client.close();
    server.shutdown();
    assert_eq!(
        most, before,
        "most threads seen during the Busy wave, against the threads before it"
    );
}
