//! The serving stacks each workload drives, built from the public API
//! exactly as an embedding application would build them, on loopback.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast::QueryReport;
use tcast_net::{
    ClusterConfig, NetClient, NetClientConfig, NetJobResult, NetServer, NetServerConfig,
    ShardedClient, TenantAuth,
};
use tcast_service::{JobOutput, JobResult, MetricsSnapshot, QueryService, ServiceConfig};
use tcast_tenant::{TenantRegistry, TenantSpec};

use crate::jobs::{tenant_of, Stream, Tenant};

/// How long any single remote job may take before it counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(10);

const GOLD_KEY: &[u8] = b"e2ebench-gold-key";
const BRONZE_KEY: &[u8] = b"e2ebench-bronze-key";

/// Quotas far above anything the workloads offer: admission is charged
/// and checked on every job, but never throttles.
const QUOTA_RATE_PER_S: f64 = 1e9;
const QUOTA_IN_FLIGHT: usize = 1 << 20;

/// A job's report, or why it has none.
pub type Outcome = Result<QueryReport, String>;

pub fn from_service(result: JobResult) -> Outcome {
    match result {
        Ok(JobOutput::Report(report)) => Ok(report),
        Ok(other) => Err(format!("query job produced {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

pub fn from_net(result: Option<NetJobResult>) -> Outcome {
    match result {
        Some(Ok(report)) => Ok(report),
        Some(Err(e)) => Err(e.to_string()),
        None => Err(format!("no response within {JOB_TIMEOUT:?}")),
    }
}

/// Builds a stack `reps` times, tearing down all but the last, and
/// returns the last with every build's time in seconds. Each build ends
/// when the stream's first job has come back verified.
pub fn timed_setup<S>(
    reps: usize,
    mut build: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 1..=reps {
        let t0 = Instant::now();
        let stack = build()?;
        times.push(t0.elapsed().as_secs_f64());
        if rep == reps {
            return Ok((stack, times));
        }
        teardown(stack);
    }
    unreachable!("reps >= 1")
}

fn first_job_ok(stream: &Stream, outcome: Outcome) -> Result<(), String> {
    match outcome {
        Ok(report) if stream.matches(0, &report) => Ok(()),
        Ok(_) => Err("first job's report differs from its in-process reference".into()),
        Err(e) => Err(format!("first job failed: {e}")),
    }
}

/// Shuts a service down once every other handle to it is gone.
fn shutdown_service(service: Arc<QueryService>) -> MetricsSnapshot {
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(service) => service.metrics(),
    }
}

/// An in-process `QueryService` (`sweep`, and the ladder's service rung).
pub struct InProcess {
    pub service: QueryService,
}

impl InProcess {
    pub const WORKERS: usize = 2;

    pub fn start(stream: &Stream) -> Result<Self, String> {
        let service = QueryService::new(ServiceConfig::with_workers(Self::WORKERS));
        let first = service
            .submit(vec![stream.jobs[0]])
            .map_err(|e| e.to_string())?
            .wait()
            .pop()
            .expect("one result per job");
        first_job_ok(stream, from_service(first))?;
        Ok(Self { service })
    }

    pub fn stop(self) -> MetricsSnapshot {
        self.service.shutdown()
    }
}

/// One loopback `NetServer` with two authenticated tenants, each on its
/// own single-connection `NetClient` (`serve`, and the ladder's net rung).
pub struct Tenanted {
    service: Arc<QueryService>,
    server: NetServer,
    pub gold: NetClient,
    pub bronze: NetClient,
    /// Seconds each tenant's `NetClient::connect` took (gold, bronze).
    pub connect_s: [f64; 2],
}

impl Tenanted {
    pub const WORKERS: usize = 2;
    pub const IO_THREADS: usize = 1;

    pub fn start(stream: &Stream) -> Result<Self, String> {
        let mut registry = TenantRegistry::new();
        for (name, key, weight) in [("gold", GOLD_KEY, 3), ("bronze", BRONZE_KEY, 1)] {
            registry.register(
                TenantSpec::new(name, key)
                    .weight(weight)
                    .rate(QUOTA_RATE_PER_S, QUOTA_RATE_PER_S)
                    .max_in_flight(QUOTA_IN_FLIGHT),
            );
        }
        let service = Arc::new(QueryService::with_tenants(
            ServiceConfig::with_workers(Self::WORKERS),
            Arc::new(registry),
        ));
        let server = NetServer::bind(
            "127.0.0.1:0",
            service.clone(),
            NetServerConfig::default().with_io_threads(Self::IO_THREADS),
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let connect = |name: &str, key: &[u8]| -> Result<(NetClient, f64), String> {
            let t0 = Instant::now();
            let client = NetClient::connect(
                server.local_addr(),
                NetClientConfig::default().with_auth(TenantAuth::new(name, key)),
            )
            .map_err(|e| format!("{name} connect: {e}"))?;
            Ok((client, t0.elapsed().as_secs_f64()))
        };
        let (gold, gold_s) = connect("gold", GOLD_KEY)?;
        let (bronze, bronze_s) = connect("bronze", BRONZE_KEY)?;
        let stack = Self {
            service,
            server,
            gold,
            bronze,
            connect_s: [gold_s, bronze_s],
        };
        let first = stack.client(0).submit_one(stream.jobs[0]);
        first_job_ok(stream, from_net(first.wait_timeout(JOB_TIMEOUT)))?;
        Ok(stack)
    }

    /// The client that job `i` of a stream is issued on.
    pub fn client(&self, i: usize) -> &NetClient {
        match tenant_of(i) {
            Tenant::Gold => &self.gold,
            Tenant::Bronze => &self.bronze,
        }
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.service.metrics()
    }

    pub fn stop(self) -> MetricsSnapshot {
        self.gold.close();
        self.bronze.close();
        self.server.shutdown();
        shutdown_service(self.service)
    }
}

/// Two loopback shards (one worker, one I/O thread each) behind a
/// `ShardedClient` with one connection per shard (`cluster_hardened`, and
/// the ladder's cluster rung).
pub struct Cluster {
    shards: Vec<(Arc<QueryService>, NetServer)>,
    pub client: ShardedClient,
}

impl Cluster {
    pub const SHARDS: usize = 2;

    pub fn start(stream: &Stream) -> Result<Self, String> {
        let mut shards = Vec::with_capacity(Self::SHARDS);
        for _ in 0..Self::SHARDS {
            let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
            let server = NetServer::bind(
                "127.0.0.1:0",
                service.clone(),
                NetServerConfig::default().with_io_threads(1),
            )
            .map_err(|e| format!("bind loopback: {e}"))?;
            shards.push((service, server));
        }
        let addrs: Vec<_> = shards.iter().map(|(_, s)| s.local_addr()).collect();
        let client = ShardedClient::connect(addrs, ClusterConfig::default())
            .map_err(|e| format!("cluster connect: {e}"))?;
        let first = client.submit(vec![stream.jobs[0]]).wait().pop();
        first_job_ok(stream, from_net(first))?;
        Ok(Self { shards, client })
    }

    /// Final metrics of each shard's service.
    pub fn stop(self) -> Vec<MetricsSnapshot> {
        self.client.close();
        self.shards
            .into_iter()
            .map(|(service, server)| {
                server.shutdown();
                shutdown_service(service)
            })
            .collect()
    }
}
