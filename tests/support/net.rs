//! Helpers the loopback, cluster and trace suites share: a `NetServer`
//! over a fresh service on an ephemeral port, and the in-process reports
//! every remote one must equal.

use std::sync::Arc;

use tcast::QueryReport;
use tcast_net::{NetServer, NetServerConfig};
use tcast_service::{JobOutput, QueryJob, QueryService, ServiceConfig};

/// `jobs` run on an in-process service, in submission order.
#[allow(dead_code)]
pub fn in_process(jobs: &[QueryJob]) -> Vec<QueryReport> {
    let service = QueryService::new(ServiceConfig::with_workers(2));
    service
        .submit(jobs.to_vec())
        .expect("service open")
        .wait()
        .into_iter()
        .map(|r| match r.expect("job succeeded") {
            JobOutput::Report(report) => report,
            other => panic!("query job produced {other:?}"),
        })
        .collect()
}

/// A server on `127.0.0.1:0` over a new service of `workers` threads.
pub fn start_server(workers: usize, config: NetServerConfig) -> (NetServer, Arc<QueryService>) {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(workers)));
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), config).expect("bind ephemeral port");
    (server, service)
}
