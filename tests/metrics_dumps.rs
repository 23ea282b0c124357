//! Byte-for-byte goldens of the three text dumps of one metrics
//! registry: CSV, markdown and the Prometheus exposition. Every value is
//! recorded through the public API with fixed durations, and every
//! gated section is populated, so a renderer change that moves a single
//! byte of any dump fails here.
//!
//! The SLO section is left out: its burn rates read the wall clock.

use std::time::Duration;

use tcast::QueryReport;
use tcast_service::{JobError, JobOutput, JobResult, MetricsRegistry, MetricsSnapshot};

fn report(answer: bool, queries: u64, rounds: u32, retries: u64, defenses: u64) -> JobResult {
    Ok(JobOutput::Report(QueryReport {
        answer,
        queries,
        rounds,
        retry_queries: retries,
        defense_queries: defenses,
        anomalies: defenses / 3,
        confirmed_positives: 0,
        trace: Vec::new(),
    }))
}

fn snapshot() -> MetricsSnapshot {
    let us = Duration::from_micros;
    let m = MetricsRegistry::new();

    // Two query labels; `2tBins` only ever saw a deadline-expired job, so
    // every mean it prints takes the no-sample path.
    m.record("ABNS", &report(true, 41, 3, 5, 6), us(120));
    m.record("ABNS", &report(false, 17, 2, 0, 0), us(380));
    m.record("ABNS", &report(true, 66, 4, 9, 3), us(2_750));
    m.record("ABNS", &Err(JobError::Panicked("boom".into())), us(15));
    m.record("2tBins", &Err(JobError::DeadlineExceeded), us(40));
    // A custom task: latency but no query statistics.
    m.record("sweep-point", &Ok(JobOutput::Value(0.5)), us(1_234));

    let conn = m.net_counters("net/conn-0");
    conn.frame_in(64);
    conn.frame_in(96);
    conn.frame_out(210);
    conn.decode_error();
    conn.busy_rejection();
    conn.reconnect();
    conn.auth_failure();
    let server = m.net_counters("net/server");
    server.set_io_threads(2);
    server.accept_error();
    server.accept_error();
    for _ in 0..5 {
        server.conn_opened();
    }
    server.conn_closed();
    server.conn_closed();

    m.record_tenant_job("gold", us(150));
    m.record_tenant_job("gold", us(450));
    m.record_tenant_job("gold", us(5_100));
    m.record_quota_rejections("gold", 4);
    m.seen_tenant("silver");

    m.record_queue_wait(us(90));
    m.record_queue_wait(us(310));
    m.record_queue_wait(us(4_020));
    m.record_batch_size(1);
    m.record_batch_size(6);
    m.snapshot()
}

const CSV: &str = r#"label,jobs,panics,deadline_exceeded,queries,retries,defenses,anomalies,rounds,verdict_yes,verdict_no,mean_latency_us,max_latency_us,mean_queries_per_job,mean_retries_per_job
2tBins,1,0,1,0,0,0,0,0,0,0,0.0,0.0,0.00,0.00
ABNS,4,1,0,124,14,9,3,9,2,1,1083.3,2750.0,41.33,4.67
sweep-point,1,0,0,0,0,0,0,0,0,0,1234.0,1234.0,0.00,0.00

label,frames_in,frames_out,bytes_in,bytes_out,decode_errors,busy_rejections,auth_failures,reconnects,accept_errors,conns_opened,conns_closed,open_connections,io_threads
net/conn-0,2,1,160,210,1,1,1,1,0,0,0,0,0
net/server,0,0,0,0,0,0,0,0,2,5,2,3,2

tenant,jobs,quota_rejections,mean_queue_wait_us,p50_queue_wait_us,p99_queue_wait_us,max_queue_wait_us
gold,3,4,1900.0,1500.0,5100.0,5100.0
silver,0,0,0.0,0.0,0.0,0.0
"#;

const MARKDOWN: &str = r#"| label | jobs | panics | deadline | queries | retries | defenses | anomalies | rounds | yes | no | latency (µs) | queries/job |
|-------|-----:|-------:|---------:|--------:|--------:|---------:|----------:|-------:|----:|---:|-------------:|------------:|
| 2tBins | 1 | 0 | 1 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | - | - |
| ABNS | 4 | 1 | 0 | 124 | 14 | 9 | 3 | 9 | 2 | 1 | 1083.3 | 41.3 |
| sweep-point | 1 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 1234.0 | - |

| connection | frames in | frames out | bytes in | bytes out | decode errs | busy | auth errs | reconnects | accept errs | open | io threads |
|------------|----------:|-----------:|---------:|----------:|------------:|-----:|----------:|-----------:|------------:|-----:|-----------:|
| net/conn-0 | 2 | 1 | 160 | 210 | 1 | 1 | 1 | 1 | 0 | 0 | 0 |
| net/server | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 2 | 3 | 2 |

| tenant | jobs | quota rejections | queue wait µs (mean) | p50 | p99 | max |
|--------|-----:|-----------------:|---------------------:|----:|----:|----:|
| gold | 3 | 4 | 1900.0 | 1500.0 | 5100.0 | 5100.0 |
| silver | 0 | 0 | - | 0.0 | 0.0 | - |
"#;

const PROMETHEUS: &str = r#"# HELP tcast_jobs_total Jobs finished, including panicked and deadline-expired ones.
# TYPE tcast_jobs_total counter
tcast_jobs_total{algorithm="2tBins"} 1
tcast_jobs_total{algorithm="ABNS"} 4
tcast_jobs_total{algorithm="sweep-point"} 1
# HELP tcast_job_panics_total Jobs that panicked.
# TYPE tcast_job_panics_total counter
tcast_job_panics_total{algorithm="2tBins"} 0
tcast_job_panics_total{algorithm="ABNS"} 1
tcast_job_panics_total{algorithm="sweep-point"} 0
# HELP tcast_job_deadline_exceeded_total Jobs whose deadline expired before a worker ran them.
# TYPE tcast_job_deadline_exceeded_total counter
tcast_job_deadline_exceeded_total{algorithm="2tBins"} 1
tcast_job_deadline_exceeded_total{algorithm="ABNS"} 0
tcast_job_deadline_exceeded_total{algorithm="sweep-point"} 0
# HELP tcast_queries_total Group queries across all sessions, retries included.
# TYPE tcast_queries_total counter
tcast_queries_total{algorithm="2tBins"} 0
tcast_queries_total{algorithm="ABNS"} 124
tcast_queries_total{algorithm="sweep-point"} 0
# HELP tcast_retry_queries_total Verified-silence retry queries across all sessions.
# TYPE tcast_retry_queries_total counter
tcast_retry_queries_total{algorithm="2tBins"} 0
tcast_retry_queries_total{algorithm="ABNS"} 14
tcast_retry_queries_total{algorithm="sweep-point"} 0
# HELP tcast_defense_queries_total Defense queries (canary probes, confirmation re-queries) across all sessions.
# TYPE tcast_defense_queries_total counter
tcast_defense_queries_total{algorithm="2tBins"} 0
tcast_defense_queries_total{algorithm="ABNS"} 9
tcast_defense_queries_total{algorithm="sweep-point"} 0
# HELP tcast_anomalies_total Adversary-suspected anomalies flagged across all sessions.
# TYPE tcast_anomalies_total counter
tcast_anomalies_total{algorithm="2tBins"} 0
tcast_anomalies_total{algorithm="ABNS"} 3
tcast_anomalies_total{algorithm="sweep-point"} 0
# HELP tcast_rounds_total Rounds across all sessions.
# TYPE tcast_rounds_total counter
tcast_rounds_total{algorithm="2tBins"} 0
tcast_rounds_total{algorithm="ABNS"} 9
tcast_rounds_total{algorithm="sweep-point"} 0
# HELP tcast_verdicts_total Session verdicts by outcome.
# TYPE tcast_verdicts_total counter
tcast_verdicts_total{algorithm="2tBins",verdict="yes"} 0
tcast_verdicts_total{algorithm="2tBins",verdict="no"} 0
tcast_verdicts_total{algorithm="ABNS",verdict="yes"} 2
tcast_verdicts_total{algorithm="ABNS",verdict="no"} 1
tcast_verdicts_total{algorithm="sweep-point",verdict="yes"} 0
tcast_verdicts_total{algorithm="sweep-point",verdict="no"} 0
# HELP tcast_job_latency_microseconds Successful-job wall-clock latency.
# TYPE tcast_job_latency_microseconds summary
tcast_job_latency_microseconds{algorithm="2tBins",quantile="0.5"} 0.0
tcast_job_latency_microseconds{algorithm="2tBins",quantile="0.9"} 0.0
tcast_job_latency_microseconds{algorithm="2tBins",quantile="0.99"} 0.0
tcast_job_latency_microseconds_sum{algorithm="2tBins"} 0.0
tcast_job_latency_microseconds_count{algorithm="2tBins"} 0
tcast_job_latency_microseconds{algorithm="ABNS",quantile="0.5"} 1500.0
tcast_job_latency_microseconds{algorithm="ABNS",quantile="0.9"} 2750.0
tcast_job_latency_microseconds{algorithm="ABNS",quantile="0.99"} 2750.0
tcast_job_latency_microseconds_sum{algorithm="ABNS"} 3250.0
tcast_job_latency_microseconds_count{algorithm="ABNS"} 3
tcast_job_latency_microseconds{algorithm="sweep-point",quantile="0.5"} 1234.0
tcast_job_latency_microseconds{algorithm="sweep-point",quantile="0.9"} 1234.0
tcast_job_latency_microseconds{algorithm="sweep-point",quantile="0.99"} 1234.0
tcast_job_latency_microseconds_sum{algorithm="sweep-point"} 1234.0
tcast_job_latency_microseconds_count{algorithm="sweep-point"} 1
# HELP tcast_job_queries Group queries per session.
# TYPE tcast_job_queries summary
tcast_job_queries{algorithm="2tBins",quantile="0.5"} 0.0
tcast_job_queries{algorithm="2tBins",quantile="0.9"} 0.0
tcast_job_queries{algorithm="2tBins",quantile="0.99"} 0.0
tcast_job_queries_sum{algorithm="2tBins"} 0.0
tcast_job_queries_count{algorithm="2tBins"} 0
tcast_job_queries{algorithm="ABNS",quantile="0.5"} 48.0
tcast_job_queries{algorithm="ABNS",quantile="0.9"} 66.0
tcast_job_queries{algorithm="ABNS",quantile="0.99"} 66.0
tcast_job_queries_sum{algorithm="ABNS"} 124.0
tcast_job_queries_count{algorithm="ABNS"} 3
tcast_job_queries{algorithm="sweep-point",quantile="0.5"} 0.0
tcast_job_queries{algorithm="sweep-point",quantile="0.9"} 0.0
tcast_job_queries{algorithm="sweep-point",quantile="0.99"} 0.0
tcast_job_queries_sum{algorithm="sweep-point"} 0.0
tcast_job_queries_count{algorithm="sweep-point"} 0
# HELP tcast_job_retry_queries Retry queries per session.
# TYPE tcast_job_retry_queries summary
tcast_job_retry_queries{algorithm="2tBins",quantile="0.5"} 0.0
tcast_job_retry_queries{algorithm="2tBins",quantile="0.9"} 0.0
tcast_job_retry_queries{algorithm="2tBins",quantile="0.99"} 0.0
tcast_job_retry_queries_sum{algorithm="2tBins"} 0.0
tcast_job_retry_queries_count{algorithm="2tBins"} 0
tcast_job_retry_queries{algorithm="ABNS",quantile="0.5"} 6.0
tcast_job_retry_queries{algorithm="ABNS",quantile="0.9"} 9.0
tcast_job_retry_queries{algorithm="ABNS",quantile="0.99"} 9.0
tcast_job_retry_queries_sum{algorithm="ABNS"} 14.0
tcast_job_retry_queries_count{algorithm="ABNS"} 3
tcast_job_retry_queries{algorithm="sweep-point",quantile="0.5"} 0.0
tcast_job_retry_queries{algorithm="sweep-point",quantile="0.9"} 0.0
tcast_job_retry_queries{algorithm="sweep-point",quantile="0.99"} 0.0
tcast_job_retry_queries_sum{algorithm="sweep-point"} 0.0
tcast_job_retry_queries_count{algorithm="sweep-point"} 0
# HELP tcast_job_failed_latency_microseconds Wall-clock latency of failed jobs, kept apart from successes.
# TYPE tcast_job_failed_latency_microseconds summary
tcast_job_failed_latency_microseconds_sum{algorithm="2tBins"} 40.0
tcast_job_failed_latency_microseconds_count{algorithm="2tBins"} 1
tcast_job_failed_latency_microseconds_sum{algorithm="ABNS"} 15.0
tcast_job_failed_latency_microseconds_count{algorithm="ABNS"} 1
tcast_job_failed_latency_microseconds_sum{algorithm="sweep-point"} 0.0
tcast_job_failed_latency_microseconds_count{algorithm="sweep-point"} 0
# HELP tcast_queue_wait_microseconds Queue wait (submission to execution start) across all executed query jobs.
# TYPE tcast_queue_wait_microseconds summary
tcast_queue_wait_microseconds{quantile="0.5"} 1500.0
tcast_queue_wait_microseconds{quantile="0.9"} 4020.0
tcast_queue_wait_microseconds{quantile="0.99"} 4020.0
tcast_queue_wait_microseconds_sum 4420.0
tcast_queue_wait_microseconds_count 3
# HELP tcast_batch_size_jobs Jobs claimed per worker dequeue batch.
# TYPE tcast_batch_size_jobs summary
tcast_batch_size_jobs{quantile="0.5"} 2.0
tcast_batch_size_jobs{quantile="0.9"} 6.0
tcast_batch_size_jobs{quantile="0.99"} 6.0
tcast_batch_size_jobs_sum 7.0
tcast_batch_size_jobs_count 2
# HELP tcast_net_frames_in_total Frames decoded from the peer.
# TYPE tcast_net_frames_in_total counter
tcast_net_frames_in_total{conn="net/conn-0",generation="1"} 2
tcast_net_frames_in_total{conn="net/server",generation="0"} 0
# HELP tcast_net_frames_out_total Frames written to the peer.
# TYPE tcast_net_frames_out_total counter
tcast_net_frames_out_total{conn="net/conn-0",generation="1"} 1
tcast_net_frames_out_total{conn="net/server",generation="0"} 0
# HELP tcast_net_bytes_in_total Wire bytes received (decoded frames only).
# TYPE tcast_net_bytes_in_total counter
tcast_net_bytes_in_total{conn="net/conn-0",generation="1"} 160
tcast_net_bytes_in_total{conn="net/server",generation="0"} 0
# HELP tcast_net_bytes_out_total Wire bytes sent.
# TYPE tcast_net_bytes_out_total counter
tcast_net_bytes_out_total{conn="net/conn-0",generation="1"} 210
tcast_net_bytes_out_total{conn="net/server",generation="0"} 0
# HELP tcast_net_decode_errors_total Inbound frames that failed CRC or payload decoding.
# TYPE tcast_net_decode_errors_total counter
tcast_net_decode_errors_total{conn="net/conn-0",generation="1"} 1
tcast_net_decode_errors_total{conn="net/server",generation="0"} 0
# HELP tcast_net_busy_rejections_total Requests rejected with a Busy error frame.
# TYPE tcast_net_busy_rejections_total counter
tcast_net_busy_rejections_total{conn="net/conn-0",generation="1"} 1
tcast_net_busy_rejections_total{conn="net/server",generation="0"} 0
# HELP tcast_net_auth_failures_total Failed Auth handshakes (wrong key, replayed nonce, truncated Auth frame, submit-before-auth).
# TYPE tcast_net_auth_failures_total counter
tcast_net_auth_failures_total{conn="net/conn-0",generation="1"} 1
tcast_net_auth_failures_total{conn="net/server",generation="0"} 0
# HELP tcast_net_reconnects_total Transport reconnects folded into this connection label.
# TYPE tcast_net_reconnects_total counter
tcast_net_reconnects_total{conn="net/conn-0",generation="1"} 1
tcast_net_reconnects_total{conn="net/server",generation="0"} 0
# HELP tcast_net_accept_errors_total Failed accept(2) calls on a server listener (fd exhaustion, aborted handshakes).
# TYPE tcast_net_accept_errors_total counter
tcast_net_accept_errors_total{conn="net/conn-0",generation="1"} 0
tcast_net_accept_errors_total{conn="net/server",generation="0"} 2
# HELP tcast_net_conns_opened_total Server connections admitted under this label.
# TYPE tcast_net_conns_opened_total counter
tcast_net_conns_opened_total{conn="net/conn-0",generation="1"} 0
tcast_net_conns_opened_total{conn="net/server",generation="0"} 5
# HELP tcast_net_conns_closed_total Server connections fully closed under this label.
# TYPE tcast_net_conns_closed_total counter
tcast_net_conns_closed_total{conn="net/conn-0",generation="1"} 0
tcast_net_conns_closed_total{conn="net/server",generation="0"} 2
# HELP tcast_net_open_connections Currently open server connections (opened - closed).
# TYPE tcast_net_open_connections gauge
tcast_net_open_connections{conn="net/conn-0",generation="1"} 0
tcast_net_open_connections{conn="net/server",generation="0"} 3
# HELP tcast_net_io_threads Reactor I/O threads serving this label (0 on client-side labels).
# TYPE tcast_net_io_threads gauge
tcast_net_io_threads{conn="net/conn-0",generation="1"} 0
tcast_net_io_threads{conn="net/server",generation="0"} 2
# HELP tcast_tenant_jobs_total Jobs completed per tenant, whatever the outcome.
# TYPE tcast_tenant_jobs_total counter
tcast_tenant_jobs_total{tenant="gold"} 3
tcast_tenant_jobs_total{tenant="silver"} 0
# HELP tcast_tenant_quota_rejections_total Jobs rejected at admission because the tenant was over quota.
# TYPE tcast_tenant_quota_rejections_total counter
tcast_tenant_quota_rejections_total{tenant="gold"} 4
tcast_tenant_quota_rejections_total{tenant="silver"} 0
# HELP tcast_tenant_queue_wait_microseconds Queue wait (submission to execution start) per completed job.
# TYPE tcast_tenant_queue_wait_microseconds summary
tcast_tenant_queue_wait_microseconds{tenant="gold",quantile="0.5"} 1500.0
tcast_tenant_queue_wait_microseconds{tenant="gold",quantile="0.9"} 5100.0
tcast_tenant_queue_wait_microseconds{tenant="gold",quantile="0.99"} 5100.0
tcast_tenant_queue_wait_microseconds_sum{tenant="gold"} 5700.0
tcast_tenant_queue_wait_microseconds_count{tenant="gold"} 3
tcast_tenant_queue_wait_microseconds{tenant="silver",quantile="0.5"} 0.0
tcast_tenant_queue_wait_microseconds{tenant="silver",quantile="0.9"} 0.0
tcast_tenant_queue_wait_microseconds{tenant="silver",quantile="0.99"} 0.0
tcast_tenant_queue_wait_microseconds_sum{tenant="silver"} 0.0
tcast_tenant_queue_wait_microseconds_count{tenant="silver"} 0
"#;

#[test]
fn csv_dump_is_byte_stable() {
    assert_eq!(snapshot().to_csv(), CSV);
}

#[test]
fn markdown_dump_is_byte_stable() {
    assert_eq!(snapshot().to_markdown(), MARKDOWN);
}

#[test]
fn prometheus_dump_is_byte_stable() {
    assert_eq!(snapshot().to_prometheus(), PROMETHEUS);
}
