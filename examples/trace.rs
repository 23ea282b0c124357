//! One query, one trace — end to end through the whole stack.
//!
//! Spins up two loopback `tcast-net` servers behind a `ShardedClient`,
//! installs a `tcast-obs` memory sink, and submits a single query
//! stamped with a fresh `TraceId`. The id rides the `Submit` frame
//! across the wire, the service re-enters it on the worker thread, and
//! the engine's spans nest under the service's — so afterwards the sink
//! holds one correlated trace covering route decision, wire submit,
//! server receive, queue wait, engine rounds, verdict, response, and
//! the client-measured RTT. The example prints that trace as a tree.
//!
//! ```text
//! cargo run --release --example trace
//! ```

use std::sync::Arc;

use tcast_net::prelude::*;
use tcast_obs::{add_sink, check_nesting, MemorySink, RecordKind, TraceId};

fn main() {
    let sink = Arc::new(MemorySink::new());
    let _guard = add_sink(sink.clone());

    // Two loopback shards behind one sharded client.
    let servers: Vec<(NetServer, Arc<QueryService>)> = (0..2)
        .map(|_| {
            let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
            let server =
                NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
                    .expect("bind loopback");
            (server, service)
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|(s, _)| s.local_addr()).collect();
    let cluster = ShardedClient::connect(addrs, ClusterConfig::default()).expect("connect");

    // One query, one fresh trace id.
    let trace = TraceId::fresh();
    let job = QueryJob::new(
        AlgorithmSpec::TwoTBins,
        ChannelSpec::ideal(256, 40, CollisionModel::OnePlus).seeded(7, 11),
        32,
        13,
    )
    .with_trace(trace);
    println!("submitting one query under trace {trace}\n");
    let report = cluster
        .submit(vec![job])
        .wait()
        .pop()
        .expect("one result")
        .expect("query succeeded");

    tcast_obs::flush();
    let records = sink.for_trace(trace);
    check_nesting(&records).expect("spans nest cleanly");

    // Render the trace as a tree: spans indent, events sit inside them.
    let mut depth = 0usize;
    for r in &records {
        if r.kind == RecordKind::SpanEnd {
            depth -= 1;
        }
        let pad = "  ".repeat(depth);
        match r.kind {
            RecordKind::SpanStart => {
                println!("{pad}{} {{  {}", r.name, render_fields(r.fields()));
                depth += 1;
            }
            RecordKind::SpanEnd => {
                println!("{pad}}} {} took {:.1}us", r.name, r.dur_ns as f64 / 1_000.0);
            }
            RecordKind::Event => {
                println!("{pad}- {}  {}", r.name, render_fields(r.fields()));
            }
        }
    }

    println!(
        "\n{} records, one TraceId, every tier accounted for: \
         verdict {} in {} rounds / {} queries",
        records.len(),
        if report.answer { "yes" } else { "no" },
        report.rounds,
        report.queries,
    );

    cluster.close();
    for (server, _service) in servers {
        server.shutdown();
    }
}

fn render_fields(fields: &[(&'static str, u64)]) -> String {
    fields
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}
