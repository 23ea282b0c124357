//! Authenticated-session tests: the happy path, every negative path
//! (wrong key, unknown tenant, replayed nonce, truncated Auth frame,
//! submit-before-auth, absent credentials), and the invariants around
//! them — each failure is a *typed* error frame, never a hang or a
//! silent close, and every server-side rejection lands in the
//! `auth_failures` counter.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tcast::{ChannelSpec, CollisionModel};
use tcast_net::crc::crc32;
use tcast_net::frame::{HEADER_LEN, MAGIC};
use tcast_net::{
    ErrorCode, Frame, FrameReader, NetClient, NetClientConfig, NetError, NetServer,
    NetServerConfig, TenantAuth, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_service::{AlgorithmSpec, QueryJob, QueryService, ServiceConfig};
use tcast_tenant::{auth_mac, TenantRegistry, TenantSpec};

const KEY_A: &[u8] = b"alice-shared-key";
const KEY_B: &[u8] = b"bob-shared-key";

fn auth_server() -> (NetServer, Arc<QueryService>) {
    let mut registry = TenantRegistry::new();
    registry.register(TenantSpec::new("alice", KEY_A));
    registry.register(TenantSpec::new("bob", KEY_B).weight(2));
    let service = Arc::new(QueryService::with_tenants(
        ServiceConfig::with_workers(2),
        Arc::new(registry),
    ));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind loopback");
    (server, service)
}

fn sample_job() -> QueryJob {
    QueryJob::new(
        AlgorithmSpec::AbnsP02T,
        ChannelSpec::ideal(64, 20, CollisionModel::two_plus_default()).seeded(1, 2),
        8,
        7,
    )
}

fn client_config(auth: Option<TenantAuth>) -> NetClientConfig {
    let config = NetClientConfig::default().with_handshake_timeout(Duration::from_secs(2));
    match auth {
        Some(auth) => config.with_auth(auth),
        None => config,
    }
}

fn server_auth_failures(service: &QueryService) -> u64 {
    service
        .metrics_registry()
        .snapshot()
        .net_rows
        .iter()
        .map(|r| r.auth_failures)
        .sum()
}

/// Raw-socket harness: dial, say Hello, return the stream, a frame
/// reader, and the challenge from the HelloAck. Read timeouts keep every
/// negative-path test hang-free by construction.
fn hello(addr: std::net::SocketAddr) -> (TcpStream, FrameReader, [u8; 16]) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    let hello = Frame::Hello {
        min_version: PROTOCOL_V4,
        max_version: PROTOCOL_V4,
    };
    w.write_all(&hello.to_bytes()).expect("write hello");
    let mut reader = FrameReader::new();
    let (ack, _) = read_frame(&mut w, &mut reader);
    let Frame::HelloAck {
        version,
        challenge: Some(nonce),
    } = ack
    else {
        panic!("expected challenging HelloAck, got {ack:?}");
    };
    assert_eq!(version, PROTOCOL_V4);
    (stream, reader, nonce)
}

fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> (Frame, usize) {
    loop {
        match reader.read_from(stream, DEFAULT_MAX_PAYLOAD) {
            Ok(Some(got)) => return got,
            Ok(None) => continue, // timeout tick with partial frame
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

#[test]
fn authenticated_submit_round_trips() {
    let (server, service) = auth_server();
    let client = NetClient::connect(
        server.local_addr(),
        client_config(Some(TenantAuth::new("alice", KEY_A))),
    )
    .expect("authenticated connect");

    let report = client
        .submit_one(sample_job())
        .wait()
        .expect("job round-trips");
    assert!(report.queries > 0);

    // The job ran under the authenticated tenant: per-tenant metrics
    // picked it up even though the Submit frame named no tenant.
    let rows = service.metrics_registry().snapshot().tenant_rows;
    let alice = rows
        .iter()
        .find(|r| r.tenant == "alice")
        .expect("alice metrics row");
    assert_eq!(alice.jobs, 1);
    assert_eq!(server_auth_failures(&service), 0);

    client.close();
    server.shutdown();
}

#[test]
fn wrong_key_is_a_typed_fatal_handshake_error() {
    let (server, service) = auth_server();
    let Err(err) = NetClient::connect(
        server.local_addr(),
        client_config(Some(TenantAuth::new("alice", KEY_B))),
    ) else {
        panic!("wrong key must not connect");
    };
    assert!(
        matches!(
            err,
            NetError::Handshake {
                code: ErrorCode::AuthFailed,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!err.is_retryable(), "credential failures are permanent");
    assert_eq!(server_auth_failures(&service), 1);
    server.shutdown();
}

#[test]
fn unknown_tenant_is_rejected_without_an_existence_oracle() {
    let (server, service) = auth_server();
    let Err(err) = NetClient::connect(
        server.local_addr(),
        client_config(Some(TenantAuth::new("mallory", KEY_A))),
    ) else {
        panic!("unknown tenant must not connect");
    };
    let NetError::Handshake { code, detail } = &err else {
        panic!("expected typed handshake error, got {err:?}");
    };
    assert_eq!(*code, ErrorCode::AuthFailed);
    // Unknown-tenant and wrong-key answers must be indistinguishable.
    assert_eq!(detail, "credentials rejected");
    assert_eq!(server_auth_failures(&service), 1);
    server.shutdown();
}

#[test]
fn absent_credentials_fail_before_any_submit() {
    let (server, service) = auth_server();
    let Err(err) = NetClient::connect(server.local_addr(), client_config(None)) else {
        panic!("credential-less connect against an auth server");
    };
    assert!(
        matches!(
            err,
            NetError::Handshake {
                code: ErrorCode::AuthRequired,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!err.is_retryable());
    server.shutdown();
    drop(service);
}

#[test]
fn submit_before_auth_gets_auth_required_not_a_hang() {
    let (server, service) = auth_server();
    let (stream, mut reader, _nonce) = hello(server.local_addr());
    let mut w = stream.try_clone().expect("clone");
    let submit = Frame::Submit {
        request_id: 9,
        job: sample_job(),
    };
    w.write_all(&submit.to_bytes()).expect("write submit");
    let (frame, _) = read_frame(&mut w, &mut reader);
    let Frame::Error { code, .. } = frame else {
        panic!("expected typed error frame, got {frame:?}");
    };
    assert_eq!(code, ErrorCode::AuthRequired);
    assert_eq!(server_auth_failures(&service), 1);
    server.shutdown();
}

#[test]
fn replayed_nonce_from_another_connection_is_rejected() {
    let (server, service) = auth_server();

    // Record a valid Auth answer on connection 1 ...
    let (stream1, mut reader1, nonce1) = hello(server.local_addr());
    let recorded = Frame::Auth {
        tenant: "alice".into(),
        mac: auth_mac(KEY_A, &nonce1, "alice"),
    };
    let mut w1 = stream1.try_clone().expect("clone");
    w1.write_all(&recorded.to_bytes()).expect("write auth");
    let (frame, _) = read_frame(&mut w1, &mut reader1);
    assert_eq!(frame, Frame::AuthOk, "the original credentials are good");

    // ... and replay it verbatim on connection 2. The server issued a
    // fresh nonce there, so the recorded MAC cannot verify.
    let (stream2, mut reader2, nonce2) = hello(server.local_addr());
    assert_ne!(nonce1, nonce2, "nonces are per-connection");
    let mut w2 = stream2.try_clone().expect("clone");
    w2.write_all(&recorded.to_bytes()).expect("write replay");
    let (frame, _) = read_frame(&mut w2, &mut reader2);
    let Frame::Error { code, .. } = frame else {
        panic!("expected typed error frame, got {frame:?}");
    };
    assert_eq!(code, ErrorCode::AuthFailed);
    assert_eq!(server_auth_failures(&service), 1);
    server.shutdown();
}

#[test]
fn truncated_auth_frame_is_a_typed_auth_failure() {
    let (server, service) = auth_server();
    let (stream, mut reader, _nonce) = hello(server.local_addr());

    // Hand-assemble an Auth frame whose payload stops mid-MAC: a
    // well-framed (magic, length, CRC all valid) but undecodable Auth.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(0x0B); // Auth frame type
    bytes.push(PROTOCOL_V4);
    bytes.extend_from_slice(&0u64.to_le_bytes()); // request id
    let mut payload = Vec::new();
    payload.extend_from_slice(&5u32.to_le_bytes()); // name length prefix
    payload.extend_from_slice(b"alice");
    payload.extend_from_slice(&[0u8; 8]); // only 8 of the 32 MAC bytes
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let crc = crc32(&bytes[..HEADER_LEN + payload.len()]);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let mut w = stream.try_clone().expect("clone");
    w.write_all(&bytes).expect("write truncated auth");
    let (frame, _) = read_frame(&mut w, &mut reader);
    let Frame::Error { code, .. } = frame else {
        panic!("expected typed error frame, got {frame:?}");
    };
    assert_eq!(code, ErrorCode::AuthFailed);
    assert_eq!(server_auth_failures(&service), 1);
    server.shutdown();
}

#[test]
fn unauthenticated_server_still_accepts_plain_clients() {
    // No registry ⇒ no challenge ⇒ the plain Hello/HelloAck handshake.
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(2)));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), NetServerConfig::default())
        .expect("bind loopback");
    let client =
        NetClient::connect(server.local_addr(), client_config(None)).expect("plain connect");
    let report = client.submit_one(sample_job()).wait().expect("round trip");
    assert!(report.queries > 0);
    assert!(
        service.metrics_registry().snapshot().tenant_rows.is_empty(),
        "no tenants, no tenant rows"
    );
    client.close();
    server.shutdown();
}
