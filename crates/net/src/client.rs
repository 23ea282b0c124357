//! `NetClient` — a pooled, pipelined client for [`crate::NetServer`].
//!
//! The client mirrors the in-process `Service` submit/wait shape: a
//! [`NetClient::submit`] call returns a [`NetBatch`] of
//! [`NetJobHandle`]s immediately, with every job already on the wire.
//! Many jobs ride one connection concurrently; a background reader
//! thread matches responses to handles by request id, so responses may
//! arrive in any order.
//!
//! `Busy` error frames (admission backpressure) are retried
//! transparently with linear backoff up to a configurable budget; a
//! dead connection is re-dialed once per submit before the affected
//! handles fail with [`NetError::ConnectionLost`].

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};

use tcast::QueryReport;
use tcast_service::{Family, JobError, NetCounters, QueryJob};

use crate::frame::{
    write_frame, ErrorCode, Frame, FrameReadError, FrameReader, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};

/// Credentials for the `Auth` handshake against a multi-tenant server.
#[derive(Clone, PartialEq, Eq)]
pub struct TenantAuth {
    /// The tenant name registered on the server.
    pub tenant: String,
    /// The tenant's shared HMAC key.
    pub key: Vec<u8>,
}

impl TenantAuth {
    /// Credentials for `tenant` with the given shared key.
    pub fn new(tenant: impl Into<String>, key: impl Into<Vec<u8>>) -> Self {
        Self {
            tenant: tenant.into(),
            key: key.into(),
        }
    }
}

impl std::fmt::Debug for TenantAuth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key must never end up in logs via a derived Debug.
        f.debug_struct("TenantAuth")
            .field("tenant", &self.tenant)
            .field("key", &"<redacted>")
            .finish()
    }
}

/// Tuning knobs for [`NetClient`]. Construct via
/// [`NetClientConfig::default`] plus the `with_*` builders — the struct
/// is `#[non_exhaustive]` so new knobs can land without breaking
/// callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct NetClientConfig {
    /// Number of TCP connections to spread submitted jobs across.
    pub pool_size: usize,
    /// How many times a `Busy` rejection is retried before the handle
    /// resolves to [`NetError::Busy`].
    pub busy_retries: u32,
    /// Base backoff between `Busy` retries; the k-th retry sleeps
    /// `k * busy_backoff`, scaled by a per-connection random jitter
    /// drawn from `[0.5, 1.5)` for each retry. Without the jitter,
    /// pooled connections bounced by the same backpressure wave would
    /// resend in lockstep and collide at the server again, every round.
    pub busy_backoff: Duration,
    /// Deadline for connect + version negotiation on each connection.
    pub handshake_timeout: Duration,
    /// Frames whose payload exceeds this are rejected as malformed.
    pub max_frame_payload: u32,
    /// Tenant credentials answered when the server's `HelloAck` carries
    /// an auth challenge. `None` (the default) connects unauthenticated;
    /// a challenging server then rejects the handshake with
    /// [`ErrorCode::AuthRequired`].
    pub auth: Option<TenantAuth>,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            pool_size: 1,
            busy_retries: 16,
            busy_backoff: Duration::from_millis(2),
            handshake_timeout: Duration::from_secs(5),
            max_frame_payload: DEFAULT_MAX_PAYLOAD,
            auth: None,
        }
    }
}

impl NetClientConfig {
    /// Sets [`Self::pool_size`].
    pub fn with_pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size;
        self
    }

    /// Sets [`Self::busy_retries`].
    pub fn with_busy_retries(mut self, busy_retries: u32) -> Self {
        self.busy_retries = busy_retries;
        self
    }

    /// Sets [`Self::busy_backoff`].
    pub fn with_busy_backoff(mut self, busy_backoff: Duration) -> Self {
        self.busy_backoff = busy_backoff;
        self
    }

    /// Sets [`Self::handshake_timeout`].
    pub fn with_handshake_timeout(mut self, handshake_timeout: Duration) -> Self {
        self.handshake_timeout = handshake_timeout;
        self
    }

    /// Sets [`Self::max_frame_payload`].
    pub fn with_max_frame_payload(mut self, max_frame_payload: u32) -> Self {
        self.max_frame_payload = max_frame_payload;
        self
    }

    /// Sets [`Self::auth`].
    pub fn with_auth(mut self, auth: TenantAuth) -> Self {
        self.auth = Some(auth);
        self
    }
}

/// What a remote job resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The job ran remotely and failed (panic or deadline).
    Job(JobError),
    /// The server rejected the job as busy and the retry budget ran out.
    Busy,
    /// The server is draining and refused the job.
    ServerShutdown,
    /// The connection died before a response arrived.
    ConnectionLost(String),
    /// The server rejected the handshake with a typed error frame before
    /// the session became active. [`NetError::is_retryable`] is the
    /// difference between a transient rejection (`Busy`, `ShuttingDown`)
    /// and one that will repeat forever (`UnsupportedVersion`,
    /// `AuthRequired`, `AuthFailed`).
    Handshake {
        /// The typed code from the server's error frame.
        code: ErrorCode,
        /// Human-readable detail from the server, possibly empty.
        detail: String,
    },
    /// The peer violated the protocol.
    Protocol(String),
}

impl NetError {
    /// Whether retrying the same operation against the same server can
    /// ever succeed. Version mismatches and credential failures are
    /// permanent until configuration changes; busy/shutdown/transport
    /// errors are conditions that pass.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Busy | Self::ServerShutdown | Self::ConnectionLost(_) => true,
            Self::Handshake { code, .. } => {
                matches!(code, ErrorCode::Busy | ErrorCode::ShuttingDown)
            }
            Self::Job(_) | Self::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Job(e) => write!(f, "remote job failed: {e}"),
            Self::Busy => write!(f, "server busy: retry budget exhausted"),
            Self::ServerShutdown => write!(f, "server is shutting down"),
            Self::ConnectionLost(detail) => write!(f, "connection lost: {detail}"),
            Self::Handshake { code, detail } => {
                write!(f, "handshake rejected: {code}")?;
                if !detail.is_empty() {
                    write!(f, " ({detail})")?;
                }
                Ok(())
            }
            Self::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result of one remote job.
pub type NetJobResult = Result<QueryReport, NetError>;

/// One-shot slot a reader thread resolves and a waiter blocks on.
///
/// Built on `std::sync` rather than `parking_lot` because the waiter
/// needs a timed condvar wait.
struct Slot {
    state: StdMutex<Option<NetJobResult>>,
    cv: StdCondvar,
    /// Set by [`NetBatch::handles`] once a second handle shares the
    /// slot: every waiter then clones the result instead of taking it.
    /// An explicit flag, because `Arc::strong_count` also counts the
    /// reader thread's `Pending` entry, which it drops on its own time.
    shared: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: StdMutex::new(None),
            cv: StdCondvar::new(),
            shared: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<NetJobResult>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn resolve(&self, result: NetJobResult) {
        let mut state = self.lock();
        if state.is_none() {
            *state = Some(result);
            self.cv.notify_all();
        }
    }

    /// The resolved result: moved out when this waiter is the slot's
    /// only handle, cloned when [`NetBatch::handles`] shared it.
    fn consume(&self, state: &mut Option<NetJobResult>) -> Option<NetJobResult> {
        if self.shared.load(Ordering::Acquire) {
            state.clone()
        } else {
            state.take()
        }
    }

    fn wait(&self) -> NetJobResult {
        let mut state = self.lock();
        while state.is_none() {
            state = self
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        self.consume(&mut state).expect("slot resolved")
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<NetJobResult> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.lock();
        while state.is_none() {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
        self.consume(&mut state)
    }
}

/// A handle to one in-flight remote job.
///
/// Waiting consumes the handle and moves the report out of its slot;
/// only handles shared through [`NetBatch::handles`] clone it.
#[must_use = "a network job handle does nothing unless waited on"]
pub struct NetJobHandle {
    slot: Arc<Slot>,
}

impl NetJobHandle {
    /// A handle that is already resolved to `err` — used when a job
    /// could not even be written to a connection.
    pub(crate) fn failed(err: NetError) -> Self {
        let slot = Slot::new();
        slot.resolve(Err(err));
        Self { slot }
    }

    /// Blocks until the response frame arrives (or the connection dies).
    pub fn wait(self) -> NetJobResult {
        self.slot.wait()
    }

    /// Blocks up to `timeout`; returns `None` if no response arrived in
    /// time (the handle is consumed — the response, if it later arrives,
    /// is dropped).
    pub fn wait_timeout(self, timeout: Duration) -> Option<NetJobResult> {
        self.slot.wait_timeout(timeout)
    }
}

/// A batch of in-flight remote jobs, in submission order.
#[must_use = "a network batch does nothing unless waited on"]
pub struct NetBatch {
    handles: Vec<NetJobHandle>,
}

impl NetBatch {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the batch carries no jobs.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Per-job completion handles, in submission order — non-consuming,
    /// mirroring the in-process `Batch::handles`. The batch itself can
    /// still be waited on afterwards; handles and batch share the
    /// underlying slots.
    pub fn handles(&self) -> Vec<NetJobHandle> {
        self.handles
            .iter()
            .map(|h| {
                h.slot.shared.store(true, Ordering::Release);
                NetJobHandle {
                    slot: h.slot.clone(),
                }
            })
            .collect()
    }

    /// Blocks until every response arrived; results in submission order.
    pub fn wait(self) -> Vec<NetJobResult> {
        self.handles.into_iter().map(NetJobHandle::wait).collect()
    }

    /// Blocks up to `timeout` for the *whole batch*; returns `None` if
    /// any response was still missing at the deadline (the batch is
    /// consumed, and late responses are dropped — same contract as
    /// [`NetJobHandle::wait_timeout`]).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Vec<NetJobResult>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut results = Vec::with_capacity(self.handles.len());
        for handle in self.handles {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            results.push(handle.wait_timeout(left)?);
        }
        Some(results)
    }
}

/// A pending request: the slot to resolve plus everything needed to
/// resend the job after a `Busy` rejection.
struct Pending {
    slot: Arc<Slot>,
    job: QueryJob,
    busy_retries_left: u32,
    busy_attempt: u32,
    /// When the job was first written; the `net.rtt` event spans the
    /// whole submit-to-response interval, `Busy` resends included.
    sent_at: Instant,
    trace: tcast_obs::TraceId,
}

/// Emits the client-side round-trip event for one answered request,
/// correlated to the job's trace.
fn emit_rtt(p: &Pending, request_id: u64) {
    tcast_obs::event(
        p.trace,
        "net.rtt",
        &[
            ("us", p.sent_at.elapsed().as_micros() as u64),
            ("request_id", request_id),
        ],
    );
}

/// Runs the client half of the connection handshake on a fresh stream:
/// `Hello`/`HelloAck` version negotiation plus, when the ack carries a
/// challenge, the `Auth`/`AuthOk` exchange.
fn negotiate(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    config: &NetClientConfig,
    counters: Option<&Arc<NetCounters>>,
) -> Result<(), NetError> {
    fn read_one(
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        max_payload: u32,
        counters: Option<&Arc<NetCounters>>,
    ) -> Result<Frame, NetError> {
        match reader.read_from(stream, max_payload) {
            Ok(Some((frame, n))) => {
                if let Some(c) = counters {
                    c.frame_in(n as u64);
                }
                Ok(frame)
            }
            Ok(None) => Err(NetError::ConnectionLost("handshake timed out".into())),
            Err(e) => Err(NetError::ConnectionLost(format!("handshake failed: {e}"))),
        }
    }

    let hello_bytes = write_frame(
        stream,
        &Frame::Hello {
            min_version: PROTOCOL_V4,
            max_version: PROTOCOL_V4,
        },
    )
    .map_err(|e| NetError::ConnectionLost(format!("handshake write failed: {e}")))?;
    if let Some(c) = counters {
        c.frame_out(hello_bytes as u64);
    }

    let challenge = match read_one(stream, reader, config.max_frame_payload, counters)? {
        Frame::HelloAck { version, challenge } => {
            if version != PROTOCOL_V4 {
                return Err(NetError::Protocol(format!(
                    "server acknowledged unsupported version {version}"
                )));
            }
            challenge
        }
        Frame::Error { code, detail, .. } => return Err(NetError::Handshake { code, detail }),
        other => {
            return Err(NetError::Protocol(format!(
                "unexpected handshake frame: {other:?}"
            )))
        }
    };

    let Some(nonce) = challenge else {
        return Ok(());
    };
    // Fail locally with the same typed error the server would answer
    // with: without credentials, nothing useful can be sent.
    let Some(auth) = &config.auth else {
        return Err(NetError::Handshake {
            code: ErrorCode::AuthRequired,
            detail: "server demands authentication but no credentials are configured".into(),
        });
    };
    let mac = tcast_tenant::auth_mac(&auth.key, &nonce, &auth.tenant);
    let auth_bytes = write_frame(
        stream,
        &Frame::Auth {
            tenant: auth.tenant.clone(),
            mac,
        },
    )
    .map_err(|e| NetError::ConnectionLost(format!("auth write failed: {e}")))?;
    if let Some(c) = counters {
        c.frame_out(auth_bytes as u64);
    }
    match read_one(stream, reader, config.max_frame_payload, counters)? {
        Frame::AuthOk => Ok(()),
        Frame::Error { code, detail, .. } => {
            if let Some(c) = counters {
                c.auth_failure();
            }
            Err(NetError::Handshake { code, detail })
        }
        other => Err(NetError::Protocol(format!(
            "unexpected auth response: {other:?}"
        ))),
    }
}

/// Shared state of one pooled connection.
struct Conn {
    addr: SocketAddr,
    config: NetClientConfig,
    /// Write half plus its frame buffer.
    write: Mutex<Writer>,
    pending: Mutex<HashMap<u64, Pending>>,
    reader: Mutex<Option<JoinHandle<()>>>,
    dead: AtomicBool,
    closing: AtomicBool,
    /// Highest request id seen in a response, for the out-of-order stat.
    last_arrived: AtomicU64,
    out_of_order: AtomicU64,
    busy_resends: AtomicU64,
    /// Successful dials; every dial beyond the first is a reconnect and
    /// bumps the counters' generation tag.
    dials: AtomicU64,
    /// Optional wire counters (frames/bytes in and out, decode errors,
    /// busy rejections, reconnects), shared with a metrics registry by
    /// the caller.
    counters: Option<Arc<NetCounters>>,
    /// Per-connection xorshift state feeding the `Busy` backoff jitter.
    /// Seeded uniquely per connection so pooled connections never share
    /// a retry schedule.
    jitter: AtomicU64,
}

/// A connection's write half and the buffer every outbound frame is
/// encoded into, reused under the write lock so sending allocates
/// nothing once the buffer holds one frame.
struct Writer {
    /// `None` while the connection is down.
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// A unique, unpredictable nonzero seed per connection: hash of a
/// process-wide counter under `RandomState`'s per-process random keys.
fn jitter_seed() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut hasher = RandomState::new().build_hasher();
    hasher.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    hasher.finish() | 1
}

fn xorshift_step(x: u64) -> u64 {
    let mut y = x;
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    y
}

/// Advances the jitter state and maps the draw onto `[0.5, 1.5)`.
fn next_jitter(state: &AtomicU64) -> f64 {
    let mut cur = state.load(Ordering::Relaxed);
    loop {
        let next = xorshift_step(cur);
        match state.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return 0.5 + (next >> 11) as f64 / (1u64 << 53) as f64,
            Err(seen) => cur = seen,
        }
    }
}

impl Conn {
    fn dial(
        addr: SocketAddr,
        config: NetClientConfig,
        counters: Option<Arc<NetCounters>>,
    ) -> Result<Arc<Self>, NetError> {
        let conn = Arc::new(Self {
            addr,
            config,
            write: Mutex::new(Writer {
                stream: None,
                buf: Vec::new(),
            }),
            pending: Mutex::new(HashMap::new()),
            reader: Mutex::new(None),
            dead: AtomicBool::new(true),
            closing: AtomicBool::new(false),
            last_arrived: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            busy_resends: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            counters,
            jitter: AtomicU64::new(jitter_seed()),
        });
        conn.reconnect()?;
        Ok(conn)
    }

    /// (Re-)establishes the TCP connection and negotiates the protocol
    /// version (authenticating if challenged), replacing the reader
    /// thread.
    fn reconnect(self: &Arc<Self>) -> Result<(), NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.handshake_timeout)
            .map_err(|e| NetError::ConnectionLost(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.config.handshake_timeout))
            .map_err(|e| NetError::ConnectionLost(e.to_string()))?;

        let mut handshake = stream
            .try_clone()
            .map_err(|e| NetError::ConnectionLost(e.to_string()))?;
        let mut reader = FrameReader::new();
        negotiate(
            &mut handshake,
            &mut reader,
            &self.config,
            self.counters.as_ref(),
        )?;

        // Switch to a short poll timeout so the reader can notice
        // `closing` while idle without losing partial frames.
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .map_err(|e| NetError::ConnectionLost(e.to_string()))?;
        self.write.lock().stream = Some(
            stream
                .try_clone()
                .map_err(|e| NetError::ConnectionLost(e.to_string()))?,
        );
        self.dead.store(false, Ordering::SeqCst);
        if self.dials.fetch_add(1, Ordering::Relaxed) > 0 {
            if let Some(c) = &self.counters {
                c.reconnect();
            }
        }

        let conn = self.clone();
        let handle = std::thread::Builder::new()
            .name("tcast-net-client-reader".into())
            .spawn(move || conn.read_loop(stream, reader))
            .map_err(|e| NetError::ConnectionLost(e.to_string()))?;
        if let Some(old) = self.reader.lock().replace(handle) {
            // The previous reader has already exited (it died with the old
            // socket); reap it.
            let _ = old.join();
        }
        Ok(())
    }

    /// Writes `frame`, encoded into the connection's reused buffer;
    /// returns wire bytes written.
    fn send(&self, frame: &Frame) -> Result<usize, NetError> {
        let mut guard = self.write.lock();
        let Writer { stream, buf } = &mut *guard;
        let Some(socket) = stream.as_mut() else {
            return Err(NetError::ConnectionLost("connection is down".into()));
        };
        buf.clear();
        frame.encode_into(buf, PROTOCOL_V4);
        match socket.write_all(buf).and_then(|()| socket.flush()) {
            Ok(()) => {
                if let Some(c) = &self.counters {
                    c.frame_out(buf.len() as u64);
                }
                Ok(buf.len())
            }
            Err(e) => {
                *stream = None;
                self.dead.store(true, Ordering::SeqCst);
                Err(NetError::ConnectionLost(format!("write failed: {e}")))
            }
        }
    }

    fn register(&self, request_id: u64, job: QueryJob) -> Arc<Slot> {
        let slot = Slot::new();
        self.pending.lock().insert(
            request_id,
            Pending {
                slot: slot.clone(),
                job,
                busy_retries_left: self.config.busy_retries,
                busy_attempt: 0,
                sent_at: Instant::now(),
                trace: job.trace,
            },
        );
        slot
    }

    fn read_loop(self: Arc<Self>, mut stream: TcpStream, mut reader: FrameReader) {
        let reason = loop {
            if self.closing.load(Ordering::SeqCst) && self.pending.lock().is_empty() {
                break None;
            }
            match reader.read_from(&mut stream, self.config.max_frame_payload) {
                Ok(None) => continue,
                Ok(Some((frame, n))) => {
                    if let Some(c) = &self.counters {
                        c.frame_in(n as u64);
                    }
                    match frame {
                        Frame::JobOk { request_id, report } => {
                            self.track_arrival(request_id);
                            self.take_pending(request_id, |p| {
                                emit_rtt(&p, request_id);
                                p.slot.resolve(Ok(report));
                            });
                        }
                        Frame::JobFailed { request_id, error } => {
                            self.track_arrival(request_id);
                            self.take_pending(request_id, |p| {
                                emit_rtt(&p, request_id);
                                p.slot.resolve(Err(NetError::Job(error)));
                            });
                        }
                        Frame::Error {
                            request_id,
                            code: ErrorCode::Busy,
                            ..
                        } => {
                            if let Some(c) = &self.counters {
                                c.busy_rejection();
                            }
                            self.track_arrival(request_id);
                            self.handle_busy(request_id);
                        }
                        Frame::Error {
                            request_id,
                            code: ErrorCode::ShuttingDown,
                            ..
                        } => {
                            self.track_arrival(request_id);
                            self.take_pending(request_id, |p| {
                                p.slot.resolve(Err(NetError::ServerShutdown));
                            });
                        }
                        Frame::Error {
                            request_id,
                            code,
                            detail,
                        } => {
                            if request_id == 0 {
                                // Connection-scoped error: everything in flight
                                // is lost.
                                break Some(NetError::Protocol(format!("{code:?}: {detail}")));
                            }
                            self.take_pending(request_id, |p| {
                                p.slot.resolve(Err(NetError::Protocol(format!(
                                    "{code:?}: {detail}"
                                ))));
                            });
                        }
                        // The server says Goodbye only once every job it
                        // admitted on this connection is answered, so a
                        // job still pending here was never admitted:
                        // refused by a draining server, like a
                        // `ShuttingDown` error.
                        Frame::Goodbye => break Some(NetError::ServerShutdown),
                        other => {
                            break Some(NetError::Protocol(format!(
                                "unexpected server frame: {other:?}"
                            )));
                        }
                    }
                }
                Err(FrameReadError::Malformed(m)) => {
                    if let Some(c) = &self.counters {
                        c.decode_error();
                    }
                    break Some(NetError::Protocol(m.to_string()));
                }
                Err(FrameReadError::Io(e)) => {
                    break Some(NetError::ConnectionLost(e.to_string()));
                }
            }
        };
        self.dead.store(true, Ordering::SeqCst);
        self.write.lock().stream = None;
        let error = reason.unwrap_or_else(|| NetError::ConnectionLost("connection closed".into()));
        let drained: Vec<Pending> = self.pending.lock().drain().map(|(_, p)| p).collect();
        for p in drained {
            p.slot.resolve(Err(error.clone()));
        }
    }

    fn track_arrival(&self, request_id: u64) {
        let prev = self.last_arrived.fetch_max(request_id, Ordering::AcqRel);
        if request_id < prev {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn take_pending(&self, request_id: u64, f: impl FnOnce(Pending)) {
        if let Some(p) = self.pending.lock().remove(&request_id) {
            f(p);
        }
    }

    /// Resends a `Busy`-rejected job after a jittered linear backoff,
    /// off-thread so the reader keeps draining responses meanwhile. The
    /// jitter is decorrelated — drawn fresh per retry from this
    /// connection's own stream — so connections rejected by the same
    /// backpressure wave spread out instead of resending in lockstep.
    fn handle_busy(self: &Arc<Self>, request_id: u64) {
        let resend = {
            let mut pending = self.pending.lock();
            match pending.get_mut(&request_id) {
                None => return,
                Some(p) if p.busy_retries_left == 0 => {
                    let p = pending.remove(&request_id).expect("entry present");
                    p.slot.resolve(Err(NetError::Busy));
                    return;
                }
                Some(p) => {
                    p.busy_retries_left -= 1;
                    p.busy_attempt += 1;
                    (p.job, p.busy_attempt)
                }
            }
        };
        self.busy_resends.fetch_add(1, Ordering::Relaxed);
        let (job, attempt) = resend;
        let conn = self.clone();
        std::thread::spawn(move || {
            let scale = f64::from(attempt) * next_jitter(&conn.jitter);
            std::thread::sleep(conn.config.busy_backoff.mul_f64(scale));
            let frame = Frame::Submit { request_id, job };
            if let Err(e) = conn.send(&frame) {
                conn.take_pending(request_id, |p| p.slot.resolve(Err(e)));
            }
        });
    }

    fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let _ = self.send(&Frame::Goodbye);
        // Half-close so the server sees EOF after our Goodbye; the reader
        // exits on the server's Goodbye (or the poll tick + empty pending).
        if let Some(stream) = self.write.lock().stream.take() {
            let _ = stream.shutdown(Shutdown::Write);
        }
        let handle = self.reader.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// A pooled, pipelined TCP client for a [`crate::NetServer`].
///
/// Cloneable via `Arc` by callers; all methods take `&self`.
pub struct NetClient {
    conns: Vec<Arc<Conn>>,
    next_conn: AtomicUsize,
    next_request_id: AtomicU64,
}

impl NetClient {
    /// Connects `config.pool_size` connections to `addr` and negotiates
    /// the protocol version on each.
    pub fn connect(addr: impl ToSocketAddrs, config: NetClientConfig) -> Result<Self, NetError> {
        Self::connect_inner(addr, config, None)
    }

    /// Like [`NetClient::connect`], but every connection reports its wire
    /// traffic (frames/bytes in and out, decode errors, `Busy`
    /// rejections) into `counters` — typically obtained from a
    /// [`tcast_service::MetricsRegistry`] so client-side traffic shows up
    /// next to service metrics. The cluster front-end uses this to keep
    /// one counter set per shard.
    pub fn connect_instrumented(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
        counters: Arc<NetCounters>,
    ) -> Result<Self, NetError> {
        Self::connect_inner(addr, config, Some(counters))
    }

    fn connect_inner(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
        counters: Option<Arc<NetCounters>>,
    ) -> Result<Self, NetError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| NetError::ConnectionLost(format!("address resolution failed: {e}")))?
            .next()
            .ok_or_else(|| NetError::ConnectionLost("address resolved to nothing".into()))?;
        let pool_size = config.pool_size.max(1);
        let mut conns = Vec::with_capacity(pool_size);
        for _ in 0..pool_size {
            conns.push(Conn::dial(addr, config.clone(), counters.clone())?);
        }
        Ok(Self {
            conns,
            next_conn: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(1),
        })
    }

    /// Submits `jobs` across the pool, pipelined: every job is written
    /// to the wire before this returns, and responses resolve the
    /// returned handles as they arrive — in any order.
    ///
    /// A dead connection is re-dialed once; jobs whose connection cannot
    /// be revived resolve to [`NetError::ConnectionLost`] rather than
    /// failing the whole batch.
    pub fn submit(&self, jobs: Vec<QueryJob>) -> NetBatch {
        NetBatch {
            handles: jobs.into_iter().map(|job| self.submit_one(job)).collect(),
        }
    }

    /// Submits one job on the next pooled connection and returns its
    /// handle once the job is on the wire — the primitive
    /// [`submit`](Self::submit) maps over. A dead connection is
    /// re-dialed once; if that fails the handle resolves to
    /// [`NetError::ConnectionLost`].
    pub fn submit_one(&self, job: QueryJob) -> NetJobHandle {
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let conn = &self.conns[self.next_conn.fetch_add(1, Ordering::Relaxed) % self.conns.len()];
        if conn.dead.load(Ordering::SeqCst) {
            if let Err(e) = conn.reconnect() {
                return NetJobHandle::failed(e);
            }
        }
        let slot = conn.register(request_id, job);
        match conn.send(&Frame::Submit { request_id, job }) {
            Ok(n) => tcast_obs::event(
                job.trace,
                "net.submit",
                &[("bytes", n as u64), ("request_id", request_id)],
            ),
            Err(e) => conn.take_pending(request_id, |p| p.slot.resolve(Err(e))),
        }
        NetJobHandle { slot }
    }

    /// Total responses that arrived with a lower request id than an
    /// earlier response on the same connection — direct evidence of
    /// out-of-order pipelined completion.
    pub fn out_of_order_responses(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.out_of_order.load(Ordering::Relaxed))
            .sum()
    }

    /// Total `Busy` rejections that were transparently resent.
    pub fn busy_resends(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.busy_resends.load(Ordering::Relaxed))
            .sum()
    }

    /// Fetches the server's metrics registry as typed families
    /// (`tcast_service::render_prometheus` renders them as text) over a
    /// fresh short-lived connection, so metrics fetches never touch the
    /// pooled connections or interleave with job responses.
    pub fn server_metrics(&self) -> Result<Vec<Family>, NetError> {
        fetch_metrics(self.conns[0].addr, &self.conns[0].config)
    }

    /// Drains up to `max_traces` completed, tail-sampled trace trees
    /// from the server's trace collector (empty unless the server was
    /// configured with `NetServerConfig::with_trace_export`). Uses a
    /// fresh short-lived connection like
    /// [`server_metrics`](Self::server_metrics).
    pub fn trace_export(&self, max_traces: u32) -> Result<Vec<tcast_obs::ExportedTrace>, NetError> {
        fetch_trace_export(self.conns[0].addr, &self.conns[0].config, max_traces)
    }

    /// Says `Goodbye` on every connection and joins the reader threads.
    pub fn close(self) {
        for conn in &self.conns {
            conn.close();
        }
    }
}

/// One-shot metrics fetch over its own short-lived connection
/// (handshake → `MetricsDump` → `Metrics` → `Goodbye`). The cluster's
/// load sampler and the `top` dashboard call this directly with a shard
/// address so sampling never takes a shard lock or touches pooled
/// connections.
pub fn fetch_metrics(addr: SocketAddr, config: &NetClientConfig) -> Result<Vec<Family>, NetError> {
    let accept = |frame: Frame| match frame {
        Frame::Metrics { families, .. } => Some(families),
        _ => None,
    };
    let request = Frame::MetricsDump { request_id: 1 };
    fetch_one(addr, config, &request, "metrics dump", accept)
}

/// One-shot trace-export fetch over its own short-lived connection
/// (handshake → `TraceExport` → `TraceData` → `Goodbye`) — the
/// subscriber side of the server's tail-sampled trace ring. Draining is
/// destructive: traces returned here are consumed server-side.
pub fn fetch_trace_export(
    addr: SocketAddr,
    config: &NetClientConfig,
    max_traces: u32,
) -> Result<Vec<tcast_obs::ExportedTrace>, NetError> {
    let request = Frame::TraceExport {
        request_id: 1,
        max_traces,
    };
    let accept = |frame: Frame| match frame {
        Frame::TraceData { traces, .. } => Some(traces),
        _ => None,
    };
    fetch_one(addr, config, &request, "trace export", accept)
}

/// Sends `request` on a fresh connection and returns the first answer
/// `accept` takes, saying `Goodbye` after it; `what` names the request
/// in errors.
fn fetch_one<T>(
    addr: SocketAddr,
    config: &NetClientConfig,
    request: &Frame,
    what: &str,
    accept: impl Fn(Frame) -> Option<T>,
) -> Result<T, NetError> {
    let mut stream = TcpStream::connect_timeout(&addr, config.handshake_timeout)
        .map_err(|e| NetError::ConnectionLost(format!("connect failed: {e}")))?;
    stream
        .set_read_timeout(Some(config.handshake_timeout))
        .map_err(|e| NetError::ConnectionLost(e.to_string()))?;
    let mut reader = FrameReader::new();
    negotiate(&mut stream, &mut reader, config, None)?;
    write_frame(&mut stream, request).map_err(|e| NetError::ConnectionLost(e.to_string()))?;
    loop {
        match reader.read_from(&mut stream, config.max_frame_payload) {
            Ok(Some((Frame::Goodbye, _))) => {
                return Err(NetError::Protocol(format!(
                    "server closed before answering the {what}"
                )))
            }
            Ok(Some((frame, _))) => {
                if let Some(answer) = accept(frame) {
                    let _ = write_frame(&mut stream, &Frame::Goodbye);
                    return Ok(answer);
                }
            }
            Ok(None) => return Err(NetError::ConnectionLost(format!("{what} timed out"))),
            Err(e) => return Err(NetError::ConnectionLost(e.to_string())),
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        for conn in &self.conns {
            if !conn.closing.load(Ordering::SeqCst) {
                conn.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `Busy` retry schedules used to be `attempt *
    /// busy_backoff` with no randomness, so every pooled connection
    /// bounced by one backpressure wave slept the exact same interval
    /// and resent in lockstep. The jittered schedules of two
    /// connections must de-synchronize at every attempt.
    #[test]
    fn pooled_retry_schedules_desynchronize() {
        let a = AtomicU64::new(jitter_seed());
        let b = AtomicU64::new(jitter_seed());
        let backoff = Duration::from_millis(2);
        let mut distinct = 0usize;
        for attempt in 1..=16u32 {
            let sleep_a = backoff.mul_f64(f64::from(attempt) * next_jitter(&a));
            let sleep_b = backoff.mul_f64(f64::from(attempt) * next_jitter(&b));
            if sleep_a != sleep_b {
                distinct += 1;
            }
        }
        assert!(
            distinct >= 15,
            "two connections' retry timestamps stayed synchronized \
             ({distinct}/16 attempts differed)"
        );
    }

    /// The jitter multiplier stays inside `[0.5, 1.5)` (the backoff is
    /// scaled, never zeroed or amplified past 1.5x) and the stream is
    /// not constant.
    #[test]
    fn jitter_draws_are_bounded_and_vary() {
        let state = AtomicU64::new(jitter_seed());
        let draws: Vec<f64> = (0..256).map(|_| next_jitter(&state)).collect();
        for &j in &draws {
            assert!((0.5..1.5).contains(&j), "jitter {j} out of range");
        }
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "jitter stream is constant"
        );
    }
}
