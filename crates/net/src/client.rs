//! `NetClient` — a pooled, pipelined client for [`crate::NetServer`].
//!
//! The client mirrors the in-process `Service` submit/wait shape: a
//! [`NetClient::submit`] call returns a [`NetBatch`] of
//! [`NetJobHandle`]s immediately, with every job already on the wire.
//! Many jobs ride one connection concurrently, and responses are matched
//! to handles by request id, so they may arrive in any order.
//!
//! A thread waiting on a handle reads the connection itself whenever no
//! other thread does (leader/follower): it hands every response it reads
//! to its handle's slot and returns once its own has come, passing the
//! read side on to a waiter parked behind it. The waiter is then the only
//! thread a response wakes. Each connection keeps one background thread,
//! the fallback reader; it never blocks in `read` while jobs are waited
//! on, but drains the socket every 25 ms when nobody leads, which covers
//! handles nobody waits on, `Busy` rejections and the server's `Goodbye`.
//!
//! `Busy` error frames (admission backpressure) are retried
//! transparently with jittered linear backoff up to a configurable
//! budget: the fallback reader sends each resend when it falls due,
//! waking early for it. A dead connection is re-dialed once per submit
//! before the affected handles fail with [`NetError::ConnectionLost`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tcast::QueryReport;
use tcast_service::{Family, JobError, NetCounters, QueryJob};

use crate::frame::{
    write_frame, ErrorCode, Frame, FrameReadError, FrameReader, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use crate::reactor::{poll_fds, PollFd};

/// Read timeout of an active connection's socket: how long a leading
/// waiter blocks in one `read` before it re-checks its slot, and how
/// often the fallback reader drains a socket nobody reads.
const READ_TICK: Duration = Duration::from_millis(25);

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

/// One-shot slot the connection's reading thread resolves and a waiter
/// blocks on.
///
/// Slots are reused: each connection keeps its spares in a
/// [`SlotPool`], so a handle allocates nothing once the pool holds one.
struct Slot {
    state: Mutex<Option<NetJobResult>>,
    /// Counts its parked waiters, so resolving a slot nobody waits on
    /// yet makes no futex syscall.
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, result: NetJobResult) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(result);
            self.cv.notify_all();
        }
    }

    fn is_resolved(&self) -> bool {
        self.state.lock().is_some()
    }

    /// Wakes the slot's parked waiters without resolving it: the read
    /// side is free for one of them to take.
    fn wake(&self) {
        let _state = self.state.lock();
        self.cv.notify_all();
    }
}

/// Most spare slots a connection's [`SlotPool`] keeps: more than a
/// connection usually has in flight, and at about a hundred bytes each
/// a bounded cost.
const SPARE_SLOTS: usize = 256;

/// A connection's spare slots, each the only reference to itself and
/// reset to unresolved.
///
/// Whichever side lets go of a slot last offers it back: the reading
/// thread after resolving it, or a handle after `wait`/`wait_timeout`
/// consumed it. Slots hold no reference to their pool; a handle carries
/// its connection instead, so there is no cycle.
#[derive(Default)]
struct SlotPool {
    spares: Mutex<Vec<Arc<Slot>>>,
}

impl SlotPool {
    /// A spare slot, or a new one when the pool is empty.
    fn take(&self) -> Arc<Slot> {
        let spare = self.spares.lock().pop();
        spare.unwrap_or_else(Slot::new)
    }

    /// Resets `slot` and keeps it as a spare, unless another reference
    /// to it is still alive or the pool is full; then it is just dropped.
    fn give_back(&self, mut slot: Arc<Slot>) {
        let Some(spare) = Arc::get_mut(&mut slot) else {
            return;
        };
        // An unread result (a timed-out or unwaited handle's) goes now,
        // so the next job's waiter cannot see it.
        *spare.state.get_mut() = None;
        let mut spares = self.spares.lock();
        if spares.len() < SPARE_SLOTS {
            spares.push(slot);
        }
    }
}

/// A handle to one in-flight remote job.
///
/// Waiting consumes the handle and moves the report out of its slot.
#[must_use = "a network job handle does nothing unless waited on"]
pub struct NetJobHandle {
    slot: Arc<Slot>,
    /// The connection the job rides, which the waiter may read and whose
    /// pool takes the slot back after a wait; `None` for a
    /// [`failed`](Self::failed) handle.
    conn: Option<Arc<Conn>>,
}

impl NetJobHandle {
    /// A handle that is already resolved to `err` — used when a job
    /// could not even be written to a connection.
    pub(crate) fn failed(err: NetError) -> Self {
        let slot = Slot::new();
        slot.resolve(Err(err));
        Self { slot, conn: None }
    }

    /// Blocks until the response frame arrives (or the connection dies),
    /// reading the connection itself while no other thread does.
    pub fn wait(self) -> NetJobResult {
        loop {
            // Without a deadline the wait returns only with a result.
            if let Some(result) = self.wait_until(None) {
                self.release();
                return result;
            }
        }
    }

    /// Blocks up to `timeout`; returns `None` if no response arrived in
    /// time (the handle is consumed — the response, if it later arrives,
    /// is dropped).
    pub fn wait_timeout(self, timeout: Duration) -> Option<NetJobResult> {
        let result = self.wait_until(Instant::now().checked_add(timeout));
        self.release();
        result
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<NetJobResult> {
        match &self.conn {
            Some(conn) => conn.wait_on(&self.slot, deadline),
            // A failed handle is resolved from the start.
            None => self.slot.state.lock().take(),
        }
    }

    /// Offers the slot back to its pool, which keeps it only if this
    /// was its last reference.
    fn release(self) {
        if let Some(conn) = self.conn {
            conn.slots.give_back(self.slot);
        }
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

    /// Blocks until every response arrived; results in submission order.
    pub fn wait(self) -> Vec<NetJobResult> {
        self.handles.into_iter().map(NetJobHandle::wait).collect()
    }

    /// Blocks up to `timeout` for the *whole batch*; returns `None` if
    /// any response was still missing at the deadline (the batch is
    /// consumed, and late responses are dropped — same contract as
    /// [`NetJobHandle::wait_timeout`]).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Vec<NetJobResult>> {
        let deadline = Instant::now() + timeout;
        let mut results = Vec::with_capacity(self.handles.len());
        for handle in self.handles {
            let left = deadline.saturating_duration_since(Instant::now());
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

/// Whether `stream` has bytes (or an end) to read within `timeout`,
/// rounded up to whole milliseconds.
fn readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fds = [PollFd::readable(stream.as_raw_fd())];
    let millis = Duration::from_millis(timeout.as_nanos().div_ceil(1_000_000) as u64);
    matches!(poll_fds(&mut fds, millis), Ok(n) if n > 0)
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
    counters: &NetCounters,
) -> Result<(), NetError> {
    fn read_one(
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        counters: &NetCounters,
    ) -> Result<Frame, NetError> {
        match reader.read_from(stream, DEFAULT_MAX_PAYLOAD) {
            Ok(Some((frame, n))) => {
                counters.frame_in(n as u64);
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
    counters.frame_out(hello_bytes as u64);

    let challenge = match read_one(stream, reader, counters)? {
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
    counters.frame_out(auth_bytes as u64);
    match read_one(stream, reader, counters)? {
        Frame::AuthOk => Ok(()),
        Frame::Error { code, detail, .. } => {
            counters.auth_failure();
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
    /// Spare slots for the connection's next handles.
    slots: SlotPool,
    /// The current stream's read half, led by one thread at a time.
    read: Mutex<ReadSide>,
    /// Wakes the fallback reader early: the stream ended, the
    /// connection is closing, or a `Busy` resend was scheduled.
    read_tick: Condvar,
    /// The fallback reader of the current stream.
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
    /// Wire counters (frames/bytes in and out, decode errors, busy
    /// rejections, reconnects): shared with a metrics registry by
    /// [`NetClient::connect_instrumented`], private to the client
    /// otherwise.
    counters: Arc<NetCounters>,
    /// Per-connection xorshift state feeding the `Busy` backoff jitter.
    /// Seeded uniquely per connection so pooled connections never share
    /// a retry schedule.
    jitter: AtomicU64,
}

/// The read half of a connection's current stream and who may read it.
/// A thread leads — reads the stream and resolves whatever responses
/// arrive — by taking [`ReadSide::io`], and puts it back when done.
struct ReadSide {
    /// `Some` while nobody leads.
    io: Option<ReadIo>,
    /// Slots of the waiters parked while another thread leads (or after
    /// the stream ended); whoever lets go of the lead wakes the last one.
    followers: Vec<Arc<Slot>>,
    /// The stream ended and every job pending on it was failed; nobody
    /// reads it again.
    over: bool,
    /// `Busy`-rejected jobs waiting out their backoff: request ids by
    /// due time, earliest first. The fallback reader sends them.
    resends: BinaryHeap<Reverse<(Instant, u64)>>,
}

struct ReadIo {
    stream: TcpStream,
    reader: FrameReader,
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
        counters: Arc<NetCounters>,
    ) -> Result<Arc<Self>, NetError> {
        let conn = Arc::new(Self {
            addr,
            config,
            write: Mutex::new(Writer {
                stream: None,
                buf: Vec::new(),
            }),
            pending: Mutex::new(HashMap::new()),
            slots: SlotPool::default(),
            read: Mutex::new(ReadSide {
                io: None,
                followers: Vec::new(),
                over: true,
                resends: BinaryHeap::new(),
            }),
            read_tick: Condvar::new(),
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
    /// version (authenticating if challenged), replacing the read side
    /// and its fallback reader.
    fn reconnect(self: &Arc<Self>) -> Result<(), NetError> {
        let lost = |e: std::io::Error| NetError::ConnectionLost(e.to_string());
        let stream = TcpStream::connect_timeout(&self.addr, self.config.handshake_timeout)
            .map_err(|e| NetError::ConnectionLost(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.config.handshake_timeout))
            .map_err(lost)?;

        let mut handshake = stream.try_clone().map_err(lost)?;
        let mut reader = FrameReader::new();
        negotiate(&mut handshake, &mut reader, &self.config, &self.counters)?;

        // A short read timeout lets a leading waiter re-check its slot
        // and the fallback reader notice `closing`, without losing
        // partial frames.
        stream.set_read_timeout(Some(READ_TICK)).map_err(lost)?;
        let writer = stream.try_clone().map_err(lost)?;

        // The previous stream's read side ends on its own once its socket
        // reports the failure that made the connection dead. Wait for
        // that, so its end fails only the jobs that rode it.
        let previous = self.reader.lock().take();
        if let Some(previous) = previous {
            self.read_tick.notify_all();
            let _ = previous.join();
        }
        {
            let mut side = self.read.lock();
            side.io = Some(ReadIo { stream, reader });
            side.over = false;
        }
        self.write.lock().stream = Some(writer);
        self.dead.store(false, Ordering::SeqCst);
        if self.dials.fetch_add(1, Ordering::Relaxed) > 0 {
            self.counters.reconnect();
        }

        let conn = self.clone();
        let handle = std::thread::Builder::new()
            .name("tcast-net-client-reader".into())
            .spawn(move || conn.read_loop())
            .map_err(lost)?;
        *self.reader.lock() = Some(handle);
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
                self.counters.frame_out(buf.len() as u64);
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
        let slot = self.slots.take();
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

    /// Waits for `slot` to resolve, until `deadline`. While nobody else
    /// reads the connection, the waiter leads: it reads and resolves
    /// responses itself until its own has come. Otherwise it parks on its
    /// slot as a follower and is woken by its response or by the lead
    /// coming free.
    fn wait_on(&self, slot: &Arc<Slot>, deadline: Option<Instant>) -> Option<NetJobResult> {
        loop {
            let mut state = slot.state.lock();
            if let Some(result) = state.take() {
                return Some(result);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return None;
            }
            let lead = {
                let mut side = self.read.lock();
                let io = side.io.take();
                if io.is_none() {
                    side.followers.push(slot.clone());
                }
                io
            };
            if let Some(io) = lead {
                drop(state);
                self.lead(io, slot, deadline);
                continue;
            }
            match deadline {
                Some(d) => {
                    slot.cv.wait_for(&mut state, d - now);
                }
                None => slot.cv.wait(&mut state),
            }
            let leaving = state.is_some() || deadline.is_some_and(|d| Instant::now() >= d);
            drop(state);
            self.unfollow(slot, leaving);
        }
    }

    /// Takes a woken follower off the list. One that is `leaving` (its
    /// slot resolved or its deadline passed) passes a free lead on to
    /// the next follower, so the lead never sits idle while one waits.
    fn unfollow(&self, slot: &Arc<Slot>, leaving: bool) {
        let next = {
            let mut side = self.read.lock();
            if let Some(at) = side.followers.iter().position(|f| Arc::ptr_eq(f, slot)) {
                side.followers.swap_remove(at);
            }
            if leaving && side.io.is_some() {
                side.followers.pop()
            } else {
                None
            }
        };
        if let Some(next) = next {
            next.wake();
        }
    }

    /// Reads the connection until `slot` resolves or `deadline` passes,
    /// then lets go of the lead. A stream that ends is ended here.
    fn lead(&self, mut io: ReadIo, slot: &Slot, deadline: Option<Instant>) {
        loop {
            if slot.is_resolved() {
                break;
            }
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                // Closer than a read timeout: wait on readiness instead,
                // so the deadline holds to the millisecond.
                if left < READ_TICK && !readable(&io.stream, left) {
                    continue;
                }
            }
            if let Err(reason) = self.read_frame(&mut io) {
                self.end(reason);
                return;
            }
        }
        self.release(io);
    }

    /// Puts the read half back and wakes the last parked follower to
    /// take it.
    fn release(&self, io: ReadIo) {
        let next = {
            let mut side = self.read.lock();
            if side.over {
                return;
            }
            side.io = Some(io);
            side.followers.pop()
        };
        if let Some(next) = next {
            next.wake();
        }
    }

    /// Reads one frame, blocking up to [`READ_TICK`], and acts on it. An
    /// error is the reason the stream ended.
    fn read_frame(&self, io: &mut ReadIo) -> Result<(), NetError> {
        match io.reader.read_from(&mut io.stream, DEFAULT_MAX_PAYLOAD) {
            Ok(None) => Ok(()),
            Ok(Some((frame, n))) => {
                self.counters.frame_in(n as u64);
                self.dispatch(frame)
            }
            Err(FrameReadError::Malformed(m)) => {
                self.counters.decode_error();
                Err(NetError::Protocol(m.to_string()))
            }
            Err(FrameReadError::Io(e)) => Err(NetError::ConnectionLost(e.to_string())),
        }
    }

    /// Resolves the job a response frame answers. A frame that ends the
    /// stream comes back as the error every job still pending fails with.
    fn dispatch(&self, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::JobOk { request_id, report } => {
                self.track_arrival(request_id);
                self.resolve_pending(request_id, |p| {
                    emit_rtt(p, request_id);
                    Ok(report)
                });
            }
            Frame::JobFailed { request_id, error } => {
                self.track_arrival(request_id);
                self.resolve_pending(request_id, |p| {
                    emit_rtt(p, request_id);
                    Err(NetError::Job(error))
                });
            }
            Frame::Error {
                request_id,
                code: ErrorCode::Busy,
                ..
            } => {
                self.counters.busy_rejection();
                self.track_arrival(request_id);
                self.handle_busy(request_id);
            }
            Frame::Error {
                request_id,
                code: ErrorCode::ShuttingDown,
                ..
            } => {
                self.track_arrival(request_id);
                self.resolve_pending(request_id, |_| Err(NetError::ServerShutdown));
            }
            Frame::Error {
                request_id,
                code,
                detail,
            } => {
                let error = NetError::Protocol(format!("{code:?}: {detail}"));
                if request_id == 0 {
                    // Connection-scoped error: everything in flight is
                    // lost.
                    return Err(error);
                }
                self.resolve_pending(request_id, |_| Err(error));
            }
            // The server says Goodbye only once every job it admitted on
            // this connection is answered, so a job still pending here
            // was never admitted: refused by a draining server, like a
            // `ShuttingDown` error.
            Frame::Goodbye => return Err(NetError::ServerShutdown),
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected server frame: {other:?}"
                )));
            }
        }
        Ok(())
    }

    /// Ends the current stream: marks the connection dead and fails every
    /// pending job with `reason`, waking their waiters. Called by the
    /// thread that held the read half when the stream failed.
    fn end(&self, reason: NetError) {
        {
            let mut side = self.read.lock();
            side.over = true;
            side.io = None;
            // Every job they name fails below.
            side.resends.clear();
        }
        self.read_tick.notify_all();
        self.dead.store(true, Ordering::SeqCst);
        self.write.lock().stream = None;
        let drained: Vec<Pending> = self.pending.lock().drain().map(|(_, p)| p).collect();
        for p in drained {
            self.finish(p.slot, Err(reason.clone()));
        }
    }

    /// The fallback reader of one stream. It sends each `Busy` resend
    /// once it is due, and leads only while nobody else does: every
    /// [`READ_TICK`], or sooner when a resend falls due, it reads
    /// whatever the socket holds without waiting for more, and lets go.
    /// Once the connection is closing it sends nothing and reads
    /// continuously, so the server's `Goodbye` (or an empty pending map)
    /// ends the stream promptly.
    fn read_loop(self: Arc<Self>) {
        let mut side = self.read.lock();
        loop {
            if side.over {
                return;
            }
            let closing = self.closing.load(Ordering::SeqCst);
            if closing && self.pending.lock().is_empty() {
                drop(side);
                self.end(NetError::ConnectionLost("connection closed".into()));
                return;
            }
            if let Some(&Reverse((due, request_id))) = side.resends.peek() {
                if !closing && due <= Instant::now() {
                    side.resends.pop();
                    drop(side);
                    self.resend(request_id);
                    side = self.read.lock();
                    continue;
                }
            }
            if let Some(mut io) = side.io.take() {
                drop(side);
                let read = if closing {
                    self.read_frame(&mut io)
                } else {
                    self.drain(&mut io)
                };
                match read {
                    Ok(()) => self.release(io),
                    Err(reason) => {
                        self.end(reason);
                        return;
                    }
                }
                side = self.read.lock();
                if closing {
                    continue;
                }
            }
            // Peeked under the lock `handle_busy` notifies under, so a
            // resend scheduled since is never slept through.
            let tick = match side.resends.peek() {
                Some(Reverse((due, _))) if !closing => {
                    READ_TICK.min(due.saturating_duration_since(Instant::now()))
                }
                _ => READ_TICK,
            };
            self.read_tick.wait_for(&mut side, tick);
        }
    }

    /// Reads and acts on frames while the socket has bytes waiting.
    fn drain(&self, io: &mut ReadIo) -> Result<(), NetError> {
        while readable(&io.stream, Duration::ZERO) {
            self.read_frame(io)?;
        }
        Ok(())
    }

    fn track_arrival(&self, request_id: u64) {
        let prev = self.last_arrived.fetch_max(request_id, Ordering::AcqRel);
        if request_id < prev {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes `request_id`'s entry and resolves its slot to what
    /// `result` makes of it. The pending map is unlocked first, so a
    /// resolve never holds up `register`.
    fn resolve_pending(&self, request_id: u64, result: impl FnOnce(&Pending) -> NetJobResult) {
        // The guard is a temporary of this `let`, dropped at its end.
        let Some(p) = self.pending.lock().remove(&request_id) else {
            return;
        };
        let result = result(&p);
        self.finish(p.slot, result);
    }

    /// Resolves `slot` and offers it back to the pool, which keeps it
    /// if its handle is already gone.
    fn finish(&self, slot: Arc<Slot>, result: NetJobResult) {
        slot.resolve(result);
        self.slots.give_back(slot);
    }

    /// Schedules a `Busy`-rejected job's resend after a jittered linear
    /// backoff, for the fallback reader to send, so the reading thread
    /// keeps draining responses meanwhile. The jitter is decorrelated —
    /// drawn fresh per retry from this connection's own stream — so
    /// connections rejected by the same backpressure wave spread out
    /// instead of resending in lockstep.
    fn handle_busy(&self, request_id: u64) {
        let attempt = {
            let mut pending = self.pending.lock();
            let Some(p) = pending.get_mut(&request_id) else {
                return;
            };
            if p.busy_retries_left == 0 {
                drop(pending);
                self.resolve_pending(request_id, |_| Err(NetError::Busy));
                return;
            }
            p.busy_retries_left -= 1;
            p.busy_attempt += 1;
            p.busy_attempt
        };
        let scale = f64::from(attempt) * next_jitter(&self.jitter);
        let due = Instant::now() + self.config.busy_backoff.mul_f64(scale);
        self.busy_resends.fetch_add(1, Ordering::Relaxed);
        // Notified under the lock the fallback reader peeks the schedule
        // under, so the wake-up cannot fall between peek and park.
        let mut side = self.read.lock();
        side.resends.push(Reverse((due, request_id)));
        self.read_tick.notify_all();
    }

    /// Sends a due resend, unless the job is no longer pending (its
    /// connection died meanwhile).
    fn resend(&self, request_id: u64) {
        let job = self.pending.lock().get(&request_id).map(|p| p.job);
        if let Some(job) = job {
            if let Err(e) = self.send(&Frame::Submit { request_id, job }) {
                self.resolve_pending(request_id, |_| Err(e));
            }
        }
    }

    /// Starts closing the connection: stops its `Busy` resends, says
    /// `Goodbye`, half-closes the socket and wakes the fallback reader to
    /// read out the stream, without waiting for it ([`Self::join`]
    /// does). Idempotent.
    fn stop(&self) {
        if self.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.send(&Frame::Goodbye);
        // Half-close so the server sees EOF after our Goodbye; the
        // fallback reader ends the stream on the server's Goodbye (or
        // once nothing is pending).
        if let Some(stream) = self.write.lock().stream.take() {
            let _ = stream.shutdown(Shutdown::Write);
        }
        // Notified under the lock the reader checks `closing` under, so
        // `close` never waits out a read tick.
        let _side = self.read.lock();
        self.read_tick.notify_all();
    }

    /// Joins the fallback reader of a [stopped](Self::stop) connection.
    fn join(&self) {
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
        Self::connect_instrumented(addr, config, Arc::default())
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
            Err(e) => conn.resolve_pending(request_id, |_| Err(e)),
        }
        NetJobHandle {
            slot,
            conn: Some(conn.clone()),
        }
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

    /// Says `Goodbye` on every connection and joins its fallback reader.
    pub fn close(self) {
        self.stop();
        self.join();
    }

    /// Starts closing every connection without waiting for its fallback
    /// reader, so that several clients can wind down at once.
    pub(crate) fn stop(&self) {
        for conn in &self.conns {
            conn.stop();
        }
    }

    /// Joins the fallback reader of every [stopped](Self::stop) connection.
    pub(crate) fn join(&self) {
        for conn in &self.conns {
            conn.join();
        }
    }
}

/// One-shot metrics fetch over its own short-lived connection
/// (handshake → `MetricsDump` → `Metrics` → `Goodbye`). The `top`
/// dashboard calls this directly with a shard address so sampling never
/// takes a shard lock or touches pooled connections.
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
    negotiate(&mut stream, &mut reader, config, &NetCounters::default())?;
    write_frame(&mut stream, request).map_err(|e| NetError::ConnectionLost(e.to_string()))?;
    loop {
        match reader.read_from(&mut stream, DEFAULT_MAX_PAYLOAD) {
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
        self.stop();
        self.join();
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

    /// A scripted peer: one accepted, handshaken connection whose
    /// `Submit`s are forwarded to the test, which answers them itself —
    /// in any order, late, or never.
    struct FakeConn {
        stream: TcpStream,
        submits: std::sync::mpsc::Receiver<(u64, QueryJob)>,
        forwarder: JoinHandle<()>,
    }

    impl FakeConn {
        /// The next job the client submitted, with its request id.
        fn submitted(&self) -> (u64, QueryJob) {
            self.submits
                .recv_timeout(Duration::from_secs(10))
                .expect("the client submitted a job")
        }

        fn answer(&mut self, request_id: u64, job: &QueryJob) {
            let report = job.execute();
            write_frame(&mut self.stream, &Frame::JobOk { request_id, report })
                .expect("answer written");
        }

        /// Closes the connection with whatever is still unanswered.
        fn kill(self) {
            let _ = self.stream.shutdown(Shutdown::Both);
            self.forwarder.join().expect("forwarder thread");
        }
    }

    /// Runs `dial`, which makes the client open a connection, while
    /// accepting that connection and answering its `Hello`.
    fn accept_during<T: Send>(
        listener: &std::net::TcpListener,
        dial: impl FnOnce() -> T + Send,
    ) -> (T, FakeConn) {
        std::thread::scope(|scope| {
            let dialed = scope.spawn(dial);
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut reader = FrameReader::new();
            match reader.read_from(&mut stream, DEFAULT_MAX_PAYLOAD) {
                Ok(Some((Frame::Hello { .. }, _))) => {}
                other => panic!("expected Hello, got {other:?}"),
            }
            let ack = Frame::HelloAck {
                version: PROTOCOL_V4,
                challenge: None,
            };
            write_frame(&mut stream, &ack).expect("ack written");
            let (tx, submits) = std::sync::mpsc::channel();
            let mut inbound = stream.try_clone().expect("clone");
            let forwarder = std::thread::spawn(move || {
                while let Ok(Some((Frame::Submit { request_id, job }, _))) =
                    reader.read_from(&mut inbound, DEFAULT_MAX_PAYLOAD)
                {
                    if tx.send((request_id, job)).is_err() {
                        break;
                    }
                }
            });
            let conn = FakeConn {
                stream,
                submits,
                forwarder,
            };
            (dialed.join().expect("dial"), conn)
        })
    }

    /// Job `k` of the recycling test: a different `x` and seed each, so
    /// a slot that leaked one job's report into another shows.
    fn job(k: u64) -> QueryJob {
        let n = 128;
        let channel = tcast::ChannelSpec::ideal(
            n,
            (k as usize * 7) % (n + 1),
            tcast::CollisionModel::OnePlus,
        )
        .seeded(k, k ^ 0x5a);
        QueryJob::new(tcast_service::AlgorithmSpec::TwoTBins, channel, 16, k)
    }

    /// One connection recycles its slots through every way a handle can
    /// end — waited before and after its response, dropped unwaited,
    /// timed out before its response, in a batch answered out of order,
    /// and cut off by a dying peer — and no handle ever sees another job's
    /// result: each resolves to its own in-process report or a typed
    /// error. A slot reset under a handle still waiting on it would
    /// leave that wait blocked for good, so the rounds run on a thread
    /// the test gives a deadline.
    #[test]
    fn recycled_slots_never_leak_one_job_into_another() {
        let rounds = std::thread::spawn(|| recycle_rounds(200));
        let deadline = Instant::now() + Duration::from_secs(120);
        while !rounds.is_finished() {
            assert!(Instant::now() < deadline, "a handle never resolved");
            std::thread::sleep(Duration::from_millis(10));
        }
        rounds.join().expect("every round passed");
    }

    fn recycle_rounds(rounds: u64) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (client, mut peer) = accept_during(&listener, || {
            NetClient::connect(addr, NetClientConfig::default()).expect("connect")
        });
        let mut k = 0u64;
        let mut next = || {
            k += 1;
            job(k)
        };
        for round in 0..rounds {
            // Waited: answered before the wait starts, or 200 µs into it,
            // when the waiter has most likely parked. Either order must
            // give the job its own report.
            let a = next();
            let handle = client.submit_one(a);
            let (id, _) = peer.submitted();
            if round % 2 == 0 {
                peer.answer(id, &a);
                assert_eq!(handle.wait(), Ok(a.execute()), "round {round}: waited");
            } else {
                std::thread::scope(|scope| {
                    let waiter = scope.spawn(|| handle.wait());
                    std::thread::sleep(Duration::from_micros(200));
                    peer.answer(id, &a);
                    assert_eq!(
                        waiter.join().unwrap(),
                        Ok(a.execute()),
                        "round {round}: parked"
                    );
                });
            }

            // Dropped unwaited: the reader resolves a slot nobody reads.
            let b = next();
            drop(client.submit_one(b));
            let (id, _) = peer.submitted();
            peer.answer(id, &b);

            // Timed out before its response landed.
            let c = next();
            let handle = client.submit_one(c);
            let (id_c, _) = peer.submitted();
            assert_eq!(
                handle.wait_timeout(Duration::from_millis(1)),
                None,
                "round {round}: answered before it was sent"
            );

            // A two-job batch answered out of order sees each job's own
            // report; c's late answer lands in between.
            let (d, e) = (next(), next());
            let batch = client.submit(vec![d, e]);
            let (id_d, _) = peer.submitted();
            let (id_e, _) = peer.submitted();
            peer.answer(id_e, &e);
            peer.answer(id_c, &c);
            peer.answer(id_d, &d);
            assert_eq!(
                batch.wait(),
                vec![Ok(d.execute()), Ok(e.execute())],
                "round {round}: batch"
            );

            // A dying peer: f is answered first, g never.
            let (f, g) = (next(), next());
            let (hf, hg) = (client.submit_one(f), client.submit_one(g));
            let (id_f, _) = peer.submitted();
            let _ = peer.submitted();
            peer.answer(id_f, &f);
            peer.kill();
            assert_eq!(
                hf.wait(),
                Ok(f.execute()),
                "round {round}: answered before the kill"
            );
            match hg.wait() {
                Err(NetError::ConnectionLost(_)) => {}
                other => panic!("round {round}: unanswered job resolved to {other:?}"),
            }

            // The next round's first submit re-dials the same connection.
            let h = next();
            let (handle, fresh) = accept_during(&listener, || client.submit_one(h));
            peer = fresh;
            let (id, _) = peer.submitted();
            peer.answer(id, &h);
            assert_eq!(
                handle.wait(),
                Ok(h.execute()),
                "round {round}: after re-dial"
            );
        }
        let spares = client.conns[0].slots.spares.lock().len();
        assert!(
            (1..=SPARE_SLOTS).contains(&spares),
            "{spares} spare slots after {rounds} rounds"
        );
        client.close();
        peer.kill();
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
