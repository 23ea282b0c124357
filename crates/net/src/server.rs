//! `NetServer` — the event-driven TCP front-end wrapping a
//! [`QueryService`].
//!
//! A small fixed pool of I/O threads (default `min(8, cores)`, see
//! [`NetServerConfig::io_threads`]) are the server's only threads. I/O
//! thread 0 keeps the non-blocking listener in its own poll set: when it
//! turns readable the thread accepts until `accept(2)` would block and
//! deals the sockets round-robin over the pool, registering its own
//! share at once and pushing each other one to its owner's inbox with a
//! doorbell ring. After a failed accept (fd exhaustion in a flood) the
//! listener leaves the poll set for an [`AcceptBackoff`] pause, so the
//! thread keeps serving its connections instead of sleeping. Each I/O
//! thread multiplexes its share of non-blocking connections through a
//! [`crate::reactor`] readiness loop: per-connection state — the
//! negotiation phase, the stateful [`FrameReader`] surviving partial
//! reads, the in-flight window, the pending write buffer, idle and
//! handshake deadlines — lives in a `Conn` state machine driven by
//! readiness events. Thread count is therefore a constant, not a
//! function of connection count: tens of thousands of idle or pipelined
//! connections cost file descriptors and a few hundred bytes each, not
//! stacks.
//!
//! Responses are produced by completion watchers, one per connection:
//! every job a connection submits is a batch tagged with its request
//! id. The watcher serializes the response straight into its
//! connection's outbound byte buffer — a `JobOk` is encoded from the
//! borrowed report via [`Frame::encode_job_ok_into`], so the report is
//! never cloned into an owned frame. On a service worker it then rings
//! the I/O thread's doorbell ([`crate::reactor::Waker`]); the reactor
//! hands the bytes to the connection's write buffer (a buffer swap when
//! the write buffer is drained) and arms write-interest. Results stream
//! back in *completion* order, matched by request id, never by arrival
//! order.
//!
//! A cheap job can skip the workers altogether. The last two `Submit`s
//! of a connection's read are submitted [inline](SubmitOptions::inline):
//! when no job is queued, every worker is parked and the job's shape has
//! averaged under [`tcast_service::INLINE_MAX_QUERIES`] group queries,
//! the I/O thread runs it itself — through the service's own admission,
//! claim, metrics and span path — and writes the response in the same
//! pass, without ringing its own doorbell. A served job then wakes one
//! server thread instead of three. Earlier submits of the same read go
//! to the workers at once, so a burst runs on them.
//!
//! Backpressure is explicit at both edges. Inbound, a full service
//! queue or in-flight window answers the request with an
//! [`ErrorCode::Busy`] error frame instead of buffering unboundedly.
//! Outbound, a peer that stops reading its responses cannot wedge the
//! server: the write buffer is capped at
//! [`NetServerConfig::max_pending_writes`] and a connection making no
//! write progress for [`NetServerConfig::write_stall_timeout`] is
//! closed — a dead write path ends the connection promptly instead of
//! leaving a zombie that admits jobs nobody will read.
//!
//! Shutdown drains: [`NetServer::shutdown`] sets a flag and rings every
//! I/O thread's doorbell. Thread 0 closes the listener and tells the
//! others no connection will follow; every connection refuses new
//! submits with [`ErrorCode::ShuttingDown`], in-flight jobs finish and
//! their responses are written, then each connection says `Goodbye` and
//! closes, and the threads exit once their connections are gone.

use std::cell::Cell;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tcast_service::{
    Completion, CompletionWatcher, JobError, JobOutput, JobResult, NetCounters, QueryService,
    SubmitError, SubmitOptions,
};
use tcast_tenant::{TenantId, TenantRegistry};

use tcast_obs::{TraceCollector, TraceCollectorConfig};

use crate::frame::{
    ErrorCode, Frame, FrameReadError, FrameReader, DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use crate::reactor::{poll_fds, AcceptBackoff, PollFd, Waker};

/// Tuning knobs for [`NetServer`]. Construct via
/// [`NetServerConfig::default`] plus the `with_*` builders — the struct
/// is `#[non_exhaustive]` so new knobs can land without breaking
/// callers.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct NetServerConfig {
    /// Maximum jobs one connection may have in flight before further
    /// submits are answered with `Busy`.
    pub max_inflight_per_conn: usize,
    /// A connection with no traffic and no in-flight jobs for this long
    /// is closed with a `Goodbye`. Partial-frame byte progress counts
    /// as traffic, so a slow sender is never cut off mid-frame.
    pub idle_timeout: Duration,
    /// A connection that has not completed version negotiation within
    /// this window is dropped.
    pub handshake_timeout: Duration,
    /// Size of the I/O thread pool multiplexing connections. `0` (the
    /// default) resolves to `min(8, available cores)`.
    pub io_threads: usize,
    /// Cap in bytes on one connection's buffered unsent responses. A
    /// peer that stops reading while responses accumulate past this is
    /// closed rather than buffered for unboundedly.
    pub max_pending_writes: usize,
    /// A connection with pending response bytes but no write progress
    /// for this long is closed: its write path is dead even if the
    /// socket never reports an error.
    pub write_stall_timeout: Duration,
    /// When set, the server runs a tail-sampling [`TraceCollector`] over
    /// its own span stream and serves completed trace trees to
    /// [`Frame::TraceExport`] subscribers. `None` (the default) answers
    /// every export request with an empty [`Frame::TraceData`].
    pub trace_export: Option<TraceCollectorConfig>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_inflight_per_conn: 256,
            idle_timeout: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(5),
            io_threads: 0,
            max_pending_writes: 8 << 20,
            write_stall_timeout: Duration::from_secs(30),
            trace_export: None,
        }
    }
}

impl NetServerConfig {
    /// Sets [`Self::max_inflight_per_conn`].
    pub fn with_max_inflight_per_conn(mut self, max_inflight_per_conn: usize) -> Self {
        self.max_inflight_per_conn = max_inflight_per_conn;
        self
    }

    /// Sets [`Self::idle_timeout`].
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets [`Self::handshake_timeout`].
    pub fn with_handshake_timeout(mut self, handshake_timeout: Duration) -> Self {
        self.handshake_timeout = handshake_timeout;
        self
    }

    /// Sets [`Self::io_threads`].
    pub fn with_io_threads(mut self, io_threads: usize) -> Self {
        self.io_threads = io_threads;
        self
    }

    /// Sets [`Self::max_pending_writes`].
    pub fn with_max_pending_writes(mut self, max_pending_writes: usize) -> Self {
        self.max_pending_writes = max_pending_writes;
        self
    }

    /// Sets [`Self::write_stall_timeout`].
    pub fn with_write_stall_timeout(mut self, write_stall_timeout: Duration) -> Self {
        self.write_stall_timeout = write_stall_timeout;
        self
    }

    /// Enables trace export with the given tail-sampler configuration
    /// (see [`Self::trace_export`]).
    pub fn with_trace_export(mut self, config: TraceCollectorConfig) -> Self {
        self.trace_export = Some(config);
        self
    }

    /// The resolved I/O pool size: the configured [`Self::io_threads`],
    /// or `min(8, available cores)` when left at `0`.
    pub fn io_thread_count(&self) -> usize {
        if self.io_threads > 0 {
            return self.io_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    }
}

/// How long an I/O thread's `poll` lasts at most before the thread
/// re-checks connection deadlines. Shutdown rings the doorbell instead
/// of waiting for it.
const POLL_TICK: Duration = Duration::from_millis(25);

/// First backoff after a failed `accept(2)`; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_CAP`].
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Longest pause between accept attempts during persistent failure
/// (e.g. fd exhaustion).
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Submits a read cycle holds back to its end, where each may run inline
/// ([`SubmitOptions::inline`]); the cycle's earlier submits go to the
/// workers as soon as they are read.
const HELD_SUBMITS: usize = 2;

/// Write-buffer head space reclaimed eagerly: once this many flushed
/// bytes sit before the unsent tail, the buffer is compacted.
const WBUF_COMPACT_AT: usize = 64 * 1024;

/// A TCP front-end serving one [`QueryService`] to remote clients.
///
/// Dropping the server performs the same graceful drain as
/// [`NetServer::shutdown`]. The wrapped service itself is *not* shut
/// down — it belongs to the caller and may outlive the front-end.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    inboxes: Vec<Arc<Inbox>>,
    io_threads: Vec<JoinHandle<()>>,
    /// Keeps the collector registered as a process-wide trace sink for
    /// the server's lifetime.
    _trace_sink: Option<tcast_obs::SinkGuard>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections that submit jobs to `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
        config: NetServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = config.io_thread_count();

        let server_counters = service.metrics_registry().net_counters("net/server");
        server_counters.set_io_threads(pool as u64);

        let collector = config
            .trace_export
            .map(|cfg| Arc::new(TraceCollector::new(cfg)));
        let trace_sink = collector
            .clone()
            .map(|c| tcast_obs::add_sink(c as Arc<dyn tcast_obs::TraceSink>));

        let mut inboxes = Vec::with_capacity(pool);
        for _ in 0..pool {
            inboxes.push(Arc::new(Inbox::new()?));
        }

        let mut listener = Some(Listener {
            socket: listener,
            inboxes: inboxes.clone(),
            next: 0,
            backoff: AcceptBackoff::new(ACCEPT_BACKOFF_BASE, ACCEPT_BACKOFF_CAP),
            paused_until: None,
            counters: server_counters,
        });
        let mut io_threads = Vec::with_capacity(pool);
        for (k, inbox) in inboxes.iter().enumerate() {
            let worker = IoThread {
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                inbox: inbox.clone(),
                listener: listener.take(),
                tenants: service.tenant_registry(),
                service: service.clone(),
                collector: collector.clone(),
                config,
                shutdown: shutdown.clone(),
                counters: service
                    .metrics_registry()
                    .net_counters(&format!("net/io-{k}")),
                held: Vec::with_capacity(HELD_SUBMITS + 1),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("tcast-net-io-{k}"))
                .spawn(move || worker.run());
            match spawned {
                Ok(handle) => io_threads.push(handle),
                Err(e) => {
                    // Unwind the threads already running so none outlives
                    // the failed bind.
                    shutdown.store(true, Ordering::SeqCst);
                    for inbox in &inboxes {
                        inbox.waker.wake();
                    }
                    for handle in io_threads {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }

        Ok(Self {
            addr,
            shutdown,
            inboxes,
            io_threads,
            _trace_sink: trace_sink,
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, refuse new submits, finish every
    /// in-flight job and write its response, then close all connections.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // I/O thread 0 closes the listener on this wake and marks every
        // inbox done, so the others know no further connections arrive.
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

thread_local! {
    /// The inbox of the I/O thread running on this thread (null on any
    /// other thread). A watcher called here answers a job the I/O thread
    /// ran inline, and the thread pumps the connection itself right after
    /// the submit returns, so the watcher rings no doorbell.
    static OWN_INBOX: Cell<*const Inbox> = const { Cell::new(std::ptr::null()) };
}

/// The handoff point into one I/O thread, for the sockets I/O thread 0
/// accepts on its behalf and for watcher completions. Every producer
/// rings [`Inbox::waker`] after pushing.
struct Inbox {
    /// Sockets accepted but not yet registered with the reactor.
    new_conns: Mutex<Vec<TcpStream>>,
    /// Connections whose watchers queued response bytes since the
    /// reactor last looked.
    completions: Mutex<Vec<Arc<ConnShared>>>,
    /// Set by I/O thread 0 when it closes the listener: no more
    /// `new_conns` will ever come.
    acceptor_done: AtomicBool,
    waker: Waker,
}

impl Inbox {
    fn new() -> io::Result<Self> {
        Ok(Self {
            new_conns: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            acceptor_done: AtomicBool::new(false),
            waker: Waker::new()?,
        })
    }
}

/// Connection state visible outside the owning I/O thread (the
/// connection's completion watcher, run on service workers, holds an
/// `Arc` of this).
struct ConnShared {
    /// Index of the connection in its I/O thread's slab. Slots are
    /// reused, so consumers must also check pointer identity.
    slot: usize,
    /// Response bytes serialized by watchers, awaiting handoff to the
    /// connection's write buffer on the reactor thread.
    outbound: Mutex<Vec<u8>>,
    /// Jobs admitted but whose response frame is not yet queued.
    inflight: AtomicUsize,
    /// Set once the reactor closes the socket; watchers stop queueing.
    closed: AtomicBool,
    /// Collapses redundant completion notifications: set by the first
    /// watcher to notify, cleared when the reactor services the entry.
    notified: AtomicBool,
}

/// Where a connection is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// `HelloAck` carried a challenge; waiting for the client's `Auth`.
    /// Reached only when the wrapped service has a tenant registry.
    AuthPending,
    /// Negotiated; frames flow.
    Active,
    /// No longer reading; once in-flight jobs finish and their
    /// responses flush, the connection closes (after a `Goodbye` iff
    /// the close is orderly).
    Draining {
        /// Whether to say `Goodbye` once quiet (orderly close) or just
        /// close (peer EOF, protocol error).
        goodbye: bool,
    },
}

/// One multiplexed connection: all state the readiness loop needs.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    shared: Arc<ConnShared>,
    /// Answers every job this connection submits: each job's batch is
    /// tagged with its request id, so one watcher serves them all.
    watcher: CompletionWatcher,
    phase: Phase,
    /// The peer sent `Goodbye`: close orderly once quiet.
    peer_done: bool,
    /// No further reads (peer EOF, draining, or protocol error).
    read_stopped: bool,
    /// The draining `Goodbye` has been serialized already.
    goodbye_queued: bool,
    /// The challenge nonce issued in this connection's `HelloAck`, kept
    /// to verify the `Auth` answer against. `None` when auth is off.
    challenge: Option<[u8; 16]>,
    /// The authenticated tenant; stamped onto every job this connection
    /// submits. Never taken from the wire.
    tenant: Option<TenantId>,
    /// Serialized-but-unsent response bytes; `wpos..` is the unsent tail.
    wbuf: Vec<u8>,
    wpos: usize,
    opened_at: Instant,
    last_activity: Instant,
    last_write_progress: Instant,
}

impl Conn {
    fn pending_writes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Serializes `frame` onto the connection's write buffer.
fn queue_frame(counters: &NetCounters, conn: &mut Conn, frame: &Frame) {
    let before = conn.wbuf.len();
    frame.encode_into(&mut conn.wbuf, PROTOCOL_V4);
    counters.frame_out((conn.wbuf.len() - before) as u64);
}

/// One reactor thread: owns a slab of connections and multiplexes them
/// through `poll(2)` readiness.
struct IoThread {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    inbox: Arc<Inbox>,
    /// The listening socket, on I/O thread 0 only, until shutdown.
    listener: Option<Listener>,
    service: Arc<QueryService>,
    /// The wrapped service's tenant registry, if any. Present ⇒ every
    /// connection must pass the `Auth` challenge before submitting.
    tenants: Option<Arc<TenantRegistry>>,
    /// The server's tail-sampling trace collector, if export is on.
    collector: Option<Arc<TraceCollector>>,
    config: NetServerConfig,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    /// A read cycle's last admitted submits, kept for its end; empty
    /// between cycles, so its capacity is reused.
    held: Vec<(u64, tcast_service::QueryJob)>,
}

/// The server's listening socket and its round-robin cursor, owned by
/// I/O thread 0, which accepts between reads on its own connections.
struct Listener {
    socket: TcpListener,
    /// Every I/O thread's inbox, in thread order; index 0 is the owner's.
    inboxes: Vec<Arc<Inbox>>,
    /// Accepted connections so far; the next one goes to thread
    /// `next % inboxes.len()`.
    next: usize,
    backoff: AcceptBackoff,
    /// After a failed `accept(2)`, when the listener rejoins the poll set.
    paused_until: Option<Instant>,
    /// The `net/server` row, which counts accept errors.
    counters: Arc<NetCounters>,
}

impl Listener {
    /// The listener's poll entry, or `None` while an accept-error pause
    /// runs, in which case `timeout` is cut to the pause's end.
    fn poll_fd(&mut self, now: Instant, timeout: &mut Duration) -> Option<PollFd> {
        if let Some(until) = self.paused_until {
            if until > now {
                *timeout = (*timeout).min(until - now);
                return None;
            }
            self.paused_until = None;
        }
        Some(PollFd::readable(self.socket.as_raw_fd()))
    }
}

impl IoThread {
    fn run(mut self) {
        OWN_INBOX.with(|own| own.set(Arc::as_ptr(&self.inbox)));
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        // Swapped with the inbox's list each pass, so both keep their
        // capacity and a watcher's push does not allocate.
        let mut completed: Vec<Arc<ConnShared>> = Vec::new();
        loop {
            let fresh: Vec<TcpStream> = std::mem::take(&mut *self.inbox.new_conns.lock());
            for stream in fresh {
                self.register(stream);
            }

            std::mem::swap(&mut completed, &mut *self.inbox.completions.lock());
            for shared in completed.drain(..) {
                shared.notified.store(false, Ordering::Release);
                let current = self
                    .conns
                    .get(shared.slot)
                    .and_then(|c| c.as_ref())
                    .is_some_and(|c| Arc::ptr_eq(&c.shared, &shared));
                if current {
                    self.pump(shared.slot);
                }
            }

            self.sweep();

            if self.shutdown.load(Ordering::SeqCst) {
                self.stop_accepting();
                if self.live == 0
                    && self.inbox.acceptor_done.load(Ordering::Acquire)
                    && self.inbox.new_conns.lock().is_empty()
                {
                    return;
                }
            }

            pollfds.clear();
            slots.clear();
            pollfds.push(self.inbox.waker.poll_fd());
            let mut timeout = POLL_TICK;
            let listening = self
                .listener
                .as_mut()
                .and_then(|listener| listener.poll_fd(Instant::now(), &mut timeout));
            if let Some(fd) = listening {
                pollfds.push(fd);
            }
            let first_conn = pollfds.len();
            for (slot, entry) in self.conns.iter().enumerate() {
                let Some(conn) = entry else { continue };
                let want_read = !conn.read_stopped;
                let want_write = conn.pending_writes() > 0;
                if want_read || want_write {
                    pollfds.push(PollFd::new(conn.stream.as_raw_fd(), want_read, want_write));
                    slots.push(slot);
                }
            }
            let _ = poll_fds(&mut pollfds, timeout);
            if pollfds[0].is_readable() {
                self.inbox.waker.drain();
            }
            for i in first_conn..pollfds.len() {
                if !pollfds[i].is_ready() {
                    continue;
                }
                let slot = slots[i - first_conn];
                if pollfds[i].is_writable() {
                    self.flush(slot);
                }
                if pollfds[i].is_readable() {
                    self.read_cycle(slot);
                }
            }
            if listening.is_some() && pollfds[1].is_readable() {
                self.accept_ready();
            }
        }
    }

    /// Accepts until the listener would block, handing the sockets out
    /// round-robin: this thread registers its own share at once and
    /// pushes every other one to its owner's inbox. A failed `accept(2)`
    /// is counted and takes the listener out of the poll set for the
    /// backoff's pause.
    fn accept_ready(&mut self) {
        let Some(mut listener) = self.listener.take() else {
            return;
        };
        loop {
            match listener.socket.accept() {
                Ok((stream, _peer)) => {
                    listener.backoff.on_success();
                    let owner = listener.next % listener.inboxes.len();
                    listener.next = listener.next.wrapping_add(1);
                    if owner == 0 {
                        self.register(stream);
                    } else {
                        let inbox = &listener.inboxes[owner];
                        inbox.new_conns.lock().push(stream);
                        inbox.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Persistent failure (EMFILE during a flood) must
                    // neither spin nor pass silently: count it and back
                    // off geometrically.
                    listener.counters.accept_error();
                    let pause = listener.backoff.on_error();
                    tcast_obs::event(
                        tcast_obs::TraceId::NONE,
                        "net.accept.error",
                        &[(
                            "consecutive",
                            u64::from(listener.backoff.consecutive_errors()),
                        )],
                    );
                    listener.paused_until = Some(Instant::now() + pause);
                    break;
                }
            }
        }
        self.listener = Some(listener);
    }

    /// Closes the listener, if this thread holds it, and tells every I/O
    /// thread that no more connections will arrive.
    fn stop_accepting(&mut self) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        for inbox in &listener.inboxes {
            inbox.acceptor_done.store(true, Ordering::Release);
            inbox.waker.wake();
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let now = Instant::now();
        self.counters.conn_opened();
        let shared = Arc::new(ConnShared {
            slot,
            outbound: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            notified: AtomicBool::new(false),
        });
        let watcher = self.watcher(shared.clone());
        self.conns[slot] = Some(Conn {
            stream,
            reader: FrameReader::new(),
            shared,
            watcher,
            phase: Phase::Handshake,
            peer_done: false,
            read_stopped: false,
            goodbye_queued: false,
            challenge: None,
            tenant: None,
            wbuf: Vec::new(),
            wpos: 0,
            opened_at: now,
            last_activity: now,
            last_write_progress: now,
        });
        self.live += 1;
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        conn.shared.closed.store(true, Ordering::Release);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.counters.conn_closed();
        self.free.push(slot);
        self.live -= 1;
    }

    /// Moves watcher-serialized response bytes into the write buffer and
    /// pushes them toward the socket. When the write buffer is fully
    /// drained this is a buffer swap, not a copy — the watchers' bytes
    /// go to the socket untouched, and the watchers inherit the write
    /// buffer's capacity for the next responses.
    fn pump(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        {
            let mut out = conn.shared.outbound.lock();
            if !out.is_empty() {
                if conn.wbuf.is_empty() && conn.wpos == 0 {
                    std::mem::swap(&mut conn.wbuf, &mut *out);
                } else {
                    conn.wbuf.append(&mut *out);
                }
            }
        }
        if conn.pending_writes() > self.config.max_pending_writes {
            self.close(slot);
            return;
        }
        self.flush(slot);
    }

    /// Writes the pending tail of the write buffer until the socket
    /// would block. A write error means the response path is dead, and
    /// the connection closes immediately — jobs must not be admitted for
    /// a peer that can never see their results.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.wbuf.capacity() > WBUF_COMPACT_AT {
                conn.wbuf.shrink_to(WBUF_COMPACT_AT);
            }
        } else if conn.wpos >= WBUF_COMPACT_AT {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
    }

    /// Reads frames until the socket would block, dispatching each. The
    /// read's last [`HELD_SUBMITS`] admitted submits are held back to the
    /// end and may run inline; every earlier one goes to the workers as
    /// soon as it drops out of that window.
    fn read_cycle(&mut self, slot: usize) {
        let mut held = std::mem::take(&mut self.held);
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.read_stopped {
                break;
            }
            let buffered_before = conn.reader.buffered_len();
            match conn.reader.read_from(&mut conn.stream, DEFAULT_MAX_PAYLOAD) {
                Ok(None) => {
                    // Partial-frame progress is activity: a slow sender
                    // mid-frame must not trip the idle timeout.
                    if conn.reader.buffered_len() > buffered_before {
                        conn.last_activity = Instant::now();
                    }
                    break;
                }
                Ok(Some((frame, n))) => {
                    self.counters.frame_in(n as u64);
                    conn.last_activity = Instant::now();
                    if let Some(next) = self.handle_frame(slot, frame, n) {
                        held.push(next);
                        if held.len() > HELD_SUBMITS {
                            let (request_id, job) = held.remove(0);
                            self.submit(slot, request_id, job, false);
                        }
                    }
                    let overflow = self.conns[slot]
                        .as_ref()
                        .is_some_and(|c| c.pending_writes() > self.config.max_pending_writes);
                    if overflow {
                        self.close(slot);
                        return;
                    }
                }
                Err(FrameReadError::Malformed(m)) => {
                    // Framing is broken: report and close rather than
                    // guess at resynchronization.
                    self.counters.decode_error();
                    if conn.phase == Phase::AuthPending {
                        // A garbled frame where Auth was due (e.g. a
                        // truncated Auth payload) is a failed handshake,
                        // answered with the typed auth error so the
                        // client never mistakes it for wire corruption
                        // on an open session.
                        self.counters.auth_failure();
                        self.fail_conn(slot, ErrorCode::AuthFailed, m.to_string());
                    } else {
                        self.fail_conn(slot, ErrorCode::Malformed, m.to_string());
                    }
                    break;
                }
                Err(FrameReadError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // Peer EOF: stop reading, still drain in-flight
                    // responses, then close without Goodbye. During the
                    // handshake there is nothing to drain — close now.
                    if matches!(conn.phase, Phase::Handshake | Phase::AuthPending) {
                        self.close(slot);
                        return;
                    }
                    conn.read_stopped = true;
                    conn.phase = Phase::Draining { goodbye: false };
                    break;
                }
                Err(FrameReadError::Io(_)) => {
                    self.close(slot);
                    return;
                }
            }
        }
        let inline = !held.is_empty();
        for (request_id, job) in held.drain(..) {
            self.submit(slot, request_id, job, true);
        }
        self.held = held;
        if inline {
            self.pump(slot);
        } else {
            self.flush(slot);
        }
    }

    /// Queues a connection-level error frame and transitions to a
    /// goodbye-less drain: in-flight responses still flush, new reads
    /// stop, and the connection closes once quiet.
    fn fail_conn(&mut self, slot: usize, code: ErrorCode, detail: String) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let frame = Frame::Error {
            request_id: 0,
            code,
            detail,
        };
        queue_frame(&self.counters, conn, &frame);
        conn.read_stopped = true;
        conn.phase = Phase::Draining { goodbye: false };
    }

    /// Acts on one frame; an admitted `Submit` comes back, stamped with
    /// its tenant and trace and counted in flight, for the caller to
    /// [`submit`](Self::submit).
    fn handle_frame(
        &mut self,
        slot: usize,
        frame: Frame,
        wire_bytes: usize,
    ) -> Option<(u64, tcast_service::QueryJob)> {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let conn = self.conns[slot].as_mut()?;
        if conn.phase == Phase::Handshake {
            match frame {
                Frame::Hello {
                    min_version,
                    max_version,
                } => {
                    // The server speaks V4 alone: ack it when the
                    // client's range contains it.
                    if (min_version..=max_version).contains(&PROTOCOL_V4) {
                        // With a tenant registry attached the ack also
                        // carries a fresh challenge, and the connection
                        // must authenticate before anything else.
                        let challenge = self.tenants.as_ref().map(|reg| reg.fresh_nonce());
                        conn.challenge = challenge;
                        conn.phase = if challenge.is_some() {
                            Phase::AuthPending
                        } else {
                            Phase::Active
                        };
                        let ack = Frame::HelloAck {
                            version: PROTOCOL_V4,
                            challenge,
                        };
                        queue_frame(&self.counters, conn, &ack);
                    } else {
                        self.fail_conn(
                            slot,
                            ErrorCode::UnsupportedVersion,
                            format!(
                                "server speaks version {PROTOCOL_V4}, client offered \
                                 {min_version}..={max_version}"
                            ),
                        );
                    }
                }
                _ => {
                    self.counters.decode_error();
                    self.fail_conn(
                        slot,
                        ErrorCode::Malformed,
                        "expected Hello as the first frame".into(),
                    );
                }
            }
            return None;
        }
        if conn.phase == Phase::AuthPending {
            match frame {
                Frame::Auth { tenant, mac } => {
                    // `AuthPending` is entered only with a registry and a
                    // challenge; without either the credentials fail.
                    let verified = match (self.tenants.as_ref(), conn.challenge) {
                        (Some(reg), Some(nonce)) => reg.verify(&tenant, &nonce, &mac),
                        _ => Err(tcast_tenant::AuthFailure::UnknownTenant),
                    };
                    match verified {
                        Ok(id) => {
                            conn.tenant = Some(id);
                            conn.phase = Phase::Active;
                            // Pre-register the tenant's metric series so
                            // its Prometheus rows exist (at zero) from
                            // first sight onward, and feed the auth SLO.
                            let registry = self.service.metrics_registry();
                            registry.seen_tenant(&tenant);
                            registry.slo_observe(tcast_obs::SloSignal::Auth, true);
                            queue_frame(&self.counters, conn, &Frame::AuthOk);
                        }
                        Err(_) => {
                            // One generic detail for unknown-tenant and
                            // bad-MAC alike: the error frame must not be
                            // an oracle for which tenant names exist.
                            self.counters.auth_failure();
                            self.service
                                .metrics_registry()
                                .slo_observe(tcast_obs::SloSignal::Auth, false);
                            self.fail_conn(
                                slot,
                                ErrorCode::AuthFailed,
                                "credentials rejected".into(),
                            );
                        }
                    }
                }
                _ => {
                    self.counters.auth_failure();
                    self.fail_conn(
                        slot,
                        ErrorCode::AuthRequired,
                        "this server requires an Auth frame before any other traffic".into(),
                    );
                }
            }
            return None;
        }
        match frame {
            Frame::Submit { request_id, job } => {
                tcast_obs::event(
                    job.trace,
                    "net.recv",
                    &[("bytes", wire_bytes as u64), ("request_id", request_id)],
                );
                if draining {
                    queue_frame(&self.counters, conn, &shutting_down(request_id));
                    return None;
                }
                if conn.shared.inflight.load(Ordering::Acquire) >= self.config.max_inflight_per_conn
                {
                    self.counters.busy_rejection();
                    let frame = busy(request_id, "connection in-flight window full");
                    queue_frame(&self.counters, conn, &frame);
                    return None;
                }
                // The tenant comes from this connection's Auth handshake,
                // never from the wire: a client cannot submit under
                // another tenant's quotas by forging a field.
                let mut job = match conn.tenant {
                    Some(id) => job.with_tenant(id),
                    None => job,
                };
                // With a trace collector attached, untraced jobs get a
                // server-minted trace id so tail sampling covers traffic
                // from clients that do no tracing of their own — unless
                // the submitter explicitly opted the job out.
                if self.collector.is_some()
                    && job.trace == tcast_obs::TraceId::NONE
                    && job.span_parent.sampled
                {
                    job.trace = tcast_obs::TraceId::fresh();
                }
                // Count the job before the pool can complete it; the
                // watcher decrements only after the response frame is
                // queued, so drain never closes the connection underneath
                // a pending response.
                conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
                return Some((request_id, job));
            }
            Frame::MetricsDump { request_id } => {
                let families = self.service.metrics_registry().snapshot().families();
                let answer = Frame::Metrics {
                    request_id,
                    families,
                };
                queue_frame(&self.counters, conn, &answer);
            }
            Frame::TraceExport {
                request_id,
                max_traces,
            } => {
                // Bound one answer to what comfortably fits the default
                // payload cap; the rest stays queued for the next poll.
                let traces = match &self.collector {
                    Some(c) => c.take(max_traces.min(64) as usize),
                    None => Vec::new(),
                };
                queue_frame(
                    &self.counters,
                    conn,
                    &Frame::TraceData { request_id, traces },
                );
            }
            Frame::Goodbye => conn.peer_done = true,
            _ => {
                self.counters.decode_error();
                self.fail_conn(slot, ErrorCode::Malformed, "unexpected client frame".into());
            }
        }
        None
    }

    /// The completion watcher of the connection behind `shared`: it
    /// serializes each job's response frame, under the request id its
    /// batch is tagged with, into the connection's outbound buffer and,
    /// unless it runs on the I/O thread itself, rings that thread's
    /// doorbell.
    fn watcher(&self, shared: Arc<ConnShared>) -> CompletionWatcher {
        let inbox = self.inbox.clone();
        let counters = self.counters.clone();
        Arc::new(move |done: Completion, result: &JobResult| {
            let request_id = done.tag;
            tcast_obs::event(done.trace, "net.respond", &[("request_id", request_id)]);
            if !shared.closed.load(Ordering::Acquire) {
                // Serialize straight into the shared outbound buffer: a
                // report is encoded borrowed, never cloned into an owned
                // frame on the worker's completion path.
                let mut out = shared.outbound.lock();
                let before = out.len();
                match result {
                    Ok(JobOutput::Report(report)) => {
                        Frame::encode_job_ok_into(&mut out, PROTOCOL_V4, request_id, report);
                    }
                    Ok(other) => Frame::JobFailed {
                        request_id,
                        error: JobError::Panicked(format!("non-report job output: {other:?}")),
                    }
                    .encode_into(&mut out, PROTOCOL_V4),
                    Err(e) => Frame::JobFailed {
                        request_id,
                        error: e.clone(),
                    }
                    .encode_into(&mut out, PROTOCOL_V4),
                }
                counters.frame_out((out.len() - before) as u64);
            }
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            if OWN_INBOX.with(Cell::get) == Arc::as_ptr(&inbox) {
                return;
            }
            if shared
                .notified
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                inbox.completions.lock().push(shared.clone());
            }
            inbox.waker.wake();
        })
    }

    /// Hands an admitted job to the service; with `inline`, a cheap job
    /// may run on this thread before the call returns
    /// ([`SubmitOptions::inline`]), its response then waiting in the
    /// connection's outbound buffer for the caller to pump.
    fn submit(&mut self, slot: usize, request_id: u64, job: tcast_service::QueryJob, inline: bool) {
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        let shared = conn.shared.clone();
        let mut options = SubmitOptions::new()
            .nonblocking()
            .watched(conn.watcher.clone())
            .tagged(request_id);
        if inline {
            options = options.inline();
        }
        match self.service.submit_with(std::iter::once(job), options) {
            Ok(_batch) => {} // responses flow through the watcher
            Err(SubmitError::QueueFull(_)) => {
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                self.counters.busy_rejection();
                if let Some(conn) = self.conns[slot].as_mut() {
                    let frame = busy(request_id, "service admission queue full");
                    queue_frame(&self.counters, conn, &frame);
                }
            }
            Err(SubmitError::QuotaExceeded(_)) => {
                // The service already counted the rejection per tenant;
                // answer with a typed job failure rather than Busy so the
                // client can tell "slow down" from "queue full".
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                if let Some(conn) = self.conns[slot].as_mut() {
                    let frame = Frame::JobFailed {
                        request_id,
                        error: JobError::QuotaExceeded,
                    };
                    queue_frame(&self.counters, conn, &frame);
                }
            }
            Err(SubmitError::Closed(_)) => {
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                if let Some(conn) = self.conns[slot].as_mut() {
                    queue_frame(&self.counters, conn, &shutting_down(request_id));
                }
            }
        }
    }

    /// Reads the frames a draining connection left in its socket buffer
    /// and refuses every submit among them with `ShuttingDown`, so the
    /// `Goodbye` that follows answers nothing the peer is still waiting
    /// on. Called once, just before that `Goodbye`.
    fn refuse_unread(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        while let Ok(Some((frame, n))) =
            conn.reader.read_from(&mut conn.stream, DEFAULT_MAX_PAYLOAD)
        {
            self.counters.frame_in(n as u64);
            if let Frame::Submit { request_id, .. } = frame {
                queue_frame(&self.counters, conn, &shutting_down(request_id));
            }
        }
    }

    /// Per-tick deadline and lifecycle pass over every connection.
    fn sweep(&mut self) {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            self.sweep_conn(slot, draining, now);
        }
    }

    fn sweep_conn(&mut self, slot: usize, draining: bool, now: Instant) {
        // Opportunistically serialize watcher responses even if a wake
        // was coalesced away; this also keeps the quiet check honest.
        self.pump(slot);

        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let quiet = conn.shared.inflight.load(Ordering::Acquire) == 0
            && conn.shared.outbound.lock().is_empty()
            && conn.pending_writes() == 0;
        match conn.phase {
            Phase::Handshake | Phase::AuthPending => {
                if draining || now.duration_since(conn.opened_at) > self.config.handshake_timeout {
                    // Dropped silently, exactly as the blocking server
                    // dropped un-negotiated connections.
                    self.close(slot);
                    return;
                }
            }
            Phase::Active => {
                let idle = now.duration_since(conn.last_activity) >= self.config.idle_timeout;
                if quiet && (draining || conn.peer_done || idle) {
                    conn.phase = Phase::Draining { goodbye: true };
                    conn.read_stopped = true;
                }
            }
            Phase::Draining { .. } => {}
        }

        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if let Phase::Draining { goodbye } = conn.phase {
            let drained = conn.shared.inflight.load(Ordering::Acquire) == 0
                && conn.shared.outbound.lock().is_empty();
            if drained {
                if goodbye && !conn.goodbye_queued {
                    self.refuse_unread(slot);
                    let Some(conn) = self.conns[slot].as_mut() else {
                        return;
                    };
                    conn.goodbye_queued = true;
                    queue_frame(&self.counters, conn, &Frame::Goodbye);
                    self.flush(slot);
                }
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.pending_writes() == 0 {
                    self.close(slot);
                    return;
                }
            }
        }

        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.pending_writes() > 0
            && now.duration_since(conn.last_write_progress) > self.config.write_stall_timeout
        {
            // The peer accepts no bytes: the write path is dead even
            // though the socket reports no error. Close instead of
            // keeping a zombie around.
            self.close(slot);
        }
    }
}

fn busy(request_id: u64, detail: &str) -> Frame {
    Frame::Error {
        request_id,
        code: ErrorCode::Busy,
        detail: detail.into(),
    }
}

fn shutting_down(request_id: u64) -> Frame {
    Frame::Error {
        request_id,
        code: ErrorCode::ShuttingDown,
        detail: String::new(),
    }
}
