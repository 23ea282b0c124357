//! Readiness polling on raw file descriptors, dependency-free.
//!
//! The event-driven [`crate::NetServer`] multiplexes many non-blocking
//! sockets onto a small fixed pool of I/O threads. Each thread needs
//! exactly one primitive for that: "sleep until one of these fds is
//! readable/writable, or until I am woken". This module provides it on
//! top of `poll(2)` without pulling in the `libc` crate — `std` already
//! links the platform C library on every Unix target, so declaring the
//! one symbol we need is enough. Everything else (`Waker`,
//! [`AcceptBackoff`]) is plain `std`.
//!
//! The API is deliberately minimal and level-triggered:
//!
//! - [`PollFd`] — one fd plus the interest set to wait for,
//!   mirroring `struct pollfd`;
//! - [`poll_fds`] — waits until any entry is ready or the timeout
//!   elapses, retrying `EINTR` internally;
//! - [`Waker`] — a socketpair-based doorbell so threads *not* in the
//!   poll set (completion watchers on service workers, I/O thread 0
//!   handing over an accepted socket, shutdown) can interrupt a sleeping
//!   I/O thread;
//! - [`AcceptBackoff`] — the escalation policy for repeated `accept(2)`
//!   failures (`EMFILE` during a connection flood must not spin): the
//!   accepting I/O thread leaves its listener out of the poll set for
//!   each pause.
//!
//! `poll` scans the fd list linearly, so a poll set of `n` connections
//! costs O(n) per wakeup. That is the right trade here: the server caps
//! I/O threads at a small constant and connections per thread in the
//! low tens of thousands, where one syscall over a flat array still
//! beats the bookkeeping of `epoll` registration churn — and it keeps
//! the module portable across Unixes with zero dependencies.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `POLLIN`: data (or EOF / a pending error) can be read.
const POLLIN: i16 = 0x001;
/// `POLLOUT`: the fd accepts writes without blocking.
const POLLOUT: i16 = 0x004;
/// `POLLERR`: an error condition is pending (revents only).
const POLLERR: i16 = 0x008;
/// `POLLHUP`: the peer hung up (revents only).
const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: the fd is not open (revents only).
const POLLNVAL: i16 = 0x020;

/// `struct pollfd` from `poll(2)`, bit-compatible with the C layout.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry waiting for the given interest on `fd`.
    pub fn new(fd: RawFd, readable: bool, writable: bool) -> Self {
        let mut events = 0;
        if readable {
            events |= POLLIN;
        }
        if writable {
            events |= POLLOUT;
        }
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// An entry waiting for readability only.
    pub fn readable(fd: RawFd) -> Self {
        Self::new(fd, true, false)
    }

    /// The fd this entry polls.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Whether the last [`poll_fds`] reported the fd readable.
    ///
    /// Error and hang-up conditions count as readable on purpose: the
    /// next `read` surfaces the real `io::Error` (or EOF), which is the
    /// single place connection teardown is decided.
    pub fn is_readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether the last [`poll_fds`] reported the fd writable (an
    /// error/hang-up also reports here so a pending write attempt can
    /// observe the failure instead of waiting forever).
    pub fn is_writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether any readiness at all was reported.
    pub fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    // `int poll(struct pollfd *fds, nfds_t nfds, int timeout)` — nfds_t
    // is `unsigned long` on every supported Unix. std links the C
    // library, so no crate dependency is needed for this one symbol.
    fn poll(
        fds: *mut PollFd,
        nfds: core::ffi::c_ulong,
        timeout: core::ffi::c_int,
    ) -> core::ffi::c_int;
}

/// Waits until at least one entry in `fds` is ready or `timeout`
/// elapses; returns how many entries have non-empty `revents`.
///
/// The timeout is rounded up to whole milliseconds, so a wait for a
/// deadline never returns just before it. `EINTR` is retried internally
/// (with the full timeout — callers run this inside a tick loop, so
/// occasional over-sleeping is harmless). A zero return is a clean
/// timeout.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = core::ffi::c_int::try_from(timeout.as_micros().div_ceil(1000))
        .unwrap_or(core::ffi::c_int::MAX);
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, millis) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A doorbell that makes a thread sleeping in [`poll_fds`] return.
///
/// Built on a non-blocking `UnixStream::pair`: the read half sits in
/// the poll set, any thread holding the waker writes one byte to the
/// write half. A full pipe means a wake-up is already pending, so
/// `WouldBlock` on the write is success, and wakes coalesce naturally.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// A fresh, unsignalled waker.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self { rx, tx })
    }

    /// The fd to include (readable) in the poll set.
    pub fn poll_fd(&self) -> PollFd {
        PollFd::readable(self.rx.as_raw_fd())
    }

    /// Signals the poller. Callable from any thread; never blocks.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consumes all pending wake signals (call after the poller
    /// observes the waker fd readable, before re-polling). A read that
    /// comes back short has emptied the socket, so only a full one is
    /// followed by another: one `recv` per doorbell in the common case.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// Escalation policy for repeated `accept(2)` failures.
///
/// During a connection flood the listener can fail persistently — most
/// prominently with `EMFILE`/`ENFILE` when fds run out. Retrying
/// immediately melts a core without admitting anyone; sleeping a fixed
/// long interval punishes the one-off transient errors (`ECONNABORTED`,
/// peer resets in the backlog) that clear on the very next call. The
/// policy starts at `base` and doubles per consecutive failure up to
/// `cap`, resetting on the first successful accept.
#[derive(Debug, Clone, Copy)]
pub struct AcceptBackoff {
    base: Duration,
    cap: Duration,
    consecutive: u32,
}

impl AcceptBackoff {
    /// A policy escalating from `base` to `cap` per consecutive failure.
    pub fn new(base: Duration, cap: Duration) -> Self {
        Self {
            base,
            cap,
            consecutive: 0,
        }
    }

    /// Records one failed accept and returns how long to back off
    /// before retrying.
    pub fn on_error(&mut self) -> Duration {
        let exp = self.consecutive.min(16);
        self.consecutive = self.consecutive.saturating_add(1);
        let backoff = self
            .base
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.cap);
        backoff.max(self.base)
    }

    /// Records a successful accept, resetting the escalation.
    pub fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_errors(&self) -> u32 {
        self.consecutive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_makes_poll_return_and_drain_resets_it() {
        let waker = Waker::new().expect("socketpair");
        let mut fds = [waker.poll_fd()];
        // Unsignalled: a short poll times out cleanly.
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
        // Signalled (twice — wakes coalesce): poll reports readable.
        waker.wake();
        waker.wake();
        let mut fds = [waker.poll_fd()];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].is_readable());
        // Drained: back to a clean timeout.
        waker.drain();
        let mut fds = [waker.poll_fd()];
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn poll_reports_plain_socket_readiness() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        // Nothing written yet: not readable, but writable.
        let mut fds = [PollFd::new(b.as_raw_fd(), true, true)];
        assert!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap() >= 1);
        assert!(!fds[0].is_readable());
        assert!(fds[0].is_writable());
        // After a write from the peer: readable.
        a.write_all(b"x").expect("write");
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(fds[0].is_readable());
    }

    #[test]
    fn peer_hangup_counts_as_readable() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(a);
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert!(
            fds[0].is_readable(),
            "hang-up must surface as readability so read() can report EOF"
        );
    }

    #[test]
    fn accept_backoff_escalates_and_resets() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_millis(500);
        let mut policy = AcceptBackoff::new(base, cap);
        // Repeated failures escalate geometrically toward the cap...
        let first = policy.on_error();
        let second = policy.on_error();
        let third = policy.on_error();
        assert_eq!(first, base);
        assert_eq!(second, base * 2);
        assert_eq!(third, base * 4);
        assert_eq!(policy.consecutive_errors(), 3);
        // ...and saturate exactly at the cap, never overflowing.
        for _ in 0..40 {
            assert!(policy.on_error() <= cap);
        }
        assert_eq!(policy.on_error(), cap);
        // One success resets the whole escalation.
        policy.on_success();
        assert_eq!(policy.consecutive_errors(), 0);
        assert_eq!(policy.on_error(), base);
    }
}
