#![warn(missing_docs)]

//! # tcast-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the radio/MAC/mote stack: a virtual clock and a
//! cancellable event queue with strict deterministic ordering. The queue is
//! generic over the event type so the layers above define their own
//! vocabularies (`tcast-rcd` schedules `Phase`s, the full-stack baselines in
//! `tcast-motes` their own mote events) without any dynamic typing in the
//! hot path.
//!
//! Determinism guarantees:
//!
//! * events at equal timestamps fire in scheduling order (FIFO tie-break by
//!   sequence number) — never in allocation or hash order;
//! * all randomness is injected by callers through seeded RNGs; the kernel
//!   itself is RNG-free.
//!
//! ```
//! use tcast_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_in(SimDuration::micros(320), "backoff expired");
//! q.schedule_in(SimDuration::micros(192), "turnaround done");
//! assert_eq!(q.pop().unwrap().1, "turnaround done");
//! assert_eq!(q.now(), SimTime::ZERO + SimDuration::micros(192));
//! ```

mod queue;
mod time;

pub use queue::{EventId, EventQueue};
pub use time::{SimDuration, SimTime};
