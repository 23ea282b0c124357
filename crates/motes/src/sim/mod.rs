//! Deterministic discrete-event kernel: a virtual clock and an event queue
//! with strict deterministic ordering.
//!
//! The queue is generic over the event type, so each layer above defines
//! its own vocabulary ([`rcd`](crate::rcd) schedules exchange phases, the
//! full-stack baselines in [`network`](crate::network) their own mote
//! events) without any dynamic typing in the hot path.
//!
//! Determinism guarantees:
//!
//! * events at equal timestamps fire in scheduling order (FIFO tie-break by
//!   sequence number) — never in allocation or hash order;
//! * all randomness is injected by callers through seeded RNGs; the kernel
//!   itself is RNG-free.
//!
//! ```
//! use tcast_motes::sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_in(SimDuration::micros(320), "backoff expired");
//! q.schedule_in(SimDuration::micros(192), "turnaround done");
//! assert_eq!(q.pop().unwrap().1, "turnaround done");
//! assert_eq!(q.now(), SimTime::ZERO + SimDuration::micros(192));
//! ```

mod queue;
mod time;

pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
