//! MAC substrate for the full-stack baselines.
//!
//! Two medium-access strategies, matching the paper's baselines:
//!
//! * [`csma`] — unslotted 802.15.4 CSMA-CA as a pure state machine
//!   (`request` / `timer_fired` steps), so it can be driven by any event
//!   loop and unit-tested without one.
//! * [`tdma`] — the sequential-ordering schedule: per-node reply slots with
//!   a configurable guard time and a clock-error model, the "broadcast a
//!   schedule and listen" baseline of Section IV-C.

mod csma;
mod tdma;

pub use csma::{CsmaCa, CsmaCaConfig, CsmaStep};
pub use tdma::{TdmaConfig, TdmaSchedule};
