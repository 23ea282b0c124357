#![warn(missing_docs)]

//! # tcast-motes — the simulated mote testbed
//!
//! The full-stack reproduction behind the paper's Section IV-D results,
//! from the event queue up to the 12-mote harness:
//!
//! * [`sim`] — the deterministic discrete-event kernel: virtual clock and
//!   event queue.
//! * [`radio`] — the CC2420-like PHY: 802.15.4 frames with CRC-16, SINR
//!   reception with capture, CCA, hardware ACKs and their non-destructive
//!   superposition.
//! * `mac` — unslotted 802.15.4 CSMA-CA and TDMA schedules for the two
//!   traditional baselines.
//! * [`rcd`] — pollcast and backcast over the PHY, and the adapter that
//!   runs every `tcast` algorithm unmodified on the full stack.
//! * [`network`] — event-driven full-stack implementations of the two
//!   traditional baselines over the simulated PHY: CSMA feedback collection
//!   (802.15.4 CSMA-CA contention, collisions and all) and TDMA sequential
//!   collection (clock-offset transmissions in dedicated slots).
//! * [`testbed`] — the Figure 4 harness: one initiator, 12 participant
//!   motes, thresholds {2, 4, 6}, 100 runs per configuration, and
//!   ground-truth error accounting (false negatives per group size — the
//!   paper's 102-out-of-7200 analysis).

mod mac;
pub mod network;
pub mod radio;
pub mod rcd;
pub mod sim;
pub mod testbed;

pub use network::{FullStackReport, MoteNetwork, NetworkConfig};
pub use testbed::{run_testbed, ErrorStats, TestbedConfig, TestbedReport, TestbedRow};
