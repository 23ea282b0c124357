#![warn(missing_docs)]

//! # tcast-motes — mote applications and the testbed harness
//!
//! The top of the full-stack reproduction, mirroring the paper's
//! experimental methodology (Section IV-D):
//!
//! * [`network`] — event-driven full-stack implementations of the two
//!   traditional baselines over the simulated PHY: CSMA feedback collection
//!   (802.15.4 CSMA-CA contention, collisions and all) and TDMA sequential
//!   collection (clock-offset transmissions in dedicated slots).
//! * [`testbed`] — the Figure 4 harness: one initiator, 12 participant
//!   motes, thresholds {2, 4, 6}, 100 runs per configuration with reboots
//!   between runs, and ground-truth error accounting (false negatives per
//!   group size — the paper's 102-out-of-7200 analysis).

pub mod network;
pub mod testbed;

pub use network::{FullStackReport, MoteNetwork, NetworkConfig};
pub use testbed::{run_testbed, ErrorStats, TestbedConfig, TestbedReport, TestbedRow};
