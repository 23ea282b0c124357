//! 802.15.4 / CC2420-like PHY substrate.
//!
//! The physical layer under the mote experiments, modelled after the
//! hardware the paper used (TelosB motes, CC2420 radios, 250 kbps O-QPSK
//! 802.15.4):
//!
//! * frames — 802.15.4-style MPDUs with a 16-bit CRC (FCS), hardware
//!   acknowledgement frames, and on-air timing (32 µs/byte, 192 µs rx/tx
//!   turnaround);
//! * units — dBm/milliwatt arithmetic;
//! * the medium — the shared channel: log-distance path loss with static
//!   per-link shadowing, per-frame fading, SINR-based reception with
//!   capture, CCA, and — crucially for backcast — **non-destructive
//!   superposition of identical simultaneous frames** (hardware ACKs with
//!   the same sequence number add power instead of colliding);
//! * the device — the CC2420-like MAC-assist layer: 16-bit short-address
//!   recognition and automatic hardware acknowledgements (HACKs), which
//!   backcast abuses as its collision-tolerant "yes" signal.
//!
//! The medium is event-driven but kernel-agnostic: callers (the MAC and
//! mote layers) schedule `tx end` instants on a [`sim`](crate::sim) queue
//! and ask the medium for reception outcomes when they fire.

mod device;
mod frame;
mod medium;
mod units;

pub(crate) use device::RadioDevice;
pub use frame::{Frame, FrameError, FrameType, ShortAddr};
pub(crate) use frame::{BROADCAST_ADDR, TURNAROUND};
pub use medium::MediumConfig;
pub(crate) use medium::{Medium, TxId};
