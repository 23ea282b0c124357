//! Receiver-side collision detection (RCD) primitives.
//!
//! The two single-hop feedback primitives the paper builds on, implemented
//! over the simulated CC2420 PHY:
//!
//! * **pollcast** (Demirbas et al., INFOCOM'08): the initiator broadcasts a
//!   predicate poll; every positive node replies simultaneously and the
//!   initiator detects *channel activity* (CCA energy). Collisions carry
//!   information. Because the replies are ordinary frames, the capture
//!   effect sometimes lets the initiator decode one of them — making
//!   pollcast the natural **2+** primitive.
//! * **backcast** (Dutta et al., HotNets'08): a three-phase exchange. The
//!   initiator announces an ephemeral 16-bit identifier plus the queried
//!   group; positive group members program the identifier into their
//!   radio's hardware address; the initiator then polls that address with
//!   the acknowledgement-request flag set, and all matching radios emit
//!   *identical hardware ACKs* that superpose non-destructively. The
//!   initiator concludes "non-empty" only when it decodes the HACK, so
//!   interference can cause false negatives but never false positives —
//!   the **1+** primitive with strong robustness.
//!
//! [`RcdChannel`] adapts either primitive to the `tcast`
//! [`GroupQueryChannel`](tcast::GroupQueryChannel) trait, so every
//! threshold-querying algorithm runs unmodified over the full PHY.

mod channel;
mod stack;

pub use channel::{Primitive, RcdChannel};
pub use stack::{GroupQueryStats, InterferenceSpec, RcdConfig, RcdOutcome, RcdStack};
