//! Experiments beyond the paper's figures: the future-work and
//! design-space studies DESIGN.md commits to.
//!
//! | module | study |
//! |--------|-------|
//! | [`interference`] | backcast vs pollcast under neighboring-region traffic (Section III-B's claims, the paper's stated future work) |
//! | [`counting`] | exact counting (countcast) vs threshold querying cost |
//! | [`monitoring`] | warm-started epoch monitoring vs cold-start ABNS |
//! | [`energy`] | time & energy of tcast vs full-stack CSMA/TDMA collection |
//! | [`ablations`] | the design choices of DESIGN.md §3: capture, CSMA quiet window, p0, variants, probe |

pub mod ablations;
pub mod counting;
pub mod energy;
pub mod interference;
pub mod monitoring;
