//! # tcast-suite — umbrella crate
//!
//! Re-exports the whole workspace for the runnable examples (`examples/`)
//! and the cross-crate integration tests (`tests/`). Library users should
//! depend on the individual crates (`tcast`, `tcast-motes`, ...) directly.

pub use tcast;
pub use tcast_experiments;
pub use tcast_motes;
pub use tcast_stats;
