//! LIFEGUARD reproduction — umbrella crate.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! one coherent namespace. See `README.md` for the tour and `DESIGN.md` for
//! the paper-to-module mapping.

pub mod scenario;

/// The workspace's one JSON value model (lives in `lg-telemetry` so the
/// `paper` runner can reach it too).
pub use lg_telemetry::json;

pub use lg_asmap as asmap;
pub use lg_atlas as atlas;
pub use lg_bgp as bgp;
pub use lg_locate as locate;
pub use lg_probe as probe;
pub use lg_sim as sim;
pub use lg_workloads as workloads;
pub use lifeguard_core as lifeguard;
