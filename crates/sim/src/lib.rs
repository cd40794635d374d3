//! AS-level Internet simulation for the LIFEGUARD reproduction.
//!
//! The paper's experiments run against the live Internet; this crate supplies
//! the substitute: a policy-faithful BGP world with two engines over one
//! network model.
//!
//! * [`static_routes`] computes the routing fixed point (Gao-Rexford
//!   local-preference, shortest path, deterministic tiebreaks, loop
//!   detection, per-neighbor announcement variants) — used for the
//!   large-scale availability and poisoning-efficacy studies (§2.2, §5.1),
//!   exactly as the paper's own simulation methodology does.
//! * [`compute`] layers generation-keyed memoization over the static
//!   engine — the evaluation workloads compute hundreds of what-if tables
//!   over one network and should not pay for the same fixed point twice.
//! * [`dynamic`] is an event-driven message-level BGP engine with MRAI
//!   timers, used for the convergence and disruption studies (Fig 6, §5.2,
//!   Table 2's per-router update counts).
//!
//! [`dataplane`] forwards packets hop-by-hop over either engine's tables with
//! longest-prefix match (so sentinel less-specifics behave correctly) and
//! injects failures — including the *silent* failures at the heart of the
//! paper: elements that keep announcing routes but drop packets, possibly in
//! only one direction, toward only some destinations, or only for traffic
//! entering over a particular adjacency.

pub mod announce;
pub mod compute;
pub mod dataplane;
pub mod dynamic;
pub mod failures;
pub mod filters;
pub mod network;
pub(crate) mod packing;
pub mod static_routes;
pub mod time;

pub use announce::AnnouncementSpec;
pub use compute::SharedRouteCache;
pub use dataplane::{DataPlane, Fib, Walk, WalkOutcome};
pub use dynamic::{DynamicSim, DynamicSimConfig, PrefixMetrics, UpdateRecord};
pub use failures::{Direction, Failure, FailureSet, NetElement};
pub use filters::FilterMatrix;
pub use network::{DirtyScope, MutationRecord, Network};
pub use static_routes::{compute_routes, effective_path, RouteTable};
pub use time::{Time, TimerWheel};
