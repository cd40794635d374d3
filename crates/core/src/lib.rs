//! LIFEGUARD: Locating Internet Failures Effectively and Generating Usable
//! Alternate Routes Dynamically.
//!
//! The system the paper deploys (and this workspace reproduces): an edge
//! network's automatic repair loop for persistent partial outages.
//!
//! * **Monitor** (§4.1): ping monitored destinations every 30 s; four
//!   consecutive failed pairs (90 s) flag an outage.
//! * **Locate** (§4.1): run the `lg-locate` isolation pipeline against the
//!   background atlas to find the failing direction and the culprit AS or
//!   link.
//! * **Decide** (§4.2): outages that have survived detection + isolation
//!   are statistically likely to persist; predict *a priori* (by simulating
//!   the poisoned announcement over the known topology) whether alternate
//!   policy-compliant paths exist, and skip poisoning when they do not.
//! * **Repair** (§3.1): re-announce the production prefix as `O-A-O`
//!   (equal length and next hop as the steady-state `O-O-O` baseline, so
//!   unaffected routes reconverge instantly), selectively poisoning per
//!   provider when the blame is an AS link and the topology permits
//!   (§3.1.2), while a sentinel less-specific keeps captive ASes reachable
//!   and gives the system a probe path that still crosses the poisoned AS.
//! * **Unpoison** (§4.2): pings sourced from the sentinel's unused address
//!   space detect when the underlying failure heals; the baseline
//!   announcement is then restored.

pub mod config;
pub mod decide;
pub mod events;
pub mod system;
pub mod world;

pub use config::LifeguardConfig;
pub use decide::{plan_repair, RepairPlan};
pub use events::{Event, EventKind};
pub use system::{Lifeguard, TargetState};
pub use world::World;
