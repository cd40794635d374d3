//! Workload generation for the LIFEGUARD reproduction.
//!
//! The paper's distributional inputs come from two measurement campaigns we
//! cannot re-run: the EC2 outage study (§2.1, Figs 1 and 5) and the Hubble
//! outage dataset used to extrapolate poisoning load (§5.4, Table 2). This
//! crate substitutes calibrated synthetic equivalents:
//!
//! * [`outages`] — a heavy-tailed outage-duration generator (lognormal
//!   body + truncated-Pareto tail, floored at the study's 90 s detection
//!   minimum) whose statistics match the paper's published anchors: median
//!   90 s, >90% of outages at most 10 min, ~84% of total unavailability
//!   from outages over 10 min, 51% of over-5-min outages persisting 5 more
//!   minutes.
//! * [`harvest`] — poisoning-target harvesting: the transit ASes appearing
//!   on observed paths toward a prefix, minus the untouchables (tier-1s,
//!   the origin's sole upstream), as in §5's BGP-Mux experiments.
//! * [`scenarios`] — ground-truth failure scenario generation for the
//!   isolation-accuracy and alternate-path studies (failure element, kind,
//!   and direction drawn to match the paper's cited breakdowns).
//! * [`churn`] — randomized, seeded control-plane churn schedules
//!   (announce / withdraw / fail / restore / advance) used by the
//!   dynamic-engine churn invariants and the dense-churn benchmarks.
//! * [`filters`] — the named filter-deployment matrix (Smith et al.'s
//!   path-length caps, core poison drops, stub defaults) the differential
//!   harnesses sweep and the feasibility reruns calibrate against; it lives
//!   in `lg-sim`, whose own differential tests sweep it too, and is
//!   re-exported here.

pub mod arrivals;
pub mod churn;
pub mod harvest;
pub mod outages;
pub mod scenarios;

pub use arrivals::{ArrivalsConfig, OutageArrival};
pub use churn::{
    churn_prefixes, prefix_count_from_env, ChurnConfig, ChurnOp, ChurnRunner, ChurnWorld,
};
pub use harvest::harvest_poison_targets;
pub use lg_sim::filters::{self, FilterMatrix};
pub use outages::{OutageStats, OutageTrace, OutageTraceConfig};
pub use scenarios::{FailureScenario, ScenarioGen, ScenarioKind};
