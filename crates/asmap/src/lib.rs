//! AS-level Internet topology substrate for the LIFEGUARD reproduction.
//!
//! This crate models the inter-domain structure that every other layer builds
//! on: autonomous-system identifiers, business relationships (customer /
//! provider / peer), the AS-level graph, synthetic Internet-like topology
//! generation, the Gao-Rexford valley-free export policy, the "three-tuple"
//! observed-subpath policy test used by the paper in §2.2 and §5.1, and the
//! IP-level path-splicing search used to establish that policy-compliant
//! alternate paths exist during failures.
//!
//! The paper measured the real Internet topology (UCLA/iPlane BGP feeds plus
//! BitTorrent-extended traceroutes). We substitute one calibrated generator
//! that reproduces the statistical features the experiments depend on: a
//! tier-1 clique, a multi-tier transit hierarchy with preferential attachment,
//! multi-homed stubs, and peering edges between same-tier networks.

pub mod filters;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod policy;
pub mod relationship;
pub mod splice;

pub use filters::{assign_filters, FilterAssignment, FilterDeployment};
pub use gen::TopologyConfig;
pub use graph::{next_generation, AsGraph, GraphBuilder};
pub use ids::{AsId, RouterId};
pub use policy::{is_valley_free, TripleSet};
pub use relationship::Relationship;
pub use splice::{splice_alternate_path, SpliceInput, SplicedPath};
