//! BGP protocol substrate for the LIFEGUARD reproduction.
//!
//! This crate contains what a single BGP speaker needs, independent of any
//! particular simulation engine: CIDR prefixes with longest-prefix-match
//! semantics (the sentinel less-specific mechanism depends on LPM), AS paths
//! with prepending and poison insertion, the decision process's preference
//! order (local-preference by business relationship, then path length, then
//! deterministic tiebreaks; see [`decision`] — each engine applies it to
//! its own route store), loop detection with a configurable max-occurrence
//! threshold (§7.1: some ASes accept one occurrence of their own ASN and
//! only reject at two), import policies including the Cogent-style "reject
//! customer updates naming my peers" filter, and an RFC 4271 encoder for
//! UPDATE messages with 4-octet ASNs (the dynamic engine's UPDATE packer
//! sizes its messages with it).

pub mod decision;
pub mod hash;
pub mod path;
pub mod policy;
pub mod prefix;
pub mod prefix_id;
pub mod route;
pub mod trie;
pub mod wire;

pub use hash::IdHashMap;
pub use path::{AsPath, PathId, PathInterner};
pub use policy::{is_reserved_asn, ImportPolicy, LoopDetection, RejectReason};
pub use prefix::Prefix;
pub use prefix_id::{interned_prefix_count, PrefixId, PrefixInterner};
pub use route::Route;
pub use trie::PrefixTrie;
