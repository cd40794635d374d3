//! Cross-crate observability for the LIFEGUARD workspace.
//!
//! Every performance-critical subsystem (the memoized compute layer, the
//! shared route cache, the dynamic BGP engine, the prober, the core repair
//! loop) reports into a [`Registry`] of named metrics:
//!
//! * [`Counter`] — monotone `u64`, one relaxed atomic add per event;
//! * [`Gauge`] — last-written `u64` (entry counts, sizes);
//! * [`Histogram`] — log2-bucketed distribution with exact count/sum,
//!   cheap enough for per-operation latencies (one atomic add per bucket
//!   hit plus two for count/sum).
//!
//! Metrics are cheap enough to leave on: the hot path touches only
//! pre-resolved handles (an `Arc<AtomicU64>` or the bucket array), never
//! the registry map. Instrumented components resolve their handles once at
//! construction (or lazily through a `OnceLock`) and bump them thereafter.
//!
//! There is one process-wide registry at [`global()`]; components also
//! accept an explicit `&Registry` so tests can observe an isolated scope
//! without cross-test interference.
//!
//! A [`TelemetrySnapshot`] freezes the registry into a sorted
//! name → value list that serializes to JSON (`telemetry.json` run
//! reports) or renders as a human-readable table, and supports diffing two
//! snapshots (`since`) to meter a region of a run.
//!
//! Naming scheme (see DESIGN.md § Observability): dotted lowercase paths,
//! `<subsystem>.<event>[.<detail>]`; histogram names carry their unit as a
//! suffix (`_us` wall micros, `_ms` simulated millis).
//!
//! Beyond aggregates, the [`trace`] module is a causal flight recorder —
//! per-thread ring buffers of span/instant/annotation events
//! keyed by a per-incident [`trace::TraceId`], exportable as a
//! Chrome/Perfetto `trace.json` — and [`timeseries`] periodically diffs
//! snapshots into per-metric sample rings rendered as Prometheus text
//! exposition (the /metrics surface). A binary is asked for these files
//! through the three flags of [`Artifacts`], and everything is written
//! atomically ([`atomic_write`]: temp + rename) so a killed run never
//! leaves a truncated artifact. [`json`] is the workspace's one JSON value
//! model: scenario files, receipts and artifact checks all go through it.

mod artifacts;
pub mod json;
mod metrics;
mod registry;
mod snapshot;
pub mod timeseries;
pub mod trace;

pub use artifacts::Artifacts;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Span};
pub use registry::{global, Registry};
pub use snapshot::{atomic_write, record_host_facts, MetricValue, TelemetrySnapshot};
pub use timeseries::{global_timeseries, sample_global_timeseries, TimeSeries};
pub use trace::TraceId;
