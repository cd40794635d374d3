//! What the two `sim.dynamic` workloads share: a default-configured engine
//! reporting into a registry of its own, spans around each call into it,
//! the cross-engine oracle and the layer's counts.

use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{Digest, Metrics};
use lg_asmap::AsId;
use lg_sim::{compute_routes, AnnouncementSpec, DynamicSim, DynamicSimConfig, Network};
use lg_telemetry::Registry;

/// Simulated time an op may take to quiesce.
const QUIESCE_DEADLINE_MS: u64 = 60 * 60_000;
/// ASes compared against the static fixed point per announcement checked.
const ORACLE_SAMPLE: usize = 64;
/// Ops whose simulated statistics feed the layer's counts: the same ops
/// on any host, so the counts repeat exactly.
const COUNTED_OPS: usize = 32;

/// The engine's registry counters the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynCounters {
    pub updates_sent: u64,
    pub mrai_deferrals: u64,
    pub loc_rib_changes: u64,
    pub updates_packed: u64,
    pub wire_bytes: u64,
    pub wire_bytes_unpacked: u64,
}

impl DynCounters {
    pub fn since(&self, earlier: &DynCounters) -> DynCounters {
        DynCounters {
            updates_sent: self.updates_sent - earlier.updates_sent,
            mrai_deferrals: self.mrai_deferrals - earlier.mrai_deferrals,
            loc_rib_changes: self.loc_rib_changes - earlier.loc_rib_changes,
            updates_packed: self.updates_packed - earlier.updates_packed,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            wire_bytes_unpacked: self.wire_bytes_unpacked - earlier.wire_bytes_unpacked,
        }
    }
}

pub struct Engine<'n> {
    pub net: &'n Network,
    pub sim: DynamicSim<'n>,
    registry: Registry,
    /// Per-op counter deltas and simulated convergence time (ms) of the
    /// first [`COUNTED_OPS`] ops.
    counted: Vec<(DynCounters, u64)>,
    /// Updates sent and timed wall ns over every op, for the per-update cost.
    updates_total: u64,
    wall_ns_total: u64,
}

impl<'n> Engine<'n> {
    /// A `DynamicSimConfig::default()` engine: what a default user gets.
    pub fn new(tr: &Tracer, net: &'n Network) -> Engine<'n> {
        let registry = Registry::new();
        let sim = tr.span("sim.dynamic.new", || {
            DynamicSim::with_registry(net, DynamicSimConfig::default(), &registry)
        });
        Engine {
            net,
            sim,
            registry,
            counted: Vec::new(),
            updates_total: 0,
            wall_ns_total: 0,
        }
    }

    pub fn announce(&mut self, tr: &Tracer, spec: &AnnouncementSpec) {
        tr.span("sim.dynamic.announce", || self.sim.announce(spec));
    }

    pub fn fail_link(&mut self, tr: &Tracer, a: AsId, b: AsId) {
        tr.span("sim.dynamic.fail_link", || self.sim.fail_link(a, b));
    }

    pub fn restore_link(&mut self, tr: &Tracer, a: AsId, b: AsId) {
        tr.span("sim.dynamic.restore_link", || self.sim.restore_link(a, b));
    }

    /// Run until nothing is pending; false when the deadline came first.
    pub fn quiesce(&mut self, tr: &Tracer) -> bool {
        let deadline = self.sim.now() + QUIESCE_DEADLINE_MS;
        tr.span("sim.dynamic.quiesce", || {
            // `quiescent()` is the check; the return value is not relied on.
            let _ = self.sim.run_until_quiescent(deadline);
        });
        self.sim.quiescent()
    }

    pub fn counters(&self) -> DynCounters {
        let snap = self.registry.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        DynCounters {
            updates_sent: c("dynamic.updates_sent"),
            mrai_deferrals: c("dynamic.mrai_deferrals"),
            loc_rib_changes: c("dynamic.loc_rib_changes"),
            updates_packed: c("dynamic.updates_packed"),
            wire_bytes: c("dynamic.wire_bytes"),
            wire_bytes_unpacked: c("dynamic.wire_bytes_unpacked"),
        }
    }

    /// The cross-engine oracle: for each announcement, a sample of ASes
    /// (a different one each op) must hold the next hop the static fixed
    /// point over `net` gives them. `net` is the engine's network with the
    /// links the op has failed removed.
    pub fn matches_static(
        &self,
        tr: &Tracer,
        net: &Network,
        op: u64,
        specs: &[&AnnouncementSpec],
    ) -> bool {
        tr.span("bench.oracle", || {
            let n = net.len();
            let stride = (n / ORACLE_SAMPLE).max(1);
            specs.iter().all(|spec| {
                let table = compute_routes(net, spec);
                (0..ORACLE_SAMPLE.min(n)).all(|k| {
                    let a = AsId(((op as usize + k * stride) % n) as u32);
                    a == spec.origin
                        || self.sim.loc_route(a, spec.prefix).map(|r| r.learned_from)
                            == table.next_hop(a)
                })
            })
        })
    }

    /// Book one finished op: `delta` is what the counters moved by,
    /// `sim_ms` the simulated time it took, `wall_ns` its timed wall time.
    /// Folds the op's simulated statistics into `digest`.
    pub fn finish_op(
        &mut self,
        digest: &mut Digest,
        delta: DynCounters,
        sim_ms: u64,
        wall_ns: u64,
    ) {
        for v in [
            sim_ms,
            delta.updates_sent,
            delta.mrai_deferrals,
            delta.loc_rib_changes,
            delta.updates_packed,
            delta.wire_bytes,
        ] {
            digest.add(v);
        }
        if self.counted.len() < COUNTED_OPS {
            self.counted.push((delta, sim_ms));
        }
        self.updates_total += delta.updates_sent;
        self.wall_ns_total += wall_ns;
    }

    /// Forget the ops booked so far (warm-up).
    pub fn reset_ops(&mut self) {
        self.counted.clear();
        self.updates_total = 0;
        self.wall_ns_total = 0;
    }

    /// The layer's counts, by declared metric name.
    pub fn layers(&self, out: &mut Metrics) {
        let n = self.counted.len().max(1) as f64;
        let per_op = |f: fn(&DynCounters) -> u64| {
            self.counted.iter().map(|(c, _)| f(c)).sum::<u64>() as f64 / n
        };
        out.insert("dynamic.updates_per_op", per_op(|c| c.updates_sent));
        out.insert(
            "dynamic.mrai_deferrals_per_op",
            per_op(|c| c.mrai_deferrals),
        );
        out.insert(
            "dynamic.loc_rib_changes_per_op",
            per_op(|c| c.loc_rib_changes),
        );
        out.insert(
            "packing.updates_packed_per_op",
            per_op(|c| c.updates_packed),
        );
        out.insert("packing.wire_bytes_per_op", per_op(|c| c.wire_bytes));
        let unpacked = per_op(|c| c.wire_bytes_unpacked);
        out.insert(
            "packing.pack_ratio",
            if unpacked > 0.0 {
                per_op(|c| c.wire_bytes) / unpacked
            } else {
                0.0
            },
        );
        let sim_ms: Vec<f64> = self.counted.iter().map(|(_, ms)| *ms as f64).collect();
        out.insert("dynamic.sim_convergence_ms_p50", stats::median_of(&sim_ms));
        out.insert(
            "dynamic.us_per_update",
            self.wall_ns_total as f64 / 1e3 / self.updates_total.max(1) as f64,
        );
        out.insert("dynamic.loc_entries", self.sim.loc_entries() as f64);
        out.insert("dynamic.adj_entries", self.sim.adj_entries() as f64);
        out.insert(
            "dynamic.out_state_entries",
            self.sim.out_state_entries() as f64,
        );
        out.insert("bgp.interned_paths", self.sim.interned_paths() as f64);
    }
}
