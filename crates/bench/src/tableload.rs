//! Full-table update load: the prefix-count scaling axis.
//!
//! The paper's vantage points carry full BGP tables (hundreds of
//! thousands of prefixes), while most of the reproduction's experiments
//! drive one. This bench scales the *prefix count* over the calibrated
//! 10k-AS topology — 1k and 10k prefixes always, 100k with
//! `paper --full` — and measures where full tables actually bite:
//! per-update table costs and memory, not propagation volume.
//!
//! Each point runs four phases on a fresh simulator over the shared
//! topology:
//!
//! 1. **Cohort converge** — a fixed-size cohort (32 prefixes) is
//!    announced and driven to quiescence one at a time: real propagation
//!    dynamics, constant cost across points, so every later phase runs
//!    against nodes with populated RIBs.
//! 2. **Bulk announce** — the remaining `p − cohort` prefixes are
//!    announced back-to-back with no drain. This exercises the
//!    prefix-interning, LPM-trie insert, Loc-RIB install, and
//!    out-queue `state_entry` paths at full table size.
//! 3. **Bulk flap** — every bulk prefix is re-announced with a prepended
//!    path: the duplicate-suppression and out-state lookup now probe a
//!    table of `p` entries per peer, the exact spot the old linear scans
//!    made quadratic.
//! 4. **Bulk withdraw** — every bulk prefix is withdrawn, hitting
//!    `remove_prefix` (formerly a full-ring retain scan per call).
//!
//! Propagation of the bulk wave is deliberately *not* drained: a full
//! table crossing a 10k-AS graph is Θ(p·E) events — linear in `p` and
//! hours of wall clock at 100k — and would only measure event volume,
//! which `paper sec54` already curves. What must stay flat is the
//! *per-update* cost; the no-drain phases isolate it. (Seeded sends all
//! land on one tick, so the wire-packing accountant also sees its
//! best case here: per-provider groups of thousands of prefixes folded
//! into `MAX_MESSAGE_LEN`-bounded UPDATEs.)
//!
//! Memory is read off the engine's own diagnostics. The shared
//! [`lg_bgp::PathInterner`] arena is the headline: every prefix from one
//! origin reuses the same handful of path nodes, so `interned_paths`
//! must stay flat while the prefix count grows 10–100×.

use std::time::Instant;

use crate::report::{Report, Table};
use lg_bgp::Prefix;
use lg_sim::{AnnouncementSpec, DynamicSim, DynamicSimConfig, Network, Time};
use lg_telemetry::Registry;
use lg_workloads::churn::churn_network;

/// Prefixes the cohort drives to full convergence per point. Constant
/// across sizes so the converged baseline costs the same everywhere.
pub const COHORT: usize = 32;

/// The bench table's sizes: 1k/10k always; 100k with `paper --full` (it
/// is minutes of wall clock and a few GiB of queue, so CI runs it only on
/// demand).
pub fn table_load_sizes(full: bool) -> Vec<usize> {
    let mut sizes = vec![1_000, 10_000];
    if full {
        sizes.push(100_000);
    }
    sizes
}

/// The `i`-th table prefix: disjoint /22s well clear of the
/// 184.164.224.0/20 churn pool and the infrastructure /16s.
pub fn table_prefix(i: u32) -> Prefix {
    Prefix::new(0x2000_0000 + (i << 10), 22)
}

/// One point on the full-table load curve.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableLoadPoint {
    /// Installed prefix count.
    pub prefixes: usize,
    /// Prefixes driven to quiescence (min(COHORT, prefixes)).
    pub cohort: usize,
    /// Cohort announce + converge wall time.
    pub cohort_ms: f64,
    /// Bulk announce wall time (no drain).
    pub bulk_announce_ms: f64,
    /// Bulk re-announce (path flap) wall time against the full table.
    pub bulk_flap_ms: f64,
    /// Bulk withdraw wall time against the full table.
    pub bulk_withdraw_ms: f64,
    /// Total Loc-RIB entries at the end of the run.
    pub loc_entries: usize,
    /// Total Adj-RIB-In entries at the end of the run.
    pub adj_entries: usize,
    /// Total per-(peer, prefix) out-queue state entries.
    pub out_state_entries: usize,
    /// Events still queued when the run stops (the undrained bulk wave).
    pub pending_events: usize,
    /// Path-interner arena nodes — must stay flat across prefix counts.
    pub interned_paths: usize,
    /// Process-wide interned prefixes after the run (monotone across
    /// points; the global interner is never dropped).
    pub interned_prefixes: usize,
    /// UPDATEs sent (per-prefix, pre-packing).
    pub updates_sent: u64,
    /// Emissions coalesced into an already-open wire UPDATE.
    pub updates_packed: u64,
    /// Wire UPDATE messages after packing.
    pub wire_updates: u64,
    /// Wire bytes after packing.
    pub wire_bytes: u64,
    /// Wire bytes had every emission gone out unpacked.
    pub wire_bytes_unpacked: u64,
}

impl TableLoadPoint {
    /// The prefix-count-dependent wall time: everything except the
    /// constant-size cohort. This is the column the sub-quadratic check
    /// compares across sizes.
    pub fn bulk_ms(&self) -> f64 {
        self.bulk_announce_ms + self.bulk_flap_ms + self.bulk_withdraw_ms
    }
}

/// Run the curve over the calibrated 10k-AS topology.
pub fn run_table_load(sizes: &[usize], seed: u64) -> Vec<TableLoadPoint> {
    let net = churn_network(10_000, seed);
    run_table_load_on(&net, sizes, COHORT)
}

/// Run the curve over an arbitrary network (tests use a small one).
pub fn run_table_load_on(net: &Network, sizes: &[usize], cohort_cap: usize) -> Vec<TableLoadPoint> {
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
        .expect("topology has stubs");

    sizes
        .iter()
        .map(|&p| {
            let reg = Registry::new();
            let mut sim = DynamicSim::with_registry(net, DynamicSimConfig::default(), &reg);
            let cohort = cohort_cap.min(p);

            let t0 = Instant::now();
            for i in 0..cohort {
                sim.announce(&AnnouncementSpec::plain(
                    net,
                    table_prefix(i as u32),
                    origin,
                ));
                sim.run_until_quiescent(sim.now() + Time::from_mins(30).millis());
                assert!(sim.quiescent(), "cohort prefix {i} did not quiesce");
            }
            let cohort_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            for i in cohort..p {
                sim.announce(&AnnouncementSpec::plain(
                    net,
                    table_prefix(i as u32),
                    origin,
                ));
            }
            let bulk_announce_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            for i in cohort..p {
                sim.announce(&AnnouncementSpec::prepended(
                    net,
                    table_prefix(i as u32),
                    origin,
                    3,
                ));
            }
            let bulk_flap_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            for i in cohort..p {
                sim.withdraw(table_prefix(i as u32));
            }
            let bulk_withdraw_ms = t0.elapsed().as_secs_f64() * 1e3;

            // Nothing is due yet (seeded sends land one link latency out),
            // so this drains no events — it only flushes the packer so the
            // wire counters cover the bulk tick.
            sim.run_until(sim.now());

            let snap = reg.snapshot();
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            TableLoadPoint {
                prefixes: p,
                cohort,
                cohort_ms,
                bulk_announce_ms,
                bulk_flap_ms,
                bulk_withdraw_ms,
                loc_entries: sim.loc_entries(),
                adj_entries: sim.adj_entries(),
                out_state_entries: sim.out_state_entries(),
                pending_events: sim.pending_events(),
                interned_paths: sim.interned_paths(),
                interned_prefixes: lg_bgp::interned_prefix_count(),
                updates_sent: counter("dynamic.updates_sent"),
                updates_packed: counter("dynamic.updates_packed"),
                wire_updates: counter("dynamic.wire_updates"),
                wire_bytes: counter("dynamic.wire_bytes"),
                wire_bytes_unpacked: counter("dynamic.wire_bytes_unpacked"),
            }
        })
        .collect()
}

/// The printable full-table load curve.
pub fn table_load_table(points: &[TableLoadPoint]) -> Table {
    let mut t = Table::new(
        "Full-table update load (calibrated 10k-AS topology)",
        &[
            "prefixes",
            "cohort ms",
            "announce ms",
            "flap ms",
            "withdraw ms",
            "loc",
            "out-state",
            "arena",
            "packed",
            "wire msgs",
            "wire KiB",
            "unpacked KiB",
        ],
    );
    for p in points {
        t.row(&[
            p.prefixes.to_string(),
            format!("{:.1}", p.cohort_ms),
            format!("{:.1}", p.bulk_announce_ms),
            format!("{:.1}", p.bulk_flap_ms),
            format!("{:.1}", p.bulk_withdraw_ms),
            p.loc_entries.to_string(),
            p.out_state_entries.to_string(),
            p.interned_paths.to_string(),
            p.updates_packed.to_string(),
            p.wire_updates.to_string(),
            format!("{}", p.wire_bytes / 1024),
            format!("{}", p.wire_bytes_unpacked / 1024),
        ]);
    }
    t
}

/// Record the curve under `tableload.<i>.<field>`: table sizes and the
/// engine's own counters as numbers, wall clocks as timings.
pub fn table_load_numbers(points: &[TableLoadPoint], r: &mut Report) {
    for (i, p) in points.iter().enumerate() {
        let counts = [
            ("prefixes", p.prefixes as u64),
            ("cohort", p.cohort as u64),
            ("loc_entries", p.loc_entries as u64),
            ("adj_entries", p.adj_entries as u64),
            ("out_state_entries", p.out_state_entries as u64),
            ("pending_events", p.pending_events as u64),
            ("interned_paths", p.interned_paths as u64),
            ("interned_prefixes", p.interned_prefixes as u64),
            ("updates_sent", p.updates_sent),
            ("updates_packed", p.updates_packed),
            ("wire_updates", p.wire_updates),
            ("wire_bytes", p.wire_bytes),
            ("wire_bytes_unpacked", p.wire_bytes_unpacked),
        ];
        r.numbers(
            &format!("tableload.{i}"),
            &counts.map(|(f, v)| (f, v as f64)),
        );
        let clocks = [
            ("cohort_ms", p.cohort_ms),
            ("bulk_announce_ms", p.bulk_announce_ms),
            ("bulk_flap_ms", p.bulk_flap_ms),
            ("bulk_withdraw_ms", p.bulk_withdraw_ms),
            ("bulk_ms", p.bulk_ms()),
        ];
        r.timings(&format!("tableload.{i}"), &clocks);
    }
}

/// Bulk (table-size-dependent) wall-clock growth first → last point, and
/// what quadratic growth in the prefix count would have been. The cohort
/// phase is constant-size and excluded.
pub fn table_load_growth(points: &[TableLoadPoint]) -> (f64, f64) {
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let growth = last.bulk_ms() / first.bulk_ms().max(1e-6);
    (
        growth,
        (last.prefixes as f64 / first.prefixes as f64).powi(2),
    )
}

/// The load curve's shape. `span` is `(first size, least last size)` the
/// curve must cover — `(1000, 10000)` for the paper run.
pub fn table_load_checks(points: &[TableLoadPoint], span: (usize, usize), r: &mut Report) {
    let ns: Vec<usize> = points.iter().map(|p| p.prefixes).collect();
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let at = |bad: fn(&TableLoadPoint) -> bool| -> Vec<usize> {
        points
            .iter()
            .filter(|p| bad(p))
            .map(|p| p.prefixes)
            .collect()
    };
    let increasing = ns.windows(2).all(|w| w[0] < w[1]);
    r.check("tableload_sizes_increasing", increasing, format!("{ns:?}"));
    let spans = ns[0] == span.0 && ns[ns.len() - 1] >= span.1;
    r.check(
        "tableload_spans_sizes",
        spans,
        format!("{ns:?} vs {span:?}"),
    );
    let (growth, quad) = table_load_growth(points);
    let detail = format!("{growth:.1}x vs {quad:.0}x bound");
    r.check("tableload_bulk_subquadratic", growth < quad, detail);
    // Every prefix from one origin reuses the same handful of path nodes.
    let flat = last.interned_paths <= 2 * first.interned_paths;
    let detail = format!("{} -> {} paths", first.interned_paths, last.interned_paths);
    r.check("tableload_arena_flat", flat, detail);
    let lost = at(|p| p.out_state_entries < p.prefixes - p.cohort);
    let detail = format!("out_state_entries < prefixes - cohort at {lost:?}");
    r.check("tableload_out_state_covers_table", lost.is_empty(), detail);
    let idle = at(|p| p.updates_packed == 0 || p.wire_updates == 0);
    let detail = format!("UPDATE packing never engaged at {idle:?}");
    r.check("tableload_packing_engaged", idle.is_empty(), detail);
    let unsaved = at(|p| p.wire_bytes >= p.wire_bytes_unpacked);
    let detail = format!("wire_bytes >= unpacked at {unsaved:?}");
    r.check("tableload_packing_saves_bytes", unsaved.is_empty(), detail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_workloads::churn::churn_network;

    #[test]
    fn table_load_curve_runs_and_serializes() {
        // Test-sized: a 64-AS world and a 64→256 prefix sweep; `paper
        // tableload` runs the real 1k/10k curve on calibrated-10k.
        let net = churn_network(64, 9);
        let points = run_table_load_on(&net, &[64, 256], 8);
        assert_eq!(points.len(), 2);
        assert!(points.windows(2).all(|w| w[0].prefixes < w[1].prefixes));
        let (a, b) = (&points[0], &points[1]);

        for p in &points {
            assert_eq!(p.cohort, 8);
            assert!(p.bulk_ms() > 0.0);
            // The cohort converged; its routes are in Loc-RIBs. The bulk
            // prefixes were withdrawn at the origin, so Loc-RIB size is
            // cohort-dominated, while out-queue state and the pending wave
            // scale with the table.
            assert!(p.loc_entries >= p.cohort);
            assert!(p.adj_entries > 0);
            assert!(p.out_state_entries >= p.prefixes - p.cohort);
            assert!(p.pending_events > 0, "bulk wave should still be queued");
            // Packing must have engaged: the bulk tick coalesces thousands
            // of same-path emissions into MAX_MESSAGE_LEN-bounded UPDATEs.
            assert!(p.updates_packed > 0);
            assert!(p.wire_updates > 0);
            assert!(
                p.wire_bytes < p.wire_bytes_unpacked,
                "packed wire bytes must beat unpacked"
            );
        }

        // The whole point: the path arena is shared across prefixes, so a
        // 4x table must not move it (same origin, same seed paths).
        assert_eq!(
            a.interned_paths, b.interned_paths,
            "path arena grew with prefix count — prefixes are not sharing \
             the interner"
        );
        // Table-size-proportional state must actually grow with the table.
        assert!(b.out_state_entries > a.out_state_entries);
        assert!(b.updates_sent > a.updates_sent);

        let mut report = Report::default();
        table_load_numbers(&points, &mut report);
        let json = crate::paper::receipt(&[], &[("tableload", report)]).to_string();
        assert_eq!(json.matches("bulk_ms\"").count(), 2);
        assert_eq!(json.matches("interned_paths\"").count(), 2);
        assert!(json.contains("\"tableload.1.prefixes\":256"), "{json}");
    }
}
