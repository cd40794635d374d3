//! §5.4 Scalability: atlas refresh economics, isolation cost, and the
//! control-plane size curve.
//!
//! The paper reports the path atlas refreshing 225 reverse paths per minute
//! on average (502 peak) at an amortized ~10 IP-option probes per path
//! (versus 35 from scratch) plus ~2 forward traceroutes, and isolation
//! completing in ~140 s with ~280 probes. The refresh side is reproduced by
//! running the scheduler over a monitored mesh and accounting probes; the
//! isolation side comes from the §5.3 study.
//!
//! The size curve extends the study to Internet scale: calibrated
//! topologies from 1k to 75k ASes through generation, `Network`
//! preprocessing, and the frontier fixed point, with memory budgets read
//! off the CSR layout and the engine's own counters. [`scale_checks`]
//! asserts the fixed-point curve grows sub-quadratically in the AS count
//! and that the engine's memory counters stay within their budgets.

use std::time::Instant;

use crate::report::{Report, Table};
use crate::worlds::{mesh_world, MeshWorld};
use lg_asmap::TopologyConfig;
use lg_atlas::{Atlas, RefreshScheduler, RefreshStats, ResponsivenessDb};
use lg_probe::Prober;
use lg_sim::dataplane::DataPlane;
use lg_sim::static_routes::compute_routes_reference;
use lg_sim::{AnnouncementSpec, Network, Time};

/// Outcome of the refresh study.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshEconomics {
    /// Monitored (vantage, destination) pairs.
    pub pairs: usize,
    /// Refresh rounds executed.
    pub rounds: usize,
    /// Total paths refreshed.
    pub paths_refreshed: u64,
    /// Cumulative refresh statistics.
    pub stats: RefreshStats,
    /// Amortized option probes per reverse path in the steady state
    /// (rounds after the first).
    pub steady_state_probes_per_path: f64,
    /// Option probes per reverse path in the cold first round.
    pub cold_probes_per_path: f64,
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Topology.
    pub topo: TopologyConfig,
    /// Vantage sites.
    pub vantages: usize,
    /// Destinations monitored per vantage.
    pub destinations: usize,
    /// Refresh rounds.
    pub rounds: usize,
}

impl RefreshConfig {
    /// Bench-sized.
    pub fn standard(seed: u64) -> Self {
        RefreshConfig {
            topo: TopologyConfig::calibrated(1_000, seed),
            vantages: 10,
            destinations: 60,
            rounds: 8,
        }
    }

    /// Test-sized.
    pub fn tiny(seed: u64) -> Self {
        RefreshConfig {
            topo: TopologyConfig::calibrated(64, seed),
            vantages: 4,
            destinations: 10,
            rounds: 4,
        }
    }
}

/// Run the refresh study.
pub fn run_refresh(cfg: &RefreshConfig) -> RefreshEconomics {
    let MeshWorld { net, sites } = mesh_world(&cfg.topo, cfg.vantages);
    let dp = DataPlane::new(&net);
    let mut prober = Prober::with_defaults();
    let mut atlas = Atlas::default();
    let mut resp = ResponsivenessDb::new();

    // Each vantage monitors a slice of destinations spread over the graph.
    let all: Vec<_> = net.graph().ases().collect();
    let mut pairs = Vec::new();
    for (vi, v) in sites.iter().enumerate() {
        for di in 0..cfg.destinations {
            let d = all[(vi * 97 + di * 13) % all.len()];
            if d != *v {
                pairs.push((*v, d));
            }
        }
    }
    let n_pairs = pairs.len();
    let mut sched = RefreshScheduler::new(pairs, 60_000);

    let mut out = RefreshEconomics {
        pairs: n_pairs,
        rounds: cfg.rounds,
        ..RefreshEconomics::default()
    };
    let mut cold = RefreshStats::default();
    for round in 0..cfg.rounds {
        let t = Time(round as u64 * 60_000);
        out.paths_refreshed += sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, t);
        if round == 0 {
            cold = sched.stats();
        }
    }
    out.stats = sched.stats();
    out.cold_probes_per_path = cold.option_probes_per_path();
    let steady_paths = out.stats.reverse_paths - cold.reverse_paths;
    let steady_probes = out.stats.option_probes - cold.option_probes;
    out.steady_state_probes_per_path = if steady_paths == 0 {
        0.0
    } else {
        steady_probes as f64 / steady_paths as f64
    };
    out
}

/// The §5.4 table (refresh side; isolation side comes from §5.3).
pub fn refresh_table(r: &RefreshEconomics) -> Table {
    let mut t = Table::new(
        "§5.4 Scalability: atlas refresh economics",
        &["metric", "paper", "measured"],
    );
    t.row(&[
        "monitored (vantage, destination) pairs".into(),
        "-".into(),
        r.pairs.to_string(),
    ]);
    t.row(&[
        "option probes per reverse path (steady state)".into(),
        "~10 (amortized)".into(),
        format!("{:.1}", r.steady_state_probes_per_path),
    ]);
    t.row(&[
        "option probes per reverse path (from scratch)".into(),
        "35".into(),
        format!("{:.1}", r.cold_probes_per_path),
    ]);
    t.row(&[
        "cache splices across converging paths".into(),
        "-".into(),
        r.stats.cache_hits.to_string(),
    ]);
    t.row(&[
        "traceroute probes per forward refresh".into(),
        "~2 traceroutes".into(),
        format!(
            "{:.1} probe pkts",
            if r.stats.forward_paths == 0 {
                0.0
            } else {
                r.stats.traceroute_probes as f64 / r.stats.forward_paths as f64
            }
        ),
    ]);
    t
}

/// One point on the Internet-scale size curve.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalePoint {
    /// AS count.
    pub n: usize,
    /// Undirected link count.
    pub edges: usize,
    /// Topology generation wall time.
    pub gen_ms: f64,
    /// `Network::new` preprocessing wall time (policy tables, caches).
    pub preprocess_ms: f64,
    /// Frontier fixed-point wall time (min over reps).
    pub fixed_point_ms: f64,
    /// Reference-engine wall time; 0.0 where the oracle was skipped
    /// (it is only cross-checked up to 10k ASes).
    pub reference_ms: f64,
    /// CSR topology footprint in bytes (`AsGraph::memory_bytes`).
    pub graph_bytes: usize,
    /// Path-tree nodes written by the fixed point (`FrontierStats::arena_nodes`).
    pub arena_nodes: usize,
    /// Peak simultaneous entries in the delta queue.
    pub peak_pending: usize,
    /// Estimated peak RSS of one fixed-point computation, in bytes.
    pub est_peak_rss_bytes: usize,
}

/// The curve's sizes: 1k/5k/10k/25k always; 75k with `paper --full` (it
/// needs ~a minute and real memory, so CI runs it only on demand).
pub fn scale_sizes(full: bool) -> Vec<usize> {
    let mut sizes = vec![1_000, 5_000, 10_000, 25_000];
    if full {
        sizes.push(75_000);
    }
    sizes
}

/// Per-AS route-table slot plus the frontier engine's `best`-key slot,
/// in bytes — the linear part of the fixed point's working set. The
/// constants are deliberately round upper bounds, not `size_of` readings:
/// the estimate must stay stable across layout tweaks so the CI budget
/// assertions mean the same thing from run to run.
const RSS_PER_AS: usize = 64;
/// Per arena node: `(AsId, u32, u32)` plus its dedup-map entry.
const RSS_PER_ARENA_NODE: usize = 64;
/// Per pending delta-queue entry (heap slot + bucket overhead).
const RSS_PER_PENDING: usize = 32;

/// Run the size curve: per size, generate a calibrated topology, build the
/// network, and time the frontier fixed point on the paper's prepended
/// baseline announcement, cross-checking against the reference engine at
/// sizes where the oracle is affordable.
pub fn run_scale_curve(sizes: &[usize], seed: u64) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n| {
            let t0 = Instant::now();
            let graph = TopologyConfig::calibrated(n, seed).generate();
            let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let net = Network::new(graph);
            let preprocess_ms = t0.elapsed().as_secs_f64() * 1e3;

            let origin = net
                .graph()
                .ases()
                .find(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
                .or_else(|| net.graph().ases().find(|a| net.graph().is_stub(*a)))
                .expect("calibrated topologies have stubs");
            let prefix = lg_bgp::Prefix::from_octets(184, 164, 224, 0, 20);
            let spec = AnnouncementSpec::prepended(&net, prefix, origin, 3);

            // Min-of-reps: the minimum of a CPU-bound loop is a robust
            // noise-free estimator; more reps at small sizes where a
            // single run is sub-millisecond.
            let reps = (25_000 / n).clamp(1, 9);
            let mut fixed_point_ms = f64::MAX;
            let mut stats = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let (table, s) = lg_sim::static_routes::compute_routes_with_stats(&net, &spec);
                fixed_point_ms = fixed_point_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(table.origin, spec.origin, "table for the wrong spec");
                stats = Some(s);
            }
            let stats = stats.expect("at least one rep");

            let mut reference_ms = 0.0;
            if n <= 10_000 {
                let t0 = Instant::now();
                let oracle = compute_routes_reference(&net, &spec);
                reference_ms = t0.elapsed().as_secs_f64() * 1e3;
                let frontier = lg_sim::compute_routes(&net, &spec);
                for a in net.graph().ases() {
                    assert_eq!(
                        frontier.route(a),
                        oracle.route(a),
                        "frontier diverged from reference at {a} (n={n})"
                    );
                }
            }

            let graph_bytes = net.graph().memory_bytes();
            ScalePoint {
                n,
                edges: net.graph().edge_count(),
                gen_ms,
                preprocess_ms,
                fixed_point_ms,
                reference_ms,
                graph_bytes,
                arena_nodes: stats.arena_nodes,
                peak_pending: stats.peak_pending,
                est_peak_rss_bytes: graph_bytes
                    + n * RSS_PER_AS
                    + stats.arena_nodes * RSS_PER_ARENA_NODE
                    + stats.peak_pending * RSS_PER_PENDING,
            }
        })
        .collect()
}

/// The §5.4 size-curve table.
pub fn scale_table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "§5.4 Scalability: control-plane size curve (calibrated topologies)",
        &[
            "ASes",
            "links",
            "gen ms",
            "preproc ms",
            "fixed-point ms",
            "reference ms",
            "graph KiB",
            "est peak RSS MiB",
        ],
    );
    for p in points {
        t.row(&[
            p.n.to_string(),
            p.edges.to_string(),
            format!("{:.1}", p.gen_ms),
            format!("{:.1}", p.preprocess_ms),
            format!("{:.2}", p.fixed_point_ms),
            if p.reference_ms > 0.0 {
                format!("{:.2}", p.reference_ms)
            } else {
                "-".into()
            },
            format!("{}", p.graph_bytes / 1024),
            format!("{:.1}", p.est_peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Record the curve under `sec54.scale.<i>.<field>`: sizes and the engine's
/// own counters as numbers, wall clocks as timings.
pub fn scale_numbers(points: &[ScalePoint], r: &mut Report) {
    for (i, p) in points.iter().enumerate() {
        let counts = [
            ("n", p.n),
            ("edges", p.edges),
            ("graph_bytes", p.graph_bytes),
            ("arena_nodes", p.arena_nodes),
            ("peak_pending", p.peak_pending),
            ("est_peak_rss_bytes", p.est_peak_rss_bytes),
        ];
        r.numbers(
            &format!("sec54.scale.{i}"),
            &counts.map(|(f, v)| (f, v as f64)),
        );
        let clocks = [
            ("gen_ms", p.gen_ms),
            ("preprocess_ms", p.preprocess_ms),
            ("fixed_point_ms", p.fixed_point_ms),
            ("reference_ms", p.reference_ms),
        ];
        r.timings(&format!("sec54.scale.{i}"), &clocks);
    }
}

/// Fixed-point wall-clock growth first → last point (compared end to end to
/// ride over per-point noise), and what quadratic growth in the AS count
/// would have been.
pub fn scale_growth(points: &[ScalePoint]) -> (f64, f64) {
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let growth = last.fixed_point_ms / first.fixed_point_ms.max(1e-6);
    (growth, (last.n as f64 / first.n as f64).powi(2))
}

/// The size curve's shape. `span` is `(first size, least last size)` the
/// curve must cover — `(1000, 25000)` for the paper run.
pub fn scale_checks(points: &[ScalePoint], span: (usize, usize), r: &mut Report) {
    let ns: Vec<usize> = points.iter().map(|p| p.n).collect();
    let at = |bad: fn(&ScalePoint) -> bool| -> Vec<usize> {
        points.iter().filter(|p| bad(p)).map(|p| p.n).collect()
    };
    let increasing = ns.windows(2).all(|w| w[0] < w[1]);
    r.check("scale_sizes_increasing", increasing, format!("{ns:?}"));
    let spans = ns[0] == span.0 && ns[ns.len() - 1] >= span.1;
    r.check("scale_spans_sizes", spans, format!("{ns:?} vs {span:?}"));
    let (growth, quad) = scale_growth(points);
    let detail = format!("{growth:.1}x vs {quad:.0}x bound");
    r.check("scale_fixed_point_subquadratic", growth < quad, detail);
    let over = at(|p| p.arena_nodes > p.n + 16);
    let detail = format!("arena_nodes > n + 16 at {over:?}");
    r.check("scale_arena_one_node_per_as", over.is_empty(), detail);
    let slow = at(|p| p.reference_ms > 0.0 && p.fixed_point_ms > 2.0 * p.reference_ms);
    let detail = format!("frontier > 2x reference at {slow:?}");
    r.check(
        "scale_frontier_within_2x_reference",
        slow.is_empty(),
        detail,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_cheaper_than_cold() {
        let r = run_refresh(&RefreshConfig::tiny(3));
        assert!(r.paths_refreshed > 0);
        assert!(
            r.steady_state_probes_per_path < r.cold_probes_per_path,
            "steady {} vs cold {}",
            r.steady_state_probes_per_path,
            r.cold_probes_per_path
        );
        // In the paper's band: well under the from-scratch cost.
        assert!(r.steady_state_probes_per_path < 15.0);
    }

    #[test]
    fn scale_curve_runs_and_serializes() {
        // Test-sized points; `paper sec54` runs the real 1k..25k curve.
        let points = run_scale_curve(&[200, 400], 5);
        assert_eq!(points.len(), 2);
        assert!(points.windows(2).all(|w| w[0].n < w[1].n));
        for p in &points {
            assert!(p.edges > p.n, "calibrated graphs are denser than a tree");
            assert!(p.fixed_point_ms > 0.0 && p.fixed_point_ms < f64::MAX);
            assert!(p.reference_ms > 0.0, "oracle must run at small sizes");
            // One node per accepting AS plus the interned seed paths (a
            // multihomed stub announces a 4-hop prepend via up to 3
            // providers).
            assert!(p.arena_nodes <= p.n + 16, "arena past one node per AS");
            assert!(p.est_peak_rss_bytes > p.graph_bytes);
        }
        let mut report = Report::default();
        scale_numbers(&points, &mut report);
        let json = crate::paper::receipt(&[], &[("sec54", report)]).to_string();
        assert_eq!(json.matches("fixed_point_ms\"").count(), 2);
        assert_eq!(json.matches("est_peak_rss_bytes\"").count(), 2);
        assert!(json.contains("\"sec54.scale.1.n\":400"), "{json}");
    }
}
