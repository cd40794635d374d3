//! Overhead gate for the flight recorder.
//!
//! Tracing must be effectively free when nobody asked for it: with the
//! recorder disabled every `span`/`instant` helper is a single atomic
//! load and a branch on an empty cell. This harness times the `scratch_medium`
//! route-computation workload with
//! the recorder disabled, then enables it mid-process and times the same
//! workload with every event landing in the ring. The build *fails* if
//! the enabled run exceeds `disabled * 1.1` — instrumentation that costs
//! more than 10% on the hottest kernel has leaked onto the fast path.
//!
//! Each phase keeps the *minimum* of `REPS` repetitions — the min of a
//! CPU-bound loop is a robust noise-free estimator. The ordering (disabled
//! first) matters: the recorder is install-once for the life of the process.

use std::time::{Duration, Instant};

use lg_asmap::TopologyConfig;
use lg_bgp::Prefix;
use lg_sim::{compute_routes, AnnouncementSpec, Network};
use lg_telemetry::trace;

const REPS: usize = 9;

fn time_compute(net: &Network, spec: &AnnouncementSpec) -> Duration {
    let t0 = Instant::now();
    let table = compute_routes(net, spec);
    let elapsed = t0.elapsed();
    assert!(table.routed_count() > 0);
    elapsed
}

fn main() {
    let net = Network::new(TopologyConfig::medium(1).generate());
    let origin = net
        .graph()
        .ases()
        .find(|a| net.graph().is_stub(*a))
        .unwrap();
    let prefix = Prefix::from_octets(184, 164, 224, 0, 20);
    let spec = AnnouncementSpec::prepended(&net, prefix, origin, 3);

    // Phase 1: recorder disabled — every trace helper must be a branch
    // on an empty cell. Guard the precondition: an already-live recorder would
    // invalidate the baseline.
    assert!(
        !trace::enabled(),
        "trace_gate must start with the recorder disabled"
    );
    let _ = time_compute(&net, &spec); // warm caches/allocator
    let mut disabled = Duration::MAX;
    for _ in 0..REPS {
        disabled = disabled.min(time_compute(&net, &spec));
    }

    // Phase 2: recorder live, ambient trace set, every span recorded.
    let rec = trace::enable(1 << 14);
    let _scope = trace::scope(lg_telemetry::TraceId::mint());
    let _ = time_compute(&net, &spec);
    let mut enabled = Duration::MAX;
    for _ in 0..REPS {
        enabled = enabled.min(time_compute(&net, &spec));
    }

    // The enabled phase must actually have recorded the kernel's spans,
    // and the export must be well-formed — otherwise the gate would pass
    // trivially by tracing nothing.
    let snapshot = rec.snapshot();
    let events: usize = snapshot.iter().map(|t| t.events.len()).sum();
    let mut failed = false;
    if events == 0 {
        eprintln!("FAIL: enabled phase recorded no events");
        failed = true;
    }
    let json = trace::export_chrome(&snapshot);
    for marker in ["compute.seed", "compute.drain"] {
        if !json.contains(marker) {
            eprintln!("FAIL: export missing kernel span {marker}");
            failed = true;
        }
    }

    let ratio = enabled.as_secs_f64() / disabled.as_secs_f64();
    println!(
        "trace_gate (min of {REPS}): disabled {disabled:?}  enabled {enabled:?}  \
         ({ratio:.3}x, {events} events recorded)"
    );
    if ratio > 1.1 {
        eprintln!(
            "FAIL: tracing overhead {ratio:.3}x exceeds the 1.1x gate — \
             instrumentation leaked onto the compute_routes fast path"
        );
        failed = true;
    }

    if failed {
        eprintln!("trace_gate FAILED");
        std::process::exit(1);
    }
    println!("trace_gate OK");
}
