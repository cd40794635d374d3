//! Dense-churn benchmark for the dynamic engine's out-queue.
//!
//! Drives seeded churn schedules (lg-workloads `churn`) whose clock
//! advances sit far below the MRAI interval, so nearly every route change
//! lands in an MRAI shadow and flows through the deferral machinery — the
//! regime where the per-peer ring buffers + timer wheel (`OutQueue::Ring`)
//! replace the flat `(peer, prefix)` map scan (`OutQueue::Reference`).
//!
//! Two outputs:
//! * criterion timings for ring vs reference on one representative
//!   schedule, plus a multi-schedule wall-clock comparison with the
//!   ring/map ratio printed (the "ring no slower than map" acceptance
//!   check);
//! * the `dynamic.*` telemetry counters accumulated by the runs, printed
//!   and emitted through the standard `LG_TELEMETRY_OUT` gate.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use lg_sim::{DynamicSim, DynamicSimConfig, OutQueue, Time};
use lg_workloads::churn::{
    churn_network, churn_network_sized, generate_ops, ChurnConfig, ChurnRunner, ChurnWorld,
};

/// Dense-churn schedule: advances of at most 2 s against a 30 s MRAI.
fn dense_cfg(seed: u64) -> ChurnConfig {
    ChurnConfig {
        seed,
        ops: 40,
        advance_max_ms: 2_000,
    }
}

fn sim_cfg(out_queue: OutQueue) -> DynamicSimConfig {
    DynamicSimConfig {
        mrai_ms: 30_000,
        out_queue,
        ..DynamicSimConfig::default()
    }
}

/// One full churn run to quiescence; returns the quiescence tick so the
/// two implementations can be cross-checked while being timed.
fn run_schedule(seed: u64, out_queue: OutQueue) -> Time {
    let net = churn_network(seed);
    let world = ChurnWorld::new(&net);
    let ops = generate_ops(&dense_cfg(seed));
    let mut sim = DynamicSim::new(&net, sim_cfg(out_queue));
    let mut runner = ChurnRunner::new(&world);
    for op in &ops {
        runner.apply(&mut sim, &net, op);
    }
    let q = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
    assert!(sim.quiescent(), "churn schedule {seed} did not quiesce");
    q
}

fn bench_dynamic_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_churn");
    for (label, out_queue) in [("ring", OutQueue::Ring), ("reference", OutQueue::Reference)] {
        group.bench_function(label, |b| {
            b.iter(|| run_schedule(7, out_queue));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dynamic_churn);

/// Wall-clock sweep over several schedules; the acceptance comparison.
///
/// One schedule is well under a millisecond, so a single timed pass is
/// dominated by scheduler noise. Per seed, each implementation runs
/// `REPS` times interleaved and the per-seed *minimum* is kept — the
/// minimum of a CPU-bound loop is a robust noise-free estimator — then
/// the per-seed minima are summed into the ring/reference ratio.
fn compare_sweep() {
    const SEEDS: std::ops::Range<u64> = 1..9;
    const REPS: usize = 7;
    // Warm both paths once so lazy init (interner growth, first-touch
    // allocation) lands outside the measured loops.
    for seed in SEEDS {
        assert_eq!(
            run_schedule(seed, OutQueue::Ring),
            run_schedule(seed, OutQueue::Reference),
            "seed {seed}: implementations disagree on quiescence tick"
        );
    }
    let mut ring = std::time::Duration::ZERO;
    let mut reference = std::time::Duration::ZERO;
    for seed in SEEDS {
        let mut best = [std::time::Duration::MAX; 2];
        for _ in 0..REPS {
            for (which, out_queue) in [(0, OutQueue::Ring), (1, OutQueue::Reference)] {
                let t0 = Instant::now();
                run_schedule(seed, out_queue);
                best[which] = best[which].min(t0.elapsed());
            }
        }
        ring += best[0];
        reference += best[1];
    }
    let ratio = ring.as_secs_f64() / reference.as_secs_f64();
    println!(
        "dynamic_churn sweep ({} schedules, min of {REPS}): ring {:.1?} vs reference {:.1?} (ratio {ratio:.2})",
        SEEDS.end - SEEDS.start,
        ring,
        reference
    );
    if ratio > 1.10 {
        eprintln!("WARNING: ring out-queue measurably slower than the reference map");
    }
}

/// One dense schedule on a calibrated 10k-AS world, both out-queue
/// implementations: the scale re-run of the differential check. A single
/// timed pass each (a 10k churn run is far above scheduler noise); ring
/// and reference must agree on the quiescence tick exactly.
fn compare_10k() {
    let net = churn_network_sized(10_000, 7);
    let world = ChurnWorld::new(&net);
    let ops = generate_ops(&dense_cfg(7));
    let mut ticks = Vec::new();
    for (label, out_queue) in [("ring", OutQueue::Ring), ("reference", OutQueue::Reference)] {
        let t0 = Instant::now();
        let mut sim = DynamicSim::new(&net, sim_cfg(out_queue));
        let mut runner = ChurnRunner::new(&world);
        for op in &ops {
            runner.apply(&mut sim, &net, op);
        }
        let q = sim.run_until_quiescent(sim.now() + Time::from_mins(600).millis());
        assert!(sim.quiescent(), "10k churn ({label}) did not quiesce");
        println!("dynamic_churn 10k {label}: {:.1?}", t0.elapsed());
        ticks.push(q);
    }
    assert_eq!(
        ticks[0], ticks[1],
        "10k: implementations disagree on quiescence tick"
    );
}

fn main() {
    lg_telemetry::trace::enable_from_env();
    benches();
    compare_sweep();
    compare_10k();

    // The runs above pushed every update through the dynamic engine; the
    // dynamic.* counters must all have moved.
    let snap = lg_telemetry::global().snapshot();
    let mut failed = false;
    for name in [
        "dynamic.updates_sent",
        "dynamic.updates_received",
        "dynamic.withdrawals_sent",
        "dynamic.mrai_deferrals",
        "dynamic.loc_rib_changes",
    ] {
        match snap.counter(name) {
            Some(v) if v > 0 => {}
            Some(_) => {
                eprintln!("FAIL: counter {name} is zero");
                failed = true;
            }
            None => {
                eprintln!("FAIL: counter {name} missing from the registry");
                failed = true;
            }
        }
    }
    println!("{}", snap.render_table());
    lg_telemetry::emit_if_configured();
    if failed {
        eprintln!("dynamic_churn telemetry gate FAILED");
        std::process::exit(1);
    }
    println!("dynamic_churn OK");
}
