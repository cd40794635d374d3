//! Integration: one complete causal chain through the flight recorder.
//!
//! Runs the deterministic §5.1 evaluation world (reverse-path silent
//! failure in A, poison, heal, unpoison) with the flight recorder enabled
//! and asserts that every lifecycle marker — monitor open through
//! unpoison — lands under a single trace id, in causal order, and that
//! the per-phase annotations sum to the logged downtime.

use lifeguard_repro::asmap::{AsId, GraphBuilder};
use lifeguard_repro::bgp::Prefix;
use lifeguard_repro::lifeguard::config::PING_INTERVAL_MS;
use lifeguard_repro::lifeguard::{EventKind, Lifeguard, LifeguardConfig, World};
use lifeguard_repro::sim::dataplane::infra_prefix;
use lifeguard_repro::sim::failures::Failure;
use lifeguard_repro::sim::{Network, Time};

use lg_telemetry::trace::{self, TraceKind, TraceValue};

fn production() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 20)
}

fn sentinel() -> Prefix {
    Prefix::from_octets(184, 164, 224, 0, 19)
}

/// The §5.1 evaluation world: O(0) under B(2); B under C(3) and A(1);
/// C under D(4); A and D under E(5); F(6) behind A; VPs at 7 and 8.
fn world_net() -> Network {
    let mut g = GraphBuilder::with_ases(9);
    g.provider_customer(AsId(2), AsId(0));
    g.provider_customer(AsId(3), AsId(2));
    g.provider_customer(AsId(1), AsId(2));
    g.provider_customer(AsId(4), AsId(3));
    g.provider_customer(AsId(5), AsId(1));
    g.provider_customer(AsId(5), AsId(4));
    g.provider_customer(AsId(6), AsId(1));
    g.provider_customer(AsId(3), AsId(7));
    g.provider_customer(AsId(5), AsId(8));
    Network::new(g.build())
}

fn tick_minutes(lg: &mut Lifeguard, world: &mut World<'_>, from: Time, minutes: u64) -> Time {
    let mut t = from;
    let end = from + minutes * 60_000;
    while t <= end {
        lg.tick(world, t);
        t += PING_INTERVAL_MS;
    }
    t
}

fn u64_value(v: &TraceValue) -> u64 {
    match v {
        TraceValue::U64(n) => *n,
        other => panic!("expected U64 payload, got {other:?}"),
    }
}

#[test]
fn one_repair_produces_one_complete_causal_chain() {
    let rec = trace::enable(trace::DEFAULT_CAPACITY);

    let net = world_net();
    let mut world = World::new(&net);
    let mut cfg = LifeguardConfig::paper_defaults(AsId(0), production(), sentinel());
    cfg.targets = vec![AsId(5)];
    cfg.vantage_points = vec![AsId(7), AsId(8)];
    let mut lg = Lifeguard::new(cfg);
    lg.install(&mut world, Time::ZERO);

    // Healthy period, then a reverse-path silent failure in A (AS1)
    // toward our prefixes that heals after an hour.
    let t = tick_minutes(&mut lg, &mut world, Time::from_secs(60), 5);
    let heal_at = t + 3_600_000;
    for covered in [production(), sentinel(), infra_prefix(AsId(0))] {
        world
            .dp
            .failures_mut()
            .add(Failure::silent_as_toward(AsId(1), covered).window(t, Some(heal_at)));
    }
    let t = tick_minutes(&mut lg, &mut world, t, 10);
    tick_minutes(&mut lg, &mut world, heal_at + 60_000, 10);
    assert!(t < heal_at);

    // The whole lifecycle ran: detected, poisoned, repaired, healed,
    // unpoisoned — and every event carries the same non-NONE trace id.
    let events = lg.events();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Unpoisoned { .. })));
    let chain = events[0].trace;
    assert!(!chain.is_none(), "lifecycle events must be trace-stamped");
    for e in events {
        assert_eq!(e.trace, chain, "one outage, one trace id: {:?}", e.kind);
    }

    // The recorder saw the full causal chain under that id, in order.
    let recorded = rec.events_for(chain);
    let instants: Vec<&str> = recorded
        .iter()
        .filter(|e| e.kind == TraceKind::Instant)
        .map(|e| e.name)
        .collect();
    let expected = [
        "monitor.open",
        "repair.outage_detected",
        "repair.isolation_completed",
        "repair.poisoned",
        "repair.quiescence",
        "repair.repaired",
        "repair.healed",
        "repair.unpoisoned",
    ];
    let mut cursor = 0;
    for name in expected {
        let pos = instants[cursor..]
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("missing or out-of-order lifecycle marker {name}"));
        cursor += pos + 1;
    }

    // Span phases were captured on the chain too.
    for span in ["repair.isolation", "repair.plan"] {
        assert!(
            recorded
                .iter()
                .any(|e| e.kind == TraceKind::SpanBegin && e.name == span),
            "missing span {span}"
        );
    }

    // Per-phase durations reconstruct the logged downtime: time from
    // monitor open to detection, plus isolation, plus convergence.
    let instant_ms = |name: &str| {
        u64_value(
            &recorded
                .iter()
                .find(|e| e.kind == TraceKind::Instant && e.name == name)
                .unwrap_or_else(|| panic!("missing instant {name}"))
                .value,
        )
    };
    let annot_ms = |name: &str| {
        u64_value(
            &recorded
                .iter()
                .find(|e| e.kind == TraceKind::Annot && e.name == name)
                .unwrap_or_else(|| panic!("missing annotation {name}"))
                .value,
        )
    };
    let open_ms = instant_ms("monitor.open");
    let detected_ms = instant_ms("repair.outage_detected");
    let downtime = annot_ms("repair.downtime_ms");
    assert_eq!(
        (detected_ms - open_ms)
            + annot_ms("repair.isolation_ms")
            + annot_ms("repair.convergence_ms"),
        downtime,
        "phase durations must sum to the logged downtime"
    );
    assert!(downtime > 0);

    // The Chrome export round-trips the chain (spot-check the marker the
    // CI trace-smoke job keys on).
    let json = trace::export_chrome(&rec.snapshot());
    assert!(json.contains("repair.outage_detected"));
    assert!(json.contains(&format!("\"trace\":{}", chain.0)));
}
