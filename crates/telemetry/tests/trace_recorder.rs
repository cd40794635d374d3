//! Flight-recorder behaviour tests: ring wraparound, snapshots taken while
//! writers push, multi-threaded per-thread ordering, and span pairing when
//! a panic unwinds through a `SpanGuard`. One process-global recorder is shared by all tests (enable
//! is once-per-process), so assertions filter by thread label or trace id.

use lg_telemetry::trace::{self, ThreadRing, TraceEvent, TraceId, TraceKind, TraceValue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

fn recorder() -> &'static trace::Recorder {
    trace::enable(1 << 12)
}

fn instant_event(tick_ns: u64, value: u64) -> TraceEvent {
    TraceEvent {
        tick_ns,
        trace: TraceId::NONE,
        kind: TraceKind::Instant,
        name: "test.seq",
        value: TraceValue::U64(value),
    }
}

#[test]
fn ring_overwrites_oldest_on_wraparound() {
    let ring = ThreadRing::new(8, 7, "wrap".to_string());
    assert_eq!(ring.capacity(), 8);
    for i in 0..20u64 {
        ring.push(instant_event(i, i));
    }
    assert_eq!(ring.pushed(), 20);
    let got = ring.collect();
    // Only the newest `capacity` events survive, in push order.
    let values: Vec<u64> = got
        .iter()
        .map(|e| match e.value {
            TraceValue::U64(v) => v,
            _ => panic!("expected U64 value"),
        })
        .collect();
    assert_eq!(values, (12..20).collect::<Vec<u64>>());
}

#[test]
fn ring_capacity_rounds_up_to_power_of_two() {
    let ring = ThreadRing::new(5, 1, "round".to_string());
    assert_eq!(ring.capacity(), 8);
    let tiny = ThreadRing::new(0, 2, "tiny".to_string());
    assert!(tiny.capacity() >= 8);
}

#[test]
fn snapshots_while_writers_wrap_are_contiguous_and_whole() {
    const WRITERS: usize = 3;
    const EVENTS: u64 = 50_000;
    let rings: Vec<ThreadRing> = (0..WRITERS)
        .map(|t| ThreadRing::new(16, t as u64, format!("writer{t}")))
        .collect();
    let finished = AtomicUsize::new(0);
    let mut snapshots = 0u64;
    std::thread::scope(|s| {
        for ring in &rings {
            let finished = &finished;
            s.spawn(move || {
                for i in 0..EVENTS {
                    ring.push(instant_event(i, i));
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        while finished.load(Ordering::Acquire) < WRITERS || snapshots < 100 {
            for ring in &rings {
                let before = ring.pushed();
                let got = ring.collect();
                let after = ring.pushed();
                snapshots += 1;
                let values: Vec<u64> = got
                    .iter()
                    .map(|e| match e.value {
                        // A torn copy would pair one push's tick with
                        // another's value.
                        TraceValue::U64(v) if e.tick_ns == v && e.name == "test.seq" => v,
                        _ => panic!("torn event {e:?}"),
                    })
                    .collect();
                let Some(&last) = values.last() else {
                    assert_eq!(before, 0, "empty snapshot of a ring already pushed to");
                    continue;
                };
                // The newest events up to some push between the two
                // `pushed()` reads, every one of them, in push order.
                assert!(
                    before <= last + 1 && last < after,
                    "{before} {last} {after}"
                );
                let first = (last + 1).saturating_sub(ring.capacity() as u64);
                assert_eq!(values, (first..=last).collect::<Vec<u64>>());
            }
        }
    });
    assert!(snapshots >= 100);
}

#[test]
fn eight_threads_keep_per_thread_order() {
    let rec = recorder();
    const THREADS: u64 = 8;
    const EVENTS: u64 = 1000;
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for seq in 0..EVENTS {
                    trace::instant_value("interleave.seq", (t << 32) | seq);
                }
            });
        }
    });
    let snap = rec.snapshot();
    let mut threads_seen = 0;
    for th in &snap {
        let seqs: Vec<u64> = th
            .events
            .iter()
            .filter(|e| e.name == "interleave.seq")
            .map(|e| match e.value {
                TraceValue::U64(v) => v,
                _ => panic!("expected U64"),
            })
            .collect();
        if seqs.is_empty() {
            continue;
        }
        threads_seen += 1;
        // All events in one ring come from one writer thread.
        let owner = seqs[0] >> 32;
        assert!(
            seqs.iter().all(|v| v >> 32 == owner),
            "ring mixed events from multiple threads"
        );
        // The ring holds 4096 slots so all 1000 events survive, in order.
        let local: Vec<u64> = seqs.iter().map(|v| v & 0xffff_ffff).collect();
        assert_eq!(local, (0..EVENTS).collect::<Vec<u64>>());
    }
    assert_eq!(threads_seen, THREADS, "one ring per worker thread");
}

#[test]
fn span_guard_records_end_when_panicking() {
    let rec = recorder();
    let marker = TraceId::mint();
    let join = std::thread::Builder::new()
        .name("panicky".to_string())
        .spawn(move || {
            let _scope = trace::scope(marker);
            let _span = trace::span("panic.span");
            panic!("deliberate test panic");
        })
        .unwrap()
        .join();
    assert!(join.is_err(), "thread must have panicked");
    let events = rec.events_for(marker);
    let begins = events
        .iter()
        .filter(|e| e.kind == TraceKind::SpanBegin && e.name == "panic.span")
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind == TraceKind::SpanEnd && e.name == "panic.span")
        .count();
    assert_eq!(begins, 1, "span begin must be recorded");
    assert_eq!(ends, 1, "span end must be recorded during unwind");
}

#[test]
fn export_chrome_pairs_spans_and_names_threads() {
    let rec = recorder();
    let marker = TraceId::mint();
    std::thread::Builder::new()
        .name("exporter".to_string())
        .spawn(move || {
            let _scope = trace::scope(marker);
            let outer = trace::span("outer.span");
            {
                let _inner = trace::span("inner.span");
                trace::instant("nested.instant");
            }
            drop(outer);
        })
        .unwrap()
        .join()
        .unwrap();
    let json = trace::export_chrome(&rec.snapshot());
    assert!(json.contains("\"name\":\"outer.span\""));
    assert!(json.contains("\"name\":\"inner.span\""));
    assert!(json.contains("\"name\":\"nested.instant\""));
    assert!(json.contains("thread_name"));
    assert!(json.contains("exporter"));
    // Every span event carries its trace id in args.
    assert!(json.contains(&format!("\"trace\":{}", marker.0)));
}
