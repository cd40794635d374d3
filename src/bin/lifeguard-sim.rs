//! `lifeguard-sim` — run a declarative LIFEGUARD scenario.
//!
//! ```sh
//! cargo run --bin lifeguard-sim -- scenarios/reverse_outage.json
//! cargo run --bin lifeguard-sim -- scenarios/reverse_outage.json --json
//! cargo run --bin lifeguard-sim -- scenarios/reverse_outage.json --telemetry telemetry.json
//! cargo run --bin lifeguard-sim -- scenarios/reverse_outage.json --trace trace.json
//! ```
//!
//! Scenario format: see `src/scenario.rs` and the `scenarios/` directory.
//! `--telemetry PATH` writes the process-global metric snapshot (counters,
//! gauges, histograms) as JSON after the run. `--trace PATH` enables the
//! flight recorder and writes a Chrome/Perfetto `trace.json` (open in
//! `ui.perfetto.dev`) after the run; `--timeseries PATH` samples the metric
//! registry once per simulated tick and writes Prometheus text exposition.
//! The three flags are [`lg_telemetry::Artifacts`], shared with `paper`;
//! all outputs are written atomically (temp file + rename).

use lg_telemetry::Artifacts;
use lifeguard_repro::scenario;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lifeguard-sim <scenario.json> [--json] {}",
        Artifacts::USAGE
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut as_json = false;
    let mut artifacts = Artifacts::default();
    while let Some(arg) = args.next() {
        match artifacts.take(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(_) => return usage(),
        }
        match arg.as_str() {
            "--json" => as_json = true,
            p if path.is_none() && !p.starts_with('-') => path = Some(p.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    artifacts.begin();

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let sc = match scenario::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    let out = match scenario::run(&sc) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };

    if let Err(e) = artifacts.finish() {
        eprintln!("{e}");
        return ExitCode::from(1);
    }

    if as_json {
        // Event log as structured JSON lines.
        use lifeguard_repro::json::Value;
        for e in &out.events {
            let line = Value::Obj(vec![
                ("at_ms".into(), Value::Num(e.at.millis() as f64)),
                ("trace".into(), Value::Num(e.trace.0 as f64)),
                ("event".into(), Value::Str(format!("{:?}", e.kind))),
            ]);
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "origin {} monitoring {:?}",
        out.origin,
        out.targets
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );
    println!("\nevent log:");
    for line in out.log_lines() {
        println!("  {line}");
    }
    println!("\nground-truth downtime (30 s resolution):");
    for (t, d) in &out.downtime_ms {
        println!("  {t}: {:.1} min", *d as f64 / 60_000.0);
    }
    ExitCode::SUCCESS
}
