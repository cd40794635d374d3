//! `paper` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p lg-bench --bin paper                      # everything
//! cargo run --release -p lg-bench --bin paper -- sec51 fig6       # two items
//! cargo run --release -p lg-bench --bin paper -- --out paper.json # + receipt
//! cargo run --release -p lg-bench --bin paper -- --against OLD.json
//! ```
//!
//! Tables go to stdout, progress and the check report to stderr. Exit 0 when
//! every shape check held (and, with `--against`, every `numbers` entry of
//! the items run equals the one in that earlier receipt), 1 naming the
//! checks and numbers that did not, 2 on usage.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use lg_bench::paper::{numbers_differing, receipt, Scale, ITEMS};
use lg_bench::report::Report;
use lg_telemetry::{json, Artifacts};

fn usage(problem: &str) -> ExitCode {
    let items: Vec<&str> = ITEMS.iter().map(|(name, _)| *name).collect();
    eprintln!("paper: {problem}");
    eprintln!(
        "usage: paper [ITEM…] [--full] [--out PATH] [--against RECEIPT] {}",
        Artifacts::USAGE
    );
    eprintln!("items (none = all): {}", items.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter().cloned();
    let mut artifacts = Artifacts::default();
    let mut scale = Scale::Paper;
    let mut out: Option<String> = None;
    let mut against: Option<(String, json::Value)> = None;
    let mut wanted = Vec::new();
    while let Some(arg) = args.next() {
        match artifacts.take(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage(&e),
        }
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage("--out needs a PATH"),
            },
            "--against" => {
                let Some(path) = args.next() else {
                    return usage("--against needs a RECEIPT");
                };
                let parsed = std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| json::parse(&text));
                match parsed {
                    Ok(committed) => against = Some((path, committed)),
                    Err(e) => return usage(&format!("cannot read receipt {path}: {e}")),
                }
            }
            name => match ITEMS.iter().find(|(item, _)| *item == name) {
                Some(item) => wanted.push(*item),
                None => return usage(&format!("unknown item {name:?}")),
            },
        }
    }
    if wanted.is_empty() {
        wanted.extend(ITEMS);
    }
    artifacts.begin();

    let mut reports = Vec::new();
    let mut failed = Vec::new();
    for (name, run) in wanted {
        let t0 = Instant::now();
        let mut report = Report::default();
        run(scale, &mut report);
        let wall_s = t0.elapsed().as_secs_f64();
        report.timings(name, &[("wall_s", wall_s)]);
        for check in report.checks.iter().filter(|c| !c.ok) {
            eprintln!("FAIL {name}/{}: {}", check.name, check.detail);
            failed.push(format!("{name}/{}", check.name));
        }
        eprintln!("{name}: {} checks in {wall_s:.1} s", report.checks.len());
        reports.push((name, report));
    }

    let written = out.iter().try_for_each(|path| {
        let text = format!("{:#}\n", receipt(&argv, &reports));
        lg_telemetry::atomic_write(Path::new(path), &text)
            .map_err(|e| format!("cannot write receipt to {path}: {e}"))
    });
    if let Err(e) = written.and_then(|()| artifacts.finish()) {
        eprintln!("{e}");
        return ExitCode::from(1);
    }
    if let Some((path, committed)) = &against {
        let differing = numbers_differing(committed, &reports);
        for entry in &differing {
            eprintln!("DIFF {entry}");
            failed.push(entry.split(':').next().unwrap_or_default().to_string());
        }
        let total: usize = reports.iter().map(|(_, r)| r.numbers.len()).sum();
        match differing.len() {
            0 => eprintln!("against {path}: all {total} numbers equal"),
            n => eprintln!("against {path}: {n} numbers differ"),
        }
    }
    if !failed.is_empty() {
        eprintln!("paper FAILED: {}", failed.join(", "));
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
