//! Golden event logs: every `scenarios/*.json` must replay byte for byte.
//!
//! Each `tests/golden/<name>.txt` holds the scenario's event log
//! ([`RunOutcome::log_lines`]) followed by one `downtime_ms` line per
//! target. A performance change anywhere under the repair loop (probing,
//! forwarding, route computation) must leave these files untouched. On a
//! mismatch the run's rendering is written to
//! `$CARGO_TARGET_TMPDIR/golden-<name>.txt` so the two can be diffed.

use lifeguard_repro::scenario::{self, RunOutcome};
use std::path::PathBuf;

fn render(out: &RunOutcome) -> String {
    let mut text = String::new();
    for line in out.log_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    for (target, ms) in &out.downtime_ms {
        text.push_str(&format!("downtime_ms {target} {ms}\n"));
    }
    text
}

fn check(name: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(root.join(format!("scenarios/{name}.json")))
        .expect("scenario file");
    let sc = scenario::parse(&json).expect("scenario parses");
    let got = render(&scenario::run(&sc).expect("scenario runs"));
    let golden = root.join(format!("tests/golden/{name}.txt"));
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{name}.txt"));
        std::fs::write(&actual, &got).expect("write actual rendering");
        panic!(
            "{name}: event log differs from {}; this run's is at {}",
            golden.display(),
            actual.display()
        );
    }
}

#[test]
fn reverse_outage_log_is_golden() {
    check("reverse_outage");
}

/// A reverse link failure is blamed on an AS and repaired by a whole-AS
/// poison: the isolator names a link only for forward failures, which a
/// poison cannot repair.
#[test]
fn reverse_link_failure_log_is_golden() {
    check("reverse_link_failure");
}
