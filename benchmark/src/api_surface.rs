//! Keeps the benchmark off the parts of the repository ROADMAP plans to
//! remove: a later simplicity change may not edit the benchmark, so what
//! the benchmark names is what that change must keep (see `API.md`).

use std::fs;
use std::path::Path;

/// Names from ROADMAP's "collapse the twins" and "demonstrate it or delete
/// it" lists, and the knobs and environment switches a default user never
/// sets.
const OFF_LIMITS: [&str; 16] = [
    "compute_routes_reference",
    "compute_routes_with_stats",
    "OutQueue",
    "locked(",
    "locked_with_shards",
    "RouteTableCache",
    "RouteComputer",
    "with_threads",
    "with_shards",
    "parallel_spawn_min",
    "pack_updates",
    "workers",
    "WorkerMatrix",
    "FilterMatrix",
    "LG_",
    "env::var",
];

fn scan(dir: &Path, hits: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("benchmark sources are readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, hits);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("api_surface.rs") {
            let text = fs::read_to_string(&path).expect("source file is readable");
            for name in OFF_LIMITS {
                if text.contains(name) {
                    hits.push(format!("{} names {name}", path.display()));
                }
            }
        }
    }
}

#[test]
fn sources_name_nothing_slated_for_removal() {
    let mut hits = Vec::new();
    scan(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut hits,
    );
    assert_eq!(hits, Vec::<String>::new());
}
