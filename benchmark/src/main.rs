//! `lg-ledger`: the repository's benchmark.
//!
//! ```text
//! lg-ledger bench --workload W --seed S --seconds N --trace 0|1
//! lg-ledger aa [--sets 2] [--runs 5] [--seconds N] [--seed S] [--out FILE]
//! lg-ledger diff A.json B.json
//! lg-ledger check [BENCHMARK.json]
//! lg-ledger benchmark-json
//! ```
//!
//! `bench` runs one workload in this process, prints every metric by name
//! and unit, and ends with the one-line JSON result. The rest is the
//! ledger around it: the A/A receipt, the comparison of two receipts, and
//! the checks that keep `BENCHMARK.json`, the declaration and what a run
//! emits from drifting apart.

#[cfg(test)]
mod api_surface;
mod dynamic;
mod host;
mod json;
mod ledger;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  lg-ledger bench --workload W --seed S --seconds N --trace 0|1
  lg-ledger aa [--sets 2] [--runs 5] [--seconds N] [--seed S] [--out FILE]
  lg-ledger diff A.json B.json
  lg-ledger check [BENCHMARK.json]
  lg-ledger benchmark-json";

/// `--flag value` pairs of one subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let workload: String = flags.require("workload")?;
    let seconds: f64 = flags.require("seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match flags.require::<u8>("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    let cfg = run::RunConfig::new(&workload, flags.require("seed")?, seconds, trace);
    let result = run::run(&cfg)?;
    for note in &result.notes {
        println!("# {note}");
    }
    println!("# input_digest {:016x}", result.input_digest);
    println!(
        "# sim_digest {:016x} over the first {} ops",
        result.sim_digest, result.sim_digest_ops
    );
    for m in &result.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.result_line());
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    match cmd.as_str() {
        "bench" => bench(rest),
        "aa" => {
            let flags = Flags::parse(rest, &["sets", "runs", "seconds", "seed", "out"])?;
            ledger::aa(&ledger::AaConfig {
                sets: flags.get("sets")?.unwrap_or(2),
                runs: flags.get("runs")?.unwrap_or(5),
                seconds: flags.get("seconds")?.unwrap_or(spec::RUN_SECONDS),
                seed: flags.get("seed")?.unwrap_or(spec::DEFAULT_SEED),
                out: flags
                    .get::<String>("out")?
                    .unwrap_or_else(|| "benchmark/ledger/AA_13.json".into())
                    .into(),
            })
        }
        "diff" => match rest {
            [a, b] => ledger::diff(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        "check" => match rest {
            [] => ledger::check("BENCHMARK.json".as_ref()),
            [path] => ledger::check(path.as_ref()),
            _ => Err(USAGE.into()),
        },
        "benchmark-json" => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lg-ledger: {msg}");
            ExitCode::FAILURE
        }
    }
}
