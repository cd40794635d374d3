//! The one way a binary is asked for run artifacts: `--telemetry PATH`,
//! `--trace PATH`, `--timeseries PATH`, shared by `lifeguard-sim` and
//! `paper`.

use std::path::PathBuf;

use crate::registry::global;
use crate::snapshot::{atomic_write, record_host_facts};
use crate::timeseries::global_timeseries;
use crate::trace;

/// Where a run was asked to leave its artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Artifacts {
    telemetry: Option<PathBuf>,
    trace: Option<PathBuf>,
    timeseries: Option<PathBuf>,
}

impl Artifacts {
    /// The flags [`Artifacts::take`] recognises, for usage lines.
    pub const USAGE: &'static str = "[--telemetry PATH] [--trace PATH] [--timeseries PATH]";

    /// Consume `flag` if it is one of the three artifact flags, pulling its
    /// PATH from `rest`. `Ok(false)` means the flag belongs to the caller;
    /// `Err` means the PATH is missing.
    pub fn take(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let slot = match flag {
            "--telemetry" => &mut self.telemetry,
            "--trace" => &mut self.trace,
            "--timeseries" => &mut self.timeseries,
            _ => return Ok(false),
        };
        let path = rest.next().ok_or_else(|| format!("{flag} needs a PATH"))?;
        *slot = Some(PathBuf::from(path));
        Ok(true)
    }

    /// Call before the run: the flight recorder must be live before the
    /// first span/instant call for `--trace` to see it, and every artifact
    /// carries the host and provenance facts.
    pub fn begin(&self) {
        if self.trace.is_some() {
            trace::enable(trace::DEFAULT_CAPACITY);
        }
        record_host_facts();
    }

    /// Call after the run: write each requested file atomically — the
    /// global registry's snapshot as JSON, the recorder's Chrome/Perfetto
    /// export, and the global time series as Prometheus text (after one
    /// final sample, so a run that never sampled still exports its end
    /// state).
    pub fn finish(&self) -> Result<(), String> {
        let write = |what: &str, path: &PathBuf, contents: &str| {
            atomic_write(path, contents)
                .map_err(|e| format!("cannot write {what} to {}: {e}", path.display()))
        };
        if let Some(path) = &self.telemetry {
            write("telemetry", path, &global().snapshot().to_json())?;
        }
        if let (Some(path), Some(rec)) = (&self.trace, trace::recorder()) {
            write("trace", path, &trace::export_chrome(&rec.snapshot()))?;
        }
        if let Some(path) = &self.timeseries {
            let text = {
                let mut ts = global_timeseries()
                    .lock()
                    .expect("no sampler panics while holding the time-series lock");
                let at_ms = ts.latest_at_ms().map_or(0, |t| t + 1);
                ts.sample_registry(global(), at_ms);
                ts.render_prometheus()
            };
            write("timeseries", path, &text)?;
        }
        Ok(())
    }
}
