//! What the benchmark reads from the host: memory high-water mark, CPU
//! time and core count. Linux `/proc` only; elsewhere the readings are 0
//! and the run says so by failing its own "never 0" check.

use std::fs;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU seconds of the whole process so far. `/proc` counts
/// in `USER_HZ` ticks, which Linux fixes at 100 for user space.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line, the 12th and 13th here.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.5, "VmHWM missing");
        assert!(cpu_seconds().is_finite() && cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
