//! Metric primitives: atomics on the hot path, nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotone event counter. Clones share the same underlying cell, so a
/// handle resolved once at construction can be bumped forever without
/// touching the registry again.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written value (entry counts, live sizes), or a high-water mark
/// when only [`Gauge::raise_to`] writes it.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is lower (a high-water mark).
    #[inline]
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: index 0 holds exactly the value 0; index `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`. 64 - leading_zeros maps a value there.
pub(crate) const BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log2-bucketed distribution with exact count and sum. Three relaxed
/// atomic adds per record; suitable for per-operation latencies.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// Bucket index for a recorded value.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration in microseconds.
    #[inline]
    pub fn record_elapsed_us(&self, since: Instant) {
        self.record(since.elapsed().as_micros() as u64);
    }

    /// Start a span that records its elapsed microseconds here on drop.
    #[inline]
    pub fn span(&self) -> Span {
        Span {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Freeze the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let buckets: Vec<(u64, u64)> = (0..BUCKETS)
            .filter_map(|i| {
                let n = c.buckets[i].load(Ordering::Relaxed);
                (n != 0).then(|| (bucket_upper(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// RAII wall-clock timer: records elapsed microseconds into its histogram
/// when dropped. Wall time is observability-only — simulation results
/// never depend on it (DESIGN.md's determinism rule stands).
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    /// Elapsed microseconds so far, without ending the span.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}

/// Frozen histogram state: exact count/sum plus the non-empty buckets as
/// `(inclusive upper bound, count)` pairs in ascending bound order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets, `(inclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing quantile `q` in [0, 1].
    /// With log2 buckets this is within 2x of the true quantile.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map_or(0, |&(upper, _)| upper)
    }

    /// Bucket-wise difference `self - earlier` (saturating), for diffing
    /// two snapshots of the same histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut ei = earlier.buckets.iter().peekable();
        for &(upper, n) in &self.buckets {
            let mut prev = 0;
            while let Some(&&(eu, en)) = ei.peek() {
                if eu < upper {
                    ei.next();
                } else {
                    if eu == upper {
                        prev = en;
                        ei.next();
                    }
                    break;
                }
            }
            let d = n.saturating_sub(prev);
            if d != 0 {
                buckets.push((upper, d));
            }
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}
