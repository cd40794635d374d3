//! Simulated time, and a timing wheel over it.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since the scenario epoch.
///
/// All engines and the LIFEGUARD control loop share this clock; nothing in
/// the workspace reads wall-clock time, so every run is reproducible.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The scenario epoch.
    pub const ZERO: Time = Time(0);

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> Time {
        Time(s * 1000)
    }

    /// Construct from minutes.
    pub fn from_mins(m: u64) -> Time {
        Time(m * 60_000)
    }

    /// Milliseconds since epoch.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since epoch (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference in milliseconds.
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;
    fn add(self, ms: u64) -> Time {
        Time(self.0 + ms)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, ms: u64) {
        self.0 += ms;
    }
}

impl Sub for Time {
    type Output = u64;
    fn sub(self, rhs: Time) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.0 / 1000;
        write!(
            f,
            "{:02}:{:02}:{:02}",
            total_s / 3600,
            (total_s / 60) % 60,
            total_s % 60
        )
    }
}

/// End-of-list marker in the wheel's slab.
const NIL: u32 = u32::MAX;

/// One pending timer: 32 bytes with the dynamic engine's 24-byte event.
/// The list links live apart, in [`TimerWheel`]'s `next`, so an entry
/// holds only what a pop hands back.
pub(crate) struct WheelEntry<T> {
    seq: u64,
    item: T,
}

/// A single-level hashed timing wheel ordered by `(fire time, sequence)`.
///
/// One bucket per millisecond, a power of two of them, each a FIFO list
/// threaded through one slab of entries with a free list (the links sit in
/// an array beside the slab, so an entry holds only its seq and item). The
/// wheel keeps every pending fire time within fewer milliseconds of the
/// earliest than it has buckets, so the pending times map one-to-one onto
/// buckets and a bucket only ever holds one fire time. An insert that
/// would break that doubles the bucket count; every bucket's list moves
/// whole. Memory therefore follows the pending span: 8 bytes per
/// millisecond between the earliest and the latest pending fire time,
/// rounded up to a power of two.
///
/// The caller's contract: `seq` increases with every insert. Then each
/// bucket's FIFO order is its `seq` order, and the head of the first
/// non-empty bucket from the earliest pending time on is the `(at, seq)`
/// minimum — the order a binary heap would pop in. Fire times may come in
/// any order, earlier than the last pop included. The dynamic engine draws
/// `seq` from one monotone counter for its UPDATE deliveries and MRAI fires.
pub struct TimerWheel<T> {
    /// `(head, tail)` per bucket.
    buckets: Vec<(u32, u32)>,
    slab: Vec<WheelEntry<T>>,
    /// Per slab entry: the next entry in the same bucket, or in the free
    /// list.
    next: Vec<u32>,
    free: u32,
    len: usize,
    peak: usize,
    /// No pending entry fires earlier; exact after a [`TimerWheel::peek`].
    first: u64,
    /// The latest pending fire time.
    last: u64,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            buckets: Vec::new(),
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            len: 0,
            peak: 0,
            first: 0,
            last: 0,
        }
    }
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most timers ever pending at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    fn bucket(&self, t: u64) -> usize {
        (t & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Double the bucket count until `span` ms fit below it. The pending
    /// times lie in `[first, first + old count)`, one per bucket, so each
    /// bucket's time is recovered from its index and its list moves whole.
    fn grow(&mut self, span: u64) {
        let mut n = self.buckets.len().max(1);
        while n as u64 <= span {
            n *= 2;
        }
        let old = std::mem::replace(&mut self.buckets, vec![(NIL, NIL); n]);
        if self.len == 0 {
            return;
        }
        let old_mask = old.len() as u64 - 1;
        for (b, list) in old.into_iter().enumerate() {
            if list.0 != NIL {
                let t = self.first + ((b as u64).wrapping_sub(self.first) & old_mask);
                let nb = self.bucket(t);
                self.buckets[nb] = list;
            }
        }
    }

    /// Schedule `item` to fire at `at`; `seq` must exceed every seq
    /// inserted before.
    pub fn insert(&mut self, at: Time, seq: u64, item: T) {
        let at = at.millis();
        let (first, last) = if self.len == 0 {
            (at, at)
        } else {
            (self.first.min(at), self.last.max(at))
        };
        if last - first >= self.buckets.len() as u64 {
            self.grow(last - first);
        }
        (self.first, self.last) = (first, last);
        let entry = WheelEntry { seq, item };
        let e = if self.free == NIL {
            self.slab.push(entry);
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        } else {
            let e = self.free;
            self.free = self.next[e as usize];
            self.slab[e as usize] = entry;
            self.next[e as usize] = NIL;
            e
        };
        let b = self.bucket(at);
        let bucket = &mut self.buckets[b];
        if bucket.1 == NIL {
            bucket.0 = e;
        } else {
            self.next[bucket.1 as usize] = e;
        }
        bucket.1 = e;
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The earliest pending `(fire time, seq)`, without popping. Moves the
    /// scan position up to it; a later insert below it moves it back.
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let head = self.buckets[self.bucket(self.first)].0;
            if head != NIL {
                return Some((Time(self.first), self.slab[head as usize].seq));
            }
            self.first += 1;
            debug_assert!(self.first <= self.last, "pending timer lost");
        }
    }

    /// Pop the earliest pending timer if it fires at or before `limit`.
    pub fn pop_due(&mut self, limit: Time) -> Option<(Time, u64, T)> {
        let (at, seq) = self.peek().filter(|&(at, _)| at <= limit)?;
        let b = self.bucket(at.millis());
        let e = self.buckets[b].0;
        let next = std::mem::replace(&mut self.next[e as usize], self.free);
        self.buckets[b].0 = next;
        if next == NIL {
            self.buckets[b].1 = NIL;
        }
        let item = self.slab[e as usize].item;
        self.free = e;
        self.len -= 1;
        Some((at, seq, item))
    }

    /// Pop the earliest pending timer.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_due(Time(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Time::from_secs(90).millis(), 90_000);
        assert_eq!(Time::from_mins(2), Time::from_secs(120));
        assert_eq!(Time::from_secs(90).as_secs(), 90);
        assert_eq!(Time(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10) + 500;
        assert_eq!(t.millis(), 10_500);
        assert_eq!(t - Time::from_secs(10), 500);
        assert_eq!(Time::ZERO - t, 0, "saturating");
        assert_eq!(t.since(Time::from_secs(10)), 500);
    }

    #[test]
    fn display_hms() {
        assert_eq!(Time::from_secs(3723).to_string(), "01:02:03");
    }

    #[test]
    fn wheel_pops_in_time_seq_order() {
        let mut w = TimerWheel::new();
        // Same-ms ties inserted apart, fire times out of order, and a far
        // entry that doubles the bucket count with the rest still pending.
        w.insert(Time(50), 1, "a");
        w.insert(Time(200), 2, "c");
        w.insert(Time(50), 3, "b");
        w.insert(Time(5_000), 4, "d");
        w.insert(Time(300_000), 5, "e");
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.millis(), seq, item));
        }
        assert_eq!(
            out,
            vec![
                (50, 1, "a"),
                (50, 3, "b"),
                (200, 2, "c"),
                (5_000, 4, "d"),
                (300_000, 5, "e"),
            ]
        );
        assert!(w.is_empty());
        assert_eq!(w.peak(), 5);
    }

    #[test]
    fn wheel_accepts_inserts_earlier_than_pending_minimum() {
        // A peek moves the scan position up to the minimum it reports; a
        // nearer timer can still be scheduled afterwards (the dynamic
        // engine does exactly this when a delivery processed before the
        // next MRAI fire sends an UPDATE due sooner).
        let mut w = TimerWheel::new();
        w.insert(Time(10_000), 1, 1u32);
        assert_eq!(w.peek(), Some((Time(10_000), 1)));
        w.insert(Time(70), 2, 2u32);
        assert_eq!(w.peek(), Some((Time(70), 2)));
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
        assert_eq!(w.pop().map(|e| e.2), None);
    }

    #[test]
    fn wheel_pops_in_time_seq_order_below_its_scan_position() {
        let mut w = TimerWheel::new();
        let mut seq = 0;
        let mut insert = |w: &mut TimerWheel<u64>, at: u64| {
            seq += 1;
            w.insert(Time(at), seq, seq);
        };
        insert(&mut w, 30);
        insert(&mut w, 10);
        insert(&mut w, 30);
        assert_eq!(w.buckets.len(), 32);
        assert_eq!(w.pop(), Some((Time(10), 2, 2)));
        // The peek scans up to 30. A later insert at 70 doubles the wheel
        // to 64 buckets (70's lands at 6), and one at 26 goes below the
        // scan position: the scan must restart there, not pop 30 first.
        assert_eq!(w.peek(), Some((Time(30), 1)));
        insert(&mut w, 70);
        assert_eq!(w.buckets.len(), 64);
        insert(&mut w, 26);
        assert_eq!(w.peek(), Some((Time(26), 5)));
        assert_eq!(w.pop_due(Time(25)), None, "not due yet");
        assert_eq!(w.pop_due(Time(26)), Some((Time(26), 5, 5)));
        assert_eq!(w.pop(), Some((Time(30), 1, 1)));
        assert_eq!(w.pop(), Some((Time(30), 3, 3)));
        assert_eq!(w.pop(), Some((Time(70), 4, 4)));
        assert_eq!(w.pop(), None);
        assert_eq!(w.peak(), 4);
        // Freed entries are reused: the slab never grew past the peak.
        assert_eq!(w.slab.len(), 4);
    }

    /// Tiny deterministic xorshift; the vendored rand crate is not a
    /// dependency of lg-sim and this needs nothing fancier.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// What the model test schedules, one class per insert draw.
    #[derive(Clone, Copy)]
    enum Draw {
        /// Up to 300 ms out.
        Near,
        /// Up to 40 s out: an MRAI fire's reach.
        Mid,
        /// Up to 2^20 ms (~17 simulated minutes) out. The wheel holds 8
        /// bytes per ms of pending span, so this is where the model test
        /// caps its memory (8-16 MB); hours out would cost gigabytes.
        Far,
        /// At the last popped fire time.
        Cursor,
        /// On a power-of-two bucket-count wrap point, or one off it either
        /// way.
        Boundary,
        /// A burst of entries sharing one fire time.
        Burst,
        /// Earlier than the minimum a peek just reported, as the engine
        /// does when a delivery processed before the next fire sends.
        UnderPeek,
        /// Entries either side of a wrap point of the current bucket
        /// count, then one that doubles the count while they are pending.
        Straddle,
    }

    const DRAWS: [Draw; 8] = [
        Draw::Near,
        Draw::Mid,
        Draw::Far,
        Draw::Cursor,
        Draw::Boundary,
        Draw::Burst,
        Draw::UnderPeek,
        Draw::Straddle,
    ];

    /// Trial count of the model test: `LG_FUZZ_SEEDS` when set (CI's
    /// churn-invariants job runs 4000), else a quick default.
    fn fuzz_trials() -> u64 {
        std::env::var("LG_FUZZ_SEEDS")
            .ok()
            .map(|v| v.parse().expect("LG_FUZZ_SEEDS must be an integer"))
            .unwrap_or(16)
    }

    #[test]
    fn wheel_matches_binary_heap_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut drawn = [0u32; DRAWS.len()];
        let mut straddled = 0u32;
        for trial in 0..fuzz_trials() {
            let mut rng = XorShift(0x9E37_79B9 + trial);
            let mut wheel = TimerWheel::new();
            let mut model: BinaryHeap<Reverse<(Time, u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            // Odd trials lean far out, so the wheel grows mid-run and pops
            // scan long empty stretches, not only in the final drain.
            let far_share = if trial % 2 == 1 { 40 } else { 5 };
            for step in 0..3_000 {
                let insert = wheel.is_empty() || rng.next() % 100 < 55;
                if insert {
                    let r = rng.next() % 100;
                    let draw = if r < far_share {
                        Draw::Far
                    } else {
                        DRAWS[(r % DRAWS.len() as u64) as usize]
                    };
                    let ats: Vec<u64> = match draw {
                        Draw::Near => vec![now + 1 + rng.next() % 300],
                        Draw::Mid => vec![now + 1 + rng.next() % 40_000],
                        Draw::Far => vec![now + 1 + rng.next() % (1 << 20)],
                        Draw::Cursor => vec![now],
                        Draw::Boundary => {
                            let w = 1 << (rng.next() % 19);
                            let edge = (now / w + 1 + rng.next() % 3) * w;
                            vec![edge + rng.next() % 3 - 1]
                        }
                        Draw::Burst => {
                            let at = now + rng.next() % 5_000;
                            vec![at; 1 + (rng.next() % 32) as usize]
                        }
                        Draw::UnderPeek => {
                            let min = wheel.peek();
                            assert_eq!(
                                min,
                                model.peek().map(|Reverse((at, s, _))| (*at, *s)),
                                "peek diverged at trial {trial} step {step}"
                            );
                            let min = min.map_or(now, |(t, _)| t.millis());
                            vec![now + (min - now) / 2]
                        }
                        Draw::Straddle => {
                            // From the scan position, the next multiple of
                            // the bucket count is at most one count ahead,
                            // so its two neighbors go in without growth
                            // (bar the second when the wrap sits a full
                            // count ahead); the last insert spans a full
                            // count and doubles it. Past 2^16 buckets the
                            // doubling is left out, or repeated draws
                            // would double the memory each time.
                            let n = wheel.buckets.len().max(1) as u64;
                            let lo = if wheel.is_empty() { now } else { wheel.first };
                            let wrap = (lo / n + 1) * n;
                            let mut ats = vec![wrap - 1, wrap];
                            if n <= 1 << 16 {
                                ats.push(lo + n);
                            }
                            ats
                        }
                    };
                    drawn[draw as usize] += 1;
                    for at in ats {
                        let before = wheel.buckets.len();
                        seq += 1;
                        wheel.insert(Time(at), seq, seq);
                        model.push(Reverse((Time(at), seq, seq)));
                        let grew = wheel.buckets.len() > before && before > 0;
                        if matches!(draw, Draw::Straddle) && grew {
                            straddled += 1;
                        }
                    }
                } else {
                    assert_eq!(
                        wheel.peek(),
                        model.peek().map(|Reverse((at, s, _))| (*at, *s)),
                        "peek diverged at trial {trial} step {step}"
                    );
                    let got = wheel.pop().expect("non-empty");
                    let Reverse(want) = model.pop().expect("non-empty");
                    assert_eq!(
                        (got.0, got.1, got.2),
                        want,
                        "pop diverged at trial {trial} step {step}"
                    );
                    now = got.0.millis();
                }
                assert_eq!(wheel.len(), model.len());
            }
            // Drain; order must stay exact.
            while let Some(Reverse(want)) = model.pop() {
                let got = wheel.pop().expect("wheel drained early");
                assert_eq!((got.0, got.1, got.2), want);
            }
            assert!(wheel.is_empty());
        }
        assert!(
            drawn.iter().all(|&n| n > 0),
            "a draw class never ran: {drawn:?}"
        );
        assert!(straddled > 0, "no draw doubled the wheel across a wrap");
    }
}
