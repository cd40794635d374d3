//! Simulated time, and a hierarchical timer wheel over it.

use std::collections::BinaryHeap;
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

/// Slots per wheel level.
const WHEEL_SLOTS: usize = 64;
/// Number of levels; level `k` slots are `64^k` ms wide, so four levels
/// span `64^4` ms (~4.7 simulated hours) before entries hit the overflow
/// list. MRAI timers (tens of seconds) live in levels 0-2.
const WHEEL_LEVELS: usize = 4;
/// Slot width per level, in ms.
const WHEEL_WIDTH: [u64; WHEEL_LEVELS] = [1, 64, 4096, 262_144];
/// Window span per level (64 slots), in ms.
const WHEEL_SPAN: [u64; WHEEL_LEVELS] = [64, 4096, 262_144, 16_777_216];

#[derive(Clone, Debug)]
struct WheelEntry<T> {
    at: Time,
    seq: u64,
    item: T,
}

// Entries order by (at, seq) alone, REVERSED, so the std max-heap
// yields the earliest timer first. `(at, seq)` uniqueness (caller
// contract) keeps Eq consistent with identity.
impl<T> PartialEq for WheelEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for WheelEntry<T> {}

impl<T> PartialOrd for WheelEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for WheelEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A hierarchical timer wheel ordered by `(fire time, sequence)`.
///
/// Level `k` covers the *aligned* `64^(k+1)`-ms window containing the
/// cursor; an entry is filed at the smallest level whose window contains
/// its fire time, at slot `(fire / 64^k) % 64`. Because windows are
/// aligned (never wrapped), slot indexes at one level are monotone in
/// time, so the earliest pending entry at a level always sits in its
/// lowest occupied slot — a per-level occupancy bitmap finds it with one
/// `trailing_zeros`. [`TimerWheel::peek`] is therefore read-only (no
/// speculative cascading), which keeps the structure correct when the
/// caller interleaves it with other event sources and inserts timers
/// *earlier* than the currently earliest pending one.
///
/// [`TimerWheel::pop`] advances the cursor to the popped entry's fire
/// time and cascades the higher-level slot it came from down one level at
/// a time, so slots stay small and popping all `n` timers costs O(n)
/// amortized plus bitmap scans — the "pop due peers in O(due)" property
/// the dynamic engine's MRAI machinery needs.
///
/// Caller contract: inserts never fire earlier than the cursor (i.e. you
/// only schedule into the future, where "now" never precedes the last
/// pop), and `(at, seq)` pairs are unique. Both hold for the dynamic
/// engine, which allocates `seq` from a global monotone counter.
pub struct TimerWheel<T> {
    /// Each slot is a min-heap on `(at, seq)` (reversed `Ord` on
    /// [`WheelEntry`]), so the slot minimum is an O(1) peek and dense
    /// same-band timer bursts don't degrade peek/pop to linear slot
    /// scans.
    levels: [[BinaryHeap<WheelEntry<T>>; WHEEL_SLOTS]; WHEEL_LEVELS],
    occupancy: [u64; WHEEL_LEVELS],
    /// Entries beyond the top level's window (same min-heap order).
    overflow: BinaryHeap<WheelEntry<T>>,
    /// Cursor: fire time of the last popped entry (ms).
    current: u64,
    len: usize,
    /// Higher-level slots re-filed down a level so far (see
    /// [`TimerWheel::cascades`]).
    cascades: u64,
    /// Memoized [`TimerWheel::peek`] result. `Some` is always the true
    /// minimum; `None` means "recompute on the next peek". Inserts can
    /// only lower the minimum (min-compare keeps the cache exact), pops
    /// remove it (invalidate). Interior mutability so `peek` stays
    /// `&self`.
    cached_min: std::cell::Cell<Option<(Time, u64)>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            levels: std::array::from_fn(|_| std::array::from_fn(|_| BinaryHeap::new())),
            occupancy: [0; WHEEL_LEVELS],
            overflow: BinaryHeap::new(),
            current: 0,
            len: 0,
            cascades: 0,
            cached_min: std::cell::Cell::new(None),
        }
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at the epoch.
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

    /// How many times a pop has re-filed a higher-level slot one level
    /// down: the wheel's own overhead beyond one filing per timer, and
    /// what grows when timers sit far ahead of the cursor.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// End of the level-`k` aligned window for the current cursor.
    fn window_end(&self, k: usize) -> u64 {
        (self.current / WHEEL_SPAN[k] + 1).saturating_mul(WHEEL_SPAN[k])
    }

    /// File an entry at the smallest level whose window contains it.
    fn place(&mut self, e: WheelEntry<T>) {
        let t = e.at.millis();
        for (k, &width) in WHEEL_WIDTH.iter().enumerate() {
            if t < self.window_end(k) {
                let slot = ((t / width) % WHEEL_SLOTS as u64) as usize;
                debug_assert!(
                    slot as u64 >= (self.current / width) % WHEEL_SLOTS as u64,
                    "entry filed behind the cursor"
                );
                self.levels[k][slot].push(e);
                self.occupancy[k] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Schedule `item` to fire at `at`. `at` must not precede the cursor
    /// (the last popped fire time) and `(at, seq)` must be unique.
    pub fn insert(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(
            at.millis() >= self.current,
            "timer scheduled before the wheel cursor"
        );
        self.place(WheelEntry { at, seq, item });
        self.len += 1;
        match self.cached_min.get() {
            Some(m) if m <= (at, seq) => {}
            _ if self.len == 1 => self.cached_min.set(Some((at, seq))),
            Some(_) => self.cached_min.set(Some((at, seq))),
            None => {}
        }
    }

    /// The earliest pending `(fire time, seq)`, without popping. Read-only:
    /// never advances the cursor, so timers earlier than the current
    /// minimum may still be inserted afterwards.
    pub fn peek(&self) -> Option<(Time, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.cached_min.get() {
            return Some(m);
        }
        let mut best: Option<(Time, u64)> = None;
        for k in 0..WHEEL_LEVELS {
            if self.occupancy[k] == 0 {
                continue;
            }
            let slot = self.occupancy[k].trailing_zeros() as usize;
            let e = self.levels[k][slot]
                .peek()
                .expect("occupied slot is non-empty");
            let m = (e.at, e.seq);
            best = Some(best.map_or(m, |b| b.min(m)));
        }
        if let Some(e) = self.overflow.peek() {
            let m = (e.at, e.seq);
            best = Some(best.map_or(m, |b| b.min(m)));
        }
        self.cached_min.set(best);
        best
    }

    /// Pop the earliest pending timer, advancing the cursor to its fire
    /// time and lazily cascading the higher-level slot it lived in.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let (at, seq) = self.peek()?;
        self.current = at.millis();
        loop {
            // Locate the slot holding the minimum: at each level that's
            // the lowest occupied slot, and `(at, seq)` uniqueness means
            // the slot whose min-heap root matches holds the entry.
            let mut found = None;
            for k in 0..WHEEL_LEVELS {
                if self.occupancy[k] == 0 {
                    continue;
                }
                let slot = self.occupancy[k].trailing_zeros() as usize;
                let root = self.levels[k][slot]
                    .peek()
                    .expect("occupied slot is non-empty");
                if root.at == at && root.seq == seq {
                    found = Some((k, slot));
                    break;
                }
            }
            match found {
                Some((0, slot)) => {
                    let e = self.levels[0][slot].pop().expect("located entry");
                    if self.levels[0][slot].is_empty() {
                        self.occupancy[0] &= !(1u64 << slot);
                    }
                    self.len -= 1;
                    self.cached_min.set(None);
                    return Some((e.at, e.seq, e.item));
                }
                Some((k, slot)) => {
                    // With the cursor now inside this slot's range, the
                    // slot's range *is* the level-(k-1) window, so every
                    // entry re-files at least one level down: strict
                    // progress toward level 0.
                    let entries = std::mem::take(&mut self.levels[k][slot]);
                    self.occupancy[k] &= !(1u64 << slot);
                    self.cascades += 1;
                    for e in entries {
                        self.place(e);
                    }
                }
                None => {
                    // No level slot holds it, so the minimum lives in the
                    // overflow — and is its heap root.
                    let e = self
                        .overflow
                        .pop()
                        .expect("peeked entry must exist somewhere");
                    debug_assert!(e.at == at && e.seq == seq);
                    self.len -= 1;
                    self.cached_min.set(None);
                    return Some((e.at, e.seq, e.item));
                }
            }
        }
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
        // Deliberately straddle level boundaries: same-ms ties, a level-1
        // entry, a level-2 entry, and an overflow entry.
        w.insert(Time(50), 3, "a");
        w.insert(Time(50), 1, "b");
        w.insert(Time(200), 2, "c");
        w.insert(Time(5_000), 4, "d");
        w.insert(Time(20_000_000), 5, "e");
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.millis(), seq, item));
        }
        assert_eq!(
            out,
            vec![
                (50, 1, "b"),
                (50, 3, "a"),
                (200, 2, "c"),
                (5_000, 4, "d"),
                (20_000_000, 5, "e"),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_counts_cascades() {
        // 10 and 63 sit in level 0 from the start; 100 in level-1 slot 1,
        // 5,000 in level-2 slot 1. Popping each of the last two re-files
        // its slot once: the cursor has moved to the entry's own time, so
        // it lands straight in level 0.
        let mut w = TimerWheel::new();
        for (seq, at) in [10, 63, 100, 5_000].into_iter().enumerate() {
            w.insert(Time(at), seq as u64, ());
        }
        let mut cascades = Vec::new();
        while w.pop().is_some() {
            cascades.push(w.cascades());
        }
        assert_eq!(cascades, vec![0, 0, 1, 2]);
    }

    #[test]
    fn wheel_accepts_inserts_earlier_than_pending_minimum() {
        // peek must not speculatively advance the cursor: after observing
        // a far-future minimum, a nearer timer can still be scheduled (the
        // dynamic engine does exactly this when a heap event processed
        // before the next MRAI fire defers a new update).
        let mut w = TimerWheel::new();
        w.insert(Time(10_000), 1, 1u32);
        assert_eq!(w.peek(), Some((Time(10_000), 1)));
        w.insert(Time(70), 2, 2u32);
        assert_eq!(w.peek(), Some((Time(70), 2)));
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
        assert_eq!(w.pop().map(|e| e.2), None);
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
        /// Level 0-1 (up to 300 ms out).
        Near,
        /// Level 2 (up to 40 s out).
        Mid,
        /// Level 3 and the overflow heap (up to ~8 simulated hours out).
        Far,
        /// At the cursor itself: the last popped fire time.
        Cursor,
        /// On a slot or level boundary (a multiple of 64, 4,096, 262,144
        /// or 64^4 ms) or one off it either way.
        Boundary,
        /// A burst of entries sharing one fire time.
        Burst,
        /// Earlier than the minimum a peek just reported, as the engine
        /// does when a delivery processed before the next fire defers.
        UnderPeek,
    }

    const DRAWS: [Draw; 7] = [
        Draw::Near,
        Draw::Mid,
        Draw::Far,
        Draw::Cursor,
        Draw::Boundary,
        Draw::Burst,
        Draw::UnderPeek,
    ];

    #[test]
    fn wheel_matches_binary_heap_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut drawn = [0u32; DRAWS.len()];
        for trial in 0..16u64 {
            let mut rng = XorShift(0x9E37_79B9 + trial);
            let mut wheel = TimerWheel::new();
            let mut model: BinaryHeap<Reverse<(Time, u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            // Odd trials lean far out, so pops mid-run cascade from levels
            // 2-3 and drain the overflow, not only the final drain.
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
                    let (at, count) = match draw {
                        Draw::Near => (now + 1 + rng.next() % 300, 1),
                        Draw::Mid => (now + 1 + rng.next() % 40_000, 1),
                        Draw::Far => (now + 1 + rng.next() % 30_000_000, 1),
                        Draw::Cursor => (now, 1),
                        Draw::Boundary => {
                            let w = [64, 4_096, 262_144, 16_777_216][(rng.next() % 4) as usize];
                            let edge = (now / w + 1 + rng.next() % 3) * w;
                            (edge + rng.next() % 3 - 1, 1)
                        }
                        Draw::Burst => (now + rng.next() % 5_000, 1 + rng.next() % 32),
                        Draw::UnderPeek => {
                            let min = wheel.peek();
                            assert_eq!(
                                min,
                                model.peek().map(|Reverse((at, s, _))| (*at, *s)),
                                "peek diverged at trial {trial} step {step}"
                            );
                            let min = min.map_or(now, |(t, _)| t.millis());
                            (now + (min - now) / 2, 1)
                        }
                    };
                    drawn[draw as usize] += 1;
                    for _ in 0..count {
                        seq += 1;
                        wheel.insert(Time(at), seq, seq);
                        model.push(Reverse((Time(at), seq, seq)));
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
    }
}
