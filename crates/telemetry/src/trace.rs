//! Flight-recorder causal tracing: lock-free per-thread ring buffers of
//! structured events, stitched into per-incident causal chains by a
//! [`TraceId`] minted when an outage opens and threaded through the whole
//! repair lifecycle (monitor open → isolation → planner decision → poison
//! propagation → quiescence → sentinel heal → unpoison).
//!
//! # Design
//!
//! * **Recording is a seqlock write into a thread-owned slot.** Each thread
//!   lazily registers a fixed-capacity [`ThreadRing`] with the process
//!   [`Recorder`]; events are POD ([`TraceEvent`] is `Copy`, names are
//!   `&'static str`, dynamic strings truncate into an inline buffer) so a
//!   write is: bump a sequence to odd, copy the payload, bump to even.
//!   No allocation, no locks, no CAS on the hot path. Overwrite-oldest:
//!   a full ring silently reclaims its oldest slot.
//! * **Snapshots tolerate tearing.** A reader validates each slot's
//!   sequence before and after a volatile copy (the crossbeam seqlock
//!   recipe) and simply skips slots the writer is mid-overwrite on.
//! * **Disabled is a branch on null.** The recorder lives behind a global
//!   `AtomicPtr` that starts null; every recording helper begins with one
//!   relaxed-ish load and an early return, so uninstrumented runs pay a
//!   single predictable branch per site.
//! * **Trace context is ambient.** [`scope`] installs a [`TraceId`] in a
//!   thread-local; spans and instants recorded underneath inherit it, so
//!   deep callees (the planner, the compute layer, the prober) need no
//!   signature changes to participate in a causal chain.
//!
//! Export via [`export_chrome`] (Chrome/Perfetto `trace.json`: spans as
//! complete duration events, one track per thread, trace id in `args`) or
//! programmatically via [`Recorder::snapshot`] / [`Recorder::events_for`].

use std::cell::{Cell, OnceCell, UnsafeCell};
use std::fmt;
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread ring capacity (events): what `--trace` enables the
/// recorder at (see [`crate::Artifacts`]).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

/// Identifier tying every event of one repair lifecycle together.
///
/// Minted once per incident ([`TraceId::mint`]) when the monitor opens an
/// outage, carried on the core event log, and installed as the ambient
/// [`scope`] around the repair machinery so nested spans inherit it.
/// `TraceId::NONE` (zero) marks events outside any causal chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace: an event not attributed to any incident.
    pub const NONE: TraceId = TraceId(0);

    /// Mint a process-unique trace id (never `NONE`).
    pub fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this is the null trace.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Maximum bytes an inline (dynamic) string value can carry.
pub const INLINE_STR_CAP: usize = 40;

/// A fixed-capacity string that keeps [`TraceEvent`] `Copy`: dynamic
/// strings (planner reject reasons, annotations) truncate at a UTF-8
/// boundary rather than allocate.
#[derive(Clone, Copy)]
pub struct InlineStr {
    len: u8,
    bytes: [u8; INLINE_STR_CAP],
}

impl InlineStr {
    /// Build from `s`, truncating to [`INLINE_STR_CAP`] bytes at a char
    /// boundary.
    pub fn truncate_from(s: &str) -> InlineStr {
        let mut end = s.len().min(INLINE_STR_CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; INLINE_STR_CAP];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        InlineStr {
            len: end as u8,
            bytes,
        }
    }

    /// View as `&str` (empty if the stored bytes are somehow invalid).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).unwrap_or("")
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Opening edge of a duration span (closed by a matching `SpanEnd`
    /// with the same name on the same thread).
    SpanBegin,
    /// Closing edge of a duration span.
    SpanEnd,
    /// A point event (optionally carrying a value, e.g. sim-time millis).
    Instant,
    /// A key/value annotation attached to the ambient trace.
    Annot,
}

/// Optional payload on an event.
#[derive(Clone, Copy, Debug)]
pub enum TraceValue {
    /// No payload.
    None,
    /// Numeric payload (sim-time millis, counts).
    U64(u64),
    /// Short string payload (reject reasons), truncated to fit inline.
    Str(InlineStr),
}

/// One recorded event. `Copy` + fixed-size by construction so the seqlock
/// write is a plain memcpy with no destructor or allocation.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Monotonic wall-clock tick, nanoseconds since the recorder was
    /// enabled.
    pub tick_ns: u64,
    /// Causal chain this event belongs to (`TraceId::NONE` if ambient).
    pub trace: TraceId,
    /// Event flavour.
    pub kind: TraceKind,
    /// Static event or span name (`subsystem.event` dotted style).
    pub name: &'static str,
    /// Optional payload.
    pub value: TraceValue,
}

// ---------------------------------------------------------------------------
// The per-thread seqlock ring
// ---------------------------------------------------------------------------

struct Slot {
    /// Seqlock word: `2*gen + 1` while generation `gen` is being written,
    /// `2*gen + 2` once it is published. Starts at 1 (matches no
    /// generation).
    seq: AtomicU64,
    ev: UnsafeCell<MaybeUninit<TraceEvent>>,
}

// SAFETY: `ev` is only written by the ring's single owning thread; readers
// validate `seq` before and after a volatile copy and discard torn reads
// (the crossbeam seqlock recipe), so cross-thread access never observes a
// half-written payload as valid.
unsafe impl Sync for Slot {}

/// A single-writer, many-reader ring of [`TraceEvent`]s.
///
/// The owning thread appends with [`ThreadRing::push`]; any thread may
/// [`ThreadRing::collect`] a consistent-per-slot snapshot concurrently.
/// Capacity is fixed at construction (rounded up to a power of two);
/// once full, each push overwrites the oldest event.
///
/// **Single-writer discipline:** `push` must only ever be called from one
/// thread at a time (the recorder enforces this by handing each thread its
/// own ring through a thread-local). Concurrent pushers are a data race.
pub struct ThreadRing {
    tid: u64,
    label: String,
    mask: u64,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: see `Slot` — the seqlock protocol makes shared reads sound.
unsafe impl Send for ThreadRing {}
unsafe impl Sync for ThreadRing {}

impl ThreadRing {
    /// Ring with room for `capacity` events (rounded up to a power of
    /// two, minimum 8), tagged with a display `tid`/`label`.
    pub fn new(capacity: usize, tid: u64, label: String) -> ThreadRing {
        let cap = capacity.next_power_of_two().max(8);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(1),
                ev: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ThreadRing {
            tid,
            label,
            mask: (cap - 1) as u64,
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Display id for this ring's track.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Human label (thread name) for this ring's track.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Append an event, overwriting the oldest if full. Owning thread
    /// only — see the type-level single-writer discipline.
    #[inline]
    pub fn push(&self, ev: TraceEvent) {
        let gen = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(gen & self.mask) as usize];
        // Seqlock write: odd marks in-progress, fence orders the payload
        // store after it, even publishes (crossbeam-utils seq_lock.rs).
        slot.seq
            .store(gen.wrapping_mul(2).wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: single writer (this thread); readers discard torn data.
        unsafe { (*slot.ev.get()).write(ev) };
        slot.seq
            .store(gen.wrapping_mul(2).wrapping_add(2), Ordering::Release);
        self.cursor.store(gen + 1, Ordering::Release);
    }

    /// Events pushed so far (monotone; may exceed capacity).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    fn read_gen(&self, gen: u64) -> Option<TraceEvent> {
        let slot = &self.slots[(gen & self.mask) as usize];
        let want = gen.wrapping_mul(2).wrapping_add(2);
        if slot.seq.load(Ordering::Acquire) != want {
            return None;
        }
        // SAFETY: the slot may be concurrently overwritten; we copy it
        // volatile and only trust the bytes if `seq` still names the same
        // generation afterwards (so the copy happened entirely inside one
        // published generation).
        let ev = unsafe { std::ptr::read_volatile(slot.ev.get()) };
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != want {
            return None;
        }
        // SAFETY: validated above — generation `gen` was fully published
        // before the copy began and had not been reclaimed when it ended.
        Some(unsafe { ev.assume_init() })
    }

    /// Snapshot the surviving events, oldest first. Slots mid-overwrite
    /// by the racing writer are skipped, never torn.
    pub fn collect(&self) -> Vec<TraceEvent> {
        let hi = self.cursor.load(Ordering::Acquire);
        let lo = hi.saturating_sub(self.slots.len() as u64);
        (lo..hi).filter_map(|gen| self.read_gen(gen)).collect()
    }
}

// ---------------------------------------------------------------------------
// The process recorder
// ---------------------------------------------------------------------------

/// One thread's slice of a [`Recorder::snapshot`].
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    /// Track id (registration order).
    pub tid: u64,
    /// Thread name at registration time.
    pub label: String,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// The process-wide flight recorder: a registry of per-thread rings plus
/// the monotonic epoch all ticks are measured from.
///
/// Install with [`enable`]; until then every recording helper is a branch
/// on a null pointer. Once installed it lives for the process.
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
}

impl Recorder {
    fn new(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            capacity: capacity.next_power_of_two().max(8),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was enabled.
    #[inline]
    pub fn tick_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per-thread ring capacity (events).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn register_thread(&self) -> Arc<ThreadRing> {
        let label = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        let mut threads = self.threads.lock().unwrap();
        let ring = Arc::new(ThreadRing::new(self.capacity, threads.len() as u64, label));
        threads.push(Arc::clone(&ring));
        ring
    }

    #[inline]
    fn record(&self, kind: TraceKind, name: &'static str, trace: TraceId, value: TraceValue) {
        let ev = TraceEvent {
            tick_ns: self.tick_ns(),
            trace,
            kind,
            name,
            value,
        };
        // try_with: a span guard dropping during thread teardown must not
        // panic; losing its end event is acceptable.
        let _ = THREAD_RING.try_with(|cell| {
            cell.get_or_init(|| self.register_thread()).push(ev);
        });
    }

    /// Freeze every thread's ring, one [`ThreadEvents`] per registered
    /// thread in registration order.
    pub fn snapshot(&self) -> Vec<ThreadEvents> {
        let threads = self.threads.lock().unwrap();
        threads
            .iter()
            .map(|r| ThreadEvents {
                tid: r.tid(),
                label: r.label().to_string(),
                events: r.collect(),
            })
            .collect()
    }

    /// All surviving events carrying `trace`, merged across threads and
    /// sorted by tick. The per-incident causal chain, ready to assert on.
    pub fn events_for(&self, trace: TraceId) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .snapshot()
            .into_iter()
            .flat_map(|t| t.events)
            .filter(|e| e.trace == trace)
            .collect();
        out.sort_by_key(|e| e.tick_ns);
        out
    }
}

static RECORDER: AtomicPtr<Recorder> = AtomicPtr::new(std::ptr::null_mut());

thread_local! {
    static THREAD_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The installed recorder, or `None` when tracing is disabled. This is
/// the whole cost of a disabled site: one atomic load and a null check.
#[inline]
pub fn recorder() -> Option<&'static Recorder> {
    let p = RECORDER.load(Ordering::Acquire);
    // SAFETY: a non-null pointer was leaked by `enable` and is never freed.
    if p.is_null() {
        None
    } else {
        Some(unsafe { &*p })
    }
}

/// Whether tracing is enabled.
#[inline]
pub fn enabled() -> bool {
    !RECORDER.load(Ordering::Acquire).is_null()
}

/// Install the process recorder with `capacity` events per thread ring
/// (rounded up to a power of two). Idempotent: the first caller wins and
/// later calls return the existing recorder unchanged.
pub fn enable(capacity: usize) -> &'static Recorder {
    let fresh = Box::into_raw(Box::new(Recorder::new(capacity)));
    match RECORDER.compare_exchange(
        std::ptr::null_mut(),
        fresh,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        // SAFETY: we just leaked `fresh`; it is never freed.
        Ok(_) => unsafe { &*fresh },
        Err(existing) => {
            // SAFETY: `fresh` lost the race and was never shared.
            drop(unsafe { Box::from_raw(fresh) });
            // SAFETY: `existing` is a leaked recorder, never freed.
            unsafe { &*existing }
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient trace context
// ---------------------------------------------------------------------------

/// RAII guard restoring the previous ambient trace on drop (see [`scope`]).
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let _ = CURRENT_TRACE.try_with(|c| c.set(self.prev));
    }
}

/// Install `trace` as this thread's ambient trace until the returned
/// guard drops. Spans, instants, and annotations recorded underneath
/// inherit it without any signature plumbing. Nests: the previous scope
/// is restored on drop.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(trace: TraceId) -> TraceScope {
    let prev = CURRENT_TRACE
        .try_with(|c| c.replace(trace.0))
        .unwrap_or_default();
    TraceScope { prev }
}

/// The ambient trace installed by the innermost live [`scope`]
/// (`TraceId::NONE` outside any scope).
#[inline]
pub fn current() -> TraceId {
    TraceId(CURRENT_TRACE.try_with(Cell::get).unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records `SpanBegin` at construction ([`span`]) and the
/// matching `SpanEnd` on drop — including during unwinding, so a panicked
/// region still closes its span in the trace.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    trace: TraceId,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            if let Some(rec) = recorder() {
                rec.record(TraceKind::SpanEnd, self.name, self.trace, TraceValue::None);
            }
        }
    }
}

/// Open a duration span named `name` under the ambient trace. Inert (no
/// recording, no drop work) while tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    match recorder() {
        Some(rec) => {
            let trace = current();
            rec.record(TraceKind::SpanBegin, name, trace, TraceValue::None);
            SpanGuard {
                name,
                trace,
                armed: true,
            }
        }
        None => SpanGuard {
            name,
            trace: TraceId::NONE,
            armed: false,
        },
    }
}

/// Record a point event under the ambient trace.
#[inline]
pub fn instant(name: &'static str) {
    if let Some(rec) = recorder() {
        rec.record(TraceKind::Instant, name, current(), TraceValue::None);
    }
}

/// Record a point event carrying a numeric value (e.g. a count) under
/// the ambient trace.
#[inline]
pub fn instant_value(name: &'static str, value: u64) {
    if let Some(rec) = recorder() {
        rec.record(TraceKind::Instant, name, current(), TraceValue::U64(value));
    }
}

/// Record a point event for an explicit trace, carrying a numeric value
/// (the repair lifecycle stamps sim-time millis here so the exported
/// chain reconstructs the downtime breakdown).
#[inline]
pub fn instant_for(trace: TraceId, name: &'static str, value: u64) {
    if let Some(rec) = recorder() {
        rec.record(TraceKind::Instant, name, trace, TraceValue::U64(value));
    }
}

/// Attach a string annotation (truncated to [`INLINE_STR_CAP`] bytes) to
/// the ambient trace. Callers formatting a dynamic string should guard on
/// [`enabled`] first to keep the disabled path allocation-free.
#[inline]
pub fn annot_str(key: &'static str, value: &str) {
    if let Some(rec) = recorder() {
        rec.record(
            TraceKind::Annot,
            key,
            current(),
            TraceValue::Str(InlineStr::truncate_from(value)),
        );
    }
}

/// Attach a string annotation to an explicit trace.
#[inline]
pub fn annot_str_for(trace: TraceId, key: &'static str, value: &str) {
    if let Some(rec) = recorder() {
        rec.record(
            TraceKind::Annot,
            key,
            trace,
            TraceValue::Str(InlineStr::truncate_from(value)),
        );
    }
}

/// Attach a numeric annotation to the ambient trace.
#[inline]
pub fn annot_u64(key: &'static str, value: u64) {
    if let Some(rec) = recorder() {
        rec.record(TraceKind::Annot, key, current(), TraceValue::U64(value));
    }
}

/// Attach a numeric annotation to an explicit trace.
#[inline]
pub fn annot_u64_for(trace: TraceId, key: &'static str, value: u64) {
    if let Some(rec) = recorder() {
        rec.record(TraceKind::Annot, key, trace, TraceValue::U64(value));
    }
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto export
// ---------------------------------------------------------------------------

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_micros(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_args(out: &mut String, trace: TraceId, value: &TraceValue) {
    out.push_str("{\"trace\":");
    let _ = write!(out, "{}", trace.0);
    match value {
        TraceValue::None => {}
        TraceValue::U64(v) => {
            let _ = write!(out, ",\"value\":{v}");
        }
        TraceValue::Str(s) => {
            out.push_str(",\"value\":");
            push_json_string(out, s.as_str());
        }
    }
    out.push('}');
}

/// Render a [`Recorder::snapshot`] as Chrome trace-event JSON (the
/// `trace.json` format Perfetto and `chrome://tracing` open directly).
///
/// Spans become `"X"` complete events (begin/end pairs matched LIFO per
/// thread by name; pairs whose begin edge was overwritten in the ring are
/// dropped), instants and annotations become `"i"` events, and every
/// event carries its trace id in `args.trace`. One track per recorded
/// thread, labelled with the thread name.
pub fn export_chrome(threads: &[ThreadEvents]) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for t in threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
            t.tid
        );
        push_json_string(&mut out, &t.label);
        out.push_str("}}");

        // Open spans on this thread: (name, trace, begin tick).
        let mut stack: Vec<(&'static str, TraceId, u64)> = Vec::new();
        for ev in &t.events {
            match ev.kind {
                TraceKind::SpanBegin => stack.push((ev.name, ev.trace, ev.tick_ns)),
                TraceKind::SpanEnd => {
                    // Match LIFO by name; an end whose begin was
                    // overwritten (ring wrapped mid-span) is dropped.
                    let Some(pos) = stack.iter().rposition(|&(n, _, _)| n == ev.name) else {
                        continue;
                    };
                    let (name, trace, begin) = stack[pos];
                    stack.truncate(pos);
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"span\",\"name\":",
                        t.tid
                    );
                    push_json_string(&mut out, name);
                    out.push_str(",\"ts\":");
                    push_micros(&mut out, begin);
                    out.push_str(",\"dur\":");
                    push_micros(&mut out, ev.tick_ns.saturating_sub(begin));
                    out.push_str(",\"args\":");
                    push_args(&mut out, trace, &TraceValue::None);
                    out.push('}');
                }
                TraceKind::Instant | TraceKind::Annot => {
                    sep(&mut out);
                    let cat = if matches!(ev.kind, TraceKind::Annot) {
                        "annot"
                    } else {
                        "instant"
                    };
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"s\":\"t\",\"cat\":\"{cat}\",\"name\":",
                        t.tid
                    );
                    push_json_string(&mut out, ev.name);
                    out.push_str(",\"ts\":");
                    push_micros(&mut out, ev.tick_ns);
                    out.push_str(",\"args\":");
                    push_args(&mut out, ev.trace, &ev.value);
                    out.push('}');
                }
            }
        }
    }
    out.push_str("\n]\n}\n");
    out
}
