#![warn(missing_docs)]

//! `vegen-trace` — zero-dependency structured tracing for the VeGen
//! pipeline.
//!
//! The compile pipeline already reports *stage totals* (`StageTimes`,
//! `BeamStats`); this crate adds the layer below: scoped **spans**,
//! point **instants**, and sampled **counters**, recorded into
//! per-thread buffers and exported as Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`) or as folded stacks for
//! flamegraphs.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every entry point starts with one
//!    relaxed atomic load; disabled spans never read the clock and never
//!    allocate. Instrumentation can therefore live permanently in hot
//!    paths (the beam-search inner loop, the work-stealing pool).
//! 2. **Lock-free append.** Each thread owns a single-writer buffer
//!    (`ring`): an append publishes one slot with a release store — no
//!    mutex, no CAS loop, no cross-thread contention. Buffers are bounded;
//!    overflow drops the event and bumps a counter rather than blocking.
//! 3. **Observation only.** Recording has no feedback into what is being
//!    traced: enabling tracing must not change a single selected pack
//!    (pinned by the golden-packs fixture).
//!
//! ```
//! vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
//! {
//!     let _outer = vegen_trace::span("demo", "compile");
//!     let _inner = vegen_trace::span("demo", "select");
//!     vegen_trace::counter("demo", "frontier", 64.0);
//! }
//! let data = vegen_trace::drain();
//! vegen_trace::disable();
//! assert!(data.event_count() >= 3);
//! let chrome = vegen_trace::export::chrome_trace(&data).render_pretty();
//! assert!(chrome.contains("traceEvents"));
//! ```

pub mod export;
pub mod json;
pub mod metrics;
mod ring;

use ring::Ring;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread event capacity (events beyond it are dropped and
/// counted, never blocked on).
pub const DEFAULT_CAPACITY: usize = 1 << 15;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static R: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide trace epoch: all timestamps are microseconds since
/// the first trace activity.
fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Microseconds since the process-wide trace epoch — the same clock
/// trace events carry, so external consumers (the job event log,
/// flight-dump filenames) can cross-reference span timestamps exactly.
pub fn timestamp_us() -> u64 {
    now_us()
}

/// Total events dropped by ring-buffer overflow across every thread in
/// the current session. Cheap (one relaxed load per registered thread) —
/// suitable for exposition-time gauge sampling.
pub fn dropped_total() -> u64 {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter().map(|r| r.dropped()).sum()
}

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed scoped span (`ph: "X"` in Chrome trace terms).
    Span {
        /// Wall duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Category (the pipeline layer: `"driver"`, `"engine"`, `"beam"`…).
    pub cat: &'static str,
    /// Event name; static for hot-path events, owned for per-kernel spans.
    pub name: Cow<'static, str>,
    /// Span / instant / counter payload.
    pub kind: EventKind,
}

/// All events of one thread, in record order.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Stable per-session thread id (1-based registration order).
    pub tid: u64,
    /// Thread name (falls back to `thread-<tid>`).
    pub name: String,
    /// The thread's events.
    pub events: Vec<TraceEvent>,
    /// Events dropped because the buffer was full.
    pub dropped: u64,
}

/// A drained trace session: every thread's events.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Per-thread traces, ordered by `tid`.
    pub threads: Vec<ThreadTrace>,
}

impl TraceData {
    /// Total recorded events across all threads.
    pub fn event_count(&self) -> u64 {
        self.threads.iter().map(|t| t.events.len() as u64).sum()
    }

    /// Total dropped events across all threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Start a trace session with the given per-thread capacity. Any previous
/// session's buffers are discarded.
pub fn enable(capacity: usize) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.clear();
    CAPACITY.store(capacity.max(16), Ordering::Relaxed);
    // Bumping the generation invalidates every thread's cached buffer, so
    // threads from a previous session re-register into the new one.
    GENERATION.fetch_add(1, Ordering::Relaxed);
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Stop recording. Already-recorded events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is currently recording. One relaxed atomic load — cheap
/// enough to guard per-iteration instrumentation in hot loops.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    static RING: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
}

fn record(ev: TraceEvent) {
    let generation = GENERATION.load(Ordering::Relaxed);
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_ref() {
            Some((g, ring)) if *g == generation => ring.push(ev),
            _ => {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                let ring = Arc::new(Ring::new(CAPACITY.load(Ordering::Relaxed), tid, name));
                registry().lock().unwrap_or_else(|e| e.into_inner()).push(ring.clone());
                ring.push(ev);
                *slot = Some((generation, ring));
            }
        }
    });
}

/// A scoped span: created by [`span`] / [`span_owned`], records one
/// complete event (begin time + duration) when dropped. Inert — no clock
/// read, no allocation — when tracing is disabled at creation.
#[must_use = "a span records its duration when dropped; binding it to _ drops it immediately"]
pub struct Span {
    live: Option<(u64, &'static str, Cow<'static, str>)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((ts, cat, name)) = self.live.take() {
            let dur_us = now_us().saturating_sub(ts);
            record(TraceEvent { ts_us: ts, cat, name, kind: EventKind::Span { dur_us } });
        }
    }
}

/// Open a scoped span with a static name.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span { live: Some((now_us(), cat, Cow::Borrowed(name))) }
}

/// Open a scoped span with a computed name (e.g. a kernel name). Callers
/// on hot paths should guard the `format!` with [`enabled`].
#[inline]
pub fn span_owned(cat: &'static str, name: String) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span { live: Some((now_us(), cat, Cow::Owned(name))) }
}

/// Record a point-in-time marker.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        ts_us: now_us(),
        cat,
        name: Cow::Borrowed(name),
        kind: EventKind::Instant,
    });
}

/// Record a point-in-time marker with a computed name (e.g. a fault
/// site: `"fault:panic:selection:kernel"`). Callers on hot paths should
/// guard the `format!` with [`enabled`].
#[inline]
pub fn instant_owned(cat: &'static str, name: String) {
    if !enabled() {
        return;
    }
    record(TraceEvent { ts_us: now_us(), cat, name: Cow::Owned(name), kind: EventKind::Instant });
}

/// Record a counter sample.
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        ts_us: now_us(),
        cat,
        name: Cow::Borrowed(name),
        kind: EventKind::Counter { value },
    });
}

/// Snapshot every thread's events. Does not stop recording and does not
/// clear buffers; call [`disable`] (or [`enable`] for a fresh session)
/// around it at session end.
pub fn drain() -> TraceData {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut threads: Vec<ThreadTrace> = reg.iter().map(|r| r.snapshot()).collect();
    threads.sort_by_key(|t| t.tid);
    TraceData { threads }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The trace session is process-global; tests that toggle it must not
    // interleave. A poisoned lock just means a prior test panicked.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_records_nothing() {
        let _l = test_lock();
        enable(64);
        disable();
        let before = drain().event_count();
        {
            let _s = span("test", "ignored");
            instant("test", "ignored");
            counter("test", "ignored", 1.0);
        }
        assert_eq!(drain().event_count(), before);
    }

    #[test]
    fn spans_instants_and_counters_are_recorded() {
        let _l = test_lock();
        enable(1024);
        {
            let _outer = span("test", "outer");
            let _inner = span("test", "inner");
            instant("test", "tick");
            counter("test", "frontier", 42.0);
        }
        let data = drain();
        disable();
        let mine: Vec<&TraceEvent> =
            data.threads.iter().flat_map(|t| &t.events).filter(|e| e.cat == "test").collect();
        let names: Vec<&str> = mine.iter().map(|e| e.name.as_ref()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
        assert!(mine
            .iter()
            .any(|e| e.name == "frontier" && e.kind == EventKind::Counter { value: 42.0 }));
        assert!(mine.iter().any(|e| e.name == "tick" && e.kind == EventKind::Instant));
        // The inner span nests inside the outer span's interval.
        let find = |n: &str| mine.iter().find(|e| e.name == n).unwrap();
        let (outer, inner) = (find("outer"), find("inner"));
        let dur = |e: &TraceEvent| match e.kind {
            EventKind::Span { dur_us } => dur_us,
            _ => panic!("not a span"),
        };
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + dur(inner) <= outer.ts_us + dur(outer));
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let _l = test_lock();
        enable(16);
        for _ in 0..100 {
            instant("test", "burst");
        }
        let data = drain();
        disable();
        let t = data
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "burst"))
            .expect("this thread's buffer must be registered");
        assert_eq!(t.events.len(), 16);
        assert!(t.dropped >= 84, "dropped {}", t.dropped);
    }

    #[test]
    fn events_from_multiple_threads_are_drained() {
        let _l = test_lock();
        enable(1024);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _sp = span("test", "worker");
                });
            }
        });
        let data = drain();
        disable();
        let worker_threads =
            data.threads.iter().filter(|t| t.events.iter().any(|e| e.name == "worker")).count();
        assert_eq!(worker_threads, 3);
    }
}
