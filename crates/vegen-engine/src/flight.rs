//! Fault flight recorder: a continuously running trace ring that dumps
//! the recent past whenever something goes wrong.
//!
//! Serve mode (and the suite, when `--flight-dir` is given) keeps the
//! per-thread trace rings of [`vegen_trace`] recording at all times. The
//! rings are bounded and *drop* on overflow (they never wrap — that is
//! what makes concurrent snapshotting sound), so "the last N seconds" is
//! implemented by **double-buffer rotation**: every [`FLIGHT_WINDOW`], the
//! current session is drained into a held *previous* snapshot and the
//! rings are reset ([`vegen_trace::enable`] bumps the session generation,
//! so every thread re-registers into fresh buffers). A dump therefore
//! always covers between one and two windows of history. A recorder that
//! found a session already running (the suite's `--trace`) records into
//! it and never rotates, so it cannot truncate that trace.
//!
//! Dump triggers (wired in the engine and the serve loop):
//!
//! * a job that ends [`crate::Rung::Failed`];
//! * any caught **panic** on the way down the degradation ladder (even
//!   when a lower rung recovered the job);
//! * serve-daemon shutdown (one final dump, reason `shutdown`).
//!
//! Each dump is a self-contained Chrome-trace JSON file
//! (`flight-<ts_us>-<seq>.json`) with two extra top-level keys: `reason`,
//! and `jobEvents` — the event log's in-memory tail — so the spans and
//! the job lifecycle around the fault land in one artifact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vegen_trace::json::Json;
use vegen_trace::TraceData;

/// Per-thread ring capacity for flight recording — larger than the trace
/// default because the rings run continuously between rotations.
const FLIGHT_CAPACITY: usize = 1 << 16;

/// Rotation window: a dump covers between one and two windows of trace
/// history.
pub const FLIGHT_WINDOW: Duration = Duration::from_secs(30);

struct State {
    /// The previous window's drained events.
    prev: TraceData,
    last_rotate: Instant,
    seq: u64,
}

/// A continuously recording trace window with fault-triggered dumps (see
/// the module docs).
pub struct FlightRecorder {
    dir: PathBuf,
    /// Whether this recorder started the trace session and so may reset
    /// it. One that attached to a live session (the suite's `--trace`,
    /// which drains it at exit) never does.
    rotate: bool,
    state: Mutex<State>,
    dumps: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("dir", &self.dir)
            .field("rotate", &self.rotate)
            .field("dumps", &self.dumps.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Create the dump directory and start recording: enables tracing at
    /// [`FLIGHT_CAPACITY`] unless a session is already running, which is
    /// left untouched — this recorder then never resets it.
    ///
    /// # Errors
    ///
    /// Returns a description when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<FlightRecorder, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create flight dir {}: {e}", dir.display()))?;
        let rotate = !vegen_trace::enabled();
        if rotate {
            vegen_trace::enable(FLIGHT_CAPACITY);
        }
        Ok(FlightRecorder {
            dir: dir.to_path_buf(),
            rotate,
            state: Mutex::new(State {
                prev: TraceData::default(),
                last_rotate: Instant::now(),
                seq: 0,
            }),
            dumps: AtomicU64::new(0),
        })
    }

    /// The directory dumps are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Rotate the double buffer if a window has elapsed: drain the
    /// current session into `prev` and reset the rings. Called
    /// opportunistically from the engine's per-job wrapper — cheap when
    /// the window has not elapsed (one mutex lock and an `Instant`
    /// comparison).
    pub fn maybe_rotate(&self) {
        if !self.rotate {
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.last_rotate.elapsed() < FLIGHT_WINDOW {
            return;
        }
        st.prev = vegen_trace::drain();
        vegen_trace::enable(FLIGHT_CAPACITY);
        st.last_rotate = Instant::now();
        vegen_trace::metrics::counter("flight_rotations_total").inc();
    }

    /// Write one dump: the previous window plus the live session as a
    /// Chrome trace, with `reason` and the event-log tail attached.
    /// Returns the written path.
    ///
    /// # Errors
    ///
    /// Returns a description when the file cannot be written; callers
    /// treat that as a recoverable fault, never a job failure.
    pub fn dump(&self, reason: &str, event_tail: &[String]) -> Result<PathBuf, String> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let current = vegen_trace::drain();
        let mut threads = st.prev.threads.clone();
        threads.extend(current.threads);
        threads.sort_by_key(|t| t.tid);
        let merged = TraceData { threads };

        let mut doc = vegen_trace::export::chrome_trace(&merged);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("reason".to_string(), Json::str(reason)));
            pairs.push((
                "jobEvents".to_string(),
                Json::Arr(
                    event_tail
                        .iter()
                        .map(|line| Json::parse(line).unwrap_or_else(|_| Json::str(line.clone())))
                        .collect(),
                ),
            ));
        }

        st.seq += 1;
        let path =
            self.dir.join(format!("flight-{:012}-{:03}.json", vegen_trace::timestamp_us(), st.seq));
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("write flight dump {}: {e}", path.display()))?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        vegen_trace::metrics::counter("flight_dumps_total").inc();
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace session is process-wide; these tests take turns with it.
    static SESSION: Mutex<()> = Mutex::new(());

    #[test]
    fn dump_writes_a_chrome_trace_with_reason_and_events() {
        let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("vegen-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::open(&dir).unwrap();
        {
            let _sp = vegen_trace::span("test", "flight_span");
        }
        let tail = vec![r#"{"event":"faulted","corr":"c000042"}"#.to_string()];
        let path = rec.dump("job_failed", &tail).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("flight-"));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("job_failed"));
        let events = doc.get("jobEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("corr").unwrap().as_str(), Some("c000042"));
        assert!(doc.get("traceEvents").is_some());
        assert_eq!(rec.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether a span recorded before a due rotation is still in the live
    /// session after it, for a recorder opened with tracing `live` or off.
    fn survives_a_due_rotation(live: bool, tag: &str) -> bool {
        let dir = std::env::temp_dir().join(format!("vegen-flight-{tag}-{}", std::process::id()));
        if live {
            vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
        } else {
            vegen_trace::disable();
        }
        let rec = FlightRecorder::open(&dir).unwrap();
        {
            let _sp = vegen_trace::span("test", "before_rotation");
        }
        let due = Instant::now().checked_sub(FLIGHT_WINDOW + Duration::from_secs(1));
        let due = due.expect("the monotonic clock is older than one window");
        rec.state.lock().unwrap().last_rotate = due;
        rec.maybe_rotate();
        let kept = vegen_trace::drain()
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.name == "before_rotation");
        vegen_trace::disable();
        let _ = std::fs::remove_dir_all(&dir);
        kept
    }

    #[test]
    fn a_recorder_opened_over_a_live_session_never_resets_it() {
        let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        assert!(survives_a_due_rotation(true, "attached"));
        // The recorder that started its own session does rotate it.
        assert!(!survives_a_due_rotation(false, "owned"));
    }
}
