//! The job-event vocabulary and the structured event log it is written
//! to: one NDJSON line per job lifecycle event, threaded by correlation
//! id.
//!
//! Every job — batch or serve — is assigned a process-unique correlation
//! id (`c000001`, `c000002`, …) at creation. [`LIFECYCLE`] declares the
//! events a job goes through and the fields each line carries;
//! `JobEvent` is everything the engine reports about a job, and
//! `Engine::note` is the one place any of it is recorded — the log line,
//! the metrics registry, the engine counters and the trace instant.
//!
//! Every line carries `ts_us` (microseconds on the shared trace-epoch
//! clock, so events cross-reference trace spans exactly), `event`,
//! `corr`, and `job`, then the event's own fields. A job's chain starts
//! with `admitted` and ends with exactly one `completed`; `started` is
//! missing only from a job that was skipped or expired in the queue.
//! Lines are appended (and flushed) one `write` call at a time, so
//! concurrent workers never interleave partial lines.
//!
//! The log keeps an in-memory tail of the most recent lines for the
//! flight recorder: a fault dump embeds the event context around the
//! failure without re-reading the file.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use vegen::error::{CompileError, Stage};
use vegen_trace::json::Json;
use vegen_trace::metrics::{self, Counter, Histogram};

use crate::{JobResult, Rung};

/// One lifecycle event: its name and its fields.
pub type Row = (&'static str, &'static [&'static str]);

/// The job lifecycle, declared once: each event's name and the fields its
/// line carries after the standard prefix, in line order. A line stops
/// short of a trailing field its emitter does not know (only serve
/// admission knows `queue_depth`). DESIGN §15's event table is checked
/// against this list.
pub const LIFECYCLE: [Row; 6] = [
    ("admitted", &["queue_depth"]),
    ("started", &[]),
    ("stage_done", &["stage", "dur_us"]),
    ("faulted", &["stage", "tag", "message"]),
    ("degraded", &["rung"]),
    ("completed", &["rung", "cache", "wall_us", "stages"]),
];

/// Index of `faulted` in [`LIFECYCLE`]; its fields are also how the serve
/// protocol spells a fault.
const FAULTED: usize = 3;

/// Who an event is about: the job's correlation id and display name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobId<'a> {
    pub corr: &'a str,
    pub name: &'a str,
}

/// Something that happened to one job. The first six variants are the
/// [`LIFECYCLE`] events, one log line each; the rest are moments on the
/// degradation ladder, which write no line and only move engine counters
/// and fire a trace instant.
#[derive(Clone, Copy)]
pub(crate) enum JobEvent<'a> {
    /// The job entered the engine: the batch, or the serve queue at the
    /// depth given.
    Admitted(Option<usize>),
    /// A worker began executing it.
    Started,
    /// A stage of the compile that produced its program finished.
    StageDone(Stage, Duration),
    /// One ladder attempt failed, or the job expired in the queue.
    Faulted(&'a CompileError),
    /// It completed below the primary rung.
    Degraded(Rung),
    /// It finished, on any rung, with `result`; `compiled` when the
    /// compile path produced it — not skipped, not lost to an escaped
    /// panic or the queue. Also writes the chain's `stage_done`,
    /// `faulted` and `degraded` lines, from `result`.
    Completed { result: &'a JobResult, compiled: bool },
    /// The width-1 rung is about to run.
    Retry,
    /// The disk tier served the job.
    DiskHit,
    /// A compile attempt ended in a typed error or a caught panic.
    AttemptFailed(&'a CompileError),
    /// A cache read or write failed; the job goes on.
    CacheIoFault,
    /// A rung below primary produced the program.
    Fallback(Rung),
}

impl JobEvent<'_> {
    /// The event's [`LIFECYCLE`] row and its field values in that row's
    /// order; `None` for a ladder moment.
    pub(crate) fn line(&self) -> Option<(&'static Row, Vec<Json>)> {
        let micros = |d: Duration| Json::int(d.as_micros() as u64);
        let (row, values) = match *self {
            JobEvent::Admitted(depth) => {
                (0, depth.map(|d| Json::int(d as u64)).into_iter().collect())
            }
            JobEvent::Started => (1, Vec::new()),
            JobEvent::StageDone(stage, dur) => (2, vec![Json::str(stage.name()), micros(dur)]),
            JobEvent::Faulted(f) => {
                (FAULTED, fault_values(f.stage, f.cause.tag(), f.cause.to_string()).into())
            }
            JobEvent::Degraded(rung) => (4, vec![Json::str(rung.name())]),
            JobEvent::Completed { result: r, .. } => (
                5,
                vec![
                    Json::str(r.rung.name()),
                    Json::str(r.cache_source()),
                    micros(r.wall),
                    Json::obj(r.stages.iter().map(|(stage, d)| (stage.name(), micros(d)))),
                ],
            ),
            _ => return None,
        };
        Some((&LIFECYCLE[row], values))
    }
}

fn fault_values(stage: Stage, tag: &str, message: String) -> [Json; 3] {
    [Json::str(stage.name()), Json::str(tag), Json::str(message)]
}

/// A fault as the event log and the serve protocol spell it:
/// `{stage, tag, message}`.
pub(crate) fn fault_json(stage: Stage, tag: &str, message: String) -> Json {
    Json::obj(LIFECYCLE[FAULTED].1.iter().copied().zip(fault_values(stage, tag, message)))
}

/// Registry handles, resolved on first use and held, so recording a job
/// takes no registry lock. A compiled job's latency histogram and its
/// three cache-source counters (miss, memory, disk) are resolved together,
/// so all three are exposed from the first compiled job on.
static JOBS: OnceLock<Arc<Counter>> = OnceLock::new();
static JOBS_FAILED: OnceLock<Arc<Counter>> = OnceLock::new();
static COMPILED: OnceLock<(Arc<Histogram>, [Arc<Counter>; 3])> = OnceLock::new();

/// Move the registry instruments for one `completed` job.
pub(crate) fn count_completed(result: &JobResult, compiled: bool) {
    JOBS.get_or_init(|| metrics::counter("engine_jobs_total")).inc();
    if result.rung == Rung::Failed {
        JOBS_FAILED.get_or_init(|| metrics::counter("engine_jobs_failed_total")).inc();
    }
    if compiled {
        let (latency, sources) = COMPILED.get_or_init(|| {
            let sources = [
                "engine_cache_misses_total",
                "engine_cache_memory_hits_total",
                "engine_cache_disk_hits_total",
            ];
            (metrics::histogram("engine_compile_latency_us"), sources.map(metrics::counter))
        });
        latency.record(result.wall.as_micros() as u64);
        // A disk hit is also a cache hit: miss 0, memory 1, disk 2.
        sources[usize::from(result.cache_hit) + usize::from(result.disk_hit)].inc();
    }
}

/// `(cache hit ratio, disk hit ratio)` over every compiled job so far;
/// `None` before the first.
pub(crate) fn cache_ratios() -> Option<(f64, f64)> {
    let [miss, memory, disk] = COMPILED.get()?.1.each_ref().map(|c| c.get());
    let total = (miss + memory + disk) as f64;
    (total > 0.0).then(|| ((memory + disk) as f64 / total, disk as f64 / total))
}

/// Lines retained in memory for flight-dump context.
const TAIL_CAPACITY: usize = 256;

static NEXT_CORR: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique correlation id (`c000001`-style).
pub fn next_corr() -> String {
    format!("c{:06}", NEXT_CORR.fetch_add(1, Ordering::Relaxed))
}

struct Inner {
    file: File,
    tail: VecDeque<String>,
}

/// An append-only NDJSON job event log (see the module docs for the
/// schema).
pub struct EventLog {
    path: PathBuf,
    inner: Mutex<Inner>,
    written: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("path", &self.path)
            .field("written", &self.written.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLog {
    /// Open (append-create) the event log at `path`.
    ///
    /// # Errors
    ///
    /// Returns a description when the file cannot be opened.
    pub fn open(path: &Path) -> Result<EventLog, String> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open event log {}: {e}", path.display()))?;
        Ok(EventLog {
            path: path.to_path_buf(),
            inner: Mutex::new(Inner { file, tail: VecDeque::new() }),
            written: AtomicU64::new(0),
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Append one event. `extra` fields follow the standard
    /// `ts_us`/`event`/`corr`/`job` prefix. Write failures are recorded
    /// in the `engine_event_log_errors_total` counter but never fail the
    /// job being logged.
    pub fn emit(
        &self,
        event: &'static str,
        corr: &str,
        job: &str,
        extra: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        let mut pairs = vec![
            ("ts_us", Json::int(vegen_trace::timestamp_us())),
            ("event", Json::str(event)),
            ("corr", Json::str(corr)),
            ("job", Json::str(job)),
        ];
        pairs.extend(extra);
        let line = Json::obj(pairs).render();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.tail.len() == TAIL_CAPACITY {
            inner.tail.pop_front();
        }
        inner.tail.push_back(line.clone());
        // One write call per line: POSIX appends are atomic at this size,
        // so concurrent workers cannot interleave partial lines.
        if writeln!(inner.file, "{line}").is_err() || inner.file.flush().is_err() {
            vegen_trace::metrics::counter("engine_event_log_errors_total").inc();
        } else {
            self.written.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The most recent lines (bounded), oldest first — flight-dump
    /// context.
    pub fn tail(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tail.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen::error::ErrorCause;

    #[test]
    fn correlation_ids_are_unique_and_formatted() {
        let a = next_corr();
        let b = next_corr();
        assert_ne!(a, b);
        assert!(a.starts_with('c') && a.len() >= 7, "{a}");
        assert!(a[1..].chars().all(|c| c.is_ascii_digit()), "{a}");
    }

    #[test]
    fn emitted_lines_are_parseable_and_tailed() {
        let dir = std::env::temp_dir().join(format!("vegen-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::open(&path).unwrap();
        log.emit("admitted", "c000123", "dot4", []);
        log.emit(
            "completed",
            "c000123",
            "dot4",
            [("rung", Json::str("primary")), ("cache", Json::str("miss"))],
        );
        assert_eq!(log.written(), 2);
        assert_eq!(log.tail().len(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("event").unwrap().as_str(), Some("admitted"));
        assert_eq!(first.get("corr").unwrap().as_str(), Some("c000123"));
        let last = Json::parse(lines[1]).unwrap();
        assert_eq!(last.get("rung").unwrap().as_str(), Some("primary"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_is_bounded() {
        let dir = std::env::temp_dir().join(format!("vegen-events-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let log = EventLog::open(&path).unwrap();
        for _ in 0..(TAIL_CAPACITY + 50) {
            log.emit("admitted", "c1", "k", []);
        }
        assert_eq!(log.tail().len(), TAIL_CAPACITY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every lifecycle row is some event's line, each line fills its row
    /// (only `admitted` may stop short), and ladder moments write none.
    #[test]
    fn each_lifecycle_event_renders_exactly_its_declared_fields() {
        let fault = CompileError::new(
            Stage::Selection,
            "k",
            ErrorCause::Deadline { limit: Duration::from_millis(5) },
        );
        let result = JobResult::new(JobId { corr: "c1", name: "k" }, Rung::Scalar);
        let events = [
            JobEvent::Admitted(None),
            JobEvent::Admitted(Some(3)),
            JobEvent::Started,
            JobEvent::StageDone(Stage::Lowering, Duration::from_micros(7)),
            JobEvent::Faulted(&fault),
            JobEvent::Degraded(Rung::Scalar),
            JobEvent::Completed { result: &result, compiled: false },
        ];
        let mut seen = Vec::new();
        for event in events {
            let ((name, fields), values) = event.line().expect("a lifecycle event has a line");
            let full = values.len() == fields.len();
            assert!(full || (*name == "admitted" && values.is_empty()), "{name}: {values:?}");
            seen.push(*name);
        }
        seen.dedup();
        assert_eq!(seen, LIFECYCLE.map(|(name, _)| name));
        for moment in [
            JobEvent::Retry,
            JobEvent::DiskHit,
            JobEvent::AttemptFailed(&fault),
            JobEvent::CacheIoFault,
            JobEvent::Fallback(Rung::Width1),
        ] {
            assert!(moment.line().is_none());
        }
        assert_eq!(
            fault_json(fault.stage, fault.cause.tag(), fault.cause.to_string()).render(),
            r#"{"stage":"selection","tag":"deadline","message":"job deadline (5ms) expired"}"#
        );
    }

    /// DESIGN §15's event table lists exactly the vocabulary: every
    /// lifecycle event, in order, with its fields.
    #[test]
    fn design_event_table_matches_the_vocabulary() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### Structured job event log")
            .nth(1)
            .expect("DESIGN.md has the event-log section");
        let rows: Vec<(String, Vec<String>)> = section
            .lines()
            .skip_while(|l| !l.starts_with("| event |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let ticked = |cell: &str| -> Vec<String> {
                    cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
                };
                (ticked(cells[1]).concat(), ticked(cells[3]))
            })
            .collect();
        let want: Vec<(String, Vec<String>)> = LIFECYCLE
            .iter()
            .map(|(name, fields)| {
                (name.to_string(), fields.iter().map(|f| f.to_string()).collect())
            })
            .collect();
        assert_eq!(rows, want, "DESIGN.md §15's event table has drifted from events::LIFECYCLE");
    }
}
