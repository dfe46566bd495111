#![warn(missing_docs)]

//! `vegen-engine` — a parallel, cached, instrumented, **fault-tolerant**
//! batch-compilation service around the [`vegen::driver`] pipeline.
//!
//! The paper splits VeGen into an expensive *offline* phase (generating
//! the target description from instruction semantics, §6.1) and a fast
//! *online* phase (matching + pack selection + lowering). Both halves are
//! pure functions of their inputs, which makes the whole pipeline
//! cacheable and shardable; this crate is the production-shaped layer
//! that exploits it:
//!
//! * a [content-addressed compilation cache](cache) — stable hash of
//!   `(canonical Function, TargetIsa name, BeamConfig,
//!   canonicalize_patterns)` to `Arc<CompiledKernel>`, LRU-bounded, with
//!   hit/miss counters;
//! * a [work-stealing batch executor](pool) on `std` scoped threads that
//!   compiles a batch of named kernels in parallel and returns
//!   deterministic, input-ordered results — with per-job panic isolation;
//! * a **graceful-degradation ladder**: a job that fails (typed error,
//!   panic, deadline, budget exhaustion) is retried at beam width 1 (the
//!   SLP heuristic) with a fresh deadline window, then falls back to the
//!   always-correct scalar lowering, and only reports `Failed` when even
//!   that is impossible. Every result records the [`Rung`] it completed
//!   on and the faults collected on the way down;
//! * a [persistent on-disk cache](diskcache) the in-memory cache spills
//!   to: one versioned JSON file per content hash, atomic writes, ISA
//!   fingerprinting for invalidation, shareable between processes and
//!   across restarts — so a restarted engine replays a whole suite from
//!   disk without a single cold compile;
//! * a telemetry layer: per-stage wall times from
//!   [`vegen::driver::StageTimes`] plus engine-level counters (cache
//!   hits — memory and disk separately — beam states expanded, packs
//!   committed, failures, retries, degradations, deadline hits),
//!   rendered by [`report`] into one JSON document (schema v11), whose
//!   kernel rows are the serve protocol's compile results plus a `detail`
//!   block;
//! * a [resident compile service](serve): `vegen-engine serve` accepts
//!   newline-delimited JSON requests over a Unix socket (or stdio),
//!   with bounded-queue admission control, per-request deadlines, live
//!   metrics, and graceful drain on shutdown — and a request-alias tier
//!   that resolves a request spelled like an earlier one to its content
//!   address before parsing it;
//! * a `vegen-engine` binary that pushes the whole `vegen-kernels` suite
//!   through the engine, cold and warm, and emits the JSON report — with
//!   `--deadline-ms`, `--fail-fast`, `--cache-dir`, and deterministic
//!   `--faults` injection knobs.
//!
//! ```
//! use vegen_engine::{Engine, EngineConfig, Job, Rung};
//! use vegen::driver::PipelineConfig;
//! use vegen_isa::TargetIsa;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
//! let jobs: Vec<Job> = vegen_kernels::all()
//!     .into_iter()
//!     .take(4)
//!     .map(|k| Job::new(k.name, (k.build)(), cfg.clone()))
//!     .collect();
//! let results = engine.compile_batch(&jobs);
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.rung == Rung::Primary && r.kernel.is_some()));
//! // A second run of the same batch is served from the cache.
//! let again = engine.compile_batch(&jobs);
//! assert!(again.iter().all(|r| r.cache_hit));
//! ```

pub mod cache;
pub mod cli;
pub mod diskcache;
pub mod events;
pub mod flight;
pub mod ledger;
pub mod pool;
pub mod report;
pub mod serdes;
pub mod serve;
pub mod soak;

/// The in-tree JSON writer/parser now lives in [`vegen_trace::json`];
/// re-exported here for compatibility with existing imports.
pub use vegen_trace::json;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cache::{
    content_hash, AliasHit, AliasStats, AliasTable, CacheStats, CachedCompile, CompileCache,
    ContentHash, RequestSource, SourceKind,
};
use diskcache::{isa_fingerprint, DiskCache, DiskCacheStats};
use events::{EventLog, JobEvent, JobId};
use flight::FlightRecorder;
use json::Doc;
use vegen::driver::{
    compile_prepared, prepare, record_stage, CompileCtx, CompiledKernel, PipelineConfig, Plan,
    StageTimes,
};
use vegen::error::{panic_message, take_panic_stage, CompileError, ErrorCause, Stage};
use vegen_core::BeamConfig;
use vegen_ir::Function;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for batches; `0` means the machine's available
    /// parallelism (clamped to the batch size either way).
    pub threads: usize,
    /// LRU bound on the compilation cache.
    pub cache_capacity: usize,
    /// Random trials for post-compilation equivalence checking of all
    /// three programs; `0` skips verification. Verification runs once per
    /// cache entry — hits are served without re-checking.
    pub verify_trials: u64,
    /// Per-job wall-clock deadline. Checked at every stage boundary and
    /// threaded into the beam search as a cooperative wall budget. Each
    /// degradation rung gets a *fresh* window (otherwise a deadline that
    /// killed the primary attempt would instantly kill the retry too).
    pub deadline: Option<Duration>,
    /// Abort the rest of a batch after the first job that ends below
    /// [`Rung::Primary`]. Remaining jobs come back as [`Rung::Skipped`].
    /// Default off: degrade-and-continue is the production posture.
    pub fail_fast: bool,
    /// Directory for the persistent on-disk compile cache. `None` (the
    /// default) keeps the cache purely in-memory. When set, memory misses
    /// fall through to disk, and clean primary-rung compiles are written
    /// through; disk I/O failures become typed [`ErrorCause::CacheIo`]
    /// faults but never fail a job.
    pub cache_dir: Option<PathBuf>,
    /// Total-size bound in bytes for the on-disk cache; `None` (the
    /// default) is unbounded. When exceeded after a store, the oldest
    /// entries are evicted until the directory fits.
    pub cache_max_bytes: Option<u64>,
    /// Worker threads for the intra-kernel parallel beam search. `0` (the
    /// default) leaves each job's own [`BeamConfig::beam_threads`] in
    /// charge (which itself resolves `0` to the machine's available
    /// parallelism); a nonzero value fills in any job that left the knob
    /// on auto. Thread count never changes the selected packs — only the
    /// wall time — and is excluded from content-addressed cache keys.
    pub beam_threads: usize,
    /// Structured NDJSON job event log path (see [`events`]). `None` (the
    /// default) disables event logging. Open failures are kept in
    /// [`Engine::event_open_error`], never panicked on.
    pub event_log: Option<PathBuf>,
    /// Flight-recorder dump directory (see [`flight`]). `None` (the
    /// default) disables flight recording.
    pub flight_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 0,
            cache_capacity: 512,
            verify_trials: 16,
            deadline: None,
            fail_fast: false,
            cache_dir: None,
            cache_max_bytes: None,
            beam_threads: 0,
            event_log: None,
            flight_dir: None,
        }
    }
}

/// One named compilation request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (kernel name in reports; not part of the cache key).
    pub name: String,
    /// What to compile: a scalar function, or — from the serve reader — a
    /// content address the alias tier already resolved.
    pub(crate) input: JobInput,
    /// Target + search configuration.
    pub pipeline: PipelineConfig,
    /// Per-job deadline override; `None` uses the engine-wide
    /// [`EngineConfig::deadline`]. Serve mode sets this from the
    /// request's `deadline_ms`.
    pub deadline: Option<Duration>,
    /// Process-unique correlation id, assigned at construction and
    /// threaded through every event-log line and trace span this job
    /// produces.
    pub corr: String,
    /// Set when an upstream layer (serve admission) already emitted this
    /// job's `admitted` event, so the batch path does not duplicate it.
    pub(crate) pre_admitted: bool,
}

/// What a [`Job`] compiles.
#[derive(Debug, Clone)]
pub(crate) enum JobInput {
    /// A function the engine canonicalizes and hashes. `source` is the
    /// request bytes that spelled it, when it came off the wire: a primary
    /// result records them in the alias tier.
    Function { function: Function, source: Option<RequestSource> },
    /// A request the alias tier resolved before it was parsed: looked up
    /// by address, and parsed from `source` only if neither tier has it.
    Resolved { hash: ContentHash, source: RequestSource },
}

/// [`JobInput`] as the compile path borrows it.
#[derive(Clone, Copy)]
enum Input<'a> {
    Function(&'a Function),
    Resolved(ContentHash, &'a RequestSource),
}

impl RequestSource {
    /// The function these bytes spell (for `Function` bytes, decoded but
    /// not verified: the serve reader verifies before it records any).
    pub(crate) fn function(&self) -> Result<Function, String> {
        match self.kind {
            SourceKind::Kernel => vegen_kernels::find(&self.text)
                .map(|k| (k.build)())
                .ok_or_else(|| format!("unknown kernel {:?}", &*self.text)),
            SourceKind::Function => {
                serdes::function_from_node(Doc::parse_member(&self.text)?.root())
            }
        }
    }
}

impl Job {
    /// Convenience constructor. Assigns a fresh correlation id.
    pub fn new(name: impl Into<String>, function: Function, pipeline: PipelineConfig) -> Job {
        Job::with_input(name.into(), JobInput::Function { function, source: None }, pipeline)
    }

    /// A job for the function a serve request described, named after it;
    /// `source` is the request's own spelling, when the reader kept it.
    pub(crate) fn from_request(
        function: Function,
        source: Option<RequestSource>,
        pipeline: PipelineConfig,
    ) -> Job {
        let name = function.name.clone();
        Job::with_input(name, JobInput::Function { function, source }, pipeline)
    }

    /// A job for a request the alias tier resolved.
    pub(crate) fn resolved(hit: AliasHit, pipeline: PipelineConfig) -> Job {
        let input = JobInput::Resolved { hash: hit.hash, source: hit.source };
        Job::with_input(hit.name.to_string(), input, pipeline)
    }

    fn with_input(name: String, input: JobInput, pipeline: PipelineConfig) -> Job {
        Job {
            name,
            input,
            pipeline,
            deadline: None,
            corr: events::next_corr(),
            pre_admitted: false,
        }
    }

    /// Set a per-job deadline (overrides the engine-wide one).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Job {
        self.deadline = deadline;
        self
    }

    /// Who this job's events are about.
    pub(crate) fn id(&self) -> JobId<'_> {
        JobId { corr: &self.corr, name: &self.name }
    }
}

/// Which rung of the degradation ladder a job completed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// The requested configuration succeeded.
    Primary,
    /// The requested configuration failed; the beam-width-1 (SLP
    /// heuristic) retry succeeded.
    Width1,
    /// Both search rungs failed; the verified scalar lowering was used.
    Scalar,
    /// Every rung failed; `kernel` is `None` and `faults` says why.
    Failed,
    /// Not attempted: an earlier failure aborted the batch
    /// (`fail_fast`).
    Skipped,
}

impl Rung {
    /// Stable lower-case name for reports and failure tables.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Primary => "primary",
            Rung::Width1 => "width1",
            Rung::Scalar => "scalar",
            Rung::Failed => "failed",
            Rung::Skipped => "skipped",
        }
    }

    /// Did the job produce a program (any rung but `Failed`/`Skipped`)?
    pub fn produced_kernel(self) -> bool {
        matches!(self, Rung::Primary | Rung::Width1 | Rung::Scalar)
    }
}

/// The engine's answer for one [`Job`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's display name.
    pub name: String,
    /// The correlation id this job ran under — cross-references the
    /// event log and the `job:<name>#<corr>` trace span.
    pub corr: String,
    /// Content address this job resolved to (`None` when preparation
    /// itself failed, so no canonical form was ever hashed).
    pub hash: Option<ContentHash>,
    /// The compiled kernel (shared with the cache and any equal jobs).
    /// `None` exactly when `rung` is [`Rung::Failed`] or [`Rung::Skipped`].
    pub kernel: Option<Arc<CompiledKernel>>,
    /// Which degradation rung produced `kernel`.
    pub rung: Rung,
    /// Typed faults collected on the way down the ladder (empty for a
    /// clean [`Rung::Primary`] result).
    pub faults: Vec<CompileError>,
    /// Per-stage wall times of the compile that produced `kernel` — on a
    /// cache hit these are the *original* (cold) times, kept so warm runs
    /// can still attribute where the cold time went.
    pub stages: StageTimes,
    /// Whether the cache served this job.
    pub cache_hit: bool,
    /// Whether the serving cache level was the *disk* (implies
    /// `cache_hit`; a plain memory hit leaves this false).
    pub disk_hit: bool,
    /// Time spent verifying (zero on hits and when verification is off).
    pub verify_time: Duration,
    /// First divergence found by verification, if any.
    pub verify_error: Option<String>,
    /// Wall time this job cost in *this* run (hash + lookup on a hit).
    pub wall: Duration,
}

impl JobResult {
    /// A kernel-less, unhashed result of `job` on `rung` with every
    /// measurement zeroed — the one literal; each outcome (hit, compiled,
    /// failed, skipped, escaped panic, expired in the queue) fills in what
    /// it knows.
    fn new(job: JobId<'_>, rung: Rung) -> JobResult {
        JobResult {
            name: job.name.to_string(),
            corr: job.corr.to_string(),
            hash: None,
            kernel: None,
            rung,
            faults: Vec::new(),
            stages: StageTimes::default(),
            cache_hit: false,
            disk_hit: false,
            verify_time: Duration::ZERO,
            verify_error: None,
            wall: Duration::ZERO,
        }
    }

    /// Did this job fail outright (no program at all)?
    pub fn failed(&self) -> bool {
        !self.rung.produced_kernel()
    }

    /// Which cache level served this job: `"disk"`, `"memory"`, or
    /// `"miss"` (compiled fresh). Stable strings; the report schema and
    /// the serve protocol both use them.
    pub fn cache_source(&self) -> &'static str {
        if self.disk_hit {
            "disk"
        } else if self.cache_hit {
            "memory"
        } else {
            "miss"
        }
    }
}

/// Engine-lifetime counters (monotonic; never reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Beam-search states expanded across all cache-miss compilations.
    pub states_expanded: u64,
    /// Beam-search successor states generated across all misses.
    pub transitions: u64,
    /// Pooled states merged into an already-seen search state.
    pub dedup_hits: u64,
    /// Producer-index lookups served from the per-context memo.
    pub producer_cache_hits: u64,
    /// Producer-index lookups that enumerated Algorithm 1.
    pub producer_cache_misses: u64,
    /// Packs committed by selected pack sets across all misses.
    pub packs_committed: u64,
    /// Compilations performed (cache misses that ran the pipeline,
    /// counting every ladder attempt that ran to completion).
    pub compilations: u64,
    /// Static analyses run (one per compilation; the driver's
    /// post-lowering legality + provenance + lint stage).
    pub analyses: u64,
    /// Error-severity findings those analyses produced (0 on a healthy
    /// pipeline; any nonzero value means a selection or lowering bug).
    pub analysis_errors: u64,
    /// Compile attempts that ended in a typed error or caught panic
    /// (every rung's failures counted individually).
    pub failures: u64,
    /// Width-1 retry attempts started (rung 2 of the ladder).
    pub retries: u64,
    /// Jobs that completed below [`Rung::Primary`] (width-1 or scalar).
    pub degradations: u64,
    /// Failures classified as deadline/budget exhaustion.
    pub deadline_hits: u64,
    /// Jobs served from the *disk* cache (memory misses that found a
    /// valid on-disk entry). Memory hits are counted by the cache's own
    /// [`CacheStats`], not here.
    pub disk_hits: u64,
    /// Clean compiles written through to the disk cache.
    pub disk_stores: u64,
    /// Typed `CacheIo` faults recorded (corrupt entries, I/O failures,
    /// failed self-checks). The jobs themselves still succeeded.
    pub cache_io_errors: u64,
    /// Compiles that reused a frozen interned context instead of running
    /// the freeze pre-pass — nonzero exactly when the degradation
    /// ladder's width-1 retry recycled the primary attempt's snapshot.
    pub frozen_reuses: u64,
}

/// A parallel, cached, instrumented batch compiler.
pub struct Engine {
    cfg: EngineConfig,
    cache: CompileCache,
    aliases: AliasTable,
    disk: Option<DiskCache>,
    disk_open_error: Option<String>,
    events: Option<Arc<EventLog>>,
    event_open_error: Option<String>,
    flight: Option<Arc<FlightRecorder>>,
    flight_open_error: Option<String>,
    counters: Mutex<EngineCounters>,
}

/// The beam a ladder rung hands the driver.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Search {
    /// The job's own beam configuration.
    Requested,
    /// Width 1 (the SLP heuristic) under the job's budget and thread count.
    Width1,
    /// No search: [`Plan::Scalar`], which fires no injected fault, observes
    /// no deadline, and runs no selection, analysis or baseline.
    Scalar,
}

/// One rung of the degradation ladder.
struct RungPlan {
    /// What a success here is reported as.
    rung: Rung,
    /// What the driver runs.
    search: Search,
    /// Whether a verify-clean result enters the memory tier and is written
    /// through to disk (`compile_batch` likewise records request aliases
    /// for [`Rung::Primary`] only). A degraded result is never shared: the
    /// next identical job gets its own try at the requested configuration.
    shared: bool,
}

/// The ladder, top to bottom. A job walks it until a rung succeeds; each
/// rung runs isolated (`Engine::attempt`) under a fresh deadline window,
/// a failure is one entry in the result's `faults`, and whatever a rung
/// serves is verified first. The width-1 rung always runs after a primary
/// failure — even when the job asked for width 1 itself, since a one-shot
/// fault or a tripped deadline is gone on the retry.
const LADDER: [RungPlan; 3] = [
    RungPlan { rung: Rung::Primary, search: Search::Requested, shared: true },
    RungPlan { rung: Rung::Width1, search: Search::Width1, shared: false },
    RungPlan { rung: Rung::Scalar, search: Search::Scalar, shared: false },
];

impl Engine {
    /// An engine with the given configuration. If
    /// [`EngineConfig::cache_dir`] is set but the directory cannot be
    /// opened, the engine still constructs — memory-only, with the error
    /// kept in [`Engine::disk_open_error`] for the caller to surface.
    pub fn new(cfg: EngineConfig) -> Engine {
        let capacity = cfg.cache_capacity;
        let (disk, disk_open_error) = match &cfg.cache_dir {
            Some(dir) => match DiskCache::open_bounded(dir, cfg.cache_max_bytes) {
                Ok(d) => (Some(d), None),
                Err(e) => (None, Some(e)),
            },
            None => (None, None),
        };
        let (events, event_open_error) = match &cfg.event_log {
            Some(path) => match EventLog::open(path) {
                Ok(log) => (Some(Arc::new(log)), None),
                Err(e) => (None, Some(e)),
            },
            None => (None, None),
        };
        let (flight, flight_open_error) = match &cfg.flight_dir {
            Some(dir) => match FlightRecorder::open(dir) {
                Ok(rec) => (Some(Arc::new(rec)), None),
                Err(e) => (None, Some(e)),
            },
            None => (None, None),
        };
        Engine {
            cfg,
            cache: CompileCache::new(capacity),
            aliases: AliasTable::new(capacity),
            disk,
            disk_open_error,
            events,
            event_open_error,
            flight,
            flight_open_error,
            counters: Mutex::default(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Why the configured cache directory could not be opened, if so (the
    /// engine fell back to memory-only caching).
    pub fn disk_open_error(&self) -> Option<&str> {
        self.disk_open_error.as_deref()
    }

    /// Counters of the on-disk cache (`None` when no `cache_dir` is
    /// configured or opening it failed).
    pub fn disk_stats(&self) -> Option<DiskCacheStats> {
        self.disk.as_ref().map(DiskCache::stats)
    }

    /// The structured job event log, when configured and open.
    pub fn event_log(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// Why the configured event log could not be opened, if so.
    pub fn event_open_error(&self) -> Option<&str> {
        self.event_open_error.as_deref()
    }

    /// The flight recorder, when configured and open.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Why the configured flight directory could not be opened, if so.
    pub fn flight_open_error(&self) -> Option<&str> {
        self.flight_open_error.as_deref()
    }

    /// Eagerly load every valid on-disk entry into the in-memory cache,
    /// returning how many were loaded. Stale and corrupt entries are
    /// deleted on the way (same rules as lookups). Without a disk cache
    /// this is a no-op returning 0.
    pub fn warm_start(&self) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let _sp = vegen_trace::span("engine", "warm_start");
        let entries = disk.load_all();
        let n = entries.len();
        for (hash, value) in entries {
            self.cache.insert(hash, value);
        }
        n
    }

    /// Update the engine-lifetime counters. The lock is taken once per
    /// ladder attempt or disk access — never on a memory hit — and only
    /// plain additions run under it, so a poisoned lock still holds
    /// consistent counts.
    fn count(&self, update: impl FnOnce(&mut EngineCounters)) {
        update(&mut self.counters.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// Record one event of `job` — the one place the engine's telemetry is
    /// written: the event-log line, the metrics registry, the engine
    /// counters and the trace instant, whichever the event moves. A
    /// `completed` job's chain gets its `stage_done`, `faulted` and
    /// `degraded` lines first, and — when the compile path failed it or
    /// caught a panic on the way down — a flight dump after.
    pub(crate) fn note(&self, job: JobId<'_>, event: JobEvent<'_>) {
        match event {
            JobEvent::Started => {
                if let Some(flight) = &self.flight {
                    flight.maybe_rotate();
                }
            }
            JobEvent::Completed { result, compiled } => {
                if !result.cache_hit {
                    for (stage, dur) in result.stages.iter().filter(|(_, d)| !d.is_zero()) {
                        self.note(job, JobEvent::StageDone(stage, dur));
                    }
                }
                for fault in &result.faults {
                    self.note(job, JobEvent::Faulted(fault));
                }
                if matches!(result.rung, Rung::Width1 | Rung::Scalar) {
                    self.note(job, JobEvent::Degraded(result.rung));
                }
                events::count_completed(result, compiled);
            }
            JobEvent::Retry => {
                self.count(|c| c.retries += 1);
                vegen_trace::instant("engine", "retry_width1");
            }
            JobEvent::DiskHit => {
                self.count(|c| c.disk_hits += 1);
                vegen_trace::instant("engine", "disk_hit");
            }
            JobEvent::AttemptFailed(error) => {
                self.count(|c| {
                    c.failures += 1;
                    c.deadline_hits += u64::from(error.cause.is_timeout());
                });
                vegen_trace::instant("engine", "attempt_failed");
            }
            JobEvent::CacheIoFault => {
                self.count(|c| c.cache_io_errors += 1);
                vegen_trace::instant("engine", "cache_io_error");
            }
            JobEvent::Fallback(rung) => {
                self.count(|c| c.degradations += 1);
                if vegen_trace::enabled() {
                    vegen_trace::instant_owned("engine", format!("degraded_{}", rung.name()));
                }
            }
            _ => {}
        }
        if let Some(log) = &self.events {
            if let Some(((name, fields), values)) = event.line() {
                log.emit(name, job.corr, job.name, fields.iter().copied().zip(values));
            }
        }
        if let (Some(flight), JobEvent::Completed { result, compiled: true }) =
            (&self.flight, event)
        {
            let panicked =
                result.faults.iter().any(|f| matches!(f.cause, ErrorCause::Panic { .. }));
            if result.failed() || panicked {
                let tail = self.events.as_ref().map(|l| l.tail()).unwrap_or_default();
                let reason = if result.failed() { "job_failed" } else { "panic_recovered" };
                if let Err(detail) = flight.dump(reason, &tail) {
                    vegen_trace::metrics::counter("flight_dump_errors_total").inc();
                    vegen_trace::instant_owned("engine", format!("flight_dump_error:{detail}"));
                }
            }
        }
    }

    /// One driver call with panic isolation: a panic anywhere inside
    /// becomes a typed [`CompileError`] attributed to the stage that was
    /// live when it fired (the driver runs no code outside a stage; were
    /// one to panic there, it reads as canonicalize, like a panic that
    /// escapes to the pool).
    ///
    /// Typed errors leave `ctx.reuse` warm, so the next rung skips the
    /// freeze pre-pass; a caught panic resets it — the panic may have torn
    /// mid-update, leaving stranded in-progress markers that must not
    /// leak into the retry.
    fn attempt<T>(
        name: &str,
        ctx: &mut CompileCtx,
        run: impl FnOnce(&mut CompileCtx) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        catch_unwind(AssertUnwindSafe(|| run(ctx))).unwrap_or_else(|payload| {
            ctx.reuse.reset();
            let stage = take_panic_stage().unwrap_or(Stage::Canonicalize);
            let message = panic_message(payload.as_ref());
            Err(CompileError::new(stage, name, ErrorCause::Panic { message }))
        })
    }

    /// Fold one successful compile's search statistics into the counters.
    fn note_compilation(&self, kernel: &CompiledKernel) {
        let (selection, stats) = (&kernel.selection, kernel.selection.stats);
        self.count(|c| {
            c.states_expanded += selection.states_expanded as u64;
            c.transitions += stats.transitions;
            c.dedup_hits += stats.dedup_hits;
            c.producer_cache_hits += stats.producer_cache_hits;
            c.producer_cache_misses += stats.producer_cache_misses;
            c.packs_committed += selection.packs.len() as u64;
            c.frozen_reuses += u64::from(stats.frozen_reused);
            c.compilations += 1;
            c.analyses += 1;
            c.analysis_errors += kernel.analysis.error_count() as u64;
        });
    }

    /// Verify `kernel`, returning `(verify_time, verify_error)`.
    fn verify(&self, kernel: &CompiledKernel) -> (Duration, Option<String>) {
        if self.cfg.verify_trials == 0 {
            return (Duration::ZERO, None);
        }
        let verify_start = Instant::now();
        let verify_error = {
            let _sp = vegen_trace::span("engine", "verify");
            kernel.verify(self.cfg.verify_trials).err()
        };
        let verify_time = verify_start.elapsed();
        record_stage(Stage::Verify, verify_time);
        (verify_time, verify_error)
    }

    /// Compile one function, through the cache and down the degradation
    /// ladder: requested config → beam width 1 → scalar fallback →
    /// `Failed`. Panics anywhere in the pipeline are caught and typed;
    /// this method itself never panics on a malformed kernel. Uses the
    /// engine-wide deadline (batch jobs can carry their own).
    ///
    /// Assigns a fresh correlation id (batch jobs carry their own via
    /// [`Job::corr`]) and runs the full telemetry wrapper: event-log
    /// lifecycle lines, service metrics, and fault-triggered flight
    /// dumps.
    pub fn compile_one(
        &self,
        name: &str,
        function: &Function,
        pipeline: &PipelineConfig,
    ) -> JobResult {
        let corr = events::next_corr();
        let job = JobId { corr: &corr, name };
        self.note(job, JobEvent::Admitted(None));
        self.compile_instrumented(job, Input::Function(function), pipeline, self.cfg.deadline)
    }

    /// One ladder run between its `started` and `completed` events, under
    /// a corr-bearing trace span. The caller has already noted `admitted`.
    fn compile_instrumented(
        &self,
        job: JobId<'_>,
        input: Input<'_>,
        pipeline: &PipelineConfig,
        deadline: Option<Duration>,
    ) -> JobResult {
        self.note(job, JobEvent::Started);
        // The job span closes (inner scope) before `completed` can dump
        // the flight recorder, so the dump's trace contains this job's own
        // `job:<name>#<corr>` span rather than an unfinished hole.
        let result = {
            let _job_span = vegen_trace::enabled().then(|| {
                vegen_trace::span_owned("engine", format!("job:{}#{}", job.name, job.corr))
            });
            self.compile_one_inner(job, input, pipeline, deadline)
        };
        self.note(job, JobEvent::Completed { result: &result, compiled: true });
        result
    }

    /// The disk tier and this build's fingerprint for `pipeline`'s
    /// entries, when a cache directory is configured.
    fn disk_tier(&self, pipeline: &PipelineConfig) -> Option<(&DiskCache, String)> {
        let disk = self.disk.as_ref()?;
        Some((disk, isa_fingerprint(&pipeline.target, pipeline.canonicalize_patterns)))
    }

    /// Both cache tiers, by address: the memory tier, then the disk tier
    /// with promotion. Entries were verified when written, so a hit from
    /// either skips re-verification; a corrupt disk entry becomes a typed
    /// fault in `faults` and reads as absent. The one lookup both the
    /// hashed path and the alias-resolved path go through.
    fn lookup_tiers(
        &self,
        job: JobId<'_>,
        hash: ContentHash,
        pipeline: &PipelineConfig,
        faults: &mut Vec<CompileError>,
        t0: Instant,
    ) -> Option<JobResult> {
        let (value, disk_hit) = if let Some(value) = self.cache.get(hash) {
            vegen_trace::instant("engine", "cache_hit");
            (value, false)
        } else {
            let (disk, fingerprint) = self.disk_tier(pipeline)?;
            match disk.load(hash, &fingerprint) {
                Ok(Some(found)) => {
                    self.note(job, JobEvent::DiskHit);
                    (self.cache.insert(hash, found.value), true)
                }
                Ok(None) => return None,
                Err(detail) => {
                    faults.push(self.cache_io_fault(job, detail));
                    return None;
                }
            }
        };
        let mut hit = JobResult::new(job, Rung::Primary);
        hit.hash = Some(hash);
        hit.kernel = Some(value.kernel);
        hit.faults = std::mem::take(faults);
        hit.stages = value.stages;
        hit.cache_hit = true;
        hit.disk_hit = disk_hit;
        hit.wall = t0.elapsed();
        Some(hit)
    }

    /// A recoverable cache-I/O failure, noted and typed.
    fn cache_io_fault(&self, job: JobId<'_>, detail: String) -> CompileError {
        self.note(job, JobEvent::CacheIoFault);
        CompileError::new(Stage::Cache, job.name, ErrorCause::CacheIo { detail })
    }

    /// The degradation-ladder body: cache lookup, then requested config →
    /// width 1 → scalar → `Failed`. Only ladder moments are noted here;
    /// [`Engine::compile_instrumented`] notes the lifecycle around it.
    fn compile_one_inner(
        &self,
        job: JobId<'_>,
        input: Input<'_>,
        pipeline: &PipelineConfig,
        deadline: Option<Duration>,
    ) -> JobResult {
        let t0 = Instant::now();
        let mut faults: Vec<CompileError> = Vec::new();

        // A request the alias tier resolved is answered by address. Only
        // when neither tier holds it (evicted from memory and gone, stale
        // or corrupt on disk) is its source parsed, and the job runs the
        // ordinary path below — same corr id, same single `completed`.
        let recovered;
        let (function, resolved) = match input {
            Input::Function(function) => (function, None),
            Input::Resolved(hash, source) => {
                if let Some(hit) = self.lookup_tiers(job, hash, pipeline, &mut faults, t0) {
                    return hit;
                }
                self.aliases.note_fallback();
                vegen_trace::instant("engine", "alias_fallback");
                recovered = source
                    .function()
                    .expect("an alias entry's source parsed when the entry was recorded");
                (&recovered, Some(hash))
            }
        };

        // Canonicalize. If even that fails there is nothing to hash and
        // nothing the scalar rung could lower.
        let mut ctx = CompileCtx::default();
        let canonical = match Engine::attempt(job.name, &mut ctx, |ctx| prepare(function, ctx)) {
            Ok(f) => f,
            Err(e) => {
                self.note(job, JobEvent::AttemptFailed(&e));
                faults.push(e);
                return self.failed_result(job, None, faults, t0);
            }
        };
        // Engine-level beam-thread override: a nonzero
        // `EngineConfig::beam_threads` fills in any job that left the
        // knob on auto. Applied before hashing for clarity, though the
        // knob is excluded from content hashes either way — thread count
        // never changes the selected packs.
        let pipeline_owned;
        let pipeline = if self.cfg.beam_threads != 0 && pipeline.beam.beam_threads == 0 {
            pipeline_owned = PipelineConfig {
                beam: BeamConfig { beam_threads: self.cfg.beam_threads, ..pipeline.beam.clone() },
                ..pipeline.clone()
            };
            &pipeline_owned
        } else {
            pipeline
        };
        let hash = content_hash(&canonical, pipeline);

        // An alias-resolved job already looked this address up.
        if resolved != Some(hash) {
            if let Some(hit) = self.lookup_tiers(job, hash, pipeline, &mut faults, t0) {
                return hit;
            }
        }
        vegen_trace::instant("engine", "cache_miss");

        for plan in &LADDER {
            let narrow;
            let driver_plan = match plan.search {
                Search::Requested => Plan::Full(&pipeline.beam),
                Search::Width1 => {
                    self.note(job, JobEvent::Retry);
                    narrow = BeamConfig {
                        budget: pipeline.beam.budget.clone(),
                        beam_threads: pipeline.beam.beam_threads,
                        ..BeamConfig::slp()
                    };
                    Plan::Full(&narrow)
                }
                Search::Scalar => Plan::Scalar,
            };
            ctx.deadline = deadline.map(|d| (Instant::now() + d, d));
            let attempt = Engine::attempt(job.name, &mut ctx, |ctx| {
                compile_prepared(&canonical, pipeline, driver_plan, ctx)
            });
            let (kernel, stages) = match attempt {
                Ok(compiled) => compiled,
                Err(e) => {
                    self.note(job, JobEvent::AttemptFailed(&e));
                    faults.push(e);
                    continue;
                }
            };
            if plan.search != Search::Scalar {
                self.note_compilation(&kernel);
            }
            if plan.rung != Rung::Primary {
                self.note(job, JobEvent::Fallback(plan.rung));
            }
            let (verify_time, verify_error) = self.verify(&kernel);
            let mut value = CachedCompile { kernel: Arc::new(kernel), stages };
            // A program that failed verification is not poisoned into
            // either tier.
            if plan.shared && verify_error.is_none() {
                if let Some((disk, fingerprint)) = self.disk_tier(pipeline) {
                    match disk.store(
                        hash,
                        &fingerprint,
                        &pipeline.target.name,
                        pipeline.canonicalize_patterns,
                        &value.kernel,
                        &value.stages,
                    ) {
                        Ok(()) => self.count(|c| c.disk_stores += 1),
                        Err(detail) => faults.push(self.cache_io_fault(job, detail)),
                    }
                }
                value = self.cache.insert(hash, value);
            }
            let mut result = JobResult::new(job, plan.rung);
            result.hash = Some(hash);
            result.kernel = Some(value.kernel);
            result.faults = faults;
            result.stages = value.stages;
            result.verify_time = verify_time;
            result.verify_error = verify_error;
            result.wall = t0.elapsed();
            return result;
        }
        self.failed_result(job, Some(hash), faults, t0)
    }

    /// A terminal [`Rung::Failed`] result.
    fn failed_result(
        &self,
        job: JobId<'_>,
        hash: Option<ContentHash>,
        faults: Vec<CompileError>,
        t0: Instant,
    ) -> JobResult {
        vegen_trace::instant("engine", "job_failed");
        let mut failed = JobResult::new(job, Rung::Failed);
        failed.hash = hash;
        failed.faults = faults;
        failed.wall = t0.elapsed();
        failed
    }

    /// Worker threads a batch of `jobs` jobs runs on:
    /// [`EngineConfig::threads`], with `0` resolved by
    /// [`pool::default_threads`].
    pub fn batch_threads(&self, jobs: usize) -> usize {
        match self.cfg.threads {
            0 => pool::default_threads(jobs),
            n => n,
        }
    }

    /// Compile a batch in parallel. Results are input-ordered and
    /// deterministic: the programs produced never depend on thread count
    /// or scheduling, only the timing fields do. One job's failure (even
    /// a panic) never takes sibling jobs with it; under
    /// [`EngineConfig::fail_fast`] jobs *started after* the first
    /// sub-primary result come back [`Rung::Skipped`].
    pub fn compile_batch(&self, jobs: &[Job]) -> Vec<JobResult> {
        let threads = self.batch_threads(jobs.len());
        let abort = AtomicBool::new(false);
        // Serve admission notes `admitted` at enqueue time (marking the
        // job pre-admitted); direct batch callers get it here.
        for job in jobs.iter().filter(|j| !j.pre_admitted) {
            self.note(job.id(), JobEvent::Admitted(None));
        }
        pool::run_batch_recover(
            threads,
            jobs,
            |_, job| {
                if self.cfg.fail_fast && abort.load(Ordering::Relaxed) {
                    let skipped = JobResult::new(job.id(), Rung::Skipped);
                    self.note(job.id(), JobEvent::Completed { result: &skipped, compiled: false });
                    return skipped;
                }
                let input = match &job.input {
                    JobInput::Function { function, .. } => Input::Function(function),
                    JobInput::Resolved { hash, source } => Input::Resolved(*hash, source),
                };
                let deadline = job.deadline.or(self.cfg.deadline);
                let result = self.compile_instrumented(job.id(), input, &job.pipeline, deadline);
                // First sight of these request bytes: remember where they
                // led, so the next request spelled the same way is looked
                // up by address.
                if let (
                    JobInput::Function { source: Some(source), .. },
                    Rung::Primary,
                    Some(hash),
                ) = (&job.input, result.rung, result.hash)
                {
                    self.aliases.record(source, &job.pipeline, &job.name, hash);
                }
                if self.cfg.fail_fast && result.rung != Rung::Primary {
                    abort.store(true, Ordering::Relaxed);
                }
                result
            },
            // Second line of defense: a panic that escapes compile_one's
            // own isolation (engine bookkeeping, cache code) still only
            // fails its job, not the batch.
            |_, job, message| {
                let stage = take_panic_stage().unwrap_or(Stage::Canonicalize);
                let fault = CompileError::new(stage, &job.name, ErrorCause::Panic { message });
                self.note(job.id(), JobEvent::AttemptFailed(&fault));
                let mut failed = JobResult::new(job.id(), Rung::Failed);
                failed.faults = vec![fault];
                self.note(job.id(), JobEvent::Completed { result: &failed, compiled: false });
                if let Some(flight) = &self.flight {
                    let tail = self.events.as_ref().map(|l| l.tail()).unwrap_or_default();
                    let _ = flight.dump("escaped_panic", &tail);
                }
                failed
            },
        )
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Current counters of the request-alias tier.
    pub fn alias_stats(&self) -> AliasStats {
        self.aliases.stats()
    }

    /// Engine-lifetime pipeline counters.
    pub fn counters(&self) -> EngineCounters {
        *self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineConfig::default())
    }
}
