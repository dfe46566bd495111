//! Telemetry report types and their JSON rendering.
//!
//! An [`EngineReport`] is the engine's external instrumentation surface:
//! one entry per kernel (cycles under the paper's throughput model,
//! speedups, per-stage wall times, search statistics) plus engine-level
//! cache and pipeline counters. The shapes are plain data and would
//! `#[derive(serde::Serialize)]` verbatim; this workspace builds offline
//! without serde, so rendering goes through the in-tree [`json`] writer
//! instead.

use crate::cache::CacheStats;
use crate::diskcache::DiskCacheStats;
use crate::json::Json;
use crate::{EngineCounters, JobResult};
use std::time::Duration;
use vegen::driver::StageTimes;
use vegen::error::Stage;

fn micros(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e6)
}

/// Snapshot the process-wide metrics registry as JSON, after syncing the
/// gauges that are only computed at exposition time: the engine's cache
/// and disk hit ratios over every compiled job, and
/// `trace_dropped_events`, the total events lost to ring-buffer overflow
/// across all trace sessions.
pub fn metrics_registry_json() -> Json {
    sync_exposition_gauges();
    vegen_trace::metrics::snapshot().to_json()
}

/// Render the process-wide metrics registry in Prometheus text
/// exposition format (version 0.0.4), syncing exposition-time gauges
/// first.
pub fn metrics_prometheus() -> String {
    sync_exposition_gauges();
    vegen_trace::metrics::snapshot().prometheus()
}

fn sync_exposition_gauges() {
    use vegen_trace::metrics::gauge;
    if let Some((hits, disk)) = crate::events::cache_ratios() {
        gauge("engine_cache_hit_ratio").set(hits);
        gauge("engine_disk_hit_ratio").set(disk);
    }
    gauge("trace_dropped_events").set(vegen_trace::dropped_total() as f64);
}

/// JSON rendering of the engine counters (the report's `counters` block;
/// also what the serve protocol's `metrics` op returns).
pub fn counters_json(c: &EngineCounters) -> Json {
    Json::obj([
        ("states_expanded", Json::int(c.states_expanded)),
        ("transitions", Json::int(c.transitions)),
        ("dedup_hits", Json::int(c.dedup_hits)),
        ("producer_cache_hits", Json::int(c.producer_cache_hits)),
        ("producer_cache_misses", Json::int(c.producer_cache_misses)),
        ("packs_committed", Json::int(c.packs_committed)),
        ("compilations", Json::int(c.compilations)),
        ("analyses", Json::int(c.analyses)),
        ("analysis_errors", Json::int(c.analysis_errors)),
        ("failures", Json::int(c.failures)),
        ("retries", Json::int(c.retries)),
        ("degradations", Json::int(c.degradations)),
        ("deadline_hits", Json::int(c.deadline_hits)),
        ("disk_hits", Json::int(c.disk_hits)),
        ("disk_stores", Json::int(c.disk_stores)),
        ("cache_io_errors", Json::int(c.cache_io_errors)),
        ("tt_hits", Json::int(c.tt_hits)),
        ("tt_misses", Json::int(c.tt_misses)),
        ("frozen_reuses", Json::int(c.frozen_reuses)),
    ])
}

/// JSON rendering of the in-memory cache counters.
pub fn cache_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::int(c.hits)),
        ("misses", Json::int(c.misses)),
        ("evictions", Json::int(c.evictions)),
        ("entries", Json::int(c.entries as u64)),
        ("capacity", Json::int(c.capacity as u64)),
        ("hit_rate", Json::Num(c.hit_rate())),
    ])
}

/// JSON rendering of the on-disk cache counters (the report's `disk`
/// block when a cache directory is configured).
pub fn disk_json(d: &DiskCacheStats) -> Json {
    Json::obj([
        ("entries", Json::int(d.entries as u64)),
        ("hits", Json::int(d.hits)),
        ("misses", Json::int(d.misses)),
        ("stores", Json::int(d.stores)),
        ("invalidated", Json::int(d.invalidated)),
        ("corrupt", Json::int(d.corrupt)),
        ("io_errors", Json::int(d.io_errors)),
        ("evicted", Json::int(d.evicted)),
    ])
}

/// Per-stage wall times in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageReport {
    /// The stage times being reported.
    pub stages: StageTimes,
    /// Verification time (the engine's own stage, not the driver's).
    pub verify: Duration,
}

impl StageReport {
    /// One `<stage>_us` member per pipeline stage, then verify and the total.
    fn to_json(self) -> Json {
        let mut pairs: Vec<(String, Json)> = self
            .stages
            .iter()
            .chain([(Stage::Verify, self.verify)])
            .map(|(stage, d)| (format!("{stage}_us"), micros(d)))
            .collect();
        pairs.push(("total_us".to_string(), micros(self.stages.total() + self.verify)));
        Json::Obj(pairs)
    }
}

/// One kernel's row in the report.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Content address (hex; empty when preparation failed before
    /// anything could be hashed).
    pub content_hash: String,
    /// Whether the cache served it.
    pub cache_hit: bool,
    /// Which cache level served it: `"disk"`, `"memory"`, or `"miss"`
    /// (since schema v6).
    pub cache: &'static str,
    /// Degradation rung the job completed on ("primary", "width1",
    /// "scalar", "failed", "skipped").
    pub rung: &'static str,
    /// Whether the job produced no program at all.
    pub failed: bool,
    /// Rendered faults collected down the ladder (empty on a clean run).
    pub faults: Vec<String>,
    /// Estimated cycles: scalar / baseline-SLP / VeGen.
    pub scalar_cycles: f64,
    /// Baseline cycles.
    pub baseline_cycles: f64,
    /// VeGen cycles.
    pub vegen_cycles: f64,
    /// VeGen speedup over the baseline (the paper's headline metric).
    pub speedup_vs_baseline: f64,
    /// VeGen speedup over scalar.
    pub speedup_vs_scalar: f64,
    /// Beam states expanded selecting this kernel's packs.
    pub states_expanded: usize,
    /// Beam search-effort and cache statistics for this kernel.
    pub beam: vegen_core::beam::BeamStats,
    /// Packs the selection committed.
    pub packs_committed: usize,
    /// Distinct vector instructions VeGen used.
    pub vegen_ops: Vec<String>,
    /// Stage timings (cold-compile attribution; see [`JobResult::stages`]).
    pub stage_times: StageReport,
    /// Wall time this job cost in this run.
    pub wall: Duration,
    /// Verification failure, if any.
    pub verify_error: Option<String>,
    /// Static-validation outcome (legality + provenance + lint).
    pub analysis: AnalysisSummary,
    /// Decision-log summary (present only when the batch ran with
    /// `BeamConfig::log_decisions`).
    pub decisions: Option<DecisionSummary>,
}

/// A compact rendering of a kernel's [`vegen_core::DecisionLog`] for the
/// report (the full per-candidate log stays in `vegen-engine explain`).
#[derive(Debug, Clone)]
pub struct DecisionSummary {
    /// Beam iterations run.
    pub iterations: usize,
    /// Candidates recorded across all iterations.
    pub candidates: usize,
    /// The committed pack sequence: `(description, costop)`.
    pub committed_packs: Vec<(String, f64)>,
}

impl DecisionSummary {
    /// Summarize a selection's decision log, if it kept one.
    pub fn from_log(log: &vegen_core::DecisionLog) -> DecisionSummary {
        DecisionSummary {
            iterations: log.iterations.len(),
            candidates: log.iterations.iter().map(|it| it.candidates.len()).sum(),
            committed_packs: log.committed.iter().map(|c| (c.pack.clone(), c.cost)).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", Json::int(self.iterations as u64)),
            ("candidates", Json::int(self.candidates as u64)),
            (
                "committed_packs",
                Json::Arr(
                    self.committed_packs
                        .iter()
                        .map(|(pack, cost)| {
                            Json::obj([("pack", Json::str(pack)), ("cost", Json::Num(*cost))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl KernelReport {
    /// Build a row from an engine result. A failed/skipped job (no
    /// kernel) yields a row with zeroed metrics and its faults rendered.
    pub fn from_result(r: &JobResult) -> KernelReport {
        let faults = r.faults.iter().map(|e| e.to_string()).collect();
        let base = KernelReport {
            name: r.name.clone(),
            content_hash: r.hash.map(|h| h.hex()).unwrap_or_default(),
            cache_hit: r.cache_hit,
            cache: r.cache_source(),
            rung: r.rung.name(),
            failed: r.failed(),
            faults,
            scalar_cycles: 0.0,
            baseline_cycles: 0.0,
            vegen_cycles: 0.0,
            speedup_vs_baseline: 0.0,
            speedup_vs_scalar: 0.0,
            states_expanded: 0,
            beam: Default::default(),
            packs_committed: 0,
            vegen_ops: Vec::new(),
            stage_times: StageReport { stages: r.stages, verify: r.verify_time },
            wall: r.wall,
            verify_error: r.verify_error.clone(),
            analysis: AnalysisSummary::default(),
            decisions: None,
        };
        let Some(kernel) = r.kernel.as_deref() else { return base };
        let (scalar, baseline, vegen) = kernel.cycles();
        KernelReport {
            scalar_cycles: scalar,
            baseline_cycles: baseline,
            vegen_cycles: vegen,
            speedup_vs_baseline: kernel.speedup_vs_baseline(),
            speedup_vs_scalar: kernel.speedup_vs_scalar(),
            states_expanded: kernel.selection.states_expanded,
            beam: kernel.selection.stats,
            packs_committed: kernel.selection.packs.len(),
            vegen_ops: kernel.vegen.vector_ops_used(),
            analysis: AnalysisSummary::from_report(&kernel.analysis),
            decisions: kernel.selection.decisions.as_ref().map(DecisionSummary::from_log),
            ..base
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("content_hash", Json::str(&self.content_hash)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("cache", Json::str(self.cache)),
            ("rung", Json::str(self.rung)),
            ("failed", Json::Bool(self.failed)),
            ("faults", Json::Arr(self.faults.iter().map(Json::str).collect())),
            ("scalar_cycles", Json::Num(self.scalar_cycles)),
            ("baseline_cycles", Json::Num(self.baseline_cycles)),
            ("vegen_cycles", Json::Num(self.vegen_cycles)),
            ("speedup_vs_baseline", Json::Num(self.speedup_vs_baseline)),
            ("speedup_vs_scalar", Json::Num(self.speedup_vs_scalar)),
            ("states_expanded", Json::int(self.states_expanded as u64)),
            (
                "beam",
                Json::obj([
                    ("transitions", Json::int(self.beam.transitions)),
                    ("dedup_hits", Json::int(self.beam.dedup_hits)),
                    ("hash_collisions", Json::int(self.beam.hash_collisions)),
                    ("producer_cache_hits", Json::int(self.beam.producer_cache_hits)),
                    ("producer_cache_misses", Json::int(self.beam.producer_cache_misses)),
                    ("interned_operands", Json::int(self.beam.interned_operands as u64)),
                    ("interned_packs", Json::int(self.beam.interned_packs as u64)),
                    ("beam_wall_us", micros(self.beam.beam_wall)),
                    ("workers", Json::int(self.beam.workers as u64)),
                    ("fanouts", Json::int(self.beam.fanouts)),
                    ("tt_hits", Json::int(self.beam.tt_hits)),
                    ("tt_misses", Json::int(self.beam.tt_misses)),
                    ("merge_wall_us", micros(self.beam.merge_wall)),
                    ("freeze_wall_us", micros(self.beam.freeze_wall)),
                    ("frozen_reused", Json::Bool(self.beam.frozen_reused)),
                ]),
            ),
            ("packs_committed", Json::int(self.packs_committed as u64)),
            ("vegen_ops", Json::Arr(self.vegen_ops.iter().map(Json::str).collect())),
            ("stage_times", self.stage_times.to_json()),
            ("wall_us", micros(self.wall)),
            (
                "verify_error",
                match &self.verify_error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
            (
                "decisions",
                match &self.decisions {
                    Some(d) => d.to_json(),
                    None => Json::Null,
                },
            ),
            ("analysis", self.analysis.to_json()),
        ])
    }
}

/// The static-validation block of a kernel row (since schema v4).
#[derive(Debug, Clone, Default)]
pub struct AnalysisSummary {
    /// Error-severity findings across all three passes.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Packs the legality pass examined.
    pub packs_checked: usize,
    /// Stored lanes the provenance pass proved equal to scalar.
    pub lanes_proved: usize,
    /// Rendered diagnostics ("severity [location]: message").
    pub diagnostics: Vec<String>,
}

impl AnalysisSummary {
    /// Summarize a driver analysis report.
    pub fn from_report(a: &vegen::analysis::AnalysisReport) -> AnalysisSummary {
        AnalysisSummary {
            errors: a.error_count(),
            warnings: a.warning_count(),
            packs_checked: a.packs_checked,
            lanes_proved: a.lanes_proved,
            diagnostics: a.all().map(|d| d.to_string()).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("errors", Json::int(self.errors as u64)),
            ("warnings", Json::int(self.warnings as u64)),
            ("packs_checked", Json::int(self.packs_checked as u64)),
            ("lanes_proved", Json::int(self.lanes_proved as u64)),
            ("diagnostics", Json::Arr(self.diagnostics.iter().map(Json::str).collect())),
        ])
    }
}

/// One pass of a batch through the engine.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Run label ("cold", "warm", …).
    pub label: String,
    /// Total batch wall time.
    pub wall: Duration,
    /// Cache hits within this run.
    pub cache_hits: usize,
    /// How many of those hits came from the disk cache (since v6).
    pub disk_hits: usize,
    /// Kernel rows, in input order.
    pub kernels: Vec<KernelReport>,
}

impl RunReport {
    /// Build a run row from a labeled batch result.
    pub fn new(label: impl Into<String>, wall: Duration, results: &[JobResult]) -> RunReport {
        RunReport {
            label: label.into(),
            wall,
            cache_hits: results.iter().filter(|r| r.cache_hit).count(),
            disk_hits: results.iter().filter(|r| r.disk_hit).count(),
            kernels: results.iter().map(KernelReport::from_result).collect(),
        }
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("wall_us", micros(self.wall)),
            ("cache_hits", Json::int(self.cache_hits as u64)),
            ("disk_hits", Json::int(self.disk_hits as u64)),
            ("kernels_total", Json::int(self.kernels.len() as u64)),
            ("kernels", Json::Arr(self.kernels.iter().map(|k| k.to_json()).collect())),
        ])
    }
}

/// The full instrumentation report of an engine session.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Target ISA name.
    pub target: String,
    /// Beam width used.
    pub beam_width: usize,
    /// Worker threads (resolved, not the `0` sentinel).
    pub threads: usize,
    /// Intra-kernel beam-search worker threads (`0` = per-search auto;
    /// since schema v7).
    pub beam_threads: usize,
    /// Verification trials per cache entry.
    pub verify_trials: u64,
    /// Runs, in execution order.
    pub runs: Vec<RunReport>,
    /// Cache counters at report time.
    pub cache: CacheStats,
    /// On-disk cache counters (`None` when no cache directory is
    /// configured; since schema v6).
    pub disk: Option<DiskCacheStats>,
    /// Engine-lifetime pipeline counters.
    pub counters: EngineCounters,
    /// Trace-session metadata for the run.
    pub trace: TraceSummary,
    /// Structural statistics of the match table the session compiled
    /// against (since schema v9).
    pub match_table: vegen_analysis::MatchTableStats,
    /// Soak-harness summary (pre-rendered by [`crate::soak`]; `None` for
    /// plain suite runs; since schema v10).
    pub soak: Option<Json>,
}

/// Metadata about the trace session that accompanied a report (since
/// schema v3).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Whether tracing was enabled for the session.
    pub enabled: bool,
    /// Events recorded across all threads.
    pub events: u64,
    /// Events dropped to buffer overflow.
    pub dropped: u64,
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Where the Chrome trace was written, if anywhere.
    pub file: Option<String>,
    /// Where the folded stacks were written, if anywhere.
    pub folded_file: Option<String>,
}

impl TraceSummary {
    fn to_json(&self) -> Json {
        let opt = |v: &Option<String>| v.as_ref().map_or(Json::Null, Json::str);
        Json::obj([
            ("enabled", Json::Bool(self.enabled)),
            ("events", Json::int(self.events)),
            ("dropped", Json::int(self.dropped)),
            ("threads", Json::int(self.threads as u64)),
            ("file", opt(&self.file)),
            ("folded_file", opt(&self.folded_file)),
        ])
    }
}

impl EngineReport {
    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("vegen-engine-report/v10")),
            ("target", Json::str(&self.target)),
            ("beam_width", Json::int(self.beam_width as u64)),
            ("threads", Json::int(self.threads as u64)),
            ("beam_threads", Json::int(self.beam_threads as u64)),
            ("verify_trials", Json::int(self.verify_trials)),
            ("runs", Json::Arr(self.runs.iter().map(|r| r.to_json()).collect())),
            ("cache", cache_json(&self.cache)),
            ("disk", self.disk.as_ref().map_or(Json::Null, disk_json)),
            ("counters", counters_json(&self.counters)),
            ("trace", self.trace.to_json()),
            // Since schema v8: the process-wide metrics registry
            // (latency histograms with percentiles, counters, gauges).
            ("metrics", metrics_registry_json()),
            // Since schema v9: the match table's structural statistics,
            // as audited by `vegen_analysis::speccheck`.
            (
                "match_table",
                Json::obj([
                    ("rules", Json::int(self.match_table.rules as u64)),
                    ("ops", Json::int(self.match_table.ops as u64)),
                    ("dead_rules", Json::int(self.match_table.dead_rules as u64)),
                    ("max_overlap_class", Json::int(self.match_table.max_overlap_class as u64)),
                ]),
            ),
            // Since schema v10: the soak-harness summary (generated-corpus
            // runs only; `null` for plain suite reports).
            ("soak", self.soak.clone().unwrap_or(Json::Null)),
        ])
    }
}
