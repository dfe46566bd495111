//! The engine's one JSON rendering of compile results.
//!
//! [`result_json`] is a [`JobResult`] as the serve protocol answers a
//! `compile` request. [`row_json`] is that object plus one `detail` block
//! (search statistics, stage times, static analysis, decision summary):
//! a kernel row of the `vegen-engine-report/v11` document that
//! [`report_json`] assembles for `vegen-engine`'s suite, `soak` and
//! `lint` subcommands. DESIGN §10 lists every member with its source. The
//! workspace builds offline without serde, so rendering goes through the
//! in-tree [`json`](crate::json) writer.

use crate::cache::CacheStats;
use crate::diskcache::DiskCacheStats;
use crate::events::fault_json;
use crate::json::Json;
use crate::{Engine, EngineCounters, JobResult};
use std::time::Duration;
use vegen::analysis::AnalysisReport;
use vegen::driver::target_desc;
use vegen::error::Stage;
use vegen_core::beam::BeamStats;
use vegen_core::DecisionLog;
use vegen_isa::TargetIsa;
use vegen_trace::TraceData;

/// The `schema` member of every engine report.
pub const SCHEMA: &str = "vegen-engine-report/v11";

fn micros(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e6)
}

fn count(n: usize) -> Json {
    Json::int(n as u64)
}

fn strings(items: impl IntoIterator<Item = String>) -> Json {
    Json::Arr(items.into_iter().map(Json::str).collect())
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
        ("frozen_reuses", Json::int(c.frozen_reuses)),
    ])
}

/// JSON rendering of the in-memory cache counters.
pub fn cache_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::int(c.hits)),
        ("misses", Json::int(c.misses)),
        ("evictions", Json::int(c.evictions)),
        ("entries", count(c.entries)),
        ("capacity", count(c.capacity)),
        ("hit_rate", Json::Num(c.hit_rate())),
    ])
}

/// JSON rendering of the on-disk cache counters (the report's `disk`
/// block when a cache directory is configured).
pub fn disk_json(d: &DiskCacheStats) -> Json {
    Json::obj([
        ("entries", count(d.entries)),
        ("hits", Json::int(d.hits)),
        ("misses", Json::int(d.misses)),
        ("stores", Json::int(d.stores)),
        ("invalidated", Json::int(d.invalidated)),
        ("corrupt", Json::int(d.corrupt)),
        ("io_errors", Json::int(d.io_errors)),
        ("evicted", Json::int(d.evicted)),
    ])
}

/// The members of [`result_json`], in order. A job that produced a kernel
/// also carries its modeled cycles and speedups, from one
/// [`cycles`](vegen::driver::CompiledKernel::cycles) call.
fn result_members(r: &JobResult) -> Vec<(&'static str, Json)> {
    let faults = r.faults.iter().map(|f| fault_json(f.stage, f.cause.tag(), f.cause.to_string()));
    let mut members = vec![
        ("name", Json::str(&r.name)),
        ("corr", Json::str(&r.corr)),
        ("rung", Json::str(r.rung.name())),
        ("cache", Json::str(r.cache_source())),
        ("hash", r.hash.map_or(Json::Null, |h| Json::str(h.hex()))),
        ("failed", Json::Bool(r.failed())),
        ("faults", Json::Arr(faults.collect())),
        ("wall_us", Json::int(r.wall.as_micros() as u64)),
        ("verify_error", r.verify_error.as_deref().map_or(Json::Null, Json::str)),
    ];
    if let Some(kernel) = &r.kernel {
        let (scalar, baseline, vegen) = kernel.cycles();
        members.extend([
            (
                "cycles",
                Json::obj([
                    ("scalar", Json::Num(scalar)),
                    ("baseline", Json::Num(baseline)),
                    ("vegen", Json::Num(vegen)),
                ]),
            ),
            ("speedup_baseline", Json::Num(baseline / vegen)),
            ("speedup_scalar", Json::Num(scalar / vegen)),
        ]);
    }
    members
}

/// A job's result as the serve protocol answers a `compile` request.
pub fn result_json(r: &JobResult) -> Json {
    Json::obj(result_members(r))
}

/// A job's row in a report: [`result_json`] plus its `detail` block. A
/// job without a kernel reports zeroed search statistics and an empty
/// analysis there.
pub fn row_json(r: &JobResult) -> Json {
    let mut members = result_members(r);
    members.push(("detail", detail_json(r)));
    Json::obj(members)
}

fn detail_json(r: &JobResult) -> Json {
    let kernel = r.kernel.as_deref();
    let selection = kernel.map(|k| &k.selection);
    let vegen_ops = kernel.map(|k| k.vegen.vector_ops_used()).unwrap_or_default();
    Json::obj([
        ("states_expanded", count(selection.map_or(0, |s| s.states_expanded))),
        ("beam", beam_json(&selection.map(|s| s.stats).unwrap_or_default())),
        ("packs_committed", count(selection.map_or(0, |s| s.packs.len()))),
        ("vegen_ops", strings(vegen_ops)),
        ("stage_times", stage_times_json(r)),
        ("analysis", analysis_json(kernel.map(|k| &k.analysis))),
        (
            "decisions",
            selection.and_then(|s| s.decisions.as_ref()).map_or(Json::Null, decisions_json),
        ),
    ])
}

fn beam_json(b: &BeamStats) -> Json {
    Json::obj([
        ("transitions", Json::int(b.transitions)),
        ("dedup_hits", Json::int(b.dedup_hits)),
        ("hash_collisions", Json::int(b.hash_collisions)),
        ("producer_cache_hits", Json::int(b.producer_cache_hits)),
        ("producer_cache_misses", Json::int(b.producer_cache_misses)),
        ("interned_operands", count(b.interned_operands)),
        ("interned_packs", count(b.interned_packs)),
        ("beam_wall_us", micros(b.beam_wall)),
        ("workers", count(b.workers)),
        ("fanouts", Json::int(b.fanouts)),
        ("merge_wall_us", micros(b.merge_wall)),
        ("freeze_wall_us", micros(b.freeze_wall)),
        ("frozen_reused", Json::Bool(b.frozen_reused)),
    ])
}

/// One `<stage>_us` member per pipeline stage, then verify (the engine's
/// own stage) and the total.
fn stage_times_json(r: &JobResult) -> Json {
    let mut members: Vec<(String, Json)> = r
        .stages
        .iter()
        .chain([(Stage::Verify, r.verify_time)])
        .map(|(stage, d)| (format!("{stage}_us"), micros(d)))
        .collect();
    members.push(("total_us".to_string(), micros(r.stages.total() + r.verify_time)));
    Json::Obj(members)
}

/// The static-validation outcome (legality + provenance + lint); all zero
/// for a job without a kernel.
fn analysis_json(a: Option<&AnalysisReport>) -> Json {
    let empty = AnalysisReport::default();
    let a = a.unwrap_or(&empty);
    Json::obj([
        ("errors", count(a.error_count())),
        ("warnings", count(a.warning_count())),
        ("packs_checked", count(a.packs_checked)),
        ("lanes_proved", count(a.lanes_proved)),
        ("diagnostics", strings(a.all().map(|d| d.to_string()))),
    ])
}

/// A compact rendering of a selection's decision log (the full
/// per-candidate log stays in `vegen-engine explain`).
fn decisions_json(log: &DecisionLog) -> Json {
    let committed = log
        .committed
        .iter()
        .map(|c| Json::obj([("pack", Json::str(&c.pack)), ("cost", Json::Num(c.cost))]));
    Json::obj([
        ("iterations", count(log.iterations.len())),
        ("candidates", count(log.iterations.iter().map(|it| it.candidates.len()).sum())),
        ("committed_packs", Json::Arr(committed.collect())),
    ])
}

/// One pass of a batch through the engine: its label (`cold`, `warm`,
/// …), wall time and one [`row_json`] per result, in input order.
pub fn run_json(label: &str, wall: Duration, results: &[JobResult]) -> Json {
    Json::obj([
        ("label", Json::str(label)),
        ("wall_us", micros(wall)),
        ("kernels", Json::Arr(results.iter().map(row_json).collect())),
    ])
}

/// The report's `trace` block: what the drained session `data` recorded
/// (`None` when tracing was off) and where its Chrome trace and folded
/// stacks were written.
pub fn trace_json(data: Option<&TraceData>, file: Option<&str>, folded_file: Option<&str>) -> Json {
    let path = |p: Option<&str>| p.map_or(Json::Null, Json::str);
    Json::obj([
        ("enabled", Json::Bool(data.is_some())),
        ("events", Json::int(data.map_or(0, TraceData::event_count))),
        ("dropped", Json::int(data.map_or(0, TraceData::dropped))),
        ("threads", count(data.map_or(0, |d| d.threads.len()))),
        ("file", path(file)),
        ("folded_file", path(folded_file)),
    ])
}

/// The `vegen-engine-report/v11` document of a session on `engine`
/// compiling for `target` at `beam_width`: the [`run_json`] rows, run
/// with `verify_trials` verification trials per kernel, around the
/// engine's cache, disk and pipeline counters, the metrics registry and
/// the target's match-table statistics. `threads` is what the engine
/// resolves for a batch the size of the kernel suite. `trace` is the
/// [`trace_json`] block of a traced session and `soak` the soak summary;
/// `None` renders tracing off and `null`.
pub fn report_json(
    engine: &Engine,
    target: &TargetIsa,
    beam_width: usize,
    verify_trials: u64,
    runs: Vec<Json>,
    trace: Option<Json>,
    soak: Option<Json>,
) -> Json {
    let table = vegen_analysis::match_table_stats(&target_desc(target, true));
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("target", Json::str(&target.name)),
        ("beam_width", count(beam_width)),
        ("threads", count(engine.batch_threads(vegen_kernels::all().len()))),
        ("beam_threads", count(engine.config().beam_threads)),
        ("verify_trials", Json::int(verify_trials)),
        ("runs", Json::Arr(runs)),
        ("cache", cache_json(&engine.cache_stats())),
        ("disk", engine.disk_stats().as_ref().map_or(Json::Null, disk_json)),
        ("counters", counters_json(&engine.counters())),
        ("trace", trace.unwrap_or_else(|| trace_json(None, None, None))),
        ("metrics", metrics_registry_json()),
        (
            "match_table",
            Json::obj([
                ("rules", count(table.rules)),
                ("ops", count(table.ops)),
                ("dead_rules", count(table.dead_rules)),
                ("max_overlap_class", count(table.max_overlap_class)),
            ]),
        ),
        ("soak", soak.unwrap_or(Json::Null)),
    ])
}
