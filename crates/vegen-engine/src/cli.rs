//! Command-line front end of the `vegen-engine` binary.
//!
//! Five entry points behind one executable:
//!
//! * the default **suite** mode — batch-compile the full `vegen-kernels`
//!   suite (cold + warm runs) and emit an [`EngineReport`]; `--trace` /
//!   `--folded` capture a [`vegen_trace`] session alongside;
//!   `--cache-dir` persists compiles to disk so a restarted run replays
//!   from the cache;
//! * **`serve`** — the resident compile daemon (`--socket PATH` or
//!   `--stdio`): newline-delimited JSON requests, bounded-queue
//!   admission, per-request deadlines, live metrics, graceful drain (see
//!   [`crate::serve`]);
//! * **`explain <kernel>`** — recompile one kernel with the beam search's
//!   decision log on and print why each pack was committed (and what was
//!   pruned against it), plus the static-validation verdict;
//! * **`lint`** — run the static validators (pack legality, lane
//!   provenance, VM lint) over the whole suite and fail on any
//!   error-severity finding, for CI gating without execution;
//! * **`check-specs`** — audit the *offline* artifact chain (pseudocode →
//!   VIDL → match table) with [`vegen_analysis::speccheck`] and fail on
//!   any error-severity finding; `--corrupt KIND` injects a deliberate
//!   corruption so CI can prove the gate actually rejects;
//! * **`diff <old.json> <new.json>`** — compare two reports
//!   kernel-by-kernel with configurable regression thresholds, for CI
//!   gating.
//!
//! Everything lives in the library (the binary is a one-line wrapper) so
//! tests can drive the exact code paths, including exit codes.

use crate::report::{EngineReport, RunReport, TraceSummary};
use crate::serve::{self, ServeConfig};
use crate::{Engine, EngineConfig, Job, JobResult, Rung};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vegen::driver::{prepare, target_desc, CompileCtx, PipelineConfig};
use vegen::fault::FaultPlan;
use vegen_core::slp::SlpCost;
use vegen_core::{select_packs, BeamConfig, CostModel, VectorizerCtx};
use vegen_isa::TargetIsa;
use vegen_trace::json::Json;

/// Run the CLI with pre-split arguments (everything after the program
/// name) and return the process exit code: `0` success, `1` verification
/// failure or regression, `2` usage/I-O error.
pub fn main_with_args(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("explain") => run_explain(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("check-specs") => run_check_specs(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("stats") => run_stats(&args[1..]),
        Some("soak") => run_soak_cmd(&args[1..]),
        _ => run_suite(args),
    }
}

/// Names of jobs whose compiled kernels failed verification, in input
/// order (the suite prints each to stderr and exits nonzero).
pub fn failing_kernels(results: &[JobResult]) -> Vec<String> {
    results.iter().filter(|r| r.verify_error.is_some()).map(|r| r.name.clone()).collect()
}

/// Print the per-kernel failure table: every job that completed below
/// [`Rung::Primary`], with its rung and the faults collected on the way
/// down. Returns `(degraded, failed)` counts. Silent when the batch was
/// entirely clean.
pub fn print_failure_table(results: &[JobResult]) -> (usize, usize) {
    let troubled: Vec<&JobResult> = results.iter().filter(|r| r.rung != Rung::Primary).collect();
    if troubled.is_empty() {
        return (0, 0);
    }
    eprintln!("vegen-engine: {} kernel(s) below primary rung:", troubled.len());
    eprintln!("  {:<24} {:<8} faults", "kernel", "rung");
    let mut degraded = 0;
    let mut failed = 0;
    for r in &troubled {
        match r.rung {
            Rung::Width1 | Rung::Scalar => degraded += 1,
            Rung::Failed => failed += 1,
            Rung::Primary | Rung::Skipped => {}
        }
        let first = r.faults.first().map(|e| e.to_string()).unwrap_or_default();
        eprintln!("  {:<24} {:<8} {first}", r.name, r.rung.name());
        for fault in r.faults.iter().skip(1) {
            eprintln!("  {:<24} {:<8} {fault}", "", "");
        }
    }
    (degraded, failed)
}

/// Resolve the fault plan from explicit CLI options or the `VEGEN_FAULTS`
/// environment variable (CLI wins). `None` means no injection.
fn resolve_fault_plan(
    spec: &Option<String>,
    seed: Option<u64>,
    count: usize,
    kernel_names: &[&str],
) -> Result<Option<FaultPlan>, String> {
    if let Some(spec) = spec {
        return FaultPlan::parse(spec).map(Some).map_err(|e| format!("--faults: {e}"));
    }
    if let Some(seed) = seed {
        return Ok(Some(FaultPlan::seeded(kernel_names, seed, count)));
    }
    match std::env::var("VEGEN_FAULTS") {
        Ok(spec) if !spec.is_empty() => {
            FaultPlan::parse(&spec).map(Some).map_err(|e| format!("VEGEN_FAULTS: {e}"))
        }
        _ => Ok(None),
    }
}

/// Default intra-kernel beam-search thread count from the
/// `VEGEN_BEAM_THREADS` environment variable (`0`/unset/unparseable =
/// auto). An explicit `--beam-threads` always wins over the environment.
fn env_beam_threads() -> usize {
    std::env::var("VEGEN_BEAM_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

pub(crate) fn parse_target(s: &str) -> Result<TargetIsa, String> {
    TargetIsa::from_name(s).ok_or_else(|| format!("unknown target {:?}", s.to_ascii_lowercase()))
}

struct SuiteOptions {
    target: TargetIsa,
    beam: usize,
    threads: usize,
    beam_threads: usize,
    runs: usize,
    verify_trials: u64,
    compact: bool,
    out: Option<String>,
    trace: Option<String>,
    folded: Option<String>,
    decisions: bool,
    deadline_ms: Option<u64>,
    fail_fast: bool,
    faults: Option<String>,
    fault_seed: Option<u64>,
    fault_count: usize,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    warm_start: bool,
    event_log: Option<String>,
    flight_dir: Option<String>,
}

fn parse_suite_args(args: &[String]) -> Result<Option<SuiteOptions>, String> {
    let mut opts = SuiteOptions {
        target: TargetIsa::avx2(),
        beam: 16,
        threads: 0,
        beam_threads: env_beam_threads(),
        runs: 2,
        verify_trials: 16,
        compact: false,
        out: None,
        trace: None,
        folded: None,
        decisions: false,
        deadline_ms: None,
        fail_fast: false,
        faults: None,
        fault_seed: None,
        fault_count: 3,
        cache_dir: None,
        cache_max_bytes: None,
        warm_start: false,
        event_log: None,
        flight_dir: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--target" => opts.target = parse_target(&value("--target")?)?,
            "--beam" => opts.beam = value("--beam")?.parse().map_err(|e| format!("--beam: {e}"))?,
            "--threads" => {
                opts.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--beam-threads" => {
                opts.beam_threads =
                    value("--beam-threads")?.parse().map_err(|e| format!("--beam-threads: {e}"))?
            }
            "--runs" => {
                opts.runs =
                    value("--runs")?.parse::<usize>().map_err(|e| format!("--runs: {e}"))?.max(1)
            }
            "--no-verify" => opts.verify_trials = 0,
            "--compact" => opts.compact = true,
            "--out" => opts.out = Some(value("--out")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            "--folded" => opts.folded = Some(value("--folded")?),
            "--decisions" => opts.decisions = true,
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--fail-fast" => opts.fail_fast = true,
            "--faults" => opts.faults = Some(value("--faults")?),
            "--fault-seed" => {
                opts.fault_seed =
                    Some(value("--fault-seed")?.parse().map_err(|e| format!("--fault-seed: {e}"))?)
            }
            "--fault-count" => {
                opts.fault_count =
                    value("--fault-count")?.parse().map_err(|e| format!("--fault-count: {e}"))?
            }
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--cache-max-bytes" => {
                opts.cache_max_bytes = Some(
                    value("--cache-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--cache-max-bytes: {e}"))?,
                )
            }
            "--warm-start" => opts.warm_start = true,
            "--event-log" => opts.event_log = Some(value("--event-log")?),
            "--flight-dir" => opts.flight_dir = Some(value("--flight-dir")?),
            "--help" | "-h" => {
                eprintln!(
                    "usage: vegen-engine [--target avx2|avx512vnni] [--beam N] [--threads N]\n\
                     \x20                   [--beam-threads N] [--runs N] [--no-verify]\n\
                     \x20                   [--compact] [--out FILE]\n\
                     \x20                   [--trace FILE] [--folded FILE] [--decisions]\n\
                     \x20                   [--deadline-ms N] [--fail-fast]\n\
                     \x20                   [--faults SPEC] [--fault-seed N] [--fault-count N]\n\
                     \x20                   [--cache-dir DIR] [--cache-max-bytes N] [--warm-start]\n\
                     \x20                   [--event-log FILE] [--flight-dir DIR]\n\
                     \x20      vegen-engine soak --seed N --count N [--shard I/N] [--trials N]\n\
                     \x20                   [--fault-every K] [--target T] [--beam N]\n\
                     \x20                   [--beam-threads N] [--deadline-ms N]\n\
                     \x20                   [--cache-dir DIR] [--cache-max-bytes N]\n\
                     \x20                   [--seeds-out DIR] [--no-minimize] [--out FILE]\n\
                     \x20      vegen-engine serve (--stdio | --socket PATH) [--cache-dir DIR]\n\
                     \x20                   [--warm-start] [--threads N] [--queue N] [--target T]\n\
                     \x20                   [--beam N] [--deadline-ms N] [--no-verify]\n\
                     \x20                   [--event-log FILE] [--flight-dir DIR]\n\
                     \x20      vegen-engine stats --socket PATH [--prometheus | --json]\n\
                     \x20      vegen-engine explain <kernel> [--target T] [--beam N] [--max-iters N]\n\
                     \x20      vegen-engine lint [--target T] [--beam N] [--threads N] [--out FILE]\n\
                     \x20      vegen-engine check-specs [--target T|all] [--json] [--out FILE]\n\
                     \x20                   [--corrupt KIND] [--no-canon]\n\
                     \x20      vegen-engine diff <old.json> <new.json> [--max-regress PCT]\n\
                     \x20                   [--strict-counters]\n\
                     fault SPEC is kernel:stage:kind[,...], kind = panic|error|delay=<ms>,\n\
                     `!` suffix fires on every ladder attempt; VEGEN_FAULTS env is the fallback"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(opts))
}

fn run_suite(args: &[String]) -> i32 {
    let opts = match parse_suite_args(args) {
        Ok(Some(o)) => o,
        Ok(None) => return 0,
        Err(e) => {
            eprintln!("vegen-engine: {e}");
            return 2;
        }
    };

    let tracing = opts.trace.is_some() || opts.folded.is_some();
    if tracing {
        vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    }

    let engine = Engine::new(EngineConfig {
        threads: opts.threads,
        verify_trials: opts.verify_trials,
        deadline: opts.deadline_ms.map(Duration::from_millis),
        fail_fast: opts.fail_fast,
        cache_dir: opts.cache_dir.clone().map(PathBuf::from),
        cache_max_bytes: opts.cache_max_bytes,
        beam_threads: opts.beam_threads,
        event_log: opts.event_log.clone().map(PathBuf::from),
        flight_dir: opts.flight_dir.clone().map(PathBuf::from),
        // When `--trace`/`--folded` own the trace session, the flight
        // recorder must not reset it out from under them.
        flight_rotate: !tracing,
        ..EngineConfig::default()
    });
    if let Some(e) = engine.disk_open_error() {
        eprintln!("vegen-engine: disk cache disabled: {e}");
    }
    if let Some(e) = engine.event_open_error() {
        eprintln!("vegen-engine: event log disabled: {e}");
    }
    if let Some(e) = engine.flight_open_error() {
        eprintln!("vegen-engine: flight recorder disabled: {e}");
    }
    if opts.warm_start {
        let loaded = engine.warm_start();
        eprintln!("vegen-engine: warm start loaded {loaded} cached compile(s)");
    }
    let pipeline = PipelineConfig {
        target: opts.target.clone(),
        beam: BeamConfig { log_decisions: opts.decisions, ..BeamConfig::with_width(opts.beam) },
        canonicalize_patterns: true,
    };
    // Jobs are rebuilt per run (not cloned across runs) so every
    // execution gets its own correlation id in the event log.
    let make_jobs = || -> Vec<Job> {
        vegen_kernels::all()
            .into_iter()
            .map(|k| Job::new(k.name, (k.build)(), pipeline.clone()))
            .collect()
    };
    let kernel_names: Vec<&str> = vegen_kernels::all().iter().map(|k| k.name).collect();
    match resolve_fault_plan(&opts.faults, opts.fault_seed, opts.fault_count, &kernel_names) {
        Ok(Some(plan)) => {
            let targets: Vec<String> = plan
                .specs()
                .map(|s| format!("{}:{}:{}", s.kernel, s.stage, s.kind.tag()))
                .collect();
            eprintln!("vegen-engine: fault injection active — {}", targets.join(", "));
            vegen::fault::install(plan);
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("vegen-engine: {e}");
            return 2;
        }
    }
    let job_count = vegen_kernels::all().len();
    let resolved_threads =
        if opts.threads == 0 { crate::pool::default_threads(job_count) } else { opts.threads };

    let mut runs = Vec::new();
    let mut failed = false;
    let mut hard_failures = 0usize;
    for i in 0..opts.runs {
        let label = match i {
            0 => "cold".to_string(),
            1 => "warm".to_string(),
            n => format!("warm{n}"),
        };
        let _run_span = vegen_trace::enabled()
            .then(|| vegen_trace::span_owned("engine", format!("run:{label}")));
        let jobs = make_jobs();
        let t0 = Instant::now();
        let results = engine.compile_batch(&jobs);
        let wall = t0.elapsed();
        for r in &results {
            if let Some(e) = &r.verify_error {
                eprintln!("vegen-engine: kernel {} FAILED verification: {e}", r.name);
                failed = true;
            }
        }
        let hits = results.iter().filter(|r| r.cache_hit).count();
        eprintln!(
            "vegen-engine: {label} run — {} kernels in {wall:.2?} on {resolved_threads} threads, \
             {hits}/{} cache hits",
            results.len(),
            results.len(),
        );
        // Degraded kernels (width-1 / scalar rungs) are reported, not
        // fatal: graceful degradation is the whole point. Only a kernel
        // with *no* program at all (or a fail-fast abort) gates.
        let (_, run_failed) = print_failure_table(&results);
        hard_failures += run_failed;
        if opts.fail_fast && results.iter().any(|r| r.rung != Rung::Primary) {
            hard_failures += 1;
        }
        runs.push(RunReport::new(label, wall, &results));
    }
    vegen::fault::clear();

    let mut trace_summary = TraceSummary::default();
    if tracing {
        let data = vegen_trace::drain();
        vegen_trace::disable();
        trace_summary = TraceSummary {
            enabled: true,
            events: data.event_count(),
            dropped: data.dropped(),
            threads: data.threads.len(),
            file: opts.trace.clone(),
            folded_file: opts.folded.clone(),
        };
        if let Some(path) = &opts.trace {
            let text = vegen_trace::export::chrome_trace(&data).render();
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("vegen-engine: cannot write {path}: {e}");
                return 2;
            }
            eprintln!(
                "vegen-engine: trace written to {path} ({} events, {} dropped)",
                trace_summary.events, trace_summary.dropped
            );
        }
        if let Some(path) = &opts.folded {
            if let Err(e) = std::fs::write(path, vegen_trace::export::folded_stacks(&data)) {
                eprintln!("vegen-engine: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("vegen-engine: folded stacks written to {path}");
        }
    }

    // Structural match-table statistics (cheap: the table is already
    // cached process-wide after the first compile). The full speccheck
    // audit stays out of the suite path — that is `check-specs`' job.
    let table = vegen_analysis::match_table_stats(&target_desc(&opts.target, true));
    vegen_trace::metrics::counter("speccheck_rules_total").add(table.rules as u64);
    vegen_trace::metrics::gauge("speccheck_dead_rules").set(table.dead_rules as f64);
    vegen_trace::metrics::gauge("speccheck_max_overlap_class").set(table.max_overlap_class as f64);

    let report = EngineReport {
        target: opts.target.name.clone(),
        beam_width: opts.beam,
        threads: resolved_threads,
        beam_threads: opts.beam_threads,
        verify_trials: opts.verify_trials,
        runs,
        cache: engine.cache_stats(),
        disk: engine.disk_stats(),
        counters: engine.counters(),
        trace: trace_summary,
        match_table: table,
        soak: None,
    };
    let doc = report.to_json();
    let text = if opts.compact { doc.render() } else { doc.render_pretty() };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("vegen-engine: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("vegen-engine: report written to {path}");
        }
        None => println!("{text}"),
    }
    if failed || hard_failures > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------------

/// Run the generated-kernel soak harness (see [`crate::soak`]). Exit
/// code 0 when every non-faulted kernel passes the differential check
/// and provenance audit (degradations allowed), 1 on any unexplained
/// failure, 2 on usage errors.
fn run_soak_cmd(args: &[String]) -> i32 {
    use crate::soak::{run_soak, SoakConfig, SoakStatus};

    let mut cfg = SoakConfig { beam_threads: env_beam_threads(), ..SoakConfig::default() };
    let mut out: Option<String> = None;
    let mut compact = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |n: &str| args.next().cloned().ok_or(format!("{n} needs a value"));
        let parsed = match arg.as_str() {
            "--seed" => value("--seed")
                .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                .map(|n| cfg.seed = n),
            "--count" => value("--count")
                .and_then(|v| v.parse().map_err(|e| format!("--count: {e}")))
                .map(|n| cfg.count = n),
            "--shard" => value("--shard").and_then(|v| {
                let (i, n) =
                    v.split_once('/').ok_or_else(|| format!("--shard: want I/N, got {v:?}"))?;
                cfg.shard_index = i.parse().map_err(|e| format!("--shard index: {e}"))?;
                cfg.shard_count = n.parse().map_err(|e| format!("--shard count: {e}"))?;
                Ok(())
            }),
            "--trials" => value("--trials")
                .and_then(|v| v.parse().map_err(|e| format!("--trials: {e}")))
                .map(|n| cfg.trials = n),
            "--fault-every" => value("--fault-every")
                .and_then(|v| v.parse().map_err(|e| format!("--fault-every: {e}")))
                .map(|n| cfg.fault_every = n),
            "--target" => value("--target").and_then(|v| parse_target(&v)).map(|t| cfg.target = t),
            "--beam" => value("--beam")
                .and_then(|v| v.parse().map_err(|e| format!("--beam: {e}")))
                .map(|n| cfg.beam = n),
            "--beam-threads" => value("--beam-threads")
                .and_then(|v| v.parse().map_err(|e| format!("--beam-threads: {e}")))
                .map(|n| cfg.beam_threads = n),
            "--deadline-ms" => value("--deadline-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--deadline-ms: {e}")))
                .map(|n| cfg.deadline = Some(Duration::from_millis(n))),
            "--cache-dir" => value("--cache-dir").map(|v| cfg.cache_dir = Some(PathBuf::from(v))),
            "--cache-max-bytes" => value("--cache-max-bytes")
                .and_then(|v| v.parse().map_err(|e| format!("--cache-max-bytes: {e}")))
                .map(|n| cfg.cache_max_bytes = Some(n)),
            "--seeds-out" => value("--seeds-out").map(|v| cfg.seeds_out = Some(PathBuf::from(v))),
            "--no-minimize" => {
                cfg.minimize = false;
                Ok(())
            }
            "--minimize-budget" => value("--minimize-budget")
                .and_then(|v| v.parse().map_err(|e| format!("--minimize-budget: {e}")))
                .map(|n| cfg.minimize_budget = n),
            // Test-only: deterministically corrupt every compiled vegen
            // program so the differential check must catch it.
            "--inject-miscompile" => value("--inject-miscompile")
                .and_then(|v| v.parse().map_err(|e| format!("--inject-miscompile: {e}")))
                .map(|n| cfg.corrupt_vegen = Some(n)),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--compact" => {
                compact = true;
                Ok(())
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: vegen-engine soak --seed N --count N [--shard I/N] [--trials N]\n\
                     \x20                   [--fault-every K] [--target T] [--beam N]\n\
                     \x20                   [--beam-threads N] [--deadline-ms N]\n\
                     \x20                   [--cache-dir DIR] [--cache-max-bytes N]\n\
                     \x20                   [--seeds-out DIR] [--no-minimize]\n\
                     \x20                   [--minimize-budget N] [--out FILE] [--compact]\n\
                     kernel i is generate(seed, i): any kernel replays from the two integers"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("vegen-engine soak: {e}");
            return 2;
        }
    }

    let report = match run_soak(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vegen-engine soak: {e}");
            return 2;
        }
    };
    let count = |s: SoakStatus| report.results.iter().filter(|r| r.status == s).count();
    eprintln!(
        "vegen-engine soak: seed {} — {} kernel(s) (shard {}/{}) in {:.2?}: \
         {} passed, {} faulted-degraded, {} degraded, {} diff failure(s), \
         {} provenance failure(s), {} aborted; vectorization rate {:.1}%",
        cfg.seed,
        report.results.len(),
        cfg.shard_index,
        cfg.shard_count,
        report.wall,
        count(SoakStatus::Passed),
        count(SoakStatus::Faulted),
        count(SoakStatus::Degraded),
        count(SoakStatus::DiffFailed),
        count(SoakStatus::ProvenanceFailed),
        count(SoakStatus::Aborted),
        report.vectorization_rate() * 100.0,
    );
    for r in report.results.iter().filter(|r| r.status.is_failure()) {
        eprintln!("vegen-engine soak: {} [{}] {}: {}", r.name, r.shape, r.status.name(), r.detail);
        if let Some(m) = &r.minimized {
            eprintln!(
                "vegen-engine soak:   minimized {} -> {} inst(s){}:\n{}",
                m.from_insts,
                m.insts,
                m.seed_file.as_deref().map(|p| format!(" (seed file {p})")).unwrap_or_default(),
                m.listing
            );
        }
    }

    let table = vegen_analysis::match_table_stats(&target_desc(&cfg.target, true));
    let doc = EngineReport {
        target: cfg.target.name.clone(),
        beam_width: cfg.beam,
        threads: 1,
        beam_threads: cfg.beam_threads,
        verify_trials: cfg.trials,
        runs: Vec::new(),
        cache: report.cache,
        disk: report.disk,
        counters: report.counters,
        trace: TraceSummary::default(),
        match_table: table,
        soak: Some(report.soak_json()),
    }
    .to_json();
    let text = if compact { doc.render() } else { doc.render_pretty() };
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("vegen-engine soak: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("vegen-engine soak: report written to {path}");
        }
        None => println!("{text}"),
    }
    if report.unexplained_failures() > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Run the resident compile daemon over stdio or a Unix socket. Exit code
/// 0 on clean drain, 2 on usage or bind errors.
fn run_serve(args: &[String]) -> i32 {
    let mut stdio = false;
    let mut socket: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut warm_start = false;
    let mut threads = 0usize;
    let mut beam_threads = env_beam_threads();
    let mut queue = 64usize;
    let mut deadline_ms: Option<u64> = None;
    let mut verify_trials = 16u64;
    let mut target = TargetIsa::avx2();
    let mut beam = 16usize;
    let mut event_log: Option<String> = None;
    let mut flight_dir: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |n: &str| args.next().cloned().ok_or(format!("{n} needs a value"));
        let parsed = match arg.as_str() {
            "--stdio" => {
                stdio = true;
                Ok(())
            }
            "--socket" => value("--socket").map(|v| socket = Some(v)),
            "--cache-dir" => value("--cache-dir").map(|v| cache_dir = Some(v)),
            "--cache-max-bytes" => value("--cache-max-bytes")
                .and_then(|v| v.parse().map_err(|e| format!("--cache-max-bytes: {e}")))
                .map(|n| cache_max_bytes = Some(n)),
            "--warm-start" => {
                warm_start = true;
                Ok(())
            }
            "--threads" => value("--threads")
                .and_then(|v| v.parse().map_err(|e| format!("--threads: {e}")))
                .map(|n| threads = n),
            "--beam-threads" => value("--beam-threads")
                .and_then(|v| v.parse().map_err(|e| format!("--beam-threads: {e}")))
                .map(|n| beam_threads = n),
            "--queue" => value("--queue")
                .and_then(|v| v.parse().map_err(|e| format!("--queue: {e}")))
                .and_then(|n: usize| {
                    if n == 0 {
                        Err("--queue: capacity must be at least 1".to_string())
                    } else {
                        queue = n;
                        Ok(())
                    }
                }),
            "--deadline-ms" => value("--deadline-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--deadline-ms: {e}")))
                .map(|n| deadline_ms = Some(n)),
            "--no-verify" => {
                verify_trials = 0;
                Ok(())
            }
            "--target" => value("--target").and_then(|v| parse_target(&v)).map(|t| target = t),
            "--beam" => value("--beam")
                .and_then(|v| v.parse().map_err(|e| format!("--beam: {e}")))
                .map(|w| beam = w),
            "--event-log" => value("--event-log").map(|v| event_log = Some(v)),
            "--flight-dir" => value("--flight-dir").map(|v| flight_dir = Some(v)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: vegen-engine serve (--stdio | --socket PATH) [--cache-dir DIR]\n\
                     \x20                   [--warm-start] [--threads N] [--beam-threads N]\n\
                     \x20                   [--queue N] [--target T] [--beam N]\n\
                     \x20                   [--deadline-ms N] [--no-verify]\n\
                     \x20                   [--event-log FILE] [--flight-dir DIR]"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("vegen-engine serve: {e}");
            return 2;
        }
    }
    if stdio == socket.is_some() {
        eprintln!("vegen-engine serve: pass exactly one of --stdio or --socket PATH");
        return 2;
    }

    let engine = Engine::new(EngineConfig {
        threads,
        verify_trials,
        deadline: deadline_ms.map(Duration::from_millis),
        cache_dir: cache_dir.map(PathBuf::from),
        cache_max_bytes,
        beam_threads,
        event_log: event_log.map(PathBuf::from),
        flight_dir: flight_dir.map(PathBuf::from),
        ..EngineConfig::default()
    });
    if let Some(e) = engine.disk_open_error() {
        eprintln!("vegen-engine serve: disk cache disabled: {e}");
    }
    if let Some(e) = engine.event_open_error() {
        eprintln!("vegen-engine serve: event log disabled: {e}");
    }
    if let Some(e) = engine.flight_open_error() {
        eprintln!("vegen-engine serve: flight recorder disabled: {e}");
    }
    if warm_start {
        let loaded = engine.warm_start();
        eprintln!("vegen-engine serve: warm start loaded {loaded} cached compile(s)");
    }
    // Publish the match table's structural statistics up front so
    // `vegen-engine stats` can read them live (and the first compile
    // finds the table already built).
    let table = vegen_analysis::match_table_stats(&target_desc(&target, true));
    vegen_trace::metrics::counter("speccheck_rules_total").add(table.rules as u64);
    vegen_trace::metrics::gauge("speccheck_dead_rules").set(table.dead_rules as f64);
    vegen_trace::metrics::gauge("speccheck_max_overlap_class").set(table.max_overlap_class as f64);

    let cfg = ServeConfig { queue_capacity: queue, target, beam_width: beam };

    let summary = if stdio {
        serve::serve_lines(&engine, &cfg, std::io::stdin().lock(), std::io::stdout())
    } else {
        let path = socket.expect("checked above");
        eprintln!("vegen-engine serve: listening on {path}");
        match serve::serve_socket(&engine, &cfg, std::path::Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vegen-engine serve: {e}");
                return 2;
            }
        }
    };
    eprintln!(
        "vegen-engine serve: drained — {} request(s), {} compile(s), {} shed, {} expired, \
         {} rejected while draining, {} protocol error(s)",
        summary.requests,
        summary.compiles,
        summary.shed,
        summary.expired,
        summary.rejected_draining,
        summary.protocol_errors
    );
    0
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// Pretty-print one metrics-registry snapshot (the `stats` op's JSON
/// body) as a human-readable table: histograms with their percentiles,
/// then counters, then gauges.
fn render_stats_table(snapshot: &Json) -> String {
    use std::fmt::Write as _;
    let entries = |key: &str| -> Vec<(&str, &Json)> {
        match snapshot.get(key) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            _ => Vec::new(),
        }
    };
    let mut out = String::new();
    let histograms = entries("histograms");
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &histograms {
            let field = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                field("count") as u64,
                field("p50") as u64,
                field("p90") as u64,
                field("p99") as u64,
                field("max") as u64,
            );
        }
    }
    let counters = entries("counters");
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<32} {:>8}", "counter", "value");
        for (name, v) in &counters {
            let _ = writeln!(out, "{name:<32} {:>8}", v.as_f64().unwrap_or(0.0) as u64);
        }
    }
    let gauges = entries("gauges");
    if !gauges.is_empty() {
        let _ = writeln!(out, "{:<32} {:>12}", "gauge", "value");
        for (name, v) in &gauges {
            let _ = writeln!(out, "{name:<32} {:>12.4}", v.as_f64().unwrap_or(0.0));
        }
    }
    out
}

/// Write scrape output without panicking when stdout is a closed pipe
/// (`stats | head` must exit cleanly — it is the command built to be
/// piped).
fn write_stats_output(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Scrape a running serve daemon's metrics registry over its Unix socket
/// and print it: a human table by default, raw Prometheus text with
/// `--prometheus`, or the JSON snapshot with `--json`. Exit code 2 on
/// usage, connect, or protocol errors.
fn run_stats(args: &[String]) -> i32 {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut socket: Option<String> = None;
    let mut prometheus = false;
    let mut json = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(v) => socket = Some(v.clone()),
                None => {
                    eprintln!("vegen-engine stats: --socket needs a value");
                    return 2;
                }
            },
            "--prometheus" => prometheus = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: vegen-engine stats --socket PATH [--prometheus | --json]");
                return 0;
            }
            other => {
                eprintln!("vegen-engine stats: unknown argument {other:?}");
                return 2;
            }
        }
    }
    let Some(path) = socket else {
        eprintln!("usage: vegen-engine stats --socket PATH [--prometheus | --json]");
        return 2;
    };
    if prometheus && json {
        eprintln!("vegen-engine stats: pass at most one of --prometheus or --json");
        return 2;
    }
    let stream = match std::os::unix::net::UnixStream::connect(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vegen-engine stats: cannot connect to {path}: {e}");
            return 2;
        }
    };
    let mut request = vec![("op", Json::str("stats")), ("id", Json::str("stats-cli"))];
    if prometheus {
        request.push(("format", Json::str("prometheus")));
    }
    let mut write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("vegen-engine stats: {e}");
            return 2;
        }
    };
    if let Err(e) = writeln!(write_half, "{}", Json::obj(request).render()) {
        eprintln!("vegen-engine stats: cannot send request: {e}");
        return 2;
    }
    let mut line = String::new();
    if let Err(e) = BufReader::new(stream).read_line(&mut line) {
        eprintln!("vegen-engine stats: cannot read response: {e}");
        return 2;
    }
    let response = match Json::parse(&line) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vegen-engine stats: malformed response: {e}");
            return 2;
        }
    };
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("vegen-engine stats: daemon error: {}", response.render());
        return 2;
    }
    let Some(result) = response.get("result") else {
        eprintln!("vegen-engine stats: response has no result");
        return 2;
    };
    if prometheus {
        match result.get("prometheus").and_then(Json::as_str) {
            Some(text) => write_stats_output(text),
            None => {
                eprintln!("vegen-engine stats: response has no prometheus text");
                return 2;
            }
        }
    } else if json {
        write_stats_output(&format!("{}\n", result.render_pretty()));
    } else {
        write_stats_output(&render_stats_table(result));
    }
    0
}

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

fn run_explain(args: &[String]) -> i32 {
    let mut name: Option<String> = None;
    let mut target = TargetIsa::avx2();
    let mut beam = 64usize;
    let mut max_iters: Option<usize> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |n: &str| args.next().cloned().ok_or(format!("{n} needs a value"));
        match arg.as_str() {
            "--target" => match value("--target").and_then(|v| parse_target(&v)) {
                Ok(t) => target = t,
                Err(e) => {
                    eprintln!("vegen-engine explain: {e}");
                    return 2;
                }
            },
            "--beam" => match value("--beam").and_then(|v| v.parse().map_err(|e| format!("{e}"))) {
                Ok(w) => beam = w,
                Err(e) => {
                    eprintln!("vegen-engine explain: --beam: {e}");
                    return 2;
                }
            },
            "--max-iters" => {
                match value("--max-iters").and_then(|v| v.parse().map_err(|e| format!("{e}"))) {
                    Ok(n) => max_iters = Some(n),
                    Err(e) => {
                        eprintln!("vegen-engine explain: --max-iters: {e}");
                        return 2;
                    }
                }
            }
            other if !other.starts_with('-') && name.is_none() => name = Some(other.to_string()),
            other => {
                eprintln!("vegen-engine explain: unknown argument {other:?}");
                return 2;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("usage: vegen-engine explain <kernel> [--target T] [--beam N] [--max-iters N]");
        return 2;
    };
    let Some(kernel) = vegen_kernels::find(&name) else {
        eprintln!("vegen-engine explain: unknown kernel {name:?}; available:");
        for k in vegen_kernels::all() {
            eprintln!("  {} ({:?})", k.name, k.suite);
        }
        return 2;
    };

    let f = match prepare(&(kernel.build)(), &mut CompileCtx::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vegen-engine explain: {e}");
            return 1;
        }
    };
    let desc = target_desc(&target, true);
    let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());

    println!("explain {} (target {}, beam {beam})", kernel.name, target.name);
    println!("function: {} instructions, {} stores", f.insts.len(), f.stores().len());

    // costSLP of each store chain's value operand — the Σ costSLP(v) terms
    // the search starts from (this is the diagnostic the old scratch `dbg`
    // binary printed for fft8's output chunks, generalized).
    let slp = SlpCost::new(&ctx);
    for chain in ctx.store_chain_packs() {
        if let Some(x) = chain.store_operand() {
            println!("costSLP({}) = {:.1}", vegen_core::describe_pack(&ctx, &chain), slp.cost(&x));
        }
    }

    let cfg = BeamConfig { log_decisions: true, max_iters, ..BeamConfig::with_width(beam) };
    let t0 = Instant::now();
    // No budget is set here, so the search cannot fail — but surface a
    // typed error cleanly rather than panicking if that ever changes.
    let r = match select_packs(&ctx, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vegen-engine explain: selection failed: {e}");
            return 2;
        }
    };
    let wall = t0.elapsed();
    println!(
        "selection: scalar {:.1} → vector {:.1} ({:.2}x estimated), {} states expanded in {wall:.2?}",
        r.scalar_cost,
        r.vector_cost,
        r.scalar_cost / r.vector_cost.max(1e-9),
        r.states_expanded,
    );

    let log = r.decisions.as_ref().expect("log_decisions was set");
    println!("committed packs ({}):", log.committed.len());
    for c in &log.committed {
        println!("  {:>3}. {:<40} costop {:.1}", c.step, c.pack, c.cost);
    }
    println!("iterations ({}):", log.iterations.len());
    for it in &log.iterations {
        println!(
            "  iter {:>3}: beam {} → pool {} → dedup {} → kept {}",
            it.index, it.beam_in, it.pool, it.deduped, it.kept
        );
        for c in &it.candidates {
            println!(
                "    {} {:<44} g={:<8.1} est={:<8.1} score={:<8.1} packs={}",
                if c.kept { "KEEP " } else { "PRUNE" },
                c.action,
                c.g,
                c.est,
                c.score,
                c.packs
            );
        }
    }

    // Static validation of the full compilation, run through the engine
    // (so the profitability backstop and lowering are the real ones, and
    // the printed job carries the correlation id and cache source that
    // cross-reference the event log and any flight dump).
    let pipeline = PipelineConfig {
        target: target.clone(),
        beam: BeamConfig::with_width(beam),
        canonicalize_patterns: true,
    };
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 0, ..Default::default() });
    let result = engine.compile_one(kernel.name, &(kernel.build)(), &pipeline);
    println!(
        "job: corr {} rung {} cache {}",
        result.corr,
        result.rung.name(),
        result.cache_source()
    );
    let Some(compiled) = result.kernel.as_deref() else {
        eprintln!("vegen-engine explain: compilation produced no program:");
        for fault in &result.faults {
            eprintln!("  {fault}");
        }
        return 1;
    };
    println!("static validation: {}", compiled.analysis.verdict());
    for d in compiled.analysis.all() {
        println!("  {d}");
    }
    0
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

/// Run the static validators over the whole suite. Exit code 1 when any
/// kernel has an error-severity finding; warnings are reported but do not
/// gate. `--out` writes the diagnostics as a JSON artifact.
fn run_lint(args: &[String]) -> i32 {
    let mut target = TargetIsa::avx2();
    let mut beam = 16usize;
    let mut threads = 0usize;
    let mut out: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |n: &str| args.next().cloned().ok_or(format!("{n} needs a value"));
        let parsed = match arg.as_str() {
            "--target" => value("--target").and_then(|v| parse_target(&v)).map(|t| target = t),
            "--beam" => value("--beam")
                .and_then(|v| v.parse().map_err(|e| format!("--beam: {e}")))
                .map(|w| beam = w),
            "--threads" => value("--threads")
                .and_then(|v| v.parse().map_err(|e| format!("--threads: {e}")))
                .map(|n| threads = n),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: vegen-engine lint [--target avx2|avx512vnni] [--beam N] \
                     [--threads N] [--out FILE]"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("vegen-engine lint: {e}");
            return 2;
        }
    }

    // Verification trials off: this gate is purely static; the suite mode
    // covers dynamic checking.
    let engine = Engine::new(EngineConfig { threads, verify_trials: 0, ..EngineConfig::default() });
    let pipeline = PipelineConfig {
        target: target.clone(),
        beam: BeamConfig::with_width(beam),
        canonicalize_patterns: true,
    };
    let jobs: Vec<Job> = vegen_kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name, (k.build)(), pipeline.clone()))
        .collect();
    let t0 = Instant::now();
    let results = engine.compile_batch(&jobs);
    let wall = t0.elapsed();

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut rows = Vec::new();
    for r in &results {
        // A job that produced no program at all is an error-severity
        // finding in its own right; degraded rungs still carry a real
        // analysis (or an empty one for the scalar rung) and lint it.
        let Some(kernel) = r.kernel.as_deref() else {
            total_errors += 1;
            let fault =
                r.faults.first().map(|e| e.to_string()).unwrap_or_else(|| "no program".into());
            println!(
                "{:<24} {:<8} {:<6} {} — {fault}",
                r.name,
                r.corr,
                r.cache_source(),
                r.rung.name()
            );
            rows.push(Json::obj([
                ("name", Json::str(&r.name)),
                ("corr", Json::str(&r.corr)),
                ("cache", Json::str(r.cache_source())),
                ("rung", Json::str(r.rung.name())),
                ("errors", Json::int(1)),
                ("warnings", Json::int(0)),
                ("packs_checked", Json::int(0)),
                ("lanes_proved", Json::int(0)),
                (
                    "diagnostics",
                    Json::Arr(r.faults.iter().map(|e| Json::str(e.to_string())).collect()),
                ),
            ]));
            continue;
        };
        let a = &kernel.analysis;
        total_errors += a.error_count();
        total_warnings += a.warning_count();
        println!("{:<24} {:<8} {:<6} {}", r.name, r.corr, r.cache_source(), a.verdict());
        for d in a.all() {
            println!("    {d}");
        }
        rows.push(Json::obj([
            ("name", Json::str(&r.name)),
            ("corr", Json::str(&r.corr)),
            ("cache", Json::str(r.cache_source())),
            ("rung", Json::str(r.rung.name())),
            ("errors", Json::int(a.error_count() as u64)),
            ("warnings", Json::int(a.warning_count() as u64)),
            ("packs_checked", Json::int(a.packs_checked as u64)),
            ("lanes_proved", Json::int(a.lanes_proved as u64)),
            ("diagnostics", Json::Arr(a.all().map(|d| Json::str(d.to_string())).collect())),
        ]));
    }
    print_failure_table(&results);
    println!(
        "vegen-engine lint: {} kernels in {wall:.2?} (target {}, beam {beam}) — {} error(s), \
         {} warning(s)",
        results.len(),
        target.name,
        total_errors,
        total_warnings
    );

    if let Some(path) = &out {
        let doc = Json::obj([
            ("schema", Json::str("vegen-engine-lint/v1")),
            ("target", Json::str(&target.name)),
            ("beam_width", Json::int(beam as u64)),
            ("errors", Json::int(total_errors as u64)),
            ("warnings", Json::int(total_warnings as u64)),
            ("kernels", Json::Arr(rows)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("vegen-engine lint: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("vegen-engine lint: report written to {path}");
    }
    if total_errors > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// check-specs
// ---------------------------------------------------------------------------

/// Audit the offline spec chain (pseudocode → VIDL → match table) for one
/// or all targets. Exit code 1 when any target has an error-severity
/// finding; warnings are reported but do not gate. `--corrupt KIND`
/// injects a deliberate corruption first, so CI can assert the gate
/// rejects a broken database and names the mutated instruction.
fn run_check_specs(args: &[String]) -> i32 {
    use vegen_analysis::speccheck::{check_database, corrupt_database};
    use vegen_isa::{specs::all_specs, InstDb};

    let mut targets = vec![TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()];
    let mut json = false;
    let mut out: Option<String> = None;
    let mut corrupt: Option<String> = None;
    let mut canonicalize = true;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |n: &str| args.next().cloned().ok_or(format!("{n} needs a value"));
        let parsed = match arg.as_str() {
            "--target" => value("--target").and_then(|v| {
                if v.eq_ignore_ascii_case("all") {
                    Ok(())
                } else {
                    parse_target(&v).map(|t| targets = vec![t])
                }
            }),
            "--json" => {
                json = true;
                Ok(())
            }
            "--out" => value("--out").map(|v| out = Some(v)),
            "--corrupt" => value("--corrupt").map(|v| corrupt = Some(v)),
            "--no-canon" => {
                canonicalize = false;
                Ok(())
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: vegen-engine check-specs [--target sse4|avx2|avx512vnni|all] \
                     [--json] [--out FILE] [--corrupt KIND] [--no-canon]\n\
                     corruption KIND is lane-swap|widen|flip-cmp|dup-rule|neg-cost|rename-op"
                );
                return 0;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("vegen-engine check-specs: {e}");
            return 2;
        }
    }

    let t0 = Instant::now();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut rows = Vec::new();
    for target in &targets {
        let specs: Vec<_> = all_specs()
            .iter()
            .filter(|s| target.has(s.ext) && s.bits <= target.max_bits)
            .cloned()
            .collect();
        let mut db = InstDb::for_target(target);
        let mut corrupted_inst: Option<String> = None;
        if let Some(kind) = &corrupt {
            match corrupt_database(&db, kind) {
                Ok((bad, name)) => {
                    eprintln!(
                        "vegen-engine check-specs: injected {kind} corruption into {name} \
                         ({})",
                        target.name
                    );
                    db = bad;
                    corrupted_inst = Some(name);
                }
                Err(e) => {
                    eprintln!("vegen-engine check-specs: --corrupt {kind}: {e}");
                    return 2;
                }
            }
        }
        let report = check_database(&target.name, &specs, &db, canonicalize);
        total_errors += report.error_count();
        total_warnings += report.warning_count();
        if !json {
            println!("{}", report.verdict());
            for d in &report.diagnostics {
                println!("    {d}");
            }
        }
        vegen_trace::metrics::counter("speccheck_rules_total").add(report.stats.rules as u64);
        vegen_trace::metrics::gauge("speccheck_dead_rules").set(report.stats.dead_rules as f64);
        vegen_trace::metrics::gauge("speccheck_max_overlap_class")
            .set(report.stats.max_overlap_class as f64);
        rows.push(Json::obj([
            ("target", Json::str(&report.target)),
            ("insts_checked", Json::int(report.insts_checked as u64)),
            ("lanes_proved", Json::int(report.lanes_proved as u64)),
            ("lanes_validated", Json::int(report.lanes_validated as u64)),
            ("rules", Json::int(report.stats.rules as u64)),
            ("ops", Json::int(report.stats.ops as u64)),
            ("dead_rules", Json::int(report.stats.dead_rules as u64)),
            ("max_overlap_class", Json::int(report.stats.max_overlap_class as u64)),
            ("errors", Json::int(report.error_count() as u64)),
            ("warnings", Json::int(report.warning_count() as u64)),
            ("corrupted_inst", corrupted_inst.as_deref().map_or(Json::Null, Json::str)),
            (
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(|d| Json::str(d.to_string())).collect()),
            ),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::str("vegen-engine-speccheck/v1")),
        ("corruption", corrupt.as_deref().map_or(Json::Null, Json::str)),
        ("errors", Json::int(total_errors as u64)),
        ("warnings", Json::int(total_warnings as u64)),
        ("targets", Json::Arr(rows)),
    ]);
    if json {
        println!("{}", doc.render_pretty());
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("vegen-engine check-specs: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("vegen-engine check-specs: report written to {path}");
    }
    if !json {
        println!(
            "vegen-engine check-specs: {} target(s) in {:.2?} — {} error(s), {} warning(s)",
            targets.len(),
            t0.elapsed(),
            total_errors,
            total_warnings
        );
    }
    if total_errors > 0 {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

struct KernelRow {
    vegen_cycles: f64,
    speedup_vs_baseline: f64,
    states_expanded: f64,
    transitions: f64,
}

/// A report regression found by [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Kernel name (or `"<suite>"` for report-level findings).
    pub kernel: String,
    /// What regressed, with old → new values.
    pub what: String,
}

/// Thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Allowed relative worsening, in percent, of cycles and speedups.
    pub max_regress_pct: f64,
    /// Treat search-effort counter growth beyond the threshold as a
    /// regression too (off by default: counters are informational).
    pub strict_counters: bool,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig { max_regress_pct: 2.0, strict_counters: false }
    }
}

fn pick_run(report: &Json) -> Result<&Json, String> {
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no runs".to_string())?;
    runs.iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some("cold"))
        .or_else(|| runs.first())
        .ok_or_else(|| "report has zero runs".to_string())
}

fn kernel_rows(run: &Json) -> Result<Vec<(String, KernelRow)>, String> {
    let kernels = run
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| "run has no kernels".to_string())?;
    let mut rows = Vec::new();
    for k in kernels {
        let name = k
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "kernel without a name".to_string())?;
        let num = |key: &str| k.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let beam_num = |key: &str| {
            k.get("beam").and_then(|b| b.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        rows.push((
            name.to_string(),
            KernelRow {
                vegen_cycles: num("vegen_cycles"),
                speedup_vs_baseline: num("speedup_vs_baseline"),
                states_expanded: num("states_expanded"),
                transitions: beam_num("transitions"),
            },
        ));
    }
    Ok(rows)
}

fn check_schema(report: &Json, which: &str) -> Result<(), String> {
    let schema = report
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which}: missing schema field"))?;
    if !schema.starts_with("vegen-engine-report/") {
        return Err(format!("{which}: unrecognized schema {schema:?}"));
    }
    Ok(())
}

/// Compare two parsed engine reports. Returns the regressions (empty =
/// gate passes) and informational lines describing non-gating changes.
///
/// # Errors
///
/// Returns a message when either document is not an engine report.
pub fn diff_reports(
    old: &Json,
    new: &Json,
    cfg: &DiffConfig,
) -> Result<(Vec<Regression>, Vec<String>), String> {
    check_schema(old, "old")?;
    check_schema(new, "new")?;
    let old_rows = kernel_rows(pick_run(old)?)?;
    let new_rows = kernel_rows(pick_run(new)?)?;
    let factor = 1.0 + cfg.max_regress_pct / 100.0;

    let mut regressions = Vec::new();
    let mut info = Vec::new();
    for (name, o) in &old_rows {
        let Some((_, n)) = new_rows.iter().find(|(nn, _)| nn == name) else {
            regressions.push(Regression {
                kernel: name.clone(),
                what: "kernel missing from new report".to_string(),
            });
            continue;
        };
        if n.vegen_cycles > o.vegen_cycles * factor {
            regressions.push(Regression {
                kernel: name.clone(),
                what: format!(
                    "vegen_cycles {:.1} → {:.1} (+{:.1}%)",
                    o.vegen_cycles,
                    n.vegen_cycles,
                    (n.vegen_cycles / o.vegen_cycles - 1.0) * 100.0
                ),
            });
        }
        if n.speedup_vs_baseline * factor < o.speedup_vs_baseline {
            regressions.push(Regression {
                kernel: name.clone(),
                what: format!(
                    "speedup_vs_baseline {:.3} → {:.3}",
                    o.speedup_vs_baseline, n.speedup_vs_baseline
                ),
            });
        }
        for (label, ov, nv) in [
            ("states_expanded", o.states_expanded, n.states_expanded),
            ("transitions", o.transitions, n.transitions),
        ] {
            if nv > ov * factor && ov > 0.0 {
                let line =
                    format!("{name}: {label} {ov:.0} → {nv:.0} (+{:.1}%)", (nv / ov - 1.0) * 100.0);
                if cfg.strict_counters {
                    regressions.push(Regression { kernel: name.clone(), what: line });
                } else {
                    info.push(line);
                }
            }
        }
    }
    for (name, _) in &new_rows {
        if !old_rows.iter().any(|(on, _)| on == name) {
            info.push(format!("{name}: new kernel (not in old report)"));
        }
    }
    Ok((regressions, info))
}

fn run_diff(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-regress" => {
                match args.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(pct)) if pct >= 0.0 => cfg.max_regress_pct = pct,
                    _ => {
                        eprintln!("vegen-engine diff: --max-regress needs a percentage");
                        return 2;
                    }
                };
            }
            "--strict-counters" => cfg.strict_counters = true,
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => {
                eprintln!("vegen-engine diff: unknown argument {other:?}");
                return 2;
            }
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!(
            "usage: vegen-engine diff <old.json> <new.json> [--max-regress PCT] \
             [--strict-counters]"
        );
        return 2;
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("vegen-engine diff: {e}");
            return 2;
        }
    };
    match diff_reports(&old, &new, &cfg) {
        Ok((regressions, info)) => {
            for line in &info {
                println!("info: {line}");
            }
            for r in &regressions {
                println!("REGRESSION {}: {}", r.kernel, r.what);
            }
            if regressions.is_empty() {
                println!(
                    "vegen-engine diff: no regressions (threshold {:.1}%)",
                    cfg.max_regress_pct
                );
                0
            } else {
                println!("vegen-engine diff: {} regression(s)", regressions.len());
                1
            }
        }
        Err(e) => {
            eprintln!("vegen-engine diff: {e}");
            2
        }
    }
}
