//! `suite_cold` and `corpus_cold`: every kernel compiled cold through
//! `Engine::compile_one` on a fresh memory-only engine, one thread.
//!
//! The two differ only in the kernel list. The paper suite has few,
//! expensive beam searches; the generated corpus has many cheap ones, so
//! per-kernel set-up and the dedup/merge machinery weigh more. A change to
//! selection that trades one for the other moves them in opposite
//! directions.

use crate::common::{fnv64, shuffled, PassClock, RunOpts, RunResult, Timings, SETUP_REPS};
use crate::layers::{
    compile_layered, engine_desc, offline_phase_by_hand, pipeline, probe_kernel, select_wall_us,
    set_quality_metrics, setup_target_desc, suite_kernels, LayerCounts, VERIFY_TRIALS,
};
use crate::meta::Metrics;
use crate::spans::{median_over_passes, Tracer};
use crate::stats::median;
use std::collections::HashSet;
use std::time::Instant;
use vegen::driver::{CompiledKernel, PipelineConfig};
use vegen_codegen::check_equivalence;
use vegen_engine::cache::{content_hash, ContentHash};
use vegen_engine::{Engine, EngineConfig, Job, JobResult, Rung};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::Function;
use vegen_match::TargetDesc;
use vegen_trace::json::Json;

/// Kernels per `corpus_cold` pass: about two seconds, so a run holds
/// enough passes for a steady median and enough ops for a p99.
const CORPUS_KERNELS: usize = 200;
const SMOKE_KERNELS: usize = 24;

/// A stream of generated kernels that are distinct by content hash (a
/// repeated function would be a cache hit, not a cold compile).
pub struct Corpus {
    seed: u64,
    next_index: u64,
    seen: HashSet<ContentHash>,
    cfg: PipelineConfig,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        Corpus { seed, next_index: 0, seen: HashSet::new(), cfg: pipeline() }
    }

    /// The next `n` corpus members not produced before.
    pub fn take(&mut self, n: usize) -> Vec<Function> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let f = vegen_kernels::gen::generate(self.seed, self.next_index).function;
            self.next_index += 1;
            let canonical = add_narrow_constants(&canonicalize(&f));
            if self.seen.insert(content_hash(&canonical, &self.cfg)) {
                out.push(f);
            }
        }
        out
    }
}

fn kernels_for(opts: &RunOpts) -> Vec<Function> {
    if opts.workload == "suite_cold" {
        suite_kernels(opts.smoke.then_some(SMOKE_KERNELS))
    } else {
        let n = if opts.smoke { SMOKE_KERNELS } else { CORPUS_KERNELS };
        Corpus::new(opts.corpus_seed).take(n)
    }
}

/// A memory-only engine configuration; the beam never fans out.
fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig { threads, beam_threads: 1, ..EngineConfig::default() }
}

/// What identifies one kernel's output across passes.
fn fingerprint(result: &JobResult, kernel: &CompiledKernel) -> (u64, u128) {
    (fnv64(vegen_vm::listing(&kernel.vegen).as_bytes()), result.hash.map_or(0, |h| h.0))
}

/// Why an engine result does not count as a successful cold compile.
fn op_failure(r: &JobResult) -> Option<String> {
    if r.rung != Rung::Primary || r.kernel.is_none() {
        Some(format!("{}: ended on rung {}", r.name, r.rung.name()))
    } else if let Some(e) = &r.verify_error {
        Some(format!("{}: failed verification: {e}", r.name))
    } else if r.cache_hit {
        Some(format!("{}: served from cache, expected a cold compile", r.name))
    } else {
        None
    }
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let cfg = pipeline();
    let mut timings = Timings::default();
    let mut kernels = Vec::new();
    let mut generate_us = 0.0;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        setup_target_desc(rep, &cfg)?;
        let t_gen = Instant::now();
        kernels = kernels_for(opts);
        generate_us = t_gen.elapsed().as_secs_f64() * 1e6;
        timings.setup_s.push(t.elapsed().as_secs_f64());
    }
    if opts.trace {
        run_traced(opts, &cfg, &kernels, generate_us)
    } else {
        run_untraced(opts, &cfg, &kernels, timings)
    }
}

fn run_untraced(
    opts: &RunOpts,
    cfg: &PipelineConfig,
    kernels: &[Function],
    mut timings: Timings,
) -> Result<RunResult, String> {
    let mut metrics = Metrics::end_to_end();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut first_pass: Vec<(u64, u128)> = Vec::new();
    let mut clock = PassClock::start(opts);
    while let Some(pass) = clock.next_pass() {
        let engine = Engine::new(engine_config(1));
        let order = shuffled(opts.seed, u64::from(pass), kernels.len());
        let mut results: Vec<Option<JobResult>> = (0..kernels.len()).map(|_| None).collect();
        let t_pass = Instant::now();
        for &i in &order {
            let t = Instant::now();
            let r = engine.compile_one(&kernels[i].name, &kernels[i], cfg);
            timings.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            results[i] = Some(r);
        }
        timings.end_pass(t_pass.elapsed().as_secs_f64());

        // Output checks, outside the timed section.
        let results: Vec<JobResult> = results.into_iter().flatten().collect();
        attempted += results.len() as u64;
        let mut prints = Vec::with_capacity(results.len());
        for (r, f) in results.iter().zip(kernels) {
            let mut failure = op_failure(r);
            if let (None, Some(k)) = (&failure, &r.kernel) {
                prints.push(fingerprint(r, k));
                if pass == 0 {
                    // Independent of the engine's own verification: the
                    // scalar interpreter on the *input* function.
                    failure = check_equivalence(f, &k.vegen, VERIFY_TRIALS)
                        .err()
                        .map(|e| format!("{}: diverges from the input function: {e}", f.name));
                }
            } else {
                prints.push((0, 0));
            }
            if let Some(why) = failure {
                failed += 1;
                violations.push(why);
            }
        }
        if pass == 0 {
            let kernels = results.iter().filter_map(|r| r.kernel.as_deref());
            set_quality_metrics(&mut metrics, kernels.map(|k| (&k.baseline, &k.vegen)));
            first_pass = prints;
        } else if prints != first_pass {
            let n = prints.iter().zip(&first_pass).filter(|(a, b)| a != b).count();
            violations.push(format!("pass {pass}: {n} kernels printed or hashed differently"));
        }
    }
    let detail = timings.report(&mut metrics);
    violations.truncate(20);
    Ok(RunResult { attempted, failed, violations, metrics, detail, trace_events: Vec::new() })
}

/// One pass of the layered pipeline with probes; returns the counts, the
/// per-kernel select times, and the ops that failed.
fn traced_pass(
    tr: &mut Tracer,
    pass: u32,
    order: &[usize],
    kernels: &[Function],
    desc: &TargetDesc,
    cfg: &PipelineConfig,
    failures: &mut Vec<String>,
) -> (LayerCounts, Vec<f64>) {
    let mut counts = LayerCounts::default();
    let mut select_us = vec![0.0; kernels.len()];
    for &i in order {
        tr.set_op(pass, i as u64);
        match compile_layered(tr, &kernels[i], desc, cfg) {
            Ok(l) => {
                if let Some(e) = &l.verify_error {
                    failures.push(format!("{}: {e}", kernels[i].name));
                } else if !l.analysis_clean {
                    failures
                        .push(format!("{}: static analysis rejected the program", kernels[i].name));
                }
                select_us[i] = l.select_us;
                counts.add(&l);
                probe_kernel(tr, &kernels[i], &l.vegen, desc, cfg);
            }
            Err(e) => failures.push(e),
        }
    }
    (counts, select_us)
}

fn batch_wall_s(threads: usize, jobs: &[Job]) -> (f64, Engine) {
    let engine = Engine::new(engine_config(threads));
    let t = Instant::now();
    std::hint::black_box(engine.compile_batch(jobs));
    (t.elapsed().as_secs_f64(), engine)
}

/// One untraced pass through `Engine::compile_one`, optionally with the
/// product's own telemetry (trace rings, event log, flight recorder) on.
fn engine_pass_s(
    opts: &RunOpts,
    kernels: &[Function],
    cfg: &PipelineConfig,
    telemetry: bool,
) -> f64 {
    let mut ecfg = engine_config(1);
    if telemetry {
        if let Ok(dir) = crate::common::fresh_dir(opts, "telemetry") {
            ecfg.event_log = Some(dir.join("events.ndjson"));
            ecfg.flight_dir = Some(dir.join("flight"));
        }
        vegen_trace::enable(1 << 16);
    }
    let engine = Engine::new(ecfg);
    let t = Instant::now();
    for f in kernels {
        std::hint::black_box(engine.compile_one(&f.name, f, cfg));
    }
    let wall = t.elapsed().as_secs_f64();
    if telemetry {
        vegen_trace::disable();
        std::hint::black_box(vegen_trace::drain());
    }
    wall
}

fn run_traced(
    opts: &RunOpts,
    cfg: &PipelineConfig,
    kernels: &[Function],
    generate_us: f64,
) -> Result<RunResult, String> {
    let desc = engine_desc(cfg);
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut failures = Vec::new();
    let mut untraced_pass_s = Vec::new();
    let mut counts = LayerCounts::default();
    let mut select_us = Vec::new();
    let mut attempted = 0u64;
    let mut clock = PassClock::start(opts);
    // Untraced and traced passes alternate, so the overhead ratio compares
    // neighbours in time rather than two ends of a drifting machine.
    while let Some(pass) = clock.next_pass() {
        let order = shuffled(opts.seed, u64::from(pass), kernels.len());
        untraced_pass_s.push(engine_pass_s(opts, kernels, cfg, false));
        (counts, select_us) =
            traced_pass(&mut tr, pass, &order, kernels, &desc, cfg, &mut failures);
        attempted += kernels.len() as u64;
    }

    let mut m = Metrics::per_layer();
    let own = tr.self_sums_by_pass();
    let total = tr.total_sums_by_pass();
    for (span, metric) in [
        ("ir.canon", "ir.canon_us"),
        ("ir.interp", "ir.interp_us"),
        ("match.table_build", "match.table_build_us"),
        ("core.ctx_build", "core.ctx_build_us"),
        ("core.freeze", "core.freeze_us"),
        ("core.width1_select", "core.width1_select_us"),
        ("codegen.lower", "codegen.lower_us"),
        ("codegen.verify", "codegen.verify_us"),
        ("vm.exec", "vm.exec_us"),
        ("analysis.kernel", "analysis.kernel_us"),
        ("baseline.vectorize", "baseline.vectorize_us"),
        ("driver.compile", "driver.compile_us"),
        ("engine.hash", "engine.hash_us"),
    ] {
        m.set(metric, median_over_passes(&own, span));
    }
    let select = median_over_passes(&total, "core.select");
    counts.report(&mut m, select, median_over_passes(&own, "core.freeze"), &desc);
    m.set("ir.insts_in", counts.insts_in as f64);
    m.set("ir.insts_out", counts.insts_out as f64);
    m.set("kernels.generate_us", generate_us);

    // The driver's residual: what its one call costs beyond the layer
    // calls it is made of (canonicalize .. baseline; verify and hashing
    // are the engine's). Reported as measured, negative included.
    let driver_us = median_over_passes(&own, "driver.compile");
    let layers_us: f64 = [
        "ir.canon",
        "core.ctx_build",
        "core.select",
        "core.freeze",
        "codegen.lower",
        "analysis.kernel",
        "baseline.vectorize",
    ]
    .iter()
    .map(|span| median_over_passes(&own, span))
    .sum();
    m.set("driver.unattributed_frac", 1.0 - layers_us / driver_us.max(f64::MIN_POSITIVE));

    let traced_pass_us = median_over_passes(&total, "op");
    m.set(
        "bench.trace_overhead_frac",
        traced_pass_us / 1e6 / median(&untraced_pass_s).max(f64::MIN_POSITIVE) - 1.0,
    );

    // What setup pays, measured once by hand.
    let (specs_built, spec_build_ms, desc_build_ms) = offline_phase_by_hand(cfg)?;
    m.set("isa.specs_built", specs_built as f64);
    m.set("isa.spec_build_ms", spec_build_ms);
    m.set("match.target_desc_build_ms", desc_build_ms);

    // Engine overheads: a one-thread batch against the driver calls and
    // verification it is made of, then a second compile of each kernel.
    let batch: Vec<Job> =
        kernels.iter().map(|f| Job::new(f.name.clone(), f.clone(), cfg.clone())).collect();
    let (wall1, engine) = batch_wall_s(1, &batch);
    let verify_us = median_over_passes(&own, "codegen.verify");
    m.set("engine.batch_overhead_frac", (wall1 * 1e6 - driver_us - verify_us) / (wall1 * 1e6));
    let mut hit_us = Vec::with_capacity(kernels.len());
    for f in kernels {
        let t = Instant::now();
        let r = engine.compile_one(&f.name, f, cfg);
        hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !r.cache_hit {
            failures.push(format!("{}: second compile was not a memory hit", f.name));
        }
    }
    m.set("engine.mem_hit_us", median(&hit_us));

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if !opts.smoke {
        if opts.workload == "corpus_cold" {
            let (wall_n, _) = batch_wall_s(nproc, &batch);
            m.set("engine.pool_speedup", wall1 / wall_n);
        } else {
            // The four kernels with the longest searches, one beam thread
            // against all cores (base: one thread).
            let mut by_select: Vec<usize> = (0..kernels.len()).collect();
            by_select.sort_by(|a, b| select_us[*b].total_cmp(&select_us[*a]));
            let (mut one, mut many) = (0.0, 0.0);
            for &i in by_select.iter().take(4) {
                one += select_wall_us(&kernels[i], &desc, cfg, 1);
                many += select_wall_us(&kernels[i], &desc, cfg, nproc);
            }
            m.set("core.beam_threads_speedup", one / many);
            // The product's own telemetry on against off, two pairs.
            let ratios: Vec<f64> = (0..2)
                .map(|_| {
                    let off = engine_pass_s(opts, kernels, cfg, false);
                    engine_pass_s(opts, kernels, cfg, true) / off - 1.0
                })
                .collect();
            m.set("trace.enabled_overhead_frac", median(&ratios));
        }
    }

    let failed = failures.len() as u64;
    failures.truncate(20);
    let detail = Json::obj([
        ("traced_passes", Json::int(own.len() as u64)),
        ("nproc", Json::int(nproc as u64)),
        ("untraced_pass_s", Json::Num(median(&untraced_pass_s))),
        ("traced_pass_s", Json::Num(traced_pass_us / 1e6)),
    ]);
    Ok(RunResult {
        attempted,
        failed,
        violations: failures,
        metrics: m,
        detail,
        trace_events: tr.chrome_events(2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(kernels: &[Function]) -> Vec<String> {
        kernels.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn corpus_is_a_function_of_its_seed() {
        let a = Corpus::new(42).take(12);
        assert_eq!(printed(&a), printed(&Corpus::new(42).take(12)), "same seed, same kernels");
        assert_ne!(printed(&a), printed(&Corpus::new(1337).take(12)), "different seeds differ");
        // A stream never repeats: the next draw continues where it stopped.
        let mut stream = Corpus::new(42);
        let (first, second) = (stream.take(12), stream.take(12));
        assert_eq!(printed(&first), printed(&a));
        assert!(printed(&second).iter().all(|f| !printed(&first).contains(f)));
    }
}
