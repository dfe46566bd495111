//! End-to-end compilation driver: scalar function in, three programs out
//! (scalar reference, VeGen-vectorized, baseline-SLP-vectorized).
//!
//! This is the equivalent of the paper's experimental setup — each kernel
//! compiled by "clang -O3" (our scalar lowering), "LLVM's vectorizer" (the
//! baseline SLP crate) and "the VeGen-generated vectorizer" (the core
//! pipeline) — all lowered to the same vector VM so they can be executed
//! (correctness) and costed (performance).
//!
//! The pipeline is one straight line, [`PIPELINE`], and every stage of it
//! runs through one private executor (`run_stage`) that owns the deadline
//! check, trace span, panic attribution, fault injection and timing; the
//! stages own only their bodies. The compile surface is [`target_desc`],
//! [`prepare`], [`compile_prepared`] under a [`Plan`], and the infallible
//! convenience [`compile`].

use crate::error::{enter_stage, CompileError, ErrorCause, Stage};
use crate::fault;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vegen_analysis::{analyze_kernel, AnalysisReport};
use vegen_baseline::{try_vectorize_baseline, BaselineConfig};
use vegen_codegen::{check_equivalence, try_lower, try_lower_scalar};
use vegen_core::{
    select_packs_reusing, BeamConfig, CostModel, SelectionResult, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::{add_narrow_constants, canonicalize_with_stats};
use vegen_ir::Function;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;
use vegen_trace::metrics::{self, Histogram};
use vegen_vm::{static_cycles, VmProgram};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target ISA (AVX2 or AVX512-VNNI in the paper's evaluation).
    pub target: TargetIsa,
    /// Pack-selection configuration (beam width etc.).
    pub beam: BeamConfig,
    /// Run the §6 pattern canonicalization (ablated in Fig. 11).
    pub canonicalize_patterns: bool,
}

impl PipelineConfig {
    /// Defaults for a target, with the given beam width.
    pub fn new(target: TargetIsa, width: usize) -> PipelineConfig {
        PipelineConfig { target, beam: BeamConfig::with_width(width), canonicalize_patterns: true }
    }
}

/// One compiled kernel: the three programs plus selection statistics.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The canonicalized (and constant-augmented) scalar function.
    pub function: Function,
    /// 1:1 scalar lowering (the "not vectorized" build).
    pub scalar: VmProgram,
    /// The VeGen-vectorized program.
    pub vegen: VmProgram,
    /// The baseline-SLP program.
    pub baseline: VmProgram,
    /// Pack-selection outcome.
    pub selection: SelectionResult,
    /// Number of SLP trees the baseline committed.
    pub baseline_trees: usize,
    /// Static validation of the selection and the VeGen program: pack
    /// legality, lane provenance, and VM lint.
    pub analysis: AnalysisReport,
}

/// Fetch (and cache) the generated target description for a target.
///
/// `TargetDesc::build` is the expensive offline phase (pattern generation
/// over the whole instruction database); the cache `Mutex` is held only for
/// lookups and inserts, never across the build itself, so concurrent engine
/// workers targeting *different* ISAs do not serialize on each other. Two
/// racing builders of the same key both build, and the double-checked
/// insert keeps the first — wasted work in a rare race beats a global lock
/// on every compilation.
pub fn target_desc(target: &TargetIsa, canonicalize_patterns: bool) -> Arc<TargetDesc> {
    type DescCache = Mutex<HashMap<(String, bool), Arc<TargetDesc>>>;
    static CACHE: OnceLock<DescCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (target.name.clone(), canonicalize_patterns);
    // `unwrap_or_else(into_inner)`: a worker that panicked while holding
    // this lock (caught at the engine boundary) must not poison target
    // descriptions for every later compilation — the map is only ever
    // grown, so the recovered state is always consistent.
    if let Some(desc) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return desc.clone();
    }
    let built = Arc::new(TargetDesc::build(&InstDb::for_target(target), canonicalize_patterns));
    cache.lock().unwrap_or_else(|e| e.into_inner()).entry(key).or_insert(built).clone()
}

/// The driver's stages, in pipeline order (§4–§5, Fig. 3, then the §7
/// comparator). Everything keyed by stage — `driver/<stage>` spans,
/// `driver_stage_<stage>_us` histograms, [`StageTimes`] slots, the engine's
/// `stage_done` events, report and cache-entry keys — derives from this
/// list and [`Stage::name`].
pub const PIPELINE: [Stage; 6] = [
    Stage::Canonicalize,
    Stage::TargetDesc,
    Stage::Selection,
    Stage::Lowering,
    Stage::Analysis,
    Stage::Baseline,
];

/// Wall time of each [`PIPELINE`] stage of one compile.
///
/// These are the stage boundaries the engine's telemetry hooks into: the §6
/// offline phase shows up as `target_desc` (amortized to ~0 by the process
/// cache), everything else is the online phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Canonicalization + narrow-constant annotation (§6).
    pub canonicalize: Duration,
    /// Target-description fetch (builds once per (ISA, canon) per process).
    pub target_desc: Duration,
    /// Match-table construction + pack selection (§4.4, §5).
    pub selection: Duration,
    /// Lowering the pack set to the vector VM, incl. the scalar lowering
    /// and the profitability backstop.
    pub lowering: Duration,
    /// Static validation: pack legality + lane provenance + VM lint.
    pub analysis: Duration,
    /// The baseline LLVM-style SLP comparator.
    pub baseline: Duration,
}

impl StageTimes {
    /// The slot of a [`PIPELINE`] stage.
    ///
    /// # Panics
    ///
    /// Panics on a stage the driver does not run (admission, verify,
    /// cache) — a programming error, not a runtime condition.
    pub fn slot_mut(&mut self, stage: Stage) -> &mut Duration {
        match stage {
            Stage::Canonicalize => &mut self.canonicalize,
            Stage::TargetDesc => &mut self.target_desc,
            Stage::Selection => &mut self.selection,
            Stage::Lowering => &mut self.lowering,
            Stage::Analysis => &mut self.analysis,
            Stage::Baseline => &mut self.baseline,
            Stage::Admission | Stage::Verify | Stage::Cache => {
                panic!("{stage} is not a driver stage")
            }
        }
    }

    /// `(stage, wall time)` of every [`PIPELINE`] stage, in order — the one
    /// iteration totals, events, reports and cache entries all read.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Duration)> {
        let mut times = *self;
        PIPELINE.map(|stage| (stage, *times.slot_mut(stage))).into_iter()
    }

    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.iter().map(|(_, d)| d).sum()
    }
}

/// Per-compile state threaded through [`prepare`] and every
/// [`compile_prepared`] run on the function it prepared.
#[derive(Debug, Default)]
pub struct CompileCtx {
    /// Job budget `(expiry, configured limit)`: checked at every stage
    /// boundary, and the *remaining* window is threaded into the beam
    /// search as a wall budget so the selection loop (the only unbounded
    /// stage) observes it cooperatively. The engine opens a fresh window
    /// per ladder rung.
    pub deadline: Option<(Instant, Duration)>,
    /// The frozen interned context and `costSLP` memo of the last search,
    /// so a retry on the *same* prepared function skips the freeze
    /// pre-pass. A typed error leaves it consistent; after a caught panic
    /// the caller must [`SelectionReuse::reset`] it.
    pub reuse: SelectionReuse,
    /// Stage times recorded so far: `canonicalize` by [`prepare`], the rest
    /// by the latest [`compile_prepared`].
    times: StageTimes,
}

/// What [`compile_prepared`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'a> {
    /// The whole pipeline, selecting packs with this beam.
    Full(&'a BeamConfig),
    /// Scalar lowering only — no selection, analysis or baseline; all three
    /// program slots hold the 1:1 scalar lowering, which is correct by
    /// construction and cheap even for adversarial inputs. It is what a
    /// caller falls back to when [`Plan::Full`] keeps failing, so it fires
    /// no injected fault and observes no deadline.
    Scalar,
}

/// Record one stage's wall time in its `driver_stage_<stage>_us` histogram.
/// Unconditional (unlike trace spans): stage boundaries are per-kernel, far
/// off any hot loop. Public for the one stage timed outside the driver, the
/// engine's verify.
pub fn record_stage(stage: Stage, d: Duration) {
    const N: usize = Stage::ALL.len();
    static HISTOGRAMS: [OnceLock<Arc<Histogram>>; N] = [const { OnceLock::new() }; N];
    HISTOGRAMS[stage as usize]
        .get_or_init(|| {
            let name = format!("driver_stage_{stage}_us");
            metrics::histogram(Box::leak(name.into_boxed_str()))
        })
        .record_duration(d);
}

/// The one executor every stage runs through: deadline check, then — inside
/// the `driver/<stage>` span and the [`StageGuard`](crate::error::StageGuard)
/// that attributes a panic — the injected fault and `body`; on success the
/// wall time goes to the stage's histogram and its [`StageTimes`] slot. A
/// failure comes back typed with the stage, kernel and cause. `guarded`
/// is false only for [`Plan::Scalar`], which skips the deadline and the
/// fault.
fn run_stage<T>(
    stage: Stage,
    kernel: &str,
    ctx: &mut CompileCtx,
    guarded: bool,
    body: impl FnOnce(&mut CompileCtx) -> Result<T, ErrorCause>,
) -> Result<T, CompileError> {
    let fail = |cause| CompileError::new(stage, kernel, cause);
    let t = Instant::now();
    match ctx.deadline {
        Some((at, limit)) if guarded && Instant::now() >= at => {
            vegen_trace::instant("driver", "deadline");
            return Err(fail(ErrorCause::Deadline { limit }));
        }
        _ => {}
    }
    let out = {
        let _sp = vegen_trace::span("driver", stage.name());
        let _st = enter_stage(stage);
        if guarded {
            fault::fire(stage, kernel).map_err(fail)?;
        }
        body(ctx).map_err(fail)?
    };
    let elapsed = t.elapsed();
    record_stage(stage, elapsed);
    *ctx.times.slot_mut(stage) = elapsed;
    Ok(out)
}

/// Canonicalize and annotate a scalar function — the front half of the
/// pipeline, exposed so callers (the engine's content-addressed cache) can
/// hash the canonical form before deciding whether to compile at all.
///
/// Each canonicalizer row that fired is a `canon` trace counter, and a
/// result that did not reach its fixpoint moves `canon_unconverged_total`.
///
/// # Errors
///
/// Returns an injected canonicalize-stage fault, if one is installed.
pub fn prepare(f: &Function, ctx: &mut CompileCtx) -> Result<Function, CompileError> {
    run_stage(Stage::Canonicalize, &f.name, ctx, true, |_| {
        let (canonical, stats) = canonicalize_with_stats(f);
        for (rule, n) in stats.fired() {
            vegen_trace::counter("canon", rule, n as f64);
        }
        if !stats.converged {
            metrics::counter("canon_unconverged_total").inc();
        }
        Ok(add_narrow_constants(&canonical))
    })
}

/// Compile `f` three ways (scalar / baseline / VeGen).
///
/// # Panics
///
/// Panics on any pipeline failure; fault-tolerant callers (the engine) use
/// [`prepare`] + [`compile_prepared`] and get a typed [`CompileError`].
pub fn compile(f: &Function, cfg: &PipelineConfig) -> CompiledKernel {
    let mut ctx = CompileCtx::default();
    prepare(f, &mut ctx)
        .and_then(|prepared| compile_prepared(&prepared, cfg, Plan::Full(&cfg.beam), &mut ctx))
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// Run `plan` on an already-[`prepare`]d function, reporting per-stage wall
/// times (`canonicalize` is what [`prepare`] recorded on this `ctx`, zero if
/// that stage was the caller's).
///
/// # Errors
///
/// Returns the first stage failure — budget exhaustion, expired deadline,
/// malformed input, injected fault — naming the stage, kernel and cause.
/// Panics are *not* caught here; that is the engine boundary's job, and the
/// stage a panic unwound through is left for it in
/// [`crate::error::take_panic_stage`].
pub fn compile_prepared(
    prepared: &Function,
    cfg: &PipelineConfig,
    plan: Plan<'_>,
    ctx: &mut CompileCtx,
) -> Result<(CompiledKernel, StageTimes), CompileError> {
    let name = &prepared.name;
    ctx.times = StageTimes { canonicalize: ctx.times.canonicalize, ..StageTimes::default() };

    let Plan::Full(beam) = plan else {
        let scalar = run_stage(Stage::Lowering, name, ctx, false, |_| {
            try_lower_scalar(prepared).map_err(ErrorCause::Lowering)
        })?;
        let kernel = CompiledKernel {
            function: prepared.clone(),
            vegen: scalar.clone(),
            baseline: scalar.clone(),
            scalar,
            selection: SelectionResult::default(),
            baseline_trees: 0,
            analysis: AnalysisReport::default(),
        };
        return Ok((kernel, ctx.times));
    };

    let desc = run_stage(Stage::TargetDesc, name, ctx, true, |_| {
        Ok(target_desc(&cfg.target, cfg.canonicalize_patterns))
    })?;

    let (vctx, selection) = run_stage(Stage::Selection, name, ctx, true, |ctx| {
        // The remaining job window tightens any caller-set wall budget,
        // never loosens it.
        let mut beam = beam.clone();
        if let Some((at, _)) = ctx.deadline {
            let remaining = at.saturating_duration_since(Instant::now());
            beam.budget.wall = Some(beam.budget.wall.map_or(remaining, |w| w.min(remaining)));
        }
        let vctx = VectorizerCtx::new(prepared, &desc, CostModel::default());
        let selection =
            select_packs_reusing(&vctx, &beam, &mut ctx.reuse).map_err(ErrorCause::Search)?;
        Ok((vctx, selection))
    })?;

    let (scalar, vegen) = run_stage(Stage::Lowering, name, ctx, true, |_| {
        let scalar = try_lower_scalar(prepared).map_err(ErrorCause::Lowering)?;
        let mut vegen = try_lower(&vctx, &selection.packs).map_err(ErrorCause::Lowering)?;
        // Profitability backstop: like any production vectorizer, keep the
        // scalar code when the vectorized program does not actually win
        // under the (more precise) program-level cost model.
        if static_cycles(&vegen) >= static_cycles(&scalar) {
            vegen = scalar.clone();
        }
        Ok((scalar, vegen))
    })?;

    let analysis = run_stage(Stage::Analysis, name, ctx, true, |_| {
        Ok(analyze_kernel(prepared, &desc, &selection.packs, &vegen, cfg.canonicalize_patterns))
    })?;

    let bl = run_stage(Stage::Baseline, name, ctx, true, |_| {
        let bl_cfg = BaselineConfig { max_bits: cfg.target.max_bits, ..BaselineConfig::default() };
        try_vectorize_baseline(prepared, &bl_cfg).map_err(ErrorCause::Baseline)
    })?;

    let kernel = CompiledKernel {
        function: prepared.clone(),
        scalar,
        vegen,
        baseline: bl.program,
        selection,
        baseline_trees: bl.trees_vectorized,
        analysis,
    };
    Ok((kernel, ctx.times))
}

impl CompiledKernel {
    /// Check all three programs against the scalar function's semantics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify(&self, trials: u64) -> Result<(), String> {
        let _sp = vegen_trace::span("driver", "verify");
        check_equivalence(&self.function, &self.scalar, trials)
            .map_err(|e| format!("scalar: {e}"))?;
        check_equivalence(&self.function, &self.vegen, trials)
            .map_err(|e| format!("vegen: {e}"))?;
        check_equivalence(&self.function, &self.baseline, trials)
            .map_err(|e| format!("baseline: {e}"))?;
        Ok(())
    }

    /// Estimated cycles for each program under the throughput model:
    /// `(scalar, baseline, vegen)`.
    pub fn cycles(&self) -> (f64, f64, f64) {
        (static_cycles(&self.scalar), static_cycles(&self.baseline), static_cycles(&self.vegen))
    }

    /// VeGen's speedup over the baseline ("Speedup over LLVM" in the
    /// paper's figures).
    pub fn speedup_vs_baseline(&self) -> f64 {
        let (_, bl, vg) = self.cycles();
        bl / vg
    }

    /// VeGen's speedup over scalar code.
    pub fn speedup_vs_scalar(&self) -> f64 {
        let (sc, _, vg) = self.cycles();
        sc / vg
    }

    /// Whether the VeGen program is modeled slower than the baseline's: the
    /// generated vectorizer losing to its own SLP comparator.
    pub fn lost_to_baseline(&self) -> bool {
        let (_, bl, vg) = self.cycles();
        vg > bl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::{FunctionBuilder, Type};

    #[test]
    fn stage_times_iterate_named_fields_in_pipeline_order() {
        let ns = Duration::from_nanos;
        let t = StageTimes {
            canonicalize: ns(1),
            target_desc: ns(2),
            selection: ns(3),
            lowering: ns(4),
            analysis: ns(5),
            baseline: ns(6),
        };
        let want: Vec<_> = PIPELINE.into_iter().zip((1..=6).map(ns)).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), want);
        assert_eq!(t.total(), ns(21));
    }

    #[test]
    fn prepare_counts_a_canonical_form_short_of_its_fixpoint() {
        // A trunc sinks through at most 256 levels per pass and 16 passes
        // run, so a 5000-deep chain stops short.
        let mut b = FunctionBuilder::new("deep");
        let a = b.param("A", Type::I32, 1);
        let o = b.param("O", Type::I16, 1);
        let x = b.load(a, 0);
        let mut m = x;
        for _ in 0..5000 {
            m = b.mul(m, x);
        }
        let t = b.trunc(m, Type::I16);
        b.store(o, 0, t);
        let unconverged = metrics::counter("canon_unconverged_total");
        let before = unconverged.get();
        prepare(&b.finish(), &mut CompileCtx::default()).unwrap();
        assert!(unconverged.get() > before);
    }

    #[test]
    fn driver_compiles_and_verifies_dot_kernel() {
        let mut b = FunctionBuilder::new("dot4");
        let a = b.param("A", Type::I16, 8);
        let bb = b.param("B", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let mut terms = Vec::new();
            for k in 0..2i64 {
                let x = b.load(a, lane * 2 + k);
                let y = b.load(bb, lane * 2 + k);
                let xw = b.sext(x, Type::I32);
                let yw = b.sext(y, Type::I32);
                terms.push(b.mul(xw, yw));
            }
            let s = b.add(terms[0], terms[1]);
            b.store(c, lane, s);
        }
        let f = b.finish();
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
        let ck = compile(&f, &cfg);
        ck.verify(32).unwrap();
        let (sc, bl, vg) = ck.cycles();
        assert!(vg < sc, "vegen ({vg}) must beat scalar ({sc})");
        assert!(vg < bl, "vegen ({vg}) must beat baseline ({bl}) on a dot product");
        assert!(ck.vegen.vector_ops_used().iter().any(|n| n.contains("pmaddwd")));
    }

    #[test]
    fn constant_multiplier_kernel_uses_pmaddwd() {
        // The idct4-style shape: products with 16-bit constants.
        let mut b = FunctionBuilder::new("const_madd");
        let a = b.param("A", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let x = b.load(a, lane * 2);
            let y = b.load(a, lane * 2 + 1);
            let xw = b.sext(x, Type::I32);
            let yw = b.sext(y, Type::I32);
            let k83 = b.iconst(Type::I32, 83);
            let k36 = b.iconst(Type::I32, 36);
            let m0 = b.mul(xw, k83);
            let m1 = b.mul(yw, k36);
            let s = b.add(m0, m1);
            b.store(c, lane, s);
        }
        let f = b.finish();
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 16);
        let ck = compile(&f, &cfg);
        ck.verify(32).unwrap();
        assert!(
            ck.vegen.vector_ops_used().iter().any(|n| n.contains("pmaddwd")),
            "constants must bind as pmaddwd live-ins; used: {:?}\n{}",
            ck.vegen.vector_ops_used(),
            vegen_vm::listing(&ck.vegen)
        );
    }
}
