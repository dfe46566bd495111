//! The online pipeline, layer by layer, timed from outside.
//!
//! `compile_layered` performs the same steps as the product's driver —
//! canonicalize, match + select, lower, analyse, baseline, verify — by
//! calling each layer crate's public functions directly, one span per
//! call. It depends on none of the driver's `compile*` wrappers, so those
//! can be reshaped without touching the benchmark; the one driver call the
//! ledger needs (`driver.compile_us`, the whole the layers must sum to) is
//! [`driver_compile`], kept in a single place.

use crate::meta::Metrics;
use crate::spans::Tracer;
use std::sync::Arc;
use std::time::Instant;
use vegen::driver::{CompiledKernel, PipelineConfig};
use vegen_analysis::analyze_kernel;
use vegen_baseline::{try_vectorize_baseline, BaselineConfig};
use vegen_codegen::{check_equivalence, try_lower, try_lower_scalar};
use vegen_core::{select_packs, BeamConfig, BeamStats, CostModel, VectorizerCtx};
use vegen_engine::cache::content_hash;
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::interp::{random_memory, run};
use vegen_ir::Function;
use vegen_isa::{InstDb, InstDef, TargetIsa};
use vegen_match::{MatchTable, TargetDesc};
use vegen_vm::{run_program, static_cycles, VmProgram};

/// Equivalence trials per program — the engine's default `verify_trials`.
pub const VERIFY_TRIALS: u64 = 16;

/// The pipeline configuration every timed section uses: AVX2, beam 16,
/// one beam thread (thread count never changes the selection).
pub fn pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(TargetIsa::avx2(), 16);
    cfg.beam.beam_threads = 1;
    cfg
}

/// Build every spec from pseudocode, uncached (`full_database` memoizes;
/// this is the work behind that memo).
pub fn build_all_specs() -> Result<Vec<InstDef>, String> {
    vegen_isa::specs::all_specs()
        .iter()
        .map(|s| s.build().map_err(|e| format!("spec {}: {e}", s.name)))
        .collect()
}

/// The definitions of `all` a target can use (what `InstDb::for_target`
/// selects from the memoized database).
pub fn defs_for(all: &[InstDef], target: &TargetIsa) -> InstDb {
    InstDb::from_defs(
        all.iter().filter(|d| target.has(d.ext) && d.bits <= target.max_bits).cloned().collect(),
    )
}

/// The offline phase behind the engine's memo, by hand for `cfg`'s target:
/// every spec built from pseudocode, then the target description. Returns
/// `(specs built, spec build ms, target description build ms)`.
pub fn offline_phase_by_hand(cfg: &PipelineConfig) -> Result<(usize, f64, f64), String> {
    let t = Instant::now();
    let defs = build_all_specs()?;
    let spec_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    std::hint::black_box(TargetDesc::build(
        &defs_for(&defs, &cfg.target),
        cfg.canonicalize_patterns,
    ));
    Ok((defs.len(), spec_ms, t.elapsed().as_secs_f64() * 1e3))
}

/// The part of a set-up every online workload pays: the spec database and
/// AVX2 target description — through the memo the engine reads on the
/// first repetition, the same work by hand after.
pub fn setup_target_desc(rep: usize, cfg: &PipelineConfig) -> Result<(), String> {
    if rep == 0 {
        std::hint::black_box(engine_desc(cfg));
    } else {
        offline_phase_by_hand(cfg)?;
    }
    Ok(())
}

/// The paper suite; with a limit, its smallest kernels (smoke runs check
/// names, not idct8).
pub fn suite_kernels(smallest: Option<usize>) -> Vec<Function> {
    let mut all: Vec<Function> = vegen_kernels::all().iter().map(|k| (k.build)()).collect();
    if let Some(n) = smallest {
        all.sort_by_key(|f| f.insts.len());
        all.truncate(n);
    }
    all
}

/// The three exact quality metrics over `(baseline, vegen)` program pairs.
pub fn set_quality_metrics<'p>(
    metrics: &mut Metrics,
    programs: impl IntoIterator<Item = (&'p VmProgram, &'p VmProgram)>,
) {
    let (mut speedups, mut vectorized, mut insts) = (Vec::new(), 0usize, 0usize);
    for (baseline, vegen) in programs {
        speedups.push(static_cycles(baseline) / static_cycles(vegen));
        vectorized += usize::from(vegen.vector_op_count() > 0);
        insts += vegen.instruction_count();
    }
    metrics.set("speedup_geomean", crate::stats::geomean(&speedups));
    metrics.set("vectorized_frac", vectorized as f64 / speedups.len().max(1) as f64);
    metrics.set("code_insts", insts as f64);
}

/// What one layered compile produced, plus the facts the ledger counts.
pub struct Layered {
    pub vegen: VmProgram,
    pub baseline: VmProgram,
    pub insts_in: usize,
    pub insts_out: usize,
    pub states_expanded: usize,
    pub stats: BeamStats,
    pub packs: usize,
    pub lanes_proved: usize,
    pub analysis_clean: bool,
    pub baseline_trees: usize,
    pub select_us: f64,
    /// First divergence from the scalar interpreter, if any.
    pub verify_error: Option<String>,
}

/// Counts summed over the layered compiles of one pass (identical every
/// pass), and the metrics they feed.
#[derive(Default)]
pub struct LayerCounts {
    pub insts_in: usize,
    pub insts_out: usize,
    states: usize,
    transitions: u64,
    dedup_hits: u64,
    tt: (u64, u64),
    producer: (u64, u64),
    interned_operands: usize,
    interned_packs: usize,
    packs: usize,
    merge_us: f64,
    select_max_us: f64,
    vm_insts: usize,
    vector_ops: usize,
    static_cycles: f64,
    lanes_proved: usize,
    baseline_trees: usize,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl LayerCounts {
    pub fn add(&mut self, l: &Layered) {
        self.insts_in += l.insts_in;
        self.insts_out += l.insts_out;
        self.states += l.states_expanded;
        self.transitions += l.stats.transitions;
        self.dedup_hits += l.stats.dedup_hits;
        self.tt.0 += l.stats.tt_hits;
        self.tt.1 += l.stats.tt_misses;
        self.producer.0 += l.stats.producer_cache_hits;
        self.producer.1 += l.stats.producer_cache_misses;
        self.interned_operands += l.stats.interned_operands;
        self.interned_packs += l.stats.interned_packs;
        self.packs += l.packs;
        self.merge_us += l.stats.merge_wall.as_secs_f64() * 1e6;
        self.select_max_us = self.select_max_us.max(l.select_us);
        self.vm_insts += l.vegen.instruction_count();
        self.vector_ops += l.vegen.vector_op_count();
        self.static_cycles += static_cycles(&l.vegen);
        self.lanes_proved += l.lanes_proved;
        self.baseline_trees += l.baseline_trees;
    }

    /// Set the count metrics and the selection breakdown, given the pass's
    /// total `select_packs` time and the freeze part of it.
    pub fn report(&self, m: &mut Metrics, select_us: f64, freeze_us: f64, desc: &TargetDesc) {
        m.set("core.select_us", select_us);
        m.set("core.merge_us", self.merge_us);
        m.set("core.search_us", select_us - freeze_us - self.merge_us);
        m.set("core.us_per_state", select_us / self.states.max(1) as f64);
        m.set("core.select_max_ms", self.select_max_us / 1e3);
        m.set("core.states_expanded", self.states as f64);
        m.set("core.transitions", self.transitions as f64);
        m.set("core.dedup_hits", self.dedup_hits as f64);
        m.set("core.tt_hit_ratio", ratio(self.tt.0, self.tt.1));
        m.set("core.producer_hit_ratio", ratio(self.producer.0, self.producer.1));
        m.set("core.interned_operands", self.interned_operands as f64);
        m.set("core.interned_packs", self.interned_packs as f64);
        m.set("core.packs_committed", self.packs as f64);
        m.set("codegen.vm_insts", self.vm_insts as f64);
        m.set("codegen.vector_ops", self.vector_ops as f64);
        m.set("vm.static_cycles", self.static_cycles);
        m.set("analysis.lanes_proved", self.lanes_proved as f64);
        m.set("baseline.trees", self.baseline_trees as f64);
        m.set("match.rules", desc.insts.len() as f64);
        m.set("match.ops", desc.ops.len() as f64);
    }
}

/// Compile `f` by calling the layers directly, one span per call, under a
/// root `op` span.
///
/// # Errors
///
/// Returns the first layer failure (search budget, lowering, baseline).
pub fn compile_layered(
    tr: &mut Tracer,
    f: &Function,
    desc: &TargetDesc,
    cfg: &PipelineConfig,
) -> Result<Layered, String> {
    let root = tr.enter("op");
    let out = layered_body(tr, f, desc, cfg);
    tr.exit(root);
    out
}

fn layered_body(
    tr: &mut Tracer,
    f: &Function,
    desc: &TargetDesc,
    cfg: &PipelineConfig,
) -> Result<Layered, String> {
    let canonical = tr.timed("ir.canon", || add_narrow_constants(&canonicalize(f)));
    tr.timed("engine.hash", || std::hint::black_box(content_hash(&canonical, cfg)));
    let ctx =
        tr.timed("core.ctx_build", || VectorizerCtx::new(&canonical, desc, CostModel::default()));

    let select_span = tr.enter("core.select");
    let selection = select_packs(&ctx, &cfg.beam);
    let select_us = tr.exit(select_span);
    let selection = selection.map_err(|e| format!("{}: selection: {e}", f.name))?;
    tr.synthesize_child(select_span, "core.freeze", selection.stats.freeze_wall.as_nanos() as u64);

    let lowered = tr.timed("codegen.lower", || {
        let scalar = try_lower_scalar(&canonical)?;
        let mut vegen = try_lower(&ctx, &selection.packs)?;
        // The driver's profitability backstop: keep scalar code when the
        // vectorized program does not win under the program-level model.
        if static_cycles(&vegen) >= static_cycles(&scalar) {
            vegen = scalar.clone();
        }
        Ok::<_, vegen_codegen::LowerError>((scalar, vegen))
    });
    let (scalar, vegen) = lowered.map_err(|e| format!("{}: lowering: {e}", f.name))?;

    let analysis = tr.timed("analysis.kernel", || {
        analyze_kernel(&canonical, desc, &selection.packs, &vegen, cfg.canonicalize_patterns)
    });
    let bl = tr.timed("baseline.vectorize", || {
        let bl_cfg = BaselineConfig { max_bits: cfg.target.max_bits, ..BaselineConfig::default() };
        try_vectorize_baseline(&canonical, &bl_cfg)
    });
    let bl = bl.map_err(|e| format!("{}: baseline: {e}", f.name))?;

    // Against the *input* function, not the canonical one: the reference
    // is the independent scalar interpreter on what the caller handed in.
    let verify_error = tr.timed("codegen.verify", || {
        [("scalar", &scalar), ("vegen", &vegen), ("baseline", &bl.program)].into_iter().find_map(
            |(which, p)| {
                check_equivalence(f, p, VERIFY_TRIALS).err().map(|e| format!("{which}: {e}"))
            },
        )
    });

    Ok(Layered {
        insts_in: f.insts.len(),
        insts_out: canonical.insts.len(),
        states_expanded: selection.states_expanded,
        stats: selection.stats,
        packs: selection.packs.len(),
        lanes_proved: analysis.lanes_proved,
        analysis_clean: analysis.is_clean(),
        baseline_trees: bl.trees_vectorized,
        baseline: bl.program,
        vegen,
        select_us,
        verify_error,
    })
}

/// The product driver's whole online pipeline for one kernel — the total
/// the layer self-times are reconciled against. The only use of a driver
/// `compile*` entry point in the benchmark.
pub fn driver_compile(f: &Function, cfg: &PipelineConfig) -> CompiledKernel {
    vegen::driver::compile(f, cfg)
}

/// Per-kernel probes outside the op span: one driver call, the match table
/// alone, the two evaluators alone, and the width-1 (SLP heuristic) search
/// the degradation ladder falls back to.
pub fn probe_kernel(
    tr: &mut Tracer,
    f: &Function,
    vegen: &VmProgram,
    desc: &TargetDesc,
    cfg: &PipelineConfig,
) {
    let kernel = tr.timed("driver.compile", || driver_compile(f, cfg));
    let canonical = &kernel.function;
    tr.timed("match.table_build", || MatchTable::build(canonical, &desc.ops));
    let images: Vec<_> = (0..VERIFY_TRIALS).map(|seed| random_memory(f, seed)).collect();
    tr.timed("ir.interp", || {
        for image in &images {
            let _ = std::hint::black_box(run(f, &mut image.clone()));
        }
    });
    tr.timed("vm.exec", || {
        for image in &images {
            let _ = std::hint::black_box(run_program(vegen, &mut image.clone()));
        }
    });
    let ctx = VectorizerCtx::new(canonical, desc, CostModel::default());
    let slp = BeamConfig { beam_threads: 1, ..BeamConfig::slp() };
    tr.timed("core.width1_select", || std::hint::black_box(select_packs(&ctx, &slp).is_ok()));
}

/// Wall time of `select_packs` on `f` with the given beam thread count.
pub fn select_wall_us(
    f: &Function,
    desc: &TargetDesc,
    cfg: &PipelineConfig,
    threads: usize,
) -> f64 {
    let canonical = add_narrow_constants(&canonicalize(f));
    let ctx = VectorizerCtx::new(&canonical, desc, CostModel::default());
    let beam = BeamConfig { beam_threads: threads, ..cfg.beam.clone() };
    let t = Instant::now();
    let _ = std::hint::black_box(select_packs(&ctx, &beam));
    t.elapsed().as_secs_f64() * 1e6
}

/// The memoized AVX2 target description the engine compiles against.
pub fn engine_desc(cfg: &PipelineConfig) -> Arc<TargetDesc> {
    vegen::driver::target_desc(&cfg.target, cfg.canonicalize_patterns)
}
