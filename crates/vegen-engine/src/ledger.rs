//! The behaviour ledger, `reports/ledger.tsv`: what the compiler produces
//! for the paper's figures (§7), the search ablations and the generated
//! corpus. `vegen-engine ledger` prints it and `--check FILE` gates it.
//!
//! Every job of every section goes through one [`Engine::compile_batch`]
//! with verification on, so a divergent program fails the ledger. There is
//! one line per job and no timing field; cycles print with `{:?}`, so they
//! round-trip, and the file is byte-identical across runs and thread
//! counts. A `cshuffle=C` row re-selects its packs under shuffle cost `C`
//! (§6.2 sets 2) and a `blend=B` row re-runs the baseline at add/sub blend
//! charge `B` (§7.4), since no pipeline configuration expresses either;
//! both are verified, and their `hash` is the compiled job's. The trailer
//! sums each section (the corpus also per seed, width and shape), counts
//! the corpus kernels whose k = 16 program is modeled worse or better than
//! their k = 1 program, and records the `check-specs` totals and the
//! seed-42 soak-1000 verdict. Every line starts with its section.

use crate::cache::fnv128;
use crate::soak::{run_soak, SoakConfig, SoakStatus};
use crate::{Engine, EngineConfig, Job, JobResult};
use std::collections::BTreeMap;
use vegen::baseline::{vectorize_baseline, BaselineConfig};
use vegen::codegen::try_lower;
use vegen::driver::{target_desc, CompiledKernel, PipelineConfig};
use vegen_analysis::{check_target, AnalysisReport};
use vegen_core::{select_packs, CostModel, VectorizerCtx};
use vegen_ir::Function;
use vegen_isa::TargetIsa;
use vegen_kernels::gen;
use vegen_vm::{listing, static_cycles, VmProgram};

/// Every section, in file order; the last two are trailer lines only.
#[rustfmt::skip]
pub const SECTIONS: [&str; 12] = [
    "suite", "fig2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "ablation", "corpus",
    "check-specs", "soak",
];

/// The jobs, one line per group: section, targets, kernels (names, suite
/// families, `*` for the suite, `seed=N` for corpus kernels 0..200) and
/// `width[:variant]` columns. Rows run target, kernel, column.
const PLAN: &str = "\
suite avx2 * 16
fig2 avx512vnni tvm_dot_16x1x16 64
fig10 avx2 IselVectorizable,IselNonSimd 1,64
fig11 avx2,avx512vnni Dsp 1,64,128,128:no-canon
fig12 avx512vnni idct4 1,128
fig13 avx2,avx512vnni OpenCv 64
fig14 avx2 int32x8 64
fig15 avx2 cmul 64,64:blend=0,64:blend=1,64:blend=2,64:blend=3
ablation avx2 pmaddwd,idct4,chroma,cmul,int32x8,fft4 64:seeds=on,64:seeds=off
ablation avx2 pmaddwd,idct4,chroma,cmul,int32x8,fft4 64:cshuffle=1,64:cshuffle=2,64:cshuffle=4,64:cshuffle=8
ablation avx2 pmaddwd,idct4,chroma,cmul,int32x8,fft4 1,4,16,64,128,256
corpus avx2 seed=42,seed=1337 1,16";

/// The paper's numbers that EXPERIMENTS transcribes, by section, target and
/// width (0: every width): VeGen's speedup over LLVM; for Fig. 2, each
/// generator's instructions / speedup over ICC.
const PAPER: &str = "\
fig2 AVX512-VNNI 64 tvm_dot_16x1x16=vegen:4/11.0x,llvm:61/2.2x,gcc:106/1.5x,icc:273/1.0x
fig10 AVX2 0 max_pd=1.0 min_pd=1.0 max_ps=1.0 min_ps=1.0 mul_addsub_pd=1.0 mul_addsub_ps=1.0
fig10 AVX2 0 abs_pd=0.8 abs_ps=0.4 abs_i8=1.0 abs_i16=1.0 abs_i32=1.0 hadd_pd=1.4 hadd_ps=1.2
fig10 AVX2 0 hsub_pd=1.4 hsub_ps=1.2 hadd_i16=2.9 hsub_i16=4.9 hadd_i32=1.3 hsub_i32=1.3
fig10 AVX2 0 pmaddubs=16.8 pmaddwd=4.2
fig11 AVX2 1 fft4=1.06 fft8=1.09 sbc=1.17 idct8=1.25 idct4=0.94 chroma=1.05
fig11 AVX2 128 fft4=1.38 fft8=1.18 sbc=1.58 idct8=1.36 idct4=2.15 chroma=2.12
fig13 AVX2 64 int8x32=1.1 uint8x32=2.0 int32x8=1.5 int16x16=1.6
fig13 AVX512-VNNI 64 int8x32=0.7 uint8x32=2.2 int32x8=1.7 int16x16=2.5
fig15 AVX2 64 cmul=1.27";

const HEADER: &str = "section\tkernel\ttarget\twidth\tvariant\thash\tshape\trung\tvegen_ops\t\
    baseline_ops\tinsts_scalar\tinsts_baseline\tinsts_vegen\tcycles_scalar\tcycles_baseline\t\
    cycles_vegen\test_cost\tbaseline_trees\tlost_to_baseline\tdigest\tpaper";

/// Random memory images per equivalence check.
const TRIALS: u64 = 16;

/// A row's section, shape (suite family or corpus shape) and variant.
type Label = (&'static str, String, String);

/// The kernels a token names: name, function, shape and own variant.
fn inputs(token: &str) -> Vec<(String, Function, String, String)> {
    if let Some(seed) = token.strip_prefix("seed=") {
        let generated = (0..200).map(|i| gen::generate(seed.parse().expect("a seed"), i));
        return generated
            .map(|g| (g.function.name.clone(), g.function, g.shape.name().into(), token.into()))
            .collect();
    }
    let family = |k: &vegen_kernels::Kernel| format!("{:?}", k.suite);
    let mut kernels = vegen_kernels::all();
    kernels.retain(|k| token == "*" || k.name == token || family(k) == token);
    kernels.iter().map(|k| (k.name.into(), (k.build)(), family(k), "-".into())).collect()
}

/// The labelled jobs of `sections`, in file order.
fn plan(sections: &[&str]) -> Vec<(Label, Job)> {
    let mut rows = Vec::new();
    for line in PLAN.lines() {
        let [section, targets, kernels, columns] = line.split(' ').collect::<Vec<_>>()[..] else {
            unreachable!("four fields a line")
        };
        if !sections.contains(&section) {
            continue;
        }
        for target in targets.split(',').map(|t| TargetIsa::from_name(t).expect("a target")) {
            for (name, f, shape, own) in kernels.split(',').flat_map(inputs) {
                for column in columns.split(',') {
                    let (width, variant) = column.split_once(':').unwrap_or((column, &own));
                    let mut cfg =
                        PipelineConfig::new(target.clone(), width.parse().expect("a beam width"));
                    cfg.canonicalize_patterns = variant != "no-canon";
                    cfg.beam.use_affinity_seeds = variant != "seeds=off";
                    let job = Job::new(name.clone(), f.clone(), cfg);
                    rows.push(((section, shape.clone(), variant.to_string()), job));
                }
            }
        }
    }
    rows
}

/// The kernel a `cshuffle=C` or `blend=B` row describes (see the module
/// docs), verified; `None` for every other row, which describes `k`.
fn vary(k: &CompiledKernel, job: &Job, variant: &str) -> Result<Option<CompiledKernel>, String> {
    let (knob, value) = match variant.split_once('=') {
        Some((knob @ ("cshuffle" | "blend"), v)) => (knob, v.parse::<f64>().expect("a number")),
        _ => return Ok(None),
    };
    let (cfg, mut out) = (&job.pipeline, k.clone());
    if knob == "cshuffle" {
        let desc = target_desc(&cfg.target, cfg.canonicalize_patterns);
        let cost = CostModel { c_shuffle: value, ..CostModel::default() };
        let ctx = VectorizerCtx::new(&k.function, &desc, cost);
        out.selection = select_packs(&ctx, &cfg.beam).map_err(|e| e.to_string())?;
        out.vegen = try_lower(&ctx, &out.selection.packs).map_err(|e| e.to_string())?;
        // The driver's profitability backstop.
        if static_cycles(&out.vegen) >= static_cycles(&out.scalar) {
            out.vegen = out.scalar.clone();
        }
        out.analysis = AnalysisReport::default();
    } else {
        let cfg = BaselineConfig { addsub_blend_cost: value, ..BaselineConfig::avx2() };
        let bl = vectorize_baseline(&k.function, &cfg);
        (out.baseline, out.baseline_trees) = (bl.program, bl.trees_vectorized);
    }
    out.verify(TRIALS).map_err(|e| format!("{} {variant}: {e}", job.name))?;
    Ok(Some(out))
}

fn paper(section: &str, variant: &str, job: &Job) -> &'static str {
    let key = |w| format!("{section} {} {w} ", job.pipeline.target.name);
    PAPER
        .lines()
        .filter(|_| variant == "-")
        .filter_map(|l| l.strip_prefix(&key(job.pipeline.beam.width)).or(l.strip_prefix(&key(0))))
        .flat_map(str::split_whitespace)
        .find_map(|kv| kv.strip_prefix(job.name.as_str())?.strip_prefix('='))
        .unwrap_or("-")
}

fn ops(p: &VmProgram) -> String {
    Some(p.vector_ops_used().join(",")).filter(|o| !o.is_empty()).unwrap_or_else(|| "-".into())
}

/// One row: the labels, then what `k` measures.
fn row((section, shape, variant): &Label, job: &Job, r: &JobResult, k: &CompiledKernel) -> String {
    let (sc, bl, vg) = k.cycles();
    let hash = r.hash.map_or_else(|| "-".into(), |h| h.hex());
    let cfg = &job.pipeline;
    let programs =
        format!("{:?}\n{}\n{}", k.selection.packs, listing(&k.vegen), listing(&k.baseline));
    [
        format!("{section}\t{}\t{}\t{}\t{variant}", job.name, cfg.target.name, cfg.beam.width),
        format!("{hash}\t{shape}\t{}\t{}\t{}", r.rung.name(), ops(&k.vegen), ops(&k.baseline)),
        [&k.scalar, &k.baseline, &k.vegen].map(|p| p.instruction_count().to_string()).join("\t"),
        [sc, bl, vg, k.selection.vector_cost].map(|c| format!("{c:?}")).join("\t"),
        format!("{}\t{}", k.baseline_trees, u8::from(k.lost_to_baseline())),
        format!("{:016x}", fnv128(programs.as_bytes()).0 as u64),
        paper(section, variant, job).to_string(),
    ]
    .join("\t")
}

/// Sums over a group of rows.
#[derive(Default)]
struct Tally {
    rows: usize,
    lost: usize,
    log_speedup: f64,
    insts: [usize; 3],
    cycles: [f64; 3],
}

impl Tally {
    fn add(&mut self, k: &CompiledKernel) {
        let (sc, bl, vg) = k.cycles();
        (self.rows, self.lost) = (self.rows + 1, self.lost + usize::from(k.lost_to_baseline()));
        self.log_speedup += (bl / vg).ln();
        for (i, (p, c)) in [(&k.scalar, sc), (&k.baseline, bl), (&k.vegen, vg)].iter().enumerate() {
            self.insts[i] += p.instruction_count();
            self.cycles[i] += c;
        }
    }

    fn cells(&self) -> String {
        let ([i0, i1, i2], [c0, c1, c2]) = (self.insts, self.cycles);
        let geomean = (self.log_speedup / self.rows as f64).exp();
        format!(
            "rows={}\tlost_to_baseline={}\tspeedup_geomean={geomean:?}\tinsts={i0}/{i1}/{i2}\t\
             cycles={c0:?}/{c1:?}/{c2:?}",
            self.rows, self.lost
        )
    }
}

/// The ledger lines of `sections` (any subset of [`SECTIONS`]), in file
/// order, compiled on `threads` workers (`0` = one per core).
///
/// # Errors
///
/// Names the first job that produced no program or failed verification.
pub fn render(sections: &[&str], threads: usize) -> Result<String, String> {
    let (labels, jobs): (Vec<Label>, Vec<Job>) = plan(sections).into_iter().unzip();
    let engine = Engine::new(EngineConfig { threads, verify_trials: TRIALS, ..Default::default() });
    let mut out = vec![HEADER.to_string()];
    let mut tallies: BTreeMap<(usize, String), Tally> = BTreeMap::new();
    let mut by_width: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for ((label, job), r) in labels.iter().zip(&jobs).zip(engine.compile_batch(&jobs)) {
        let (section, shape, variant) = label;
        let Some(compiled) = r.kernel.as_deref().filter(|_| r.verify_error.is_none()) else {
            let why = r.verify_error.as_deref().unwrap_or("no program");
            return Err(format!("{} ({section}, rung {}): {why}", job.name, r.rung.name()));
        };
        let varied = vary(compiled, job, variant)?;
        let k = varied.as_ref().unwrap_or(compiled);
        out.push(row(label, job, &r, k));
        let mut groups = vec!["sum".to_string()];
        if *section == "corpus" {
            let group = format!("{variant}/k{}", job.pipeline.beam.width);
            groups.extend([format!("{group}/{shape}"), group]);
            by_width.entry((variant, &job.name)).or_default().push(k.cycles().2);
        }
        let at = SECTIONS.iter().position(|s| s == section).expect("a section");
        groups.into_iter().for_each(|g| tallies.entry((at, g)).or_default().add(k));
    }
    for ((at, group), t) in &tallies {
        out.push(format!("{}\t{group}\t{}", SECTIONS[*at], t.cells()));
    }
    let mut inversions: BTreeMap<&str, [usize; 2]> = BTreeMap::new();
    for ((seed, _), vg) in &by_width {
        let n = inversions.entry(seed).or_default();
        (n[0], n[1]) = (n[0] + usize::from(vg[1] > vg[0]), n[1] + usize::from(vg[1] < vg[0]));
    }
    for (seed, [worse, better]) in inversions {
        out.push(format!("corpus\t{seed}/k16-vs-k1\tworse={worse}\tbetter={better}"));
    }
    if sections.contains(&"check-specs") {
        for t in [TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()] {
            let r = check_target(&t, true);
            out.push(format!(
                "check-specs\t{}\trules={}\tlanes_proved={}\tlanes_validated={}",
                t.name, r.stats.rules, r.lanes_proved, r.lanes_validated
            ));
        }
    }
    if sections.contains(&"soak") {
        let soak = run_soak(&SoakConfig { seed: 42, count: 1000, ..SoakConfig::default() })?;
        let passed = soak.results.iter().filter(|r| r.status == SoakStatus::Passed).count();
        let vectorized = soak.results.iter().filter(|r| r.vectorized).count();
        let unexplained = soak.unexplained_failures();
        out.push(format!(
            "soak\tseed=42/count=1000\tpassed={passed}\tvectorized={vectorized}\tunexplained={unexplained}"
        ));
    }
    Ok(out.join("\n") + "\n")
}

/// Every line where `got` differs from `want`, as a numbered `-`/`+` pair.
pub fn differences(want: &str, got: &str) -> Vec<String> {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let side = |lines: &[&str], i: usize| lines.get(i).map_or("(no line)", |l| l).to_string();
    (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .map(|i| format!("line {}:\n- {}\n+ {}", i + 1, side(&want, i), side(&got, i)))
        .collect()
}
