//! Soak harness: stream a generated-kernel corpus through the full
//! compile pipeline with differential checking, provenance auditing,
//! seeded fault injection, and automatic failure minimization.
//!
//! The corpus is defined by two integers: a corpus seed and a count.
//! Kernel `i` is [`vegen_kernels::gen::generate`]`(seed, i)` — fully
//! deterministic, so any failure replays from `(seed, index)` alone.
//! For each kernel the harness runs:
//!
//! 1. **compile** through the engine's full degradation ladder (cache,
//!    deadline, panic isolation, width-1 retry, scalar fallback);
//! 2. **differential check** — VM execution of all three produced
//!    programs (scalar / vegen / baseline) against the scalar
//!    interpreter on `trials` seeded random memory images;
//! 3. **provenance audit** — the [`vegen_analysis`] report embedded in
//!    the compiled kernel must have zero error-severity findings.
//!
//! With `--fault-every K`, every Kth job gets a seeded fault (panic,
//! delay, or typed error at a pipeline stage) installed via the
//! process-wide [`FaultPlan`], continuously exercising the ladder:
//! faulted jobs may *degrade* but must never abort. With `--shard i/n`,
//! only indices `≡ i (mod n)` are run, so CI splits one corpus across
//! jobs with disjoint, deterministic coverage.
//!
//! Any differential or provenance failure is minimized on the spot by
//! [`vegen_ir::reduce::minimize`] — the reduction predicate recompiles
//! each candidate and re-runs the exact failing check — and written as a
//! replayable seed file. The ordered result list contains no timing, so
//! identical `(seed, count, shard)` arguments produce a byte-identical
//! list at any `--beam-threads` (thread count never changes selected
//! packs).
//!
//! The planted-miscompile flag (`corrupt_vegen`, CLI
//! `--inject-miscompile`) is **test-only**: it deterministically corrupts
//! the compiled vegen program (drops one seeded store) before the
//! differential check, proving end-to-end that the check catches real
//! miscompiles and that the minimizer shrinks them.

use crate::json::Json;
use crate::{Engine, EngineConfig, Rung};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vegen::driver::{CompiledKernel, PipelineConfig};
use vegen::error::Stage;
use vegen::fault::{FaultKind, FaultPlan, FaultSpec};
use vegen_core::BeamConfig;
use vegen_ir::rng::XorShift;
use vegen_ir::Function;
use vegen_isa::TargetIsa;
use vegen_kernels::gen;
use vegen_trace::metrics;
use vegen_vm::VmProgram;

/// Soak-run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Corpus seed: kernel `i` is `gen::generate(seed, i)`.
    pub seed: u64,
    /// Corpus size (indices `0..count`, before sharding).
    pub count: u64,
    /// This job's shard (`--shard i/n`): only indices `≡ i (mod n)` run.
    pub shard_index: u64,
    /// Total shards (`≥ 1`).
    pub shard_count: u64,
    /// Seeded random-memory trials per differential check.
    pub trials: u64,
    /// Inject a seeded fault on every Kth job of this shard (`0` = off).
    pub fault_every: u64,
    /// Target ISA to compile against.
    pub target: TargetIsa,
    /// Beam width.
    pub beam: usize,
    /// Intra-kernel beam-search threads (`0` = auto); never changes the
    /// selected packs, only the wall time.
    pub beam_threads: usize,
    /// Per-job compile deadline.
    pub deadline: Option<Duration>,
    /// Persistent compile cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Size bound for the disk cache (oldest-entry eviction).
    pub cache_max_bytes: Option<u64>,
    /// Minimize failing kernels to a minimal reproducer.
    pub minimize: bool,
    /// Candidate budget per minimization.
    pub minimize_budget: u64,
    /// Directory for replayable seed files of (minimized) failures.
    pub seeds_out: Option<PathBuf>,
    /// **Test-only**: seed for a deliberately planted miscompile — the
    /// compiled vegen program is deterministically corrupted before the
    /// differential check, which must then catch it.
    pub corrupt_vegen: Option<u64>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 42,
            count: 100,
            shard_index: 0,
            shard_count: 1,
            trials: 8,
            fault_every: 0,
            target: TargetIsa::avx2(),
            beam: 16,
            beam_threads: 0,
            deadline: None,
            cache_dir: None,
            cache_max_bytes: None,
            minimize: true,
            minimize_budget: 600,
            seeds_out: None,
            corrupt_vegen: None,
        }
    }
}

/// Outcome class of one soak job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakStatus {
    /// Primary rung, all checks passed.
    Passed,
    /// Below primary rung without an injected fault; checks passed.
    /// Allowed (degrade-and-continue is the production posture) but
    /// counted separately.
    Degraded,
    /// Below primary rung *because of* an injected fault; checks passed.
    /// The expected outcome of fault injection.
    Faulted,
    /// The differential check caught a divergence. Unexplained failure.
    DiffFailed,
    /// The provenance audit found error-severity findings. Unexplained
    /// failure.
    ProvenanceFailed,
    /// No program was produced at all. Unexplained failure — injected
    /// faults must degrade, never abort.
    Aborted,
}

impl SoakStatus {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SoakStatus::Passed => "passed",
            SoakStatus::Degraded => "degraded",
            SoakStatus::Faulted => "faulted",
            SoakStatus::DiffFailed => "diff_failed",
            SoakStatus::ProvenanceFailed => "provenance_failed",
            SoakStatus::Aborted => "aborted",
        }
    }

    /// Whether this outcome counts against the run.
    pub fn is_failure(self) -> bool {
        matches!(self, SoakStatus::DiffFailed | SoakStatus::ProvenanceFailed | SoakStatus::Aborted)
    }
}

/// A minimized reproducer for a failing kernel.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// Instructions in the original generated kernel.
    pub from_insts: usize,
    /// Instructions after minimization.
    pub insts: usize,
    /// Printed form of the minimal reproducer.
    pub listing: String,
    /// Seed file the reproducer was written to, if any.
    pub seed_file: Option<String>,
}

/// One kernel's soak outcome. Contains no timing, so the ordered result
/// list is byte-identical across hosts and thread counts.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Corpus index (the second replay integer).
    pub index: u64,
    /// Kernel name (`gen_<seed>_<index>`).
    pub name: String,
    /// Shape family of the generated kernel.
    pub shape: &'static str,
    /// Output element type.
    pub out_ty: String,
    /// Instruction count of the generated kernel.
    pub insts: usize,
    /// Ladder rung the compile ended on.
    pub rung: &'static str,
    /// Outcome class.
    pub status: SoakStatus,
    /// Whether the vegen program uses at least one vector op.
    pub vectorized: bool,
    /// Whether this job had an injected fault.
    pub faulted: bool,
    /// Failure or degradation detail (empty when passed).
    pub detail: String,
    /// Minimized reproducer, for failing kernels when minimization ran.
    pub minimized: Option<Minimized>,
}

impl SoakResult {
    /// Stable JSON row (no timing).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::int(self.index)),
            ("name", Json::str(&self.name)),
            ("shape", Json::str(self.shape)),
            ("out_ty", Json::str(&self.out_ty)),
            ("insts", Json::int(self.insts as u64)),
            ("rung", Json::str(self.rung)),
            ("status", Json::str(self.status.name())),
            ("vectorized", Json::Bool(self.vectorized)),
            ("faulted", Json::Bool(self.faulted)),
            ("detail", Json::str(&self.detail)),
            (
                "minimized_insts",
                self.minimized.as_ref().map_or(Json::Null, |m| Json::int(m.insts as u64)),
            ),
        ])
    }
}

/// The full outcome of a soak run.
pub struct SoakReport {
    /// The configuration the run used.
    pub config: SoakConfig,
    /// Per-kernel outcomes, in corpus-index order.
    pub results: Vec<SoakResult>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// The engine the corpus compiled on: its cache, disk and pipeline
    /// counters are the report's.
    pub engine: Engine,
}

impl SoakReport {
    fn count(&self, s: SoakStatus) -> u64 {
        self.results.iter().filter(|r| r.status == s).count() as u64
    }

    /// Failures the run cannot explain: differential divergences,
    /// provenance errors, and aborts (faulted jobs must degrade, never
    /// abort). Zero means the soak is clean.
    pub fn unexplained_failures(&self) -> u64 {
        self.results.iter().filter(|r| r.status.is_failure()).count() as u64
    }

    /// Fraction of kernels whose vegen program uses at least one vector
    /// op (NaN-free: `0.0` for an empty run).
    pub fn vectorization_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().filter(|r| r.vectorized).count() as f64 / self.results.len() as f64
    }

    /// The ordered result list as JSON — byte-identical for identical
    /// `(seed, count, shard)` arguments at any thread count.
    pub fn results_json(&self) -> Json {
        Json::Arr(self.results.iter().map(SoakResult::to_json).collect())
    }

    /// The report's `soak` block (since schema v10).
    pub fn soak_json(&self) -> Json {
        let mut shapes: BTreeMap<&str, u64> = BTreeMap::new();
        let mut widths: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.results {
            *shapes.entry(r.shape).or_insert(0) += 1;
            *widths.entry(r.out_ty.clone()).or_insert(0) += 1;
        }
        let minimized = self.results.iter().filter(|r| r.minimized.is_some()).count() as u64;
        Json::obj([
            ("seed", Json::int(self.config.seed)),
            ("count", Json::int(self.config.count)),
            ("shard_index", Json::int(self.config.shard_index)),
            ("shard_count", Json::int(self.config.shard_count)),
            ("trials", Json::int(self.config.trials)),
            ("fault_every", Json::int(self.config.fault_every)),
            ("kernels", Json::int(self.results.len() as u64)),
            ("passed", Json::int(self.count(SoakStatus::Passed))),
            ("degraded", Json::int(self.count(SoakStatus::Degraded))),
            ("faulted", Json::int(self.count(SoakStatus::Faulted))),
            ("diff_failures", Json::int(self.count(SoakStatus::DiffFailed))),
            ("provenance_failures", Json::int(self.count(SoakStatus::ProvenanceFailed))),
            ("aborted", Json::int(self.count(SoakStatus::Aborted))),
            ("unexplained_failures", Json::int(self.unexplained_failures())),
            ("minimized", Json::int(minimized)),
            ("vectorization_rate", Json::Num(self.vectorization_rate())),
            (
                "shapes",
                Json::Obj(shapes.into_iter().map(|(k, v)| (k.to_string(), Json::int(v))).collect()),
            ),
            ("widths", Json::Obj(widths.into_iter().map(|(k, v)| (k, Json::int(v))).collect())),
            ("results", self.results_json()),
        ])
    }
}

/// Which original check a minimization must keep failing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailCheck {
    Diff,
    Provenance,
}

/// Deterministically corrupt a compiled program: drop one store (the
/// instructions that define no register), chosen by the seeded stream. A
/// program with no stores is left untouched.
fn corrupt_program(prog: &mut VmProgram, seed: u64) {
    let stores: Vec<usize> =
        prog.insts.iter().enumerate().filter(|(_, i)| i.def().is_none()).map(|(i, _)| i).collect();
    if stores.is_empty() {
        return;
    }
    let mut rng = XorShift::new(seed);
    prog.insts.remove(stores[rng.below(stores.len())]);
}

/// The differential check for one compiled kernel: all three programs
/// against the scalar interpreter, or — under the planted-miscompile
/// flag — the corrupted vegen program, which *must* be caught.
fn diff_check(
    kernel: &CompiledKernel,
    trials: u64,
    corrupt: Option<u64>,
    index: u64,
) -> Result<(), String> {
    match corrupt {
        None => kernel.verify(trials),
        Some(seed) => {
            let mut prog = kernel.vegen.clone();
            corrupt_program(&mut prog, seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            match vegen::codegen::check_equivalence(&kernel.function, &prog, trials) {
                Err(e) => Err(format!("planted miscompile caught: {e}")),
                Ok(()) => Err("planted miscompile was NOT caught".to_string()),
            }
        }
    }
}

fn provenance_check(kernel: &CompiledKernel) -> Result<(), String> {
    if kernel.analysis.error_count() == 0 {
        Ok(())
    } else {
        Err(format!("provenance audit: {}", kernel.analysis.verdict()))
    }
}

/// Build the seeded fault plan for this shard: every Kth job (1-based
/// within the shard) gets one fault, kind and stage cycling through a
/// stream seeded from the corpus seed. Returns the plan plus the set of
/// targeted kernel names.
fn fault_plan(cfg: &SoakConfig, indices: &[u64]) -> (Vec<FaultSpec>, HashSet<String>) {
    let mut specs = Vec::new();
    let mut names = HashSet::new();
    if cfg.fault_every == 0 {
        return (specs, names);
    }
    let mut rng = XorShift::new(cfg.seed ^ 0x5eed_fa17_5eed_fa17);
    for (ord, &index) in indices.iter().enumerate() {
        if !(ord as u64 + 1).is_multiple_of(cfg.fault_every) {
            continue;
        }
        let name = gen::kernel_name(cfg.seed, index);
        let (stage, kind) = match rng.below(3) {
            0 => (Stage::Selection, FaultKind::Panic),
            1 => (Stage::Selection, FaultKind::Delay(Duration::from_millis(10))),
            _ => (Stage::Lowering, FaultKind::Error),
        };
        names.insert(name.clone());
        specs.push(FaultSpec { kernel: name, stage, kind, once: true });
    }
    (specs, names)
}

/// Write a replayable seed file for a (minimized) failure. The two
/// integers `corpus_seed`/`index` fully reproduce the original kernel;
/// the minimized listing is included for humans.
fn write_seed_file(
    dir: &std::path::Path,
    cfg: &SoakConfig,
    r: &SoakResult,
    listing: &str,
    from_insts: usize,
    insts: usize,
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", r.name));
    let doc = Json::obj([
        ("schema", Json::str("vegen-soak-seed/v1")),
        ("corpus_seed", Json::int(cfg.seed)),
        ("index", Json::int(r.index)),
        ("kernel", Json::str(&r.name)),
        ("shape", Json::str(r.shape)),
        ("trials", Json::int(cfg.trials)),
        ("reason", Json::str(r.status.name())),
        ("detail", Json::str(&r.detail)),
        ("original_insts", Json::int(from_insts as u64)),
        ("minimized_insts", Json::int(insts as u64)),
        ("minimized", Json::str(listing)),
    ]);
    std::fs::write(&path, doc.render_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Run the soak.
///
/// # Errors
///
/// Returns a message on invalid configuration (bad shard spec, zero
/// trials with checks enabled). Per-kernel failures are *results*, not
/// errors — inspect [`SoakReport::unexplained_failures`].
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    if cfg.shard_count == 0 {
        return Err("shard count must be at least 1".into());
    }
    if cfg.shard_index >= cfg.shard_count {
        return Err(format!(
            "shard index {} out of range for {} shard(s)",
            cfg.shard_index, cfg.shard_count
        ));
    }
    if cfg.trials == 0 {
        return Err("soak needs at least one differential trial".into());
    }
    let t0 = Instant::now();
    let indices: Vec<u64> =
        (0..cfg.count).filter(|i| i % cfg.shard_count == cfg.shard_index).collect();

    let (specs, faulted_names) = fault_plan(cfg, &indices);
    metrics::counter("soak_faults_injected").add(specs.len() as u64);
    // The plan is process-global: a run that installs none must not clear
    // another run's when it ends.
    let installed_faults = !specs.is_empty();
    if installed_faults {
        vegen::fault::install(FaultPlan::new(specs));
    }

    let engine = Engine::new(EngineConfig {
        threads: 1,
        // The soak owns verification: the engine's own check would run
        // before the (test-only) corruption and double every diff.
        verify_trials: 0,
        deadline: cfg.deadline,
        cache_dir: cfg.cache_dir.clone(),
        cache_max_bytes: cfg.cache_max_bytes,
        beam_threads: cfg.beam_threads,
        ..EngineConfig::default()
    });
    let pipeline = PipelineConfig {
        target: cfg.target.clone(),
        beam: BeamConfig::with_width(cfg.beam),
        canonicalize_patterns: true,
    };
    // Candidate compiles during minimization go through a separate
    // memory-only engine so reducer candidates never pollute the disk
    // cache or the fault ladder's counters.
    let min_engine = Engine::new(EngineConfig {
        threads: 1,
        verify_trials: 0,
        beam_threads: cfg.beam_threads,
        ..EngineConfig::default()
    });

    let mut results = Vec::with_capacity(indices.len());
    for &index in &indices {
        let g = gen::generate(cfg.seed, index);
        metrics::counter("soak_kernels_total").inc();
        let insts = g.function.insts.len();
        let r = engine.compile_one(&g.function.name, &g.function, &pipeline);
        let faulted = faulted_names.contains(&g.function.name);
        let mut detail = String::new();
        let mut vectorized = false;
        let mut failing: Option<FailCheck> = None;
        let status = match &r.kernel {
            None => {
                detail = r.faults.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
                SoakStatus::Aborted
            }
            Some(k) => {
                vectorized = k.vegen.vector_op_count() > 0;
                if let Err(e) = diff_check(k, cfg.trials, cfg.corrupt_vegen, index) {
                    detail = e;
                    failing = Some(FailCheck::Diff);
                    SoakStatus::DiffFailed
                } else if let Err(e) = provenance_check(k) {
                    detail = e;
                    failing = Some(FailCheck::Provenance);
                    SoakStatus::ProvenanceFailed
                } else if r.rung == Rung::Primary {
                    SoakStatus::Passed
                } else {
                    detail = r.faults.first().map(|e| e.to_string()).unwrap_or_default();
                    if faulted {
                        SoakStatus::Faulted
                    } else {
                        SoakStatus::Degraded
                    }
                }
            }
        };
        match status {
            SoakStatus::DiffFailed => metrics::counter("soak_diff_failures").inc(),
            SoakStatus::ProvenanceFailed => metrics::counter("soak_provenance_failures").inc(),
            SoakStatus::Aborted => metrics::counter("soak_aborted").inc(),
            _ => {}
        }
        let mut result = SoakResult {
            index,
            name: g.function.name.clone(),
            shape: g.shape.name(),
            out_ty: g.out_ty.to_string(),
            insts,
            rung: r.rung.name(),
            status,
            vectorized,
            faulted,
            detail,
            minimized: None,
        };
        if let Some(check) = failing {
            if cfg.minimize {
                let trials = cfg.trials;
                let corrupt = cfg.corrupt_vegen;
                let still_fails = |f: &Function| -> bool {
                    let cr = min_engine.compile_one(&f.name, f, &pipeline);
                    match &cr.kernel {
                        // A candidate that no longer compiles is a
                        // *different* failure; reject the reduction.
                        None => false,
                        Some(k) => match check {
                            FailCheck::Diff => diff_check(k, trials, corrupt, index).is_err(),
                            FailCheck::Provenance => provenance_check(k).is_err(),
                        },
                    }
                };
                let (small, _stats) =
                    vegen_ir::reduce::minimize(&g.function, still_fails, cfg.minimize_budget);
                // The reducer guarantees its result still fails; assert
                // the contract before publishing a reproducer.
                debug_assert!(still_fails(&small));
                metrics::counter("soak_minimized").inc();
                let listing = small.to_string();
                let seed_file = match &cfg.seeds_out {
                    Some(dir) => {
                        match write_seed_file(dir, cfg, &result, &listing, insts, small.insts.len())
                        {
                            Ok(path) => Some(path),
                            Err(e) => {
                                eprintln!("vegen-engine: soak: {e}");
                                None
                            }
                        }
                    }
                    None => None,
                };
                result.minimized = Some(Minimized {
                    from_insts: insts,
                    insts: small.insts.len(),
                    listing,
                    seed_file,
                });
            }
        }
        results.push(result);
    }
    if installed_faults {
        vegen::fault::clear();
    }

    let report = SoakReport { config: cfg.clone(), results, wall: t0.elapsed(), engine };
    metrics::gauge("soak_vectorization_rate").set(report.vectorization_rate());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(count: u64) -> SoakConfig {
        SoakConfig { count, trials: 4, beam: 8, ..SoakConfig::default() }
    }

    #[test]
    fn clean_soak_has_no_unexplained_failures() {
        let report = run_soak(&quick_cfg(40)).unwrap();
        assert_eq!(report.results.len(), 40);
        assert_eq!(report.unexplained_failures(), 0, "{}", report.results_json().render());
        assert!(
            report.results.iter().any(|r| r.vectorized),
            "a vectorizable-biased corpus should vectorize something"
        );
        for r in &report.results {
            assert!(!r.faulted, "no faults were configured");
        }
    }

    #[test]
    fn result_list_is_identical_across_beam_threads() {
        let one = run_soak(&SoakConfig { beam_threads: 1, ..quick_cfg(24) }).unwrap();
        let four = run_soak(&SoakConfig { beam_threads: 4, ..quick_cfg(24) }).unwrap();
        assert_eq!(
            one.results_json().render(),
            four.results_json().render(),
            "soak results must not depend on beam thread count"
        );
    }

    #[test]
    fn shards_partition_the_corpus() {
        let a = run_soak(&SoakConfig { shard_index: 0, shard_count: 2, ..quick_cfg(21) }).unwrap();
        let b = run_soak(&SoakConfig { shard_index: 1, shard_count: 2, ..quick_cfg(21) }).unwrap();
        let mut all: Vec<u64> = a.results.iter().chain(&b.results).map(|r| r.index).collect();
        all.sort_unstable();
        assert_eq!(all, (0..21).collect::<Vec<u64>>(), "shards must partition exactly");
        assert_eq!(a.results.len(), 11);
        assert_eq!(b.results.len(), 10);
    }

    #[test]
    fn injected_faults_degrade_but_never_abort() {
        // A corpus seed of its own: the one-shot faults are keyed by kernel
        // name in a process-wide plan, and the other tests of this module
        // compile seed 42's kernels concurrently.
        let report = run_soak(&SoakConfig { seed: 43, fault_every: 5, ..quick_cfg(30) }).unwrap();
        assert_eq!(report.unexplained_failures(), 0, "{}", report.results_json().render());
        let faulted = report.results.iter().filter(|r| r.faulted).count();
        assert_eq!(faulted, 6, "every 5th of 30 jobs is fault-targeted");
        assert_eq!(report.count(SoakStatus::Aborted), 0);
        // At least the panic/error faults must knock jobs off the
        // primary rung (delay faults without a deadline are harmless).
        assert!(report.count(SoakStatus::Faulted) > 0, "{}", report.results_json().render());
    }

    #[test]
    fn planted_miscompile_is_caught_and_minimized() {
        let dir = std::env::temp_dir().join(format!("vegen-soak-seeds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_soak(&SoakConfig {
            corrupt_vegen: Some(7),
            seeds_out: Some(dir.clone()),
            ..quick_cfg(3)
        })
        .unwrap();
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            assert_eq!(r.status, SoakStatus::DiffFailed, "{}: {}", r.name, r.detail);
            assert!(r.detail.contains("planted"), "{}", r.detail);
            let m = r.minimized.as_ref().expect("failure must be minimized");
            assert!(
                m.insts <= 8,
                "{} minimized to {} insts, want <= 8:\n{}",
                r.name,
                m.insts,
                m.listing
            );
            assert!(m.insts < m.from_insts);
            let path = m.seed_file.as_ref().expect("seed file must be written");
            let text = std::fs::read_to_string(path).unwrap();
            let doc = Json::parse(&text).unwrap();
            assert_eq!(doc.get("schema").unwrap().as_str(), Some("vegen-soak-seed/v1"));
            assert_eq!(doc.get("corpus_seed").unwrap().as_f64(), Some(42.0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_shard_spec_is_rejected() {
        assert!(run_soak(&SoakConfig { shard_count: 0, ..quick_cfg(1) }).is_err());
        assert!(run_soak(&SoakConfig { shard_index: 2, shard_count: 2, ..quick_cfg(1) }).is_err());
        assert!(run_soak(&SoakConfig { trials: 0, ..quick_cfg(1) }).is_err());
    }
}
