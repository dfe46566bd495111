//! `offline_build`: the generator half of "vectorizer generator".
//!
//! One pass builds every instruction spec from pseudocode (parse, symbolic
//! evaluation, simplification, lifting to VIDL, validation), then for each
//! of SSE4, AVX2 and AVX512-VNNI builds the target description and audits
//! it. No kernel, beam or engine code runs in the timed section, so a
//! change to the online phase should not move this workload's timings.
//!
//! What the pass produced is then *used*, untimed: the paper suite is
//! vectorized at beam width 1 against the freshly built AVX2 description
//! and checked against the scalar interpreter — the product of the
//! offline phase is a working vectorizer, or the run is incorrect.

use crate::common::{shuffled, PassClock, RunOpts, RunResult, Timings, SETUP_REPS};
use crate::layers::{compile_layered, defs_for, pipeline, set_quality_metrics, suite_kernels};
use crate::meta::Metrics;
use crate::spans::{median_over_passes, Tracer};
use crate::stats::median;
use std::time::Instant;
use vegen_analysis::speccheck::{check_database, SpecCheckReport};
use vegen_core::BeamConfig;
use vegen_isa::specs::{all_specs, Spec};
use vegen_isa::{InstDb, InstDef, TargetIsa};
use vegen_match::TargetDesc;
use vegen_pseudo::{
    eval_program, lift_to_vidl, parse_program, simplify::simplify, validate_description,
};
use vegen_trace::json::Json;
use vegen_vidl::{check_inst, inst_text, parse_inst};

const SMOKE_SPECS: usize = 36;
const SMOKE_KERNELS: usize = 4;

/// The specs and targets of one pass. At smoke size: SSE4 only, from the
/// first few specs SSE4 can use.
fn inputs(smoke: bool) -> (Vec<Spec>, Vec<TargetIsa>) {
    if smoke {
        let sse4 = TargetIsa::sse4();
        let specs = all_specs()
            .iter()
            .filter(|s| sse4.has(s.ext) && s.bits <= sse4.max_bits)
            .take(SMOKE_SPECS)
            .cloned()
            .collect();
        (specs, vec![sse4])
    } else {
        (all_specs().to_vec(), vec![TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()])
    }
}

fn specs_for(specs: &[Spec], target: &TargetIsa) -> Vec<Spec> {
    specs.iter().filter(|s| target.has(s.ext) && s.bits <= target.max_bits).cloned().collect()
}

/// What must repeat exactly from pass to pass: rules, ops, and per target
/// the lanes proved and validated.
type PassShape = (usize, usize, Vec<(usize, usize)>);

/// What one pass built, for the checks after it.
struct Built {
    /// AVX2's description when the pass built it, otherwise the last one.
    desc: TargetDesc,
    rules: usize,
    ops: usize,
    reports: Vec<SpecCheckReport>,
}

/// The per-target half of a pass; `tr` records a span per layer call.
fn build_targets(
    tr: &mut Tracer,
    specs: &[Spec],
    defs: &[InstDef],
    targets: &[TargetIsa],
) -> Built {
    let mut built: Option<Built> = None;
    for target in targets {
        let db: InstDb = defs_for(defs, target);
        let desc = tr.timed("match.target_desc_build", || TargetDesc::build(&db, true));
        let report = tr.timed("analysis.speccheck", || {
            check_database(&target.name, &specs_for(specs, target), &db, true)
        });
        let (rules, ops) = (desc.insts.len(), desc.ops.len());
        match &mut built {
            Some(b) => {
                b.rules += rules;
                b.ops += ops;
                b.reports.push(report);
                if target.name == "AVX2" {
                    b.desc = desc;
                }
            }
            None => built = Some(Built { desc, rules, ops, reports: vec![report] }),
        }
    }
    built.expect("a pass has at least one target")
}

/// One untraced pass: every spec through `Spec::build`, then the targets.
/// Returns the build failures alongside what was built.
fn untraced_pass(
    order: &[usize],
    specs: &[Spec],
    targets: &[TargetIsa],
    op_ms: &mut Vec<f64>,
) -> (Built, Vec<String>) {
    let mut defs: Vec<Option<InstDef>> = vec![None; specs.len()];
    let mut failures = Vec::new();
    for &i in order {
        let t = Instant::now();
        let def = specs[i].build();
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match def {
            Ok(d) => defs[i] = Some(d),
            Err(e) => failures.push(format!("spec {}: {e}", specs[i].name)),
        }
    }
    let defs: Vec<InstDef> = defs.into_iter().flatten().collect();
    (build_targets(&mut Tracer::off(), specs, &defs, targets), failures)
}

/// `Spec::build`, step by step with a span per step (the body of
/// `vegen_pseudo::translate`). Also returns the formula sizes before and
/// after simplification.
fn build_spec_layered(tr: &mut Tracer, spec: &Spec) -> Result<(InstDef, usize, usize), String> {
    let inputs: Vec<(&str, u32)> = spec.inputs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    let root = tr.enter("op");
    let steps = (|| {
        let program = tr
            .timed("pseudo.parse", || parse_program(&spec.pseudocode))
            .map_err(|e| e.to_string())?;
        let raw = tr
            .timed("pseudo.eval", || eval_program(&program, &inputs, spec.bits, spec.fp))
            .map_err(|e| e.to_string())?;
        let formula = tr.timed("pseudo.simplify", || simplify(&raw));
        let sem = tr
            .timed("pseudo.lift", || {
                lift_to_vidl(&spec.name, &inputs, spec.out_elem_bits, spec.fp, &formula)
            })
            .map_err(|e| e.to_string())?;
        tr.timed("vidl.check", || check_inst(&sem)).map_err(|e| e.to_string())?;
        tr.timed("pseudo.validate", || validate_description(&formula, &inputs, &sem, 64))?;
        Ok::<_, String>((sem, raw.size(), formula.size()))
    })();
    tr.exit(root);
    let (sem, raw_nodes, nodes) = steps.map_err(|e| format!("spec {}: {e}", spec.name))?;
    let def = InstDef {
        name: spec.name.clone(),
        asm: spec.asm.clone(),
        ext: spec.ext,
        bits: spec.bits,
        cost: 2.0 * spec.inv_throughput,
        sem,
    };
    Ok((def, raw_nodes, nodes))
}

/// Vectorize paper kernels at beam width 1 against `desc`, set the exact
/// quality metrics from the result, and return what went wrong.
fn use_the_vectorizer(desc: &TargetDesc, smoke: bool, metrics: &mut Metrics) -> Vec<String> {
    let kernels = suite_kernels(smoke.then_some(SMOKE_KERNELS));
    let mut cfg = pipeline();
    cfg.beam = BeamConfig { beam_threads: 1, ..BeamConfig::slp() };
    let mut tr = Tracer::off();
    let (mut compiled, mut failures) = (Vec::new(), Vec::new());
    for f in &kernels {
        match compile_layered(&mut tr, f, desc, &cfg) {
            Ok(l) => {
                if let Some(e) = &l.verify_error {
                    failures.push(format!("{}: {e}", f.name));
                }
                compiled.push(l);
            }
            Err(e) => failures.push(e),
        }
    }
    set_quality_metrics(metrics, compiled.iter().map(|l| (&l.baseline, &l.vegen)));
    failures
}

fn audit_violations(built: &Built, pass: u32, violations: &mut Vec<String>) -> u64 {
    let mut unclean = 0;
    for r in built.reports.iter().filter(|r| !r.is_clean()) {
        unclean += 1;
        violations.push(format!("pass {pass}: {}", r.verdict()));
    }
    unclean
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let (specs, targets) = inputs(opts.smoke);
    // Set-up is a warm-up pass: allocator and page cache reach steady
    // state before anything is timed.
    let mut timings = Timings::default();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let order = shuffled(opts.seed, u64::MAX - rep as u64, specs.len());
        std::hint::black_box(untraced_pass(&order, &specs, &targets, &mut Vec::new()));
        timings.setup_s.push(t.elapsed().as_secs_f64());
    }
    if opts.trace {
        return run_traced(opts, &specs, &targets);
    }

    let mut metrics = Metrics::end_to_end();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut first: Option<PassShape> = None;
    let mut clock = PassClock::start(opts);
    while let Some(pass) = clock.next_pass() {
        let order = shuffled(opts.seed, u64::from(pass), specs.len());
        let t = Instant::now();
        let (built, failures) = untraced_pass(&order, &specs, &targets, &mut timings.op_ms);
        timings.end_pass(t.elapsed().as_secs_f64());

        attempted += (specs.len() + targets.len()) as u64;
        failed += failures.len() as u64 + audit_violations(&built, pass, &mut violations);
        violations.extend(failures);
        let shape = (
            built.rules,
            built.ops,
            built.reports.iter().map(|r| (r.lanes_proved, r.lanes_validated)).collect(),
        );
        match &first {
            None => {
                violations.extend(use_the_vectorizer(&built.desc, opts.smoke, &mut metrics));
                first = Some(shape);
            }
            Some(expected) if *expected != shape => {
                violations
                    .push(format!("pass {pass}: match tables or audit counts differ from pass 0"));
            }
            Some(_) => {}
        }
    }
    let detail = timings.report(&mut metrics);
    violations.truncate(20);
    Ok(RunResult { attempted, failed, violations, metrics, detail, trace_events: Vec::new() })
}

fn run_traced(opts: &RunOpts, specs: &[Spec], targets: &[TargetIsa]) -> Result<RunResult, String> {
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut untraced_pass_s = Vec::new();
    let mut violations = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut raw_nodes, mut nodes, mut built_specs) = (0, 0, 0);
    let mut last: Option<Built> = None;
    let mut clock = PassClock::start(opts);
    while let Some(pass) = clock.next_pass() {
        let order = shuffled(opts.seed, u64::from(pass), specs.len());
        let t = Instant::now();
        std::hint::black_box(untraced_pass(&order, specs, targets, &mut Vec::new()));
        untraced_pass_s.push(t.elapsed().as_secs_f64());

        (raw_nodes, nodes, built_specs) = (0, 0, 0);
        let mut defs: Vec<Option<InstDef>> = vec![None; specs.len()];
        for &i in &order {
            tr.set_op(pass, i as u64);
            attempted += 1;
            match build_spec_layered(&mut tr, &specs[i]) {
                Ok((def, raw, simplified)) => {
                    raw_nodes += raw;
                    nodes += simplified;
                    built_specs += 1;
                    // The layered replica must stay the product's build,
                    // and the description must survive its own syntax.
                    if pass == 0 && specs[i].build().ok().map(|d| d.sem) != Some(def.sem.clone()) {
                        failed += 1;
                        violations.push(format!(
                            "spec {}: layered build differs from Spec::build",
                            def.name
                        ));
                    }
                    let reparsed = tr.timed("vidl.roundtrip", || parse_inst(&inst_text(&def.sem)));
                    if reparsed.ok().as_ref() != Some(&def.sem) {
                        failed += 1;
                        violations
                            .push(format!("spec {}: VIDL text does not round-trip", def.name));
                    }
                    defs[i] = Some(def);
                }
                Err(e) => {
                    failed += 1;
                    violations.push(e);
                }
            }
        }
        let defs: Vec<InstDef> = defs.into_iter().flatten().collect();
        tr.set_op(pass, specs.len() as u64);
        let built = build_targets(&mut tr, specs, &defs, targets);
        attempted += targets.len() as u64;
        failed += audit_violations(&built, pass, &mut violations);
        last = Some(built);
    }

    let mut m = Metrics::per_layer();
    let own = tr.self_sums_by_pass();
    let total = tr.total_sums_by_pass();
    for (span, metric) in [
        ("pseudo.parse", "pseudo.parse_us"),
        ("pseudo.eval", "pseudo.eval_us"),
        ("pseudo.simplify", "pseudo.simplify_us"),
        ("pseudo.lift", "pseudo.lift_us"),
        ("pseudo.validate", "pseudo.validate_us"),
        ("vidl.check", "vidl.check_us"),
        ("vidl.roundtrip", "vidl.roundtrip_us"),
    ] {
        m.set(metric, median_over_passes(&own, span));
    }
    let spec_build_us = median_over_passes(&total, "op");
    m.set("isa.spec_build_ms", spec_build_us / 1e3);
    m.set("isa.specs_built", built_specs as f64);
    m.set("pseudo.formula_nodes_raw", raw_nodes as f64);
    m.set("pseudo.formula_nodes_simplified", nodes as f64);
    m.set("match.target_desc_build_ms", median_over_passes(&own, "match.target_desc_build") / 1e3);
    m.set("analysis.speccheck_ms", median_over_passes(&own, "analysis.speccheck") / 1e3);
    if let Some(built) = &last {
        m.set("match.rules", built.rules as f64);
        m.set("match.ops", built.ops as f64);
        m.set(
            "analysis.spec_lanes_proved",
            built.reports.iter().map(|r| r.lanes_proved).sum::<usize>() as f64,
        );
        m.set(
            "analysis.spec_lanes_validated",
            built.reports.iter().map(|r| r.lanes_validated).sum::<usize>() as f64,
        );
    }
    let traced_pass_us = spec_build_us
        + median_over_passes(&own, "match.target_desc_build")
        + median_over_passes(&own, "analysis.speccheck");
    m.set(
        "bench.trace_overhead_frac",
        traced_pass_us / 1e6 / median(&untraced_pass_s).max(f64::MIN_POSITIVE) - 1.0,
    );

    violations.truncate(20);
    let detail = Json::obj([
        ("traced_passes", Json::int(own.len() as u64)),
        ("untraced_pass_s", Json::Num(median(&untraced_pass_s))),
        ("traced_pass_s", Json::Num(traced_pass_us / 1e6)),
    ]);
    Ok(RunResult {
        attempted,
        failed,
        violations,
        metrics: m,
        detail,
        trace_events: tr.chrome_events(2),
    })
}
