//! Observability integration tests: verification-failure reporting, the
//! v11 report shape, trace capture across the engine's layers, the
//! decision log, and the `diff`/`explain`/`lint` subcommands (library and
//! binary).

use std::sync::Arc;
use vegen::driver::{compile, PipelineConfig};
use vegen_core::BeamConfig;
use vegen_engine::cli::{diff_reports, failing_kernels, main_with_args, DiffConfig};
use vegen_engine::json::Json;
use vegen_engine::report;
use vegen_engine::{Engine, EngineConfig, Job};
use vegen_isa::TargetIsa;
use vegen_vm::listing;

fn pipeline(width: usize) -> PipelineConfig {
    PipelineConfig {
        target: TargetIsa::avx2(),
        beam: BeamConfig::with_width(width),
        canonicalize_patterns: true,
    }
}

fn jobs_for(names: &[&str], pipeline: &PipelineConfig) -> Vec<Job> {
    names
        .iter()
        .map(|n| {
            let k = vegen_kernels::find(n).unwrap_or_else(|| panic!("kernel {n} must exist"));
            Job::new(k.name, (k.build)(), pipeline.clone())
        })
        .collect()
}

fn small_report(decisions: bool) -> Json {
    let engine = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() });
    let mut pipeline = pipeline(4);
    pipeline.beam.log_decisions = decisions;
    let jobs = jobs_for(&["pmaddwd", "int32x8", "hadd_i16"], &pipeline);
    let t0 = std::time::Instant::now();
    let results = engine.compile_batch(&jobs);
    report::report_json(
        &engine,
        &pipeline.target,
        pipeline.beam.width,
        4,
        vec![report::run_json("cold", t0.elapsed(), &results)],
        None,
        None,
    )
}

/// Two functions with identical buffer layouts but different semantics
/// (lane-wise add vs mul), so grafting one's program onto the other is a
/// genuine, runnable wrong answer.
fn lanewise(name: &str, mul: bool) -> vegen_ir::Function {
    let mut b = vegen_ir::FunctionBuilder::new(name);
    let a = b.param("A", vegen_ir::Type::I32, 8);
    let bb = b.param("B", vegen_ir::Type::I32, 8);
    let c = b.param("C", vegen_ir::Type::I32, 8);
    for i in 0..8i64 {
        let x = b.load(a, i);
        let y = b.load(bb, i);
        let r = if mul { b.mul(x, y) } else { b.add(x, y) };
        b.store(c, i, r);
    }
    b.finish()
}

#[test]
fn verification_failure_is_surfaced_with_kernel_name() {
    // A genuine failure: graft the mul kernel's vectorized program onto
    // the add kernel — equivalence checking must catch the divergence.
    let mut ck_add = compile(&lanewise("vadd", false), &pipeline(4));
    let ck_mul = compile(&lanewise("vmul", true), &pipeline(4));
    assert!(ck_add.verify(8).is_ok());
    ck_add.vegen = ck_mul.vegen;
    let err = ck_add.verify(8).expect_err("foreign program must fail verification");
    assert!(err.contains("vegen"), "failure must name the diverging program: {err}");

    // The engine surfaces failures per job; `failing_kernels` is the list
    // the suite prints to stderr (exiting nonzero) — check it selects
    // exactly the failed job, by name.
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 4, ..Default::default() });
    let results = engine.compile_batch(&jobs_for(&["pmaddwd", "int32x8"], &pipeline(4)));
    assert!(failing_kernels(&results).is_empty());
    let mut results = results;
    results[1].verify_error = Some(err);
    assert_eq!(failing_kernels(&results), vec!["int32x8".to_string()]);
}

/// The member names of a JSON object, in order.
fn members(j: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = j else { panic!("not an object: {j:?}") };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

fn run_binary(args: &[&str], stdin: &str) -> String {
    use std::io::Write;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary must run");
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    let output = child.wait_with_output().unwrap();
    assert_eq!(output.status.code(), Some(0), "{args:?}");
    String::from_utf8(output.stdout).unwrap()
}

/// One rendering of a compile result: the serve `compile` response is the
/// report's kernel row without `detail`, and the suite report and the
/// `lint` artifact are one document. Every member name is pinned here, so
/// a new member is a reviewed one-line diff.
#[test]
fn report_v11_shape_is_pinned() {
    const TOP: [&str; 14] = [
        "schema",
        "target",
        "beam_width",
        "threads",
        "beam_threads",
        "verify_trials",
        "runs",
        "cache",
        "disk",
        "counters",
        "trace",
        "metrics",
        "match_table",
        "soak",
    ];
    const RUN: [&str; 3] = ["label", "wall_us", "kernels"];
    const RESULT: [&str; 12] = [
        "name",
        "corr",
        "rung",
        "cache",
        "hash",
        "failed",
        "faults",
        "wall_us",
        "verify_error",
        "cycles",
        "speedup_baseline",
        "speedup_scalar",
    ];
    const DETAIL: [&str; 7] = [
        "states_expanded",
        "beam",
        "packs_committed",
        "vegen_ops",
        "stage_times",
        "analysis",
        "decisions",
    ];
    const BEAM: [&str; 13] = [
        "transitions",
        "dedup_hits",
        "hash_collisions",
        "producer_cache_hits",
        "producer_cache_misses",
        "interned_operands",
        "interned_packs",
        "beam_wall_us",
        "workers",
        "fanouts",
        "merge_wall_us",
        "freeze_wall_us",
        "frozen_reused",
    ];
    const COUNTERS: [&str; 17] = [
        "states_expanded",
        "transitions",
        "dedup_hits",
        "producer_cache_hits",
        "producer_cache_misses",
        "packs_committed",
        "compilations",
        "analyses",
        "analysis_errors",
        "failures",
        "retries",
        "degradations",
        "deadline_hits",
        "disk_hits",
        "disk_stores",
        "cache_io_errors",
        "frozen_reuses",
    ];
    let row: Vec<&str> = RESULT.iter().chain(&["detail"]).copied().collect();
    let pmaddwd_row = |doc: &Json| -> Json {
        assert_eq!(members(doc), TOP);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(report::SCHEMA));
        assert_eq!(members(doc.get("counters").unwrap()), COUNTERS);
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(members(run), RUN);
        let kernels = run.get("kernels").unwrap().as_arr().unwrap();
        let pmaddwd = |k: &&Json| k.get("name").and_then(Json::as_str) == Some("pmaddwd");
        let kernel = kernels.iter().find(pmaddwd).expect("a pmaddwd row").clone();
        assert_eq!(members(&kernel), row);
        let detail = kernel.get("detail").unwrap();
        assert_eq!(members(detail), DETAIL);
        assert_eq!(members(detail.get("beam").unwrap()), BEAM);
        kernel
    };

    // The suite report (render → parse is lossless, pretty or compact).
    let doc = small_report(true);
    assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    let suite_row = pmaddwd_row(&doc);

    // The lint artifact.
    let dir = std::env::temp_dir().join(format!("vegen-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("lint.json");
    run_binary(&["lint", "--beam", "1", "--out", out.to_str().unwrap()], "");
    pmaddwd_row(&Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap());
    std::fs::remove_dir_all(&dir).ok();

    // The serve response: the row without `detail`, value for value.
    let stdout = run_binary(
        &["serve", "--stdio", "--beam", "4"],
        "{\"op\":\"compile\",\"id\":1,\"kernel\":\"pmaddwd\"}\n",
    );
    let response = Json::parse(stdout.trim()).unwrap();
    let result = response.get("result").unwrap();
    assert_eq!(members(result), RESULT);
    // Beside `detail`, only what is particular to one compile differs (the
    // suite's run logged decisions, which keys it to another address).
    let shared = |j: &Json| {
        let Json::Obj(pairs) = j else { unreachable!() };
        let own = |k: &str| matches!(k, "corr" | "wall_us" | "cache" | "hash" | "detail");
        pairs.iter().filter(|(k, _)| !own(k)).cloned().collect::<Vec<_>>()
    };
    assert_eq!(shared(result), shared(&suite_row));
}

#[test]
fn decision_summaries_are_absent_without_the_flag() {
    let doc = small_report(false);
    let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    for kernel in run.get("kernels").unwrap().as_arr().unwrap() {
        assert_eq!(kernel.get("detail").unwrap().get("decisions"), Some(&Json::Null));
    }
}

#[test]
fn diff_of_identical_reports_is_clean_and_regressions_are_caught() {
    let doc = small_report(false);
    let (regressions, _) = diff_reports(&doc, &doc, &DiffConfig::default()).unwrap();
    assert!(regressions.is_empty(), "a report must not regress against itself: {regressions:?}");

    // Worsen one kernel's cycles by 10% — past the 2% default threshold.
    let mut worse = doc.clone();
    bump_first_kernel_cycles(&mut worse, 1.10);
    let (regressions, _) = diff_reports(&doc, &worse, &DiffConfig::default()).unwrap();
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].what.contains("cycles.vegen"));

    // The same delta passes under a looser threshold.
    let cfg = DiffConfig { max_regress_pct: 15.0, ..Default::default() };
    let (regressions, _) = diff_reports(&doc, &worse, &cfg).unwrap();
    assert!(regressions.is_empty());

    // Counter growth is informational by default, gating under strict.
    let mut churn = doc.clone();
    bump_first_kernel_states(&mut churn, 3.0);
    let (regressions, info) = diff_reports(&doc, &churn, &DiffConfig::default()).unwrap();
    assert!(regressions.is_empty());
    assert!(info.iter().any(|l| l.contains("states_expanded")), "{info:?}");
    let strict = DiffConfig { strict_counters: true, ..Default::default() };
    let (regressions, _) = diff_reports(&doc, &churn, &strict).unwrap();
    assert!(!regressions.is_empty());

    // A kernel disappearing is always a regression.
    let mut missing = doc.clone();
    drop_first_kernel(&mut missing);
    let (regressions, _) = diff_reports(&doc, &missing, &DiffConfig::default()).unwrap();
    assert!(regressions.iter().any(|r| r.what.contains("missing")), "{regressions:?}");

    // So is a kernel that compiled before and fails now: its row has no
    // cycles or speedups to compare.
    let mut failing = doc.clone();
    with_first_kernel(&mut failing, |kernels| {
        let Json::Obj(row) = &mut kernels[0] else { panic!() };
        row.retain(|(k, _)| {
            !matches!(k.as_str(), "cycles" | "speedup_baseline" | "speedup_scalar")
        });
        row.iter_mut().find(|(k, _)| k == "failed").unwrap().1 = Json::Bool(true);
    });
    let (regressions, _) = diff_reports(&doc, &failing, &DiffConfig::default()).unwrap();
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].what.contains("failed"), "{regressions:?}");

    // Only engine reports diff: the retired suite-bench schema is refused.
    let mut foreign = doc.clone();
    let Json::Obj(top) = &mut foreign else { panic!("report is an object") };
    top.iter_mut().find(|(k, _)| k == "schema").unwrap().1 = Json::str("vegen-bench-suite/v1");
    let err = diff_reports(&doc, &foreign, &DiffConfig::default()).unwrap_err();
    assert!(err.contains("unrecognized schema"), "{err}");
}

fn with_first_kernel(doc: &mut Json, f: impl FnOnce(&mut Vec<Json>)) {
    let Json::Obj(top) = doc else { panic!("report is an object") };
    let runs = &mut top.iter_mut().find(|(k, _)| k == "runs").unwrap().1;
    let Json::Arr(runs) = runs else { panic!() };
    let Json::Obj(run) = &mut runs[0] else { panic!() };
    let kernels = &mut run.iter_mut().find(|(k, _)| k == "kernels").unwrap().1;
    let Json::Arr(kernels) = kernels else { panic!() };
    f(kernels);
}

/// Scale the number at `path` (member names from the row down) in the
/// first kernel row.
fn bump_first_kernel(doc: &mut Json, path: &[&str], factor: f64) {
    with_first_kernel(doc, |kernels| {
        let mut v = &mut kernels[0];
        for key in path {
            let Json::Obj(pairs) = v else { panic!("{key}: not an object") };
            v = &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let Json::Num(n) = v else { panic!() };
        *n *= factor;
    });
}

fn bump_first_kernel_cycles(doc: &mut Json, factor: f64) {
    bump_first_kernel(doc, &["cycles", "vegen"], factor);
}

fn bump_first_kernel_states(doc: &mut Json, factor: f64) {
    bump_first_kernel(doc, &["detail", "states_expanded"], factor);
}

fn drop_first_kernel(doc: &mut Json) {
    with_first_kernel(doc, |kernels| {
        kernels.remove(0);
    });
}

/// The trace session is process-global; the tests that toggle it must not
/// interleave.
static TRACE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn trace_session_captures_all_three_layers_without_perturbing_codegen() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let batch_names = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];
    // Reference run, tracing off.
    let plain = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() })
        .compile_batch(&jobs_for(&batch_names, &pipeline(4)));

    vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    let traced = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() })
        .compile_batch(&jobs_for(&batch_names, &pipeline(4)));
    let data = vegen_trace::drain();
    vegen_trace::disable();

    // Observation only: identical programs with tracing on.
    for (p, t) in plain.iter().zip(&traced) {
        let (pk, tk) = (p.kernel.as_deref().unwrap(), t.kernel.as_deref().unwrap());
        assert_eq!(listing(&pk.vegen), listing(&tk.vegen), "{}", p.name);
        assert_eq!(p.hash, t.hash);
    }

    // All three instrumented layers show up.
    let events: Vec<_> = data.threads.iter().flat_map(|t| &t.events).collect();
    let has = |cat: &str, name: &str| events.iter().any(|e| e.cat == cat && e.name == name);
    assert!(has("driver", "selection") && has("driver", "lowering"), "driver stage spans");
    assert!(has("engine", "cache_miss") && has("engine", "verify"), "engine cache/verify events");
    assert!(has("pool", "job"), "pool job spans");
    assert!(has("beam", "select_packs") && has("beam", "frontier"), "beam spans + counters");

    // Both exports are well-formed.
    let chrome = vegen_trace::export::chrome_trace(&data);
    let reparsed = Json::parse(&chrome.render()).unwrap();
    assert!(!reparsed.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    let folded = vegen_trace::export::folded_stacks(&data);
    assert!(
        folded.lines().any(|l| l.contains("select_packs")),
        "folded stacks must contain beam frames:\n{folded}"
    );
}

#[test]
fn every_miss_traces_each_driver_stage_once_inside_its_job_span() {
    use vegen::error::Stage;
    use vegen_trace::{EventKind, TraceEvent};
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() });
    let names = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];

    vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    let cold = engine.compile_batch(&jobs_for(&names, &pipeline(4)));
    let warm = engine.compile_batch(&jobs_for(&names, &pipeline(4)));
    let data = vegen_trace::drain();
    vegen_trace::disable();
    assert_eq!(data.dropped(), 0);

    // The driver-category spans recorded on `job`'s thread within its
    // `job:<name>#<corr>` span, in the order they closed.
    let driver_spans_of = |job: &vegen_engine::JobResult| -> Vec<String> {
        let interval = |e: &TraceEvent| match e.kind {
            EventKind::Span { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
            _ => None,
        };
        let label = format!("job:{}#{}", job.name, job.corr);
        let (thread, (start, end)) = data
            .threads
            .iter()
            .find_map(|t| Some((t, interval(t.events.iter().find(|e| e.name == label.as_str())?)?)))
            .unwrap_or_else(|| panic!("{label} has a span"));
        thread
            .events
            .iter()
            .filter(|e| e.cat == "driver")
            .filter(|e| interval(e).is_some_and(|(s, t)| start <= s && t <= end))
            .map(|e| e.name.to_string())
            .collect()
    };
    // Every stage the driver runs, canonicalize included, then its verify:
    // `Stage::ALL` without the two service stages.
    let want: Vec<&str> = Stage::ALL
        .into_iter()
        .filter(|s| !matches!(s, Stage::Admission | Stage::Cache))
        .map(Stage::name)
        .collect();
    for (miss, hit) in cold.iter().zip(&warm) {
        assert!(!miss.cache_hit && hit.cache_hit, "{}", miss.name);
        assert_eq!(driver_spans_of(miss), want, "{}", miss.name);
        // A hit still canonicalizes — the content address is a hash of
        // the canonical form — and runs nothing after it.
        assert_eq!(driver_spans_of(hit), want[..1], "{}", hit.name);
    }
}

#[test]
fn explain_subcommand_exits_clean_and_rejects_unknown_kernels() {
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(main_with_args(&args(&["explain", "pmaddwd", "--beam", "4"])), 0);
    assert_eq!(main_with_args(&args(&["explain", "no-such-kernel"])), 2);
    assert_eq!(main_with_args(&args(&["explain"])), 2);
}

/// `explain` ends with the generated program: idct4 at beam 128 on
/// AVX512-VNNI prints Fig. 12's shuffle-fed `vpmaddwd` and saturating
/// `vpackssdw`.
#[test]
fn explain_prints_the_generated_program() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["explain", "idct4", "--target", "avx512vnni", "--beam", "128"])
        .output()
        .expect("binary must run");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let program = &stdout[stdout.find("\n; idct4 (").expect("a listing") + 1..];
    for op in ["vpmaddwd", "vpackssdw"] {
        assert!(program.lines().any(|l| l.trim_start().starts_with(op)), "{op}:\n{program}");
    }
}

/// `explain` says which canonicalizer rows fired: idct4 stores
/// `trunc(clamp(…))`, so the truncation sinks into the clamp's selects.
#[test]
fn explain_names_the_canonicalizer_rows_that_fired() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["explain", "idct4", "--beam", "1"])
        .output()
        .expect("binary must run");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let canon = stdout.lines().find(|l| l.starts_with("canon: ")).expect("a canon line");
    assert!(canon.contains("trunc_sink ×") && canon.ends_with("passes)"), "{canon}");
}

#[test]
fn check_specs_subcommand_gates_on_corruption() {
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    // The in-tree chain audits clean; a corrupted database gates with
    // exit 1; a bogus corruption kind is a usage error.
    assert_eq!(main_with_args(&args(&["check-specs", "--target", "sse4"])), 0);
    assert_eq!(
        main_with_args(&args(&["check-specs", "--target", "sse4", "--corrupt", "neg-cost"])),
        1
    );
    assert_eq!(main_with_args(&args(&["check-specs", "--corrupt", "bogus"])), 2);
}

#[test]
fn diff_binary_reports_exit_codes() {
    let dir = std::env::temp_dir().join(format!("vegen-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = small_report(false);
    let old = dir.join("old.json");
    std::fs::write(&old, doc.render_pretty()).unwrap();
    let mut worse_doc = doc.clone();
    bump_first_kernel_cycles(&mut worse_doc, 1.5);
    let worse = dir.join("worse.json");
    std::fs::write(&worse, worse_doc.render_pretty()).unwrap();

    let run = |a: &std::path::Path, b: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
            .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
            .output()
            .expect("binary must run")
    };
    let same = run(&old, &old);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stdout));
    assert!(String::from_utf8_lossy(&same.stdout).contains("no regressions"));

    let regressed = run(&old, &worse);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSION"));

    let bad = run(&old, &dir.join("does-not-exist.json"));
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_cache_arc_survives_decision_logging() {
    // log_decisions is part of the content hash (it rides in BeamConfig's
    // Debug form), so logged and unlogged runs must not collide in the
    // cache.
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 0, ..Default::default() });
    let mut logged = pipeline(4);
    logged.beam.log_decisions = true;
    let a = engine.compile_batch(&jobs_for(&["pmaddwd"], &pipeline(4)));
    let b = engine.compile_batch(&jobs_for(&["pmaddwd"], &logged));
    assert_ne!(a[0].hash, b[0].hash, "configs differ, addresses must differ");
    assert!(!Arc::ptr_eq(a[0].kernel.as_ref().unwrap(), b[0].kernel.as_ref().unwrap()));
    let (ak, bk) = (a[0].kernel.as_deref().unwrap(), b[0].kernel.as_deref().unwrap());
    assert!(bk.selection.decisions.is_some());
    assert!(ak.selection.decisions.is_none());
    // Identical generated code either way.
    assert_eq!(listing(&ak.vegen), listing(&bk.vegen));
}

#[test]
fn lint_subcommand_gates_and_writes_artifact() {
    let dir = std::env::temp_dir().join(format!("vegen-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("lint.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["lint", "--beam", "4", "--out", out.to_str().unwrap()])
        .output()
        .expect("binary must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "lint must pass on the suite:\n{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(report::SCHEMA));
    let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    let kernels = run.get("kernels").unwrap().as_arr().unwrap();
    assert_eq!(kernels.len(), vegen_kernels::all().len());
    for k in kernels {
        assert_eq!(k.get("failed"), Some(&Json::Bool(false)), "{k:?}");
        let errors = k.get("detail").and_then(|d| d.get("analysis")?.get("errors"));
        assert_eq!(errors.and_then(Json::as_f64), Some(0.0), "{k:?}");
    }
    // Bad usage still exits 2.
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["lint", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Help is generated from the command table, so every subcommand has it
/// and it names exactly the flags that subcommand takes.
#[test]
fn every_subcommand_has_help_that_lists_its_own_flags_and_no_others() {
    use vegen_engine::cli::{usage, COMMANDS};
    for cmd in COMMANDS {
        for help in ["--help", "-h"] {
            let args: Vec<String> =
                [cmd.name, help].iter().filter(|s| !s.is_empty()).map(|s| s.to_string()).collect();
            assert_eq!(main_with_args(&args), 0, "{args:?}");
        }
        let text = usage(cmd.name).expect("every row has usage text");
        let mentioned: std::collections::BTreeSet<&str> = text
            .split(|c: char| !(c == '-' || c.is_ascii_alphanumeric()))
            .filter(|word| word.starts_with("--"))
            .collect();
        let visible: std::collections::BTreeSet<&str> =
            cmd.flags.iter().filter(|f| !f.hidden).map(|f| f.name).collect();
        assert_eq!(mentioned, visible, "usage of {:?}:\n{text}", cmd.name);
    }
    assert_eq!(usage("no-such-subcommand"), None);
}
