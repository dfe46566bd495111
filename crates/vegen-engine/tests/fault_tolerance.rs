//! Fault-injection tests of the engine's degradation ladder: injected
//! panics, errors, and deadline-tripping delays must degrade single jobs
//! — never abort a batch, never reorder it, never change the programs of
//! non-faulted kernels.

use std::sync::Mutex;
use std::time::Duration;
use vegen::driver::PipelineConfig;
use vegen::error::Stage;
use vegen::fault::{self, FaultKind, FaultPlan, FaultSpec};
use vegen_core::BeamConfig;
use vegen_engine::{Engine, EngineConfig, Job, Rung};
use vegen_isa::TargetIsa;
use vegen_vm::listing;

/// Fault plans are process-global, so every test that installs one must
/// hold this gate (tests in one binary run on parallel threads).
static FAULT_GATE: Mutex<()> = Mutex::new(());

/// Install `plan`, run `body`, and always clear the plan afterwards.
fn with_plan<R>(plan: FaultPlan, body: impl FnOnce() -> R) -> R {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(plan);
    let result = body();
    fault::clear();
    result
}

const BATCH: [&str; 4] = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];

fn jobs() -> Vec<Job> {
    let pipeline = PipelineConfig {
        target: TargetIsa::avx2(),
        beam: BeamConfig::with_width(4),
        canonicalize_patterns: true,
    };
    BATCH
        .iter()
        .map(|name| {
            let k = vegen_kernels::find(name).unwrap();
            Job::new(k.name, (k.build)(), pipeline.clone())
        })
        .collect()
}

fn engine(cfg: EngineConfig) -> Engine {
    Engine::new(EngineConfig { verify_trials: 4, ..cfg })
}

#[test]
fn panic_mid_selection_degrades_to_width1_without_losing_siblings() {
    let plan = FaultPlan::parse("int32x8:selection:panic").unwrap();
    let results = with_plan(plan, || engine(EngineConfig::default()).compile_batch(&jobs()));

    // Input order and completeness survive the panic.
    assert_eq!(results.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(), BATCH);
    for r in &results {
        assert!(r.kernel.is_some(), "{}: every job still produces a program", r.name);
        assert!(r.verify_error.is_none(), "{}", r.name);
        if r.name == "int32x8" {
            // The panic fired once; the width-1 retry succeeded.
            assert_eq!(r.rung, Rung::Width1, "one-shot fault must stop at the retry rung");
            assert_eq!(r.faults.len(), 1);
            let fault = r.faults[0].to_string();
            assert!(fault.contains("injected fault"), "typed fault carries the message: {fault}");
            assert!(fault.contains("selection"), "fault names the stage: {fault}");
        } else {
            assert_eq!(r.rung, Rung::Primary, "{}: siblings stay on the primary rung", r.name);
            assert!(r.faults.is_empty(), "{}", r.name);
        }
    }
}

#[test]
fn persistent_fault_falls_all_the_way_to_scalar() {
    // `!` = fire on every attempt: both search rungs fail, the scalar
    // fallback (which never runs selection) completes and verifies.
    let plan = FaultPlan::parse("hadd_i16:selection:error!").unwrap();
    let eng = engine(EngineConfig::default());
    let results = with_plan(plan, || eng.compile_batch(&jobs()));

    let r = results.iter().find(|r| r.name == "hadd_i16").unwrap();
    assert_eq!(r.rung, Rung::Scalar);
    assert_eq!(r.faults.len(), 2, "one typed fault per failed search rung: {:?}", r.faults);
    let ck = r.kernel.as_deref().unwrap();
    assert_eq!(listing(&ck.vegen), listing(&ck.scalar), "scalar rung serves scalar code");
    assert!(r.verify_error.is_none(), "the fallback still verifies");

    let c = eng.counters();
    assert!(c.failures >= 2, "counters: {c:?}");
    assert!(c.retries >= 1, "counters: {c:?}");
    assert!(c.degradations >= 1, "counters: {c:?}");
}

#[test]
fn deadline_exceeded_beam_degrades_to_width1() {
    // A one-shot 1s delay inside the selection stage burns the whole
    // 250ms job window, so the primary beam trips its wall budget; the
    // retry gets a fresh window (and no second delay) and succeeds.
    // Warm the target-description cache first: a cold offline-phase build
    // would eat the window at the stage boundary *before* the fault ever
    // fired, and the one-shot delay would hit the retry rung instead.
    let _ = vegen::driver::target_desc(&TargetIsa::avx2(), true);
    let plan = FaultPlan::new(vec![FaultSpec {
        kernel: "pmaddwd".to_string(),
        stage: Stage::Selection,
        kind: FaultKind::Delay(Duration::from_millis(1000)),
        once: true,
    }]);
    let eng = engine(EngineConfig {
        deadline: Some(Duration::from_millis(250)),
        // Single-threaded so the slow job cannot starve siblings of CPU
        // and push *them* over their own deadlines on a loaded machine.
        threads: 1,
        ..EngineConfig::default()
    });
    let results = with_plan(plan, || eng.compile_batch(&jobs()));

    let r = results.iter().find(|r| r.name == "pmaddwd").unwrap();
    assert_eq!(r.rung, Rung::Width1, "faults: {:?}", r.faults);
    assert!(r.faults[0].cause.is_timeout(), "the recorded fault is a timeout: {:?}", r.faults);
    assert!(eng.counters().deadline_hits >= 1);
    assert!(r.verify_error.is_none());
}

#[test]
fn non_faulted_kernels_are_byte_identical_to_a_fault_free_run() {
    let reference = {
        let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!fault::active(), "no stale plan may leak into the reference run");
        engine(EngineConfig::default()).compile_batch(&jobs())
    };
    let plan = FaultPlan::parse("int32x8:selection:panic,max_pd:lowering:error").unwrap();
    let faulted = with_plan(plan, || engine(EngineConfig::default()).compile_batch(&jobs()));

    for (a, b) in reference.iter().zip(&faulted) {
        if a.name == "int32x8" || a.name == "max_pd" {
            continue;
        }
        let (ka, kb) = (a.kernel.as_deref().unwrap(), b.kernel.as_deref().unwrap());
        assert_eq!(b.rung, Rung::Primary, "{}", b.name);
        assert_eq!(listing(&ka.vegen), listing(&kb.vegen), "{}", a.name);
        assert_eq!(listing(&ka.baseline), listing(&kb.baseline), "{}", a.name);
        assert_eq!(listing(&ka.scalar), listing(&kb.scalar), "{}", a.name);
        assert_eq!(a.hash, b.hash, "{}", a.name);
    }
}

#[test]
fn seeded_plan_over_the_full_suite_completes_input_ordered() {
    let pipeline = PipelineConfig {
        target: TargetIsa::avx2(),
        beam: BeamConfig::with_width(4),
        canonicalize_patterns: true,
    };
    let jobs: Vec<Job> = vegen_kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name, (k.build)(), pipeline.clone()))
        .collect();
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    let plan = FaultPlan::seeded(&names, 42, 3);
    let faulted: Vec<String> = plan.specs().map(|s| s.kernel.clone()).collect();
    assert_eq!(faulted.len(), 3);

    let eng = engine(EngineConfig::default());
    let results = with_plan(plan, || eng.compile_batch(&jobs));

    assert_eq!(
        results.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
        names,
        "a seeded fault run must stay input-ordered"
    );
    for r in &results {
        assert!(r.kernel.is_some(), "{}: degraded, never lost", r.name);
        assert!(r.verify_error.is_none(), "{}", r.name);
        if !faulted.contains(&r.name) {
            assert_eq!(r.rung, Rung::Primary, "{}", r.name);
        }
    }
    // The panic spec (seed slot 0) must actually have knocked its kernel
    // off the primary rung; delay-without-deadline and one-shot specs may
    // legitimately still complete primary.
    assert!(
        results.iter().any(|r| r.rung != Rung::Primary),
        "at least one seeded fault must degrade its kernel"
    );
}

#[test]
fn fail_fast_skips_later_jobs_after_a_degradation() {
    // Persistent selection faults on the first kernel; with fail-fast on
    // and one worker, everything after the first sub-primary result is
    // skipped, not compiled.
    use vegen_engine::json::Json;
    let plan = FaultPlan::parse("pmaddwd:selection:error!").unwrap();
    let dir = std::env::temp_dir().join(format!("vegen-fail-fast-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.ndjson");
    let _ = std::fs::remove_file(&log);
    let eng = engine(EngineConfig {
        fail_fast: true,
        threads: 1,
        event_log: Some(log.clone()),
        ..EngineConfig::default()
    });
    let results = with_plan(plan, || eng.compile_batch(&jobs()));

    assert_eq!(results[0].name, "pmaddwd");
    assert_eq!(results[0].rung, Rung::Scalar);
    assert!(
        results[1..].iter().all(|r| r.rung == Rung::Skipped && r.kernel.is_none()),
        "rungs: {:?}",
        results.iter().map(|r| r.rung).collect::<Vec<_>>()
    );

    // A skipped job's chain is `admitted` then one full `completed`: the
    // same fields as any other, zeroed where nothing ran.
    let events: Vec<Json> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    for r in &results[1..] {
        let chain: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("corr").and_then(Json::as_str) == Some(&r.corr))
            .collect();
        let kinds: Vec<&str> = chain.iter().filter_map(|e| e.get("event")?.as_str()).collect();
        assert_eq!(kinds, ["admitted", "completed"], "{}", r.name);
        let done = chain[1];
        assert_eq!(done.get("rung").and_then(Json::as_str), Some("skipped"), "{done:?}");
        assert_eq!(done.get("cache").and_then(Json::as_str), Some("miss"), "{done:?}");
        assert_eq!(done.get("wall_us").and_then(Json::as_f64), Some(0.0), "{done:?}");
        let stages = done.get("stages").expect("completed carries stages");
        assert!(
            vegen::driver::PIPELINE
                .iter()
                .all(|s| stages.get(s.name()).and_then(Json::as_f64) == Some(0.0)),
            "{done:?}"
        );
    }
}

const PARITY_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ladder_parity.txt");

/// One fault spec through a fresh single-job engine, rendered as the
/// observable ladder outcome: rung, faults, counters, which stage slots
/// were timed, and the event-log sequence.
fn render_ladder_case(spec: &str, events: &std::path::Path) -> String {
    use vegen_engine::json::Json;
    let eng = engine(EngineConfig {
        threads: 1,
        event_log: Some(events.to_path_buf()),
        ..EngineConfig::default()
    });
    let job = jobs().swap_remove(0);
    let plan = FaultPlan::parse(spec).unwrap();
    let r = with_plan(plan, || eng.compile_batch(std::slice::from_ref(&job))).swap_remove(0);
    assert_eq!(r.kernel.is_some(), r.rung.produced_kernel(), "{spec}");
    assert!(r.verify_error.is_none(), "{spec}: every served program verifies");

    let faults: Vec<String> =
        r.faults.iter().map(|f| format!("{}/{}", f.stage, f.cause.tag())).collect();
    let timed: Vec<&str> =
        r.stages.iter().filter(|(_, d)| !d.is_zero()).map(|(s, _)| s.name()).collect();
    let log: Vec<String> = eng
        .event_log()
        .expect("event log opens")
        .tail()
        .iter()
        .map(|line| {
            let ev = Json::parse(line).expect("event lines are JSON");
            assert_eq!(ev.get("corr").and_then(Json::as_str), Some(r.corr.as_str()), "{spec}");
            let field = |k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            match field("event").as_str() {
                "stage_done" => format!("stage_done:{}", field("stage")),
                "faulted" => format!("faulted:{}/{}", field("stage"), field("tag")),
                e @ ("degraded" | "completed") => format!("{e}:{}", field("rung")),
                e => e.to_string(),
            }
        })
        .collect();
    let c = eng.counters();
    format!(
        "{spec}\n  rung={} hashed={} faults=[{}]\n  failures={} retries={} degradations={} \
         compilations={} frozen_reuses={}\n  timed=[{}]\n  events=[{}]\n",
        r.rung.name(),
        r.hash.is_some(),
        faults.join(","),
        c.failures,
        c.retries,
        c.degradations,
        c.compilations,
        c.frozen_reuses,
        timed.join(","),
        log.join(","),
    )
}

#[test]
fn ladder_outcomes_match_the_committed_fixture() {
    // Every driver stage × {typed error, panic} × {one-shot, persistent}.
    // The fixture was recorded before the driver's stages and the engine's
    // rungs became tables; regenerate with VEGEN_UPDATE_GOLDEN=1 only for
    // an intended change of ladder semantics.
    let dir = std::env::temp_dir().join(format!("vegen-ladder-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut got = String::new();
    for stage in vegen::driver::PIPELINE {
        for kind in ["error", "panic"] {
            for bang in ["", "!"] {
                let spec = format!("pmaddwd:{stage}:{kind}{bang}");
                let events = dir.join(format!("{stage}-{kind}{}.ndjson", bang.len()));
                got.push_str(&render_ladder_case(&spec, &events));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(PARITY_FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(PARITY_FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(PARITY_FIXTURE)
        .expect("fixture missing — run with VEGEN_UPDATE_GOLDEN=1 to create it");
    assert_eq!(got, want, "ladder outcomes diverge from the fixture; got:\n{got}");
}
