//! `perf check`: every workload once at smoke size, traced and untraced,
//! asserting that what the harness emits is exactly what `BENCHMARK.json`
//! (in the directory the harness is started from) declares.

use crate::common::{RunOpts, DEFAULT_CORPUS_SEED};
use crate::meta;
use std::path::PathBuf;
use std::time::Instant;
use vegen_trace::json::Json;

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let text = |entry: &Json, key: &str| {
        entry.get(key).and_then(Json::as_str).unwrap_or_default().to_string()
    };
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|entry| (text(entry, "name"), text(entry, "unit")))
        .collect()
}

pub fn main() -> Result<bool, String> {
    let started = Instant::now();
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut problems = Vec::new();
    if doc != meta::manifest() {
        problems
            .push("BENCHMARK.json differs from `perf manifest` (the harness's tables)".to_string());
    }
    let workloads: Vec<String> = declared(&doc, "workloads").into_iter().map(|(n, _)| n).collect();

    for workload in &workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = RunOpts {
                workload: workload.clone(),
                seed: 42,
                corpus_seed: DEFAULT_CORPUS_SEED,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: PathBuf::from("target/perf/check"),
            };
            let t = Instant::now();
            let result = crate::run_workload(&opts)?;
            let emitted: Vec<(String, String)> =
                result.metrics.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect();
            let ok = emitted == declared(&doc, list) && result.correct() && result.attempted <= 40;
            println!(
                "check {workload:<14} {:<9} {:>3} ops {:>3} failed {:>6.2} s  {}",
                if trace { "traced" } else { "untraced" },
                result.attempted,
                result.failed,
                t.elapsed().as_secs_f64(),
                if ok { "ok" } else { "MISMATCH" }
            );
            if emitted != declared(&doc, list) {
                problems.push(format!(
                    "{workload}: emitted {list} names/units differ from BENCHMARK.json"
                ));
            }
            if result.attempted > 40 {
                problems
                    .push(format!("{workload}: smoke size is {} ops, over 40", result.attempted));
            }
            problems.extend(result.violations.iter().map(|v| format!("{workload}: {v}")));
        }
    }
    let total = started.elapsed().as_secs_f64();
    if total >= 30.0 {
        problems.push(format!("smoke runs took {total:.1} s, over 30 s"));
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    println!(
        "perf check: {} workloads in {total:.1} s, {} problems",
        workloads.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}
