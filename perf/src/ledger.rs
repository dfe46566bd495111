//! `perf ledger <dir>`: the committed ledger (`perf/LEDGER.json`) — what
//! `BENCHMARK.json` has no room for. Definitions of every metric, which
//! end-to-end metric each per-layer metric should move, the seeds and
//! thread settings, and baseline medians with quartiles taken from the
//! `runs-*.json` / `layers-*.json` files of a `perf all --runs N`.

use crate::common::DEFAULT_CORPUS_SEED;
use crate::meta::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{highest_supported_percentile, median, quartiles};
use std::path::Path;
use vegen_trace::json::Json;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn baseline(dir: &Path, workload: &str) -> Result<Json, String> {
    let runs_doc = load(&dir.join(format!("runs-{workload}.json")))?;
    let runs = runs_doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, m.name)).collect();
            let (q1, q3) = quartiles(&values);
            let row = Json::obj([
                ("median", Json::Num(median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ]);
            (m.name.to_string(), row)
        })
        .collect();
    let layers_doc = load(&dir.join(format!("layers-{workload}.json")))?;
    let layers = layers_doc.get("result").cloned().unwrap_or(Json::Null);
    let per_layer = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), Json::Num(metric_value(&layers, m.name).unwrap_or(0.0))))
        .collect();
    // How many op samples each pass's percentiles rest on, and how many
    // passes the lower quartile is taken over.
    let result_doc = load(&dir.join(format!("result-{workload}.json")))?;
    let detail = |key: &str| {
        result_doc.get("detail").and_then(|d| d.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    let samples = detail("ops_per_pass") as usize;
    let failed: f64 = runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
    Ok(Json::obj([
        ("runs", Json::int(runs.len() as u64)),
        ("seed", runs_doc.get("seed").cloned().unwrap_or(Json::Null)),
        ("seconds", runs_doc.get("seconds").cloned().unwrap_or(Json::Null)),
        ("ops_per_pass", Json::int(samples as u64)),
        ("passes_in_last_run", Json::Num(detail("passes"))),
        (
            "highest_percentile_with_10_beyond_per_pass",
            Json::int(highest_supported_percentile(samples) as u64),
        ),
        ("failed_ops", Json::Num(failed)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
    ]))
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [dir] = args else {
        return Err("usage: perf ledger <dir written by `perf all --runs N`>".into());
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let run = "cargo run --release --offline --manifest-path perf/Cargo.toml --";
    let mut baselines = Vec::new();
    for w in WORKLOADS {
        baselines.push((w.name.to_string(), baseline(Path::new(dir), w.name)?));
    }
    let doc = Json::obj([
        ("schema", Json::str("vegen-perf-ledger/v1")),
        (
            "commands",
            Json::obj([
                ("one_run", Json::str(format!("{run} --workload <name> --seed <n> --seconds <s> --trace <0|1>"))),
                ("all", Json::str(format!("{run} all [--seed N] [--runs K] [--out DIR]"))),
                ("compare", Json::str(format!("{run} compare <a-dir> <b-dir>"))),
                ("check", Json::str(format!("{run} check"))),
            ]),
        ),
        (
            "seeds",
            Json::obj([
                ("schedule_seed_default", Json::int(42)),
                ("corpus_seed", Json::int(DEFAULT_CORPUS_SEED)),
                ("holdout_corpus_seed", Json::int(1337)),
                (
                    "note",
                    Json::str(
                        "--seed orders passes and draws the serve schedule; --corpus-seed chooses the generated kernels. The holdout corpus is never used while tuning.",
                    ),
                ),
            ]),
        ),
        (
            "machine",
            Json::obj([
                ("nproc", Json::int(nproc as u64)),
                (
                    "threads",
                    Json::str(
                        "timed sections run threads = 1, beam_threads = 1; serve_mixed uses one connection and one engine thread, pinned to the highest-numbered allowed CPU",
                    ),
                ),
                ("run_seconds", Json::int(RUN_SECONDS)),
            ]),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                            ("what", Json::str(m.what)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("layer", Json::str(m.name.split('.').next().unwrap_or(""))),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("should_move", Json::str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("baseline", Json::Obj(baselines)),
    ]);
    println!("{}", doc.render_pretty());
    Ok(true)
}
