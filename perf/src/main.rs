//! `perf` — the repo's benchmark harness (see `perf/README.md`).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the BENCHMARK.json contract)
//! perf all [--seed N] [--runs K] [--seconds S] [--out DIR]        every workload, untraced then traced
//! perf compare <a-dir> <b-dir>                                    verdict per workload x metric
//! perf check                                                      smoke run + names against BENCHMARK.json
//! perf manifest                                                   print the BENCHMARK.json the tables describe
//! perf ledger <dir>                                               print perf/LEDGER.json from a `perf all` directory
//! ```

mod check;
mod cold;
mod common;
mod compare;
mod layers;
mod ledger;
mod meta;
mod offline;
mod serve;
mod spans;
mod stats;

use common::{RunOpts, RunResult, DEFAULT_CORPUS_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vegen_trace::json::Json;

/// Default output directory, relative to where the harness is started.
const OUT_DIR: &str = "target/perf";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("check") => check::main(),
        Some("ledger") => ledger::main(&args[1..]),
        Some("manifest") => {
            println!("{}", meta::manifest().render_pretty());
            Ok(true)
        }
        _ => run_contract(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, every flag required to be known.
pub(crate) fn parse_flags(
    args: &[String],
    known: &[&str],
) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?} (expected one of {known:?})"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.iter().rev().find(|(f, _)| f == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => Ok(default),
    }
}

/// Dispatch one workload run, then remove the scratch directories
/// (`common::fresh_dir`) it left under the output directory.
pub(crate) fn run_workload(opts: &RunOpts) -> Result<RunResult, String> {
    let result = match opts.workload.as_str() {
        "suite_cold" | "corpus_cold" => cold::run(opts),
        "serve_mixed" => serve::run(opts),
        "offline_build" => offline::run(opts),
        other => {
            let names: Vec<&str> = meta::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!("unknown workload {other:?} (expected one of {names:?})"))
        }
    };
    let scratch = format!("scratch-{}-", opts.workload);
    for entry in std::fs::read_dir(&opts.out_dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with(&scratch) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    result
}

/// The contract's result object.
fn result_json(r: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::int(r.attempted)),
        ("failed", Json::int(r.failed)),
        ("metrics", r.metrics.to_json()),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One run under the `BENCHMARK.json` contract: human-readable metrics,
/// the result and trace files, and the result object as the last line.
fn run_contract(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--corpus-seed", "--out"],
    )?;
    let workload: String = flag(&flags, "--workload", String::new())?;
    if workload.is_empty() {
        return Err("usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | compare | check | manifest | ledger".into());
    }
    let opts = RunOpts {
        workload,
        seed: flag(&flags, "--seed", 42)?,
        corpus_seed: flag(&flags, "--corpus-seed", DEFAULT_CORPUS_SEED)?,
        seconds: flag(&flags, "--seconds", meta::RUN_SECONDS as f64)?,
        trace: flag::<u8>(&flags, "--trace", 0)? != 0,
        smoke: false,
        out_dir: PathBuf::from(flag(&flags, "--out", OUT_DIR.to_string())?),
    };
    let result = run_workload(&opts)?;
    print_metrics(&opts, &result);
    let line = result_json(&result);
    if opts.trace {
        let trace = Json::obj([
            ("traceEvents", Json::Arr(result.trace_events.clone())),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        write_file(&opts.out_dir.join(format!("trace-{}.json", opts.workload)), &trace.render())?;
    }
    let doc = Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("seed", Json::int(opts.seed)),
        ("corpus_seed", Json::int(opts.corpus_seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("result", line.clone()),
        ("detail", result.detail.clone()),
        ("violations", Json::Arr(result.violations.iter().map(Json::str).collect())),
    ]);
    let kind = if opts.trace { "layers" } else { "result" };
    write_file(&opts.out_dir.join(format!("{kind}-{}.json", opts.workload)), &doc.render_pretty())?;
    println!("{}", line.render());
    Ok(result.correct())
}

fn print_metrics(opts: &RunOpts, r: &RunResult) {
    println!(
        "# {} seed {} corpus {} {}: {} ops attempted, {} failed",
        opts.workload,
        opts.seed,
        opts.corpus_seed,
        if opts.trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed
    );
    for (name, unit, value) in r.metrics.iter() {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!("detail {}", r.detail.render());
    for v in &r.violations {
        println!("VIOLATION {v}");
    }
}

/// `perf all`: each workload in its own child process (so process-wide
/// memos and peak RSS are per workload), untraced for the end-to-end
/// metrics and once traced for the per-layer ones.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--seed", "--runs", "--seconds", "--out", "--corpus-seed"])?;
    let seed: u64 = flag(&flags, "--seed", 42)?;
    let runs: u32 = flag(&flags, "--runs", 1)?;
    let seconds: f64 = flag(&flags, "--seconds", meta::RUN_SECONDS as f64)?;
    let corpus_seed: u64 = flag(&flags, "--corpus-seed", DEFAULT_CORPUS_SEED)?;
    let out = PathBuf::from(flag(&flags, "--out", OUT_DIR.to_string())?);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for w in meta::WORKLOADS {
        let mut run_results = Vec::new();
        for (trace, run) in (0..runs).map(|r| (0u8, r)).chain([(1u8, 0)]) {
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", &trace.to_string()])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .args(["--corpus-seed", &corpus_seed.to_string()])
                .arg("--out")
                .arg(&out)
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            all_correct &= child.status.success();
            if trace == 0 {
                let last = stdout.lines().last().unwrap_or("");
                let parsed = Json::parse(last)
                    .map_err(|e| format!("{} run {run}: no result line: {e}", w.name))?;
                run_results.push(parsed);
            }
        }
        // All untraced runs of this workload, for `perf compare`.
        let doc = Json::obj([
            ("workload", Json::str(w.name)),
            ("seed", Json::int(seed)),
            ("corpus_seed", Json::int(corpus_seed)),
            ("seconds", Json::Num(seconds)),
            ("runs", Json::Arr(run_results)),
        ]);
        write_file(&out.join(format!("runs-{}.json", w.name)), &doc.render_pretty())?;
    }
    Ok(all_correct)
}
