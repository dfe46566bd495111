//! Command-line front end of the `vegen-engine` binary: a table plus one
//! parser.
//!
//! Every flag is declared once (a [`Flag`] constant: name, value
//! placeholder or switch, value kind, one-line help); every subcommand is
//! one row of [`COMMANDS`] (its positionals, the flags it accepts, an
//! epilogue and its `run` function); [`main_with_args`] looks the first
//! argument up in that table and the one `parse` function does "unknown
//! argument", "needs a value", the typed conversion of every value and
//! `--help` / `-h` for all of them. The usage text — [`usage`] per
//! subcommand, and the overview the bare `--help` prints — is generated
//! from the same rows, so it cannot describe a flag the parser does not
//! take. A `run` function reads checked values with its own defaults and
//! keeps only the checks that are not syntax.
//!
//! Exit codes are the contract: `0` success; `1` verification failure,
//! regression, unexplained soak failure, lint or spec error; `2` usage or
//! I/O error. Requested help goes to stdout, a usage error to stderr.
//!
//! Everything lives in the library (the binary is a one-line wrapper) so
//! tests can drive the exact code paths, including exit codes.

use crate::ledger;
use crate::report;
use crate::serve::{self, ServeConfig};
use crate::{Engine, EngineConfig, Job, JobResult, Rung};
use std::fmt::Write as _;
use std::num::ParseIntError;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vegen::driver::{prepare, target_desc, CompileCtx, PipelineConfig};
use vegen::fault::FaultPlan;
use vegen_analysis::speccheck::MatchTableStats;
use vegen_core::{
    describe_pack, select_packs_reusing, BeamConfig, CostModel, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::canonicalize_with_stats;
use vegen_isa::TargetIsa;
use vegen_trace::json::Json;

// ---------------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------------

/// What a flag's value must parse as. `parse` converts, so a `run`
/// function only ever sees checked values.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Switch,
    Text,
    Uint,
    Target,
}

/// One command-line flag, declared once and listed by every subcommand
/// that accepts it.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling on the command line, dashes included.
    pub name: &'static str,
    /// Name of the value in usage text; empty for a switch.
    placeholder: &'static str,
    kind: Kind,
    help: &'static str,
    /// Accepted but left out of usage text (test-only knobs).
    pub hidden: bool,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, placeholder: "", kind: Kind::Switch, help, hidden: false }
}

const fn uint(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
    Flag { name, placeholder, kind: Kind::Uint, help, hidden: false }
}

const fn text(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
    Flag { name, placeholder, kind: Kind::Text, help, hidden: false }
}

const TARGET: Flag =
    Flag { kind: Kind::Target, ..text("--target", "T", "target ISA: sse4, avx2 or avx512vnni") };
const TARGET_OR_ALL: Flag = Flag { placeholder: "T|all", kind: Kind::Text, ..TARGET };
const BEAM: Flag = uint("--beam", "N", "beam width of the pack search");
const THREADS: Flag = uint("--threads", "N", "worker threads (0 = one per core)");
const BEAM_THREADS: Flag =
    uint("--beam-threads", "N", "threads inside one search (0 = auto; env VEGEN_BEAM_THREADS)");
const RUNS: Flag = uint("--runs", "N", "passes over the suite: cold, then warm");
const NO_VERIFY: Flag = switch("--no-verify", "skip the random-trial equivalence check");
const COMPACT: Flag = switch("--compact", "render the report on one line");
const OUT: Flag = text("--out", "FILE", "write the JSON report to FILE");
const TRACE: Flag = text("--trace", "FILE", "capture a Chrome trace of the run");
const FOLDED: Flag = text("--folded", "FILE", "capture folded stacks of the run");
const DECISIONS: Flag = switch("--decisions", "carry the search's decision log in the report");
const DEADLINE_MS: Flag = uint("--deadline-ms", "N", "deadline per compile, in milliseconds");
const FAIL_FAST: Flag = switch("--fail-fast", "skip the rest of a batch after a degraded job");
const FAULTS: Flag =
    text("--faults", "SPEC", "inject kernel:stage:kind[,...] faults (env VEGEN_FAULTS)");
const FAULT_SEED: Flag = uint("--fault-seed", "N", "inject a seeded random fault plan");
const FAULT_COUNT: Flag = uint("--fault-count", "N", "faults in the seeded plan");
const CACHE_DIR: Flag = text("--cache-dir", "DIR", "persist compiles to a disk cache");
const CACHE_MAX_BYTES: Flag =
    uint("--cache-max-bytes", "N", "bound the disk cache (oldest evicted)");
const WARM_START: Flag = switch("--warm-start", "load the disk cache into memory first");
const EVENT_LOG: Flag = text("--event-log", "FILE", "append NDJSON job events to FILE");
const FLIGHT_DIR: Flag = text("--flight-dir", "DIR", "dump the flight recorder to DIR on a fault");
const SEED: Flag = uint("--seed", "N", "corpus seed");
const COUNT: Flag = uint("--count", "N", "corpus size, before sharding");
const SHARD: Flag = text("--shard", "I/N", "run only kernels with index = I mod N");
const TRIALS: Flag = uint("--trials", "N", "random memory images per differential check");
const FAULT_EVERY: Flag = uint("--fault-every", "K", "fault every Kth job of the shard (0 = off)");
const SEEDS_OUT: Flag = text("--seeds-out", "DIR", "write a replayable seed file per failure");
const NO_MINIMIZE: Flag = switch("--no-minimize", "report failing kernels without minimizing");
const MINIMIZE_BUDGET: Flag = uint("--minimize-budget", "N", "candidates tried per minimization");
// Test-only: deterministically corrupt every compiled vegen program so
// the differential check must catch it.
const INJECT_MISCOMPILE: Flag =
    Flag { hidden: true, ..uint("--inject-miscompile", "N", "plant a seeded miscompile") };
const STDIO: Flag = switch("--stdio", "serve stdin/stdout (exactly one transport must be given)");
const SOCKET: Flag = text("--socket", "PATH", "Unix socket of the daemon");
const QUEUE: Flag = uint("--queue", "N", "admission queue capacity, at least 1");
const PROMETHEUS: Flag = switch("--prometheus", "print Prometheus text, not the table");
const JSON: Flag = switch("--json", "print the JSON document, not the table");
const MAX_ITERS: Flag = uint("--max-iters", "N", "stop the search after N iterations");
const CORRUPT: Flag = text("--corrupt", "KIND", "corrupt the database first (KIND below)");
const NO_CANON: Flag = switch("--no-canon", "audit without pattern canonicalization");
const MAX_REGRESS: Flag = text("--max-regress", "PCT", "allowed worsening, in percent");
const STRICT_COUNTERS: Flag = switch("--strict-counters", "gate on search-effort counters too");
const CHECK: Flag = text("--check", "FILE", "compare with FILE, print the differing rows, exit 1");

/// One subcommand: the syntax `parse` accepts for it, the text `usage`
/// prints for it, and the function that runs it.
pub struct Command {
    /// First argument that selects the row; empty for the default (suite)
    /// mode.
    pub name: &'static str,
    /// Required positional arguments, as usage text spells them.
    positionals: &'static [&'static str],
    /// Every flag the subcommand accepts (`--help` / `-h` is implicit).
    pub flags: &'static [Flag],
    epilogue: &'static str,
    run: fn(&Parsed) -> Result<i32, String>,
}

/// The command table; the first row is the mode no subcommand selects.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "",
        positionals: &[],
        flags: &[
            TARGET,
            BEAM,
            THREADS,
            BEAM_THREADS,
            RUNS,
            NO_VERIFY,
            COMPACT,
            OUT,
            TRACE,
            FOLDED,
            DECISIONS,
            DEADLINE_MS,
            FAIL_FAST,
            FAULTS,
            FAULT_SEED,
            FAULT_COUNT,
            CACHE_DIR,
            CACHE_MAX_BYTES,
            WARM_START,
            EVENT_LOG,
            FLIGHT_DIR,
        ],
        epilogue:
            "fault kind is panic|error|delay=<ms>; a `!` suffix fires on every ladder attempt\n",
        run: run_suite,
    },
    Command {
        name: "soak",
        positionals: &[],
        flags: &[
            SEED,
            COUNT,
            SHARD,
            TRIALS,
            FAULT_EVERY,
            TARGET,
            BEAM,
            BEAM_THREADS,
            DEADLINE_MS,
            CACHE_DIR,
            CACHE_MAX_BYTES,
            SEEDS_OUT,
            NO_MINIMIZE,
            MINIMIZE_BUDGET,
            INJECT_MISCOMPILE,
            OUT,
            COMPACT,
        ],
        epilogue: "kernel i is generate(seed, i): any kernel replays from the two integers\n",
        run: run_soak_cmd,
    },
    Command {
        name: "serve",
        positionals: &[],
        flags: &[
            STDIO,
            SOCKET,
            CACHE_DIR,
            CACHE_MAX_BYTES,
            WARM_START,
            THREADS,
            BEAM_THREADS,
            QUEUE,
            DEADLINE_MS,
            NO_VERIFY,
            TARGET,
            BEAM,
            EVENT_LOG,
            FLIGHT_DIR,
        ],
        epilogue: "",
        run: run_serve,
    },
    Command {
        name: "stats",
        positionals: &[],
        flags: &[SOCKET, PROMETHEUS, JSON],
        epilogue: "",
        run: run_stats,
    },
    Command {
        name: "explain",
        positionals: &["<kernel>"],
        flags: &[TARGET, BEAM, MAX_ITERS],
        epilogue: "",
        run: run_explain,
    },
    Command {
        name: "lint",
        positionals: &[],
        flags: &[TARGET, BEAM, THREADS, OUT],
        epilogue: "",
        run: run_lint,
    },
    Command {
        name: "check-specs",
        positionals: &[],
        flags: &[TARGET_OR_ALL, JSON, OUT, CORRUPT, NO_CANON],
        epilogue: "corruption KIND is lane-swap|widen|flip-cmp|dup-rule|neg-cost, which must be\n\
                   rejected, or rename-op (display-only metadata), which must be accepted\n",
        run: run_check_specs,
    },
    Command {
        name: "diff",
        positionals: &["<old.json>", "<new.json>"],
        flags: &[MAX_REGRESS, STRICT_COUNTERS],
        epilogue: "",
        run: run_diff,
    },
    Command {
        name: "ledger",
        positionals: &[],
        flags: &[CHECK, THREADS],
        epilogue: "without --check, prints the ledger (`> reports/ledger.tsv` regenerates it)\n",
        run: run_ledger,
    },
];

impl Command {
    /// What diagnostics of this subcommand start with.
    fn who(&self) -> String {
        format!("vegen-engine {}", self.name).trim_end().to_string()
    }

    /// The one-paragraph synopsis: positionals, then every visible flag.
    fn synopsis(&self) -> String {
        let words = self.positionals.iter().map(|p| p.to_string()).chain(
            self.flags
                .iter()
                .filter(|f| !f.hidden)
                .map(|f| format!("[{} {}]", f.name, f.placeholder).replace(" ]", "]")),
        );
        let mut text = format!("usage: {}", self.who());
        let mut column = text.len();
        for word in words {
            if column + 1 + word.len() > 78 {
                text.push_str("\n                   ");
                column = 19;
            }
            let _ = write!(text, " {word}");
            column += 1 + word.len();
        }
        text
    }

    /// Synopsis, one line per visible flag, epilogue.
    fn usage(&self) -> String {
        let mut text = self.synopsis() + "\n";
        for f in self.flags.iter().filter(|f| !f.hidden) {
            let _ = writeln!(text, "  {:<22} {}", format!("{} {}", f.name, f.placeholder), f.help);
        }
        text + self.epilogue
    }
}

/// The generated usage text of one subcommand (`""` is the suite mode);
/// `None` for a name that is not in [`COMMANDS`].
pub fn usage(subcommand: &str) -> Option<String> {
    COMMANDS.iter().find(|c| c.name == subcommand).map(Command::usage)
}

/// What the bare `--help` prints: the suite mode in full, then the
/// synopsis of every subcommand.
fn overview() -> String {
    let mut text = COMMANDS[0].usage();
    text.push_str("subcommands (`vegen-engine <subcommand> --help` describes one):\n");
    for cmd in &COMMANDS[1..] {
        let _ = writeln!(text, "{}", cmd.synopsis());
    }
    text
}

// ---------------------------------------------------------------------------
// The parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Switch,
    Text(String),
    Uint(u64),
    Target(TargetIsa),
}

/// A command line that passed `parse`: the positionals in order and the
/// converted value of every flag that was given (the last occurrence
/// wins). A flag that was not given — or that the subcommand does not
/// accept — reads as `None`, and the `run` function supplies the default.
#[derive(Debug, Default, PartialEq)]
struct Parsed {
    positionals: Vec<String>,
    values: Vec<(&'static str, Value)>,
}

impl Parsed {
    fn get(&self, flag: &Flag, kind: Kind) -> Option<&Value> {
        debug_assert_eq!(flag.kind, kind, "{} read as the wrong kind", flag.name);
        self.values.iter().find(|(name, _)| *name == flag.name).map(|(_, v)| v)
    }

    fn has(&self, flag: &Flag) -> bool {
        self.get(flag, Kind::Switch).is_some()
    }

    fn text(&self, flag: &Flag) -> Option<&str> {
        match self.get(flag, Kind::Text)? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    fn path(&self, flag: &Flag) -> Option<PathBuf> {
        self.text(flag).map(PathBuf::from)
    }

    fn num<T: TryFrom<u64>>(&self, flag: &Flag) -> Option<T> {
        match self.get(flag, Kind::Uint)? {
            Value::Uint(n) => T::try_from(*n).ok(),
            _ => None,
        }
    }

    fn target(&self) -> Option<TargetIsa> {
        match self.get(&TARGET, Kind::Target)? {
            Value::Target(t) => Some(t.clone()),
            _ => None,
        }
    }
}

pub(crate) fn parse_target(s: &str) -> Result<TargetIsa, String> {
    TargetIsa::from_name(s).ok_or_else(|| format!("unknown target {:?}", s.to_ascii_lowercase()))
}

/// Convert one flag value to the type its declaration names.
fn convert(kind: Kind, raw: &str) -> Result<Value, String> {
    match kind {
        Kind::Switch | Kind::Text => Ok(Value::Text(raw.to_string())),
        Kind::Uint => raw.parse().map(Value::Uint).map_err(|e: ParseIntError| e.to_string()),
        Kind::Target => parse_target(raw).map(Value::Target),
    }
}

/// Check `args` against one row of the command table. Pure: no I/O, no
/// environment. `Ok(None)` means help was requested.
fn parse(cmd: &Command, args: &[String]) -> Result<Option<Parsed>, String> {
    let mut parsed = Parsed::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        if !arg.starts_with('-') && parsed.positionals.len() < cmd.positionals.len() {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let flag = cmd
            .flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        let value = if flag.kind == Kind::Switch {
            Value::Switch
        } else {
            let raw = args.next().ok_or_else(|| format!("{} needs a value", flag.name))?;
            convert(flag.kind, raw).map_err(|e| format!("{}: {e}", flag.name))?
        };
        parsed.values.retain(|(name, _)| *name != flag.name);
        parsed.values.push((flag.name, value));
    }
    match cmd.positionals.get(parsed.positionals.len()) {
        Some(missing) => Err(format!("missing {missing}")),
        None => Ok(Some(parsed)),
    }
}

/// The one writer of subcommand output. A closed stdout (`explain | grep
/// -q`, `stats | head`) ends the output quietly: the first failed write
/// drops it and every later one, and the run keeps the exit code it would
/// have had.
fn write_stdout(text: &str) {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if !CLOSED.load(Ordering::Relaxed) && std::io::stdout().write_all(text.as_bytes()).is_err() {
        CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `println!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Run the CLI with pre-split arguments (everything after the program
/// name) and return the process exit code: `0` success, `1` verification
/// failure or regression, `2` usage/I-O error.
pub fn main_with_args(args: &[String]) -> i32 {
    let named = args.first().and_then(|a| COMMANDS[1..].iter().find(|c| c.name == a));
    let (cmd, rest) = named.map_or((&COMMANDS[0], args), |cmd| (cmd, &args[1..]));
    let outcome = match parse(cmd, rest) {
        Ok(None) => {
            write_stdout(&if cmd.name.is_empty() { overview() } else { cmd.usage() });
            Ok(0)
        }
        Ok(Some(parsed)) => (cmd.run)(&parsed),
        Err(e) => Err(format!("{e}\n{}", cmd.synopsis())),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{}: {e}", cmd.who());
        2
    })
}

// ---------------------------------------------------------------------------
// Shared by the subcommands
// ---------------------------------------------------------------------------

/// Names of jobs whose compiled kernels failed verification, in input
/// order (the suite prints each to stderr and exits nonzero).
pub fn failing_kernels(results: &[JobResult]) -> Vec<String> {
    results.iter().filter(|r| r.verify_error.is_some()).map(|r| r.name.clone()).collect()
}

/// Print the per-kernel failure table: every job that completed below
/// [`Rung::Primary`], with its rung and the faults collected on the way
/// down. Returns `(degraded, failed)` counts. Silent when the batch was
/// entirely clean.
pub fn print_failure_table(results: &[JobResult]) -> (usize, usize) {
    let troubled: Vec<&JobResult> = results.iter().filter(|r| r.rung != Rung::Primary).collect();
    if troubled.is_empty() {
        return (0, 0);
    }
    eprintln!("vegen-engine: {} kernel(s) below primary rung:", troubled.len());
    eprintln!("  {:<24} {:<8} faults", "kernel", "rung");
    let mut degraded = 0;
    let mut failed = 0;
    for r in &troubled {
        match r.rung {
            Rung::Width1 | Rung::Scalar => degraded += 1,
            Rung::Failed => failed += 1,
            Rung::Primary | Rung::Skipped => {}
        }
        let first = r.faults.first().map(|e| e.to_string()).unwrap_or_default();
        eprintln!("  {:<24} {:<8} {first}", r.name, r.rung.name());
        for fault in r.faults.iter().skip(1) {
            eprintln!("  {:<24} {:<8} {fault}", "", "");
        }
    }
    (degraded, failed)
}

/// Resolve the fault plan from explicit CLI options or the `VEGEN_FAULTS`
/// environment variable (CLI wins). `None` means no injection.
fn resolve_fault_plan(p: &Parsed, kernel_names: &[&str]) -> Result<Option<FaultPlan>, String> {
    if let Some(spec) = p.text(&FAULTS) {
        return FaultPlan::parse(spec).map(Some).map_err(|e| format!("{}: {e}", FAULTS.name));
    }
    if let Some(seed) = p.num(&FAULT_SEED) {
        let count = p.num(&FAULT_COUNT).unwrap_or(3);
        return Ok(Some(FaultPlan::seeded(kernel_names, seed, count)));
    }
    match std::env::var("VEGEN_FAULTS") {
        Ok(spec) if !spec.is_empty() => {
            FaultPlan::parse(&spec).map(Some).map_err(|e| format!("VEGEN_FAULTS: {e}"))
        }
        _ => Ok(None),
    }
}

/// Intra-kernel beam-search thread count: the flag, else the
/// `VEGEN_BEAM_THREADS` environment variable, else `0` (auto).
fn beam_threads(p: &Parsed) -> usize {
    p.num(&BEAM_THREADS).unwrap_or_else(|| {
        std::env::var("VEGEN_BEAM_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}

/// Build the engine of a suite or serve run from the flags given (one the
/// subcommand does not accept reads as its default), say what could not
/// be opened, and replay the disk cache when asked.
fn bring_up(who: &str, p: &Parsed) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads: p.num(&THREADS).unwrap_or(0),
        verify_trials: if p.has(&NO_VERIFY) { 0 } else { 16 },
        deadline: p.num(&DEADLINE_MS).map(Duration::from_millis),
        fail_fast: p.has(&FAIL_FAST),
        cache_dir: p.path(&CACHE_DIR),
        cache_max_bytes: p.num(&CACHE_MAX_BYTES),
        beam_threads: beam_threads(p),
        event_log: p.path(&EVENT_LOG),
        flight_dir: p.path(&FLIGHT_DIR),
        ..EngineConfig::default()
    });
    for (what, error) in [
        ("disk cache", engine.disk_open_error()),
        ("event log", engine.event_open_error()),
        ("flight recorder", engine.flight_open_error()),
    ] {
        if let Some(e) = error {
            eprintln!("{who}: {what} disabled: {e}");
        }
    }
    if p.has(&WARM_START) {
        let loaded = engine.warm_start();
        eprintln!("{who}: warm start loaded {loaded} cached compile(s)");
    }
    engine
}

/// One job per suite kernel. Built per run (not cloned across runs) so
/// every execution gets its own correlation id in the event log.
fn suite_jobs(pipeline: &PipelineConfig) -> Vec<Job> {
    vegen_kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name, (k.build)(), pipeline.clone()))
        .collect()
}

/// Publish a match table's structural statistics to the metrics registry
/// (the report's metrics block and `vegen-engine stats` read them there).
fn publish_match_table_stats(table: &MatchTableStats) {
    vegen_trace::metrics::counter("speccheck_rules_total").add(table.rules as u64);
    vegen_trace::metrics::gauge("speccheck_dead_rules").set(table.dead_rules as f64);
    vegen_trace::metrics::gauge("speccheck_max_overlap_class").set(table.max_overlap_class as f64);
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Deliver a JSON artifact (on one line under `--compact`): to stdout when
/// `print`, and to the `--out` file when one was given.
fn write_artifact(who: &str, p: &Parsed, doc: &Json, print: bool) -> Result<(), String> {
    let text = if p.has(&COMPACT) { doc.render() } else { doc.render_pretty() };
    if print {
        out!("{text}");
    }
    if let Some(path) = p.text(&OUT) {
        write_file(path, &text)?;
        eprintln!("{who}: report written to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------------

fn run_suite(p: &Parsed) -> Result<i32, String> {
    let target = p.target().unwrap_or_else(TargetIsa::avx2);
    let beam = p.num(&BEAM).unwrap_or(16);
    let (trace, folded) = (p.text(&TRACE), p.text(&FOLDED));
    let tracing = trace.is_some() || folded.is_some();
    if tracing {
        vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    }

    let engine = bring_up("vegen-engine", p);
    let cfg = engine.config();
    let mut pipeline = PipelineConfig::new(target.clone(), beam);
    pipeline.beam.log_decisions = p.has(&DECISIONS);
    let kernel_names: Vec<&str> = vegen_kernels::all().iter().map(|k| k.name).collect();
    if let Some(plan) = resolve_fault_plan(p, &kernel_names)? {
        let targets: Vec<String> =
            plan.specs().map(|s| format!("{}:{}:{}", s.kernel, s.stage, s.kind.tag())).collect();
        eprintln!("vegen-engine: fault injection active — {}", targets.join(", "));
        vegen::fault::install(plan);
    }
    let resolved_threads = engine.batch_threads(kernel_names.len());

    let mut runs = Vec::new();
    let mut failed = false;
    let mut hard_failures = 0usize;
    for i in 0..p.num(&RUNS).unwrap_or(2).max(1) {
        let label = match i {
            0 => "cold".to_string(),
            1 => "warm".to_string(),
            n => format!("warm{n}"),
        };
        let _run_span = vegen_trace::enabled()
            .then(|| vegen_trace::span_owned("engine", format!("run:{label}")));
        let jobs = suite_jobs(&pipeline);
        let t0 = Instant::now();
        let results = engine.compile_batch(&jobs);
        let wall = t0.elapsed();
        for r in &results {
            if let Some(e) = &r.verify_error {
                eprintln!("vegen-engine: kernel {} FAILED verification: {e}", r.name);
                failed = true;
            }
        }
        let hits = results.iter().filter(|r| r.cache_hit).count();
        eprintln!(
            "vegen-engine: {label} run — {} kernels in {wall:.2?} on {resolved_threads} threads, \
             {hits}/{} cache hits",
            results.len(),
            results.len(),
        );
        // Degraded kernels (width-1 / scalar rungs) are reported, not
        // fatal: graceful degradation is the whole point. Only a kernel
        // with *no* program at all (or a fail-fast abort) gates.
        let (_, run_failed) = print_failure_table(&results);
        hard_failures += run_failed;
        if cfg.fail_fast && results.iter().any(|r| r.rung != Rung::Primary) {
            hard_failures += 1;
        }
        runs.push(report::run_json(&label, wall, &results));
    }
    vegen::fault::clear();

    let data = tracing.then(|| {
        let data = vegen_trace::drain();
        vegen_trace::disable();
        data
    });
    if let Some(data) = &data {
        if let Some(path) = trace {
            write_file(path, &vegen_trace::export::chrome_trace(data).render())?;
            eprintln!(
                "vegen-engine: trace written to {path} ({} events, {} dropped)",
                data.event_count(),
                data.dropped()
            );
        }
        if let Some(path) = folded {
            write_file(path, &vegen_trace::export::folded_stacks(data))?;
            eprintln!("vegen-engine: folded stacks written to {path}");
        }
    }

    // Structural match-table statistics (cheap: the table is already
    // cached process-wide after the first compile). The full speccheck
    // audit stays out of the suite path — that is `check-specs`' job.
    publish_match_table_stats(&vegen_analysis::match_table_stats(&target_desc(&target, true)));

    let doc = report::report_json(
        &engine,
        &target,
        beam,
        cfg.verify_trials,
        runs,
        data.as_ref().map(|d| report::trace_json(Some(d), trace, folded)),
        None,
    );
    write_artifact("vegen-engine", p, &doc, p.text(&OUT).is_none())?;
    Ok(i32::from(failed || hard_failures > 0))
}

// ---------------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------------

/// Run the generated-kernel soak harness (see [`crate::soak`]). Exit
/// code 0 when every non-faulted kernel passes the differential check
/// and provenance audit (degradations allowed), 1 on any unexplained
/// failure, 2 on usage errors.
fn run_soak_cmd(p: &Parsed) -> Result<i32, String> {
    use crate::soak::{run_soak, SoakConfig, SoakStatus};

    let defaults = SoakConfig::default();
    let (shard_index, shard_count) = match p.text(&SHARD) {
        None => (defaults.shard_index, defaults.shard_count),
        Some(v) => match v.split_once('/').map(|(i, n)| (i.parse(), n.parse())) {
            Some((Ok(i), Ok(n))) => (i, n),
            _ => return Err(format!("{}: want I/N, got {v:?}", SHARD.name)),
        },
    };
    let cfg = SoakConfig {
        seed: p.num(&SEED).unwrap_or(defaults.seed),
        count: p.num(&COUNT).unwrap_or(defaults.count),
        shard_index,
        shard_count,
        trials: p.num(&TRIALS).unwrap_or(defaults.trials),
        fault_every: p.num(&FAULT_EVERY).unwrap_or(defaults.fault_every),
        target: p.target().unwrap_or(defaults.target),
        beam: p.num(&BEAM).unwrap_or(defaults.beam),
        beam_threads: beam_threads(p),
        deadline: p.num(&DEADLINE_MS).map(Duration::from_millis),
        cache_dir: p.path(&CACHE_DIR),
        cache_max_bytes: p.num(&CACHE_MAX_BYTES),
        minimize: !p.has(&NO_MINIMIZE),
        minimize_budget: p.num(&MINIMIZE_BUDGET).unwrap_or(defaults.minimize_budget),
        seeds_out: p.path(&SEEDS_OUT),
        corrupt_vegen: p.num(&INJECT_MISCOMPILE),
    };

    let report = run_soak(&cfg)?;
    let count = |s: SoakStatus| report.results.iter().filter(|r| r.status == s).count();
    eprintln!(
        "vegen-engine soak: seed {} — {} kernel(s) (shard {}/{}) in {:.2?}: \
         {} passed, {} faulted-degraded, {} degraded, {} diff failure(s), \
         {} provenance failure(s), {} aborted; vectorization rate {:.1}%",
        cfg.seed,
        report.results.len(),
        cfg.shard_index,
        cfg.shard_count,
        report.wall,
        count(SoakStatus::Passed),
        count(SoakStatus::Faulted),
        count(SoakStatus::Degraded),
        count(SoakStatus::DiffFailed),
        count(SoakStatus::ProvenanceFailed),
        count(SoakStatus::Aborted),
        report.vectorization_rate() * 100.0,
    );
    for r in report.results.iter().filter(|r| r.status.is_failure()) {
        eprintln!("vegen-engine soak: {} [{}] {}: {}", r.name, r.shape, r.status.name(), r.detail);
        if let Some(m) = &r.minimized {
            eprintln!(
                "vegen-engine soak:   minimized {} -> {} inst(s){}:\n{}",
                m.from_insts,
                m.insts,
                m.seed_file.as_deref().map(|p| format!(" (seed file {p})")).unwrap_or_default(),
                m.listing
            );
        }
    }

    let doc = report::report_json(
        &report.engine,
        &cfg.target,
        cfg.beam,
        cfg.trials,
        Vec::new(),
        None,
        Some(report.soak_json()),
    );
    write_artifact("vegen-engine soak", p, &doc, p.text(&OUT).is_none())?;
    Ok(i32::from(report.unexplained_failures() > 0))
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Run the resident compile daemon over stdio or a Unix socket. Exit code
/// 0 on clean drain, 2 on usage or bind errors.
fn run_serve(p: &Parsed) -> Result<i32, String> {
    let socket = p.text(&SOCKET);
    if p.has(&STDIO) == socket.is_some() {
        return Err(format!("pass exactly one of {} or {} PATH", STDIO.name, SOCKET.name));
    }
    let cfg = ServeConfig {
        queue_capacity: p.num(&QUEUE).unwrap_or(64),
        target: p.target().unwrap_or_else(TargetIsa::avx2),
        beam_width: p.num(&BEAM).unwrap_or(16),
    };
    if cfg.queue_capacity == 0 {
        return Err(format!("{}: capacity must be at least 1", QUEUE.name));
    }

    let engine = bring_up("vegen-engine serve", p);
    // Publish the match table's structural statistics up front so
    // `vegen-engine stats` can read them live (and the first compile
    // finds the table already built).
    publish_match_table_stats(&vegen_analysis::match_table_stats(&target_desc(&cfg.target, true)));

    let summary = match socket {
        None => serve::serve_lines(&engine, &cfg, std::io::stdin().lock(), std::io::stdout()),
        Some(path) => {
            eprintln!("vegen-engine serve: listening on {path}");
            serve::serve_socket(&engine, &cfg, std::path::Path::new(path))?
        }
    };
    eprintln!(
        "vegen-engine serve: drained — {} request(s), {} compile(s), {} shed, {} expired, \
         {} rejected while draining, {} protocol error(s)",
        summary.requests,
        summary.compiles,
        summary.shed,
        summary.expired,
        summary.rejected_draining,
        summary.protocol_errors
    );
    Ok(0)
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// Pretty-print one metrics-registry snapshot (the `stats` op's JSON
/// body) as a human-readable table: histograms with their percentiles,
/// then counters, then gauges.
fn render_stats_table(snapshot: &Json) -> String {
    let entries = |key: &str| -> Vec<(&str, &Json)> {
        match snapshot.get(key) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            _ => Vec::new(),
        }
    };
    let mut out = String::new();
    let histograms = entries("histograms");
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &histograms {
            let field = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                field("count") as u64,
                field("p50") as u64,
                field("p90") as u64,
                field("p99") as u64,
                field("max") as u64,
            );
        }
    }
    let counters = entries("counters");
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<32} {:>8}", "counter", "value");
        for (name, v) in &counters {
            let _ = writeln!(out, "{name:<32} {:>8}", v.as_f64().unwrap_or(0.0) as u64);
        }
    }
    let gauges = entries("gauges");
    if !gauges.is_empty() {
        let _ = writeln!(out, "{:<32} {:>12}", "gauge", "value");
        for (name, v) in &gauges {
            let _ = writeln!(out, "{name:<32} {:>12.4}", v.as_f64().unwrap_or(0.0));
        }
    }
    out
}

/// Scrape a running serve daemon's metrics registry over its Unix socket
/// and print it: a human table by default, raw Prometheus text with
/// `--prometheus`, or the JSON snapshot with `--json`. Exit code 2 on
/// usage, connect, or protocol errors.
fn run_stats(p: &Parsed) -> Result<i32, String> {
    use std::io::{BufRead as _, BufReader, Write as _};
    let path = p.text(&SOCKET).ok_or_else(|| format!("{} PATH is required", SOCKET.name))?;
    let (prometheus, json) = (p.has(&PROMETHEUS), p.has(&JSON));
    if prometheus && json {
        return Err(format!("pass at most one of {} or {}", PROMETHEUS.name, JSON.name));
    }
    let stream = std::os::unix::net::UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to {path}: {e}"))?;
    let mut request = vec![("op", Json::str("stats")), ("id", Json::str("stats-cli"))];
    if prometheus {
        request.push(("format", Json::str("prometheus")));
    }
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(write_half, "{}", Json::obj(request).render())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let response = Json::parse(&line).map_err(|e| format!("malformed response: {e}"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon error: {}", response.render()));
    }
    let result = response.get("result").ok_or("response has no result")?;
    if prometheus {
        let text = result.get("prometheus").and_then(Json::as_str);
        write_stdout(text.ok_or("response has no prometheus text")?);
    } else if json {
        write_stdout(&format!("{}\n", result.render_pretty()));
    } else {
        write_stdout(&render_stats_table(result));
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

fn run_explain(p: &Parsed) -> Result<i32, String> {
    let name = &p.positionals[0];
    let target = p.target().unwrap_or_else(TargetIsa::avx2);
    let beam = p.num(&BEAM).unwrap_or(64);
    let Some(kernel) = vegen_kernels::find(name) else {
        let mut message = format!("unknown kernel {name:?}; available:");
        for k in vegen_kernels::all() {
            let _ = write!(message, "\n  {} ({:?})", k.name, k.suite);
        }
        return Err(message);
    };

    let source = (kernel.build)();
    let f = match prepare(&source, &mut CompileCtx::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("vegen-engine explain: {e}");
            return Ok(1);
        }
    };
    let desc = target_desc(&target, true);
    let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());

    out!("explain {} (target {}, beam {beam})", kernel.name, target.name);
    out!("function: {} instructions, {} stores", f.insts.len(), f.stores().len());
    out!("canon: {}", canonicalize_with_stats(&source).1);

    let cfg = BeamConfig {
        log_decisions: true,
        max_iters: p.num(&MAX_ITERS),
        ..BeamConfig::with_width(beam)
    };
    let t0 = Instant::now();
    // No budget is set here, so the search cannot fail — but surface a
    // typed error cleanly rather than panicking if that ever changes.
    let mut reuse = SelectionReuse::new();
    let r = select_packs_reusing(&ctx, &cfg, &mut reuse)
        .map_err(|e| format!("selection failed: {e}"))?;
    let wall = t0.elapsed();

    // costSLP of each store chain's value operand — the Σ costSLP(v) terms
    // the search starts from, read from the evaluator it just ranked with
    // (this is the diagnostic the old scratch `dbg` binary printed for
    // fft8's output chunks, generalized).
    for chain in ctx.store_chain_packs() {
        if let Some(x) = chain.store_operand() {
            let cost = reuse.cost_slp(&x).expect("store-chain operands are frozen candidates");
            let chain = describe_pack(|di| desc.insts[di].def.name.as_str(), &chain);
            out!("costSLP({chain}) = {cost:.1}");
        }
    }

    out!(
        "selection: scalar {:.1} → vector {:.1} ({:.2}x estimated), {} states expanded in {wall:.2?}",
        r.scalar_cost,
        r.vector_cost,
        r.scalar_cost / r.vector_cost.max(1e-9),
        r.states_expanded,
    );

    let log = r.decisions.as_ref().expect("log_decisions was set");
    out!("committed packs ({}):", log.committed.len());
    for c in &log.committed {
        out!("  {:>3}. {:<40} costop {:.1}", c.step, c.pack, c.cost);
    }
    out!("iterations ({}):", log.iterations.len());
    for it in &log.iterations {
        out!(
            "  iter {:>3}: beam {} → pool {} → dedup {} → kept {}",
            it.index,
            it.beam_in,
            it.pool,
            it.deduped,
            it.kept
        );
        for c in &it.candidates {
            out!(
                "    {} {:<44} g={:<8.1} est={:<8.1} score={:<8.1} packs={}",
                if c.kept { "KEEP " } else { "PRUNE" },
                c.action,
                c.g,
                c.est,
                c.score,
                c.packs
            );
        }
    }

    // Static validation of the full compilation, run through the engine
    // (so the profitability backstop and lowering are the real ones, and
    // the printed job carries the correlation id and cache source that
    // cross-reference the event log and any flight dump).
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 0, ..Default::default() });
    let pipeline = PipelineConfig::new(target, beam);
    let result = engine.compile_one(kernel.name, &(kernel.build)(), &pipeline);
    out!("job: corr {} rung {} cache {}", result.corr, result.rung.name(), result.cache_source());
    let Some(compiled) = result.kernel.as_deref() else {
        eprintln!("vegen-engine explain: compilation produced no program:");
        for fault in &result.faults {
            eprintln!("  {fault}");
        }
        return Ok(1);
    };
    out!("static validation: {}", compiled.analysis.verdict());
    for d in compiled.analysis.all() {
        out!("  {d}");
    }
    write_stdout(&vegen_vm::listing(&compiled.vegen));
    Ok(0)
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

/// Run the static validators over the whole suite. Exit code 1 when any
/// kernel has an error-severity finding; warnings are reported but do not
/// gate. `--out` writes the run as a report, whose rows carry the
/// diagnostics under `detail.analysis`.
fn run_lint(p: &Parsed) -> Result<i32, String> {
    let target = p.target().unwrap_or_else(TargetIsa::avx2);
    let beam = p.num(&BEAM).unwrap_or(16);
    // Verification trials off: this gate is purely static; the suite mode
    // covers dynamic checking.
    let engine = Engine::new(EngineConfig {
        threads: p.num(&THREADS).unwrap_or(0),
        verify_trials: 0,
        ..EngineConfig::default()
    });
    let pipeline = PipelineConfig::new(target.clone(), beam);
    let jobs = suite_jobs(&pipeline);
    let t0 = Instant::now();
    let results = engine.compile_batch(&jobs);
    let wall = t0.elapsed();

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for r in &results {
        let head = format!("{:<24} {:<8} {:<6}", r.name, r.corr, r.cache_source());
        // A job that produced no program at all is an error-severity
        // finding in its own right; degraded rungs still carry a real
        // analysis (or an empty one for the scalar rung) and lint it.
        match &r.kernel {
            None => {
                let fault =
                    r.faults.first().map(|e| e.to_string()).unwrap_or_else(|| "no program".into());
                out!("{head} {} — {fault}", r.rung.name());
                total_errors += 1;
            }
            Some(kernel) => {
                let a = &kernel.analysis;
                out!("{head} {}", a.verdict());
                for d in a.all() {
                    out!("    {d}");
                }
                total_errors += a.error_count();
                total_warnings += a.warning_count();
            }
        }
    }
    print_failure_table(&results);
    out!(
        "vegen-engine lint: {} kernels in {wall:.2?} (target {}, beam {beam}) — {} error(s), \
         {} warning(s)",
        results.len(),
        target.name,
        total_errors,
        total_warnings
    );

    if p.text(&OUT).is_some() {
        let doc = report::report_json(
            &engine,
            &target,
            beam,
            0,
            vec![report::run_json("cold", wall, &results)],
            None,
            None,
        );
        write_artifact("vegen-engine lint", p, &doc, false)?;
    }
    Ok(i32::from(total_errors > 0))
}

// ---------------------------------------------------------------------------
// check-specs
// ---------------------------------------------------------------------------

/// Audit the offline spec chain (pseudocode → VIDL → match table) for one
/// or all targets. Exit code 1 when any target has an error-severity
/// finding; warnings are reported but do not gate. `--corrupt KIND`
/// injects a deliberate corruption first, so CI can assert the gate
/// rejects a broken database and names the mutated instruction.
fn run_check_specs(p: &Parsed) -> Result<i32, String> {
    use vegen_analysis::speccheck::{check_database, corrupt_database, target_specs};
    use vegen_isa::InstDb;

    let targets = match p.text(&TARGET_OR_ALL) {
        Some(one) if !one.eq_ignore_ascii_case("all") => vec![parse_target(one)?],
        _ => vec![TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()],
    };
    let json = p.has(&JSON);
    let corrupt = p.text(&CORRUPT);

    let t0 = Instant::now();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut rows = Vec::new();
    for target in &targets {
        let mut db = InstDb::for_target(target);
        let mut corrupted_inst: Option<String> = None;
        if let Some(kind) = corrupt {
            let (bad, name) =
                corrupt_database(&db, kind).map_err(|e| format!("{} {kind}: {e}", CORRUPT.name))?;
            eprintln!(
                "vegen-engine check-specs: injected {kind} corruption into {name} ({})",
                target.name
            );
            db = bad;
            corrupted_inst = Some(name);
        }
        let report = check_database(&target.name, &target_specs(target), &db, !p.has(&NO_CANON));
        total_errors += report.error_count();
        total_warnings += report.warning_count();
        if !json {
            out!("{}", report.verdict());
            for d in &report.diagnostics {
                out!("    {d}");
            }
        }
        publish_match_table_stats(&report.stats);
        rows.push(Json::obj([
            ("target", Json::str(&report.target)),
            ("insts_checked", Json::int(report.insts_checked as u64)),
            ("lanes_proved", Json::int(report.lanes_proved as u64)),
            ("lanes_validated", Json::int(report.lanes_validated as u64)),
            ("rules", Json::int(report.stats.rules as u64)),
            ("ops", Json::int(report.stats.ops as u64)),
            ("dead_rules", Json::int(report.stats.dead_rules as u64)),
            ("max_overlap_class", Json::int(report.stats.max_overlap_class as u64)),
            ("errors", Json::int(report.error_count() as u64)),
            ("warnings", Json::int(report.warning_count() as u64)),
            ("corrupted_inst", corrupted_inst.as_deref().map_or(Json::Null, Json::str)),
            (
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(|d| Json::str(d.to_string())).collect()),
            ),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::str("vegen-engine-speccheck/v1")),
        ("corruption", corrupt.map_or(Json::Null, Json::str)),
        ("errors", Json::int(total_errors as u64)),
        ("warnings", Json::int(total_warnings as u64)),
        ("targets", Json::Arr(rows)),
    ]);
    write_artifact("vegen-engine check-specs", p, &doc, json)?;
    if !json {
        out!(
            "vegen-engine check-specs: {} target(s) in {:.2?} — {} error(s), {} warning(s)",
            targets.len(),
            t0.elapsed(),
            total_errors,
            total_warnings
        );
    }
    Ok(i32::from(total_errors > 0))
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// The numbers `diff` compares in one report row. `compiled` is false for
/// a job that produced no kernel: its row is `failed` and has no `cycles`
/// or speedups, which read as NaN here.
struct KernelRow {
    compiled: bool,
    vegen_cycles: f64,
    speedup_baseline: f64,
    states_expanded: f64,
    transitions: f64,
}

/// A report regression found by [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Kernel name (or `"<suite>"` for report-level findings).
    pub kernel: String,
    /// What regressed, with old → new values.
    pub what: String,
}

/// Thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Allowed relative worsening, in percent, of cycles and speedups.
    pub max_regress_pct: f64,
    /// Treat search-effort counter growth beyond the threshold as a
    /// regression too (off by default: counters are informational).
    pub strict_counters: bool,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig { max_regress_pct: 2.0, strict_counters: false }
    }
}

fn pick_run(report: &Json) -> Result<&Json, String> {
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no runs".to_string())?;
    runs.iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some("cold"))
        .or_else(|| runs.first())
        .ok_or_else(|| "report has zero runs".to_string())
}

fn kernel_rows(run: &Json) -> Result<Vec<(String, KernelRow)>, String> {
    let kernels = run
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| "run has no kernels".to_string())?;
    let mut rows = Vec::new();
    for k in kernels {
        let name = k
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "kernel without a name".to_string())?;
        let num = |v: Option<&Json>| v.and_then(Json::as_f64);
        let detail = k.get("detail");
        let vegen_cycles = num(k.get("cycles").and_then(|c| c.get("vegen")));
        let failed = k.get("failed").and_then(Json::as_bool).unwrap_or(false);
        rows.push((
            name.to_string(),
            KernelRow {
                compiled: !failed && vegen_cycles.is_some(),
                vegen_cycles: vegen_cycles.unwrap_or(f64::NAN),
                speedup_baseline: num(k.get("speedup_baseline")).unwrap_or(f64::NAN),
                states_expanded: num(detail.and_then(|d| d.get("states_expanded")))
                    .unwrap_or(f64::NAN),
                transitions: num(detail.and_then(|d| d.get("beam")?.get("transitions")))
                    .unwrap_or(0.0),
            },
        ));
    }
    Ok(rows)
}

fn check_schema(report: &Json, which: &str) -> Result<(), String> {
    let schema = report
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which}: missing schema field"))?;
    if schema != report::SCHEMA {
        return Err(format!(
            "{which}: unrecognized schema {schema:?} (diff reads {})",
            report::SCHEMA
        ));
    }
    Ok(())
}

/// Compare two parsed engine reports. Returns the regressions (empty =
/// gate passes) and informational lines describing non-gating changes. A
/// kernel that compiled in `old` regresses when `new` drops its row or
/// reports it `failed`.
///
/// # Errors
///
/// Returns a message when either document is not an engine report.
pub fn diff_reports(
    old: &Json,
    new: &Json,
    cfg: &DiffConfig,
) -> Result<(Vec<Regression>, Vec<String>), String> {
    check_schema(old, "old")?;
    check_schema(new, "new")?;
    let old_rows = kernel_rows(pick_run(old)?)?;
    let new_rows = kernel_rows(pick_run(new)?)?;
    let factor = 1.0 + cfg.max_regress_pct / 100.0;

    let mut regressions = Vec::new();
    let mut info = Vec::new();
    for (name, o) in &old_rows {
        let Some((_, n)) = new_rows.iter().find(|(nn, _)| nn == name) else {
            regressions.push(Regression {
                kernel: name.clone(),
                what: "kernel missing from new report".to_string(),
            });
            continue;
        };
        if o.compiled && !n.compiled {
            regressions.push(Regression {
                kernel: name.clone(),
                what: "kernel failed in new report".to_string(),
            });
            continue;
        }
        if n.vegen_cycles > o.vegen_cycles * factor {
            regressions.push(Regression {
                kernel: name.clone(),
                what: format!(
                    "cycles.vegen {:.1} → {:.1} (+{:.1}%)",
                    o.vegen_cycles,
                    n.vegen_cycles,
                    (n.vegen_cycles / o.vegen_cycles - 1.0) * 100.0
                ),
            });
        }
        if n.speedup_baseline * factor < o.speedup_baseline {
            regressions.push(Regression {
                kernel: name.clone(),
                what: format!(
                    "speedup_baseline {:.3} → {:.3}",
                    o.speedup_baseline, n.speedup_baseline
                ),
            });
        }
        for (label, ov, nv) in [
            ("states_expanded", o.states_expanded, n.states_expanded),
            ("transitions", o.transitions, n.transitions),
        ] {
            if nv > ov * factor && ov > 0.0 {
                let line =
                    format!("{name}: {label} {ov:.0} → {nv:.0} (+{:.1}%)", (nv / ov - 1.0) * 100.0);
                if cfg.strict_counters {
                    regressions.push(Regression { kernel: name.clone(), what: line });
                } else {
                    info.push(line);
                }
            }
        }
    }
    for (name, _) in &new_rows {
        if !old_rows.iter().any(|(on, _)| on == name) {
            info.push(format!("{name}: new kernel (not in old report)"));
        }
    }
    Ok((regressions, info))
}

fn run_diff(p: &Parsed) -> Result<i32, String> {
    let mut cfg = DiffConfig { strict_counters: p.has(&STRICT_COUNTERS), ..DiffConfig::default() };
    match p.text(&MAX_REGRESS).map(str::parse::<f64>) {
        Some(Ok(pct)) if pct >= 0.0 => cfg.max_regress_pct = pct,
        Some(_) => return Err(format!("{} needs a percentage", MAX_REGRESS.name)),
        None => {}
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = (load(&p.positionals[0])?, load(&p.positionals[1])?);
    let (regressions, info) = diff_reports(&old, &new, &cfg)?;
    for line in &info {
        out!("info: {line}");
    }
    for r in &regressions {
        out!("REGRESSION {}: {}", r.kernel, r.what);
    }
    if regressions.is_empty() {
        out!("vegen-engine diff: no regressions (threshold {:.1}%)", cfg.max_regress_pct);
    } else {
        out!("vegen-engine diff: {} regression(s)", regressions.len());
    }
    Ok(i32::from(!regressions.is_empty()))
}

// ---------------------------------------------------------------------------
// ledger
// ---------------------------------------------------------------------------

/// Print the behaviour ledger, or with `--check FILE` recompute it and
/// compare: exit 1 on a difference (the first ten differing lines are
/// printed) or a job that fails verification, 2 when FILE is unreadable.
fn run_ledger(p: &Parsed) -> Result<i32, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let want = p.text(&CHECK).map(read).transpose()?;
    let t0 = Instant::now();
    let got = match ledger::render(&ledger::SECTIONS, p.num(&THREADS).unwrap_or(0)) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("vegen-engine ledger: {e}");
            return Ok(1);
        }
    };
    let Some(want) = want else {
        write_stdout(&got);
        return Ok(0);
    };
    let diffs = ledger::differences(&want, &got);
    diffs.iter().take(10).for_each(|d| out!("{d}"));
    let (n, wall) = (diffs.len(), t0.elapsed());
    eprintln!("vegen-engine ledger: recomputed in {wall:.2?}; {n} line(s) differ from the file");
    Ok(i32::from(want != got))
}

#[cfg(test)]
mod tests;
