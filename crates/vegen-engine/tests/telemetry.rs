//! Service-telemetry integration tests: the metrics registry across a
//! two-pass serve session (spawned binary over a Unix socket), Prometheus
//! text exposition, the structured job event log's lifecycle chains, and
//! the fault flight recorder.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use vegen::driver::PipelineConfig;
use vegen_core::BeamConfig;
use vegen_engine::json::Json;
use vegen_engine::{Engine, EngineConfig, Job};
use vegen_isa::TargetIsa;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vegen-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Serve daemon over a Unix socket: `stats` scraping, monotone counters,
// two-pass cache behavior, Prometheus exposition.
// ---------------------------------------------------------------------------

/// A running serve daemon (spawned binary) with one client connection.
struct Daemon {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    fn spawn(socket: &Path, extra_args: &[&str]) -> Daemon {
        let mut args = vec![
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--beam",
            "4",
            "--no-verify",
            "--threads",
            "1",
        ];
        args.extend_from_slice(extra_args);
        let child = Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary must run");
        // A debug-build daemon needs ~1.6 s to come up on an idle core and
        // three of them start next to two compiling tests: allow 10 s.
        let stream = (0..2000)
            .find_map(|_| {
                UnixStream::connect(socket).ok().or_else(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    None
                })
            })
            .unwrap_or_else(|| panic!("daemon never bound {}", socket.display()));
        let reader = BufReader::new(stream.try_clone().unwrap());
        Daemon { child, reader, writer: stream }
    }

    /// Send one request line, read one response line, assert `ok`, return
    /// the result body.
    fn request(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        let doc =
            Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
        doc.get("result").expect("ok response has a result").clone()
    }

    fn shutdown(mut self) {
        let _ = writeln!(self.writer, r#"{{"op":"shutdown","id":"bye"}}"#);
        let mut ack = String::new();
        let _ = self.reader.read_line(&mut ack);
        let status = self.child.wait().expect("daemon must exit");
        assert!(status.success(), "daemon exit: {status:?}");
    }
}

fn counter(snapshot: &Json, name: &str) -> f64 {
    snapshot.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
}

fn gauge(snapshot: &Json, name: &str) -> Option<f64> {
    snapshot.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_f64)
}

fn histogram<'j>(snapshot: &'j Json, name: &str) -> Option<&'j Json> {
    snapshot.get("histograms").and_then(|h| h.get(name))
}

#[test]
fn two_pass_serve_session_exposes_latency_histograms_and_cache_ratio() {
    let dir = temp_dir("serve-stats");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap().to_string();

    // Pass one: cold — populate the disk cache.
    let mut daemon = Daemon::spawn(&socket, &["--cache-dir", &cache_arg]);
    for (i, kernel) in ["pmaddwd", "int32x8"].iter().enumerate() {
        let r = daemon.request(&format!(r#"{{"op":"compile","id":{i},"kernel":"{kernel}"}}"#));
        assert_eq!(r.get("cache").and_then(Json::as_str), Some("miss"), "{r:?}");
        // Every serve response carries the correlation id that threads
        // the event log and trace spans.
        let corr = r.get("corr").and_then(Json::as_str).expect("response has corr");
        assert!(corr.starts_with('c'), "{corr}");
    }
    let first = daemon.request(r#"{"op":"stats","id":"s1"}"#);
    let h = histogram(&first, "engine_compile_latency_us").expect("latency histogram exists");
    let field = |k: &str| h.get(k).and_then(Json::as_f64).unwrap();
    assert!(field("count") >= 2.0, "{h:?}");
    assert!(field("p50") > 0.0, "compiles are not instant: {h:?}");
    assert!(field("p50") <= field("p90") && field("p90") <= field("p99"), "{h:?}");
    assert!(field("p99") <= field("max"), "{h:?}");
    assert_eq!(counter(&first, "engine_cache_memory_hits_total"), 0.0);
    daemon.shutdown();

    // Pass two: a fresh process against the same cache dir — every job is
    // a disk hit, so the lifetime hit ratio reads 100%.
    let mut daemon = Daemon::spawn(&socket, &["--cache-dir", &cache_arg]);
    for (i, kernel) in ["pmaddwd", "int32x8"].iter().enumerate() {
        let r = daemon.request(&format!(r#"{{"op":"compile","id":{i},"kernel":"{kernel}"}}"#));
        assert_eq!(r.get("cache").and_then(Json::as_str), Some("disk"), "{r:?}");
    }
    let second = daemon.request(r#"{"op":"stats","id":"s2"}"#);
    assert_eq!(counter(&second, "engine_jobs_total"), 2.0);
    assert_eq!(counter(&second, "engine_cache_disk_hits_total"), 2.0);
    assert_eq!(gauge(&second, "engine_cache_hit_ratio"), Some(1.0), "{second:?}");
    assert_eq!(gauge(&second, "trace_dropped_events"), Some(0.0), "no ring drops");

    // Scraping twice: counters are monotone, and more work moves them.
    let r = daemon.request(r#"{"op":"compile","id":"again","kernel":"pmaddwd"}"#);
    assert_eq!(r.get("cache").and_then(Json::as_str), Some("memory"));
    let third = daemon.request(r#"{"op":"stats","id":"s3"}"#);
    for name in ["engine_jobs_total", "engine_cache_disk_hits_total"] {
        assert!(counter(&third, name) >= counter(&second, name), "{name} must be monotone");
    }
    assert_eq!(counter(&third, "engine_jobs_total"), 3.0);
    assert_eq!(counter(&third, "engine_cache_memory_hits_total"), 1.0);

    // The `metrics` op embeds the same registry beside the engine blocks.
    let metrics = daemon.request(r#"{"op":"metrics","id":"m"}"#);
    let registry = metrics.get("registry").expect("metrics op has a registry block");
    assert!(counter(registry, "engine_jobs_total") >= 3.0);
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The registry counts jobs as the event log does: one per `completed`
/// line, whatever ended the job. The daemon runs in its own process, so
/// no parallel test shares its registry.
#[test]
fn registry_job_counts_equal_the_logs_completed_lines() {
    let dir = temp_dir("job-counts");
    let socket = dir.join("daemon.sock");
    let log = dir.join("events.ndjson");
    let mut daemon = Daemon::spawn(&socket, &["--event-log", log.to_str().unwrap()]);
    let request = r#"{"op":"compile","id":1,"kernel":"pmaddwd"}"#;
    let cold = daemon.request(request);
    assert_eq!(cold.get("cache").and_then(Json::as_str), Some("miss"), "{cold:?}");
    let warm = daemon.request(request);
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("memory"), "{warm:?}");
    // A zero deadline has always run out by the time the dispatcher looks.
    writeln!(daemon.writer, r#"{{"op":"compile","id":3,"kernel":"int32x8","deadline_ms":0}}"#)
        .unwrap();
    let mut line = String::new();
    daemon.reader.read_line(&mut line).unwrap();
    let expired = Json::parse(&line).unwrap();
    let tag = expired.get("error").and_then(|e| e.get("tag")).and_then(Json::as_str);
    assert_eq!(tag, Some("deadline"), "{expired:?}");

    let stats = daemon.request(r#"{"op":"stats","id":"s"}"#);
    let completed = read_events(&log).iter().filter(|e| field(e, "event") == "completed").count();
    assert_eq!(completed, 3);
    assert_eq!(counter(&stats, "engine_jobs_total"), completed as f64, "{stats:?}");
    assert_eq!(counter(&stats, "engine_jobs_failed_total"), 1.0, "{stats:?}");
    // Only the two jobs that reached the compile path are timed.
    let latency = histogram(&stats, "engine_compile_latency_us").expect("latency histogram");
    assert_eq!(latency.get("count").and_then(Json::as_f64), Some(2.0), "{latency:?}");
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Parse one Prometheus text-format sample line into (name, value).
fn parse_sample(line: &str) -> (String, f64) {
    let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample {line:?}"));
    let name = name_part.split('{').next().unwrap().to_string();
    let value = if value == "+Inf" {
        f64::INFINITY
    } else {
        value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"))
    };
    (name, value)
}

#[test]
fn prometheus_exposition_is_well_formed_line_by_line() {
    let dir = temp_dir("serve-prom");
    let socket = dir.join("daemon.sock");
    let mut daemon = Daemon::spawn(&socket, &[]);
    daemon.request(r#"{"op":"compile","id":1,"kernel":"pmaddwd"}"#);
    let result = daemon.request(r#"{"op":"stats","id":2,"format":"prometheus"}"#);
    let text = result.get("prometheus").and_then(Json::as_str).expect("prometheus text");

    let mut typed: Vec<String> = Vec::new();
    let mut samples: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE has a name");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(name.starts_with("vegen_"), "{line}");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            typed.push(name.to_string());
        } else {
            assert!(!line.starts_with('#'), "only TYPE comments are emitted: {line}");
            let (name, value) = parse_sample(line);
            assert!(name.starts_with("vegen_"), "{line}");
            assert!(!value.is_nan(), "{line}");
            samples.push((name, value));
        }
    }
    assert!(!typed.is_empty() && !samples.is_empty());
    // Every sample's base name traces back to a TYPE declaration.
    for (name, _) in &samples {
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            typed.iter().any(|t| t == base || t == name),
            "sample {name} has no TYPE declaration"
        );
    }
    // Histogram buckets are cumulative and end at +Inf == _count.
    let latency = "vegen_engine_compile_latency_us";
    let buckets: Vec<f64> = samples
        .iter()
        .filter(|(n, _)| n == &format!("{latency}_bucket"))
        .map(|(_, v)| *v)
        .collect();
    assert!(!buckets.is_empty(), "latency histogram must have buckets");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets are cumulative: {buckets:?}");
    let count = samples
        .iter()
        .find(|(n, _)| n == &format!("{latency}_count"))
        .map(|(_, v)| *v)
        .expect("histogram has _count");
    assert_eq!(*buckets.last().unwrap(), count, "+Inf bucket equals count");
    assert!(count >= 1.0);
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_cli_subcommand_scrapes_a_live_daemon() {
    let dir = temp_dir("stats-cli");
    let socket = dir.join("daemon.sock");
    let mut daemon = Daemon::spawn(&socket, &[]);
    daemon.request(r#"{"op":"compile","id":1,"kernel":"pmaddwd"}"#);

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
            .arg("stats")
            .args(args)
            .output()
            .expect("binary must run")
    };
    let table = run(&["--socket", socket.to_str().unwrap()]);
    assert_eq!(table.status.code(), Some(0), "{}", String::from_utf8_lossy(&table.stderr));
    let stdout = String::from_utf8_lossy(&table.stdout);
    assert!(stdout.contains("engine_compile_latency_us"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");

    let prom = run(&["--socket", socket.to_str().unwrap(), "--prometheus"]);
    assert_eq!(prom.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&prom.stdout).contains("# TYPE vegen_"));

    let json = run(&["--socket", socket.to_str().unwrap(), "--json"]);
    assert_eq!(json.status.code(), Some(0));
    let doc = Json::parse(&String::from_utf8_lossy(&json.stdout)).expect("valid JSON");
    assert!(doc.get("histograms").is_some());

    // Usage and connect errors exit 2.
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["--socket", "/nonexistent/nope.sock"]).status.code(), Some(2));
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Structured job event log.
// ---------------------------------------------------------------------------

/// Read an NDJSON event log back as parsed lines.
fn read_events(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad event line {l:?}: {e}")))
        .collect()
}

fn field<'j>(e: &'j Json, key: &str) -> &'j str {
    e.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("event missing {key}: {e:?}"))
}

#[test]
fn event_log_threads_complete_lifecycle_chains_by_correlation_id() {
    let dir = temp_dir("events");
    let log_path = dir.join("events.ndjson");
    let engine = Engine::new(EngineConfig {
        threads: 2,
        verify_trials: 0,
        event_log: Some(log_path.clone()),
        ..Default::default()
    });
    assert!(engine.event_open_error().is_none());
    let names = ["pmaddwd", "int32x8", "hadd_i16"];
    let cold = engine.compile_batch(&jobs_for(&names, &pipeline(4)));
    let warm = engine.compile_batch(&jobs_for(&names, &pipeline(4)));

    let events = read_events(&log_path);
    // Every event carries the standard prefix with a monotone-ish clock.
    for e in &events {
        assert!(e.get("ts_us").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(field(e, "corr").starts_with('c'));
        assert!(!field(e, "job").is_empty());
    }

    // Each batch result's corr has a complete admitted → … → completed
    // chain, in that order.
    for r in cold.iter().chain(&warm) {
        let chain: Vec<&Json> = events.iter().filter(|e| field(e, "corr") == r.corr).collect();
        assert!(!chain.is_empty(), "corr {} has events", r.corr);
        assert_eq!(field(chain[0], "event"), "admitted", "{:?}", chain[0]);
        let last = chain.last().unwrap();
        assert_eq!(field(last, "event"), "completed");
        assert_eq!(field(last, "rung"), "primary");
        assert!(last.get("wall_us").and_then(Json::as_f64).is_some());
        assert!(chain.iter().any(|e| field(e, "event") == "started"));
    }

    // Cold compiles report per-stage completions; warm cache hits do not.
    let cold_corr = &cold[0].corr;
    let stages: Vec<&str> = events
        .iter()
        .filter(|e| field(e, "corr") == cold_corr && field(e, "event") == "stage_done")
        .map(|e| field(e, "stage"))
        .collect();
    assert!(stages.contains(&"selection") && stages.contains(&"lowering"), "{stages:?}");
    let warm_corr = &warm[0].corr;
    assert_eq!(warm[0].cache_source(), "memory");
    assert!(
        !events.iter().any(|e| field(e, "corr") == warm_corr && field(e, "event") == "stage_done"),
        "cache hits have no stage work"
    );
    let warm_completed = events
        .iter()
        .find(|e| field(e, "corr") == warm_corr && field(e, "event") == "completed")
        .unwrap();
    assert_eq!(field(warm_completed, "cache"), "memory");

    // Cold and warm runs of the same kernel have distinct correlation ids.
    assert_ne!(cold[0].corr, warm[0].corr);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Flight recorder: an injected panic dumps the recent trace window with
// the faulted job's correlation id in it.
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_produces_a_flight_dump_naming_the_faulted_corr() {
    // The flight recorder owns the process-global trace session; this is
    // the only test in this binary that enables tracing, so parallel
    // tests cannot reset it.
    let dir = temp_dir("flight");
    let flight_dir = dir.join("flight");
    let log_path = dir.join("events.ndjson");
    let engine = Engine::new(EngineConfig {
        threads: 1,
        verify_trials: 0,
        event_log: Some(log_path.clone()),
        flight_dir: Some(flight_dir.clone()),
        ..Default::default()
    });
    assert!(engine.flight_open_error().is_none());

    // Panic on every search attempt: both search rungs crash (caught by
    // the ladder), the scalar fallback recovers the job — and the caught
    // panics must still trigger a flight dump. The fault plan is
    // process-wide, so it names a kernel no parallel test of this binary
    // compiles.
    vegen::fault::install(vegen::fault::FaultPlan::parse("hsub_i32:selection:panic!").unwrap());
    let results = engine.compile_batch(&jobs_for(&["hsub_i32"], &pipeline(4)));
    vegen::fault::clear();
    let corr = results[0].corr.clone();
    assert_eq!(results[0].rung.name(), "scalar", "faults: {:?}", results[0].faults);
    assert!(
        results[0].faults.iter().any(|f| f.cause.tag() == "panic"),
        "panics are typed faults: {:?}",
        results[0].faults
    );

    let dumps: Vec<PathBuf> = std::fs::read_dir(&flight_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("flight-"))
        .collect();
    assert!(!dumps.is_empty(), "a failed job must dump");
    let mut corr_named = false;
    for dump in &dumps {
        let doc = Json::parse(&std::fs::read_to_string(dump).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", dump.display()));
        assert!(doc.get("traceEvents").is_some(), "dump is a Chrome trace");
        assert!(doc.get("reason").and_then(Json::as_str).is_some());
        let spans_have_corr =
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().iter().any(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.contains(&format!("#{corr}")))
            });
        let events_have_corr = doc.get("jobEvents").and_then(Json::as_arr).is_some_and(|tail| {
            tail.iter().any(|e| e.get("corr").and_then(Json::as_str) == Some(corr.as_str()))
        });
        corr_named |= spans_have_corr && events_have_corr;
    }
    assert!(corr_named, "some dump must carry the faulted job's corr {corr} in spans and events");

    // The panic also shows in the event log as a faulted → completed
    // (rung failed) chain.
    let events = read_events(&log_path);
    let faulted = events
        .iter()
        .find(|e| field(e, "corr") == corr && field(e, "event") == "faulted")
        .expect("panic emits a faulted event");
    assert_eq!(field(faulted, "tag"), "panic");
    vegen_trace::disable();
    std::fs::remove_dir_all(&dir).ok();
}
