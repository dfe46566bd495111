//! Protocol tests for `vegen-engine serve`, driven through
//! [`vegen_engine::serve::serve_lines`] — the exact code path `--stdio`
//! runs, minus the process boundary.

use std::io::{BufReader, Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use vegen_engine::json::Json;
use vegen_engine::serdes::function_to_json;
use vegen_engine::serve::{serve_lines, ServeConfig, ServeSummary};
use vegen_engine::{Engine, EngineConfig};

/// A clonable `Write` the daemon can own while the test keeps a handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<(Mutex<Vec<u8>>, Condvar)>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 .0.lock().unwrap().extend_from_slice(buf);
        self.0 .1.notify_all();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    /// Every response line, as sent.
    fn lines(&self) -> Vec<String> {
        let bytes = self.0 .0.lock().unwrap();
        let text = String::from_utf8(bytes.clone()).expect("responses are UTF-8");
        text.lines().map(str::to_string).collect()
    }

    /// Every response line, parsed.
    fn responses(&self) -> Vec<Json> {
        self.lines()
            .iter()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
            .collect()
    }

    /// Block until `n` complete response lines have been written.
    fn wait_for_lines(&self, n: usize) {
        let (bytes, written) = &*self.0;
        let mut bytes = bytes.lock().unwrap();
        while bytes.iter().filter(|&&b| b == b'\n').count() < n {
            bytes = written.wait(bytes).unwrap();
        }
    }
}

/// A closed-loop client on [`serve_lines`]: a `Read` that hands the daemon
/// one request line at a time, each only after every earlier one was
/// answered — so cache and alias state at each request is deterministic.
/// Every line must draw exactly one response.
struct LockStep {
    lines: std::vec::IntoIter<String>,
    sent: usize,
    pending: Vec<u8>,
    out: SharedBuf,
}

impl Read for LockStep {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            self.out.wait_for_lines(self.sent);
            let Some(line) = self.lines.next() else { return Ok(0) };
            self.sent += 1;
            self.pending = line.into_bytes();
            self.pending.push(b'\n');
        }
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Run request lines through the daemon in lock step.
fn drive_closed_loop(
    engine: &Engine,
    cfg: &ServeConfig,
    lines: Vec<String>,
) -> (SharedBuf, ServeSummary) {
    let out = SharedBuf::default();
    let input =
        LockStep { lines: lines.into_iter(), sent: 0, pending: Vec::new(), out: out.clone() };
    let summary = serve_lines(engine, cfg, BufReader::new(input), out.clone());
    (out, summary)
}

/// A fresh directory for one test's disk cache and logs.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vegen-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `doc` without the named top-level members.
fn without(doc: &Json, keys: &[&str]) -> Json {
    match doc {
        Json::Obj(pairs) => {
            Json::Obj(pairs.iter().filter(|(k, _)| !keys.contains(&k.as_str())).cloned().collect())
        }
        other => other.clone(),
    }
}

/// The same JSON document spelled differently: `spaces` spaces after
/// every comma. Byte-different for every `spaces`, one value tree.
fn respell(compact: &str, spaces: usize) -> String {
    let doc = Json::parse(compact).unwrap();
    let pretty = doc.render_pretty();
    let flat: Vec<&str> = pretty.lines().map(str::trim).collect();
    let spelled = flat.join(&" ".repeat(spaces));
    assert_eq!(Json::parse(&spelled).unwrap(), doc);
    spelled
}

fn text<'a>(result: &'a Json, key: &str) -> &'a str {
    result.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no {key:?} in {result:?}"))
}

fn engine() -> Engine {
    Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() })
}

/// Run a request script through the daemon; returns (responses, summary).
fn drive(
    engine: &Engine,
    cfg: &ServeConfig,
    lines: &str,
) -> (Vec<Json>, vegen_engine::serve::ServeSummary) {
    let out = SharedBuf::default();
    let summary = serve_lines(engine, cfg, Cursor::new(lines.to_string()), out.clone());
    (out.responses(), summary)
}

/// The response whose `id` is the given integer (requests and responses
/// interleave nondeterministically across the reader and dispatcher).
fn by_id(responses: &[Json], id: i64) -> &Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_f64) == Some(id as f64))
        .unwrap_or_else(|| panic!("no response with id {id}: {responses:?}"))
}

fn ok(r: &Json) -> &Json {
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    r.get("result").expect("ok response has a result")
}

fn err(r: &Json) -> &Json {
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
    r.get("error").expect("error response has an error")
}

#[test]
fn round_trip_over_stdio_covers_every_op() {
    let engine = engine();
    // An inline function request: serialize a real kernel's IR through
    // the serdes wire format.
    let dot = vegen_kernels::find("pmaddwd").unwrap();
    let inline = vegen_engine::serdes::function_to_json(&(dot.build)()).render();
    let script = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        r#"{"op":"ping","id":1}"#,
        r#"{"op":"kernels","id":2}"#,
        r#"{"op":"compile","id":3,"kernel":"int32x8","beam":4}"#,
        format_args!(r#"{{"op":"compile","id":4,"function":{inline},"beam":4}}"#),
        r#"{"op":"metrics","id":5}"#,
    );
    let (responses, summary) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(responses.len(), 5, "{responses:?}");
    assert_eq!(summary.requests, 5);
    assert_eq!(summary.compiles, 2);
    assert_eq!(summary.protocol_errors, 0);

    assert_eq!(ok(by_id(&responses, 1)).get("pong").and_then(Json::as_bool), Some(true));

    let kernels = ok(by_id(&responses, 2)).get("kernels").unwrap().as_arr().unwrap();
    assert_eq!(kernels.len(), vegen_kernels::all().len());
    assert!(kernels.iter().any(|k| k.as_str() == Some("pmaddwd")));

    for id in [3, 4] {
        let result = ok(by_id(&responses, id));
        assert_eq!(result.get("failed").and_then(Json::as_bool), Some(false), "{result:?}");
        assert_eq!(result.get("rung").and_then(Json::as_str), Some("primary"));
        assert!(result.get("faults").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(result.get("verify_error"), Some(&Json::Null));
        let cycles = result.get("cycles").expect("successful compile reports cycles");
        assert!(cycles.get("vegen").unwrap().as_f64().unwrap() > 0.0);
        assert!(result.get("speedup_scalar").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(result.get("hash").unwrap().as_str().map(str::len), Some(32));
    }
    assert_eq!(ok(by_id(&responses, 3)).get("name").and_then(Json::as_str), Some("int32x8"));
    assert_eq!(ok(by_id(&responses, 4)).get("name").and_then(Json::as_str), Some("pmaddwd"));

    // The metrics snapshot is read *after* both compiles were admitted
    // but maybe before they ran; the lifetime counters on the shared
    // engine must still be coherent by the time the daemon has drained.
    let metrics = ok(by_id(&responses, 5));
    assert!(metrics.get("counters").unwrap().get("compilations").is_some());
    let queue = metrics.get("queue").unwrap();
    assert_eq!(queue.get("capacity").and_then(Json::as_f64), Some(64.0));
    assert_eq!(metrics.get("disk"), Some(&Json::Null), "no cache dir configured");
    assert_eq!(engine.counters().compilations, 2);
}

#[test]
fn protocol_errors_are_typed_and_do_not_kill_the_daemon() {
    let engine = engine();
    let script = concat!(
        "this is not json\n",
        r#"{"op":"frobnicate","id":1}"#,
        "\n",
        r#"{"op":"compile","id":2}"#,
        "\n",
        r#"{"op":"compile","id":3,"kernel":"no-such-kernel"}"#,
        "\n",
        r#"{"op":"compile","id":4,"kernel":"pmaddwd","target":"Z80"}"#,
        "\n",
        r#"{"op":"ping","id":5}"#,
        "\n",
    );
    let (responses, summary) = drive(&engine, &ServeConfig::default(), script);
    assert_eq!(responses.len(), 6);
    assert_eq!(summary.protocol_errors, 5);
    assert_eq!(summary.compiles, 0);

    // The unparseable line still gets an answer, with a null id.
    let unparseable = responses
        .iter()
        .find(|r| r.get("id") == Some(&Json::Null))
        .expect("unparseable line is answered");
    assert!(err(unparseable).get("message").unwrap().as_str().unwrap().contains("unparseable"));

    for (id, needle) in
        [(1, "unknown op"), (2, "exactly one of"), (3, "unknown kernel"), (4, "unknown target")]
    {
        let e = err(by_id(&responses, id));
        assert_eq!(e.get("stage").and_then(Json::as_str), Some("admission"));
        assert_eq!(e.get("tag").and_then(Json::as_str), Some("protocol"));
        assert!(e.get("message").unwrap().as_str().unwrap().contains(needle), "id {id}: {e:?}");
    }
    // And the daemon kept serving afterwards.
    ok(by_id(&responses, 5));
}

#[test]
fn zero_deadline_expires_in_the_queue_with_a_typed_error() {
    let engine = engine();
    let script = r#"{"op":"compile","id":1,"kernel":"pmaddwd","deadline_ms":0}"#.to_string() + "\n";
    let (responses, summary) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(responses.len(), 1);
    assert_eq!(summary.expired, 1);
    assert_eq!(summary.compiles, 0);
    let e = err(&responses[0]);
    assert_eq!(e.get("stage").and_then(Json::as_str), Some("admission"));
    assert_eq!(e.get("tag").and_then(Json::as_str), Some("deadline"));
    // Nothing reached the engine.
    assert_eq!(engine.counters().compilations, 0);
}

#[test]
fn full_queue_sheds_with_a_typed_overloaded_error() {
    let engine = engine();
    let cfg = ServeConfig { queue_capacity: 1, ..Default::default() };
    // The first compile occupies the dispatcher; with capacity 1, at most
    // one more can wait — the rest of the burst must shed.
    let burst: String = (1..=8)
        .map(|i| format!("{{\"op\":\"compile\",\"id\":{i},\"kernel\":\"pmaddwd\",\"beam\":4}}\n"))
        .collect();
    let (responses, summary) = drive(&engine, &cfg, &burst);
    assert_eq!(responses.len(), 8, "every request is answered: {responses:?}");
    assert_eq!(summary.compiles + summary.shed, 8);
    assert!(summary.shed >= 1, "a 1-deep queue cannot absorb an 8-burst: {summary:?}");
    let shed: Vec<&Json> =
        responses.iter().filter(|r| r.get("ok").and_then(Json::as_bool) == Some(false)).collect();
    assert_eq!(shed.len() as u64, summary.shed);
    for r in shed {
        let e = err(r);
        assert_eq!(e.get("stage").and_then(Json::as_str), Some("admission"));
        assert_eq!(e.get("tag").and_then(Json::as_str), Some("overloaded"));
        assert!(e.get("message").unwrap().as_str().unwrap().contains("queue full"));
    }
}

#[test]
fn shutdown_drains_every_admitted_job_before_exiting() {
    let engine = engine();
    let names = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];
    let mut script: String = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!("{{\"op\":\"compile\",\"id\":{},\"kernel\":\"{n}\",\"beam\":4}}\n", i + 1)
        })
        .collect();
    script.push_str(r#"{"op":"shutdown","id":99}"#);
    script.push('\n');
    // Anything after shutdown on the same stream is never read.
    script.push_str(r#"{"op":"ping","id":100}"#);
    script.push('\n');

    let (responses, summary) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(summary.compiles, names.len() as u64, "drain answers every admitted job");
    assert_eq!(summary.shed, 0);
    // shutdown ack + one response per compile; the post-shutdown ping is
    // unanswered.
    assert_eq!(responses.len(), names.len() + 1);
    assert!(responses.iter().all(|r| r.get("id").and_then(Json::as_f64) != Some(100.0)));
    assert_eq!(ok(by_id(&responses, 99)).get("draining").and_then(Json::as_bool), Some(true));
    for (i, n) in names.iter().enumerate() {
        let result = ok(by_id(&responses, (i + 1) as i64));
        assert_eq!(result.get("name").and_then(Json::as_str), Some(*n));
        assert_eq!(result.get("failed").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn serve_sessions_share_the_engine_cache() {
    let engine = engine();
    let script = r#"{"op":"compile","id":1,"kernel":"pmaddwd","beam":4}"#.to_string() + "\n";
    let (first, _) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(ok(&first[0]).get("cache").and_then(Json::as_str), Some("miss"));
    let compiled = engine.counters().compilations;
    assert!(compiled >= 1);

    // A second daemon session over the same engine is served from the
    // in-memory cache without recompiling.
    let (second, _) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(ok(&second[0]).get("cache").and_then(Json::as_str), Some("memory"));
    assert_eq!(engine.counters().compilations, compiled);
}

#[test]
fn unix_socket_serves_multiple_connections_and_drains_on_shutdown() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let engine = engine();
    let path = std::env::temp_dir().join(format!("vegen-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    std::thread::scope(|scope| {
        let daemon = {
            let (engine, path) = (&engine, path.clone());
            scope.spawn(move || {
                vegen_engine::serve::serve_socket(engine, &ServeConfig::default(), &path)
            })
        };
        // Wait for the socket to come up.
        let connect = || {
            for _ in 0..200 {
                if let Ok(s) = UnixStream::connect(&path) {
                    return s;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            panic!("daemon never bound {}", path.display());
        };

        // First client: a compile it waits out.
        let mut a = connect();
        writeln!(a, r#"{{"op":"compile","id":1,"kernel":"pmaddwd","beam":4}}"#).unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        let mut line = String::new();
        a_reader.read_line(&mut line).unwrap();
        let r = Json::parse(&line).unwrap();
        assert_eq!(ok(&r).get("name").and_then(Json::as_str), Some("pmaddwd"));

        // Second client asks for shutdown; the daemon acks, drains, and
        // exits, unblocking the first client's reader with EOF.
        let mut b = connect();
        writeln!(b, r#"{{"op":"shutdown","id":2}}"#).unwrap();
        let mut b_reader = BufReader::new(b);
        line.clear();
        b_reader.read_line(&mut line).unwrap();
        assert_eq!(
            ok(&Json::parse(&line).unwrap()).get("draining").and_then(Json::as_bool),
            Some(true)
        );

        let summary = daemon.join().expect("daemon must not panic").expect("bind must succeed");
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.compiles, 1);
    });
    assert!(!path.exists(), "socket file is removed on exit");
}

#[test]
fn stdio_binary_smoke_round_trip() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["serve", "--stdio", "--beam", "4", "--no-verify"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must run");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            concat!(
                r#"{"op":"ping","id":1}"#,
                "\n",
                r#"{"op":"compile","id":2,"kernel":"pmaddwd"}"#,
                "\n",
                r#"{"op":"shutdown","id":3}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines.iter().any(|r| r
        .get("result")
        .and_then(|x| x.get("name"))
        .and_then(Json::as_str)
        == Some("pmaddwd")));
    assert!(String::from_utf8_lossy(&output.stderr).contains("drained"));
}

// ---------------------------------------------------------------------------
// Request line bound
// ---------------------------------------------------------------------------

#[test]
fn an_over_long_line_is_refused_and_the_connection_keeps_working() {
    let engine = engine();
    // 17 MiB without a newline, then a valid request on the same stream.
    let mut script = "x".repeat(17 << 20);
    script.push('\n');
    script.push_str("{\"op\":\"ping\",\"id\":7}\n");
    let (responses, summary) = drive(&engine, &ServeConfig::default(), &script);
    assert_eq!(responses.len(), 2, "{responses:?}");
    let e = err(&responses[0]);
    assert_eq!(responses[0].get("id"), Some(&Json::Null));
    assert_eq!(e.get("tag").and_then(Json::as_str), Some("protocol"));
    assert!(text(e, "message").contains("longer than 16777216 bytes"), "{e:?}");
    assert_eq!(ok(by_id(&responses, 7)).get("pong").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.protocol_errors, 1);
    assert_eq!(summary.requests, 1, "only the ping was a request");

    // A line of exactly the cap is read (and then fails as JSON, not as
    // too long); an unterminated over-long tail at EOF is refused too.
    let at_cap = "y".repeat(16 << 20);
    let (responses, _) = drive(&engine, &ServeConfig::default(), &format!("{at_cap}\n{at_cap}z"));
    assert_eq!(responses.len(), 2);
    assert!(text(err(&responses[0]), "message").contains("unparseable request"));
    assert!(text(err(&responses[1]), "message").contains("longer than"));
}

// ---------------------------------------------------------------------------
// Request identity: the alias tier
// ---------------------------------------------------------------------------

/// A compile request for an inline function, as one line.
fn inline_request(id: &str, function_json: &str, rest: &str) -> String {
    format!("{{\"op\":\"compile\",\"id\":{id},\"function\":{function_json}{rest}}}\n")
}

fn pmaddwd_json() -> String {
    function_to_json(&(vegen_kernels::find("pmaddwd").unwrap().build)()).render()
}

#[test]
fn a_verbatim_repeat_is_resolved_by_alias_and_a_respelling_by_hash() {
    let engine = engine();
    let cfg = ServeConfig::default();
    let inline = pmaddwd_json();
    let verbatim = inline_request("1", &inline, ",\"beam\":4");

    let (first, _) = drive(&engine, &cfg, &verbatim);
    let first = ok(&first[0]).clone();
    assert_eq!(text(&first, "cache"), "miss");
    let stats = engine.alias_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1), "{stats:?}");

    // (a) The same bytes again: resolved before parsing, served from
    // memory, and the same answer but for who served it and how fast.
    let (second, _) = drive(&engine, &cfg, &verbatim);
    let second = ok(&second[0]).clone();
    assert_eq!(engine.alias_stats().hits, 1);
    assert_eq!(text(&second, "cache"), "memory");
    let volatile = ["corr", "wall_us", "cache"];
    assert_eq!(without(&first, &volatile), without(&second, &volatile));
    assert_ne!(text(&first, "corr"), text(&second, "corr"), "each request is its own job");

    // (b) The same function spelled differently misses the alias, takes
    // the parse → canonicalize → hash path, and lands on the same entry.
    let respelled = inline_request("2", &respell(&inline, 1), ",\"beam\":4");
    let (third, _) = drive(&engine, &cfg, &respelled);
    let third = ok(&third[0]).clone();
    let stats = engine.alias_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2), "{stats:?}");
    assert_eq!(text(&third, "cache"), "memory");
    assert_eq!(text(&third, "hash"), text(&first, "hash"));
    assert_eq!(engine.counters().compilations, 1, "one function, one compile");
    // Key order and whitespace around the other members are outside the
    // function span: still an alias hit.
    let reordered =
        format!("{{ \"beam\" : 4, \"function\":{inline} ,\"id\":3,\"op\":\"compile\" }}\n");
    let (fourth, _) = drive(&engine, &cfg, &reordered);
    assert_eq!(text(ok(&fourth[0]), "cache"), "memory");
    assert_eq!(engine.alias_stats().hits, 2);

    // (g) Naming the suite kernel is a third spelling of the same thing:
    // first sight misses, the repeat is resolved, the address agrees.
    let named = "{\"op\":\"compile\",\"id\":5,\"kernel\":\"pmaddwd\",\"beam\":4}\n";
    let (fifth, _) = drive(&engine, &cfg, named);
    assert_eq!(engine.alias_stats().hits, 2);
    let (sixth, _) = drive(&engine, &cfg, named);
    assert_eq!(engine.alias_stats().hits, 3);
    for r in [&fifth[0], &sixth[0]] {
        assert_eq!(text(ok(r), "hash"), text(&first, "hash"));
        assert_eq!(text(ok(r), "cache"), "memory");
        assert_eq!(text(ok(r), "name"), "pmaddwd");
    }
    assert_eq!(engine.counters().compilations, 1);
    assert_eq!(engine.alias_stats().fallbacks, 0);
}

#[test]
fn the_same_bytes_under_other_settings_never_cross_serve() {
    use vegen::driver::PipelineConfig;
    use vegen_isa::TargetIsa;
    let engine = engine();
    let cfg = ServeConfig::default();
    let inline = pmaddwd_json();
    let variants = [
        ",\"beam\":4",
        ",\"beam\":2",
        ",\"beam\":4,\"target\":\"sse4\"",
        ",\"beam\":4,\"decisions\":true",
    ];
    let script: String = variants
        .iter()
        .enumerate()
        .map(|(i, rest)| inline_request(&i.to_string(), &inline, rest))
        .collect();

    let (cold, _) = drive(&engine, &cfg, &script);
    let hashes: Vec<String> =
        (0..variants.len()).map(|i| text(ok(by_id(&cold, i as i64)), "hash").to_string()).collect();
    for (i, hash) in hashes.iter().enumerate() {
        assert_eq!(text(ok(by_id(&cold, i as i64)), "cache"), "miss", "variant {i}");
        assert_eq!(
            hashes.iter().filter(|h| *h == hash).count(),
            1,
            "variant {i} shares an address"
        );
    }
    assert_eq!(engine.alias_stats().hits, 0, "same bytes, different settings: no hit");
    assert_eq!(engine.counters().compilations, variants.len() as u64);

    // Each setting's repeat resolves to its own address.
    let (warm, _) = drive(&engine, &cfg, &script);
    assert_eq!(engine.alias_stats().hits, variants.len() as u64);
    for (i, hash) in hashes.iter().enumerate() {
        let r = ok(by_id(&warm, i as i64));
        assert_eq!((text(r, "hash"), text(r, "cache")), (hash.as_str(), "memory"), "variant {i}");
    }
    assert_eq!(engine.counters().compilations, variants.len() as u64);

    // `decisions: true` still gets the entry that carries its log, and the
    // plain request the one without.
    let function = (vegen_kernels::find("pmaddwd").unwrap().build)();
    let plain = PipelineConfig::new(TargetIsa::avx2(), 4);
    let mut logged = plain.clone();
    logged.beam.log_decisions = true;
    for (pipeline, variant, has_log) in [(&plain, 0, false), (&logged, 3, true)] {
        let r = engine.compile_one("pmaddwd", &function, pipeline);
        assert!(r.cache_hit);
        assert_eq!(r.hash.unwrap().hex(), hashes[variant]);
        assert_eq!(r.kernel.unwrap().selection.decisions.is_some(), has_log);
    }
}

/// The event-log lines of one correlation id.
fn chain(log: &Path, corr: &str) -> Vec<Json> {
    std::fs::read_to_string(log)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|e| e.get("corr").and_then(Json::as_str) == Some(corr))
        .collect()
}

#[test]
fn an_alias_hit_with_the_entry_gone_from_both_tiers_recompiles_under_one_corr() {
    let dir = temp_dir("gone");
    let (cache_dir, log) = (dir.join("cache"), dir.join("events.ndjson"));
    // A one-slot memory tier: compiling anything else evicts the victim.
    let engine = Engine::new(EngineConfig {
        threads: 1,
        verify_trials: 4,
        cache_capacity: 1,
        cache_dir: Some(cache_dir.clone()),
        event_log: Some(log.clone()),
        ..Default::default()
    });
    let cfg = ServeConfig::default();
    let victim = "{\"op\":\"compile\",\"id\":1,\"kernel\":\"pmaddwd\",\"beam\":4}\n";
    let other = "{\"op\":\"compile\",\"id\":2,\"kernel\":\"int32x8\",\"beam\":4}\n";

    let (first, _) = drive(&engine, &cfg, victim);
    let hash = text(ok(&first[0]), "hash").to_string();
    let entry = cache_dir.join(format!("{hash}.json"));
    assert!(entry.exists());

    for (round, damage) in ["deleted", "truncated"].into_iter().enumerate() {
        drive(&engine, &cfg, other);
        match damage {
            "deleted" => std::fs::remove_file(&entry).unwrap(),
            _ => {
                let bytes = std::fs::read(&entry).unwrap();
                std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
            }
        }
        let before = engine.alias_stats();
        let compiled = engine.counters().compilations;
        let (again, summary) = drive(&engine, &cfg, victim);
        let result = ok(&again[0]);
        let after = engine.alias_stats();
        assert_eq!(after.hits, before.hits + 1, "{damage}: the bytes were known");
        assert_eq!(after.fallbacks, round as u64 + 1, "{damage}: but the address was nowhere");
        assert_eq!(summary.compiles, 1);
        assert_eq!(engine.counters().compilations, compiled + 1, "{damage}: recompiled");
        assert_eq!(text(result, "cache"), "miss");
        assert_eq!(text(result, "rung"), "primary");
        assert_eq!(text(result, "hash"), hash);
        assert_eq!(result.get("failed"), Some(&Json::Bool(false)));
        let fault_tags: Vec<&str> = result
            .get("faults")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|f| text(f, "tag"))
            .collect();
        // A missing file is a plain miss; a corrupt one is reported, as
        // it is on the hashed path.
        assert_eq!(fault_tags, if damage == "deleted" { vec![] } else { vec!["cache_io"] });
        assert_eq!(engine.counters().cache_io_errors, round as u64);

        // One job, one chain: admitted → started → … → one `completed`.
        let events = chain(&log, text(result, "corr"));
        let kinds: Vec<&str> = events.iter().map(|e| text(e, "event")).collect();
        assert_eq!(kinds[..2], ["admitted", "started"], "{kinds:?}");
        assert_eq!(kinds.iter().filter(|k| **k == "completed").count(), 1, "{kinds:?}");
        assert_eq!(kinds.last(), Some(&"completed"));
        assert_eq!(text(events.last().unwrap(), "cache"), "miss");
        assert_eq!(kinds.contains(&"faulted"), damage == "truncated");
        assert!(entry.exists(), "{damage}: the recompile wrote the entry back");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ids_of_every_json_type_are_echoed_as_sent() {
    let engine = engine();
    let inline = pmaddwd_json();
    let ids = ["7", "-2.5", "\"abc\"", "{\"a\":[1,null,\"x\"]}", "[1,2]", "true", "null"];
    // Through the parsing path first, then twice resolved by alias (the
    // id sits outside the function span): ids are echoed alike.
    drive(&engine, &ServeConfig::default(), &inline_request("0", &inline, ",\"beam\":4"));
    for round in 0..2 {
        let mut script: String =
            ids.iter().map(|id| inline_request(id, &inline, ",\"beam\":4")).collect();
        script.push_str(&format!("{{\"op\":\"compile\",\"function\":{inline},\"beam\":4}}\n"));
        script.push_str("{\"op\":\"ping\",\"id\":{\"nested\":{\"k\":\"v\"}}}\n{\"op\":\"ping\"}\n");
        let out = SharedBuf::default();
        serve_lines(&engine, &ServeConfig::default(), Cursor::new(script), out.clone());
        let mut lines = out.lines();
        assert_eq!(lines.len(), ids.len() + 3);
        for id in ids.iter().chain(&["{\"nested\":{\"k\":\"v\"}}"]) {
            let prefix = format!("{{\"id\":{id},\"ok\":true,");
            let at = lines.iter().position(|l| l.starts_with(&prefix));
            lines.remove(at.unwrap_or_else(|| panic!("round {round}: id {id} not echoed")));
        }
        // The two requests without an id are answered with `null`.
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with("{\"id\":null,\"ok\":true,")), "{lines:?}");
    }
    assert_eq!(engine.alias_stats().hits, 2 * (ids.len() as u64 + 1), "both rounds were resolved");
    assert_eq!(engine.counters().compilations, 1);
}

#[test]
fn the_alias_table_stays_inside_its_byte_bound() {
    use vegen_engine::cache::{ALIAS_BYTES_PER_CACHE_SLOT, ALIAS_MAX_ENTRY_DIVISOR};
    // A one-slot memory tier bounds the table at one slot's worth of bytes.
    let engine = Engine::new(EngineConfig {
        threads: 1,
        verify_trials: 2,
        cache_capacity: 1,
        ..Default::default()
    });
    let cfg = ServeConfig { queue_capacity: 4096, ..Default::default() };
    let budget = engine.alias_stats().budget;
    assert_eq!(budget, ALIAS_BYTES_PER_CACHE_SLOT);

    // One small function under many names: each is new bytes for the
    // table (and, the name being part of the printed form, a compile).
    let mut function = (vegen_kernels::find("max_pd").unwrap().build)();
    let spelled = |function: &mut vegen_ir::Function, i: usize| {
        function.name = format!("spelling_{i:04}");
        function_to_json(function).render()
    };
    let one = spelled(&mut function, 0).len();
    assert!(one < budget / ALIAS_MAX_ENTRY_DIVISOR, "{one} B is small enough to remember");
    let fit = budget / one;
    let count = 10 * fit;
    let script: String = (0..count)
        .map(|i| inline_request(&i.to_string(), &spelled(&mut function, i), ""))
        .collect();
    let (responses, summary) = drive(&engine, &cfg, &script);
    assert_eq!((responses.len(), summary.compiles, summary.shed), (count, count as u64, 0));
    let stats = engine.alias_stats();
    assert!(stats.bytes <= budget, "{stats:?}");
    assert!(stats.entries <= fit && stats.entries >= fit / 2, "{stats:?} vs {fit} that fit");
    assert_eq!(stats.evictions as usize + stats.entries, count, "{stats:?}");

    // A span over the per-entry limit is served, and not remembered.
    let big = function_to_json(&(vegen_kernels::find("idct4").unwrap().build)()).render();
    assert!(big.len() > budget / ALIAS_MAX_ENTRY_DIVISOR, "{} B", big.len());
    let request = inline_request("0", &big, ",\"beam\":2");
    for cache in ["miss", "memory"] {
        let before = engine.alias_stats();
        let (responses, _) = drive(&engine, &cfg, &request);
        assert_eq!(text(ok(&responses[0]), "cache"), cache);
        let after = engine.alias_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
        assert_eq!((after.entries, after.bytes), (before.entries, before.bytes));
    }
}

// ---------------------------------------------------------------------------
// Replay equivalence: the alias tier is invisible except in time
// ---------------------------------------------------------------------------

#[test]
fn a_mixed_schedule_replays_identically_with_and_without_alias_hits() {
    use vegen::driver::PipelineConfig;
    use vegen_ir::rng::XorShift;
    use vegen_isa::TargetIsa;
    const SEED: u64 = 0x5e1f;
    const ON_DISK: usize = 24; // the first HOT of them are the hot set
    const HOT: usize = 6;
    const NEVER_SEEN: usize = 6;
    const REQUESTS: usize = 400;
    const MEMORY_TIER: usize = 8; // holds the hot set, not the disk set

    let functions: Vec<String> = (0..ON_DISK + NEVER_SEEN)
        .map(|i| function_to_json(&vegen_kernels::gen::generate(SEED, i as u64).function).render())
        .collect();
    let dir = temp_dir("replay");
    let engine_over = |cache_dir: PathBuf| {
        Engine::new(EngineConfig {
            threads: 1,
            beam_threads: 1,
            verify_trials: 2,
            cache_capacity: MEMORY_TIER,
            cache_dir: Some(cache_dir),
            ..Default::default()
        })
    };
    let cfg = ServeConfig { beam_width: 4, ..Default::default() };

    // One pre-populated disk cache, copied per run.
    let seed_dir = dir.join("seed");
    let populate = engine_over(seed_dir.clone());
    let pipeline = PipelineConfig::new(TargetIsa::avx2(), cfg.beam_width);
    for i in 0..ON_DISK {
        let function = vegen_kernels::gen::generate(SEED, i as u64).function;
        assert!(populate.compile_one(&function.name, &function, &pipeline).kernel.is_some());
    }
    assert_eq!(populate.counters().disk_stores, ON_DISK as u64);

    // The schedule: never-seen kernels once each at random positions, the
    // rest 70% hot set / 30% disk-only.
    let mut rng = XorShift::new(SEED);
    let mut picks = vec![usize::MAX; REQUESTS];
    for fresh in 0..NEVER_SEEN {
        let at = std::iter::repeat_with(|| rng.below(REQUESTS))
            .find(|at| picks[*at] == usize::MAX)
            .unwrap();
        picks[at] = ON_DISK + fresh;
    }
    for pick in picks.iter_mut().filter(|p| **p == usize::MAX) {
        *pick = if rng.below(10) < 7 { rng.below(HOT) } else { HOT + rng.below(ON_DISK - HOT) };
    }

    let run = |tag: &str, spell: &dyn Fn(usize, &str) -> String| {
        let cache_dir = dir.join(tag);
        std::fs::create_dir_all(&cache_dir).unwrap();
        for entry in std::fs::read_dir(&seed_dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), cache_dir.join(entry.file_name())).unwrap();
        }
        let engine = engine_over(cache_dir);
        let lines: Vec<String> = picks
            .iter()
            .enumerate()
            .map(|(position, &pick)| {
                let line =
                    inline_request(&position.to_string(), &spell(position, &functions[pick]), "");
                line.trim_end().to_string()
            })
            .collect();
        let (out, summary) = drive_closed_loop(&engine, &cfg, lines);
        let answers: Vec<Json> = out
            .responses()
            .iter()
            .map(|r| {
                let result = without(ok(r), &["corr", "wall_us"]);
                Json::Obj(vec![
                    ("id".into(), r.get("id").unwrap().clone()),
                    ("result".into(), result),
                ])
            })
            .collect();
        let state = (engine.cache_stats(), engine.counters(), engine.disk_stats(), summary);
        (answers, state, engine.alias_stats())
    };

    let (verbatim, verbatim_state, verbatim_alias) = run("verbatim", &|_, f| f.to_string());
    // Every request spelled its own way: the alias tier never hits.
    let (respelled, respelled_state, respelled_alias) =
        run("respelled", &|position, f| respell(f, position + 1));

    assert_eq!(verbatim.len(), REQUESTS);
    assert_eq!(verbatim, respelled, "same answers, request for request");
    assert_eq!(verbatim_state, respelled_state, "same cache stats, counters and summary");
    assert_eq!(respelled_alias.hits, 0);
    assert_eq!(verbatim_alias.hits as usize, REQUESTS - (ON_DISK + NEVER_SEEN), "every repeat");
    assert_eq!(verbatim_alias.fallbacks, 0);
    // The schedule really was mixed: memory hits, disk hits, compiles.
    let (cache, counters, _, summary) = verbatim_state;
    assert_eq!(counters.compilations, NEVER_SEEN as u64);
    assert!(counters.disk_hits > ON_DISK as u64, "disk-only kernels were re-read: {counters:?}");
    assert!(cache.hits > 200 && cache.evictions > 0, "{cache:?}");
    assert_eq!((summary.compiles, summary.shed), (REQUESTS as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
