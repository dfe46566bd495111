//! `serve_mixed`: NDJSON `compile` requests over a Unix socket to an
//! in-process `serve::serve_socket` daemon, closed loop, one connection.
//!
//! Each pass gets a fresh engine (memory cache of 64) over a fresh copy of
//! a pre-populated disk cache, and replays one seeded schedule: 70% of
//! requests go to a 32-kernel hot set (memory hits once touched), 28.75%
//! to the other kernels on disk (disk hits: read + decode), 1.25% to
//! kernels never seen before (cold compiles with a write-through store;
//! enough of them that p99 lies among the misses, few enough that selection
//! stays near a third of the pass). The median and p95 op are pure hit
//! path: JSON, canonicalize, content hash, cache, serdes, disk, queue. A
//! change to `vegen-core` should not move them.

use crate::cold::Corpus;
use crate::common::{
    fnv64, fresh_dir, mix, pin_to_last_allowed_cpu, scratch_path, PassClock, RunOpts, RunResult,
    Timings, SETUP_REPS,
};
use crate::layers::{
    compile_layered, engine_desc, pipeline, set_quality_metrics, setup_target_desc, LayerCounts,
    VERIFY_TRIALS,
};
use crate::meta::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vegen::driver::{CompiledKernel, PipelineConfig, StageTimes};
use vegen_codegen::check_equivalence;
use vegen_engine::cache::content_hash;
use vegen_engine::diskcache::{isa_fingerprint, DiskCache};
use vegen_engine::serve::{serve_socket, ServeConfig, ServeSummary};
use vegen_engine::{serdes, Engine, EngineConfig};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::rng::XorShift;
use vegen_ir::Function;
use vegen_trace::json::Json;

/// Workload shape. The disk set is several times the memory cache, the hot
/// set fits in it, and one pass takes between one and two seconds.
struct Shape {
    disk_kernels: usize,
    hot_kernels: usize,
    requests: usize,
    never_seen: usize,
}

const FULL: Shape = Shape { disk_kernels: 240, hot_kernels: 32, requests: 4000, never_seen: 50 };
const SMOKE: Shape = Shape { disk_kernels: 8, hot_kernels: 3, requests: 40, never_seen: 2 };
const MEMORY_CACHE: usize = 64;
/// Of the requests for kernels on disk (98.75% of all), the share that
/// goes to the hot set, so that it gets 70% of all requests.
const HOT_PER_MILLE_OF_DISK: usize = 709;
/// Kernels sampled by the hit-path probes of a traced run.
const PROBE_KERNELS: usize = 64;

/// A kernel the daemon can be asked for, and what it must answer.
struct Served {
    function: Function,
    /// The serdes `function` document, rendered once.
    function_json: String,
    /// Content hash (hex) and modeled vegen cycles, known for kernels on
    /// disk; filled in for never-seen ones from the first answer.
    expected: Option<(String, f64)>,
    /// Fingerprint of the printed vegen program at pre-population.
    listing: u64,
}

impl Served {
    fn new(function: Function) -> Served {
        let function_json = serdes::function_to_json(&function).render();
        Served { function, function_json, expected: None, listing: 0 }
    }
}

/// One scheduled request: an index into the disk set or the never-seen
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    Disk(usize),
    New(usize),
}

/// Everything a pass replays: the kernels and the order they are asked
/// for. Every pass of a run replays it against fresh caches, so passes do
/// identical work and differ only by noise.
struct Traffic {
    /// Pre-populated on disk; the first `hot_kernels` are the hot set.
    disk: Vec<Served>,
    /// On no disk and in no memory when a pass starts.
    never_seen: Vec<Served>,
    picks: Vec<Pick>,
}

impl Traffic {
    fn served(&self, pick: Pick) -> &Served {
        match pick {
            Pick::Disk(i) => &self.disk[i],
            Pick::New(i) => &self.never_seen[i],
        }
    }

    fn served_mut(&mut self, pick: Pick) -> &mut Served {
        match pick {
            Pick::Disk(i) => &mut self.disk[i],
            Pick::New(i) => &mut self.never_seen[i],
        }
    }
}

/// The request schedule: a function of the seed only.
fn schedule(seed: u64, shape: &Shape) -> Vec<Pick> {
    let mut rng = XorShift::new(mix(seed, 0x5e4e_0000));
    let mut picks: Vec<Option<Pick>> = vec![None; shape.requests];
    // Never-seen kernels land on distinct random positions, once each.
    let mut placed = 0;
    while placed < shape.never_seen {
        let at = rng.below(shape.requests);
        if picks[at].is_none() {
            picks[at] = Some(Pick::New(placed));
            placed += 1;
        }
    }
    let cold = shape.disk_kernels - shape.hot_kernels;
    picks
        .into_iter()
        .map(|p| {
            p.unwrap_or_else(|| {
                if rng.below(1000) < HOT_PER_MILLE_OF_DISK {
                    Pick::Disk(rng.below(shape.hot_kernels))
                } else {
                    Pick::Disk(shape.hot_kernels + rng.below(cold))
                }
            })
        })
        .collect()
}

/// One engine thread: with one closed-loop connection there is never more
/// than one job to run.
fn engine_config(cache_dir: PathBuf) -> EngineConfig {
    EngineConfig {
        threads: 1,
        beam_threads: 1,
        cache_capacity: MEMORY_CACHE,
        cache_dir: Some(cache_dir),
        ..EngineConfig::default()
    }
}

/// Compile every disk kernel through an engine writing to `dir`, recording
/// what the daemon must later answer for each.
fn prepopulate(
    dir: &Path,
    disk: &mut [Served],
    cfg: &PipelineConfig,
) -> Result<Vec<Arc<CompiledKernel>>, String> {
    let engine = Engine::new(engine_config(dir.to_path_buf()));
    if let Some(e) = engine.disk_open_error() {
        return Err(format!("disk cache {}: {e}", dir.display()));
    }
    let mut compiled = Vec::with_capacity(disk.len());
    for s in disk.iter_mut() {
        let r = engine.compile_one(&s.function.name, &s.function, cfg);
        let (Some(k), Some(hash), None) = (&r.kernel, r.hash, &r.verify_error) else {
            return Err(format!("pre-populating {}: no verified kernel", s.function.name));
        };
        s.expected = Some((hash.hex(), k.cycles().2));
        s.listing = fnv64(vegen_vm::listing(&k.vegen).as_bytes());
        compiled.push(k.clone());
    }
    if engine.counters().disk_stores != disk.len() as u64 {
        return Err("pre-population did not store every kernel".into());
    }
    Ok(compiled)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// One client connection: the write half and a buffered read half.
struct Connection {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    /// Connect, retrying while the daemon is still binding the socket.
    fn open(path: &Path) -> Result<Connection, String> {
        let give_up = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() > give_up => {
                    return Err(format!("connect {}: {e}", path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone socket: {e}"))?);
        Ok(Connection { stream, reader })
    }

    /// Send one line, read one line.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        let n = self.reader.read_line(&mut answer).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(answer)
    }
}

/// Latency (µs) of `n` pings on one connection to an idle daemon.
fn ping_floor(socket: &Path, n: usize) -> Result<Vec<f64>, String> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut connection = Connection::open(socket)?;
    (0..n)
        .map(|i| {
            let t = Instant::now();
            connection.round_trip(&format!("{{\"op\":\"ping\",\"id\":{i}}}\n"))?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// What the client saw in one pass.
#[derive(Default)]
struct ClientLog {
    wall_s: f64,
    /// Per request in schedule order: `(latency ms, response line)`.
    answers: Vec<(f64, String)>,
    request_bytes: usize,
    error: Option<String>,
}

/// The closed-loop client: the schedule, one request at a time.
fn client(socket: &Path, traffic: &Traffic, tr: &mut Tracer, pass: u32) -> ClientLog {
    let mut log = ClientLog::default();
    let mut connection = match Connection::open(socket) {
        Ok(c) => c,
        Err(e) => {
            log.error = Some(e);
            return log;
        }
    };
    let t_pass = Instant::now();
    for (position, pick) in traffic.picks.iter().enumerate() {
        tr.set_op(pass, position as u64);
        let op = tr.enter("op");
        let t = Instant::now();
        let line = tr.timed("serve.render_request", || {
            format!(
                "{{\"op\":\"compile\",\"id\":{position},\"function\":{}}}\n",
                traffic.served(*pick).function_json
            )
        });
        let answer = tr.timed("serve.roundtrip", || connection.round_trip(&line));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.exit(op);
        log.request_bytes += line.len();
        match answer {
            Ok(a) => log.answers.push((ms, a)),
            Err(e) => {
                log.error = Some(e);
                break;
            }
        }
    }
    log.wall_s = t_pass.elapsed().as_secs_f64();
    log
}

/// Engine-side counts of one pass, read from the engine after the daemon
/// drained.
#[derive(Default, Clone, Copy)]
struct PassCounters {
    mem_hits: u64,
    disk_hits: u64,
    misses: u64,
    disk_stores: u64,
    evicted: u64,
    shed: u64,
}

struct PassOutcome {
    log: ClientLog,
    counters: PassCounters,
    ping_us: Vec<f64>,
}

/// Run one pass: daemon up on its own thread, the client through the
/// schedule on this one, daemon down. The engine outlives the daemon so
/// the caller can inspect its caches.
fn serve_pass(
    engine: &Engine,
    socket: &Path,
    traffic: &Traffic,
    tr: &mut Tracer,
    pass: u32,
    pings: usize,
) -> Result<PassOutcome, String> {
    let serve_cfg = ServeConfig::default();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve_socket(engine, &serve_cfg, socket));
        // The protocol floor, on an idle daemon before the schedule.
        let ping_us = ping_floor(socket, pings);
        let log = client(socket, traffic, tr, pass);
        // Whatever happened above, the daemon is asked to stop before its
        // thread is joined: an error must not leave the run hanging.
        let down = Connection::open(socket)
            .and_then(|mut c| c.round_trip("{\"op\":\"shutdown\",\"id\":0}\n"));
        let summary: ServeSummary = daemon.join().expect("daemon thread panicked")?;
        let ping_us = ping_us?;
        down?;
        let (cache, counters) = (engine.cache_stats(), engine.counters());
        Ok(PassOutcome {
            log,
            ping_us,
            counters: PassCounters {
                mem_hits: cache.hits,
                disk_hits: counters.disk_hits,
                misses: counters.compilations,
                disk_stores: counters.disk_stores,
                evicted: cache.evictions,
                shed: summary.shed,
            },
        })
    })
}

/// Check one response against what the schedule says it must be. Returns
/// the cache class on success.
fn check_answer(pick: Pick, served: &mut Served, answer: &str) -> Result<String, String> {
    let name = &served.function.name;
    let doc = Json::parse(answer).map_err(|e| format!("{name}: unparseable response: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{name}: not ok: {}", answer.trim()));
    }
    let result = doc.get("result").ok_or_else(|| format!("{name}: no result"))?;
    let text = |key: &str| result.get(key).and_then(Json::as_str).unwrap_or("");
    if text("rung") != "primary" || result.get("verify_error") != Some(&Json::Null) {
        return Err(format!(
            "{name}: rung {:?}, verify_error {:?}",
            text("rung"),
            result.get("verify_error")
        ));
    }
    let class = text("cache").to_string();
    match pick {
        Pick::New(_) if class != "miss" => {
            return Err(format!("{name}: never seen before, yet served from {class}"));
        }
        Pick::Disk(_) if class == "miss" => {
            return Err(format!("{name}: pre-populated on disk, yet compiled cold"));
        }
        _ => {}
    }
    let vegen_cycles =
        result.get("cycles").and_then(|c| c.get("vegen")).and_then(Json::as_f64).unwrap_or(-1.0);
    let got = (text("hash").to_string(), vegen_cycles);
    match &served.expected {
        Some(expected) if *expected != got => {
            Err(format!("{name}: answered {got:?}, expected {expected:?}"))
        }
        Some(_) => Ok(class),
        None => {
            served.expected = Some(got);
            Ok(class)
        }
    }
}

/// After pass 0's daemon is down, ask its engine for every kernel again:
/// each must come from a cache, print as it did at pre-population, and
/// agree with the independent scalar interpreter.
fn replay_checks(
    engine: &Engine,
    cfg: &PipelineConfig,
    traffic: &Traffic,
    violations: &mut Vec<String>,
) -> Vec<Arc<CompiledKernel>> {
    let mut fresh_kernels = Vec::new();
    let all = traffic.disk.iter().map(|s| (s, true));
    for (s, on_disk) in all.chain(traffic.never_seen.iter().map(|s| (s, false))) {
        let name = &s.function.name;
        let r = engine.compile_one(name, &s.function, cfg);
        let Some(k) = r.kernel else {
            violations.push(format!("{name}: replay produced no kernel"));
            continue;
        };
        if !r.cache_hit {
            violations.push(format!("{name}: replay after the pass was not a cache hit"));
        }
        let expected = s.expected.as_ref().map(|(h, c)| (h.as_str(), *c));
        if expected != Some((r.hash.map_or(String::new(), |h| h.hex()).as_str(), k.cycles().2)) {
            violations.push(format!("{name}: replay disagrees with the daemon's answer"));
        }
        if on_disk && fnv64(vegen_vm::listing(&k.vegen).as_bytes()) != s.listing {
            violations.push(format!("{name}: disk replay prints a different program"));
        }
        if !on_disk {
            if let Err(e) = check_equivalence(&s.function, &k.vegen, VERIFY_TRIALS) {
                violations.push(format!("{name}: diverges from the input function: {e}"));
            }
            fresh_kernels.push(k);
        }
    }
    fresh_kernels
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    // A request crosses four threads (client, reader, dispatcher, pool
    // worker). Across cores each hand-off is an inter-processor wake-up,
    // whose cost in a virtual machine depends on what ran *before* this
    // process (measured here: median op 0.16 ms or 0.45 ms, flipping with
    // the previous workload). On one core a hand-off is a context switch
    // and the op time is the software's own.
    let pinned = pin_to_last_allowed_cpu();
    let shape = if opts.smoke { &SMOKE } else { &FULL };
    let cfg = pipeline();
    let mut compiled = Vec::new();
    let mut timings = Timings::default();
    let mut traffic =
        Traffic { disk: Vec::new(), never_seen: Vec::new(), picks: schedule(opts.seed, shape) };
    let seed_dir = scratch_path(opts, "seedcache");
    let mut generate_us = 0.0;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        setup_target_desc(rep, &cfg)?;
        let t_gen = Instant::now();
        let mut corpus = Corpus::new(opts.corpus_seed);
        traffic.disk = corpus.take(shape.disk_kernels).into_iter().map(Served::new).collect();
        traffic.never_seen = corpus.take(shape.never_seen).into_iter().map(Served::new).collect();
        generate_us = t_gen.elapsed().as_secs_f64() * 1e6;
        fresh_dir(opts, "seedcache")?;
        compiled = prepopulate(&seed_dir, &mut traffic.disk, &cfg)?;
        timings.setup_s.push(t.elapsed().as_secs_f64());
    }

    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 1);
    let socket = fresh_dir(opts, "sock")?.join("s");
    let mut quality = Metrics::end_to_end();
    let mut traced_pass_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut by_class: [Vec<f64>; 3] = Default::default();
    let mut counters: Vec<PassCounters> = Vec::new();
    let mut ping_us = Vec::new();
    let mut request_bytes = 0usize;
    let mut clock = PassClock::start(opts);
    while let Some(pass) = clock.next_pass() {
        // Untimed: this pass's cache copy and engine.
        let cache_dir = fresh_dir(opts, "cache")?;
        copy_dir(&seed_dir, &cache_dir)?;
        let engine = Engine::new(engine_config(cache_dir));
        // A traced run records spans on even passes only; the odd ones
        // are its own untraced reference for the tracing overhead.
        let spans_on = opts.trace && pass % 2 == 0;
        tr.set_enabled(spans_on);
        let pings = if opts.trace && pass == 0 { 200 } else { 0 };
        let outcome = serve_pass(&engine, &socket, &traffic, &mut tr, pass, pings)?;
        if spans_on {
            traced_pass_s.push(outcome.log.wall_s);
        }
        counters.push(outcome.counters);
        ping_us.extend(outcome.ping_us);

        attempted += traffic.picks.len() as u64;
        request_bytes += outcome.log.request_bytes;
        if let Some(e) = outcome.log.error {
            violations.push(format!("pass {pass}: client: {e}"));
        }
        failed += (traffic.picks.len() - outcome.log.answers.len()) as u64;
        for (position, (ms, answer)) in outcome.log.answers.iter().enumerate() {
            timings.op_ms.push(*ms);
            let pick = traffic.picks[position];
            match check_answer(pick, traffic.served_mut(pick), answer) {
                Ok(class) => {
                    let slot = ["memory", "disk", "miss"].iter().position(|c| *c == class);
                    by_class[slot.unwrap_or(2)].push(*ms);
                }
                Err(why) => {
                    failed += 1;
                    violations.push(why);
                }
            }
        }
        timings.end_pass(outcome.log.wall_s);
        if outcome.counters.shed > 0 {
            violations.push(format!("pass {pass}: {} requests shed", outcome.counters.shed));
        }
        if pass == 0 {
            // Quality over everything the daemon serves: the disk set (as
            // pre-populated) and the never-seen set (as replayed).
            compiled.extend(replay_checks(&engine, &cfg, &traffic, &mut violations));
            set_quality_metrics(&mut quality, compiled.iter().map(|k| (&k.baseline, &k.vegen)));
            compiled = Vec::new();
        }
    }
    violations.truncate(20);

    let pinned_json = pinned.map_or(Json::Null, |cpu| Json::int(cpu as u64));
    if !opts.trace {
        let mut metrics = quality;
        let mut detail = timings.report(&mut metrics);
        if let Json::Obj(pairs) = &mut detail {
            pairs.push(("pinned_cpu".into(), pinned_json));
        }
        return Ok(RunResult {
            attempted,
            failed,
            violations,
            metrics,
            detail,
            trace_events: Vec::new(),
        });
    }

    // Traced: per-layer figures from the client's spans, the engine's
    // counters, and probes of the layers a request passes through.
    let mut m = Metrics::per_layer();
    m.set("engine.serve_ping_us", median(&ping_us));
    m.set("engine.serve_mem_hit_p50_us", median(&by_class[0]) * 1e3);
    m.set("engine.serve_disk_hit_p50_us", median(&by_class[1]) * 1e3);
    m.set("engine.serve_miss_p50_ms", median(&by_class[2]));
    m.set("engine.serve_request_bytes", request_bytes as f64 / attempted.max(1) as f64);
    // Identical every pass: one connection replays one schedule.
    let last = counters.last().copied().unwrap_or_default();
    m.set("engine.mem_hits", last.mem_hits as f64);
    m.set("engine.disk_hits", last.disk_hits as f64);
    m.set("engine.misses", last.misses as f64);
    m.set("engine.disk_stores", last.disk_stores as f64);
    m.set("engine.evicted", last.evicted as f64);
    m.set("engine.shed", last.shed as f64);
    m.set("kernels.generate_us", generate_us);

    let mut hit_probe = Tracer::new(epoch, 2);
    probe_hit_path(opts, &mut hit_probe, &mut m, &cfg, &traffic, &seed_dir)?;
    let mut miss_probe = Tracer::new(epoch, 3);
    probe_miss_path(&mut miss_probe, &mut m, &cfg, &traffic.never_seen, &mut violations);

    let pass_s = timings.pass_s();
    let untraced_pass_s: Vec<f64> =
        pass_s.iter().enumerate().filter(|(i, _)| i % 2 == 1).map(|(_, s)| *s).collect();
    if !untraced_pass_s.is_empty() {
        m.set("bench.trace_overhead_frac", median(&traced_pass_s) / median(&untraced_pass_s) - 1.0);
    }

    let trace_events =
        [&tr, &hit_probe, &miss_probe].iter().flat_map(|t| t.chrome_events(1)).collect();
    let detail = Json::obj([
        ("traced_passes", Json::int(pass_s.len() as u64)),
        ("pinned_cpu", pinned_json),
        ("pass_s", Json::Num(median(pass_s))),
    ]);
    Ok(RunResult { attempted, failed, violations, metrics: m, detail, trace_events })
}

/// The layers under a hit, probed per kernel outside the daemon:
/// canonicalize and hash (scaled by how often the schedule asks for each
/// kernel), JSON parse/render, entry encode/decode, disk load/store, and
/// the engine's memory hit.
fn probe_hit_path(
    opts: &RunOpts,
    tr: &mut Tracer,
    m: &mut Metrics,
    cfg: &PipelineConfig,
    traffic: &Traffic,
    seed_dir: &Path,
) -> Result<(), String> {
    let (disk, fresh) = (&traffic.disk, &traffic.never_seen);
    let (mut disk_asked, mut fresh_asked) = (vec![0u32; disk.len()], vec![0u32; fresh.len()]);
    for pick in &traffic.picks {
        match *pick {
            Pick::Disk(i) => disk_asked[i] += 1,
            Pick::New(i) => fresh_asked[i] += 1,
        }
    }
    let (mut canon_us, mut hash_us, mut insts_in, mut insts_out) = (0.0, 0.0, 0u64, 0u64);
    let asked = disk.iter().zip(&disk_asked).chain(fresh.iter().zip(&fresh_asked));
    for (i, (s, times)) in asked.enumerate() {
        tr.set_op(0, i as u64);
        let span = tr.enter("ir.canon");
        let canonical = add_narrow_constants(&canonicalize(&s.function));
        canon_us += tr.exit(span) * f64::from(*times);
        let span = tr.enter("engine.hash");
        std::hint::black_box(content_hash(&canonical, cfg));
        hash_us += tr.exit(span) * f64::from(*times);
        insts_in += s.function.insts.len() as u64 * u64::from(*times);
        insts_out += canonical.insts.len() as u64 * u64::from(*times);
    }
    m.set("ir.canon_us", canon_us);
    m.set("engine.hash_us", hash_us);
    m.set("ir.insts_in", insts_in as f64);
    m.set("ir.insts_out", insts_out as f64);

    let fingerprint = isa_fingerprint(&cfg.target, cfg.canonicalize_patterns);
    let reader = DiskCache::open(seed_dir)?;
    let writer = DiskCache::open(fresh_dir(opts, "probe-store")?)?;
    let (mut parse_bytes, mut parse_s, mut render_bytes, mut render_s) = (0usize, 0.0, 0usize, 0.0);
    let (mut encode, mut decode, mut load, mut store, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, s) in disk.iter().take(PROBE_KERNELS).enumerate() {
        tr.set_op(0, i as u64);
        let canonical = add_narrow_constants(&canonicalize(&s.function));
        let hash = content_hash(&canonical, cfg);
        let span = tr.enter("engine.disk_load");
        let hit = reader.load(hash, &fingerprint)?;
        load.push(tr.exit(span));
        let hit = hit.ok_or_else(|| format!("{}: not on disk", s.function.name))?;
        let kernel = &hit.value.kernel;

        let span = tr.enter("engine.serdes_encode");
        let doc = serdes::kernel_to_json(kernel);
        encode.push(tr.exit(span));
        let t = Instant::now();
        let text = tr.timed("trace.json_render", || doc.render());
        render_s += t.elapsed().as_secs_f64();
        render_bytes += text.len();
        let t = Instant::now();
        let parsed = tr.timed("trace.json_parse", || Json::parse(&text))?;
        parse_s += t.elapsed().as_secs_f64();
        parse_bytes += text.len();
        let span = tr.enter("engine.serdes_decode");
        let decoded = serdes::kernel_from_json(&parsed);
        decode.push(tr.exit(span));
        decoded.map_err(|e| format!("{}: entry does not decode: {e}", s.function.name))?;

        let span = tr.enter("engine.disk_store");
        let stored = writer.store(
            hash,
            &fingerprint,
            &cfg.target.name,
            cfg.canonicalize_patterns,
            kernel,
            &StageTimes::default(),
        );
        store.push(tr.exit(span));
        stored?;
        let entry = seed_dir.join(format!("{}.json", hash.hex()));
        bytes.push(std::fs::metadata(&entry).map_or(0.0, |meta| meta.len() as f64));
    }
    m.set("engine.serdes_encode_us", median(&encode));
    m.set("engine.serdes_decode_us", median(&decode));
    m.set("engine.disk_load_us", median(&load));
    m.set("engine.disk_store_us", median(&store));
    m.set("engine.entry_bytes", median(&bytes));
    m.set("trace.json_parse_mb_s", parse_bytes as f64 / 1e6 / parse_s.max(f64::MIN_POSITIVE));
    m.set("trace.json_render_mb_s", render_bytes as f64 / 1e6 / render_s.max(f64::MIN_POSITIVE));

    // A memory hit: the second compile of a kernel the engine holds.
    let engine = Engine::new(engine_config(seed_dir.to_path_buf()));
    let mut hit_us = Vec::new();
    for s in disk.iter().take(PROBE_KERNELS.min(MEMORY_CACHE)) {
        std::hint::black_box(engine.compile_one(&s.function.name, &s.function, cfg));
        let span = tr.enter("engine.mem_hit");
        let r = engine.compile_one(&s.function.name, &s.function, cfg);
        hit_us.push(tr.exit(span));
        if !r.cache_hit || r.disk_hit {
            return Err(format!("{}: second compile was not a memory hit", s.function.name));
        }
    }
    m.set("engine.mem_hit_us", median(&hit_us));
    Ok(())
}

/// The layers under a miss: the never-seen kernels through the layered
/// pipeline, once. These are the only ops of the workload that
/// reach selection.
fn probe_miss_path(
    tr: &mut Tracer,
    m: &mut Metrics,
    cfg: &PipelineConfig,
    fresh: &[Served],
    violations: &mut Vec<String>,
) {
    let desc = engine_desc(cfg);
    let mut counts = LayerCounts::default();
    for (i, s) in fresh.iter().enumerate() {
        tr.set_op(0, i as u64);
        match compile_layered(tr, &s.function, &desc, cfg) {
            Ok(l) => {
                counts.add(&l);
                if let Some(e) = l.verify_error {
                    violations.push(format!("{}: {e}", s.function.name));
                }
            }
            Err(e) => violations.push(e),
        }
    }
    let own = tr.self_sums_by_pass();
    let get =
        |name: &str| own.get(&0).and_then(|by_name| by_name.get(name)).copied().unwrap_or(0.0);
    counts.report(m, get("core.select") + get("core.freeze"), get("core.freeze"), &desc);
    for (span, metric) in [
        ("core.ctx_build", "core.ctx_build_us"),
        ("core.freeze", "core.freeze_us"),
        ("codegen.lower", "codegen.lower_us"),
        ("codegen.verify", "codegen.verify_us"),
        ("analysis.kernel", "analysis.kernel_us"),
        ("baseline.vectorize", "baseline.vectorize_us"),
    ] {
        m.set(metric, get(span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_stated_mix() {
        let a = schedule(42, &FULL);
        assert_eq!(a, schedule(42, &FULL), "same seed, same schedule");
        assert_ne!(a, schedule(43, &FULL), "different seeds differ");
        let mut fresh: Vec<usize> =
            a.iter().filter_map(|p| if let Pick::New(i) = p { Some(*i) } else { None }).collect();
        fresh.sort_unstable();
        assert_eq!(fresh, (0..FULL.never_seen).collect::<Vec<_>>(), "each never-seen kernel once");
        let hot = a.iter().filter(|p| matches!(p, Pick::Disk(i) if *i < FULL.hot_kernels)).count();
        let share = hot as f64 / FULL.requests as f64;
        assert!((0.66..0.74).contains(&share), "hot share {share}");
        assert!(a.iter().all(|p| !matches!(p, Pick::Disk(i) if *i >= FULL.disk_kernels)));
    }
}
