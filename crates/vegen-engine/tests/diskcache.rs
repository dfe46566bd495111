//! Durability tests for the persistent on-disk compile cache: restart
//! replay, corrupt-entry rejection, stale-entry invalidation, concurrent
//! writers sharing one directory, byte-identical entry files from
//! independent engines, a fuzz of `DiskCache::load` over mutated entries,
//! and the entry encoding's round trip over the suite and the corpus.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use vegen::driver::PipelineConfig;
use vegen_core::BeamConfig;
use vegen_engine::diskcache::{isa_fingerprint, DiskCache, ENTRY_SCHEMA};
use vegen_engine::json::{Doc, Json};
use vegen_engine::serdes::stage_times_to_json;
use vegen_engine::serdes::{kernel_from_node, kernel_to_json, stage_times_from_node};
use vegen_engine::{Engine, EngineConfig, Job, Rung};
use vegen_ir::rng::XorShift;
use vegen_isa::TargetIsa;
use vegen_vm::listing;

const NAMES: [&str; 4] = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];

fn pipeline(width: usize) -> PipelineConfig {
    PipelineConfig {
        target: TargetIsa::avx2(),
        beam: BeamConfig::with_width(width),
        canonicalize_patterns: true,
    }
}

fn jobs() -> Vec<Job> {
    NAMES
        .iter()
        .map(|n| {
            let k = vegen_kernels::find(n).unwrap_or_else(|| panic!("kernel {n} must exist"));
            Job::new(k.name, (k.build)(), pipeline(4))
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vegen-diskcache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_with(dir: &std::path::Path) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        verify_trials: 4,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    });
    assert_eq!(engine.disk_open_error(), None, "cache dir must open");
    engine
}

fn entry_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|f| f.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Set the member at `path` to 0 (timing fields, which differ run to run).
fn zero_field(doc: &mut Json, path: &[&str]) {
    let Json::Obj(pairs) = doc else { return };
    let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == path[0]) else { return };
    if path.len() == 1 {
        *v = Json::int(0);
    } else {
        zero_field(v, &path[1..]);
    }
}

#[test]
fn restart_replays_entirely_from_disk_with_identical_programs() {
    let dir = temp_dir("restart");

    // Cold engine: all misses, all written through.
    let first = engine_with(&dir);
    let cold = first.compile_batch(&jobs());
    assert!(cold.iter().all(|r| r.rung == Rung::Primary && !r.cache_hit));
    assert_eq!(first.counters().disk_stores, NAMES.len() as u64);
    assert_eq!(first.counters().cache_io_errors, 0);
    let stats = first.disk_stats().expect("disk cache is configured");
    assert_eq!(stats.entries, NAMES.len());
    assert_eq!(stats.stores, NAMES.len() as u64);
    drop(first);

    // "Restarted" engine over the same directory: zero cold compiles,
    // every job a disk hit, with zero verification time (entries were
    // verified when written).
    let second = engine_with(&dir);
    let warm = second.compile_batch(&jobs());
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.cache_hit && w.disk_hit, "{} must be a disk hit", w.name);
        assert_eq!(w.cache_source(), "disk");
        assert_eq!(w.rung, Rung::Primary);
        assert!(w.faults.is_empty(), "{:?}", w.faults);
        assert_eq!(w.verify_time, std::time::Duration::ZERO);
        assert_eq!(c.hash, w.hash, "{}: same content address", w.name);
        // The decoded programs are byte-identical to the cold compile's.
        let (ck, wk) = (c.kernel.as_deref().unwrap(), w.kernel.as_deref().unwrap());
        assert_eq!(listing(&ck.vegen), listing(&wk.vegen), "{}", w.name);
        assert_eq!(listing(&ck.scalar), listing(&wk.scalar), "{}", w.name);
        assert_eq!(listing(&ck.baseline), listing(&wk.baseline), "{}", w.name);
        // And still pass dynamic verification.
        wk.verify(8).unwrap_or_else(|e| panic!("{}: decoded kernel must verify: {e}", w.name));
    }
    let counters = second.counters();
    assert_eq!(counters.compilations, 0, "restart must not compile anything");
    assert_eq!(counters.disk_hits, NAMES.len() as u64);
    assert_eq!(counters.cache_io_errors, 0);

    // A third batch on the same engine is now pure memory hits.
    let memory = second.compile_batch(&jobs());
    assert!(memory.iter().all(|r| r.cache_hit && !r.disk_hit));
    assert!(memory.iter().all(|r| r.cache_source() == "memory"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_start_preloads_the_memory_cache() {
    let dir = temp_dir("warmstart");
    engine_with(&dir).compile_batch(&jobs());

    let engine = engine_with(&dir);
    assert_eq!(engine.warm_start(), NAMES.len());
    let results = engine.compile_batch(&jobs());
    // Warm start loads into the *memory* cache, so jobs don't even touch
    // disk.
    assert!(results.iter().all(|r| r.cache_hit && !r.disk_hit));
    assert_eq!(engine.counters().compilations, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_entries_are_rejected_deleted_and_recompiled() {
    let dir = temp_dir("corrupt");
    engine_with(&dir).compile_batch(&jobs());
    let files = entry_files(&dir);
    assert_eq!(files.len(), NAMES.len());

    // Truncate one entry mid-document and scribble over another: both are
    // corrupt, not stale.
    let text = std::fs::read_to_string(&files[0]).unwrap();
    std::fs::write(&files[0], &text[..text.len() / 2]).unwrap();
    std::fs::write(&files[1], "{\"schema\": 42}").unwrap();

    let engine = engine_with(&dir);
    let results = engine.compile_batch(&jobs());
    // Every job still succeeds at the primary rung; the two corrupt jobs
    // recompiled with a typed cache_io fault each.
    assert!(results.iter().all(|r| r.rung == Rung::Primary));
    let faulted: Vec<&vegen_engine::JobResult> =
        results.iter().filter(|r| !r.faults.is_empty()).collect();
    assert_eq!(faulted.len(), 2, "{results:?}");
    for r in &faulted {
        assert!(!r.cache_hit, "{} recompiled", r.name);
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].cause.tag(), "cache_io");
        assert_eq!(r.faults[0].stage.name(), "cache");
    }
    let counters = engine.counters();
    assert_eq!(counters.cache_io_errors, 2);
    assert_eq!(counters.compilations, 2);
    assert_eq!(counters.disk_hits, (NAMES.len() - 2) as u64);
    // Corrupt jobs are not compile failures.
    assert_eq!(counters.failures, 0);
    let stats = engine.disk_stats().unwrap();
    assert_eq!(stats.corrupt, 2);
    // The rejected entries were deleted and rewritten by the recompile.
    assert_eq!(stats.entries, NAMES.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// A whole entry as the last `vegen-cache-entry/v2` build wrote it
/// (`max_pd`, AVX2, beam 4). Its scalar VM code is spelled
/// `load_scalar`/`scalar`/`store_scalar`, which this build no longer
/// decodes; the schema check comes first, so the entry is stale rather than
/// corrupt: deleted silently and recompiled into the same address.
#[test]
fn v2_entry_is_invalidated_silently_and_recompiled() {
    let v2 = include_str!("fixtures/v2_entry_max_pd.json");
    let doc = Doc::parse(v2).unwrap();
    assert!(kernel_from_node(doc.root().get("kernel").unwrap()).is_err(), "v2 layout");
    let hash = doc.root().get("hash").and_then(|h| h.as_str()).unwrap().into_owned();
    let dir = temp_dir("v2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{hash}.json"));
    std::fs::write(&path, v2).unwrap();

    let engine = engine_with(&dir);
    let k = vegen_kernels::find("max_pd").unwrap();
    let results = engine.compile_batch(&[Job::new(k.name, (k.build)(), pipeline(4))]);
    assert!(results[0].rung == Rung::Primary && results[0].faults.is_empty());
    let counters = engine.counters();
    assert_eq!((counters.compilations, counters.disk_hits, counters.cache_io_errors), (1, 0, 0));
    let stats = engine.disk_stats().unwrap();
    assert_eq!((stats.invalidated, stats.corrupt), (1, 0));
    let rewritten = std::fs::read_to_string(&path).unwrap();
    assert!(rewritten.contains(ENTRY_SCHEMA), "the recompile is stored at the same address");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_schema_or_fingerprint_invalidates_silently() {
    let dir = temp_dir("stale");
    engine_with(&dir).compile_batch(&jobs());
    let files = entry_files(&dir);

    // An entry from a hypothetical older build: well-formed, wrong
    // version header.
    let old =
        std::fs::read_to_string(&files[0]).unwrap().replace(ENTRY_SCHEMA, "vegen-cache-entry/v0");
    assert_ne!(old, std::fs::read_to_string(&files[0]).unwrap());
    std::fs::write(&files[0], old).unwrap();
    // An entry whose instruction database has since changed.
    let other = std::fs::read_to_string(&files[1]).unwrap();
    let marker = "\"fingerprint\":\"";
    let fp_start = other.find(marker).unwrap() + marker.len();
    let mut swapped = other.clone();
    swapped.replace_range(fp_start..fp_start + 32, &"0".repeat(32));
    std::fs::write(&files[1], swapped).unwrap();

    let engine = engine_with(&dir);
    let results = engine.compile_batch(&jobs());
    // Stale entries recompile silently: no faults, no cache_io errors.
    assert!(results.iter().all(|r| r.rung == Rung::Primary && r.faults.is_empty()));
    let counters = engine.counters();
    assert_eq!(counters.cache_io_errors, 0);
    assert_eq!(counters.compilations, 2);
    assert_eq!(counters.disk_hits, (NAMES.len() - 2) as u64);
    let stats = engine.disk_stats().unwrap();
    assert_eq!(stats.invalidated, 2);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.entries, NAMES.len(), "stale entries were replaced");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_engines_share_one_directory_safely() {
    let dir = temp_dir("concurrent");
    // Two engines, two threads each, racing over the same directory and
    // the same job set: atomic writes mean nobody ever reads a torn
    // entry, and the survivors are valid.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let dir = dir.clone();
            scope.spawn(move || {
                let engine = engine_with(&dir);
                let results = engine.compile_batch(&jobs());
                assert!(results.iter().all(|r| r.rung == Rung::Primary));
                assert!(results.iter().all(|r| r.faults.is_empty()), "{results:?}");
            });
        }
    });
    // Whatever interleaving happened, a fresh engine replays fully from
    // the surviving entries.
    let reader = engine_with(&dir);
    let results = reader.compile_batch(&jobs());
    assert!(results.iter().all(|r| r.disk_hit), "{results:?}");
    assert_eq!(reader.counters().compilations, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn independent_engines_write_byte_identical_kernels() {
    let (dir_a, dir_b) = (temp_dir("bytes-a"), temp_dir("bytes-b"));
    engine_with(&dir_a).compile_batch(&jobs());
    engine_with(&dir_b).compile_batch(&jobs());
    let (files_a, files_b) = (entry_files(&dir_a), entry_files(&dir_b));
    assert_eq!(files_a.len(), NAMES.len());
    assert_eq!(
        files_a.iter().map(|p| p.file_name().unwrap().to_owned()).collect::<Vec<_>>(),
        files_b.iter().map(|p| p.file_name().unwrap().to_owned()).collect::<Vec<_>>(),
        "deterministic pipeline, same content addresses"
    );
    // Whole files differ only in measurements (stage times and the
    // beam's wall counter); with those normalized, the serialized
    // compilation must render byte-for-byte the same.
    for (a, b) in files_a.iter().zip(&files_b) {
        let kernel = |p: &PathBuf| {
            let doc = Json::parse(&std::fs::read_to_string(p).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let mut kernel = doc.get("kernel").expect("entry has a kernel").clone();
            for wall in ["beam_wall_ns", "merge_wall_ns", "freeze_wall_ns"] {
                zero_field(&mut kernel, &["selection", "stats", wall]);
            }
            kernel.render()
        };
        assert_eq!(
            kernel(a),
            kernel(b),
            "{}: kernel bytes must be engine-independent",
            a.display()
        );
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// One seeded edit of an entry. Byte edits mostly break the JSON; value
/// edits keep it well-formed and reach the decoder: a digit, a tag, a
/// character of embedded VIDL, a member dropped.
fn mutate(rng: &mut XorShift, text: &str) -> String {
    const BYTES: &[u8] = b"\"\\{}[],: 0123456789-.etfnulx()";
    const VALUES: [&str; 12] = [
        "0", "7", "-1", "1.5", "1e400", "99999999", "null", "true", "\"\"", "[]", "{}", "\"i128\"",
    ];
    const TAGS: [&str; 9] =
        ["bin", "const", "vec_op", "build", "frobnicate", "i8", "f64", "sext", "\\u0062in"];
    const VIDL: &[u8] = b"abxi0123456789(),:[]_- \n";
    if text.is_empty() {
        return String::new();
    }
    let mut b = text.as_bytes().to_vec();
    let at =
        |rng: &mut XorShift, b: &[u8]| rng.below(b.len().max(1)).min(b.len().saturating_sub(1));
    match rng.below(10) {
        0 => {
            let i = at(rng, &b);
            b[i] = BYTES[rng.below(BYTES.len())];
        }
        1 => b.truncate(at(rng, &b)),
        2 => {
            let (i, j) = (at(rng, &b), at(rng, &b));
            b.drain(i.min(j)..i.max(j));
        }
        3 | 4 => {
            // A number becomes another value.
            let i = at(rng, &b);
            if let Some(start) = (i..b.len()).find(|&k| b[k].is_ascii_digit()) {
                let end = (start..b.len()).find(|&k| !b[k].is_ascii_digit()).unwrap_or(b.len());
                b.splice(start..end, VALUES[rng.below(VALUES.len())].bytes());
            }
        }
        5 | 6 => {
            // A short string value becomes another tag or name.
            let i = at(rng, &b);
            if let Some(open) = (i..b.len()).find(|&k| b[k..].starts_with(b":\"")) {
                let start = open + 2;
                if let Some(len) = b[start..].iter().position(|&c| c == b'"').filter(|&n| n < 12) {
                    b.splice(start..start + len, TAGS[rng.below(TAGS.len())].bytes());
                }
            }
        }
        7 | 8 => {
            // A character of text inside a string (embedded VIDL, names).
            let i = at(rng, &b);
            if b[i].is_ascii_alphanumeric() || b" ,()[]".contains(&b[i]) {
                b[i] = VIDL[rng.below(VIDL.len())];
            }
        }
        _ => {
            // A member or element dropped: from one comma to the next.
            let i = at(rng, &b);
            if let Some(c) = (i..b.len()).find(|&k| b[k] == b',') {
                if let Some(d) = (c + 1..b.len()).find(|&k| b[k] == b',') {
                    b.drain(c..d);
                }
            }
        }
    }
    String::from_utf8(b).expect("entries and edits are ASCII")
}

/// `DiskCache::load` over seeded mutations of real entries never panics;
/// an `Err` deletes the file and counts it corrupt, an `Ok(None)` deletes
/// it as stale, and a hit re-encodes to bytes that decode and re-encode
/// to themselves.
#[test]
fn mutated_entries_are_rejected_or_decode_to_a_stable_encoding() {
    const CASES: usize = 20_000;
    let seed = 0xd15c_0026_u64;
    // Real entries with their clocks zeroed, so that every run mutates
    // the same bytes.
    let src = temp_dir("fuzz-src");
    let hashes: Vec<_> =
        engine_with(&src).compile_batch(&jobs()).iter().map(|r| r.hash.unwrap()).collect();
    let entries: Vec<(_, String)> = hashes
        .iter()
        .map(|h| {
            let text = std::fs::read_to_string(src.join(format!("{}.json", h.hex()))).unwrap();
            let mut entry = Json::parse(&text).unwrap();
            for wall in ["beam_wall_ns", "merge_wall_ns", "freeze_wall_ns"] {
                zero_field(&mut entry, &["kernel", "selection", "stats", wall]);
            }
            for stage in vegen::driver::PIPELINE {
                zero_field(&mut entry, &["stages", &format!("{stage}_ns")]);
            }
            (*h, entry.render())
        })
        .collect();
    let fingerprint = isa_fingerprint(&TargetIsa::avx2(), true);
    let dir = temp_dir("fuzz");
    let cache = DiskCache::open(&dir).unwrap();
    let mut rng = XorShift::new(seed);
    let (mut hits, mut corrupt, mut stale) = (0usize, 0usize, 0usize);
    for n in 0..CASES {
        let (hash, base) = &entries[rng.below(entries.len())];
        let mut text = base.clone();
        for _ in 0..[1, 1, 1, 2, 3][rng.below(5)] {
            text = mutate(&mut rng, &text);
        }
        let context = || format!("seed {seed:#x}, case {n}: {text:?}");
        let path = dir.join(format!("{}.json", hash.hex()));
        std::fs::write(&path, &text).unwrap();
        let before = cache.stats();
        let loaded = catch_unwind(AssertUnwindSafe(|| cache.load(*hash, &fingerprint)))
            .unwrap_or_else(|_| panic!("DiskCache::load panicked: {}", context()));
        let after = cache.stats();
        match loaded {
            Err(_) => {
                assert!(!path.exists(), "a corrupt entry must be deleted: {}", context());
                assert_eq!(after.corrupt, before.corrupt + 1, "{}", context());
                corrupt += 1;
            }
            Ok(None) => {
                assert!(!path.exists(), "a stale entry must be deleted: {}", context());
                assert_eq!(after.invalidated, before.invalidated + 1, "{}", context());
                stale += 1;
            }
            Ok(Some(hit)) => {
                let kernel = kernel_to_json(&hit.value.kernel).render();
                let stages = stage_times_to_json(&hit.value.stages).render();
                let again =
                    kernel_from_node(Doc::parse(&kernel).unwrap().root()).unwrap_or_else(|e| {
                        panic!("re-encoded kernel does not decode: {e}: {}", context())
                    });
                assert_eq!(kernel_to_json(&again).render(), kernel, "{}", context());
                let again = stage_times_from_node(Doc::parse(&stages).unwrap().root()).unwrap();
                assert_eq!(again, hit.value.stages, "{}", context());
                hits += 1;
            }
        }
    }
    println!("{CASES} mutated entries: {hits} hits, {corrupt} corrupt, {stale} stale");
    assert!(hits > CASES / 20 && corrupt > CASES / 4 && stale > 0, "{hits} / {corrupt} / {stale}");
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every suite kernel and 200 corpus kernels: the decoded rendering of an
/// entry's kernel re-encodes byte for byte.
#[test]
fn every_kernel_decodes_and_re_encodes_byte_identically() {
    let engine = Engine::new(EngineConfig { threads: 2, verify_trials: 1, ..Default::default() });
    let suite =
        vegen_kernels::all().into_iter().map(|k| Job::new(k.name, (k.build)(), pipeline(16)));
    let corpus = (0..200).map(|i| {
        let f = vegen_kernels::gen::generate(42, i).function;
        Job::new(f.name.clone(), f, pipeline(16))
    });
    let results = engine.compile_batch(&suite.chain(corpus).collect::<Vec<_>>());
    assert_eq!(results.len(), 233);
    for r in &results {
        let kernel = r.kernel.as_deref().unwrap_or_else(|| panic!("{}: no kernel", r.name));
        let text = kernel_to_json(kernel).render();
        let decoded = kernel_from_node(Doc::parse(&text).unwrap().root())
            .unwrap_or_else(|e| panic!("{}: {e}", r.name));
        assert_eq!(kernel_to_json(&decoded).render(), text, "{}", r.name);
    }
}
