//! Persistent on-disk spill of the content-addressed compile cache.
//!
//! One file per entry, named by the two-lane 128-bit content hash
//! (`{hash:032x}.json`), holding a versioned JSON document:
//!
//! ```json
//! {
//!   "schema": "vegen-cache-entry/v2",
//!   "fingerprint": "<32 hex chars>",
//!   "hash": "<32 hex chars>",
//!   "target": "AVX2",
//!   "canon": true,
//!   "stages": { ... },
//!   "kernel": { ... }
//! }
//! ```
//!
//! Invalidation rules (in check order):
//!
//! 1. a file that fails to parse or decode — truncated, torn, or
//!    hand-edited — is **corrupt**: deleted, counted, and surfaced to the
//!    engine as a typed [`ErrorCause::CacheIo`] fault (the job recompiles
//!    and succeeds anyway);
//! 2. a well-formed entry whose `schema` string or ISA `fingerprint`
//!    differs from this build's is **stale**: silently deleted and counted
//!    as invalidated — this is the normal path after the entry format or
//!    the instruction database changes;
//! 3. a well-formed entry whose embedded `hash` disagrees with its file
//!    name is corrupt (rule 1), since the content address is the lookup
//!    key.
//!
//! The ISA fingerprint hashes the *spec sources* of every instruction
//! visible on the entry's target (name, mnemonic, extension, widths,
//! throughput, pseudocode) plus the entry-schema version and the
//! canonicalization flag — so editing any instruction's semantics or cost
//! invalidates exactly the entries whose compilation could have seen it,
//! without running the offline pipeline just to probe the cache.
//! Algorithmic changes to selection or lowering must bump
//! [`ENTRY_SCHEMA`]; that is the rule that keeps stale-but-parseable
//! results out of a new build.
//!
//! Writes are atomic (unique temp file + `rename`), so concurrent engines
//! sharing one directory never observe torn entries, and every store
//! self-checks by decoding its own rendering and re-encoding it
//! byte-for-byte before the write is published.
//!
//! [`ErrorCause::CacheIo`]: vegen::error::ErrorCause::CacheIo

use crate::cache::{fnv128, CachedCompile, ContentHash};
use crate::json::{Doc, Json, Node};
use crate::serdes;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use vegen::driver::{CompiledKernel, StageTimes};
use vegen_isa::TargetIsa;

/// Version string of the on-disk entry format. Bump on any change to the
/// serialization layout *or* to the selection/lowering algorithms whose
/// outputs the entries embalm.
pub const ENTRY_SCHEMA: &str = "vegen-cache-entry/v2";

/// Fingerprint of everything target-side that can change a compilation
/// result: the entry-schema version, the target name, the
/// canonicalization flag, and the full spec source (name, mnemonic,
/// extension, widths, inverse throughput, inputs, pseudocode) of every
/// instruction visible on `target`. Memoized per `(target, canon)` —
/// hashing spec text is cheap, but warm-start probes it in a loop.
pub fn isa_fingerprint(target: &TargetIsa, canon: bool) -> String {
    static MEMO: OnceLock<Mutex<HashMap<(String, bool), String>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (target.name.clone(), canon);
    if let Some(fp) = memo.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return fp.clone();
    }
    let mut text = String::new();
    text.push_str(ENTRY_SCHEMA);
    text.push('\u{1f}');
    text.push_str(&target.name);
    text.push('\u{1f}');
    text.push_str(if canon { "canon" } else { "raw" });
    for spec in vegen_isa::specs::all_specs() {
        if !target.has(spec.ext) || spec.bits > target.max_bits {
            continue;
        }
        text.push('\u{1f}');
        text.push_str(&format!(
            "{}|{}|{:?}|{}|{}|{:?}|{}|{:?}|{}",
            spec.name,
            spec.asm,
            spec.ext,
            spec.bits,
            spec.out_elem_bits,
            spec.fp,
            spec.inv_throughput,
            spec.inputs,
            spec.pseudocode
        ));
    }
    let fp = fnv128(text.as_bytes()).hex();
    memo.lock().unwrap_or_else(|e| e.into_inner()).insert(key, fp.clone());
    fp
}

/// Point-in-time counters of a [`DiskCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Entries currently on disk.
    pub entries: usize,
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries written (write-through after a clean compile).
    pub stores: u64,
    /// Stale entries deleted (schema or fingerprint mismatch).
    pub invalidated: u64,
    /// Corrupt entries rejected and deleted.
    pub corrupt: u64,
    /// I/O failures (reads or writes that errored outright).
    pub io_errors: u64,
    /// Entries deleted by the size bound (oldest first).
    pub evicted: u64,
}

/// A directory of content-addressed compilation results, shareable
/// between processes and across restarts.
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalidated: AtomicU64,
    corrupt: AtomicU64,
    io_errors: AtomicU64,
    evicted: AtomicU64,
    seq: AtomicU64,
}

/// A disk lookup that found a valid entry.
pub struct DiskHit {
    /// The decoded compilation (kernel + original stage times).
    pub value: CachedCompile,
    /// The target name recorded in the entry.
    pub target: String,
    /// The canonicalization flag recorded in the entry.
    pub canon: bool,
}

impl DiskCache {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created or is not
    /// writable.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, String> {
        DiskCache::open_bounded(dir, None)
    }

    /// Like [`open`](DiskCache::open), but with an optional total-size
    /// bound in bytes. After every store, if the directory's entries
    /// exceed the bound, the oldest entries (by modification time, file
    /// name as tiebreak) are deleted until it fits — so unbounded soak
    /// runs against a `--cache-dir` cannot grow the cache without limit.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created or is not
    /// writable.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> Result<DiskCache, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(DiskCache {
            dir,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, hash: ContentHash) -> PathBuf {
        self.dir.join(format!("{}.json", hash.hex()))
    }

    /// Delete `path` best-effort and return `outcome` (shared tail of the
    /// corrupt/stale rejection paths — a rejected entry must not be
    /// re-rejected on every later lookup).
    fn reject<T>(&self, path: &Path, counter: &AtomicU64, outcome: T) -> T {
        counter.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
        outcome
    }

    /// Look up a content hash, validating against `fingerprint` (this
    /// build's [`isa_fingerprint`] for the entry's target).
    ///
    /// * `Ok(Some(hit))` — valid entry;
    /// * `Ok(None)` — no entry, or a stale one (deleted silently);
    /// * `Err(detail)` — corrupt entry or I/O failure; the entry is
    ///   deleted and the caller should record a typed `CacheIo` fault and
    ///   recompile.
    ///
    /// # Errors
    ///
    /// See above — `Err` is always recoverable by recompiling.
    pub fn load(&self, hash: ContentHash, fingerprint: &str) -> Result<Option<DiskHit>, String> {
        let path = self.entry_path(hash);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(format!("reading {}: {e}", path.display()));
            }
        };
        let doc = match Doc::parse(&text) {
            Ok(doc) => doc,
            Err(e) => return self.corrupt(&path, format!("unparseable entry: {e}")),
        };
        match self.decode_entry(&path, doc.root(), Some(hash), fingerprint) {
            Ok(Some(hit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(hit))
            }
            other => other,
        }
    }

    /// Reject `path` as corrupt: deleted, counted, and reported as `detail`.
    fn corrupt(&self, path: &Path, detail: String) -> Result<Option<DiskHit>, String> {
        self.reject(path, &self.corrupt, Err(format!("{}: {detail}", path.display())))
    }

    /// Validate + decode one tokenized entry document. `want_hash` is the
    /// hash the caller looked up (`None` to trust the embedded one).
    fn decode_entry(
        &self,
        path: &Path,
        doc: Node<'_>,
        want_hash: Option<ContentHash>,
        fingerprint: &str,
    ) -> Result<Option<DiskHit>, String> {
        let header = |key: &str| {
            doc.get(key)
                .and_then(Node::as_str)
                .ok_or_else(|| format!("missing header field {key:?}"))
        };
        let schema = match header("schema") {
            Ok(s) => s,
            Err(e) => return self.corrupt(path, e),
        };
        if schema != ENTRY_SCHEMA {
            // A different (older or newer) format version: stale, not
            // corrupt — delete silently and recompile.
            return Ok(self.reject(path, &self.invalidated, None));
        }
        let fp = match header("fingerprint") {
            Ok(s) => s,
            Err(e) => return self.corrupt(path, e),
        };
        if fp != fingerprint {
            return Ok(self.reject(path, &self.invalidated, None));
        }
        let embedded = match header("hash") {
            Ok(s) => s,
            Err(e) => return self.corrupt(path, e),
        };
        if let Some(want) = want_hash {
            if embedded != want.hex() {
                return self.corrupt(path, format!("entry hash {embedded} disagrees with address"));
            }
        }
        let target = match header("target") {
            Ok(s) => s.into_owned(),
            Err(e) => return self.corrupt(path, e),
        };
        let canon = match doc.get("canon").and_then(Node::as_bool) {
            Some(c) => c,
            None => return self.corrupt(path, "missing header field \"canon\"".into()),
        };
        let stages = match doc.get("stages").map(serdes::stage_times_from_node) {
            Some(Ok(s)) => s,
            Some(Err(e)) => return self.corrupt(path, e),
            None => return self.corrupt(path, "missing field \"stages\"".into()),
        };
        let kernel = match doc.get("kernel").map(serdes::kernel_from_node) {
            Some(Ok(k)) => k,
            Some(Err(e)) => return self.corrupt(path, e),
            None => return self.corrupt(path, "missing field \"kernel\"".into()),
        };
        Ok(Some(DiskHit {
            value: CachedCompile { kernel: Arc::new(kernel), stages },
            target,
            canon,
        }))
    }

    fn encode_entry(
        hash: ContentHash,
        fingerprint: &str,
        target: &str,
        canon: bool,
        kernel: &CompiledKernel,
        stages: &StageTimes,
    ) -> Json {
        Json::obj([
            ("schema", Json::str(ENTRY_SCHEMA)),
            ("fingerprint", Json::str(fingerprint)),
            ("hash", Json::str(hash.hex())),
            ("target", Json::str(target)),
            ("canon", Json::Bool(canon)),
            ("stages", serdes::stage_times_to_json(stages)),
            ("kernel", serdes::kernel_to_json(kernel)),
        ])
    }

    /// Write one entry atomically: render, self-check that the rendering
    /// decodes back to a byte-identical re-rendering, write a unique temp
    /// file, `rename` it into place. Concurrent engines writing the same
    /// address both succeed (last rename wins; the content is identical by
    /// construction — same address, same deterministic pipeline).
    ///
    /// # Errors
    ///
    /// Returns a message on any I/O failure or self-check mismatch; the
    /// caller records a typed `CacheIo` fault and moves on.
    pub fn store(
        &self,
        hash: ContentHash,
        fingerprint: &str,
        target: &str,
        canon: bool,
        kernel: &CompiledKernel,
        stages: &StageTimes,
    ) -> Result<(), String> {
        let doc = DiskCache::encode_entry(hash, fingerprint, target, canon, kernel, stages);
        let mut text = doc.render();
        text.push('\n');
        // Round-trip self-check: a document we cannot read back exactly
        // must never be published.
        let reread = Doc::parse(&text).map_err(|e| format!("self-check parse: {e}"))?;
        let reread = reread.root();
        let kernel2 =
            serdes::kernel_from_node(reread.get("kernel").ok_or("self-check: kernel field lost")?)
                .map_err(|e| format!("self-check decode: {e}"))?;
        let stages2 = serdes::stage_times_from_node(
            reread.get("stages").ok_or("self-check: stages field lost")?,
        )
        .map_err(|e| format!("self-check decode: {e}"))?;
        let mut text2 =
            DiskCache::encode_entry(hash, fingerprint, target, canon, &kernel2, &stages2).render();
        text2.push('\n');
        if text != text2 {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(format!("entry {} failed round-trip self-check", hash.hex()));
        }
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            hash.hex(),
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = fs::write(&tmp, &text)
            .map_err(|e| format!("writing {}: {e}", tmp.display()))
            .and_then(|()| {
                fs::rename(&tmp, self.entry_path(hash))
                    .map_err(|e| format!("publishing {}: {e}", tmp.display()))
            });
        match publish {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.enforce_bound();
                Ok(())
            }
            Err(e) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Delete oldest entries until the directory fits `max_bytes`.
    /// Best-effort: unreadable metadata is ignored, and a concurrent
    /// engine deleting the same file is not an error.
    fn enforce_bound(&self) {
        let Some(max) = self.max_bytes else { return };
        let Ok(dir) = fs::read_dir(&self.dir) else { return };
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = dir
            .flatten()
            .filter(|f| entry_hash(&f.path()).is_some())
            .filter_map(|f| {
                let meta = f.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, f.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        if total <= max {
            return;
        }
        entries.sort();
        for (_, path, len) in entries {
            if total <= max {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            total = total.saturating_sub(len);
        }
    }

    /// Scan the directory and decode every entry that is valid for this
    /// build (each entry's own target/canon header decides its expected
    /// fingerprint). Stale and corrupt entries are deleted and counted as
    /// usual; entries for unknown targets are left untouched. Used by the
    /// engine's warm start.
    pub fn load_all(&self) -> Vec<(ContentHash, CachedCompile)> {
        let mut out = Vec::new();
        let Ok(dir) = fs::read_dir(&self.dir) else {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return out;
        };
        for file in dir.flatten() {
            let path = file.path();
            let Some(hash) = entry_hash(&path) else { continue };
            let Ok(text) = fs::read_to_string(&path) else {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            // Peek the target/canon header to compute the fingerprint this
            // entry must match. A header too broken to peek is corrupt.
            let doc = Doc::parse(&text).ok();
            let root = doc.as_ref().map(Doc::root);
            let expected = root.and_then(|doc| {
                let target = doc.get("target")?.as_str()?;
                let canon = doc.get("canon")?.as_bool()?;
                Some((doc, target, canon))
            });
            let Some((doc, target_name, canon)) = expected else {
                self.reject(&path, &self.corrupt, ());
                continue;
            };
            let Some(target) = TargetIsa::from_name(&target_name) else { continue };
            let fp = isa_fingerprint(&target, canon);
            if let Ok(Some(hit)) = self.decode_entry(&path, doc, Some(hash), &fp) {
                out.push((hash, hit.value));
            }
        }
        out.sort_by_key(|(hash, _)| *hash);
        out
    }

    /// Current counters (entries counted live from the directory).
    pub fn stats(&self) -> DiskCacheStats {
        let entries = fs::read_dir(&self.dir)
            .map(|dir| dir.flatten().filter(|f| entry_hash(&f.path()).is_some()).count())
            .unwrap_or(0);
        DiskCacheStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

/// Parse `{032x}.json` back to its content hash; `None` for temp files
/// and foreign droppings.
fn entry_hash(path: &Path) -> Option<ContentHash> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 32 {
        return None;
    }
    u128::from_str_radix(hex, 16).ok().map(ContentHash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_target_sensitive() {
        let a = isa_fingerprint(&TargetIsa::avx2(), true);
        assert_eq!(a, isa_fingerprint(&TargetIsa::avx2(), true), "memo must be stable");
        assert_ne!(a, isa_fingerprint(&TargetIsa::avx2(), false), "canon flag is part of it");
        assert_ne!(
            a,
            isa_fingerprint(&TargetIsa::avx512vnni(), true),
            "target extensions are part of it"
        );
        assert_eq!(a.len(), 32, "fingerprint is the 128-bit hash in hex");
    }

    #[test]
    fn entry_names_round_trip() {
        let dir = std::env::temp_dir();
        let h = ContentHash(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(entry_hash(&dir.join(format!("{}.json", h.hex()))), Some(h));
        assert_eq!(entry_hash(&dir.join("short.json")), None);
        assert_eq!(entry_hash(&dir.join(format!(".{}.1.0.tmp", h.hex()))), None);
    }

    #[test]
    fn size_bound_evicts_oldest_first() {
        let dir = std::env::temp_dir().join(format!("vegen-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Three 100-byte fake entries with strictly increasing mtimes.
        let cache = DiskCache::open_bounded(&dir, Some(250)).unwrap();
        let names: Vec<String> = (0u128..3).map(|i| format!("{:032x}.json", 0x1000 + i)).collect();
        for name in &names {
            fs::write(dir.join(name), "x".repeat(100)).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        cache.enforce_bound();
        assert!(!dir.join(&names[0]).exists(), "oldest entry should be evicted");
        assert!(dir.join(&names[1]).exists());
        assert!(dir.join(&names[2]).exists(), "newest entry must survive");
        assert_eq!(cache.stats().evicted, 1);

        // Unbounded cache never evicts.
        let unbounded = DiskCache::open(&dir).unwrap();
        unbounded.enforce_bound();
        assert_eq!(unbounded.stats().evicted, 0);
        assert_eq!(cache.stats().entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
