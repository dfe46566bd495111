//! Content-addressed compilation cache.
//!
//! VeGen's offline/online split (§6.1) makes compilation results pure
//! functions of their inputs: the same canonical scalar function, compiled
//! for the same target with the same search configuration, always yields
//! the same three programs. The cache exploits that by addressing entries
//! with a stable 128-bit content hash of
//! `(canonical Function, TargetIsa name, BeamConfig, canonicalize_patterns)`
//! — *not* by kernel name, so renamed or duplicated kernels still hit.
//!
//! The map is LRU-bounded and fully thread-safe; hit/miss/eviction
//! counters feed the engine's telemetry.
//!
//! In front of it sits the request-alias tier (`AliasTable`): a memo from
//! the bytes a serve client sent to the content address they canonicalize
//! to, so a repeated request is looked up by address without being
//! parsed, canonicalized or hashed again (DESIGN §13).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vegen::driver::{CompiledKernel, PipelineConfig, StageTimes};
use vegen_ir::Function;

/// Stable 128-bit content address of a compilation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hex rendering (for reports and logs).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// FNV-1a over `bytes`, in two independently-offset 64-bit lanes.
///
/// FNV is stable across processes, platforms, and Rust versions — unlike
/// `DefaultHasher`, which documents no such guarantee — which is what makes
/// the address *content*-derived rather than process-derived.
pub(crate) fn fnv128(bytes: &[u8]) -> ContentHash {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hi: u64 = 0x6c62_272e_07bb_0142; // a distinct offset basis
    for &b in bytes {
        lo = (lo ^ b as u64).wrapping_mul(PRIME);
        hi = (hi ^ (b as u64).rotate_left(3)).wrapping_mul(PRIME);
    }
    ContentHash(((hi as u128) << 64) | lo as u128)
}

/// Compute the content address of a compilation input.
///
/// The function must already be canonical (the engine canonicalizes before
/// hashing) so that textually different but canonically identical inputs
/// share an address. The serialization is the IR printer's output — the
/// stable, human-auditable form — joined with every config field that can
/// change the output program.
pub fn content_hash(canonical: &Function, cfg: &PipelineConfig) -> ContentHash {
    let mut key = canonical.to_string();
    key.push('\u{1f}');
    key.push_str(&config_key(cfg));
    fnv128(key.as_bytes())
}

/// The configuration half of a content address: every [`PipelineConfig`]
/// field that can change the output program, and nothing else. The alias
/// tier keys on this same string, so the two cannot disagree about which
/// settings tell two requests apart.
pub(crate) fn config_key(cfg: &PipelineConfig) -> String {
    let mut key = String::new();
    key.push_str(&cfg.target.name);
    key.push('\u{1f}');
    // Explicitly serialize the BeamConfig fields that can change what the
    // caller gets back. `budget` is deliberately excluded: budgets never
    // alter a *successful* selection — exhaustion turns the whole call
    // into an error, which is never cached — so results are shareable
    // across any budget setting. `beam_threads` is likewise excluded: the
    // parallel search is deterministic by construction (worker chunks are
    // merged in slice order before the shared dedup/sort/truncate), so
    // thread count changes wall time, never the selected packs.
    // `log_decisions` stays in the key because
    // the decision log rides inside the cached SelectionResult: a logged
    // request served from an unlogged entry would silently come back
    // without its log.
    let b = &cfg.beam;
    key.push_str(&format!(
        "width={} seeds={:?} affinity={} max_transitions={} max_iters={:?} log={}",
        b.width, b.seeds, b.use_affinity_seeds, b.max_transitions, b.max_iters, b.log_decisions
    ));
    key.push('\u{1f}');
    key.push_str(if cfg.canonicalize_patterns { "canon" } else { "raw" });
    key
}

/// One cached compilation, with the stage times of the original (miss)
/// compile so warm runs can still report where the cold time went.
#[derive(Debug, Clone)]
pub struct CachedCompile {
    /// The three programs plus selection statistics.
    pub kernel: Arc<CompiledKernel>,
    /// Stage wall times of the compile that populated this entry.
    pub stages: StageTimes,
}

struct Entry {
    value: CachedCompile,
    last_used: u64,
}

/// Point-in-time counters of a [`CompileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The LRU bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, thread-safe, content-addressed map of compilation results.
pub struct CompileCache {
    map: Mutex<HashMap<ContentHash, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CompileCache {
    /// A cache holding at most `capacity` compilations (min 1).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up an address, refreshing its recency on a hit.
    pub fn get(&self, key: ContentHash) -> Option<CachedCompile> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a compilation, evicting the least-recently-used entry if the
    /// bound is reached. If another worker raced the same address in, the
    /// first insert wins and its value is returned — callers therefore
    /// always agree on one `Arc` per address.
    pub fn insert(&self, key: ContentHash, value: CachedCompile) -> CachedCompile {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = map.get_mut(&key) {
            existing.last_used = tick;
            return existing.value.clone();
        }
        if map.len() >= self.capacity {
            // O(n) scan; the bound is small (hundreds) and eviction rare
            // next to the cost of the compilations it displaces.
            if let Some(&lru) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k) {
                map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, Entry { value: value.clone(), last_used: tick });
        value
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.lock().unwrap_or_else(|e| e.into_inner()).len(),
            capacity: self.capacity,
        }
    }
}

/// Which member of a serve request named the thing to compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SourceKind {
    /// `"function"`: the text is the member's raw JSON value.
    Function,
    /// `"kernel"`: the text is the suite kernel's name.
    Kernel,
}

/// What a serve client sent to say what to compile, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RequestSource {
    /// Which member the text came from.
    pub kind: SourceKind,
    /// The bytes (shared with the alias entry that remembers them).
    pub text: Arc<str>,
}

/// Alias-table bytes allowed per slot of the memory tier
/// ([`EngineConfig::cache_capacity`](crate::EngineConfig::cache_capacity)).
/// An alias entry is the request's own bytes — a few kB — where a cached
/// compilation is tens of kB, and the table has to name entries that
/// live only on disk as well, so it holds several times more entries than
/// the memory tier while staying a fraction of its size.
pub const ALIAS_BYTES_PER_CACHE_SLOT: usize = 16 << 10;

/// An entry may take at most `budget / ALIAS_MAX_ENTRY_DIVISOR` bytes;
/// anything larger is served but not remembered, so one huge request
/// cannot flush the table.
pub const ALIAS_MAX_ENTRY_DIVISOR: usize = 4;

/// Bytes charged per entry on top of its strings (map slot, `Arc`
/// headers, bookkeeping), so that tiny sources cannot make the entry
/// count outrun the byte bound.
const ALIAS_ENTRY_OVERHEAD: usize = 128;

struct AliasEntry {
    source: RequestSource,
    config: String,
    name: Arc<str>,
    hash: ContentHash,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct AliasInner {
    /// Keyed by the per-process SipHash of `(kind, config, text)`; the
    /// entry keeps all three so a lookup can confirm them.
    map: HashMap<u64, AliasEntry>,
    bytes: usize,
    tick: u64,
}

/// An alias-table hit: everything a resolved job needs.
#[derive(Debug, Clone)]
pub(crate) struct AliasHit {
    /// Display name of the function these bytes spell.
    pub name: Arc<str>,
    /// The content address they canonicalize to under the looked-up config.
    pub hash: ContentHash,
    /// The stored bytes (equal to the looked-up ones), for the fallback
    /// when neither cache tier holds `hash` any more.
    pub source: RequestSource,
}

/// Point-in-time counters of the request-alias tier
/// ([`Engine::alias_stats`](crate::Engine::alias_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Hits whose address was in neither cache tier (the job recompiled).
    pub fallbacks: u64,
    /// Entries displaced by the byte bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged.
    pub bytes: usize,
    /// The byte bound.
    pub budget: usize,
}

/// The request-alias tier: a bounded, memory-only memo from *the bytes a
/// client sent* plus the [`config_key`] to the [`ContentHash`] they
/// canonicalize to.
///
/// The mapping is a pure function, so an entry is never stale — only
/// absent — and the table needs no invalidation, only a bound. Request
/// bytes are hostile input: the map is keyed with the process's randomly
/// keyed SipHash, and a hit is served only after the stored kind, config
/// and bytes compared **equal** to the looked-up ones, so no collision,
/// engineered or accidental, can answer one function with another's
/// result.
pub(crate) struct AliasTable {
    hasher: RandomState,
    budget: usize,
    inner: Mutex<AliasInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    evictions: AtomicU64,
    /// Put every key in one slot, so the tests can watch collisions being
    /// told apart.
    #[cfg(test)]
    all_collide: bool,
}

impl AliasTable {
    /// A table bounded at [`ALIAS_BYTES_PER_CACHE_SLOT`] bytes per slot of
    /// a memory tier of `cache_capacity` entries.
    pub fn new(cache_capacity: usize) -> AliasTable {
        AliasTable {
            hasher: RandomState::new(),
            budget: cache_capacity.max(1).saturating_mul(ALIAS_BYTES_PER_CACHE_SLOT),
            inner: Mutex::new(AliasInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            #[cfg(test)]
            all_collide: false,
        }
    }

    fn slot(&self, kind: SourceKind, config: &str, text: &str) -> u64 {
        #[cfg(test)]
        if self.all_collide {
            return 0;
        }
        self.hasher.hash_one((kind, config, text))
    }

    /// The address `text` resolved to the last time a request spelled
    /// exactly this way completed under `cfg`, refreshing its recency.
    pub fn lookup(&self, kind: SourceKind, text: &str, cfg: &PipelineConfig) -> Option<AliasHit> {
        use vegen_trace::metrics::counter;
        let config = config_key(cfg);
        let slot = self.slot(kind, &config, text);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner
            .map
            .get_mut(&slot)
            .filter(|e| e.source.kind == kind && e.config == config && *e.source.text == *text)
            .map(|e| {
                e.last_used = tick;
                AliasHit { name: e.name.clone(), hash: e.hash, source: e.source.clone() }
            });
        drop(inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counter("serve_alias_hits_total").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            counter("serve_alias_misses_total").inc();
        }
        hit
    }

    /// Remember that `source` under `cfg` is the function `name` at
    /// address `hash`, evicting least-recently-used entries to stay inside
    /// the byte bound. A source too large for the table is not recorded.
    pub fn record(
        &self,
        source: &RequestSource,
        cfg: &PipelineConfig,
        name: &str,
        hash: ContentHash,
    ) {
        use vegen_trace::metrics::gauge;
        let config = config_key(cfg);
        let cost = source.text.len() + config.len() + name.len() + ALIAS_ENTRY_OVERHEAD;
        if cost > self.budget / ALIAS_MAX_ENTRY_DIVISOR {
            return;
        }
        let slot = self.slot(source.kind, &config, &source.text);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let last_used = inner.tick;
        if let Some(old) = inner.map.remove(&slot) {
            inner.bytes -= old.cost;
        }
        while inner.bytes + cost > self.budget {
            // O(n) scan, as in `CompileCache::insert`: every record follows
            // a compile, a disk load or a full request parse.
            let Some(lru) = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(old) = inner.map.remove(&lru) {
                inner.bytes -= old.cost;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.bytes += cost;
        let entry =
            AliasEntry { source: source.clone(), config, name: name.into(), hash, cost, last_used };
        inner.map.insert(slot, entry);
        let (entries, bytes) = (inner.map.len(), inner.bytes);
        drop(inner);
        gauge("serve_alias_entries").set(entries as f64);
        gauge("serve_alias_bytes").set(bytes as f64);
    }

    /// Count a hit whose address turned out to be in neither cache tier.
    pub fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        vegen_trace::metrics::counter("serve_alias_fallbacks_total").inc();
    }

    /// Current counters.
    pub fn stats(&self) -> AliasStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        AliasStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen::driver::compile;
    use vegen_core::BeamConfig;
    use vegen_ir::canon::{add_narrow_constants, canonicalize};
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_isa::TargetIsa;

    fn tiny(name: &str, lanes: i64) -> vegen_ir::Function {
        let mut b = FunctionBuilder::new(name);
        let a = b.param("A", Type::I32, lanes as usize);
        let c = b.param("C", Type::I32, lanes as usize);
        for i in 0..lanes {
            let x = b.load(a, i);
            let y = b.add(x, x);
            b.store(c, i, y);
        }
        b.finish()
    }

    fn cached(f: &vegen_ir::Function, cfg: &PipelineConfig) -> CachedCompile {
        CachedCompile { kernel: Arc::new(compile(f, cfg)), stages: StageTimes::default() }
    }

    #[test]
    fn hash_ignores_name_but_not_body_or_config() {
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
        let canon = |f: &vegen_ir::Function| add_narrow_constants(&canonicalize(f));
        let a = content_hash(&canon(&tiny("a", 4)), &cfg);
        let b = content_hash(&canon(&tiny("a", 4)), &cfg);
        assert_eq!(a, b, "hashing must be deterministic");
        let widened = content_hash(&canon(&tiny("a", 8)), &cfg);
        assert_ne!(a, widened, "different body must address differently");
        let other_beam = PipelineConfig {
            beam: BeamConfig::with_width(1),
            ..PipelineConfig::new(TargetIsa::avx2(), 8)
        };
        assert_ne!(
            a,
            content_hash(&canon(&tiny("a", 4)), &other_beam),
            "beam config is part of the address"
        );
        let vnni = PipelineConfig::new(TargetIsa::avx512vnni(), 8);
        assert_ne!(a, content_hash(&canon(&tiny("a", 4)), &vnni), "target is part of the address");
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 1);
        let cache = CompileCache::new(2);
        let fs: Vec<_> = (2..5).map(|n| tiny("k", n)).collect();
        let keys: Vec<_> = fs.iter().map(|f| content_hash(f, &cfg)).collect();
        for (f, &k) in fs.iter().zip(&keys) {
            assert!(cache.get(k).is_none());
            cache.insert(k, cached(f, &cfg));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 3);
        // keys[0] was least recently used and must be gone; the rest hit.
        assert!(cache.get(keys[0]).is_none());
        assert!(cache.get(keys[1]).is_some());
        assert!(cache.get(keys[2]).is_some());
        assert_eq!(cache.stats().hits, 2);
    }

    fn source(kind: SourceKind, text: &str) -> RequestSource {
        RequestSource { kind, text: text.into() }
    }

    #[test]
    fn alias_hits_are_confirmed_by_equality_not_by_slot() {
        let avx2 = PipelineConfig::new(TargetIsa::avx2(), 8);
        let narrow = PipelineConfig::new(TargetIsa::avx2(), 4);
        let mut table = AliasTable::new(8);
        table.all_collide = true;
        let (a, b) =
            (source(SourceKind::Function, "{\"f\":1}"), source(SourceKind::Function, "{\"f\":2}"));
        table.record(&a, &avx2, "a", ContentHash(1));
        let hit = table.lookup(a.kind, &a.text, &avx2).expect("the recorded key hits");
        assert_eq!((hit.hash, &*hit.name, &hit.source), (ContentHash(1), "a", &a));
        // Same slot, different bytes / settings / kind: never a's answer.
        assert!(table.lookup(b.kind, &b.text, &avx2).is_none());
        assert!(table.lookup(a.kind, &a.text, &narrow).is_none());
        assert!(table.lookup(SourceKind::Kernel, &a.text, &avx2).is_none());
        // A colliding record displaces the older entry; it does not merge.
        table.record(&b, &avx2, "b", ContentHash(2));
        assert!(table.lookup(a.kind, &a.text, &avx2).is_none());
        assert_eq!(table.lookup(b.kind, &b.text, &avx2).map(|h| h.hash), Some(ContentHash(2)));
        let stats = table.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 2, 4), "{stats:?}");
    }

    #[test]
    fn alias_table_is_bounded_in_bytes_and_evicts_least_recently_used() {
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
        let table = AliasTable::new(1);
        let budget = table.stats().budget;
        assert_eq!(budget, ALIAS_BYTES_PER_CACHE_SLOT);
        let spelled =
            |i: usize| source(SourceKind::Function, &format!("{i:04}{}", "x".repeat(1000)));
        let fit = budget / (1004 + config_key(&cfg).len() + 1 + ALIAS_ENTRY_OVERHEAD);
        // Ten times more distinct sources than fit; the first is kept
        // alive by being asked for.
        for i in 0..10 * fit {
            table.record(&spelled(i), &cfg, "f", ContentHash(i as u128));
            let stats = table.stats();
            assert!(stats.bytes <= budget && stats.entries <= fit, "after {i}: {stats:?}");
            assert!(table.lookup(SourceKind::Function, &spelled(0).text, &cfg).is_some(), "at {i}");
        }
        let stats = table.stats();
        assert_eq!(stats.entries, fit);
        assert_eq!(stats.evictions as usize, 10 * fit - fit);
        let resident = |i: usize| {
            let s = spelled(i);
            table.lookup(s.kind, &s.text, &cfg).map(|h| h.hash) == Some(ContentHash(i as u128))
        };
        assert!(resident(0) && resident(10 * fit - 1) && !resident(1) && !resident(fit));
        // Over a quarter of the budget: not remembered, nothing displaced.
        let huge = source(SourceKind::Function, &"y".repeat(budget / ALIAS_MAX_ENTRY_DIVISOR));
        table.record(&huge, &cfg, "f", ContentHash(7));
        assert!(table.lookup(huge.kind, &huge.text, &cfg).is_none());
        assert_eq!(table.stats().entries, fit);
    }

    #[test]
    fn racing_inserts_agree_on_one_value() {
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 1);
        let f = tiny("k", 4);
        let key = content_hash(&f, &cfg);
        let cache = CompileCache::new(8);
        let first = cache.insert(key, cached(&f, &cfg));
        let second = cache.insert(key, cached(&f, &cfg));
        assert!(Arc::ptr_eq(&first.kernel, &second.kernel));
    }
}
