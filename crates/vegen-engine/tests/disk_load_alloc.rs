//! Heap-allocation budget of a disk-cache hit.
//!
//! A disk hit is meant to cost a read, one tokenizer pass over the entry
//! and the decode of the kernel: no JSON tree. Wall time cannot pin that
//! on a noisy machine; an allocation count can — it is exact and repeats.
//! This binary installs a counting global allocator, fills a cache
//! directory with the 33 suite kernels and 64 distinct corpus-42 kernels,
//! and holds the median allocations of one `DiskCache::load` to a budget.
//! Both profiles read 262, where a tree parse of the same entries read
//! 1 704; the budget is that reading plus 10%.
//!
//! One test only: nothing else may allocate while the count is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use vegen::driver::PipelineConfig;
use vegen_engine::diskcache::{isa_fingerprint, DiskCache};
use vegen_engine::{Engine, EngineConfig, Job};
use vegen_isa::TargetIsa;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // guarantees `new_size` as `System.realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Median allocations of one `DiskCache::load` per entry (reading 262).
const BUDGET: u64 = 288;

#[test]
fn a_disk_hit_stays_inside_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("vegen-disk-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = PipelineConfig::new(TargetIsa::avx2(), 16);
    let suite = vegen_kernels::all().into_iter().map(|k| (k.name.to_string(), (k.build)()));
    let corpus =
        (0..).map(|i| vegen_kernels::gen::generate(42, i).function).map(|f| (f.name.clone(), f));
    let engine = Engine::new(EngineConfig {
        threads: 2,
        verify_trials: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let mut hashes = BTreeSet::new();
    let compile = |jobs: Vec<Job>, hashes: &mut BTreeSet<_>| {
        for r in engine.compile_batch(&jobs) {
            assert!(r.faults.is_empty() && !r.failed(), "{}: {:?}", r.name, r.faults);
            hashes.insert(r.hash.expect("a compiled job has an address"));
        }
    };
    let jobs = |kernels: Vec<(String, vegen_ir::Function)>| {
        kernels.into_iter().map(|(name, f)| Job::new(name, f, pipeline.clone())).collect()
    };
    compile(jobs(suite.collect()), &mut hashes);
    let suite_entries = hashes.len();
    // Distinct corpus kernels: generated kernels may share an address.
    let mut corpus = corpus;
    while hashes.len() < suite_entries + 64 {
        let want = suite_entries + 64 - hashes.len();
        compile(jobs(corpus.by_ref().take(want).collect()), &mut hashes);
    }
    drop(engine);

    let disk = DiskCache::open(&dir).unwrap();
    let fingerprint = isa_fingerprint(&pipeline.target, pipeline.canonicalize_patterns);
    let mut per_load: Vec<u64> = hashes
        .iter()
        .map(|&hash| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let hit = disk.load(hash, &fingerprint);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert!(matches!(hit, Ok(Some(_))), "{}: not a disk hit", hash.hex());
            allocations
        })
        .collect();
    per_load.sort_unstable();
    let median = per_load[per_load.len() / 2];
    println!(
        "{} entries: median {median} allocations per load (min {}, max {})",
        per_load.len(),
        per_load[0],
        per_load[per_load.len() - 1]
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(median <= BUDGET, "median {median} allocations per disk load (budget {BUDGET})");
}
