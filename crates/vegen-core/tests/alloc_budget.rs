//! Heap-allocation budget of pack selection.
//!
//! A scored beam successor is meant to cost no allocation at all (it is a
//! record and a key in buffers reused by every iteration), and a survivor
//! a handful (its state buffer, its `V` vector, its pack-path node). Wall
//! time cannot pin that on a noisy machine; an allocation count can — it
//! is exact and repeats. This binary installs a counting global allocator
//! and holds `select_packs` (freeze included) to a budget of allocations
//! per transition over the generated corpus, where per-state costs
//! dominate, and over the paper suite, where freeze interning does, and
//! the freeze alone to a budget of allocations over the suite. A release
//! build reads 0.42 and 2.15 per transition and 237 563 in one freeze of
//! each suite kernel; a debug build 0.60, 3.36 and 239 806, because the
//! from-scratch legality oracle it asserts against allocates (and the
//! freeze keeps a copy of the dependence graph for it). Each budget is
//! its profile's reading plus 10%, rounded up.
//!
//! One test only: nothing else may allocate while the count is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vegen_core::{select_packs, BeamConfig, CostModel, FrozenCtx, VectorizerCtx};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::Function;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

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

/// Allocations inside `select_packs` per transition generated, summed over
/// `kernels` (AVX2, width 16, one beam thread).
fn allocations_per_transition(desc: &TargetDesc, kernels: &[Function]) -> f64 {
    let cfg = BeamConfig { beam_threads: 1, ..BeamConfig::with_width(16) };
    let (mut allocations, mut transitions) = (0u64, 0u64);
    for f in kernels {
        let ctx = VectorizerCtx::new(f, desc, CostModel::default());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let r = select_packs(&ctx, &cfg).expect("unlimited budget");
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        transitions += r.stats.transitions;
    }
    allocations as f64 / transitions as f64
}

/// Allocations inside one freeze of each of `kernels` (the same
/// configuration), summed.
fn freeze_allocations(desc: &TargetDesc, kernels: &[Function]) -> u64 {
    let cfg = BeamConfig { beam_threads: 1, ..BeamConfig::with_width(16) };
    let mut allocations = 0u64;
    for f in kernels {
        let ctx = VectorizerCtx::new(f, desc, CostModel::default());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let fz = FrozenCtx::new(&ctx, &cfg).expect("unlimited budget");
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(fz);
    }
    allocations
}

#[test]
fn selection_stays_inside_its_allocation_budget() {
    let desc = TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true);
    let prepared = |f: &Function| add_narrow_constants(&canonicalize(f));

    let corpus: Vec<Function> =
        (0..200).map(|i| prepared(&vegen_kernels::gen::generate(42, i).function)).collect();
    let (corpus_budget, suite_budget, freeze_budget) =
        if cfg!(debug_assertions) { (0.67, 3.70, 263_800) } else { (0.47, 2.38, 261_400) };
    let per = allocations_per_transition(&desc, &corpus);
    println!("corpus: {per:.2} allocations per transition");
    assert!(per <= corpus_budget, "corpus: {per:.2} allocations per transition ({corpus_budget})");

    let suite: Vec<Function> =
        vegen_kernels::all().into_iter().map(|k| prepared(&(k.build)())).collect();
    let per = allocations_per_transition(&desc, &suite);
    println!("suite: {per:.2} allocations per transition");
    assert!(per <= suite_budget, "suite: {per:.2} allocations per transition ({suite_budget})");

    let n = freeze_allocations(&desc, &suite);
    println!("suite: {n} allocations in one freeze per kernel");
    assert!(
        n <= freeze_budget,
        "suite: {n} allocations in one freeze per kernel ({freeze_budget})"
    );
}
