//! Parallel-beam determinism over the full `vegen-kernels` suite.
//!
//! The parallel search's contract is that worker count is *invisible* in
//! the results: fanning an iteration's frontier across N threads changes
//! wall time and nothing else. These tests pin that contract — byte-level
//! equality of the selected packs, the f64 cost bits, and the search-
//! effort counters at 1, 2, and 8 threads for every kernel in the suite —
//! plus the abort paths: a `CancelToken` fired mid-search and a wall
//! deadline tripped mid-fan-out must both come back as typed errors
//! promptly, leaving the parked [`SelectionReuse`] snapshot fully usable.

use std::time::{Duration, Instant};
use vegen_core::beam::SearchBudget;
use vegen_core::{
    select_packs, select_packs_reusing, BeamConfig, CancelToken, CostModel, Pack, SelectError,
    SelectionResult, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::Function;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

fn avx2_desc() -> TargetDesc {
    TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
}

fn prepared(build: fn() -> Function) -> Function {
    add_narrow_constants(&canonicalize(&build()))
}

fn pack_list(r: &SelectionResult) -> Vec<Pack> {
    r.packs.iter().map(|(_, p)| p.clone()).collect()
}

fn cfg(width: usize, threads: usize) -> BeamConfig {
    BeamConfig { beam_threads: threads, ..BeamConfig::with_width(width) }
}

/// The suite kernel with the most instructions after canonicalization —
/// the longest-running search, used by the abort tests so there is a
/// genuine mid-fan-out window to interrupt.
fn largest_kernel() -> Function {
    vegen_kernels::all()
        .into_iter()
        .map(|k| prepared(k.build))
        .max_by_key(|f| f.insts.len())
        .expect("suite is non-empty")
}

#[test]
fn thread_count_is_invisible_across_the_full_suite() {
    let desc = avx2_desc();
    for k in vegen_kernels::all() {
        let f = prepared(k.build);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let base = select_packs(&ctx, &cfg(8, 1)).unwrap();
        assert_eq!(base.stats.workers, 1, "{}", k.name);
        for threads in [2usize, 8] {
            let r = select_packs(&ctx, &cfg(8, threads)).unwrap();
            assert_eq!(r.stats.workers, threads, "{}", k.name);
            assert_eq!(
                pack_list(&base),
                pack_list(&r),
                "{}: selected packs diverged at {threads} threads",
                k.name
            );
            assert_eq!(
                base.vector_cost.to_bits(),
                r.vector_cost.to_bits(),
                "{}: vector cost bits diverged at {threads} threads",
                k.name
            );
            assert_eq!(base.scalar_cost.to_bits(), r.scalar_cost.to_bits(), "{}", k.name);
            assert_eq!(base.stats.states_expanded, r.stats.states_expanded, "{}", k.name);
            assert_eq!(base.stats.transitions, r.stats.transitions, "{}", k.name);
            assert_eq!(base.stats.dedup_hits, r.stats.dedup_hits, "{}", k.name);
            assert_eq!(base.stats.hash_collisions, r.stats.hash_collisions, "{}", k.name);
        }
    }
}

#[test]
fn cancellation_mid_fan_out_is_prompt_and_leaves_reuse_clean() {
    let desc = avx2_desc();
    let f = largest_kernel();
    let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
    let reference = select_packs(&ctx, &cfg(64, 8)).unwrap();

    // Fire the token from another thread shortly after the search starts.
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            token.cancel();
        })
    };
    let mut reuse = SelectionReuse::new();
    let budget = SearchBudget { cancel: Some(token), ..SearchBudget::default() };
    let interrupted = BeamConfig { budget, ..cfg(64, 8) };
    let t0 = Instant::now();
    let out = select_packs_reusing(&ctx, &interrupted, &mut reuse);
    let elapsed = t0.elapsed();
    canceller.join().unwrap();
    match out {
        Err(SelectError::Cancelled) => {
            // Per-state polling inside the fan-out means the abort lands
            // promptly — not after the iteration (or search) completes.
            assert!(elapsed < Duration::from_secs(5), "cancellation took {elapsed:?}");
        }
        // The search outran the 1ms fuse — legal, but it must then have
        // produced exactly the reference result.
        Ok(r) => assert_eq!(pack_list(&r), pack_list(&reference)),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }

    // No poisoned state: the same reuse handle (frozen snapshot + slp memo
    // as the abort left them) must now finish and agree with the fresh,
    // never-cancelled search bit for bit.
    let retry = select_packs_reusing(&ctx, &cfg(64, 8), &mut reuse).unwrap();
    assert_eq!(pack_list(&retry), pack_list(&reference));
    assert_eq!(retry.vector_cost.to_bits(), reference.vector_cost.to_bits());
    assert_eq!(retry.stats.transitions, reference.stats.transitions);
}

#[test]
fn deadline_mid_fan_out_is_typed_and_leaves_reuse_clean() {
    let desc = avx2_desc();
    let f = largest_kernel();
    let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
    let mut reuse = SelectionReuse::new();
    // Warm the snapshot so the tight deadline below lands *inside* the
    // parallel search loop, not in the freeze pre-pass.
    let reference = select_packs_reusing(&ctx, &cfg(64, 8), &mut reuse).unwrap();

    let budget = SearchBudget { wall: Some(Duration::from_micros(100)), ..SearchBudget::default() };
    let tight = BeamConfig { budget, ..cfg(64, 8) };
    match select_packs_reusing(&ctx, &tight, &mut reuse) {
        Err(SelectError::Deadline { .. }) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }

    // The parked snapshot survives the abort and still produces the
    // reference result.
    let retry = select_packs_reusing(&ctx, &cfg(64, 8), &mut reuse).unwrap();
    assert!(retry.stats.frozen_reused, "retry must reuse the parked snapshot");
    assert_eq!(pack_list(&retry), pack_list(&reference));
    assert_eq!(retry.vector_cost.to_bits(), reference.vector_cost.to_bits());
}
