//! Static translation validation over the whole evaluation suite, plus
//! seeded corruptions demonstrating that the static analysis rejects bugs
//! the dynamic random-testing check can miss.

use vegen::analysis::{analyze_program, Severity};
use vegen::codegen::check_equivalence;
use vegen::core::BeamConfig;
use vegen::driver::{compile, PipelineConfig};
use vegen::ir::CmpPred;
use vegen::ir::{Inst, InstKind};
use vegen::isa::TargetIsa;
use vegen::vm::{LaneSrc, VmInst, VmProgram};

fn cfg(target: TargetIsa, width: usize, canon: bool) -> PipelineConfig {
    PipelineConfig { target, beam: BeamConfig::with_width(width), canonicalize_patterns: canon }
}

fn assert_suite_clean(target: TargetIsa, width: usize, canon: bool) {
    for k in vegen::kernels::all() {
        let f = (k.build)();
        let ck = compile(&f, &cfg(target.clone(), width, canon));
        assert!(
            ck.analysis.is_clean(),
            "kernel {} ({}, beam {width}, canon {canon}) failed static validation:\n{}",
            k.name,
            target.name,
            ck.analysis.all().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert!(ck.analysis.lanes_proved > 0, "kernel {} proved no stored lanes at all", k.name);
    }
}

#[test]
fn suite_statically_valid_avx2() {
    assert_suite_clean(TargetIsa::avx2(), 16, true);
}

#[test]
fn suite_statically_valid_avx512vnni() {
    assert_suite_clean(TargetIsa::avx512vnni(), 16, true);
}

#[test]
fn suite_statically_valid_without_canonicalization() {
    // The Fig. 11 ablation: patterns built without §6 canonicalization
    // must still validate (the provenance pass replays the same flavor).
    assert_suite_clean(TargetIsa::avx2(), 16, false);
}

/// Corrupting shuffle indices in compiled programs: every swap that is
/// semantically visible must be rejected statically, and at least one such
/// swap must exist across the suite (the analysis is exercised for real).
#[test]
fn shuffle_index_corruptions_rejected() {
    let mut rejected = 0usize;
    let mut accepted_equivalent = 0usize;
    for k in vegen::kernels::all() {
        let f = (k.build)();
        let ck = compile(&f, &cfg(TargetIsa::avx2(), 16, true));
        for (idx, inst) in ck.vegen.insts.iter().enumerate() {
            let VmInst::Build { lanes, .. } = inst else { continue };
            // Find two FromVec lanes whose swap changes the program.
            let Some((i, j)) = first_swappable_pair(lanes) else { continue };
            let mut corrupted = ck.vegen.clone();
            let VmInst::Build { lanes, .. } = &mut corrupted.insts[idx] else { unreachable!() };
            lanes.swap(i, j);
            let report = analyze_program(&ck.function, &corrupted, true);
            if report.is_clean() {
                // The analysis may only accept a swap that really is
                // semantically neutral (e.g. both lanes feed a commutative
                // reduction). Execution must agree.
                check_equivalence(&ck.function, &corrupted, 64).unwrap_or_else(|e| {
                    panic!(
                        "kernel {}: statically accepted Build swap at inst {idx} \
                         lanes {i}<->{j} is dynamically wrong: {e}",
                        k.name
                    )
                });
                accepted_equivalent += 1;
            } else {
                assert!(
                    report.provenance.iter().any(|d| d.severity == Severity::Error),
                    "kernel {}: rejection must come from provenance: {:?}",
                    k.name,
                    report
                );
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > 0,
        "no Build corruption was rejected anywhere in the suite \
         (rejected {rejected}, neutral {accepted_equivalent})"
    );
}

fn first_swappable_pair(lanes: &[LaneSrc]) -> Option<(usize, usize)> {
    for i in 0..lanes.len() {
        for j in i + 1..lanes.len() {
            if lanes[i] != lanes[j] {
                if let (LaneSrc::FromVec { .. }, LaneSrc::FromVec { .. }) = (&lanes[i], &lanes[j]) {
                    return Some((i, j));
                }
            }
        }
    }
    None
}

/// An off-by-one comparison predicate (`<=` corrupted to `<`) diverges
/// only when the operands are exactly equal — probability 2^-32 per trial
/// on full-range 32-bit data. The dynamic check at a realistic trial count
/// misses it; the static provenance check rejects it immediately, naming
/// the corrupted instruction.
#[test]
fn predicate_corruption_caught_statically_missed_dynamically() {
    use vegen::ir::{FunctionBuilder, Type};
    let mut b = FunctionBuilder::new("clip");
    let src = b.param("B", Type::I32, 4);
    let lim = b.param("L", Type::I32, 4);
    let dst = b.param("A", Type::I32, 4);
    for lane in 0..4i64 {
        let x = b.load(src, lane);
        let l = b.load(lim, lane);
        let c = b.cmp(CmpPred::Sle, x, l);
        let clipped = b.select(c, x, l);
        b.store(dst, lane, clipped);
    }
    let f = b.finish();

    let ck = compile(&f, &cfg(TargetIsa::avx2(), 16, true));
    assert!(ck.analysis.is_clean(), "uncorrupted kernel must validate");

    // Corrupt the scalar lowering: the first Sle comparison becomes Slt.
    let mut corrupted = ck.scalar.clone();
    let mut hit = None;
    for (idx, inst) in corrupted.insts.iter_mut().enumerate() {
        if let VmInst::Scalar { inst: Inst { kind: InstKind::Cmp { pred, .. }, .. }, .. } = inst {
            if *pred == CmpPred::Sle {
                *pred = CmpPred::Slt;
                hit = Some(idx);
                break;
            }
        }
    }
    let hit = hit.expect("scalar lowering of a clip kernel must contain an Sle compare");

    // The dynamic check misses the bug at its default-scale trial count:
    // random full-range operands are never exactly equal.
    check_equivalence(&f, &corrupted, 8)
        .expect("dynamic check was expected to miss the off-by-one predicate");

    // The static check rejects it and names the instruction.
    let report = analyze_program(&f, &corrupted, true);
    assert!(!report.is_clean(), "static validation must reject the corruption");
    let named = report
        .provenance
        .iter()
        .any(|d| d.message.contains(&format!("#{}", locate_store(&corrupted, hit))));
    assert!(
        named || report.provenance.iter().any(|d| d.message.contains("A[")),
        "diagnostic must name the store or location: {:?}",
        report.provenance
    );
}

/// The store (transitively) consuming the corrupted compare — the writer
/// the provenance diagnostic names.
fn locate_store(prog: &VmProgram, from: usize) -> usize {
    for (idx, inst) in prog.insts.iter().enumerate().skip(from) {
        if matches!(inst, VmInst::Scalar { dst: None, .. } | VmInst::VecStore { .. }) {
            return idx;
        }
    }
    from
}

/// Swapping the operands of a commutative scalar op is semantically
/// neutral; normalization must accept it (no false positives).
#[test]
fn commutative_operand_swap_accepted() {
    let mut tested = 0usize;
    for k in vegen::kernels::all() {
        let f = (k.build)();
        let ck = compile(&f, &cfg(TargetIsa::avx2(), 16, true));
        let mut swapped = ck.scalar.clone();
        let mut did_swap = false;
        for inst in swapped.insts.iter_mut() {
            if let VmInst::Scalar {
                inst: Inst { kind: InstKind::Bin { op, lhs, rhs }, .. }, ..
            } = inst
            {
                if op.is_commutative() && lhs != rhs {
                    std::mem::swap(lhs, rhs);
                    did_swap = true;
                }
            }
        }
        if !did_swap {
            continue;
        }
        let report = analyze_program(&ck.function, &swapped, true);
        assert!(
            report.is_clean(),
            "kernel {}: operand order of commutative ops must not matter: {:?}",
            k.name,
            report.provenance
        );
        tested += 1;
    }
    assert!(tested > 0, "no suite kernel has a commutative binary op");
}

/// Dropping a lane of a store pack (a don't-care lane where the scalar
/// program stores a value) is rejected with a diagnostic naming the lane.
#[test]
fn dropped_store_lane_rejected() {
    let mut tested = 0usize;
    for k in vegen::kernels::all() {
        let f = (k.build)();
        let ck = compile(&f, &cfg(TargetIsa::avx2(), 16, true));
        // Replace the last lane of the first Build with Undef — a dropped
        // pack lane. Kernels whose programs have no Build are covered by
        // the other corruption tests.
        let mut corrupted = ck.vegen.clone();
        let mut did = false;
        for inst in corrupted.insts.iter_mut() {
            if let VmInst::Build { lanes, .. } = inst {
                if let Some(last) = lanes.last_mut() {
                    if !matches!(last, LaneSrc::Undef) {
                        *last = LaneSrc::Undef;
                        did = true;
                        break;
                    }
                }
            }
        }
        if !did {
            continue;
        }
        let report = analyze_program(&ck.function, &corrupted, true);
        if report.is_clean() {
            // Acceptable only if the lane really was a don't-care.
            check_equivalence(&ck.function, &corrupted, 64).unwrap_or_else(|e| {
                panic!(
                    "kernel {}: statically accepted dropped lane is dynamically wrong: {e}",
                    k.name
                )
            });
            continue;
        }
        tested += 1;
    }
    assert!(tested > 0, "no dropped-lane corruption was rejected anywhere in the suite");
}
