//! End-to-end equivalence checking: the scalar function and the lowered
//! vector program must compute identical memory effects.
//!
//! The paper's correctness story rests on LLVM and hardware; ours rests on
//! this — every kernel/test/bench runs the check.

use vegen_ir::interp::{random_memory, run, EvalError};
use vegen_ir::Function;
use vegen_vm::{run_program, VmProgram};

/// Run `f` and `prog` on `trials` identical random memory images and
/// compare the resulting memories.
///
/// The check is *deterministic*: trial `i` derives its memory image from
/// seed `i` alone, so repeated calls with the same arguments visit the
/// same inputs and return the same answer — a miss cannot flake into a
/// catch. It is also *probabilistic* in coverage: a divergence that
/// triggers only on specific values (say, a predicate flipped from `sle`
/// to `slt`, which matters only when two operands compare equal) can
/// survive any fixed trial count. `vegen-analysis` closes that gap
/// statically; `tests/static_validation.rs` pins both properties.
///
/// # Errors
///
/// Returns a description of the first divergence or evaluation failure.
pub fn check_equivalence(f: &Function, prog: &VmProgram, trials: u64) -> Result<(), String> {
    for seed in 0..trials {
        let mut scalar_mem = random_memory(f, seed.wrapping_mul(0x9e37).wrapping_add(seed));
        let mut vector_mem = scalar_mem.clone();
        run(f, &mut scalar_mem).map_err(|e: EvalError| format!("scalar run failed: {e}"))?;
        run_program(prog, &mut vector_mem).map_err(|e| format!("vector run failed: {e}"))?;
        if scalar_mem != vector_mem {
            for b in 0..scalar_mem.buffer_count() {
                if scalar_mem.buffer(b) != vector_mem.buffer(b) {
                    return Err(format!(
                        "seed {seed}: buffer {b} ({}) diverges\n  scalar: {:?}\n  vector: {:?}\n\nprogram:\n{}",
                        f.params[b].name,
                        scalar_mem.buffer(b),
                        vector_mem.buffer(b),
                        vegen_vm::listing(prog),
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, lower_scalar};
    use vegen_core::{select_packs, BeamConfig, CostModel, VectorizerCtx};
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_isa::{InstDb, TargetIsa};
    use vegen_match::TargetDesc;

    fn avx2_desc() -> TargetDesc {
        TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
    }

    #[test]
    fn divergence_reports_are_deterministic() {
        // A program that stores a different constant than the scalar
        // function: the divergence must be found on the same seed with
        // the same message every time (the corruption tests in
        // tests/static_validation.rs rely on this to assert that a given
        // trial count *misses* without flaking).
        let mut b = FunctionBuilder::new("det");
        let p = b.param("A", Type::I32, 1);
        let one = b.iconst(Type::I32, 1);
        b.store(p, 0, one);
        let f = b.finish();
        let mut prog = lower_scalar(&f);
        for inst in &mut prog.insts {
            if let vegen_vm::VmInst::Scalar { inst, .. } = inst {
                if let vegen_ir::InstKind::Const(c) = &mut inst.kind {
                    *c = vegen_ir::Constant::int(Type::I32, 2);
                }
            }
        }
        let first = check_equivalence(&f, &prog, 4).unwrap_err();
        let second = check_equivalence(&f, &prog, 4).unwrap_err();
        assert_eq!(first, second);
        assert!(first.contains("seed 0"), "{first}");
    }

    #[test]
    fn scalar_lowering_is_equivalent() {
        let mut b = FunctionBuilder::new("mix");
        let p = b.param("A", Type::I32, 8);
        let q = b.param("O", Type::I32, 4);
        for i in 0..4i64 {
            let x = b.load(p, i);
            let y = b.load(p, i + 4);
            let c = b.cmp(vegen_ir::CmpPred::Sgt, x, y);
            let s = b.select(c, x, y);
            b.store(q, i, s);
        }
        let f = canonicalize(&b.finish());
        let prog = lower_scalar(&f);
        check_equivalence(&f, &prog, 32).unwrap();
    }

    #[test]
    fn vectorized_dot4_is_equivalent_and_uses_pmaddwd() {
        let mut b = FunctionBuilder::new("dot4");
        let a = b.param("A", Type::I16, 8);
        let bb = b.param("B", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let a0 = b.load(a, lane * 2);
            let b0 = b.load(bb, lane * 2);
            let a1 = b.load(a, lane * 2 + 1);
            let b1 = b.load(bb, lane * 2 + 1);
            let a0w = b.sext(a0, Type::I32);
            let b0w = b.sext(b0, Type::I32);
            let a1w = b.sext(a1, Type::I32);
            let b1w = b.sext(b1, Type::I32);
            let m0 = b.mul(a0w, b0w);
            let m1 = b.mul(a1w, b1w);
            let t = b.add(m0, m1);
            b.store(c, lane, t);
        }
        let f = canonicalize(&b.finish());
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let sel = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert!(!sel.packs.is_empty());
        let prog = lower(&ctx, &sel.packs);
        assert!(prog.vector_ops_used().iter().any(|n| n.contains("pmaddwd")), "{prog:?}");
        check_equivalence(&f, &prog, 64).unwrap();
        // And it is smaller than the scalar program.
        let scalar = lower_scalar(&f);
        assert!(prog.instruction_count() < scalar.instruction_count());
    }

    #[test]
    fn vectorized_saturating_kernel_is_equivalent() {
        // A packssdw-shaped kernel: clamp i32 values into i16 outputs.
        let mut b = FunctionBuilder::new("sat_pack");
        let a = b.param("A", Type::I32, 4);
        let bbuf = b.param("B", Type::I32, 4);
        let o = b.param("O", Type::I16, 8);
        for i in 0..4i64 {
            let x = b.load(a, i);
            let cl = b.clamp(x, -32768, 32767);
            let n = b.trunc(cl, Type::I16);
            b.store(o, i, n);
        }
        for i in 0..4i64 {
            let x = b.load(bbuf, i);
            let cl = b.clamp(x, -32768, 32767);
            let n = b.trunc(cl, Type::I16);
            b.store(o, i + 4, n);
        }
        let f = canonicalize(&b.finish());
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let sel = select_packs(&ctx, &BeamConfig::with_width(16)).unwrap();
        let prog = lower(&ctx, &sel.packs);
        check_equivalence(&f, &prog, 64).unwrap();
        assert!(
            prog.vector_ops_used().iter().any(|n| n.contains("packssdw")),
            "expected packssdw, used: {:?}\n{}",
            prog.vector_ops_used(),
            vegen_vm::listing(&prog)
        );
    }

    #[test]
    fn partially_vectorized_kernel_with_scalar_users_is_equivalent() {
        // One lane's value is also consumed by a scalar store — forces an
        // extraction path.
        let mut b = FunctionBuilder::new("extract_path");
        let a = b.param("A", Type::I32, 4);
        let bb = b.param("B", Type::I32, 4);
        let o = b.param("O", Type::I32, 4);
        let extra = b.param("X", Type::I32, 1);
        let mut sums = Vec::new();
        for i in 0..4i64 {
            let x = b.load(a, i);
            let y = b.load(bb, i);
            let s = b.add(x, y);
            b.store(o, i, s);
            sums.push(s);
        }
        // Scalar use of lane 2's sum.
        b.store(extra, 0, sums[2]);
        let f = canonicalize(&b.finish());
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let sel = select_packs(&ctx, &BeamConfig::with_width(16)).unwrap();
        let prog = lower(&ctx, &sel.packs);
        check_equivalence(&f, &prog, 64).unwrap();
    }

    #[test]
    fn empty_pack_set_lowers_to_scalar_program() {
        let mut b = FunctionBuilder::new("tiny");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let y = b.mul(x, x);
        b.store(p, 1, y);
        let f = canonicalize(&b.finish());
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let packs = vegen_core::PackSet::new();
        let prog = lower(&ctx, &packs);
        check_equivalence(&f, &prog, 16).unwrap();
        assert_eq!(prog.vector_op_count(), 0);
    }
}
