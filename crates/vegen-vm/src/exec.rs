//! Execution of vector programs against a memory image.

use crate::program::{LaneSrc, Reg, VmInst, VmProgram};
use vegen_ir::interp::{step, EvalError, Memory};
use vegen_ir::Constant;
use vegen_vidl::eval_inst;

/// A register value at run time.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Unset,
    Scalar(Constant),
    Vector(Vec<Constant>),
}

/// Run `prog` against `mem`, mutating it through stores.
///
/// # Errors
///
/// Returns an error on division by zero, use of an unset or nonexistent
/// register, an ill-typed scalar instruction, a memory access out of
/// bounds, or shape mismatches (which indicate codegen bugs).
pub fn run_program(prog: &VmProgram, mem: &mut Memory) -> Result<(), EvalError> {
    let mut regs: Vec<Val> = vec![Val::Unset; prog.n_regs];
    let scalar = |regs: &[Val], r: Reg| -> Result<Constant, EvalError> {
        match regs.get(r.0 as usize) {
            Some(Val::Scalar(c)) => Ok(*c),
            other => Err(EvalError(format!("{r} is not a scalar ({other:?})"))),
        }
    };
    let vector = |regs: &[Val], r: Reg| -> Result<Vec<Constant>, EvalError> {
        match regs.get(r.0 as usize) {
            Some(Val::Vector(v)) => Ok(v.clone()),
            other => Err(EvalError(format!("{r} is not a vector ({other:?})"))),
        }
    };
    let set = |regs: &mut [Val], r: Reg, v: Val| -> Result<(), EvalError> {
        let n = regs.len();
        *regs
            .get_mut(r.0 as usize)
            .ok_or_else(|| EvalError(format!("{r} out of range of {n} registers")))? = v;
        Ok(())
    };
    for inst in &prog.insts {
        match inst {
            VmInst::Scalar { dst, inst } => {
                let out = step(inst, |r| scalar(&regs, r), mem)?;
                if let Some(dst) = dst.get() {
                    set(&mut regs, dst, Val::Scalar(out))?;
                }
            }
            VmInst::VecLoad { dst, base, start, lanes, elem: _ } => {
                let v = (0..*lanes as i64)
                    .map(|i| mem.read(*base, start + i))
                    .collect::<Result<_, _>>()?;
                set(&mut regs, *dst, Val::Vector(v))?;
            }
            VmInst::VecStore { base, start, src } => {
                let v = vector(&regs, *src)?;
                for (i, c) in v.iter().enumerate() {
                    mem.write(*base, start + i as i64, *c)?;
                }
            }
            VmInst::VecOp { dst, sem, args } => {
                let sem = prog
                    .sems
                    .get(*sem)
                    .ok_or_else(|| EvalError(format!("no instruction semantics #{sem}")))?;
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(vector(&regs, *a)?);
                }
                let out = eval_inst(sem, &inputs)?;
                set(&mut regs, *dst, Val::Vector(out))?;
            }
            VmInst::Build { dst, elem, lanes } => {
                let mut out = Vec::with_capacity(lanes.len());
                for l in lanes {
                    out.push(match l {
                        LaneSrc::FromVec { src, lane } => {
                            let v = vector(&regs, *src)?;
                            *v.get(*lane).ok_or_else(|| {
                                EvalError(format!("lane {lane} out of range of {src}"))
                            })?
                        }
                        LaneSrc::FromScalar(r) => scalar(&regs, *r)?,
                        LaneSrc::Const(c) => *c,
                        LaneSrc::Undef => Constant::zero(*elem),
                    });
                }
                set(&mut regs, *dst, Val::Vector(out))?;
            }
            VmInst::Extract { dst, src, lane } => {
                let v = vector(&regs, *src)?;
                let c = *v.get(*lane).ok_or_else(|| {
                    EvalError(format!("extract lane {lane} out of range of {src}"))
                })?;
                set(&mut regs, *dst, Val::Scalar(c))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Dst;
    use vegen_ir::{BinOp, CastOp, CmpPred, Inst, InstKind, MemLoc, Param, Type};
    use vegen_vidl::parse_inst;

    fn pmaddwd_sem() -> vegen_vidl::InstSemantics {
        parse_inst(
            "inst pmaddwd (a: 4 x i16, b: 4 x i16) -> i32 [
               madd(a[0], b[0], a[1], b[1]),
               madd(a[2], b[2], a[3], b[3])
             ] where
             op madd (x1: i16, x2: i16, x3: i16, x4: i16) -> i32 =
               add(mul(sext_i32(x1), sext_i32(x2)), mul(sext_i32(x3), sext_i32(x4)))",
        )
        .unwrap()
    }

    /// Fig. 4(f): vmovd, vmovd, pmaddwd, vmovd — executed in the VM.
    #[test]
    fn runs_pmaddwd_program() {
        let params = vec![
            Param { name: "A".into(), elem_ty: Type::I16, len: 4 },
            Param { name: "B".into(), elem_ty: Type::I16, len: 4 },
            Param { name: "C".into(), elem_ty: Type::I32, len: 2 },
        ];
        let mut p = VmProgram::new("dot", params);
        let sem = p.intern_sem(&pmaddwd_sem(), "pmaddwd", 1.0);
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        let c = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: a, base: 0, start: 0, lanes: 4, elem: Type::I16 });
        p.push(VmInst::VecLoad { dst: b, base: 1, start: 0, lanes: 4, elem: Type::I16 });
        p.push(VmInst::VecOp { dst: c, sem, args: vec![a, b] });
        p.push(VmInst::VecStore { base: 2, start: 0, src: c });

        let mut f = vegen_ir::Function::new("dummy");
        f.params = p.params.clone();
        let mut mem = Memory::zeroed(&f);
        for (i, v) in [3i64, -4, 5, 6].iter().enumerate() {
            mem.write(0, i as i64, Constant::int(Type::I16, *v)).unwrap();
        }
        for (i, v) in [10i64, 100, -1, 2].iter().enumerate() {
            mem.write(1, i as i64, Constant::int(Type::I16, *v)).unwrap();
        }
        run_program(&p, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), 3 * 10 + (-4) * 100);
        assert_eq!(mem.read(2, 1).unwrap().as_i64(), -5 + 6 * 2);
    }

    #[test]
    fn build_and_extract_roundtrip() {
        let params = vec![Param { name: "A".into(), elem_ty: Type::I32, len: 4 }];
        let mut p = VmProgram::new("t", params);
        let v = p.fresh_reg();
        let x = p.fresh_reg();
        let built = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: v, base: 0, start: 0, lanes: 4, elem: Type::I32 });
        p.push(VmInst::Extract { dst: x, src: v, lane: 2 });
        p.push(VmInst::Build {
            dst: built,
            elem: Type::I32,
            lanes: vec![
                LaneSrc::FromScalar(x),
                LaneSrc::FromVec { src: v, lane: 0 },
                LaneSrc::Const(Constant::int(Type::I32, 99)),
                LaneSrc::Undef,
            ],
        });
        p.push(VmInst::VecStore { base: 0, start: 0, src: built });
        let mut f = vegen_ir::Function::new("dummy");
        f.params = p.params.clone();
        let mut mem = Memory::zeroed(&f);
        for i in 0..4 {
            mem.write(0, i, Constant::int(Type::I32, 10 + i)).unwrap();
        }
        run_program(&p, &mut mem).unwrap();
        assert_eq!(mem.read(0, 0).unwrap().as_i64(), 12);
        assert_eq!(mem.read(0, 1).unwrap().as_i64(), 10);
        assert_eq!(mem.read(0, 2).unwrap().as_i64(), 99);
        assert_eq!(mem.read(0, 3).unwrap().as_i64(), 0);
    }

    #[test]
    fn unset_register_is_an_error() {
        let mut p =
            VmProgram::new("t", vec![Param { name: "A".into(), elem_ty: Type::I32, len: 1 }]);
        let r = p.fresh_reg();
        let loc = MemLoc { base: 0, offset: 0 };
        p.push_scalar(Inst { kind: InstKind::Store { loc, value: r }, ty: Type::Void });
        let mut f = vegen_ir::Function::new("dummy");
        f.params = p.params.clone();
        let mut mem = Memory::zeroed(&f);
        assert!(run_program(&p, &mut mem).is_err());
    }

    /// An integer `add` of `f32`s, a float compare of `i32`s and an
    /// `fpext` of an `i32` are errors, as under `interp::run`; each
    /// panicked in `Constant`'s accessors before.
    #[test]
    fn ill_typed_scalar_instructions_are_errors() {
        let cases = [
            (Constant::f32(1.5), InstKind::Bin { op: BinOp::Add, lhs: 0, rhs: 1 }, Type::F32),
            (
                Constant::int(Type::I32, 3),
                InstKind::Cmp { pred: CmpPred::Flt, lhs: 0, rhs: 1 },
                Type::I1,
            ),
            (Constant::int(Type::I32, 3), InstKind::Cast { op: CastOp::FPExt, arg: 0 }, Type::F64),
        ];
        for (c, kind, ty) in cases {
            let mut p = VmProgram::new("ill_typed", vec![]);
            let regs = [
                p.push_scalar(Inst { kind: InstKind::Const(c), ty: c.ty() }).unwrap(),
                p.push_scalar(Inst { kind: InstKind::Const(c), ty: c.ty() }).unwrap(),
            ];
            p.push_scalar(Inst { kind, ty }.map(|i: usize| regs[i]));
            let mut mem = Memory::zeroed(&vegen_ir::Function::new("ill_typed"));
            assert!(run_program(&p, &mut mem).is_err(), "{:?} must be an error", p.insts[2]);
        }
    }

    /// A program over one 2-element `i16` buffer `A`, and a memory image
    /// for it.
    fn over_two_elements() -> (VmProgram, Memory) {
        let params = vec![Param { name: "A".into(), elem_ty: Type::I16, len: 2 }];
        let mut f = vegen_ir::Function::new("two");
        f.params = params.clone();
        (VmProgram::new("two", params), Memory::zeroed(&f))
    }

    /// Accesses past a buffer or the register file, an operand of the
    /// wrong shape and a missing instruction semantics are errors; each
    /// panicked before.
    #[test]
    fn out_of_bounds_and_misshapen_operands_are_errors() {
        let (mut p, mut mem) = over_two_elements();
        let loc = MemLoc { base: 0, offset: 5 };
        p.push_scalar(Inst { kind: InstKind::Load { loc }, ty: Type::I16 });
        assert!(run_program(&p, &mut mem).is_err(), "scalar load of A[5]");

        let (mut p, mut mem) = over_two_elements();
        let v = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: v, base: 0, start: 0, lanes: 4, elem: Type::I16 });
        assert!(run_program(&p, &mut mem).is_err(), "4-lane load of A[0..4]");

        let (mut p, mut mem) = over_two_elements();
        let v = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: v, base: 0, start: 0, lanes: 2, elem: Type::I16 });
        p.push(VmInst::VecStore { base: 0, start: 1, src: v });
        assert!(run_program(&p, &mut mem).is_err(), "2-lane store to A[1..3]");

        let (mut p, mut mem) = over_two_elements();
        let sem = p.intern_sem(&pmaddwd_sem(), "pmaddwd", 1.0);
        let v = p.fresh_reg();
        let dst = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: v, base: 0, start: 0, lanes: 2, elem: Type::I16 });
        p.push(VmInst::VecOp { dst, sem, args: vec![v, v] });
        assert!(run_program(&p, &mut mem).is_err(), "pmaddwd of 2-lane registers");

        let (mut p, mut mem) = over_two_elements();
        let v = p.fresh_reg();
        p.push(VmInst::VecOp { dst: v, sem: 0, args: vec![] });
        assert!(run_program(&p, &mut mem).is_err(), "no semantics #0");

        let (mut p, mut mem) = over_two_elements();
        let kind = InstKind::Const(Constant::int(Type::I16, 1));
        p.push(VmInst::Scalar {
            dst: Dst::new(Reg(3)).unwrap(),
            inst: Inst { kind, ty: Type::I16 },
        });
        assert!(run_program(&p, &mut mem).is_err(), "v3 of a 0-register program");
    }
}
