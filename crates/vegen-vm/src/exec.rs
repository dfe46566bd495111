//! Execution of vector programs against a memory image.

use crate::program::{LaneSrc, Reg, ScalarOp, VmInst, VmProgram};
use vegen_ir::interp::{eval_bin, eval_cast, eval_cmp, eval_fneg, EvalError, Memory};
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
/// Returns an error on division by zero, use of an unset register, or
/// shape mismatches (which indicate codegen bugs).
pub fn run_program(prog: &VmProgram, mem: &mut Memory) -> Result<(), EvalError> {
    let mut regs: Vec<Val> = vec![Val::Unset; prog.n_regs];
    let scalar = |regs: &[Val], r: Reg| -> Result<Constant, EvalError> {
        match &regs[r.0 as usize] {
            Val::Scalar(c) => Ok(*c),
            other => Err(EvalError(format!("{r} is not a scalar ({other:?})"))),
        }
    };
    let vector = |regs: &[Val], r: Reg| -> Result<Vec<Constant>, EvalError> {
        match &regs[r.0 as usize] {
            Val::Vector(v) => Ok(v.clone()),
            other => Err(EvalError(format!("{r} is not a vector ({other:?})"))),
        }
    };
    for inst in &prog.insts {
        match inst {
            VmInst::Scalar { dst, op } => {
                let out = match op {
                    ScalarOp::Const(c) => *c,
                    ScalarOp::Bin { op, lhs, rhs } => {
                        eval_bin(*op, scalar(&regs, *lhs)?, scalar(&regs, *rhs)?)?
                    }
                    ScalarOp::FNeg { arg } => eval_fneg(scalar(&regs, *arg)?)?,
                    ScalarOp::Cast { op, to, arg } => eval_cast(*op, scalar(&regs, *arg)?, *to),
                    ScalarOp::Cmp { pred, lhs, rhs } => {
                        eval_cmp(*pred, scalar(&regs, *lhs)?, scalar(&regs, *rhs)?)
                    }
                    ScalarOp::Select { cond, on_true, on_false } => {
                        if scalar(&regs, *cond)?.as_bool() {
                            scalar(&regs, *on_true)?
                        } else {
                            scalar(&regs, *on_false)?
                        }
                    }
                };
                regs[dst.0 as usize] = Val::Scalar(out);
            }
            VmInst::LoadScalar { dst, base, offset } => {
                regs[dst.0 as usize] = Val::Scalar(mem.read(*base, *offset));
            }
            VmInst::StoreScalar { base, offset, src } => {
                let v = scalar(&regs, *src)?;
                mem.write(*base, *offset, v);
            }
            VmInst::VecLoad { dst, base, start, lanes, elem: _ } => {
                let v: Vec<Constant> =
                    (0..*lanes as i64).map(|i| mem.read(*base, start + i)).collect();
                regs[dst.0 as usize] = Val::Vector(v);
            }
            VmInst::VecStore { base, start, src } => {
                let v = vector(&regs, *src)?;
                for (i, c) in v.iter().enumerate() {
                    mem.write(*base, start + i as i64, *c);
                }
            }
            VmInst::VecOp { dst, sem, args } => {
                let sem = &prog.sems[*sem];
                let mut inputs = Vec::with_capacity(args.len());
                for a in args {
                    inputs.push(vector(&regs, *a)?);
                }
                let out = eval_inst(sem, &inputs)?;
                regs[dst.0 as usize] = Val::Vector(out);
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
                regs[dst.0 as usize] = Val::Vector(out);
            }
            VmInst::Extract { dst, src, lane } => {
                let v = vector(&regs, *src)?;
                let c = *v.get(*lane).ok_or_else(|| {
                    EvalError(format!("extract lane {lane} out of range of {src}"))
                })?;
                regs[dst.0 as usize] = Val::Scalar(c);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::{Param, Type};
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
            mem.write(0, i as i64, Constant::int(Type::I16, *v));
        }
        for (i, v) in [10i64, 100, -1, 2].iter().enumerate() {
            mem.write(1, i as i64, Constant::int(Type::I16, *v));
        }
        run_program(&p, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).as_i64(), 3 * 10 + (-4) * 100);
        assert_eq!(mem.read(2, 1).as_i64(), -5 + 6 * 2);
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
            mem.write(0, i, Constant::int(Type::I32, 10 + i));
        }
        run_program(&p, &mut mem).unwrap();
        assert_eq!(mem.read(0, 0).as_i64(), 12);
        assert_eq!(mem.read(0, 1).as_i64(), 10);
        assert_eq!(mem.read(0, 2).as_i64(), 99);
        assert_eq!(mem.read(0, 3).as_i64(), 0);
    }

    #[test]
    fn unset_register_is_an_error() {
        let mut p =
            VmProgram::new("t", vec![Param { name: "A".into(), elem_ty: Type::I32, len: 1 }]);
        let r = p.fresh_reg();
        p.push(VmInst::StoreScalar { base: 0, offset: 0, src: r });
        let mut f = vegen_ir::Function::new("dummy");
        f.params = p.params.clone();
        let mut mem = Memory::zeroed(&f);
        assert!(run_program(&p, &mut mem).is_err());
    }
}
