//! Backend peephole fusions for the baseline.
//!
//! §1 of the paper: "For most non-SIMD instructions, compiler developers
//! support them with backend peephole rewrites... they fuse sequences of
//! SIMD instructions and vector shuffles into more non-SIMD instructions."
//! LLVM's x86 backend turns `cmp+select` trees into `maxpd`, the
//! `sub/add/blend` triple into `addsubpd`, `mul` feeding it into
//! `fmaddsub`, and the compare-negate-select idiom into `pabs`. The
//! baseline reproduces those rewrites — and, exactly as the paper argues,
//! they only fire when the SIMD vectorizer happens to produce the right
//! shapes, which it does not for `hadd`/`pmaddwd`-class code.

use std::collections::HashMap;
use vegen_ir::{BinOp, CmpPred, Constant, Type};
use vegen_vidl::{Expr, InstSemantics, LaneBinding, LaneRef, Operation, VecShape};
use vegen_vm::{LaneSrc, Reg, VmInst, VmProgram};

/// Run all fusion rules to a fixpoint.
pub fn fuse(prog: &mut VmProgram) {
    loop {
        let changed = fuse_minmax(prog) | fuse_abs(prog) | fuse_addsub(prog) | fuse_fmaddsub(prog);
        if !changed {
            break;
        }
    }
    drop_dead(prog);
}

fn use_counts(prog: &VmProgram) -> HashMap<Reg, usize> {
    let mut counts: HashMap<Reg, usize> = HashMap::new();
    for r in prog.insts.iter().flat_map(VmInst::uses) {
        *counts.entry(r).or_insert(0) += 1;
    }
    counts
}

/// Where each register is defined, restricted to `VecOp`s and `Build`s.
fn vec_defs(prog: &VmProgram) -> HashMap<Reg, usize> {
    let mut defs = HashMap::new();
    for (i, inst) in prog.insts.iter().enumerate() {
        match inst {
            VmInst::VecOp { dst, .. } | VmInst::Build { dst, .. } => {
                defs.insert(*dst, i);
            }
            _ => {}
        }
    }
    defs
}

fn sem_is(prog: &VmProgram, sem: usize, prefix: &str) -> bool {
    prog.sems[sem].name.starts_with(prefix)
}

/// `select(cmp, a, b)` with matching operands becomes min/max.
fn fuse_minmax(prog: &mut VmProgram) -> bool {
    let defs = vec_defs(prog);
    let counts = use_counts(prog);
    for i in 0..prog.insts.len() {
        let VmInst::VecOp { dst, sem, args } = &prog.insts[i] else { continue };
        if !sem_is(prog, *sem, "llvm.select.") || args.len() != 3 {
            continue;
        }
        let (dst, cond, x, y) = (*dst, args[0], args[1], args[2]);
        let Some(&ci) = defs.get(&cond) else { continue };
        let VmInst::VecOp { sem: csem, args: cargs, .. } = &prog.insts[ci] else { continue };
        let cname = &prog.sems[*csem].name;
        let Some(pred) = ["flt", "fgt", "slt", "sgt", "ult", "ugt"]
            .iter()
            .find(|p| cname.starts_with(&format!("llvm.cmp_{p}.")))
        else {
            continue;
        };
        if counts.get(&cond) != Some(&1) {
            continue;
        }
        // select(a < b, a, b) = min; select(a > b, a, b) = max; swapped arms
        // invert.
        let (ca, cb) = (cargs[0], cargs[1]);
        let is_lt = pred.ends_with("lt");
        let kind = if (ca, cb) == (x, y) {
            Some(if is_lt { "min" } else { "max" })
        } else if (ca, cb) == (y, x) {
            Some(if is_lt { "max" } else { "min" })
        } else {
            None
        };
        let Some(kind) = kind else { continue };
        let lanes = prog.sems[*csem].inputs[0].lanes;
        let elem = prog.sems[*csem].inputs[0].elem;
        let cmp_pred = match (*pred, kind) {
            ("flt", "min") | ("fgt", "max") => {
                if kind == "min" {
                    CmpPred::Flt
                } else {
                    CmpPred::Fgt
                }
            }
            ("flt", _) | ("fgt", _) => {
                if kind == "min" {
                    CmpPred::Flt
                } else {
                    CmpPred::Fgt
                }
            }
            ("slt", _) | ("sgt", _) => {
                if kind == "min" {
                    CmpPred::Slt
                } else {
                    CmpPred::Sgt
                }
            }
            _ => {
                if kind == "min" {
                    CmpPred::Ult
                } else {
                    CmpPred::Ugt
                }
            }
        };
        let sem = minmax_sem(kind, cmp_pred, elem, lanes);
        let si = prog.intern_sem(&sem, &sem.name.clone(), 1.0);
        prog.insts[i] = VmInst::VecOp { dst, sem: si, args: vec![x, y] };
        return true;
    }
    false
}

/// `select(x < 0, 0 - x, x)` becomes integer abs.
fn fuse_abs(prog: &mut VmProgram) -> bool {
    let defs = vec_defs(prog);
    let counts = use_counts(prog);
    let is_zero_build = |prog: &VmProgram, r: Reg| -> bool {
        let Some(&i) = defs.get(&r) else { return false };
        let VmInst::Build { lanes, .. } = &prog.insts[i] else { return false };
        lanes.iter().all(|l| matches!(l, LaneSrc::Const(c) if c.is_zero()))
    };
    for i in 0..prog.insts.len() {
        let VmInst::VecOp { dst, sem, args } = &prog.insts[i] else { continue };
        if !sem_is(prog, *sem, "llvm.select.") || args.len() != 3 {
            continue;
        }
        let (dst, cond, neg, x) = (*dst, args[0], args[1], args[2]);
        let Some(&ci) = defs.get(&cond) else { continue };
        let Some(&ni) = defs.get(&neg) else { continue };
        let VmInst::VecOp { sem: csem, args: cargs, .. } = &prog.insts[ci] else { continue };
        let VmInst::VecOp { sem: nsem, args: nargs, .. } = &prog.insts[ni] else { continue };
        if !sem_is(prog, *csem, "llvm.cmp_slt.") || !sem_is(prog, *nsem, "llvm.sub.") {
            continue;
        }
        // cond = x < zeros; neg = zeros - x.
        if cargs[0] != x || !is_zero_build(prog, cargs[1]) {
            continue;
        }
        if nargs[1] != x || !is_zero_build(prog, nargs[0]) {
            continue;
        }
        if counts.get(&cond) != Some(&1) || counts.get(&neg) != Some(&1) {
            continue;
        }
        let lanes = prog.sems[*nsem].inputs[0].lanes;
        let elem = prog.sems[*nsem].inputs[0].elem;
        let sem = abs_sem(elem, lanes);
        let si = prog.intern_sem(&sem, &sem.name.clone(), 1.0);
        prog.insts[i] = VmInst::VecOp { dst, sem: si, args: vec![x] };
        return true;
    }
    false
}

/// `fsub` + `fadd` + alternating blend becomes `addsub`.
fn fuse_addsub(prog: &mut VmProgram) -> bool {
    let defs = vec_defs(prog);
    let counts = use_counts(prog);
    for i in 0..prog.insts.len() {
        let VmInst::Build { dst, lanes, elem } = &prog.insts[i] else { continue };
        if lanes.len() < 2 || lanes.len() % 2 != 0 {
            continue;
        }
        let (LaneSrc::FromVec { src: r_sub, lane: 0 }, LaneSrc::FromVec { src: r_add, lane: 1 }) =
            (lanes[0], lanes[1])
        else {
            continue;
        };
        let alternating = lanes.iter().enumerate().all(|(li, l)| {
            matches!(l, LaneSrc::FromVec { src, lane }
                if *lane == li && *src == if li % 2 == 0 { r_sub } else { r_add })
        });
        if !alternating || r_sub == r_add {
            continue;
        }
        let (Some(&si_), Some(&ai)) = (defs.get(&r_sub), defs.get(&r_add)) else { continue };
        let VmInst::VecOp { sem: ssem, args: sargs, .. } = &prog.insts[si_] else { continue };
        let VmInst::VecOp { sem: asem, args: aargs, .. } = &prog.insts[ai] else { continue };
        if !sem_is(prog, *ssem, "llvm.fsub.") || !sem_is(prog, *asem, "llvm.fadd.") {
            continue;
        }
        if sargs != aargs {
            continue;
        }
        if counts.get(&r_sub) != Some(&1) || counts.get(&r_add) != Some(&1) {
            continue;
        }
        let args = sargs.clone();
        let dst = *dst;
        let n_lanes = lanes.len();
        let elem = *elem;
        let sem = addsub_sem(elem, n_lanes);
        let si = prog.intern_sem(&sem, &sem.name.clone(), 2.0);
        prog.insts[i] = VmInst::VecOp { dst, sem: si, args };
        return true;
    }
    false
}

/// `fmul` feeding `addsub` becomes `fmaddsub`.
fn fuse_fmaddsub(prog: &mut VmProgram) -> bool {
    let defs = vec_defs(prog);
    let counts = use_counts(prog);
    for i in 0..prog.insts.len() {
        let VmInst::VecOp { dst, sem, args } = &prog.insts[i] else { continue };
        if !sem_is(prog, *sem, "x86.addsub.") || args.len() != 2 {
            continue;
        }
        let (dst, m, c) = (*dst, args[0], args[1]);
        let Some(&mi) = defs.get(&m) else { continue };
        let VmInst::VecOp { sem: msem, args: margs, .. } = &prog.insts[mi] else { continue };
        if !sem_is(prog, *msem, "llvm.fmul.") {
            continue;
        }
        if counts.get(&m) != Some(&1) {
            continue;
        }
        let lanes = prog.sems[*msem].inputs[0].lanes;
        let elem = prog.sems[*msem].inputs[0].elem;
        let args = vec![margs[0], margs[1], c];
        let sem = fmaddsub_sem(elem, lanes);
        let si = prog.intern_sem(&sem, &sem.name.clone(), 1.0);
        prog.insts[i] = VmInst::VecOp { dst, sem: si, args };
        return true;
    }
    false
}

/// Remove instructions whose results are never used (fusion leaves the old
/// producers behind).
fn drop_dead(prog: &mut VmProgram) {
    loop {
        let counts = use_counts(prog);
        let before = prog.insts.len();
        // Stores define nothing and always stay.
        prog.insts.retain(|inst| inst.def().is_none_or(|dst| counts.contains_key(&dst)));
        if prog.insts.len() == before {
            break;
        }
    }
}

fn elementwise(lanes: usize, n_inputs: usize) -> Vec<LaneBinding> {
    (0..lanes)
        .map(|l| LaneBinding {
            op: 0,
            args: (0..n_inputs).map(|input| LaneRef { input, lane: l }).collect(),
        })
        .collect()
}

fn minmax_sem(kind: &str, pred: CmpPred, elem: Type, lanes: usize) -> InstSemantics {
    let op = Operation {
        name: format!("{kind}_op"),
        params: vec![elem, elem],
        ret: elem,
        expr: Expr::Select {
            cond: Box::new(Expr::Cmp {
                pred,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            }),
            on_true: Box::new(Expr::Param(0)),
            on_false: Box::new(Expr::Param(1)),
        },
    };
    InstSemantics {
        name: format!("x86.{kind}.v{lanes}{elem}"),
        inputs: vec![VecShape { lanes, elem }; 2],
        out_elem: elem,
        ops: vec![op],
        lanes: elementwise(lanes, 2),
    }
}

fn abs_sem(elem: Type, lanes: usize) -> InstSemantics {
    let zero = Expr::Const(Constant::zero(elem));
    let op = Operation {
        name: "abs_op".into(),
        params: vec![elem],
        ret: elem,
        expr: Expr::Select {
            cond: Box::new(Expr::Cmp {
                pred: CmpPred::Slt,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(zero.clone()),
            }),
            on_true: Box::new(Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(zero),
                rhs: Box::new(Expr::Param(0)),
            }),
            on_false: Box::new(Expr::Param(0)),
        },
    };
    InstSemantics {
        name: format!("x86.pabs.v{lanes}{elem}"),
        inputs: vec![VecShape { lanes, elem }],
        out_elem: elem,
        ops: vec![op],
        lanes: elementwise(lanes, 1),
    }
}

fn addsub_sem(elem: Type, lanes: usize) -> InstSemantics {
    let sub = Operation {
        name: "sub_op".into(),
        params: vec![elem, elem],
        ret: elem,
        expr: Expr::Bin {
            op: BinOp::FSub,
            lhs: Box::new(Expr::Param(0)),
            rhs: Box::new(Expr::Param(1)),
        },
    };
    let add = Operation {
        name: "add_op".into(),
        params: vec![elem, elem],
        ret: elem,
        expr: Expr::Bin {
            op: BinOp::FAdd,
            lhs: Box::new(Expr::Param(0)),
            rhs: Box::new(Expr::Param(1)),
        },
    };
    InstSemantics {
        name: format!("x86.addsub.v{lanes}{elem}"),
        inputs: vec![VecShape { lanes, elem }; 2],
        out_elem: elem,
        ops: vec![sub, add],
        lanes: (0..lanes)
            .map(|l| LaneBinding {
                op: l % 2,
                args: vec![LaneRef { input: 0, lane: l }, LaneRef { input: 1, lane: l }],
            })
            .collect(),
    }
}

fn fmaddsub_sem(elem: Type, lanes: usize) -> InstSemantics {
    let mk = |fop: BinOp, name: &str| Operation {
        name: name.into(),
        params: vec![elem, elem, elem],
        ret: elem,
        expr: Expr::Bin {
            op: fop,
            lhs: Box::new(Expr::Bin {
                op: BinOp::FMul,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            }),
            rhs: Box::new(Expr::Param(2)),
        },
    };
    InstSemantics {
        name: format!("x86.fmaddsub.v{lanes}{elem}"),
        inputs: vec![VecShape { lanes, elem }; 3],
        out_elem: elem,
        ops: vec![mk(BinOp::FSub, "fms_op"), mk(BinOp::FAdd, "fma_op")],
        lanes: (0..lanes)
            .map(|l| LaneBinding {
                op: l % 2,
                args: vec![
                    LaneRef { input: 0, lane: l },
                    LaneRef { input: 1, lane: l },
                    LaneRef { input: 2, lane: l },
                ],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{synth_simd_sem, OpShape};

    #[test]
    fn fused_semantics_are_wellformed() {
        vegen_vidl::check_inst(&minmax_sem("max", CmpPred::Fgt, Type::F64, 4)).unwrap();
        vegen_vidl::check_inst(&abs_sem(Type::I32, 8)).unwrap();
        vegen_vidl::check_inst(&addsub_sem(Type::F64, 2)).unwrap();
        vegen_vidl::check_inst(&fmaddsub_sem(Type::F32, 4)).unwrap();
        assert!(!addsub_sem(Type::F64, 4).is_simd());
    }

    #[test]
    fn synth_simd_sem_names_drive_fusion_matching() {
        let s = synth_simd_sem(OpShape::Bin(BinOp::FSub), &[Type::F64, Type::F64], Type::F64, 2);
        assert!(s.name.starts_with("llvm.fsub."));
    }
}
