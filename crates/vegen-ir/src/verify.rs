//! Structural verification of IR functions.

use crate::function::{Function, ValueId};
use crate::inst::{CastOp, InstKind};
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending instruction.
    pub at: ValueId,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify failed at {}: {}", self.at, self.message)
    }
}

impl Error for VerifyError {}

/// Check SSA dominance (defs before uses), type correctness, and memory
/// bounds of every instruction.
///
/// # Errors
///
/// Returns the first violation found, in program order. Use
/// [`verify_all`] to collect every violation instead of stopping at the
/// first.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    match verify_all(f).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Like [`verify`], but collects *all* violations in program order
/// (parameter-table problems first) instead of stopping at the first —
/// the right entry point for diagnostics and tooling.
pub fn verify_all(f: &Function) -> Vec<VerifyError> {
    let mut errs = Vec::new();

    // Parameter-table validity. Attributed to value %0 for lack of an
    // owning instruction; the message names the parameter.
    for (i, p) in f.params.iter().enumerate() {
        let at = ValueId::from_raw(0);
        if p.elem_ty == Type::Void {
            errs.push(VerifyError {
                at,
                message: format!("parameter {} ({}) has void element type", i, p.name),
            });
        }
        if p.len == 0 {
            errs.push(VerifyError {
                at,
                message: format!("parameter {} ({}) has zero length", i, p.name),
            });
        }
    }

    for (v, inst) in f.iter() {
        let mut err = |message: String| errs.push(VerifyError { at: v, message });
        for op in inst.operands() {
            if op.index() >= v.index() {
                err(format!("operand {op} does not dominate its use"));
            } else if f.ty(op) == Type::Void {
                err(format!("operand {op} has void type"));
            }
        }
        // Dominance failures make operand types meaningless; skip the
        // per-kind checks for this instruction but keep scanning.
        if inst.operands().iter().any(|op| op.index() >= v.index()) {
            continue;
        }
        match &inst.kind {
            InstKind::Const(c) => {
                if c.ty() != inst.ty {
                    err("constant type mismatch".into());
                }
            }
            InstKind::Bin { op, lhs, rhs } => {
                if f.ty(*lhs) != f.ty(*rhs) {
                    err("binop operand types differ".into());
                }
                if f.ty(*lhs) != inst.ty {
                    err("binop result type mismatch".into());
                }
                if op.is_float() != inst.ty.is_float() {
                    err("binop float/int mismatch".into());
                }
                // i1 is a logical type: only the bitwise ops are defined
                // on it (arithmetic on a 1-bit value is never intended).
                if inst.ty == Type::I1
                    && !matches!(
                        op,
                        crate::inst::BinOp::And | crate::inst::BinOp::Or | crate::inst::BinOp::Xor
                    )
                {
                    err(format!("non-bitwise binop {op:?} on i1"));
                }
            }
            InstKind::FNeg { arg } => {
                if !f.ty(*arg).is_float() || f.ty(*arg) != inst.ty {
                    err("fneg requires matching float type".into());
                }
            }
            InstKind::Cast { op, arg } => {
                let from = f.ty(*arg);
                let to = inst.ty;
                // Truncation to i1 is forbidden: booleans come from
                // comparisons, not from chopping an integer.
                if !op.fits(from, to) || (*op == CastOp::Trunc && to == Type::I1) {
                    err(format!("invalid cast {op:?} {from} -> {to}"));
                }
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                if f.ty(*lhs) != f.ty(*rhs) {
                    err("cmp operand types differ".into());
                }
                if pred.is_float() != f.ty(*lhs).is_float() {
                    err("cmp predicate/type mismatch".into());
                }
                if inst.ty != Type::I1 {
                    err("cmp must produce i1".into());
                }
            }
            InstKind::Select { cond, on_true, on_false } => {
                if f.ty(*cond) != Type::I1 {
                    err("select condition must be i1".into());
                }
                if f.ty(*on_true) != f.ty(*on_false) || f.ty(*on_true) != inst.ty {
                    err("select arm type mismatch".into());
                }
            }
            InstKind::Load { loc } => {
                let Some(p) = f.params.get(loc.base) else {
                    err("load from unknown parameter".into());
                    continue;
                };
                if loc.offset < 0 || loc.offset as usize >= p.len {
                    err(format!("load offset {} out of bounds", loc.offset));
                }
                if p.elem_ty != inst.ty {
                    err("load type mismatch".into());
                }
            }
            InstKind::Store { loc, value } => {
                let Some(p) = f.params.get(loc.base) else {
                    err("store to unknown parameter".into());
                    continue;
                };
                if loc.offset < 0 || loc.offset as usize >= p.len {
                    err(format!("store offset {} out of bounds", loc.offset));
                }
                if p.elem_ty != f.ty(*value) {
                    err("store type mismatch".into());
                }
                if inst.ty != Type::Void {
                    err("store must have void type".into());
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::constant::Constant;
    use crate::inst::{BinOp, Inst, MemLoc};

    fn small() -> Function {
        let mut b = FunctionBuilder::new("ok");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        b.store(p, 2, s);
        b.finish()
    }

    #[test]
    fn accepts_valid_function() {
        assert!(verify(&small()).is_ok());
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = small();
        // Make the first load "use" a later value by inserting a bogus binop first.
        f.insts.insert(
            0,
            Inst {
                kind: InstKind::Bin {
                    op: BinOp::Add,
                    lhs: ValueId::from_raw(1),
                    rhs: ValueId::from_raw(1),
                },
                ty: Type::I32,
            },
        );
        assert!(verify(&f).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_access() {
        let mut b = FunctionBuilder::new("oob");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let mut f = b.finish();
        f.insts.push(Inst {
            kind: InstKind::Store { loc: MemLoc { base: 0, offset: 9 }, value: x },
            ty: Type::Void,
        });
        let e = verify(&f).unwrap_err();
        assert!(e.message.contains("out of bounds"));
    }

    #[test]
    fn rejects_type_mismatch_in_store() {
        let mut b = FunctionBuilder::new("bad");
        let p = b.param("A", Type::I32, 2);
        let q = b.param("B", Type::I16, 2);
        let x = b.load(p, 0);
        let mut f = b.finish();
        // Store an i32 into an i16 buffer, bypassing the builder's check.
        f.insts.push(Inst {
            kind: InstKind::Store { loc: MemLoc { base: 1, offset: 0 }, value: x },
            ty: Type::Void,
        });
        assert!(verify(&f).is_err());
        let _ = q;
    }

    #[test]
    fn rejects_bad_constant_type() {
        let mut f = Function::new("c");
        f.push(Inst { kind: InstKind::Const(Constant::int(Type::I8, 1)), ty: Type::I32 });
        assert!(verify(&f).is_err());
    }

    #[test]
    fn verify_all_collects_every_violation() {
        let mut b = FunctionBuilder::new("multi");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let mut f = b.finish();
        // Two independent violations: an out-of-bounds store and a badly
        // typed constant.
        f.insts.push(Inst {
            kind: InstKind::Store { loc: MemLoc { base: 0, offset: 9 }, value: x },
            ty: Type::Void,
        });
        f.push(Inst { kind: InstKind::Const(Constant::int(Type::I8, 1)), ty: Type::I32 });
        let errs = verify_all(&f);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].message.contains("out of bounds"));
        assert!(errs[1].message.contains("constant type mismatch"));
        // verify() returns exactly the first of them.
        assert_eq!(verify(&f).unwrap_err(), errs[0]);
    }

    #[test]
    fn rejects_void_or_empty_parameter() {
        let mut f = Function::new("p");
        f.params.push(crate::function::Param { name: "A".into(), elem_ty: Type::Void, len: 0 });
        let errs = verify_all(&f);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].message.contains("void element type"));
        assert!(errs[1].message.contains("zero length"));
    }

    #[test]
    fn rejects_arithmetic_on_i1() {
        let mut b = FunctionBuilder::new("i1");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let c = b.cmp(crate::inst::CmpPred::Slt, x, y);
        let d = b.cmp(crate::inst::CmpPred::Eq, x, y);
        let mut f = b.finish();
        // Bitwise i1 is fine…
        f.push(Inst { kind: InstKind::Bin { op: BinOp::And, lhs: c, rhs: d }, ty: Type::I1 });
        assert!(verify(&f).is_ok());
        // …but arithmetic on i1 is rejected.
        f.push(Inst { kind: InstKind::Bin { op: BinOp::Add, lhs: c, rhs: d }, ty: Type::I1 });
        let e = verify(&f).unwrap_err();
        assert!(e.message.contains("non-bitwise"), "{e}");
    }

    #[test]
    fn rejects_trunc_to_i1() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let x = b.load(p, 0);
        let mut f = b.finish();
        f.push(Inst { kind: InstKind::Cast { op: CastOp::Trunc, arg: x }, ty: Type::I1 });
        let e = verify(&f).unwrap_err();
        assert!(e.message.contains("invalid cast"), "{e}");
    }

    #[test]
    fn error_display_mentions_value() {
        let mut f = Function::new("c");
        f.push(Inst { kind: InstKind::Const(Constant::int(Type::I8, 1)), ty: Type::I32 });
        let e = verify(&f).unwrap_err();
        assert!(e.to_string().contains("%0"));
    }
}
