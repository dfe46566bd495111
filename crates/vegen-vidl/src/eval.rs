//! Concrete evaluation of VIDL descriptions.
//!
//! The evaluator is the executable semantics of an instruction description:
//! the vector VM executes target instructions through it, and the offline
//! validator compares it against the pseudocode evaluator by random testing
//! (reproducing the validation methodology of §6.1).

use crate::ast::{Expr, InstSemantics, Operation};
use vegen_ir::interp::{eval_bin, eval_cast, eval_cmp, eval_fneg, EvalError};
use vegen_ir::{Constant, Type};

/// Evaluate an expression with the given parameter values.
///
/// # Errors
///
/// Returns an error on division by zero, a parameter index past `args`,
/// and an ill-typed node: an `fneg` of a non-float, a `select` on a
/// non-`i1` condition, an integer op on floats, a float predicate on
/// integers or a cast from a type its op does not convert.
pub fn eval_expr(e: &Expr, args: &[Constant]) -> Result<Constant, EvalError> {
    match e {
        Expr::Param(i) => {
            args.get(*i).copied().ok_or_else(|| EvalError(format!("parameter {i} out of range")))
        }
        Expr::Const(c) => Ok(*c),
        Expr::Bin { op, lhs, rhs } => eval_bin(*op, eval_expr(lhs, args)?, eval_expr(rhs, args)?),
        Expr::FNeg(a) => eval_fneg(eval_expr(a, args)?),
        Expr::Cast { op, to, arg } => eval_cast(*op, eval_expr(arg, args)?, *to),
        Expr::Cmp { pred, lhs, rhs } => {
            eval_cmp(*pred, eval_expr(lhs, args)?, eval_expr(rhs, args)?)
        }
        Expr::Select { cond, on_true, on_false } => {
            let c = eval_expr(cond, args)?;
            if c.ty() != Type::I1 {
                return Err(EvalError(format!("select on a {} condition", c.ty())));
            }
            eval_expr(if c.as_bool() { on_true } else { on_false }, args)
        }
    }
}

/// Apply an operation to arguments.
///
/// # Panics
///
/// Panics if the argument count or types don't match the declaration (the
/// checker enforces these for descriptions that passed it).
///
/// # Errors
///
/// Returns an error on division by zero.
pub fn eval_operation(op: &Operation, args: &[Constant]) -> Result<Constant, EvalError> {
    assert_eq!(args.len(), op.params.len(), "operation {} arity", op.name);
    for (a, p) in args.iter().zip(&op.params) {
        assert_eq!(a.ty(), *p, "operation {} argument type", op.name);
    }
    eval_expr(&op.expr, args)
}

/// Execute a whole instruction on concrete input registers, producing the
/// output register lane by lane.
///
/// # Panics
///
/// Panics if input shapes don't match the description.
///
/// # Errors
///
/// Returns an error on division by zero.
pub fn eval_inst(
    inst: &InstSemantics,
    inputs: &[Vec<Constant>],
) -> Result<Vec<Constant>, EvalError> {
    assert_eq!(inputs.len(), inst.inputs.len(), "{}: input register count", inst.name);
    for (reg, shape) in inputs.iter().zip(&inst.inputs) {
        assert_eq!(reg.len(), shape.lanes, "{}: lane count", inst.name);
        for v in reg {
            assert_eq!(v.ty(), shape.elem, "{}: element type", inst.name);
        }
    }
    let mut out = Vec::with_capacity(inst.lanes.len());
    for binding in &inst.lanes {
        let op = &inst.ops[binding.op];
        let args: Vec<Constant> = binding.args.iter().map(|r| inputs[r.input][r.lane]).collect();
        out.push(eval_operation(op, &args)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LaneBinding, LaneRef, VecShape};
    use vegen_ir::{BinOp, CastOp, CmpPred};

    fn pmaddwd() -> InstSemantics {
        let p = |i| Box::new(Expr::Param(i));
        let sx = |e: Box<Expr>| Box::new(Expr::Cast { op: CastOp::SExt, to: Type::I32, arg: e });
        let madd = Operation {
            name: "madd".into(),
            params: vec![Type::I16; 4],
            ret: Type::I32,
            expr: Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Bin { op: BinOp::Mul, lhs: sx(p(0)), rhs: sx(p(1)) }),
                rhs: Box::new(Expr::Bin { op: BinOp::Mul, lhs: sx(p(2)), rhs: sx(p(3)) }),
            },
        };
        let lr = |input, lane| LaneRef { input, lane };
        InstSemantics {
            name: "pmaddwd".into(),
            inputs: vec![VecShape { lanes: 4, elem: Type::I16 }; 2],
            out_elem: Type::I32,
            ops: vec![madd],
            lanes: vec![
                LaneBinding { op: 0, args: vec![lr(0, 0), lr(1, 0), lr(0, 1), lr(1, 1)] },
                LaneBinding { op: 0, args: vec![lr(0, 2), lr(1, 2), lr(0, 3), lr(1, 3)] },
            ],
        }
    }

    #[test]
    fn pmaddwd_matches_reference() {
        let inst = pmaddwd();
        let a: Vec<Constant> = [3, -4, 5, 6].iter().map(|&v| Constant::int(Type::I16, v)).collect();
        let b: Vec<Constant> =
            [10, 100, -1, 2].iter().map(|&v| Constant::int(Type::I16, v)).collect();
        let out = eval_inst(&inst, &[a, b]).unwrap();
        assert_eq!(out[0].as_i64(), 3 * 10 + (-4) * 100);
        assert_eq!(out[1].as_i64(), -5 + 6 * 2);
    }

    #[test]
    fn pmaddwd_widens_before_multiplying() {
        // -32768 * -32768 overflows i16 but not i32: the sext-then-mul
        // semantics must produce the wide product.
        let inst = pmaddwd();
        let a: Vec<Constant> =
            [-32768, 0, 0, 0].iter().map(|&v| Constant::int(Type::I16, v)).collect();
        let b: Vec<Constant> =
            [-32768, 0, 0, 0].iter().map(|&v| Constant::int(Type::I16, v)).collect();
        let out = eval_inst(&inst, &[a, b]).unwrap();
        assert_eq!(out[0].as_i64(), 32768 * 32768);
    }

    #[test]
    fn select_and_cmp_exprs() {
        // max(x, y) as select(cmp_sgt(x, y), x, y)
        let op = Operation {
            name: "smax".into(),
            params: vec![Type::I32; 2],
            ret: Type::I32,
            expr: Expr::Select {
                cond: Box::new(Expr::Cmp {
                    pred: vegen_ir::CmpPred::Sgt,
                    lhs: Box::new(Expr::Param(0)),
                    rhs: Box::new(Expr::Param(1)),
                }),
                on_true: Box::new(Expr::Param(0)),
                on_false: Box::new(Expr::Param(1)),
            },
        };
        let c = |v| Constant::int(Type::I32, v);
        assert_eq!(eval_operation(&op, &[c(3), c(9)]).unwrap().as_i64(), 9);
        assert_eq!(eval_operation(&op, &[c(-3), c(-9)]).unwrap().as_i64(), -3);
    }

    #[test]
    fn fneg_expr() {
        let op = Operation {
            name: "neg".into(),
            params: vec![Type::F64],
            ret: Type::F64,
            expr: Expr::FNeg(Box::new(Expr::Param(0))),
        };
        assert_eq!(eval_operation(&op, &[Constant::f64(2.5)]).unwrap().as_f64(), -2.5);
    }

    #[test]
    fn eval_expr_is_total() {
        let i32c = |v| Constant::int(Type::I32, v);
        let bad = [
            // A parameter past the argument list.
            (Expr::Param(3), vec![i32c(1)]),
            // `fneg` of an integer.
            (Expr::FNeg(Box::new(Expr::Param(0))), vec![i32c(1)]),
            // `select` on an `i32` condition.
            (
                Expr::Select {
                    cond: Box::new(Expr::Param(0)),
                    on_true: Box::new(Expr::Param(0)),
                    on_false: Box::new(Expr::Param(0)),
                },
                vec![i32c(1)],
            ),
            // Integer division by zero.
            (
                Expr::Bin {
                    op: BinOp::SDiv,
                    lhs: Box::new(Expr::Param(0)),
                    rhs: Box::new(Expr::Const(i32c(0))),
                },
                vec![i32c(1)],
            ),
            // An integer `add` of two `f32`s.
            (
                Expr::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::Param(0)),
                    rhs: Box::new(Expr::Param(0)),
                },
                vec![Constant::f32(1.5)],
            ),
            // A float predicate on two `i32`s.
            (
                Expr::Cmp {
                    pred: CmpPred::Flt,
                    lhs: Box::new(Expr::Param(0)),
                    rhs: Box::new(Expr::Param(0)),
                },
                vec![i32c(1)],
            ),
            // An `fpext` of an `i32`.
            (
                Expr::Cast { op: CastOp::FPExt, to: Type::F64, arg: Box::new(Expr::Param(0)) },
                vec![i32c(1)],
            ),
        ];
        for (e, args) in bad {
            assert!(eval_expr(&e, &args).is_err(), "{e:?} must be an error");
        }
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn wrong_shape_panics() {
        let inst = pmaddwd();
        let a = vec![Constant::int(Type::I16, 0); 3];
        let b = vec![Constant::int(Type::I16, 0); 4];
        let _ = eval_inst(&inst, &[a, b]);
    }
}
