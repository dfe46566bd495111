//! Well-formedness checking for VIDL descriptions.
//!
//! Two API layers: [`check_operation`]/[`check_inst`] return the *first*
//! violation as a [`CheckError`] (the contract `translate()` and
//! `parse_inst` rely on), while [`check_operation_all`]/[`check_inst_all`]
//! return *every* violation, each tagged with the offending output lane and
//! (when a [`SourceMap`] is supplied) a byte position into the VIDL source
//! text — which is what lets an offline auditor point diagnostics into
//! printed VIDL.

use crate::ast::{Expr, InstSemantics, Operation};
use std::error::Error;
use std::fmt;
use vegen_ir::Type;

/// A well-formedness violation (first-error form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError(pub String);

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VIDL check failed: {}", self.0)
    }
}

impl Error for CheckError {}

/// One well-formedness violation with location payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description.
    pub message: String,
    /// Output lane the violation is about, when one can be named.
    pub lane: Option<usize>,
    /// Byte offset into the VIDL source text, when a [`SourceMap`] was
    /// supplied.
    pub pos: Option<usize>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "at byte {p}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

/// Byte positions of the declarations in a VIDL source text, produced by
/// the parser (for parsed descriptions) or the printer (for printed ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// Position of the `inst` keyword.
    pub inst: usize,
    /// Position of each output-lane binding, in lane order.
    pub lanes: Vec<usize>,
    /// Position of each `op` declaration, in declaration order.
    pub ops: Vec<usize>,
}

impl SourceMap {
    fn lane_pos(&self, lane: usize) -> Option<usize> {
        self.lanes.get(lane).copied()
    }

    fn op_pos(&self, op: usize) -> Option<usize> {
        self.ops.get(op).copied()
    }
}

/// Type-check an expression, returning its type.
fn type_of(e: &Expr, params: &[Type]) -> Result<Type, CheckError> {
    match e {
        Expr::Param(i) => params
            .get(*i)
            .copied()
            .ok_or_else(|| CheckError(format!("parameter x{i} out of range"))),
        Expr::Const(c) => Ok(c.ty()),
        Expr::Bin { op, lhs, rhs } => {
            let lt = type_of(lhs, params)?;
            let rt = type_of(rhs, params)?;
            if lt != rt {
                return Err(CheckError(format!("binop {op:?} on {lt} and {rt}")));
            }
            if op.is_float() != lt.is_float() {
                return Err(CheckError(format!("binop {op:?} float/int mismatch with {lt}")));
            }
            Ok(lt)
        }
        Expr::FNeg(a) => {
            let t = type_of(a, params)?;
            if !t.is_float() {
                return Err(CheckError(format!("fneg on {t}")));
            }
            Ok(t)
        }
        Expr::Cast { op, to, arg } => {
            let from = type_of(arg, params)?;
            if !op.fits(from, *to) {
                return Err(CheckError(format!("invalid cast {op:?} {from} -> {to}")));
            }
            Ok(*to)
        }
        Expr::Cmp { pred, lhs, rhs } => {
            let lt = type_of(lhs, params)?;
            let rt = type_of(rhs, params)?;
            if lt != rt {
                return Err(CheckError(format!("cmp on {lt} and {rt}")));
            }
            if pred.is_float() != lt.is_float() {
                return Err(CheckError(format!("cmp {pred:?} on {lt}")));
            }
            Ok(Type::I1)
        }
        Expr::Select { cond, on_true, on_false } => {
            if type_of(cond, params)? != Type::I1 {
                return Err(CheckError("select condition must be i1".into()));
            }
            let tt = type_of(on_true, params)?;
            let et = type_of(on_false, params)?;
            if tt != et {
                return Err(CheckError(format!("select arms {tt} vs {et}")));
            }
            Ok(tt)
        }
    }
}

/// Check an operation, collecting every violation: no void parameters, the
/// body must type-check against the declared parameter types and produce
/// the declared return type.
pub fn check_operation_all(op: &Operation) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |message: String| out.push(Violation { message, lane: None, pos: None });
    for t in &op.params {
        if *t == Type::Void {
            push(format!("operation {} has a void parameter", op.name));
        }
    }
    match type_of(&op.expr, &op.params) {
        Ok(t) if t != op.ret => {
            push(format!("operation {} declared {} but body has type {t}", op.name, op.ret));
        }
        Ok(_) => {}
        Err(e) => push(format!("in operation {}: {}", op.name, e.0)),
    }
    out
}

/// Check an operation: the body must type-check against the declared
/// parameter types and produce the declared return type.
///
/// # Errors
///
/// Returns the first violation found (see [`check_operation_all`] for the
/// exhaustive form).
pub fn check_operation(op: &Operation) -> Result<(), CheckError> {
    match check_operation_all(op).into_iter().next() {
        Some(v) => Err(CheckError(v.message)),
        None => Ok(()),
    }
}

/// Check an instruction description, collecting every violation:
/// operations are well formed, lane bindings reference valid
/// operations/inputs/lanes, each operation's argument types equal the
/// element types of the registers feeding it, and every output lane
/// produces `out_elem`.
///
/// With a [`SourceMap`], each violation carries a byte position pointing at
/// the offending declaration in the VIDL source the map was built from.
pub fn check_inst_all(inst: &InstSemantics, map: Option<&SourceMap>) -> Vec<Violation> {
    let mut out = Vec::new();
    let inst_pos = map.map(|m| m.inst);
    if inst.lanes.is_empty() {
        out.push(Violation {
            message: format!("instruction {} has no output lanes", inst.name),
            lane: None,
            pos: inst_pos,
        });
    }
    for (op_idx, op) in inst.ops.iter().enumerate() {
        let pos = map.and_then(|m| m.op_pos(op_idx));
        for v in check_operation_all(op) {
            out.push(Violation {
                message: format!("in instruction {}: {}", inst.name, v.message),
                lane: None,
                pos,
            });
        }
    }
    for (lane_idx, b) in inst.lanes.iter().enumerate() {
        let pos = map.and_then(|m| m.lane_pos(lane_idx));
        let mut lane_violation =
            |message: String| out.push(Violation { message, lane: Some(lane_idx), pos });
        let Some(op) = inst.ops.get(b.op) else {
            lane_violation(format!(
                "{} lane {lane_idx} references unknown operation #{}",
                inst.name, b.op
            ));
            continue;
        };
        if b.args.len() != op.params.len() {
            lane_violation(format!(
                "{} lane {lane_idx}: {} args but operation {} has {} params",
                inst.name,
                b.args.len(),
                op.name,
                op.params.len()
            ));
            continue;
        }
        if op.ret != inst.out_elem {
            lane_violation(format!(
                "{} lane {lane_idx}: operation {} returns {} but output element is {}",
                inst.name, op.name, op.ret, inst.out_elem
            ));
        }
        for (param, r) in b.args.iter().enumerate() {
            let Some(shape) = inst.inputs.get(r.input) else {
                lane_violation(format!(
                    "{} lane {lane_idx}: unknown input register x{}",
                    inst.name, r.input
                ));
                continue;
            };
            if r.lane >= shape.lanes {
                lane_violation(format!(
                    "{} lane {lane_idx}: lane index {} out of range for x{} ({} lanes)",
                    inst.name, r.lane, r.input, shape.lanes
                ));
                continue;
            }
            if shape.elem != op.params[param] {
                lane_violation(format!(
                    "{} lane {lane_idx}: x{}[{}] has element type {} but {} param {param} is {}",
                    inst.name, r.input, r.lane, shape.elem, op.name, op.params[param]
                ));
            }
        }
    }
    out
}

/// Check an instruction description: operations are well formed, lane
/// bindings reference valid operations/inputs/lanes, each operation's
/// argument types equal the element types of the registers feeding it, and
/// every output lane produces `out_elem`.
///
/// # Errors
///
/// Returns the first violation found (see [`check_inst_all`] for the
/// exhaustive form).
pub fn check_inst(inst: &InstSemantics) -> Result<(), CheckError> {
    match check_inst_all(inst, None).into_iter().next() {
        Some(v) => Err(CheckError(v.message)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LaneBinding, LaneRef, VecShape};
    use vegen_ir::BinOp;

    fn add_op(ty: Type) -> Operation {
        Operation {
            name: "add".into(),
            params: vec![ty; 2],
            ret: ty,
            expr: Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            },
        }
    }

    fn simd_add() -> InstSemantics {
        let lr = |input, lane| LaneRef { input, lane };
        InstSemantics {
            name: "paddd".into(),
            inputs: vec![VecShape { lanes: 4, elem: Type::I32 }; 2],
            out_elem: Type::I32,
            ops: vec![add_op(Type::I32)],
            lanes: (0..4).map(|l| LaneBinding { op: 0, args: vec![lr(0, l), lr(1, l)] }).collect(),
        }
    }

    #[test]
    fn accepts_valid_inst() {
        assert!(check_inst(&simd_add()).is_ok());
        assert!(check_inst_all(&simd_add(), None).is_empty());
    }

    #[test]
    fn rejects_lane_out_of_range() {
        let mut i = simd_add();
        i.lanes[0].args[0].lane = 7;
        let e = check_inst(&i).unwrap_err();
        assert!(e.0.contains("out of range"));
        let all = check_inst_all(&i, None);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].lane, Some(0));
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut i = simd_add();
        i.lanes[1].args.pop();
        assert!(check_inst(&i).is_err());
        assert_eq!(check_inst_all(&i, None)[0].lane, Some(1));
    }

    #[test]
    fn rejects_element_type_mismatch() {
        let mut i = simd_add();
        i.inputs[1] = VecShape { lanes: 4, elem: Type::I16 };
        let e = check_inst(&i).unwrap_err();
        assert!(e.0.contains("element type"));
        // One violation per lane, each naming its lane.
        let all = check_inst_all(&i, None);
        assert_eq!(all.len(), 4);
        for (l, v) in all.iter().enumerate() {
            assert_eq!(v.lane, Some(l));
        }
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let mut i = simd_add();
        i.out_elem = Type::I64;
        assert!(check_inst(&i).is_err());
    }

    #[test]
    fn rejects_ill_typed_operation_body() {
        let bad = Operation {
            name: "bad".into(),
            params: vec![Type::I32, Type::I16],
            ret: Type::I32,
            expr: Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            },
        };
        assert!(check_operation(&bad).is_err());
    }

    #[test]
    fn rejects_float_op_on_ints() {
        let bad = Operation {
            name: "bad".into(),
            params: vec![Type::I32; 2],
            ret: Type::I32,
            expr: Expr::Bin {
                op: BinOp::FAdd,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            },
        };
        assert!(check_operation(&bad).is_err());
    }

    #[test]
    fn rejects_empty_lane_list() {
        let mut i = simd_add();
        i.lanes.clear();
        assert!(check_inst(&i).is_err());
    }

    #[test]
    fn rejects_unknown_operation_index() {
        let mut i = simd_add();
        i.lanes[0].op = 3;
        assert!(check_inst(&i).is_err());
    }

    #[test]
    fn collects_multiple_independent_violations() {
        let mut i = simd_add();
        i.lanes[0].args[0].lane = 7; // lane 0: index out of range
        i.lanes[2].args.pop(); // lane 2: arity
        i.ops.push(Operation {
            name: "bad".into(),
            params: vec![Type::I32; 2],
            ret: Type::I32,
            expr: Expr::Bin {
                op: BinOp::FAdd,
                lhs: Box::new(Expr::Param(0)),
                rhs: Box::new(Expr::Param(1)),
            },
        });
        let all = check_inst_all(&i, None);
        assert_eq!(all.len(), 3, "{all:?}");
        assert!(all.iter().any(|v| v.lane == Some(0)));
        assert!(all.iter().any(|v| v.lane == Some(2)));
        assert!(all.iter().any(|v| v.lane.is_none() && v.message.contains("bad")));
    }

    #[test]
    fn source_map_attaches_positions() {
        let mut i = simd_add();
        i.lanes[1].args[0].lane = 7;
        let map = SourceMap { inst: 0, lanes: vec![10, 20, 30, 40], ops: vec![50] };
        let all = check_inst_all(&i, Some(&map));
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].pos, Some(20));
        assert!(all[0].to_string().starts_with("at byte 20:"));
    }
}
