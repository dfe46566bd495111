//! Lifting simplified bit-vector formulas to VIDL.
//!
//! §6.1: "VEGEN then lifts the SMT formulas to VIDL. Lifting the SMT
//! formulas to VIDL is straightforward because we designed VIDL to closely
//! match the semantics of SMT bit-vector operations." The lifter slices the
//! output register into lanes, abstracts each lane's formula into a scalar
//! operation (input-element leaves become operation parameters), deduplicates
//! structurally identical operations, and records the lane bindings.

use crate::bv::{Bv, BvBinOp, FpBinOp};
use crate::eval::FpMode;
use crate::simplify::simplify;
use std::error::Error;
use std::fmt;
use vegen_ir::{BinOp, CastOp, CmpPred, Constant, Type};
use vegen_vidl::{Expr, InstSemantics, LaneBinding, LaneRef, Operation, VecShape};

/// A formula that cannot be expressed as a VIDL description.
///
/// This is a *feature*, not only an error path: the paper's system also
/// refuses instructions whose semantics fall outside VIDL (e.g. the
/// sign-bit-masking float `ABS`, which is why VeGen loses the `abs_pd`
/// tests in Fig. 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError(pub String);

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lift to VIDL: {}", self.0)
    }
}

impl Error for LiftError {}

fn err<T>(m: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError(m.into()))
}

/// Value kind expected from context while converting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
}

fn type_for(kind: Kind, bits: u32) -> Result<Type, LiftError> {
    match kind {
        Kind::Int => Type::int_with_bits(bits)
            .ok_or_else(|| LiftError(format!("no integer type of {bits} bits"))),
        Kind::Float => Type::float_with_bits(bits)
            .ok_or_else(|| LiftError(format!("no float type of {bits} bits"))),
    }
}

/// Per-lane abstraction state.
struct Abstraction<'a> {
    inputs: &'a [(&'a str, u32)],
    /// Element width of each input, by input position.
    elem_bits: &'a [u32],
    /// Parameters discovered so far: (lane ref, type).
    params: Vec<(LaneRef, Type)>,
}

fn input_index(inputs: &[(&str, u32)], name: &str) -> Option<usize> {
    inputs.iter().position(|(n, _)| *n == name)
}

impl<'a> Abstraction<'a> {
    fn param_for(&mut self, name: &str, hi: u32, lo: u32, kind: Kind) -> Result<Expr, LiftError> {
        let Some(input) = input_index(self.inputs, name) else {
            return err(format!("unknown input register `{name}`"));
        };
        let eb = self.elem_bits[input];
        // The slice must lie within a single element of the grid; narrower
        // reads (e.g. the truncating arm of a saturation) become
        // trunc/lshr of the element parameter.
        if lo / eb != hi / eb {
            return err(format!("slice {name}[{hi}:{lo}] straddles the {eb}-bit element grid"));
        }
        let ty = type_for(kind, eb)?;
        let lane = LaneRef { input, lane: (lo / eb) as usize };
        // Re-use an existing parameter for a repeated lane read.
        let idx = match self.params.iter().position(|(r, t)| *r == lane && *t == ty) {
            Some(i) => i,
            None => {
                if self.params.iter().any(|(r, _)| *r == lane) {
                    return err(format!("lane {name}[{hi}:{lo}] used at conflicting types"));
                }
                self.params.push((lane, ty));
                self.params.len() - 1
            }
        };
        let param = Expr::Param(idx);
        let offset = lo - (lo / eb) * eb;
        let width = hi - lo + 1;
        if offset == 0 && width == eb {
            return Ok(param);
        }
        if kind == Kind::Float {
            return err(format!("sub-element float slice {name}[{hi}:{lo}]"));
        }
        let to = type_for(Kind::Int, width)?;
        let shifted = if offset == 0 {
            param
        } else {
            Expr::Bin {
                op: BinOp::LShr,
                lhs: Box::new(param),
                rhs: Box::new(Expr::Const(Constant::int(ty, offset as i64))),
            }
        };
        Ok(Expr::Cast { op: CastOp::Trunc, to, arg: Box::new(shifted) })
    }

    fn convert(&mut self, e: &Bv, kind: Kind) -> Result<Expr, LiftError> {
        match e {
            Bv::Input { name, hi, lo } => self.param_for(name, *hi, *lo, kind),
            Bv::Const { width, bits } => {
                let ty = type_for(kind, *width)?;
                Ok(Expr::Const(match ty {
                    Type::F32 => Constant::f32(f32::from_bits(*bits as u32)),
                    Type::F64 => Constant::f64(f64::from_bits(*bits)),
                    _ => Constant::int(ty, vegen_ir::constant::sext(*bits, *width)),
                }))
            }
            Bv::Bin { op, lhs, rhs } => {
                if kind == Kind::Float {
                    return err(format!("integer op {} in float context", op.name()));
                }
                let bop = match op {
                    BvBinOp::Add => BinOp::Add,
                    BvBinOp::Sub => BinOp::Sub,
                    BvBinOp::Mul => BinOp::Mul,
                    BvBinOp::And => BinOp::And,
                    BvBinOp::Or => BinOp::Or,
                    BvBinOp::Xor => BinOp::Xor,
                    BvBinOp::Shl => BinOp::Shl,
                    BvBinOp::LShr => BinOp::LShr,
                    BvBinOp::AShr => BinOp::AShr,
                };
                Ok(Expr::Bin {
                    op: bop,
                    lhs: Box::new(self.convert(lhs, Kind::Int)?),
                    rhs: Box::new(self.convert(rhs, Kind::Int)?),
                })
            }
            Bv::FBin { op, lhs, rhs } => {
                if kind == Kind::Int {
                    return err(format!("float op {} in integer context", op.name()));
                }
                let l = self.convert(lhs, Kind::Float)?;
                let r = self.convert(rhs, Kind::Float)?;
                match op {
                    FpBinOp::Add | FpBinOp::Sub | FpBinOp::Mul | FpBinOp::Div => {
                        let bop = match op {
                            FpBinOp::Add => BinOp::FAdd,
                            FpBinOp::Sub => BinOp::FSub,
                            FpBinOp::Mul => BinOp::FMul,
                            _ => BinOp::FDiv,
                        };
                        Ok(Expr::Bin { op: bop, lhs: Box::new(l), rhs: Box::new(r) })
                    }
                    // IR has no fmin/fmax: lift to the select(cmp) shape the
                    // scalar code actually exhibits.
                    FpBinOp::Min | FpBinOp::Max => {
                        let pred = if *op == FpBinOp::Min { CmpPred::Flt } else { CmpPred::Fgt };
                        Ok(Expr::Select {
                            cond: Box::new(Expr::Cmp {
                                pred,
                                lhs: Box::new(l.clone()),
                                rhs: Box::new(r.clone()),
                            }),
                            on_true: Box::new(l),
                            on_false: Box::new(r),
                        })
                    }
                }
            }
            Bv::FNeg(a) => {
                if kind == Kind::Int {
                    return err("fneg in integer context");
                }
                Ok(Expr::FNeg(Box::new(self.convert(a, Kind::Float)?)))
            }
            Bv::SExt { width, arg } => {
                let to = type_for(Kind::Int, *width)?;
                Ok(Expr::Cast {
                    op: CastOp::SExt,
                    to,
                    arg: Box::new(self.convert(arg, Kind::Int)?),
                })
            }
            Bv::ZExt { width, arg } => {
                let to = type_for(Kind::Int, *width)?;
                Ok(Expr::Cast {
                    op: CastOp::ZExt,
                    to,
                    arg: Box::new(self.convert(arg, Kind::Int)?),
                })
            }
            Bv::Extract { hi, lo, arg } => {
                // A low extract is a truncation; a high extract is a
                // truncation of a logical shift (how pmulhw-style "take the
                // high half" semantics surface in IR).
                let to = type_for(Kind::Int, hi - lo + 1)?;
                let src_w = arg.width();
                let src = self.convert(arg, Kind::Int)?;
                let shifted = if *lo == 0 {
                    src
                } else {
                    let src_ty = type_for(Kind::Int, src_w)?;
                    Expr::Bin {
                        op: BinOp::LShr,
                        lhs: Box::new(src),
                        rhs: Box::new(Expr::Const(Constant::int(src_ty, *lo as i64))),
                    }
                };
                Ok(Expr::Cast { op: CastOp::Trunc, to, arg: Box::new(shifted) })
            }
            Bv::Concat(_) => err("concat inside a lane formula"),
            Bv::Ite { cond, on_true, on_false } => Ok(Expr::Select {
                cond: Box::new(self.convert(cond, Kind::Int)?),
                on_true: Box::new(self.convert(on_true, kind)?),
                on_false: Box::new(self.convert(on_false, kind)?),
            }),
            Bv::Cmp { pred, lhs, rhs } => {
                let k = if pred.is_float() { Kind::Float } else { Kind::Int };
                Ok(Expr::Cmp {
                    pred: *pred,
                    lhs: Box::new(self.convert(lhs, k)?),
                    rhs: Box::new(self.convert(rhs, k)?),
                })
            }
        }
    }
}

/// Rewrite parameter indices through `remap`.
fn remap_params(e: &Expr, remap: &[usize]) -> Expr {
    match e {
        Expr::Param(i) => Expr::Param(remap[*i]),
        Expr::Const(c) => Expr::Const(*c),
        Expr::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(remap_params(lhs, remap)),
            rhs: Box::new(remap_params(rhs, remap)),
        },
        Expr::FNeg(a) => Expr::FNeg(Box::new(remap_params(a, remap))),
        Expr::Cast { op, to, arg } => {
            Expr::Cast { op: *op, to: *to, arg: Box::new(remap_params(arg, remap)) }
        }
        Expr::Cmp { pred, lhs, rhs } => Expr::Cmp {
            pred: *pred,
            lhs: Box::new(remap_params(lhs, remap)),
            rhs: Box::new(remap_params(rhs, remap)),
        },
        Expr::Select { cond, on_true, on_false } => Expr::Select {
            cond: Box::new(remap_params(cond, remap)),
            on_true: Box::new(remap_params(on_true, remap)),
            on_false: Box::new(remap_params(on_false, remap)),
        },
    }
}

/// Each input register's element width, by input position: the unique
/// width of the aligned slices referencing it.
fn infer_elem_bits(
    formula: &Bv,
    inputs: &[(&str, u32)],
    default_bits: u32,
) -> Result<Vec<u32>, LiftError> {
    fn visit(e: &Bv, inputs: &[(&str, u32)], slices: &mut [Vec<(u32, u32)>]) {
        match e {
            Bv::Input { name, hi, lo } => {
                // An undeclared name is reported where it is abstracted.
                if let Some(i) = input_index(inputs, name) {
                    slices[i].push((*hi, *lo));
                }
            }
            Bv::Const { .. } => {}
            Bv::Bin { lhs, rhs, .. } | Bv::FBin { lhs, rhs, .. } | Bv::Cmp { lhs, rhs, .. } => {
                visit(lhs, inputs, slices);
                visit(rhs, inputs, slices);
            }
            Bv::FNeg(a) => visit(a, inputs, slices),
            Bv::SExt { arg, .. } | Bv::ZExt { arg, .. } | Bv::Extract { arg, .. } => {
                visit(arg, inputs, slices)
            }
            Bv::Concat(parts) => parts.iter().for_each(|p| visit(p, inputs, slices)),
            Bv::Ite { cond, on_true, on_false } => {
                visit(cond, inputs, slices);
                visit(on_true, inputs, slices);
                visit(on_false, inputs, slices);
            }
        }
    }
    let mut slices: Vec<Vec<(u32, u32)>> = vec![Vec::new(); inputs.len()];
    visit(formula, inputs, &mut slices);
    let mut out = Vec::with_capacity(inputs.len());
    for ((name, total), ss) in inputs.iter().zip(&slices) {
        // Element width = the widest slice; it must be grid-aligned, and
        // every other slice must lie within a single element of that grid
        // (narrower reads lower to trunc/lshr of the element parameter).
        let Some(w) = ss.iter().map(|(hi, lo)| hi - lo + 1).max() else {
            out.push(default_bits);
            continue;
        };
        if total % w != 0 {
            return err(format!("input `{name}` width {total} not divisible by element {w}"));
        }
        for (hi, lo) in ss {
            if lo / w != hi / w || (hi - lo + 1 == w && lo % w != 0) {
                return err(format!(
                    "input `{name}` slice [{hi}:{lo}] is off the {w}-bit element grid"
                ));
            }
        }
        out.push(w);
    }
    Ok(out)
}

/// The simplified formula of every `elem_bits`-wide lane of `formula`, lane
/// 0 (least significant) first — what [`lift_to_vidl`] abstracts.
///
/// A register formula is a `Concat` of per-lane (or merged multi-lane)
/// parts, so each lane is cut from just the parts that overlap it: the
/// work is linear in the formula rather than lanes × formula. Cutting from
/// the overlapping parts or from the whole register simplifies to the same
/// thing, because the first rule to fire on `Extract(Concat(..))` discards
/// the parts outside the range (`vegen-isa`'s `lane_slices` test holds
/// every lane of every spec to that).
///
/// # Panics
///
/// Panics if the formula's width is not a positive multiple of `elem_bits`.
pub fn lane_formulas(formula: &Bv, elem_bits: u32) -> Vec<Bv> {
    let parts = match formula {
        Bv::Concat(parts) => parts.as_slice(),
        whole => std::slice::from_ref(whole),
    };
    let widths: Vec<u32> = parts.iter().map(Bv::width).collect();
    let total: u32 = widths.iter().sum();
    assert!(
        elem_bits > 0 && total.is_multiple_of(elem_bits),
        "{total} bits in {elem_bits}-bit lanes"
    );
    // `parts[first]` starts at bit `base`; lanes ascend, so neither goes back.
    let (mut first, mut base) = (0usize, 0u32);
    (0..total / elem_bits)
        .map(|lane| {
            let (lo, hi) = (lane * elem_bits, (lane + 1) * elem_bits - 1);
            while base + widths[first] <= lo {
                base += widths[first];
                first += 1;
            }
            let (mut end, mut top) = (first, base);
            while top <= hi {
                top += widths[end];
                end += 1;
            }
            let cut = |from: Bv| {
                simplify(&Bv::Extract { hi: hi - base, lo: lo - base, arg: Box::new(from) })
            };
            let out = match &parts[first..end] {
                [part] if base == lo && top == hi + 1 => simplify(part),
                [part] => cut(part.clone()),
                run => cut(Bv::Concat(run.to_vec())),
            };
            #[cfg(test)]
            assert_eq!(out, tests::lane_by_clone_and_extract(formula, hi, lo), "lane {lane}");
            out
        })
        .collect()
}

/// Lift a (simplified) output formula to a checked VIDL description.
///
/// # Errors
///
/// Returns [`LiftError`] if the formula cannot be expressed in VIDL —
/// unaligned slices, mixed element widths, sub-element bit twiddling, or
/// float/int kind conflicts.
pub fn lift_to_vidl(
    name: &str,
    inputs: &[(&str, u32)],
    out_elem_bits: u32,
    fp: FpMode,
    formula: &Bv,
) -> Result<InstSemantics, LiftError> {
    let dst_bits = formula.width();
    if !dst_bits.is_multiple_of(out_elem_bits) {
        return err(format!("dst width {dst_bits} not divisible by element {out_elem_bits}"));
    }
    let lane_kind = match fp {
        FpMode::Int => Kind::Int,
        FpMode::Float => Kind::Float,
    };
    let out_elem = type_for(lane_kind, out_elem_bits)?;

    let elem_bits = infer_elem_bits(formula, inputs, out_elem_bits)?;

    // Infer each input's element kind from the lanes' use contexts; in
    // float mode inputs are floats, in int mode ints. (Mixed-kind
    // instructions like cvt* are out of scope, as in the paper's evaluation.)
    let in_kind = lane_kind;

    let mut ops: Vec<Operation> = Vec::new();
    let mut lanes: Vec<LaneBinding> = Vec::new();
    for lane_formula in lane_formulas(formula, out_elem_bits) {
        let mut abs = Abstraction { inputs, elem_bits: &elem_bits, params: Vec::new() };
        let expr = abs.convert(&lane_formula, lane_kind)?;
        // Canonical parameter order: by (input register, lane) rather than
        // first use. This keeps the generated patterns' operand vectors in
        // ascending-lane order, so e.g. haddpd's operand is the contiguous
        // [a0, a1] instead of the reversed [a1, a0].
        let mut perm: Vec<usize> = (0..abs.params.len()).collect();
        perm.sort_by_key(|&i| abs.params[i].0);
        let mut remap = vec![0usize; abs.params.len()];
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        let expr = remap_params(&expr, &remap);
        let params: Vec<Type> = perm.iter().map(|&i| abs.params[i].1).collect();
        let args: Vec<LaneRef> = perm.iter().map(|&i| abs.params[i].0).collect();
        // Deduplicate operations structurally.
        let op_idx = match ops
            .iter()
            .position(|o| o.expr == expr && o.params == params && o.ret == out_elem)
        {
            Some(i) => i,
            None => {
                ops.push(Operation {
                    name: format!("{name}_op{}", ops.len()),
                    params,
                    ret: out_elem,
                    expr,
                });
                ops.len() - 1
            }
        };
        lanes.push(LaneBinding { op: op_idx, args });
    }

    let shapes: Vec<VecShape> = inputs
        .iter()
        .zip(&elem_bits)
        .map(|((_, total), &eb)| -> Result<VecShape, LiftError> {
            Ok(VecShape { lanes: (*total / eb) as usize, elem: type_for(in_kind, eb)? })
        })
        .collect::<Result<_, _>>()?;

    Ok(InstSemantics { name: name.to_string(), inputs: shapes, out_elem, ops, lanes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use crate::lang::parse_program;

    /// The lane path [`lane_formulas`] replaced, kept as its reference:
    /// clone the whole register formula under an `Extract` and simplify.
    pub(super) fn lane_by_clone_and_extract(formula: &Bv, hi: u32, lo: u32) -> Bv {
        simplify(&Bv::Extract { hi, lo, arg: Box::new(formula.clone()) })
    }

    fn pipeline(
        name: &str,
        inputs: &[(&str, u32)],
        dst_bits: u32,
        out_elem: u32,
        fp: FpMode,
        src: &str,
    ) -> Result<InstSemantics, LiftError> {
        let p = parse_program(src).unwrap();
        let f = eval_program(&p, inputs, dst_bits, fp).unwrap();
        let f = simplify(&f);
        let d = lift_to_vidl(name, inputs, out_elem, fp, &f)?;
        vegen_vidl::check_inst(&d).map_err(|e| LiftError(e.0))?;
        Ok(d)
    }

    #[test]
    fn lifts_simd_add() {
        let d = pipeline(
            "paddd",
            &[("a", 128), ("b", 128)],
            128,
            32,
            FpMode::Int,
            "FOR j := 0 to 3\n i := j*32\n dst[i+31:i] := a[i+31:i] + b[i+31:i]\nENDFOR",
        )
        .unwrap();
        assert_eq!(d.out_lanes(), 4);
        assert_eq!(d.ops.len(), 1, "one shared operation across lanes");
        assert!(d.is_simd());
    }

    #[test]
    fn lifts_pmaddwd_with_cross_lane_bindings() {
        let d = pipeline(
            "pmaddwd",
            &[("a", 64), ("b", 64)],
            64,
            32,
            FpMode::Int,
            "FOR j := 0 to 1\n i := j*32\n dst[i+31:i] := SignExtend32(a[i+31:i+16])*SignExtend32(b[i+31:i+16]) + SignExtend32(a[i+15:i])*SignExtend32(b[i+15:i])\nENDFOR",
        )
        .unwrap();
        assert_eq!(d.out_lanes(), 2);
        assert_eq!(d.ops.len(), 1);
        assert!(!d.is_simd());
        assert_eq!(d.inputs[0], VecShape { lanes: 4, elem: Type::I16 });
        // Lane 1 reads a[3],a[2],b[3],b[2].
        let lane1 = &d.lanes[1];
        let touched: Vec<usize> = lane1.args.iter().map(|r| r.lane).collect();
        assert!(touched.iter().all(|&l| l >= 2));
    }

    #[test]
    fn lifts_addsub_with_two_ops() {
        let d = pipeline(
            "addsubpd",
            &[("a", 128), ("b", 128)],
            128,
            64,
            FpMode::Float,
            "dst[63:0] := a[63:0] - b[63:0]\ndst[127:64] := a[127:64] + b[127:64]",
        )
        .unwrap();
        assert_eq!(d.ops.len(), 2, "sub and add are distinct operations");
        assert!(!d.is_simd());
        assert_eq!(d.out_elem, Type::F64);
    }

    #[test]
    fn lifts_hadd_cross_lane() {
        let d = pipeline(
            "haddpd",
            &[("a", 128), ("b", 128)],
            128,
            64,
            FpMode::Float,
            "dst[63:0] := a[127:64] + a[63:0]\ndst[127:64] := b[127:64] + b[63:0]",
        )
        .unwrap();
        assert_eq!(d.ops.len(), 1);
        assert!(!d.is_simd());
        // Lane 0 reads both lanes of input 0.
        let inputs_used: Vec<usize> = d.lanes[0].args.iter().map(|r| r.input).collect();
        assert_eq!(inputs_used, vec![0, 0]);
    }

    #[test]
    fn lifts_saturation_to_select_chain() {
        let d = pipeline(
            "packssdw_lane",
            &[("a", 32)],
            16,
            16,
            FpMode::Int,
            "dst[15:0] := Saturate16(a[31:0])",
        )
        .unwrap();
        assert!(matches!(d.ops[0].expr, Expr::Select { .. }));
    }

    #[test]
    fn dont_care_lanes_from_pmuldq_shape() {
        // vpmuldq reads only even lanes (Fig. 6).
        let d = pipeline(
            "pmuldq",
            &[("a", 128), ("b", 128)],
            128,
            64,
            FpMode::Int,
            "dst[63:0] := SignExtend64(a[31:0]) * SignExtend64(b[31:0])\n\
             dst[127:64] := SignExtend64(a[95:64]) * SignExtend64(b[95:64])",
        )
        .unwrap();
        assert!(d.has_dont_care_lanes(0));
        assert!(d.has_dont_care_lanes(1));
        assert_eq!(d.inputs[0].lanes, 4);
    }

    #[test]
    fn float_abs_mask_fails_to_lift() {
        // The sign-bit trick is not an IR pattern: VeGen cannot (and should
        // not) describe it — reproduces the Fig. 10 abs_pd/abs_ps failures.
        let r = pipeline(
            "abs_pd",
            &[("a", 128)],
            128,
            64,
            FpMode::Float,
            "dst[63:0] := ABS(a[63:0])\ndst[127:64] := ABS(a[127:64])",
        );
        assert!(r.is_err());
    }

    #[test]
    fn integer_abs_lifts() {
        let d = pipeline(
            "pabsd",
            &[("a", 64)],
            64,
            32,
            FpMode::Int,
            "FOR j := 0 to 1\n i := j*32\n dst[i+31:i] := ABS(a[i+31:i])\nENDFOR",
        )
        .unwrap();
        assert!(matches!(d.ops[0].expr, Expr::Select { .. }));
        assert!(d.is_simd());
    }

    #[test]
    fn straddling_slice_fails() {
        // a[23:8] crosses the 16-bit element boundary: not expressible as a
        // lane-level pattern.
        let r = pipeline(
            "weird",
            &[("a", 32)],
            16,
            16,
            FpMode::Int,
            "dst[15:0] := a[23:8] AND a[15:0]",
        );
        assert!(r.is_err());
    }

    #[test]
    fn high_half_extract_lifts_to_shift_trunc() {
        // pmulhw-style: the high 16 bits of a 32-bit product.
        let d = pipeline(
            "pmulhw_lane",
            &[("a", 16), ("b", 16)],
            16,
            16,
            FpMode::Int,
            "tmp[31:0] := SignExtend32(a[15:0]) * SignExtend32(b[15:0])\ndst[15:0] := tmp[31:16]",
        )
        .unwrap();
        // trunc(lshr(mul, 16))
        let Expr::Cast { op: CastOp::Trunc, arg, .. } = &d.ops[0].expr else {
            panic!("{:?}", d.ops[0].expr)
        };
        assert!(matches!(**arg, Expr::Bin { op: BinOp::LShr, .. }));
    }

    #[test]
    fn min_lifts_to_select_cmp() {
        let d = pipeline(
            "pminsd_lane",
            &[("a", 32), ("b", 32)],
            32,
            32,
            FpMode::Int,
            "dst[31:0] := MIN(a[31:0], b[31:0])",
        )
        .unwrap();
        let Expr::Select { cond, .. } = &d.ops[0].expr else { panic!() };
        assert!(matches!(**cond, Expr::Cmp { pred: CmpPred::Slt, .. }));
    }

    #[test]
    fn float_min_uses_float_predicate() {
        let d = pipeline(
            "minpd_lane",
            &[("a", 64), ("b", 64)],
            64,
            64,
            FpMode::Float,
            "dst[63:0] := MIN(a[63:0], b[63:0])",
        )
        .unwrap();
        let Expr::Select { cond, .. } = &d.ops[0].expr else { panic!() };
        assert!(matches!(**cond, Expr::Cmp { pred: CmpPred::Flt, .. }));
    }

    #[test]
    fn repeated_lane_read_shares_parameter() {
        let d =
            pipeline("square", &[("a", 32)], 32, 32, FpMode::Int, "dst[31:0] := a[31:0] * a[31:0]")
                .unwrap();
        assert_eq!(d.ops[0].params.len(), 1, "a[0] appears once as a parameter");
        assert_eq!(d.lanes[0].args.len(), 1);
    }
}
