//! Symbolic evaluation of pseudocode programs to bit-vector formulas.
//!
//! Reproduces the special cases §6.1 of the paper describes:
//!
//! * **Assignment** to a sub-bit-vector becomes a pure expression — the new
//!   register value is the concatenation of the unaffected sub-vectors and
//!   the updated one.
//! * **Function calls** (the guide's helpers such as `SignExtend32`,
//!   `Saturate16`, `ABS`, `MIN`) are inlined.
//! * **Loops** are fully unrolled (all trip counts are constants).
//! * **If-statements** are if-converted: the predicate becomes the
//!   condition of an `Ite` wrapped around the mutated sub-vector.
//!
//! Loop counters and slice bounds evaluate concretely; everything touching
//! input registers stays symbolic.

use crate::bv::{Bv, BvBinOp, BvError, FpBinOp};
use crate::lang::{PBinOp, PCmpOp, PExpr, Program, Stmt};
use std::collections::HashMap;
use vegen_ir::CmpPred;

/// Whether the pseudocode's overloaded arithmetic means integer or IEEE
/// float operations (the Intrinsics Guide disambiguates by the intrinsic's
/// element type; we pass it explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpMode {
    /// `+`, `*`, `MIN`, comparisons, ... are integer (signed where it
    /// matters).
    Int,
    /// Arithmetic on 32/64-bit values is IEEE float.
    Float,
}

#[derive(Debug, Clone)]
enum Val {
    /// Concrete machine integer (loop counters, slice bounds).
    Int(i64),
    /// Symbolic bit-vector.
    Sym(Bv),
}

#[derive(Debug, Clone, Default)]
struct Env {
    scalars: HashMap<String, i64>,
    regs: HashMap<String, Bv>,
}

fn bv_const(width: u32, v: i64) -> Bv {
    Bv::Const { width, bits: (v as u64) & vegen_ir::constant::mask(width) }
}

struct Evaluator {
    fp: FpMode,
}

impl Evaluator {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, BvError> {
        Err(BvError(m.into()))
    }

    fn eval_expr(&self, e: &PExpr, env: &Env) -> Result<Val, BvError> {
        match e {
            PExpr::Num(v) => Ok(Val::Int(*v)),
            PExpr::Var(name) => {
                if let Some(v) = env.scalars.get(name) {
                    Ok(Val::Int(*v))
                } else if let Some(b) = env.regs.get(name) {
                    Ok(Val::Sym(b.clone()))
                } else {
                    self.err(format!("unbound variable `{name}`"))
                }
            }
            PExpr::Slice { base, hi, lo } => {
                let hi = self.concrete(hi, env)?;
                let lo = self.concrete(lo, env)?;
                if hi < lo || lo < 0 {
                    return self.err(format!("bad slice bounds [{hi}:{lo}]"));
                }
                let reg = env
                    .regs
                    .get(base)
                    .ok_or_else(|| BvError(format!("unbound register `{base}`")))?;
                let w = reg.width();
                if hi as u32 >= w {
                    return self
                        .err(format!("slice [{hi}:{lo}] out of range for `{base}` ({w} bits)"));
                }
                Ok(Val::Sym(extract(reg.clone(), hi as u32, lo as u32)))
            }
            PExpr::Bit { base, idx } => {
                let i = self.concrete(idx, env)?;
                self.eval_expr(
                    &PExpr::Slice {
                        base: base.clone(),
                        hi: Box::new(PExpr::Num(i)),
                        lo: Box::new(PExpr::Num(i)),
                    },
                    env,
                )
            }
            PExpr::Neg(a) => match self.eval_expr(a, env)? {
                Val::Int(v) => Ok(Val::Int(-v)),
                Val::Sym(b) => {
                    if self.fp == FpMode::Float {
                        Ok(Val::Sym(Bv::FNeg(Box::new(b))))
                    } else {
                        let w = b.width();
                        Ok(Val::Sym(Bv::Bin {
                            op: BvBinOp::Sub,
                            lhs: Box::new(bv_const(w, 0)),
                            rhs: Box::new(b),
                        }))
                    }
                }
            },
            PExpr::Bin { op, lhs, rhs } => {
                let l = self.eval_expr(lhs, env)?;
                let r = self.eval_expr(rhs, env)?;
                self.apply_bin(*op, l, r)
            }
            PExpr::Cmp { op, lhs, rhs } => {
                let l = self.eval_expr(lhs, env)?;
                let r = self.eval_expr(rhs, env)?;
                self.apply_cmp(*op, l, r)
            }
            PExpr::Call { name, args } => self.apply_call(name, args, env),
        }
    }

    fn concrete(&self, e: &PExpr, env: &Env) -> Result<i64, BvError> {
        match self.eval_expr(e, env)? {
            Val::Int(v) => Ok(v),
            Val::Sym(b) => self.err(format!("expected a constant, got symbolic value {b}")),
        }
    }

    fn coerce_pair(&self, l: Val, r: Val) -> Result<(Bv, Bv), BvError> {
        match (l, r) {
            (Val::Sym(a), Val::Sym(b)) => {
                if a.width() != b.width() {
                    return self.err(format!(
                        "width mismatch: {} vs {} ({a} vs {b})",
                        a.width(),
                        b.width()
                    ));
                }
                Ok((a, b))
            }
            (Val::Sym(a), Val::Int(v)) => {
                let w = a.width();
                Ok((a, bv_const(w, v)))
            }
            (Val::Int(v), Val::Sym(b)) => {
                let w = b.width();
                Ok((bv_const(w, v), b))
            }
            (Val::Int(_), Val::Int(_)) => unreachable!("handled by caller"),
        }
    }

    fn apply_bin(&self, op: PBinOp, l: Val, r: Val) -> Result<Val, BvError> {
        if let (Val::Int(a), Val::Int(b)) = (&l, &r) {
            let v = match op {
                PBinOp::Add => a + b,
                PBinOp::Sub => a - b,
                PBinOp::Mul => a * b,
                PBinOp::And => a & b,
                PBinOp::Or => a | b,
                PBinOp::Xor => a ^ b,
                PBinOp::Shl => a << b,
                PBinOp::Shr => a >> b,
            };
            return Ok(Val::Int(v));
        }
        let (a, b) = self.coerce_pair(l, r)?;
        let w = a.width();
        let float = self.fp == FpMode::Float && (w == 32 || w == 64);
        let bv = if float {
            let fop = match op {
                PBinOp::Add => FpBinOp::Add,
                PBinOp::Sub => FpBinOp::Sub,
                PBinOp::Mul => FpBinOp::Mul,
                _ => return self.err(format!("float mode does not support {op:?}")),
            };
            Bv::FBin { op: fop, lhs: Box::new(a), rhs: Box::new(b) }
        } else {
            let iop = match op {
                PBinOp::Add => BvBinOp::Add,
                PBinOp::Sub => BvBinOp::Sub,
                PBinOp::Mul => BvBinOp::Mul,
                PBinOp::And => BvBinOp::And,
                PBinOp::Or => BvBinOp::Or,
                PBinOp::Xor => BvBinOp::Xor,
                PBinOp::Shl => BvBinOp::Shl,
                PBinOp::Shr => BvBinOp::AShr,
            };
            Bv::Bin { op: iop, lhs: Box::new(a), rhs: Box::new(b) }
        };
        Ok(Val::Sym(bv))
    }

    fn apply_cmp(&self, op: PCmpOp, l: Val, r: Val) -> Result<Val, BvError> {
        if let (Val::Int(a), Val::Int(b)) = (&l, &r) {
            let v = match op {
                PCmpOp::Eq => a == b,
                PCmpOp::Ne => a != b,
                PCmpOp::Lt => a < b,
                PCmpOp::Le => a <= b,
                PCmpOp::Gt => a > b,
                PCmpOp::Ge => a >= b,
            };
            return Ok(Val::Int(v as i64));
        }
        let (a, b) = self.coerce_pair(l, r)?;
        let w = a.width();
        let float = self.fp == FpMode::Float && (w == 32 || w == 64);
        let pred = match (op, float) {
            (PCmpOp::Eq, false) => CmpPred::Eq,
            (PCmpOp::Ne, false) => CmpPred::Ne,
            (PCmpOp::Lt, false) => CmpPred::Slt,
            (PCmpOp::Le, false) => CmpPred::Sle,
            (PCmpOp::Gt, false) => CmpPred::Sgt,
            (PCmpOp::Ge, false) => CmpPred::Sge,
            (PCmpOp::Eq, true) => CmpPred::Feq,
            (PCmpOp::Ne, true) => CmpPred::Fne,
            (PCmpOp::Lt, true) => CmpPred::Flt,
            (PCmpOp::Le, true) => CmpPred::Fle,
            (PCmpOp::Gt, true) => CmpPred::Fgt,
            (PCmpOp::Ge, true) => CmpPred::Fge,
        };
        Ok(Val::Sym(Bv::Cmp { pred, lhs: Box::new(a), rhs: Box::new(b) }))
    }

    fn sym(&self, v: Val) -> Result<Bv, BvError> {
        match v {
            Val::Sym(b) => Ok(b),
            Val::Int(_) => self.err("expected a symbolic value"),
        }
    }

    fn apply_call(&self, name: &str, args: &[PExpr], env: &Env) -> Result<Val, BvError> {
        let arity = |n: usize| -> Result<(), BvError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(BvError(format!("`{name}` takes {n} argument(s), got {}", args.len())))
            }
        };
        // Width-suffixed extensions.
        for (prefix, signed) in [("SignExtend", true), ("ZeroExtend", false)] {
            if let Some(suffix) = name.strip_prefix(prefix) {
                if let Ok(to) = suffix.parse::<u32>() {
                    arity(1)?;
                    let a = self.sym(self.eval_expr(&args[0], env)?)?;
                    if a.width() >= to {
                        return self.err(format!("{name} of width {} value", a.width()));
                    }
                    return Ok(Val::Sym(if signed {
                        Bv::SExt { width: to, arg: Box::new(a) }
                    } else {
                        Bv::ZExt { width: to, arg: Box::new(a) }
                    }));
                }
            }
        }
        if let Some(suffix) = name.strip_prefix("Truncate") {
            if let Ok(to) = suffix.parse::<u32>() {
                arity(1)?;
                let a = self.sym(self.eval_expr(&args[0], env)?)?;
                if a.width() <= to {
                    return self.err(format!("{name} of width {} value", a.width()));
                }
                return Ok(Val::Sym(extract(a, to - 1, 0)));
            }
        }
        // Saturations: clamp a (signed) wide value into the target range,
        // then truncate. `SaturateU*` clamps into the unsigned range — note
        // the input is still interpreted as signed, which is exactly the
        // psubus subtlety §6.1 describes.
        let saturate = |to: u32, lo: i64, hi: i64| -> Result<Val, BvError> {
            arity(1)?;
            let a = self.sym(self.eval_expr(&args[0], env)?)?;
            let w = a.width();
            if w <= to {
                return Err(BvError(format!("{name} of width {w} value")));
            }
            let narrow = extract(a.clone(), to - 1, 0);
            // The documentation's (deliberately non-strict) phrasing:
            // "if the value is greater than or equal to 0x8000, saturate".
            // Canonicalizing the generated patterns rewrites these to the
            // strict comparisons front ends emit — the rewrite §6 calls
            // "crucial for recognizing integer saturations", and exactly
            // what the Fig. 11 canonicalization ablation switches off.
            let hi_c = bv_const(w, hi + 1);
            let lo_c = bv_const(w, lo - 1);
            let too_big =
                Bv::Cmp { pred: CmpPred::Sge, lhs: Box::new(a.clone()), rhs: Box::new(hi_c) };
            let too_small = Bv::Cmp { pred: CmpPred::Sle, lhs: Box::new(a), rhs: Box::new(lo_c) };
            Ok(Val::Sym(Bv::Ite {
                cond: Box::new(too_big),
                on_true: Box::new(bv_const(to, hi)),
                on_false: Box::new(Bv::Ite {
                    cond: Box::new(too_small),
                    on_true: Box::new(bv_const(to, lo)),
                    on_false: Box::new(narrow),
                }),
            }))
        };
        match name {
            "Saturate8" => saturate(8, i8::MIN as i64, i8::MAX as i64),
            "Saturate16" => saturate(16, i16::MIN as i64, i16::MAX as i64),
            "Saturate32" => saturate(32, i32::MIN as i64, i32::MAX as i64),
            "SaturateU8" => saturate(8, 0, u8::MAX as i64),
            "SaturateU16" => saturate(16, 0, u16::MAX as i64),
            "ABS" => {
                arity(1)?;
                let a = self.sym(self.eval_expr(&args[0], env)?)?;
                let w = a.width();
                if self.fp == FpMode::Float {
                    // The guide's ABS on floats clears the sign bit; VeGen
                    // deliberately does NOT understand this trick (§7.1), and
                    // neither do we: it surfaces as a masking formula the
                    // lifter cannot express as an IR pattern.
                    return Ok(Val::Sym(Bv::Bin {
                        op: BvBinOp::And,
                        lhs: Box::new(a),
                        rhs: Box::new(Bv::Const {
                            width: w,
                            bits: vegen_ir::constant::mask(w - 1),
                        }),
                    }));
                }
                let neg = Bv::Bin {
                    op: BvBinOp::Sub,
                    lhs: Box::new(bv_const(w, 0)),
                    rhs: Box::new(a.clone()),
                };
                let is_neg = Bv::Cmp {
                    pred: CmpPred::Slt,
                    lhs: Box::new(a.clone()),
                    rhs: Box::new(bv_const(w, 0)),
                };
                Ok(Val::Sym(Bv::Ite {
                    cond: Box::new(is_neg),
                    on_true: Box::new(neg),
                    on_false: Box::new(a),
                }))
            }
            "MIN" | "MAX" | "MINU" | "MAXU" => {
                arity(2)?;
                let l = self.eval_expr(&args[0], env)?;
                let r = self.eval_expr(&args[1], env)?;
                let (a, b) = self.coerce_pair(l, r)?;
                let w = a.width();
                let float = self.fp == FpMode::Float && (w == 32 || w == 64);
                if float {
                    let op = if name == "MIN" { FpBinOp::Min } else { FpBinOp::Max };
                    return Ok(Val::Sym(Bv::FBin { op, lhs: Box::new(a), rhs: Box::new(b) }));
                }
                let pred = match name {
                    "MIN" => CmpPred::Slt,
                    "MAX" => CmpPred::Sgt,
                    "MINU" => CmpPred::Ult,
                    _ => CmpPred::Ugt,
                };
                let c = Bv::Cmp { pred, lhs: Box::new(a.clone()), rhs: Box::new(b.clone()) };
                Ok(Val::Sym(Bv::Ite {
                    cond: Box::new(c),
                    on_true: Box::new(a),
                    on_false: Box::new(b),
                }))
            }
            _ => self.err(format!("unknown helper `{name}`")),
        }
    }

    fn run_block(&self, stmts: &[Stmt], env: &mut Env) -> Result<(), BvError> {
        for s in stmts {
            self.run_stmt(s, env)?;
        }
        Ok(())
    }

    fn run_stmt(&self, s: &Stmt, env: &mut Env) -> Result<(), BvError> {
        match s {
            Stmt::AssignVar { name, value } => {
                match self.eval_expr(value, env)? {
                    Val::Int(v) => {
                        env.scalars.insert(name.clone(), v);
                        env.regs.remove(name);
                    }
                    Val::Sym(b) => {
                        env.regs.insert(name.clone(), b);
                        env.scalars.remove(name);
                    }
                }
                Ok(())
            }
            Stmt::AssignSlice { base, hi, lo, value } => {
                let hi = self.concrete(hi, env)? as u32;
                let lo_i = self.concrete(lo, env)?;
                if lo_i < 0 || hi < lo_i as u32 {
                    return self.err(format!("bad assignment bounds [{hi}:{lo_i}]"));
                }
                let lo = lo_i as u32;
                let new = match self.eval_expr(value, env)? {
                    Val::Int(v) => bv_const(hi - lo + 1, v),
                    Val::Sym(b) => {
                        let want = hi - lo + 1;
                        let got = b.width();
                        if got == want {
                            b
                        } else if got > want {
                            // The guide implicitly truncates on store.
                            extract(b, want - 1, 0)
                        } else {
                            return self
                                .err(format!("assigning {got} bits to [{hi}:{lo}] ({want} bits)"));
                        }
                    }
                };
                // First write creates the register, zero-filled up to hi.
                let old = env.regs.remove(base).unwrap_or(Bv::Const { width: 0, bits: 0 });
                env.regs.insert(base.clone(), write_slice(old, hi, lo, new));
                Ok(())
            }
            Stmt::For { var, from, to, body } => {
                let from = self.concrete(from, env)?;
                let to = self.concrete(to, env)?;
                if to < from {
                    return Ok(()); // empty loop
                }
                if (to - from) > 4096 {
                    return self.err(format!("loop trip count {} too large", to - from + 1));
                }
                for i in from..=to {
                    env.scalars.insert(var.clone(), i);
                    self.run_block(body, env)?;
                }
                Ok(())
            }
            Stmt::If { cond, then_body, else_body } => {
                match self.eval_expr(cond, env)? {
                    Val::Int(c) => {
                        if c != 0 {
                            self.run_block(then_body, env)
                        } else {
                            self.run_block(else_body, env)
                        }
                    }
                    Val::Sym(c) => {
                        if c.width() != 1 {
                            // Treat "IF x" with wide x as x != 0.
                            return self.err("symbolic IF condition must be a comparison");
                        }
                        let mut then_env = env.clone();
                        let mut else_env = env.clone();
                        self.run_block(then_body, &mut then_env)?;
                        self.run_block(else_body, &mut else_env)?;
                        // Merge: registers touched by either branch become
                        // Ite(cond, then, else) — the paper's if-conversion.
                        let mut names: Vec<String> =
                            then_env.regs.keys().chain(else_env.regs.keys()).cloned().collect();
                        names.sort();
                        names.dedup();
                        for name in names {
                            let t = then_env.regs.get(&name);
                            let e = else_env.regs.get(&name);
                            match (t, e) {
                                (Some(t), Some(e)) if t == e => {
                                    env.regs.insert(name, t.clone());
                                }
                                (Some(t), Some(e)) => {
                                    if t.width() != e.width() {
                                        return self.err(format!(
                                            "`{name}` has different widths across IF branches"
                                        ));
                                    }
                                    env.regs.insert(
                                        name,
                                        Bv::Ite {
                                            cond: Box::new(c.clone()),
                                            on_true: Box::new(t.clone()),
                                            on_false: Box::new(e.clone()),
                                        },
                                    );
                                }
                                _ => {
                                    return self
                                        .err(format!("`{name}` assigned in only one IF branch"))
                                }
                            }
                        }
                        // Scalars must not diverge under a symbolic predicate.
                        if then_env.scalars != else_env.scalars {
                            return self
                                .err("scalar variable diverges under symbolic IF condition");
                        }
                        env.scalars = then_env.scalars;
                        Ok(())
                    }
                }
            }
        }
    }
}

fn extract(b: Bv, hi: u32, lo: u32) -> Bv {
    if lo == 0 && hi + 1 == b.width() {
        return b;
    }
    Bv::Extract { hi, lo, arg: Box::new(b) }
}

/// Pure partial update: `old` with bits `[hi:lo]` replaced by `new`,
/// extending with zeros if `hi` is past the current width.
fn write_slice(old: Bv, hi: u32, lo: u32, new: Bv) -> Bv {
    let old_w = old.width();
    // `old` survives below the update, above it, or both; only a write
    // into the middle needs it twice.
    let (low_src, high_src) = match (lo > 0 && old_w > 0, old_w > hi + 1) {
        (true, true) => (Some(old.clone()), Some(old)),
        (true, false) => (Some(old), None),
        (false, keeps_high) => (None, keeps_high.then_some(old)),
    };
    let mut parts: Vec<Bv> = Vec::with_capacity(3);
    if let Some(src) = low_src {
        parts.push(if old_w >= lo { extract(src, lo - 1, 0) } else { src });
    }
    if old_w < lo {
        parts.push(Bv::Const { width: lo - old_w, bits: 0 });
    }
    parts.push(new);
    if let Some(src) = high_src {
        parts.push(extract(src, old_w - 1, hi + 1));
    }
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else {
        Bv::Concat(parts)
    }
}

/// Symbolically evaluate `program` and return the final formula for `dst`.
///
/// `inputs` binds each input register name to its width; `dst` must end up
/// exactly `dst_bits` wide.
///
/// # Errors
///
/// Returns [`BvError`] on unsupported constructs, width violations, or if
/// the program never fully defines `dst`.
pub fn eval_program(
    program: &Program,
    inputs: &[(&str, u32)],
    dst_bits: u32,
    fp: FpMode,
) -> Result<Bv, BvError> {
    let mut env = Env::default();
    for (name, width) in inputs {
        env.regs
            .insert(name.to_string(), Bv::Input { name: name.to_string(), hi: width - 1, lo: 0 });
    }
    let ev = Evaluator { fp };
    ev.run_block(&program.stmts, &mut env)?;
    let dst = env.regs.get("dst").ok_or_else(|| BvError("program never assigned dst".into()))?;
    if dst.width() != dst_bits {
        return Err(BvError(format!("dst is {} bits, expected {dst_bits}", dst.width())));
    }
    Ok(dst.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::{eval_concrete, BigBits};
    use crate::lang::parse_program;

    fn run_concrete(
        src: &str,
        inputs: &[(&str, u32)],
        dst_bits: u32,
        fp: FpMode,
        bindings: &[(&str, BigBits)],
    ) -> BigBits {
        let p = parse_program(src).unwrap();
        let formula = eval_program(&p, inputs, dst_bits, fp).unwrap();
        eval_concrete(&formula, bindings).unwrap()
    }

    #[test]
    fn simple_simd_add() {
        let src = r#"
            FOR j := 0 to 3
                i := j*32
                dst[i+31:i] := a[i+31:i] + b[i+31:i]
            ENDFOR
        "#;
        let a = BigBits::from_elems(32, &[1, 2, 3, 4]);
        let b = BigBits::from_elems(32, &[10, 20, 30, 40]);
        let out =
            run_concrete(src, &[("a", 128), ("b", 128)], 128, FpMode::Int, &[("a", a), ("b", b)]);
        assert_eq!(out.to_elems(32), vec![11, 22, 33, 44]);
    }

    #[test]
    fn pmaddwd_semantics() {
        let src = r#"
            FOR j := 0 to 1
                i := j*32
                dst[i+31:i] := SignExtend32(a[i+31:i+16]*b[i+31:i+16]) +
                               SignExtend32(a[i+15:i]*b[i+15:i])
            ENDFOR
        "#;
        let enc = |v: i64| (v as u64) & 0xffff;
        let a = BigBits::from_elems(16, &[enc(3), enc(-4), enc(5), enc(6)]);
        let b = BigBits::from_elems(16, &[enc(10), enc(100), enc(-1), enc(2)]);
        let out =
            run_concrete(src, &[("a", 64), ("b", 64)], 64, FpMode::Int, &[("a", a), ("b", b)]);
        let lanes = out.to_elems(32);
        assert_eq!(vegen_ir::constant::sext(lanes[0], 32), 3 * 10 + (-4) * 100);
        assert_eq!(vegen_ir::constant::sext(lanes[1], 32), -5 + 6 * 2);
    }

    #[test]
    fn note_pmaddwd_widens_inside_mul() {
        // Intel's doc multiplies 16-bit values then sign-extends the 32-bit
        // product: a[i+31:i+16]*b[...] is a 16x16 multiply whose result the
        // doc treats as 32-bit. Our language is strict: the multiply is
        // 16-bit, so SignExtend32 of it loses the high product bits. The DB
        // therefore writes the widening explicitly — this test pins the
        // strict behaviour so the DB convention stays necessary.
        let src = r#"
            dst[31:0] := SignExtend32(a[15:0]) * SignExtend32(b[15:0])
        "#;
        let enc = |v: i64| (v as u64) & 0xffff;
        let a = BigBits::from_elems(16, &[enc(-300)]);
        let b = BigBits::from_elems(16, &[enc(300)]);
        let out =
            run_concrete(src, &[("a", 16), ("b", 16)], 32, FpMode::Int, &[("a", a), ("b", b)]);
        assert_eq!(vegen_ir::constant::sext(out.to_u64(), 32), -90000);
    }

    #[test]
    fn float_mode_addsub() {
        let src = r#"
            dst[63:0] := a[63:0] - b[63:0]
            dst[127:64] := a[127:64] + b[127:64]
        "#;
        let a = BigBits::from_elems(64, &[1.5f64.to_bits(), 2.0f64.to_bits()]);
        let b = BigBits::from_elems(64, &[0.25f64.to_bits(), 0.5f64.to_bits()]);
        let out =
            run_concrete(src, &[("a", 128), ("b", 128)], 128, FpMode::Float, &[("a", a), ("b", b)]);
        let lanes = out.to_elems(64);
        assert_eq!(f64::from_bits(lanes[0]), 1.25);
        assert_eq!(f64::from_bits(lanes[1]), 2.5);
    }

    #[test]
    fn saturate16_clamps() {
        let src = r#"
            dst[15:0] := Saturate16(SignExtend32(a[15:0]) + SignExtend32(b[15:0]))
        "#;
        let run = |x: i64, y: i64| -> i64 {
            let a = BigBits::from_u64(16, (x as u64) & 0xffff);
            let b = BigBits::from_u64(16, (y as u64) & 0xffff);
            let out =
                run_concrete(src, &[("a", 16), ("b", 16)], 16, FpMode::Int, &[("a", a), ("b", b)]);
            vegen_ir::constant::sext(out.to_u64(), 16)
        };
        assert_eq!(run(30000, 10000), 32767);
        assert_eq!(run(-30000, -10000), -32768);
        assert_eq!(run(100, 200), 300);
    }

    #[test]
    fn saturate_unsigned_is_signed_clamp() {
        // The psubus trap from §6.1: unsigned subtract saturates as signed —
        // a negative difference clamps to 0.
        let src = r#"
            dst[7:0] := SaturateU8(ZeroExtend16(a[7:0]) - ZeroExtend16(b[7:0]))
        "#;
        let run = |x: u64, y: u64| -> u64 {
            let a = BigBits::from_u64(8, x);
            let b = BigBits::from_u64(8, y);
            run_concrete(src, &[("a", 8), ("b", 8)], 8, FpMode::Int, &[("a", a), ("b", b)]).to_u64()
        };
        assert_eq!(run(10, 3), 7);
        assert_eq!(run(3, 10), 0, "negative difference saturates to zero");
        assert_eq!(run(255, 0), 255);
    }

    #[test]
    fn symbolic_if_becomes_ite() {
        let src = r#"
            IF a[0] == 1
                dst[7:0] := b[7:0]
            ELSE
                dst[7:0] := b[15:8]
            FI
        "#;
        let run = |abit: u64| -> u64 {
            let a = BigBits::from_u64(8, abit);
            let b = BigBits::from_u64(16, 0xbbaa);
            run_concrete(src, &[("a", 8), ("b", 16)], 8, FpMode::Int, &[("a", a), ("b", b)])
                .to_u64()
        };
        assert_eq!(run(1), 0xaa);
        assert_eq!(run(0), 0xbb);
    }

    #[test]
    fn partial_update_keeps_other_bits() {
        let src = r#"
            dst[15:0] := a[15:0]
            dst[7:0] := 0
        "#;
        let a = BigBits::from_u64(16, 0xabcd);
        let out = run_concrete(src, &[("a", 16)], 16, FpMode::Int, &[("a", a)]);
        assert_eq!(out.to_u64(), 0xab00);
    }

    #[test]
    fn min_max_abs_helpers() {
        let src = r#"
            dst[7:0] := MIN(a[7:0], b[7:0])
            dst[15:8] := MAX(a[7:0], b[7:0])
            dst[23:16] := ABS(a[7:0])
        "#;
        let enc = |v: i64| (v as u64) & 0xff;
        let a = BigBits::from_u64(8, enc(-5));
        let b = BigBits::from_u64(8, enc(3));
        let out = run_concrete(src, &[("a", 8), ("b", 8)], 24, FpMode::Int, &[("a", a), ("b", b)]);
        let lanes = out.to_elems(8);
        assert_eq!(vegen_ir::constant::sext(lanes[0], 8), -5);
        assert_eq!(vegen_ir::constant::sext(lanes[1], 8), 3);
        assert_eq!(lanes[2], 5);
    }

    #[test]
    fn wrong_dst_width_is_error() {
        let p = parse_program("dst[7:0] := a[7:0]").unwrap();
        assert!(eval_program(&p, &[("a", 8)], 16, FpMode::Int).is_err());
    }

    #[test]
    fn scalar_divergence_under_symbolic_if_rejected() {
        let src = r#"
            IF a[0] == 1
                k := 1
            ELSE
                k := 2
            FI
            dst[7:0] := a[7:0]
        "#;
        let p = parse_program(src).unwrap();
        assert!(eval_program(&p, &[("a", 8)], 8, FpMode::Int).is_err());
    }

    #[test]
    fn unsigned_min_helper() {
        let src = "dst[7:0] := MINU(a[7:0], b[7:0])";
        let a = BigBits::from_u64(8, 0xff); // 255 unsigned
        let b = BigBits::from_u64(8, 1);
        let out = run_concrete(src, &[("a", 8), ("b", 8)], 8, FpMode::Int, &[("a", a), ("b", b)]);
        assert_eq!(out.to_u64(), 1);
    }
}
