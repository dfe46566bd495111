//! Reference interpreter: the executable semantics of the scalar IR.
//!
//! The interpreter is the ground truth every vectorization is validated
//! against (scalar run vs. vector-program run on the same memory image).
//! Its scalar evaluation helpers ([`eval_bin`], [`eval_fneg`], [`eval_cmp`],
//! [`eval_cast`]) are shared with the VIDL evaluator and the vector VM so all
//! three layers agree bit-for-bit on arithmetic.

use crate::constant::{mask, sext, Constant};
use crate::function::Function;
use crate::inst::{BinOp, CastOp, CmpPred, Inst, InstKind};
use crate::rng::XorShift;
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A memory image: one buffer of constants per function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    bufs: Vec<Vec<Constant>>,
}

impl Memory {
    /// Allocate zero-filled buffers matching `f`'s parameters.
    pub fn zeroed(f: &Function) -> Memory {
        Memory { bufs: f.params.iter().map(|p| vec![Constant::zero(p.elem_ty); p.len]).collect() }
    }

    /// Allocate buffers filled by `fill(param_index, elem_index)`.
    pub fn from_fn(f: &Function, mut fill: impl FnMut(usize, usize) -> Constant) -> Memory {
        Memory {
            bufs: f
                .params
                .iter()
                .enumerate()
                .map(|(pi, p)| (0..p.len).map(|ei| fill(pi, ei)).collect())
                .collect(),
        }
    }

    /// Read element `offset` of buffer `base`.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no such buffer or element.
    pub fn read(&self, base: usize, offset: i64) -> Result<Constant, EvalError> {
        let i = self.index(base, offset)?;
        Ok(self.bufs[base][i])
    }

    /// Write element `offset` of buffer `base`.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no such buffer or element.
    pub fn write(&mut self, base: usize, offset: i64, v: Constant) -> Result<(), EvalError> {
        let i = self.index(base, offset)?;
        self.bufs[base][i] = v;
        Ok(())
    }

    /// `offset` as an index into buffer `base`, if both exist.
    fn index(&self, base: usize, offset: i64) -> Result<usize, EvalError> {
        let Some(buf) = self.bufs.get(base) else {
            return Err(EvalError(format!("buffer {base} out of range of {}", self.bufs.len())));
        };
        match usize::try_from(offset) {
            Ok(i) if i < buf.len() => Ok(i),
            _ => Err(EvalError(format!(
                "element {offset} out of range of buffer {base} ({} elements)",
                buf.len()
            ))),
        }
    }

    /// Borrow a whole buffer.
    pub fn buffer(&self, base: usize) -> &[Constant] {
        &self.bufs[base]
    }

    /// Number of buffers.
    pub fn buffer_count(&self) -> usize {
        self.bufs.len()
    }
}

/// An evaluation failure: division by zero (the only trap of well-typed
/// code), an operand of the wrong type or shape, or a memory access out of
/// bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl Error for EvalError {}

/// Evaluate a binary op on two constants of the same type.
///
/// # Errors
///
/// Returns an error on integer division/remainder by zero, on operands of
/// different types, and on an opcode applied to the wrong type class.
pub fn eval_bin(op: BinOp, a: Constant, b: Constant) -> Result<Constant, EvalError> {
    let ty = a.ty();
    if ty != b.ty() {
        return Err(EvalError(format!("{} of {ty} and {}", op.name(), b.ty())));
    }
    if op.is_float() {
        let r64 = |x: f64, y: f64| -> f64 {
            match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!(),
            }
        };
        return Ok(match ty {
            Type::F32 => Constant::f32(r64(a.as_f32() as f64, b.as_f32() as f64) as f32),
            Type::F64 => Constant::f64(r64(a.as_f64(), b.as_f64())),
            _ => return Err(EvalError(format!("float op {op:?} on {ty}"))),
        });
    }
    if !ty.is_int() {
        return Err(EvalError(format!("int op {op:?} on {ty}")));
    }
    let bits = ty.bits();
    let ua = a.as_u64();
    let ub = b.as_u64();
    let sa = a.as_i64();
    let sb = b.as_i64();
    let out_u = |v: u64| Constant::int(ty, sext(v & mask(bits), bits));
    let r = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::SDiv => {
            if sb == 0 {
                return Err(EvalError("sdiv by zero".into()));
            }
            sa.wrapping_div(sb) as u64
        }
        BinOp::UDiv => {
            if ub == 0 {
                return Err(EvalError("udiv by zero".into()));
            }
            ua / ub
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(EvalError("srem by zero".into()));
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(EvalError("urem by zero".into()));
            }
            ua % ub
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        BinOp::Shl => {
            if ub >= bits as u64 {
                0
            } else {
                ua << ub
            }
        }
        BinOp::LShr => {
            if ub >= bits as u64 {
                0
            } else {
                (ua & mask(bits)) >> ub
            }
        }
        BinOp::AShr => {
            if ub >= bits as u64 {
                if sa < 0 {
                    u64::MAX
                } else {
                    0
                }
            } else {
                (sa >> ub) as u64
            }
        }
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => unreachable!(),
    };
    Ok(out_u(r))
}

/// Negate a float constant.
///
/// # Errors
///
/// Returns an error if `a` is not a float.
pub fn eval_fneg(a: Constant) -> Result<Constant, EvalError> {
    match a.ty() {
        Type::F32 => Ok(Constant::f32(-a.as_f32())),
        Type::F64 => Ok(Constant::f64(-a.as_f64())),
        ty => Err(EvalError(format!("fneg of {ty}"))),
    }
}

/// Evaluate a comparison, producing an `i1` constant.
///
/// # Errors
///
/// Returns an error on operands of different types, or of a type class
/// (integer, float) the predicate does not compare.
pub fn eval_cmp(pred: CmpPred, a: Constant, b: Constant) -> Result<Constant, EvalError> {
    use CmpPred::*;
    let ty = a.ty();
    if ty != b.ty() || pred.is_float() != ty.is_float() || !(ty.is_int() || ty.is_float()) {
        return Err(EvalError(format!("{} of {ty} and {}", pred.name(), b.ty())));
    }
    let r = if pred.is_float() {
        let (x, y) = match ty {
            Type::F32 => (a.as_f32() as f64, b.as_f32() as f64),
            _ => (a.as_f64(), b.as_f64()),
        };
        match pred {
            Feq => x == y,
            Fne => x != y,
            Flt => x < y,
            Fle => x <= y,
            Fgt => x > y,
            Fge => x >= y,
            _ => unreachable!(),
        }
    } else {
        match pred {
            Eq => a.as_u64() == b.as_u64(),
            Ne => a.as_u64() != b.as_u64(),
            Slt => a.as_i64() < b.as_i64(),
            Sle => a.as_i64() <= b.as_i64(),
            Sgt => a.as_i64() > b.as_i64(),
            Sge => a.as_i64() >= b.as_i64(),
            Ult => a.as_u64() < b.as_u64(),
            Ule => a.as_u64() <= b.as_u64(),
            Ugt => a.as_u64() > b.as_u64(),
            Uge => a.as_u64() >= b.as_u64(),
            _ => unreachable!(),
        }
    };
    Ok(Constant::bool(r))
}

/// Evaluate a cast of `a` to `to`.
///
/// # Errors
///
/// Returns an error when the cast does not convert `a`'s type to `to`
/// ([`CastOp::fits`]: a `sext` of a float, an `fpext` of an `f64`).
pub fn eval_cast(op: CastOp, a: Constant, to: Type) -> Result<Constant, EvalError> {
    let from = a.ty();
    if !op.fits(from, to) {
        return Err(EvalError(format!("{} from {from} to {to}", op.name())));
    }
    Ok(match op {
        CastOp::SExt => Constant::int(to, a.as_i64()),
        CastOp::ZExt | CastOp::Trunc => Constant::int(to, a.as_u64() as i64),
        CastOp::FPExt => Constant::f64(a.as_f32() as f64),
        CastOp::FPTrunc => Constant::f32(a.as_f64() as f32),
        CastOp::SIToFP => {
            let v = a.as_i64();
            match to {
                Type::F32 => Constant::f32(v as f32),
                _ => Constant::f64(v as f64),
            }
        }
        CastOp::UIToFP => {
            let v = a.as_u64();
            match to {
                Type::F32 => Constant::f32(v as f32),
                _ => Constant::f64(v as f64),
            }
        }
        CastOp::FPToSI => {
            let v = match from {
                Type::F32 => a.as_f32() as f64,
                _ => a.as_f64(),
            };
            // Clamp (total semantics); NaN maps to 0 like Rust's `as`.
            let bits = to.bits();
            let max = sext(mask(bits) >> 1, bits);
            let min = -max - 1;
            let clamped = if v.is_nan() {
                0
            } else if v >= max as f64 {
                max
            } else if v <= min as f64 {
                min
            } else {
                v as i64
            };
            Constant::int(to, clamped)
        }
    })
}

/// Execute one scalar instruction, reading each operand through `get`
/// (a `select` reads its condition, then only the arm it picks): the
/// scalar semantics [`run`] and the vector VM both step through. A store
/// writes `mem` and yields a placeholder `false`.
///
/// # Errors
///
/// Returns the first error of `get`, and an error on division by zero, on
/// ill-typed operands (see [`eval_bin`], [`eval_fneg`], [`eval_cmp`],
/// [`eval_cast`]; a `select` needs an `i1` condition) and on a memory
/// access out of bounds.
#[inline]
pub fn step<V: Copy>(
    inst: &Inst<V>,
    mut get: impl FnMut(V) -> Result<Constant, EvalError>,
    mem: &mut Memory,
) -> Result<Constant, EvalError> {
    Ok(match inst.kind {
        InstKind::Const(c) => c,
        InstKind::Bin { op, lhs, rhs } => eval_bin(op, get(lhs)?, get(rhs)?)?,
        InstKind::FNeg { arg } => eval_fneg(get(arg)?)?,
        InstKind::Cast { op, arg } => eval_cast(op, get(arg)?, inst.ty)?,
        InstKind::Cmp { pred, lhs, rhs } => eval_cmp(pred, get(lhs)?, get(rhs)?)?,
        InstKind::Select { cond, on_true, on_false } => {
            let cond = get(cond)?;
            if cond.ty() != Type::I1 {
                return Err(EvalError(format!("select on a {} condition", cond.ty())));
            }
            get(if cond.as_bool() { on_true } else { on_false })?
        }
        InstKind::Load { loc } => mem.read(loc.base, loc.offset)?,
        InstKind::Store { loc, value } => {
            mem.write(loc.base, loc.offset, get(value)?)?;
            Constant::bool(false)
        }
    })
}

/// Run `f` on `mem`, mutating it through stores, and return every
/// instruction's value (stores yield a placeholder `false`).
///
/// # Errors
///
/// Returns an error on division by zero, an ill-typed instruction or a
/// memory access out of bounds.
pub fn run(f: &Function, mem: &mut Memory) -> Result<Vec<Constant>, EvalError> {
    let mut vals: Vec<Constant> = Vec::with_capacity(f.insts.len());
    for (_, inst) in f.iter() {
        let out = step(inst, |v| Ok(vals[v.index()]), mem)?;
        vals.push(out);
    }
    Ok(vals)
}

/// Fill a memory image with deterministic pseudo-random values derived from
/// `seed` (used by equivalence tests and validation harnesses).
pub fn random_memory(f: &Function, seed: u64) -> Memory {
    let mut rng = XorShift::new(seed);
    Memory::from_fn(f, |pi, _| {
        let r = rng.next_u64();
        match f.params[pi].elem_ty {
            // Small-magnitude floats keep fast-math style reassociation
            // differences out of the comparison.
            Type::F32 => Constant::f32(((r % 2048) as f32 - 1024.0) / 64.0),
            Type::F64 => Constant::f64(((r % 2048) as f64 - 1024.0) / 64.0),
            ty => Constant::int(ty, sext(r, ty.bits())),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn runs_dot_product() {
        let mut b = FunctionBuilder::new("dot");
        let a = b.param("A", Type::I16, 2);
        let bb = b.param("B", Type::I16, 2);
        let c = b.param("C", Type::I32, 1);
        let a0 = b.load(a, 0);
        let b0 = b.load(bb, 0);
        let a1 = b.load(a, 1);
        let b1 = b.load(bb, 1);
        let a0w = b.sext(a0, Type::I32);
        let b0w = b.sext(b0, Type::I32);
        let a1w = b.sext(a1, Type::I32);
        let b1w = b.sext(b1, Type::I32);
        let m0 = b.mul(a0w, b0w);
        let m1 = b.mul(a1w, b1w);
        let s = b.add(m0, m1);
        b.store(c, 0, s);
        let f = b.finish();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I16, 3)).unwrap();
        mem.write(0, 1, Constant::int(Type::I16, -4)).unwrap();
        mem.write(1, 0, Constant::int(Type::I16, 10)).unwrap();
        mem.write(1, 1, Constant::int(Type::I16, 100)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), 3 * 10 + (-4) * 100);
    }

    /// A load or store past its buffer is an error, as is one to a buffer
    /// the image does not have; each panicked before.
    #[test]
    fn out_of_bounds_accesses_are_errors() {
        let mut b = FunctionBuilder::new("oob");
        let a = b.param("A", Type::I16, 2);
        let x = b.load(a, 5);
        b.store(a, 0, x);
        let f = b.finish();
        let mut mem = Memory::zeroed(&f);
        assert!(run(&f, &mut mem).is_err(), "load of A[5]");

        let mut b = FunctionBuilder::new("oob_store");
        let a = b.param("A", Type::I16, 2);
        let x = b.load(a, 0);
        b.store(a, 2, x);
        let f = b.finish();
        assert!(run(&f, &mut mem).is_err(), "store to A[2]");
        assert_eq!(mem, Memory::zeroed(&f));

        assert!(mem.read(0, -1).is_err() && mem.read(1, 0).is_err());
        assert!(mem.write(1, 0, Constant::int(Type::I16, 1)).is_err());
    }

    #[test]
    fn wrapping_semantics() {
        let a = Constant::int(Type::I8, 127);
        let b = Constant::int(Type::I8, 1);
        assert_eq!(eval_bin(BinOp::Add, a, b).unwrap().as_i64(), -128);
        let a = Constant::int(Type::I16, i16::MIN as i64);
        let b = Constant::int(Type::I16, -1);
        assert_eq!(eval_bin(BinOp::Mul, a, b).unwrap().as_i64(), i16::MIN as i64);
    }

    #[test]
    fn division_traps_on_zero() {
        let a = Constant::int(Type::I32, 5);
        let z = Constant::int(Type::I32, 0);
        assert!(eval_bin(BinOp::SDiv, a, z).is_err());
        assert!(eval_bin(BinOp::UDiv, a, z).is_err());
        assert!(eval_bin(BinOp::SRem, a, z).is_err());
    }

    #[test]
    fn shifts_out_of_range_are_zero() {
        let a = Constant::int(Type::I8, -1);
        let b = Constant::int(Type::I8, 9);
        assert_eq!(eval_bin(BinOp::Shl, a, b).unwrap().as_i64(), 0);
        assert_eq!(eval_bin(BinOp::LShr, a, b).unwrap().as_i64(), 0);
        // ashr saturates to the sign bit
        assert_eq!(eval_bin(BinOp::AShr, a, b).unwrap().as_i64(), -1);
    }

    #[test]
    fn casts() {
        let x = Constant::int(Type::I8, -1);
        let cast = |op, c, to| eval_cast(op, c, to).unwrap().as_i64();
        assert_eq!(cast(CastOp::SExt, x, Type::I32), -1);
        assert_eq!(cast(CastOp::ZExt, x, Type::I32), 255);
        let y = Constant::int(Type::I32, 0x1_ff);
        assert_eq!(cast(CastOp::Trunc, y, Type::I8), -1);
        let f = Constant::f64(1e30);
        assert_eq!(cast(CastOp::FPToSI, f, Type::I32), i32::MAX as i64);
        let nan = Constant::f64(f64::NAN);
        assert_eq!(cast(CastOp::FPToSI, nan, Type::I32), 0);
    }

    #[test]
    fn unsigned_comparisons() {
        let a = Constant::int(Type::I8, -1); // 0xff
        let b = Constant::int(Type::I8, 1);
        assert!(eval_cmp(CmpPred::Ugt, a, b).unwrap().as_bool());
        assert!(eval_cmp(CmpPred::Slt, a, b).unwrap().as_bool());
    }

    /// Three instructions the verifier rejects, each over two constants:
    /// an integer `add` of `f32`s, a float compare of `i32`s and an
    /// `fpext` of an `i32`. `run` returns an error for each; it panicked
    /// in `Constant`'s accessors before.
    fn ill_typed() -> Vec<Function> {
        let kinds = [
            (Constant::f32(1.5), InstKind::Bin { op: BinOp::Add, lhs: 0, rhs: 1 }, Type::F32),
            (
                Constant::int(Type::I32, 3),
                InstKind::Cmp { pred: CmpPred::Flt, lhs: 0, rhs: 1 },
                Type::I1,
            ),
            (Constant::int(Type::I32, 3), InstKind::Cast { op: CastOp::FPExt, arg: 0 }, Type::F64),
        ];
        kinds
            .into_iter()
            .map(|(c, kind, ty)| {
                let mut f = Function::new("ill_typed");
                let ids = [
                    f.push(Inst { kind: InstKind::Const(c), ty: c.ty() }),
                    f.push(Inst { kind: InstKind::Const(c), ty: c.ty() }),
                ];
                f.push(Inst { kind, ty }.map(|i: usize| ids[i]));
                f
            })
            .collect()
    }

    #[test]
    fn ill_typed_instructions_are_errors() {
        for f in ill_typed() {
            let mut mem = Memory::zeroed(&f);
            let err = run(&f, &mut mem).expect_err("an ill-typed instruction must not evaluate");
            assert!(!err.0.is_empty());
        }
    }

    #[test]
    fn random_memory_is_deterministic() {
        let mut b = FunctionBuilder::new("t");
        b.param("A", Type::I32, 8);
        b.param("F", Type::F64, 4);
        let f = b.finish();
        let m1 = random_memory(&f, 42);
        let m2 = random_memory(&f, 42);
        let m3 = random_memory(&f, 43);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn select_and_fneg() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::F64, 2);
        let o = b.param("O", Type::F64, 1);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let c = b.cmp(CmpPred::Flt, x, y);
        let n = b.fneg(y);
        let s = b.select(c, x, n);
        b.store(o, 0, s);
        let f = b.finish();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f64(5.0)).unwrap();
        mem.write(0, 1, Constant::f64(2.0)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(1, 0).unwrap().as_f64(), -2.0);
    }
}
