//! The 21 instruction-selection tests of Fig. 10, in scalar form.
//!
//! §7.1: "We translated the test cases (written in LLVM IR) to their
//! equivalent scalar version by expanding IR vector instructions into
//! multiple scalar instructions and by converting vector function
//! arguments to non-aliased pointer arguments." Each test covers one
//! 128-bit register's worth of lanes.

use crate::{Kernel, Suite};
use vegen_ir::{CmpPred, Function, FunctionBuilder, Type};

/// Fig. 10's test list.
pub fn kernels() -> Vec<Kernel> {
    use Suite::{IselNonSimd, IselVectorizable};
    vec![
        Kernel { name: "max_pd", suite: IselVectorizable, build: max_pd },
        Kernel { name: "min_pd", suite: IselVectorizable, build: min_pd },
        Kernel { name: "max_ps", suite: IselVectorizable, build: max_ps },
        Kernel { name: "min_ps", suite: IselVectorizable, build: min_ps },
        Kernel { name: "mul_addsub_pd", suite: IselVectorizable, build: mul_addsub_pd },
        Kernel { name: "mul_addsub_ps", suite: IselVectorizable, build: mul_addsub_ps },
        Kernel { name: "abs_pd", suite: IselVectorizable, build: abs_pd },
        Kernel { name: "abs_ps", suite: IselVectorizable, build: abs_ps },
        Kernel { name: "abs_i8", suite: IselVectorizable, build: abs_i8 },
        Kernel { name: "abs_i16", suite: IselVectorizable, build: abs_i16 },
        Kernel { name: "abs_i32", suite: IselVectorizable, build: abs_i32 },
        Kernel { name: "hadd_pd", suite: IselNonSimd, build: hadd_pd },
        Kernel { name: "hadd_ps", suite: IselNonSimd, build: hadd_ps },
        Kernel { name: "hsub_pd", suite: IselNonSimd, build: hsub_pd },
        Kernel { name: "hsub_ps", suite: IselNonSimd, build: hsub_ps },
        Kernel { name: "hadd_i16", suite: IselNonSimd, build: hadd_i16 },
        Kernel { name: "hsub_i16", suite: IselNonSimd, build: hsub_i16 },
        Kernel { name: "hadd_i32", suite: IselNonSimd, build: hadd_i32 },
        Kernel { name: "hsub_i32", suite: IselNonSimd, build: hsub_i32 },
        Kernel { name: "pmaddubs", suite: IselNonSimd, build: pmaddubs },
        Kernel { name: "pmaddwd", suite: IselNonSimd, build: pmaddwd },
    ]
}

/// `out[i] = max(a[i], b[i])` / min, float flavours.
fn fminmax(name: &str, ty: Type, lanes: i64, pred: CmpPred) -> Function {
    let mut b = FunctionBuilder::new(name);
    let a = b.param("a", ty, lanes as usize);
    let bb = b.param("b", ty, lanes as usize);
    let o = b.param("out", ty, lanes as usize);
    for i in 0..lanes {
        let x = b.load(a, i);
        let y = b.load(bb, i);
        let c = b.cmp(pred, x, y);
        let s = b.select(c, x, y);
        b.store(o, i, s);
    }
    b.finish()
}

fn max_pd() -> Function {
    fminmax("max_pd", Type::F64, 2, CmpPred::Fgt)
}
fn min_pd() -> Function {
    fminmax("min_pd", Type::F64, 2, CmpPred::Flt)
}
fn max_ps() -> Function {
    fminmax("max_ps", Type::F32, 4, CmpPred::Fgt)
}
fn min_ps() -> Function {
    fminmax("min_ps", Type::F32, 4, CmpPred::Flt)
}

/// `out[i] = a*b -/+ c` with subtraction on even lanes (fmaddsub).
fn mul_addsub(name: &str, ty: Type, lanes: i64) -> Function {
    let mut b = FunctionBuilder::new(name);
    let a = b.param("a", ty, lanes as usize);
    let bb = b.param("b", ty, lanes as usize);
    let c = b.param("c", ty, lanes as usize);
    let o = b.param("out", ty, lanes as usize);
    for i in 0..lanes {
        let x = b.load(a, i);
        let y = b.load(bb, i);
        let z = b.load(c, i);
        let m = b.fmul(x, y);
        let s = if i % 2 == 0 { b.fsub(m, z) } else { b.fadd(m, z) };
        b.store(o, i, s);
    }
    b.finish()
}

fn mul_addsub_pd() -> Function {
    mul_addsub("mul_addsub_pd", Type::F64, 2)
}
fn mul_addsub_ps() -> Function {
    mul_addsub("mul_addsub_ps", Type::F32, 4)
}

/// Float absolute value via compare-and-negate — the two tests VeGen loses
/// (§7.1): LLVM vectorizes this isomorphic tree and later uses the
/// sign-mask trick, while VeGen has no instruction whose *semantics* are
/// this pattern.
fn fabs_kernel(name: &str, ty: Type, lanes: i64) -> Function {
    let mut b = FunctionBuilder::new(name);
    let a = b.param("a", ty, lanes as usize);
    let o = b.param("out", ty, lanes as usize);
    for i in 0..lanes {
        let x = b.load(a, i);
        let zero = if ty == Type::F32 { b.f32const(0.0) } else { b.f64const(0.0) };
        let c = b.cmp(CmpPred::Flt, x, zero);
        let n = b.fneg(x);
        let s = b.select(c, n, x);
        b.store(o, i, s);
    }
    b.finish()
}

fn abs_pd() -> Function {
    fabs_kernel("abs_pd", Type::F64, 2)
}
fn abs_ps() -> Function {
    fabs_kernel("abs_ps", Type::F32, 4)
}

/// Integer absolute value: `select(x < 0, 0 - x, x)` — matches `pabs*`.
fn iabs_kernel(name: &str, ty: Type, lanes: i64) -> Function {
    let mut b = FunctionBuilder::new(name);
    let a = b.param("a", ty, lanes as usize);
    let o = b.param("out", ty, lanes as usize);
    for i in 0..lanes {
        let x = b.load(a, i);
        let zero = b.iconst(ty, 0);
        let c = b.cmp(CmpPred::Slt, x, zero);
        let n = b.sub(zero, x);
        let s = b.select(c, n, x);
        b.store(o, i, s);
    }
    b.finish()
}

fn abs_i8() -> Function {
    iabs_kernel("abs_i8", Type::I8, 16)
}
fn abs_i16() -> Function {
    iabs_kernel("abs_i16", Type::I16, 8)
}
fn abs_i32() -> Function {
    iabs_kernel("abs_i32", Type::I32, 4)
}

/// Horizontal add/sub: `out[i] = a[2i] op a[2i+1]` for the low half, then
/// the same over `b` — exactly the `hadd`/`hsub` lane pattern (Fig. 1(c)).
fn horizontal(name: &str, ty: Type, pairs_per_input: i64, float: bool, sub: bool) -> Function {
    let mut b = FunctionBuilder::new(name);
    let lanes_in = pairs_per_input * 2;
    let a = b.param("a", ty, lanes_in as usize);
    let bb = b.param("b", ty, lanes_in as usize);
    let o = b.param("out", ty, (pairs_per_input * 2) as usize);
    for (slot, reg) in [(0, a), (1, bb)] {
        for p in 0..pairs_per_input {
            let lo = b.load(reg, 2 * p);
            let hi = b.load(reg, 2 * p + 1);
            let r = match (float, sub) {
                (true, false) => b.fadd(hi, lo),
                (true, true) => b.fsub(lo, hi),
                (false, false) => b.add(hi, lo),
                (false, true) => b.sub(lo, hi),
            };
            b.store(o, slot * pairs_per_input + p, r);
        }
    }
    b.finish()
}

fn hadd_pd() -> Function {
    horizontal("hadd_pd", Type::F64, 1, true, false)
}
fn hadd_ps() -> Function {
    horizontal("hadd_ps", Type::F32, 2, true, false)
}
fn hsub_pd() -> Function {
    horizontal("hsub_pd", Type::F64, 1, true, true)
}
fn hsub_ps() -> Function {
    horizontal("hsub_ps", Type::F32, 2, true, true)
}
fn hadd_i16() -> Function {
    horizontal("hadd_i16", Type::I16, 4, false, false)
}
fn hsub_i16() -> Function {
    horizontal("hsub_i16", Type::I16, 4, false, true)
}
fn hadd_i32() -> Function {
    horizontal("hadd_i32", Type::I32, 2, false, false)
}
fn hsub_i32() -> Function {
    horizontal("hsub_i32", Type::I32, 2, false, true)
}

/// The pmaddwd shape: widening multiply of adjacent i16 pairs, summed.
fn pmaddwd() -> Function {
    let mut b = FunctionBuilder::new("pmaddwd");
    let a = b.param("a", Type::I16, 8);
    let bb = b.param("b", Type::I16, 8);
    let o = b.param("out", Type::I32, 4);
    for i in 0..4i64 {
        let mut terms = Vec::new();
        for k in 0..2i64 {
            let x = b.load(a, 2 * i + k);
            let y = b.load(bb, 2 * i + k);
            let xw = b.sext(x, Type::I32);
            let yw = b.sext(y, Type::I32);
            terms.push(b.mul(xw, yw));
        }
        let s = b.add(terms[0], terms[1]);
        b.store(o, i, s);
    }
    b.finish()
}

/// The pmaddubsw shape: unsigned×signed byte pairs, summed and saturated
/// to i16 — the biggest single speedup in Fig. 10 (16.8x), because the
/// scalar form needs a compare/select clamp per lane.
fn pmaddubs() -> Function {
    let mut b = FunctionBuilder::new("pmaddubs");
    let a = b.param("a", Type::I8, 16);
    let bb = b.param("b", Type::I8, 16);
    let o = b.param("out", Type::I16, 8);
    for i in 0..8i64 {
        let mut terms = Vec::new();
        for k in 0..2i64 {
            let x = b.load(a, 2 * i + k);
            let y = b.load(bb, 2 * i + k);
            let xw = b.zext(x, Type::I32); // data bytes are unsigned
            let yw = b.sext(y, Type::I32); // coefficient bytes are signed
            terms.push(b.mul(xw, yw));
        }
        let s = b.add(terms[0], terms[1]);
        let clamped = b.clamp(s, i16::MIN as i64, i16::MAX as i64);
        let n = b.trunc(clamped, Type::I16);
        b.store(o, i, n);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::interp::{run, Memory};
    use vegen_ir::Constant;

    #[test]
    fn hadd_pd_semantics() {
        let f = hadd_pd();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f64(1.0)).unwrap();
        mem.write(0, 1, Constant::f64(2.0)).unwrap();
        mem.write(1, 0, Constant::f64(10.0)).unwrap();
        mem.write(1, 1, Constant::f64(20.0)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_f64(), 3.0);
        assert_eq!(mem.read(2, 1).unwrap().as_f64(), 30.0);
    }

    #[test]
    fn hsub_direction_matches_x86() {
        // hsubpd: dst[0] = a[0] - a[1].
        let f = hsub_pd();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f64(5.0)).unwrap();
        mem.write(0, 1, Constant::f64(2.0)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_f64(), 3.0);
    }

    #[test]
    fn pmaddubs_clamps() {
        let f = pmaddubs();
        let mut mem = Memory::zeroed(&f);
        // 255 * 127 * 2 = 64770 > 32767: saturates.
        for k in 0..2 {
            mem.write(0, k, Constant::int(Type::I8, -1)).unwrap(); // 0xff = 255 unsigned
            mem.write(1, k, Constant::int(Type::I8, 127)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), 32767);
    }

    #[test]
    fn abs_i32_semantics() {
        let f = abs_i32();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I32, -7)).unwrap();
        mem.write(0, 1, Constant::int(Type::I32, 7)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(1, 0).unwrap().as_i64(), 7);
        assert_eq!(mem.read(1, 1).unwrap().as_i64(), 7);
    }

    #[test]
    fn minmax_semantics() {
        let f = max_pd();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f64(1.5)).unwrap();
        mem.write(1, 0, Constant::f64(-2.0)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_f64(), 1.5);
    }
}
