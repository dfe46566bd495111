//! OpenCV's fixed-size dot-product reference kernels (Fig. 13).
//!
//! §7.3: "OpenCV's reference implementation is a C++ template parameterized
//! with different data types and kernel sizes. These kernels are
//! challenging to auto-vectorize because they have interleaved memory
//! accesses as well as reduction." Each kernel widens, multiplies
//! elementwise, and reduces adjacent groups into an output array.

use crate::{Kernel, Suite};
use vegen_ir::{Function, FunctionBuilder, Type, ValueId};

/// Fig. 13's kernel list.
pub fn kernels() -> Vec<Kernel> {
    vec![
        Kernel { name: "int8x32", suite: Suite::OpenCv, build: int8x32 },
        Kernel { name: "uint8x32", suite: Suite::OpenCv, build: uint8x32 },
        Kernel { name: "int32x8", suite: Suite::OpenCv, build: int32x8 },
        Kernel { name: "int16x16", suite: Suite::OpenCv, build: int16x16 },
    ]
}

/// Shared shape: `out[i] = Σ_{k<group} widen(a[group*i+k]) * widen(b[...])`.
fn grouped_dot(
    name: &str,
    in_ty: Type,
    out_ty: Type,
    n: i64,
    group: i64,
    signed_a: bool,
    signed_b: bool,
) -> Function {
    let mut b = FunctionBuilder::new(name);
    let a = b.param("a", in_ty, n as usize);
    let bb = b.param("b", in_ty, n as usize);
    let o = b.param("out", out_ty, (n / group) as usize);
    for i in 0..n / group {
        let mut acc: Option<ValueId> = None;
        for k in 0..group {
            let x = b.load(a, group * i + k);
            let y = b.load(bb, group * i + k);
            let xw = if signed_a { b.sext(x, out_ty) } else { b.zext(x, out_ty) };
            let yw = if signed_b { b.sext(y, out_ty) } else { b.zext(y, out_ty) };
            let m = b.mul(xw, yw);
            acc = Some(match acc {
                None => m,
                Some(s) => b.add(s, m),
            });
        }
        b.store(o, i, acc.unwrap());
    }
    b.finish()
}

/// `int8 x 32`: signed bytes, groups of four into `i32`.
fn int8x32() -> Function {
    grouped_dot("int8x32", Type::I8, Type::I32, 32, 4, true, true)
}

/// `uint8 x 32`: unsigned data bytes against signed coefficient bytes,
/// groups of four into `i32` — the `vpdpbusd`-shaped variant.
fn uint8x32() -> Function {
    grouped_dot("uint8x32", Type::I8, Type::I32, 32, 4, false, true)
}

/// `int16 x 16`: adjacent pairs into `i32` — the `pmaddwd` shape.
fn int16x16() -> Function {
    grouped_dot("int16x16", Type::I16, Type::I32, 16, 2, true, true)
}

/// `int32 x 8`: §7.3's highlighted case (Fig. 14) — sign-extend to 64-bit,
/// multiply, reduce adjacent pairs. The profitable strategy multiplies odd
/// and even elements separately with `pmuldq`.
fn int32x8() -> Function {
    grouped_dot("int32x8", Type::I32, Type::I64, 8, 2, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::interp::{run, Memory};
    use vegen_ir::Constant;

    #[test]
    fn int16x16_semantics() {
        let f = int16x16();
        let mut mem = Memory::zeroed(&f);
        for i in 0..16 {
            mem.write(0, i, Constant::int(Type::I16, i + 1)).unwrap();
            mem.write(1, i, Constant::int(Type::I16, 2)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        // out[i] = 2*(2i+1) + 2*(2i+2)
        for i in 0..8 {
            assert_eq!(mem.read(2, i).unwrap().as_i64(), 2 * (2 * i + 1) + 2 * (2 * i + 2));
        }
    }

    #[test]
    fn int32x8_widens_to_64_bits() {
        let f = int32x8();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I32, i32::MAX as i64)).unwrap();
        mem.write(1, 0, Constant::int(Type::I32, i32::MAX as i64)).unwrap();
        run(&f, &mut mem).unwrap();
        // The product exceeds i32: must be computed at 64 bits.
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), (i32::MAX as i64) * (i32::MAX as i64));
    }

    #[test]
    fn uint8_is_unsigned_on_the_data_side() {
        let f = uint8x32();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I8, -1)).unwrap(); // 255 as unsigned data
        mem.write(1, 0, Constant::int(Type::I8, -1)).unwrap(); // -1 as signed coeff
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), -255);
        let g = int8x32();
        let mut mem = Memory::zeroed(&g);
        mem.write(0, 0, Constant::int(Type::I8, -1)).unwrap();
        mem.write(1, 0, Constant::int(Type::I8, -1)).unwrap();
        run(&g, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), 1, "int8 variant is signed x signed");
    }
}
