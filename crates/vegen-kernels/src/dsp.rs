//! The image/signal-processing kernels of Fig. 11: `idct4`/`idct8` ported
//! from x265's reference implementation, `fft4`/`fft8`/`sbc`/`chroma` in
//! the FFmpeg style.
//!
//! These are the paper's motivating workloads for non-SIMD instructions:
//! intermediate shuffles, widening constant multiply-adds (`pmaddwd`
//! shapes), partial horizontal reductions, and saturating narrowing
//! (`packssdw` shapes).

use crate::{Kernel, Suite};
use vegen_ir::builder::ParamId;
use vegen_ir::{Function, FunctionBuilder, Type, ValueId};

/// Fig. 11's kernel list.
pub fn kernels() -> Vec<Kernel> {
    vec![
        Kernel { name: "fft4", suite: Suite::Dsp, build: fft4 },
        Kernel { name: "fft8", suite: Suite::Dsp, build: fft8 },
        Kernel { name: "sbc", suite: Suite::Dsp, build: sbc },
        Kernel { name: "idct8", suite: Suite::Dsp, build: idct8 },
        Kernel { name: "idct4", suite: Suite::Dsp, build: idct4 },
        Kernel { name: "chroma", suite: Suite::Dsp, build: chroma },
    ]
}

/// 4-point complex FFT (radix-2, FFmpeg `fft4` butterflies). Input/output
/// are interleaved re/im `f32` arrays of 4 complex values.
fn fft4() -> Function {
    let mut b = FunctionBuilder::new("fft4");
    let z = b.param("z", Type::F32, 8);
    let o = b.param("out", Type::F32, 8);
    let re = |b: &mut FunctionBuilder, p: ParamId, i: i64| b.load(p, 2 * i);
    let im = |b: &mut FunctionBuilder, p: ParamId, i: i64| b.load(p, 2 * i + 1);
    let (z0r, z0i) = (re(&mut b, z, 0), im(&mut b, z, 0));
    let (z1r, z1i) = (re(&mut b, z, 1), im(&mut b, z, 1));
    let (z2r, z2i) = (re(&mut b, z, 2), im(&mut b, z, 2));
    let (z3r, z3i) = (re(&mut b, z, 3), im(&mut b, z, 3));
    let t1 = b.fadd(z0r, z2r);
    let t2 = b.fadd(z0i, z2i);
    let t3 = b.fsub(z0r, z2r);
    let t4 = b.fsub(z0i, z2i);
    let t5 = b.fadd(z1r, z3r);
    let t6 = b.fadd(z1i, z3i);
    let t7 = b.fsub(z1r, z3r);
    let t8 = b.fsub(z1i, z3i);
    let o0r = b.fadd(t1, t5);
    let o0i = b.fadd(t2, t6);
    let o2r = b.fsub(t1, t5);
    let o2i = b.fsub(t2, t6);
    let o1r = b.fadd(t3, t8);
    let o1i = b.fsub(t4, t7);
    let o3r = b.fsub(t3, t8);
    let o3i = b.fadd(t4, t7);
    for (i, v) in [o0r, o0i, o1r, o1i, o2r, o2i, o3r, o3i].into_iter().enumerate() {
        b.store(o, i as i64, v);
    }
    b.finish()
}

/// 8-point complex FFT: an `fft4` over the even-indexed inputs plus
/// butterflies with the `sqrt(1/2)` twiddle, FFmpeg `fft8` style.
fn fft8() -> Function {
    let mut b = FunctionBuilder::new("fft8");
    let z = b.param("z", Type::F32, 16);
    let o = b.param("out", Type::F32, 16);
    let k = 0.707_106_77_f32; // sqrt(0.5)
    let re = |b: &mut FunctionBuilder, i: i64| b.load(z, 2 * i);
    let im = |b: &mut FunctionBuilder, i: i64| b.load(z, 2 * i + 1);

    // Stage 1: radix-2 butterflies (bit-reversed pairing 0-4, 2-6, 1-5, 3-7).
    let mut ar = Vec::new();
    let mut ai = Vec::new();
    let mut br = Vec::new();
    let mut bi = Vec::new();
    for (x, y) in [(0i64, 4i64), (2, 6), (1, 5), (3, 7)] {
        let xr = re(&mut b, x);
        let xi = im(&mut b, x);
        let yr = re(&mut b, y);
        let yi = im(&mut b, y);
        ar.push(b.fadd(xr, yr));
        ai.push(b.fadd(xi, yi));
        br.push(b.fsub(xr, yr));
        bi.push(b.fsub(xi, yi));
    }
    // Stage 2 on the sums (even outputs' spine)...
    let e0r = b.fadd(ar[0], ar[1]);
    let e0i = b.fadd(ai[0], ai[1]);
    let e1r = b.fsub(ar[0], ar[1]);
    let e1i = b.fsub(ai[0], ai[1]);
    let e2r = b.fadd(ar[2], ar[3]);
    let e2i = b.fadd(ai[2], ai[3]);
    let e3r = b.fsub(ar[2], ar[3]);
    let e3i = b.fsub(ai[2], ai[3]);
    // ...and on the differences with ±i rotations.
    let d0r = b.fadd(br[0], bi[1]);
    let d0i = b.fsub(bi[0], br[1]);
    let d1r = b.fsub(br[0], bi[1]);
    let d1i = b.fadd(bi[0], br[1]);
    // Twiddle the odd spine by sqrt(1/2)(1 - i) and sqrt(1/2)(-1 - i).
    let kc = b.f32const(k);
    let t0 = b.fadd(br[2], bi[2]);
    let t1 = b.fsub(bi[2], br[2]);
    let w0r = b.fmul(kc, t0);
    let w0i = b.fmul(kc, t1);
    let t2 = b.fsub(br[3], bi[3]);
    let t3 = b.fadd(br[3], bi[3]);
    let w1r = b.fmul(kc, t2);
    let w1i = b.fmul(kc, t3);
    // Final combination.
    let outs = [
        (b.fadd(e0r, e2r), b.fadd(e0i, e2i)), // X0
        (b.fadd(d0r, w0r), b.fadd(d0i, w0i)), // X1
        (b.fadd(e1r, e3i), b.fsub(e1i, e3r)), // X2 (×-i rotation)
        (b.fsub(d1r, w1r), b.fsub(d1i, w1i)), // X3
        (b.fsub(e0r, e2r), b.fsub(e0i, e2i)), // X4
        (b.fsub(d0r, w0r), b.fsub(d0i, w0i)), // X5
        (b.fsub(e1r, e3i), b.fadd(e1i, e3r)), // X6
        (b.fadd(d1r, w1r), b.fadd(d1i, w1i)), // X7
    ];
    for (i, (r, im_)) in outs.into_iter().enumerate() {
        b.store(o, 2 * i as i64, r);
        b.store(o, 2 * i as i64 + 1, im_);
    }
    b.finish()
}

/// SBC analysis filter fragment: four 8-tap i16 dot products with rounding
/// shift — the polyphase MAC structure of FFmpeg's `sbcdsp`.
fn sbc() -> Function {
    let mut b = FunctionBuilder::new("sbc");
    let x = b.param("x", Type::I16, 32);
    let consts: [[i64; 8]; 4] = [
        [358, -4805, 8639, 26575, 26575, 8639, -4805, 358],
        [237, -2365, 10853, 24429, 27846, 6253, -6522, 362],
        [362, -6522, 6253, 27846, 24429, 10853, -2365, 237],
        [158, -1817, 12430, 21583, 28513, 3567, -7235, 303],
    ];
    let o = b.param("out", Type::I32, 4);
    for (i, row) in consts.iter().enumerate() {
        let mut acc: Option<ValueId> = None;
        for (kidx, &c) in row.iter().enumerate() {
            let v = b.load(x, i as i64 * 8 + kidx as i64);
            let vw = b.sext(v, Type::I32);
            let cc = b.iconst(Type::I32, c);
            let m = b.mul(vw, cc);
            acc = Some(match acc {
                None => m,
                Some(a) => b.add(a, m),
            });
        }
        let shift = b.iconst(Type::I32, 7);
        let r = b.ashr(acc.unwrap(), shift);
        b.store(o, i as i64, r);
    }
    b.finish()
}

/// x265 `partialButterflyInverse4` (one 4x4 pass): the Fig. 12 showcase.
/// 16-bit inputs, widening constant multiplies (64/83/36), rounding shift,
/// and a saturating narrow back to `i16`.
fn idct4() -> Function {
    let mut b = FunctionBuilder::new("idct4");
    let src = b.param("src", Type::I16, 16);
    let dst = b.param("dst", Type::I16, 16);
    let shift = 7i64;
    let add = 1i64 << (shift - 1);
    for j in 0..4i64 {
        let s0 = b.load(src, j);
        let s1 = b.load(src, 4 + j);
        let s2 = b.load(src, 8 + j);
        let s3 = b.load(src, 12 + j);
        let w0 = b.sext(s0, Type::I32);
        let w1 = b.sext(s1, Type::I32);
        let w2 = b.sext(s2, Type::I32);
        let w3 = b.sext(s3, Type::I32);
        let c83 = b.iconst(Type::I32, 83);
        let c36 = b.iconst(Type::I32, 36);
        let c64 = b.iconst(Type::I32, 64);
        // O[0] = 83*src[4+j] + 36*src[12+j]; O[1] = 36*src[4+j] - 83*src[12+j]
        let m83_1 = b.mul(w1, c83);
        let m36_3 = b.mul(w3, c36);
        let o0 = b.add(m83_1, m36_3);
        let m36_1 = b.mul(w1, c36);
        let m83_3 = b.mul(w3, c83);
        let o1 = b.sub(m36_1, m83_3);
        // E[0] = 64*src[j] + 64*src[8+j]; E[1] = 64*src[j] - 64*src[8+j]
        let m64_0 = b.mul(w0, c64);
        let m64_2 = b.mul(w2, c64);
        let e0 = b.add(m64_0, m64_2);
        let e1 = b.sub(m64_0, m64_2);
        // dst rows with rounding, shift, and clamp.
        let combos = [b.add(e0, o0), b.add(e1, o1), { b.sub(e1, o1) }, { b.sub(e0, o0) }];
        for (k, t) in combos.into_iter().enumerate() {
            let addc = b.iconst(Type::I32, add);
            let shc = b.iconst(Type::I32, shift);
            let rounded = b.add(t, addc);
            let shifted = b.ashr(rounded, shc);
            let clamped = b.clamp(shifted, i16::MIN as i64, i16::MAX as i64);
            let narrow = b.trunc(clamped, Type::I16);
            b.store(dst, j * 4 + k as i64, narrow);
        }
    }
    b.finish()
}

/// x265 `partialButterflyInverse8` over 4 columns: the 8-point butterfly
/// with the `g_t8` constants (89/75/50/18 odd part, 64/83/36 even part).
fn idct8() -> Function {
    let mut b = FunctionBuilder::new("idct8");
    let src = b.param("src", Type::I16, 32);
    let dst = b.param("dst", Type::I16, 32);
    let shift = 7i64;
    let add = 1i64 << (shift - 1);
    let odd_coef: [[i64; 4]; 4] =
        [[89, 75, 50, 18], [75, -18, -89, -50], [50, -89, 18, 75], [18, -50, 75, -89]];
    for j in 0..4i64 {
        // Odd input rows: src[8+j], src[24+j] (and their 16-bit columns).
        let s1 = b.load(src, 4 + j);
        let s3 = b.load(src, 12 + j);
        let s5 = b.load(src, 20 + j);
        let s7 = b.load(src, 28 + j);
        let w = |b: &mut FunctionBuilder, v| b.sext(v, Type::I32);
        let odd_in = [w(&mut b, s1), w(&mut b, s3), w(&mut b, s5), w(&mut b, s7)];
        let mut o = Vec::with_capacity(4);
        for row in odd_coef {
            let mut acc: Option<ValueId> = None;
            for (t, &c) in row.iter().enumerate() {
                let cc = b.iconst(Type::I32, c);
                let m = b.mul(odd_in[t], cc);
                acc = Some(match acc {
                    None => m,
                    Some(a) => b.add(a, m),
                });
            }
            o.push(acc.unwrap());
        }
        // Even part: the 4-point butterfly over rows 0, 2, 4, 6.
        let s0 = b.load(src, j);
        let s2 = b.load(src, 8 + j);
        let s4 = b.load(src, 16 + j);
        let s6 = b.load(src, 24 + j);
        let w0 = b.sext(s0, Type::I32);
        let w2 = b.sext(s2, Type::I32);
        let w4 = b.sext(s4, Type::I32);
        let w6 = b.sext(s6, Type::I32);
        let c83 = b.iconst(Type::I32, 83);
        let c36 = b.iconst(Type::I32, 36);
        let c64 = b.iconst(Type::I32, 64);
        let m83_2 = b.mul(w2, c83);
        let m36_6 = b.mul(w6, c36);
        let eo0 = b.add(m83_2, m36_6);
        let m36_2 = b.mul(w2, c36);
        let m83_6 = b.mul(w6, c83);
        let eo1 = b.sub(m36_2, m83_6);
        let m64_0 = b.mul(w0, c64);
        let m64_4 = b.mul(w4, c64);
        let ee0 = b.add(m64_0, m64_4);
        let ee1 = b.sub(m64_0, m64_4);
        let e = [b.add(ee0, eo0), b.add(ee1, eo1), b.sub(ee1, eo1), b.sub(ee0, eo0)];
        // dst[j*8 + k] = clip((E[k] + O[k] + add) >> shift), and the
        // mirrored second half with subtraction.
        for k in 0..4usize {
            let addc = b.iconst(Type::I32, add);
            let shc = b.iconst(Type::I32, shift);
            let t = b.add(e[k], o[k]);
            let rounded = b.add(t, addc);
            let shifted = b.ashr(rounded, shc);
            let clamped = b.clamp(shifted, i16::MIN as i64, i16::MAX as i64);
            let narrow = b.trunc(clamped, Type::I16);
            b.store(dst, j * 8 + k as i64, narrow);
        }
        for k in 0..4usize {
            let addc = b.iconst(Type::I32, add);
            let shc = b.iconst(Type::I32, shift);
            let t = b.sub(e[3 - k], o[3 - k]);
            let rounded = b.add(t, addc);
            let shifted = b.ashr(rounded, shc);
            let clamped = b.clamp(shifted, i16::MIN as i64, i16::MAX as i64);
            let narrow = b.trunc(clamped, Type::I16);
            b.store(dst, j * 8 + 4 + k as i64, narrow);
        }
    }
    b.finish()
}

/// Chroma interpolation: a 4-tap filter over 16-bit intermediate pixels
/// (the HEVC/x265 second-pass shape), with rounding shift and a saturating
/// narrow back to `i16` — 8 output pixels.
fn chroma() -> Function {
    let mut b = FunctionBuilder::new("chroma");
    let src = b.param("src", Type::I16, 12);
    let o = b.param("out", Type::I16, 8);
    let coef: [i64; 4] = [-4, 36, 36, -4]; // a symmetric half-pel filter
    for i in 0..8i64 {
        let mut acc: Option<ValueId> = None;
        for (t, &c) in coef.iter().enumerate() {
            let p = b.load(src, i + t as i64);
            let pw = b.sext(p, Type::I32);
            let cc = b.iconst(Type::I32, c);
            let m = b.mul(pw, cc);
            acc = Some(match acc {
                None => m,
                Some(a) => b.add(a, m),
            });
        }
        let addc = b.iconst(Type::I32, 32);
        let shc = b.iconst(Type::I32, 6);
        let rounded = b.add(acc.unwrap(), addc);
        let shifted = b.ashr(rounded, shc);
        let clamped = b.clamp(shifted, i16::MIN as i64, i16::MAX as i64);
        let narrow = b.trunc(clamped, Type::I16);
        b.store(o, i, narrow);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::interp::{run, Memory};
    use vegen_ir::Constant;

    #[test]
    fn fft4_of_impulse_is_flat() {
        // FFT of (1, 0, 0, 0) = (1, 1, 1, 1).
        let f = fft4();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f32(1.0)).unwrap();
        run(&f, &mut mem).unwrap();
        for i in 0..4 {
            assert_eq!(mem.read(1, 2 * i).unwrap().as_f32(), 1.0, "re[{i}]");
            assert_eq!(mem.read(1, 2 * i + 1).unwrap().as_f32(), 0.0, "im[{i}]");
        }
    }

    #[test]
    fn fft4_of_constant_is_impulse() {
        // FFT of (1, 1, 1, 1) = (4, 0, 0, 0).
        let f = fft4();
        let mut mem = Memory::zeroed(&f);
        for i in 0..4 {
            mem.write(0, 2 * i, Constant::f32(1.0)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(1, 0).unwrap().as_f32(), 4.0);
        for i in 1..4 {
            assert_eq!(mem.read(1, 2 * i).unwrap().as_f32(), 0.0, "re[{i}]");
        }
    }

    #[test]
    fn fft8_of_impulse_is_flat() {
        let f = fft8();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f32(1.0)).unwrap();
        run(&f, &mut mem).unwrap();
        for i in 0..8 {
            assert!((mem.read(1, 2 * i).unwrap().as_f32() - 1.0).abs() < 1e-6, "re[{i}]");
            assert!(mem.read(1, 2 * i + 1).unwrap().as_f32().abs() < 1e-6, "im[{i}]");
        }
    }

    #[test]
    fn fft8_of_constant_is_impulse() {
        let f = fft8();
        let mut mem = Memory::zeroed(&f);
        for i in 0..8 {
            mem.write(0, 2 * i, Constant::f32(1.0)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        assert!((mem.read(1, 0).unwrap().as_f32() - 8.0).abs() < 1e-6);
        for i in 1..8 {
            assert!(mem.read(1, 2 * i).unwrap().as_f32().abs() < 1e-5, "re[{i}]");
            assert!(mem.read(1, 2 * i + 1).unwrap().as_f32().abs() < 1e-5, "im[{i}]");
        }
    }

    #[test]
    fn idct4_of_dc_coefficient() {
        // A pure DC input: src[j] row 0 only. dst = (64*dc + 64) >> 7 in
        // every output of that column.
        let f = idct4();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I16, 100)).unwrap(); // column 0, row 0
        run(&f, &mut mem).unwrap();
        let expect = (64 * 100 + 64) >> 7;
        for k in 0..4 {
            assert_eq!(mem.read(1, k).unwrap().as_i64(), expect, "dst[{k}]");
        }
    }

    #[test]
    fn idct4_saturates() {
        let f = idct4();
        let mut mem = Memory::zeroed(&f);
        for r in 0..4 {
            mem.write(0, r * 4, Constant::int(Type::I16, 32767)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        // All contributions positive on dst[0]: (64+83+64+36)*32767 >> 7
        // clamps to 32767.
        assert_eq!(mem.read(1, 0).unwrap().as_i64(), 32767);
    }

    #[test]
    fn chroma_interpolates_flat_region() {
        // On a constant region, a (-4, 36, 36, -4)/64 filter reproduces the
        // value.
        let f = chroma();
        let mut mem = Memory::zeroed(&f);
        for i in 0..12 {
            mem.write(0, i, Constant::int(Type::I16, 100)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        for i in 0..8 {
            assert_eq!(mem.read(1, i).unwrap().as_i64(), 100, "out[{i}]");
        }
    }

    #[test]
    fn sbc_is_a_dot_product() {
        let f = sbc();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I16, 1)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(1, 0).unwrap().as_i64(), 358 >> 7);
    }

    #[test]
    fn idct8_dc() {
        let f = idct8();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::int(Type::I16, 64)).unwrap();
        run(&f, &mut mem).unwrap();
        let expect = (64i64 * 64 + 64) >> 7;
        for k in 0..8 {
            assert_eq!(mem.read(1, k).unwrap().as_i64(), expect, "dst[{k}]");
        }
    }
}
