//! The recursive tree walker `eval_concrete` was before formulas were
//! compiled, kept as the differential reference for
//! `vegen_pseudo::bv::Compiled`. It evaluates only the `Ite` arm its
//! condition selects, so on a well-formed formula it must agree with the
//! compiled program bit for bit.

use vegen_ir::constant::sext;
use vegen_ir::CmpPred;
use vegen_pseudo::bv::{BigBits, Bv, BvBinOp, BvError, FpBinOp};

/// Evaluate `e` by walking the tree, inputs bound by name.
///
/// # Errors
///
/// Returns [`BvError`] for an unbound input or inconsistent widths on the
/// path the inputs select.
pub fn eval_tree(e: &Bv, env: &[(&str, BigBits)]) -> Result<BigBits, BvError> {
    match e {
        Bv::Const { width, bits } => {
            if *width == 0 || *width > BigBits::MAX_WIDTH {
                return Err(BvError(format!("constant of width {width}")));
            }
            // `bits` zero-extends: a wide constant (the register-zeroing
            // idiom) only ever has its low word set.
            Ok(if *width <= 64 {
                BigBits::from_u64(*width, *bits)
            } else {
                BigBits::from_u64(64, *bits).concat_above(&BigBits::zero(*width - 64))
            })
        }
        Bv::Input { name, hi, lo } => {
            let (_, reg) = env
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| BvError(format!("unbound input `{name}`")))?;
            if *hi >= reg.width() || hi < lo {
                return Err(BvError(format!(
                    "slice {name}[{hi}:{lo}] out of range for width {}",
                    reg.width()
                )));
            }
            Ok(reg.extract(*hi, *lo))
        }
        Bv::Bin { op, lhs, rhs } => {
            let a = eval_tree(lhs, env)?;
            let b = eval_tree(rhs, env)?;
            let w = a.width();
            if b.width() != w {
                return Err(BvError(format!("width mismatch {w} vs {}", b.width())));
            }
            if w > 64 {
                return Err(BvError(format!("arithmetic at width {w} > 64")));
            }
            let x = a.to_u64();
            let y = b.to_u64();
            let sx = sext(x, w);
            let r = match op {
                BvBinOp::Add => x.wrapping_add(y),
                BvBinOp::Sub => x.wrapping_sub(y),
                BvBinOp::Mul => x.wrapping_mul(y),
                BvBinOp::And => x & y,
                BvBinOp::Or => x | y,
                BvBinOp::Xor => x ^ y,
                BvBinOp::Shl => {
                    if y >= w as u64 {
                        0
                    } else {
                        x << y
                    }
                }
                BvBinOp::LShr => {
                    if y >= w as u64 {
                        0
                    } else {
                        x >> y
                    }
                }
                BvBinOp::AShr => {
                    if y >= w as u64 {
                        if sx < 0 {
                            u64::MAX
                        } else {
                            0
                        }
                    } else {
                        (sx >> y) as u64
                    }
                }
            };
            Ok(BigBits::from_u64(w, r))
        }
        Bv::FBin { op, lhs, rhs } => {
            let a = eval_tree(lhs, env)?;
            let b = eval_tree(rhs, env)?;
            let w = a.width();
            if w != b.width() || (w != 32 && w != 64) {
                return Err(BvError(format!("fp op at widths {w}/{}", b.width())));
            }
            let compute = |x: f64, y: f64| -> f64 {
                match op {
                    FpBinOp::Add => x + y,
                    FpBinOp::Sub => x - y,
                    FpBinOp::Mul => x * y,
                    FpBinOp::Div => x / y,
                    // IEEE-style: min/max as the comparison-select form used
                    // by the x86 MINPD/MAXPD family (second operand returned
                    // on ties/NaN is not modelled; `validate::draw_elem`
                    // only draws finite floats, so validation never asks).
                    FpBinOp::Min => {
                        if x < y {
                            x
                        } else {
                            y
                        }
                    }
                    FpBinOp::Max => {
                        if x > y {
                            x
                        } else {
                            y
                        }
                    }
                }
            };
            Ok(if w == 32 {
                let r = compute(
                    f32::from_bits(a.to_u64() as u32) as f64,
                    f32::from_bits(b.to_u64() as u32) as f64,
                ) as f32;
                BigBits::from_u64(32, r.to_bits() as u64)
            } else {
                let r = compute(f64::from_bits(a.to_u64()), f64::from_bits(b.to_u64()));
                BigBits::from_u64(64, r.to_bits())
            })
        }
        Bv::FNeg(a) => {
            let v = eval_tree(a, env)?;
            Ok(match v.width() {
                32 => BigBits::from_u64(32, (-f32::from_bits(v.to_u64() as u32)).to_bits() as u64),
                64 => BigBits::from_u64(64, (-f64::from_bits(v.to_u64())).to_bits()),
                w => return Err(BvError(format!("fpneg at width {w}"))),
            })
        }
        Bv::SExt { width, arg } => {
            let v = eval_tree(arg, env)?;
            if v.width() > 64 || *width > 64 || *width <= v.width() {
                return Err(BvError("bad sext".into()));
            }
            Ok(BigBits::from_u64(*width, sext(v.to_u64(), v.width()) as u64))
        }
        Bv::ZExt { width, arg } => {
            let v = eval_tree(arg, env)?;
            if v.width() > 64 || *width > 64 || *width <= v.width() {
                return Err(BvError("bad zext".into()));
            }
            Ok(BigBits::from_u64(*width, v.to_u64()))
        }
        Bv::Extract { hi, lo, arg } => {
            let v = eval_tree(arg, env)?;
            if *hi >= v.width() || hi < lo {
                return Err(BvError(format!("extract [{hi}:{lo}] of width {}", v.width())));
            }
            Ok(v.extract(*hi, *lo))
        }
        Bv::Concat(parts) => {
            if parts.is_empty() {
                return Err(BvError("empty concat".into()));
            }
            let mut acc = BigBits::zero(0);
            for p in parts {
                let v = eval_tree(p, env)?;
                if acc.width() + v.width() > BigBits::MAX_WIDTH {
                    return Err(BvError(format!("concat wider than {} bits", BigBits::MAX_WIDTH)));
                }
                acc = acc.concat_above(&v);
            }
            Ok(acc)
        }
        Bv::Ite { cond, on_true, on_false } => {
            let c = eval_tree(cond, env)?;
            if c.width() != 1 {
                return Err(BvError("ite condition must have width 1".into()));
            }
            if c.to_u64() != 0 {
                eval_tree(on_true, env)
            } else {
                eval_tree(on_false, env)
            }
        }
        Bv::Cmp { pred, lhs, rhs } => {
            let a = eval_tree(lhs, env)?;
            let b = eval_tree(rhs, env)?;
            let w = a.width();
            if w != b.width() || w > 64 {
                return Err(BvError("bad cmp widths".into()));
            }
            use CmpPred::*;
            let x = a.to_u64();
            let y = b.to_u64();
            let r = if pred.is_float() {
                let (fx, fy) = if w == 32 {
                    (f32::from_bits(x as u32) as f64, f32::from_bits(y as u32) as f64)
                } else {
                    (f64::from_bits(x), f64::from_bits(y))
                };
                match pred {
                    Feq => fx == fy,
                    Fne => fx != fy,
                    Flt => fx < fy,
                    Fle => fx <= fy,
                    Fgt => fx > fy,
                    Fge => fx >= fy,
                    _ => unreachable!(),
                }
            } else {
                let (sx, sy) = (sext(x, w), sext(y, w));
                match pred {
                    Eq => x == y,
                    Ne => x != y,
                    Slt => sx < sy,
                    Sle => sx <= sy,
                    Sgt => sx > sy,
                    Sge => sx >= sy,
                    Ult => x < y,
                    Ule => x <= y,
                    Ugt => x > y,
                    Uge => x >= y,
                    _ => unreachable!(),
                }
            };
            Ok(BigBits::from_u64(1, r as u64))
        }
    }
}
