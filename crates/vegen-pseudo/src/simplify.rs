//! A rewriting simplifier for bit-vector formulas — the stand-in for z3's
//! `simplify`.
//!
//! §6.1: "Our symbolic evaluator returns SMT formulas that are unnecessarily
//! complicated in some cases because of the naive implementation of partial
//! bit-vector updates and predicated updates. We use z3's simplifier to
//! reduce the formula complexity." The partial-update encoding produces
//! towers of `Extract`/`Concat`; these rules collapse them so each output
//! lane becomes a clean per-lane expression the lifter can abstract.

use crate::bv::{eval_concrete, Bv};

/// Simplify a formula to a fixpoint (bounded; the rules terminate because
/// every rewrite reduces a well-founded measure, but we cap iterations
/// defensively).
pub fn simplify(e: &Bv) -> Bv {
    let mut cur = e.clone();
    for _ in 0..32 {
        let mut fired = false;
        cur = walk(cur, &mut fired).0;
        if !fired {
            break;
        }
    }
    cur
}

/// Stands in for a child while it is being rewritten in its own box.
const HOLE: Bv = Bv::Const { width: 0, bits: 0 };

fn walk_box(mut b: Box<Bv>, fired: &mut bool) -> (Box<Bv>, bool) {
    let (v, foldable) = walk(std::mem::replace(&mut *b, HOLE), fired);
    *b = v;
    (b, foldable)
}

/// One bottom-up pass over an owned tree. Sets `fired` if any rule changed
/// anything, and returns whether the result has only constant leaves, so
/// that neither the fixpoint test nor constant folding re-reads a subtree.
fn walk(e: Bv, fired: &mut bool) -> (Bv, bool) {
    let (node, foldable) = match e {
        Bv::Const { .. } => return (e, true),
        Bv::Input { .. } => return (e, false),
        Bv::Bin { op, lhs, rhs } => {
            let ((lhs, l), (rhs, r)) = (walk_box(lhs, fired), walk_box(rhs, fired));
            (Bv::Bin { op, lhs, rhs }, l && r)
        }
        Bv::FBin { op, lhs, rhs } => {
            let ((lhs, l), (rhs, r)) = (walk_box(lhs, fired), walk_box(rhs, fired));
            (Bv::FBin { op, lhs, rhs }, l && r)
        }
        Bv::Cmp { pred, lhs, rhs } => {
            let ((lhs, l), (rhs, r)) = (walk_box(lhs, fired), walk_box(rhs, fired));
            (Bv::Cmp { pred, lhs, rhs }, l && r)
        }
        Bv::FNeg(a) => {
            let (a, f) = walk_box(a, fired);
            (Bv::FNeg(a), f)
        }
        Bv::SExt { width, arg } => {
            let (arg, f) = walk_box(arg, fired);
            (Bv::SExt { width, arg }, f)
        }
        Bv::ZExt { width, arg } => {
            let (arg, f) = walk_box(arg, fired);
            (Bv::ZExt { width, arg }, f)
        }
        Bv::Extract { hi, lo, arg } => {
            let (arg, f) = walk_box(arg, fired);
            (Bv::Extract { hi, lo, arg }, f)
        }
        Bv::Concat(mut parts) => {
            let mut all = true;
            for p in &mut parts {
                let (v, f) = walk(std::mem::replace(p, HOLE), fired);
                *p = v;
                all &= f;
            }
            (Bv::Concat(parts), all)
        }
        Bv::Ite { cond, on_true, on_false } => {
            let (cond, c) = walk_box(cond, fired);
            let ((on_true, t), (on_false, f)) =
                (walk_box(on_true, fired), walk_box(on_false, fired));
            (Bv::Ite { cond, on_true, on_false }, c && t && f)
        }
    };
    let mut fired_here = false;
    let out = rewrite(node, foldable, &mut fired_here);
    if !fired_here {
        return (out, foldable);
    }
    *fired = true;
    // A rule never adds an input, but it can drop the only ones there were.
    let foldable = foldable || is_foldable(&out);
    (out, foldable)
}

/// Rewrite one node whose children are already simplified; `foldable` is
/// [`is_foldable`] of it, which `walk` already knows.
fn rewrite(e: Bv, foldable: bool, fired: &mut bool) -> Bv {
    // Constant folding: any arithmetic node with all-constant leaves and
    // width <= 64 evaluates directly.
    if foldable && !matches!(e, Bv::Const { .. }) && e.width() <= 64 {
        if let Ok(v) = eval_concrete(&e, &[]) {
            *fired = true;
            return Bv::Const { width: v.width(), bits: v.to_u64() };
        }
    }
    match e {
        Bv::Extract { hi, lo, arg } => rewrite_extract(hi, lo, *arg, fired),
        Bv::Concat(parts) => rewrite_concat(parts, fired),
        Bv::Ite { cond, on_true, on_false } => {
            if let Bv::Const { bits, .. } = &*cond {
                *fired = true;
                return if *bits != 0 { *on_true } else { *on_false };
            }
            if on_true == on_false {
                *fired = true;
                return *on_true;
            }
            Bv::Ite { cond, on_true, on_false }
        }
        other => other,
    }
}

/// [`rewrite`] for a node a rule has just built, whose foldability nobody
/// has computed yet.
fn rewrite_built(e: Bv, fired: &mut bool) -> Bv {
    let foldable = is_foldable(&e);
    rewrite(e, foldable, fired)
}

fn is_foldable(e: &Bv) -> bool {
    match e {
        Bv::Const { .. } => true,
        Bv::Input { .. } => false,
        Bv::Bin { lhs, rhs, .. } | Bv::FBin { lhs, rhs, .. } | Bv::Cmp { lhs, rhs, .. } => {
            is_foldable(lhs) && is_foldable(rhs)
        }
        Bv::FNeg(a) => is_foldable(a),
        Bv::SExt { arg, .. } | Bv::ZExt { arg, .. } | Bv::Extract { arg, .. } => is_foldable(arg),
        Bv::Concat(parts) => parts.iter().all(is_foldable),
        Bv::Ite { cond, on_true, on_false } => {
            is_foldable(cond) && is_foldable(on_true) && is_foldable(on_false)
        }
    }
}

/// Every arm but the three that hand back `Extract { hi, lo, arg }` as it
/// came changes the node.
fn rewrite_extract(hi: u32, lo: u32, arg: Bv, fired: &mut bool) -> Bv {
    let w = arg.width();
    let mut unchanged = false;
    let out = match arg {
        // Identity.
        arg if lo == 0 && hi + 1 == w => arg,
        // extract of extract composes.
        Bv::Extract { hi: _ihi, lo: ilo, arg: inner } => {
            Bv::Extract { hi: ilo + hi, lo: ilo + lo, arg: inner }
        }
        // extract of input slice narrows the slice.
        Bv::Input { name, hi: _ihi, lo: ilo } => Bv::Input { name, hi: ilo + hi, lo: ilo + lo },
        // extract of concat: resolve into the parts it covers.
        Bv::Concat(parts) => {
            let mut pieces: Vec<Bv> = Vec::new();
            let mut base = 0u32; // low bit of current part
            for p in parts {
                let pw = p.width();
                let p_lo = base;
                let p_hi = base + pw - 1;
                base += pw;
                if p_hi < lo || p_lo > hi {
                    continue; // no overlap
                }
                let take_lo = lo.max(p_lo) - p_lo;
                let take_hi = hi.min(p_hi) - p_lo;
                pieces.push(if take_lo == 0 && take_hi + 1 == pw {
                    p
                } else {
                    Bv::Extract { hi: take_hi, lo: take_lo, arg: Box::new(p) }
                });
            }
            if pieces.len() == 1 {
                // Re-simplify: the piece may itself be an extract chain.
                rewrite_built(pieces.pop().unwrap(), fired)
            } else {
                rewrite_concat(pieces, fired)
            }
        }
        // extract of zext/sext: inside the original width it's an extract of
        // the argument; the all-above-original zext region is zero.
        Bv::ZExt { width: _zw, arg: inner } => {
            let iw = inner.width();
            if hi < iw {
                rewrite_built(Bv::Extract { hi, lo, arg: inner }, fired)
            } else if lo >= iw {
                Bv::Const { width: hi - lo + 1, bits: 0 }
            } else {
                // Straddles: keep low part + zero top.
                let low = rewrite_built(Bv::Extract { hi: iw - 1, lo, arg: inner }, fired);
                let zeros = Bv::Const { width: hi - iw + 1, bits: 0 };
                rewrite_concat(vec![low, zeros], fired)
            }
        }
        Bv::SExt { width: sw, arg: inner } => {
            let iw = inner.width();
            if hi < iw {
                rewrite_built(Bv::Extract { hi, lo, arg: inner }, fired)
            } else if lo == 0 {
                // Truncating a sign-extension from the bottom is a narrower
                // sign-extension (or the value itself).
                if hi + 1 == iw {
                    *inner
                } else {
                    Bv::SExt { width: hi + 1, arg: inner }
                }
            } else {
                unchanged = true;
                Bv::Extract { hi, lo, arg: Box::new(Bv::SExt { width: sw, arg: inner }) }
            }
        }
        // Push extraction into ite arms: predicated partial updates nest
        // lane values under Ite, and the lifter wants per-lane formulas.
        Bv::Ite { cond, on_true, on_false } => {
            let t = rewrite_built(Bv::Extract { hi, lo, arg: on_true }, fired);
            let f = rewrite_built(Bv::Extract { hi, lo, arg: on_false }, fired);
            rewrite_built(Bv::Ite { cond, on_true: Box::new(t), on_false: Box::new(f) }, fired)
        }
        Bv::Const { bits, .. } => {
            // Caught by folding when <= 64; handle wide constants (only
            // zero constants are wide in practice).
            let ww = hi - lo + 1;
            if ww <= 64 && hi < 64 {
                Bv::Const { width: ww, bits: (bits >> lo) & vegen_ir::constant::mask(ww) }
            } else {
                unchanged = true;
                Bv::Extract { hi, lo, arg: Box::new(Bv::Const { width: w, bits }) }
            }
        }
        other => {
            unchanged = true;
            Bv::Extract { hi, lo, arg: Box::new(other) }
        }
    };
    *fired |= !unchanged;
    out
}

fn rewrite_concat(parts: Vec<Bv>, fired: &mut bool) -> Bv {
    // Flatten nested concats, drop zero-width parts, and merge adjacent
    // pieces as they arrive: consecutive extracts/input-slices of the same
    // source with touching ranges, and adjacent constants.
    fn push(merged: &mut Vec<Bv>, p: Bv) {
        if let Some(last) = merged.last_mut() {
            if let Some(m) = merge_adjacent(last, &p) {
                *last = m;
                return;
            }
        }
        merged.push(p);
    }
    let n_in = parts.len();
    let mut reshaped = n_in < 2;
    let mut merged: Vec<Bv> = Vec::with_capacity(n_in);
    for p in parts {
        match p {
            Bv::Concat(inner) => {
                reshaped = true;
                inner.into_iter().filter(|q| q.width() > 0).for_each(|q| push(&mut merged, q));
            }
            p if p.width() == 0 => reshaped = true,
            p => push(&mut merged, p),
        }
    }
    // With nothing flattened or dropped, a shorter list means a merge.
    *fired |= reshaped || merged.len() != n_in;
    match merged.len() {
        0 => Bv::Const { width: 0, bits: 0 },
        1 => merged.pop().unwrap(),
        _ => Bv::Concat(merged),
    }
}

/// Try to merge `low` (less significant) and `high` into one node.
fn merge_adjacent(low: &Bv, high: &Bv) -> Option<Bv> {
    match (low, high) {
        (Bv::Input { name: n1, hi: h1, lo: l1 }, Bv::Input { name: n2, hi: h2, lo: l2 })
            if n1 == n2 && *l2 == h1 + 1 =>
        {
            Some(Bv::Input { name: n1.clone(), hi: *h2, lo: *l1 })
        }
        (Bv::Const { width: w1, bits: b1 }, Bv::Const { width: w2, bits: b2 }) if w1 + w2 <= 64 => {
            Some(Bv::Const { width: w1 + w2, bits: b1 | (b2 << w1) })
        }
        (Bv::Extract { hi: h1, lo: l1, arg: a1 }, Bv::Extract { hi: h2, lo: l2, arg: a2 })
            if a1 == a2 && *l2 == h1 + 1 =>
        {
            let hi = *h2;
            let lo = *l1;
            Some(if lo == 0 && hi + 1 == a1.width() {
                (**a1).clone()
            } else {
                Bv::Extract { hi, lo, arg: a1.clone() }
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::{BigBits, BvBinOp};
    use vegen_ir::CmpPred;

    fn inp(name: &str, hi: u32, lo: u32) -> Bv {
        Bv::Input { name: name.into(), hi, lo }
    }

    #[test]
    fn extract_of_concat_selects_part() {
        let c = Bv::Concat(vec![inp("a", 15, 0), inp("b", 15, 0)]);
        let e = Bv::Extract { hi: 31, lo: 16, arg: Box::new(c) };
        assert_eq!(simplify(&e), inp("b", 15, 0));
    }

    #[test]
    fn extract_across_concat_parts() {
        let c = Bv::Concat(vec![inp("a", 7, 0), inp("b", 7, 0)]);
        let e = Bv::Extract { hi: 11, lo: 4, arg: Box::new(c) };
        let s = simplify(&e);
        assert_eq!(s, Bv::Concat(vec![inp("a", 7, 4), inp("b", 3, 0)]));
    }

    #[test]
    fn extract_of_extract_composes() {
        let e = Bv::Extract {
            hi: 7,
            lo: 0,
            arg: Box::new(Bv::Extract { hi: 31, lo: 16, arg: Box::new(inp("a", 63, 0)) }),
        };
        assert_eq!(simplify(&e), inp("a", 23, 16));
    }

    #[test]
    fn full_width_extract_is_identity() {
        let e = Bv::Extract { hi: 15, lo: 0, arg: Box::new(inp("a", 15, 0)) };
        assert_eq!(simplify(&e), inp("a", 15, 0));
    }

    #[test]
    fn adjacent_input_slices_merge() {
        let c = Bv::Concat(vec![inp("a", 15, 0), inp("a", 31, 16)]);
        assert_eq!(simplify(&c), inp("a", 31, 0));
    }

    #[test]
    fn adjacent_constants_merge() {
        let c = Bv::Concat(vec![
            Bv::Const { width: 8, bits: 0xaa },
            Bv::Const { width: 8, bits: 0xbb },
        ]);
        assert_eq!(simplify(&c), Bv::Const { width: 16, bits: 0xbbaa });
    }

    #[test]
    fn constant_folding() {
        let e = Bv::Bin {
            op: BvBinOp::Add,
            lhs: Box::new(Bv::Const { width: 8, bits: 200 }),
            rhs: Box::new(Bv::Const { width: 8, bits: 100 }),
        };
        assert_eq!(simplify(&e), Bv::Const { width: 8, bits: 44 });
    }

    #[test]
    fn ite_constant_condition() {
        let e = Bv::Ite {
            cond: Box::new(Bv::Const { width: 1, bits: 1 }),
            on_true: Box::new(inp("a", 7, 0)),
            on_false: Box::new(inp("b", 7, 0)),
        };
        assert_eq!(simplify(&e), inp("a", 7, 0));
    }

    #[test]
    fn ite_same_arms_collapses() {
        let e = Bv::Ite {
            cond: Box::new(Bv::Cmp {
                pred: CmpPred::Eq,
                lhs: Box::new(inp("a", 7, 0)),
                rhs: Box::new(Bv::Const { width: 8, bits: 0 }),
            }),
            on_true: Box::new(inp("b", 7, 0)),
            on_false: Box::new(inp("b", 7, 0)),
        };
        assert_eq!(simplify(&e), inp("b", 7, 0));
    }

    #[test]
    fn extract_pushes_through_ite() {
        let ite = Bv::Ite {
            cond: Box::new(Bv::Cmp {
                pred: CmpPred::Slt,
                lhs: Box::new(inp("a", 7, 0)),
                rhs: Box::new(Bv::Const { width: 8, bits: 0 }),
            }),
            on_true: Box::new(Bv::Concat(vec![inp("b", 7, 0), inp("c", 7, 0)])),
            on_false: Box::new(Bv::Concat(vec![inp("c", 7, 0), inp("b", 7, 0)])),
        };
        let e = Bv::Extract { hi: 7, lo: 0, arg: Box::new(ite) };
        let s = simplify(&e);
        let Bv::Ite { on_true, on_false, .. } = s else { panic!("{s}") };
        assert_eq!(*on_true, inp("b", 7, 0));
        assert_eq!(*on_false, inp("c", 7, 0));
    }

    #[test]
    fn extract_of_zext_regions() {
        let z = Bv::ZExt { width: 32, arg: Box::new(inp("a", 15, 0)) };
        let low = Bv::Extract { hi: 15, lo: 0, arg: Box::new(z.clone()) };
        assert_eq!(simplify(&low), inp("a", 15, 0));
        let high = Bv::Extract { hi: 31, lo: 16, arg: Box::new(z) };
        assert_eq!(simplify(&high), Bv::Const { width: 16, bits: 0 });
    }

    #[test]
    fn extract_of_sext_bottom_is_narrower_sext() {
        let s = Bv::SExt { width: 64, arg: Box::new(inp("a", 15, 0)) };
        let e = Bv::Extract { hi: 31, lo: 0, arg: Box::new(s) };
        assert_eq!(simplify(&e), Bv::SExt { width: 32, arg: Box::new(inp("a", 15, 0)) });
    }

    #[test]
    fn partial_update_tower_collapses() {
        // Emulate what eval's write_slice produces for two lane writes, then
        // check lanes read back clean.
        let lane0 = Bv::Bin {
            op: BvBinOp::Add,
            lhs: Box::new(inp("a", 31, 0)),
            rhs: Box::new(inp("b", 31, 0)),
        };
        let lane1 = Bv::Bin {
            op: BvBinOp::Add,
            lhs: Box::new(inp("a", 63, 32)),
            rhs: Box::new(inp("b", 63, 32)),
        };
        let reg = Bv::Concat(vec![lane0.clone(), lane1.clone()]);
        let read0 = Bv::Extract { hi: 31, lo: 0, arg: Box::new(reg.clone()) };
        let read1 = Bv::Extract { hi: 63, lo: 32, arg: Box::new(reg) };
        assert_eq!(simplify(&read0), lane0);
        assert_eq!(simplify(&read1), lane1);
    }

    #[test]
    fn simplification_preserves_semantics() {
        // Random formulas: simplified and original evaluate identically.
        let formula = Bv::Extract {
            hi: 23,
            lo: 8,
            arg: Box::new(Bv::Concat(vec![
                inp("a", 15, 0),
                Bv::Ite {
                    cond: Box::new(Bv::Cmp {
                        pred: CmpPred::Slt,
                        lhs: Box::new(inp("a", 15, 0)),
                        rhs: Box::new(Bv::Const { width: 16, bits: 0 }),
                    }),
                    on_true: Box::new(inp("b", 15, 0)),
                    on_false: Box::new(Bv::Const { width: 16, bits: 0xffff }),
                },
            ])),
        };
        let simplified = simplify(&formula);
        let mut state = 7u64;
        for _ in 0..100 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let env = [
                ("a", BigBits::from_u64(16, state & 0xffff)),
                ("b", BigBits::from_u64(16, (state >> 16) & 0xffff)),
            ];
            assert_eq!(
                eval_concrete(&formula, &env).unwrap(),
                eval_concrete(&simplified, &env).unwrap()
            );
        }
    }
}
