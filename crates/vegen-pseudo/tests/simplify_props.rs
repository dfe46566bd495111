//! Property tests: the formula simplifier (the z3 stand-in) preserves
//! concrete semantics on arbitrary well-formed bit-vector formulas.
//!
//! Formulas are generated with the in-tree deterministic [`XorShift`]
//! stream (the repo builds offline; see `vegen_ir::rng`).

mod walker;

use vegen_ir::rng::XorShift;
use vegen_pseudo::bv::{eval_concrete, BigBits, Bv, BvBinOp, Compiled};
use vegen_pseudo::simplify::simplify;

/// Generate formulas over two 64-bit inputs. Widths are tracked so every
/// generated tree is well-formed; arithmetic stays at width <= 64.
fn leaf(r: &mut XorShift, width: u32) -> Bv {
    if r.bool() {
        Bv::Const { width, bits: r.next_u64() & vegen_ir::constant::mask(width) }
    } else {
        let name = if r.below(2) == 0 { "a" } else { "b" };
        let lo = r.below((64 - width + 1) as usize) as u32;
        Bv::Input { name: name.into(), hi: lo + width - 1, lo }
    }
}

fn formula(r: &mut XorShift, width: u32, depth: u32) -> Bv {
    if depth == 0 {
        return leaf(r, width);
    }
    // The option set mirrors the old proptest union: leaf, binary op, and —
    // where the width permits — extension, extraction, concat, and ite.
    let mut options: Vec<u8> = vec![0, 1];
    if width > 8 {
        options.push(2);
    }
    if width < 64 {
        options.push(3);
    }
    if width.is_multiple_of(2) && width >= 4 {
        options.push(4);
    }
    options.push(5);
    match options[r.below(options.len())] {
        0 => leaf(r, width),
        1 => {
            let ops =
                [BvBinOp::Add, BvBinOp::Sub, BvBinOp::Mul, BvBinOp::And, BvBinOp::Or, BvBinOp::Xor];
            let op = ops[r.below(ops.len())];
            let lhs = formula(r, width, depth - 1);
            let rhs = formula(r, width, depth - 1);
            Bv::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
        }
        2 => {
            // Extension of a narrower sub-formula.
            let narrow = width / 2;
            let a = formula(r, narrow, depth - 1);
            if r.bool() {
                Bv::SExt { width, arg: Box::new(a) }
            } else {
                Bv::ZExt { width, arg: Box::new(a) }
            }
        }
        3 => {
            // Extraction from a wider sub-formula.
            let wide = width * 2;
            let lo = r.below((wide - width + 1) as usize) as u32;
            let a = formula(r, wide, depth - 1);
            Bv::Extract { hi: lo + width - 1, lo, arg: Box::new(a) }
        }
        4 => {
            // Concat of two halves (keeps total width).
            let half = width / 2;
            let lo = formula(r, half, depth - 1);
            let hi = formula(r, half, depth - 1);
            Bv::Concat(vec![lo, hi])
        }
        _ => {
            // Ite on a comparison.
            let t = formula(r, width, depth - 1);
            let e = formula(r, width, depth - 1);
            let c = formula(r, width.min(32), depth - 1);
            Bv::Ite {
                cond: Box::new(Bv::Cmp {
                    pred: vegen_ir::CmpPred::Slt,
                    lhs: Box::new(c.clone()),
                    rhs: Box::new(c),
                }),
                on_true: Box::new(t),
                on_false: Box::new(e),
            }
        }
    }
}

#[test]
fn simplify_preserves_semantics() {
    let mut r = XorShift::new(0x51F1_0001);
    for case in 0..256u32 {
        let e = formula(&mut r, 32, 3);
        let a = r.next_u64();
        let b = r.next_u64();
        let s = simplify(&e);
        assert_eq!(s.width(), e.width(), "case {case}: width must be preserved");
        let env = [("a", BigBits::from_u64(64, a)), ("b", BigBits::from_u64(64, b))];
        let before = eval_concrete(&e, &env);
        let after = eval_concrete(&s, &env);
        assert_eq!(
            before.ok(),
            after.ok(),
            "case {case}: simplify changed semantics:\n{e}\nvs\n{s}"
        );
    }
}

#[test]
fn simplify_is_idempotent() {
    let mut r = XorShift::new(0x51F1_0002);
    for case in 0..256u32 {
        let e = formula(&mut r, 32, 3);
        let once = simplify(&e);
        let twice = simplify(&once);
        assert_eq!(once, twice, "case {case}: not a fixpoint: {once} vs {twice}");
    }
}

#[test]
fn simplify_never_grows() {
    let mut r = XorShift::new(0x51F1_0003);
    for case in 0..256u32 {
        let e = formula(&mut r, 16, 3);
        let s = simplify(&e);
        assert!(
            s.size() <= e.size() + 2,
            "case {case}: simplifier grew {} -> {}",
            e.size(),
            s.size()
        );
    }
}

/// The compiled evaluator against the tree walker it replaced, on the same
/// generated formulas and on their simplified forms.
#[test]
fn compiled_formula_matches_the_tree_walker() {
    let mut r = XorShift::new(0x51F1_0004);
    let inputs = [("a", 64), ("b", 64)];
    for case in 0..512u32 {
        let width = [1, 8, 16, 32, 64][r.below(5)];
        let depth = 1 + r.below(4) as u32;
        let e = formula(&mut r, width, depth);
        for (form, f) in [("raw", e.clone()), ("simplified", simplify(&e))] {
            let mut compiled = Compiled::new(&f, &inputs)
                .unwrap_or_else(|err| panic!("case {case} {form}: {err}\n{f}"));
            for _ in 0..4 {
                let (a, b) = (r.next_u64(), r.next_u64());
                let regs = [BigBits::from_u64(64, a), BigBits::from_u64(64, b)];
                let env = [("a", regs[0]), ("b", regs[1])];
                let want = walker::eval_tree(&f, &env).unwrap();
                assert_eq!(compiled.eval(&regs), want, "case {case} {form}: {f}");
                assert_eq!(eval_concrete(&f, &env), Ok(want), "case {case} {form}: {f}");
            }
        }
    }
}
