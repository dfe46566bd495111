//! The compiled formula evaluator (`bv::Compiled`, which `eval_concrete`
//! and `validate_description` run) against the tree walker it replaced:
//! for every instruction spec, the raw and the simplified formula must
//! give the walker's value on the 64 register images validation draws and
//! on every combination of edge-valued registers (0, 1, −1, min, max in
//! every element).

mod walker;

use vegen_isa::specs::all_specs;
use vegen_pseudo::bv::{eval_concrete, BigBits, Compiled};
use vegen_pseudo::{eval_program, lift_to_vidl, parse_program, simplify, trial_registers};
use vegen_vidl::InstSemantics;

/// Every combination of one edge value per input register, each register
/// holding that value in all of its elements.
fn edge_registers(desc: &InstSemantics) -> Vec<Vec<BigBits>> {
    let mut images: Vec<Vec<BigBits>> = vec![Vec::new()];
    for shape in &desc.inputs {
        let bits = shape.elem.bits();
        let ones = vegen_ir::constant::mask(bits);
        let edges = [0, 1, ones, 1 << (bits - 1), ones >> 1];
        images = images
            .into_iter()
            .flat_map(|image| {
                edges.iter().map(move |&e| {
                    let mut image = image.clone();
                    image.push(BigBits::from_elems(bits, &vec![e; shape.lanes]));
                    image
                })
            })
            .collect();
    }
    images
}

#[test]
fn compiled_formulas_match_the_tree_walker_on_every_spec() {
    let mut checked = 0usize;
    for spec in all_specs().iter() {
        let inputs: Vec<(&str, u32)> = spec.inputs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
        let program = parse_program(&spec.pseudocode).unwrap();
        let raw = eval_program(&program, &inputs, spec.bits, spec.fp).unwrap();
        let simplified = simplify::simplify(&raw);
        let desc =
            lift_to_vidl(&spec.name, &inputs, spec.out_elem_bits, spec.fp, &simplified).unwrap();
        let mut images = trial_registers(&desc, 64);
        images.extend(edge_registers(&desc));
        for (form, formula) in [("raw", &raw), ("simplified", &simplified)] {
            let mut compiled = Compiled::new(formula, &inputs)
                .unwrap_or_else(|e| panic!("{} {form}: {e}", spec.name));
            for (i, regs) in images.iter().enumerate() {
                let env: Vec<(&str, BigBits)> =
                    inputs.iter().map(|(n, _)| *n).zip(regs.iter().copied()).collect();
                let want = walker::eval_tree(formula, &env)
                    .unwrap_or_else(|e| panic!("{} {form} image {i}: {e}", spec.name));
                assert_eq!(compiled.eval(regs), want, "{} {form} image {i}", spec.name);
                assert_eq!(
                    eval_concrete(formula, &env),
                    Ok(want),
                    "{} {form} image {i}",
                    spec.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 207 * 2 * 64, "only {checked} evaluations");
}

/// Every operator the formulas can hold, at every width it accepts, on
/// edge values, small shift counts and random values — including the
/// shifts and comparisons no in-tree spec uses yet.
#[test]
fn compiled_operators_match_the_tree_walker() {
    use vegen_ir::constant::mask;
    use vegen_ir::CmpPred;
    use vegen_pseudo::bv::{Bv, BvBinOp, FpBinOp};
    let slice =
        |name: &str, width: u32| Box::new(Bv::Input { name: name.into(), hi: width - 1, lo: 0 });
    let mut rng = vegen_ir::rng::XorShift::new(0xC0DE_0031);
    let inputs = [("a", 64), ("b", 64)];
    let mut checked = 0usize;
    for width in [1, 7, 8, 16, 32, 63, 64] {
        let ones = mask(width);
        let mut values = vec![0, 1, ones, 1 << (width - 1), ones >> 1];
        values.extend((0..=width as u64 + 1).map(|k| k & ones));
        values.extend((0..8).map(|_| rng.next_u64() & ones));
        let mut formulas: Vec<Bv> = Vec::new();
        for op in [
            BvBinOp::Add,
            BvBinOp::Sub,
            BvBinOp::Mul,
            BvBinOp::And,
            BvBinOp::Or,
            BvBinOp::Xor,
            BvBinOp::Shl,
            BvBinOp::LShr,
            BvBinOp::AShr,
        ] {
            formulas.push(Bv::Bin { op, lhs: slice("a", width), rhs: slice("b", width) });
        }
        for pred in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Slt,
            CmpPred::Sle,
            CmpPred::Sgt,
            CmpPred::Sge,
            CmpPred::Ult,
            CmpPred::Ule,
            CmpPred::Ugt,
            CmpPred::Uge,
        ] {
            formulas.push(Bv::Cmp { pred, lhs: slice("a", width), rhs: slice("b", width) });
        }
        if width < 64 {
            formulas.push(Bv::SExt { width: 64, arg: slice("a", width) });
            formulas.push(Bv::ZExt { width: 64, arg: slice("a", width) });
        }
        if width == 32 || width == 64 {
            for op in
                [FpBinOp::Add, FpBinOp::Sub, FpBinOp::Mul, FpBinOp::Div, FpBinOp::Min, FpBinOp::Max]
            {
                formulas.push(Bv::FBin { op, lhs: slice("a", width), rhs: slice("b", width) });
            }
            formulas.push(Bv::FNeg(slice("a", width)));
            for pred in
                [CmpPred::Feq, CmpPred::Fne, CmpPred::Flt, CmpPred::Fle, CmpPred::Fgt, CmpPred::Fge]
            {
                formulas.push(Bv::Cmp { pred, lhs: slice("a", width), rhs: slice("b", width) });
            }
        }
        if width == 8 {
            // Register-wide values: selects, slices and concats above 64
            // bits, at offsets off the word grid.
            let pair = |x: &str, y: &str| Bv::Concat(vec![*slice(x, 64), *slice(y, 64)]);
            let less = Bv::Cmp { pred: CmpPred::Slt, lhs: slice("a", 8), rhs: slice("b", 8) };
            let wide = Bv::Ite {
                cond: Box::new(less),
                on_true: Box::new(pair("a", "b")),
                on_false: Box::new(pair("b", "a")),
            };
            let odd = Bv::Concat(vec![wide.clone(), *slice("a", 6), wide.clone(), *slice("b", 3)]);
            formulas.push(Bv::Extract { hi: 100, lo: 30, arg: Box::new(wide.clone()) });
            formulas.push(Bv::Extract { hi: 90, lo: 40, arg: Box::new(wide.clone()) });
            formulas.push(Bv::Extract { hi: 260, lo: 3, arg: Box::new(odd.clone()) });
            formulas.extend([wide, odd]);
        }
        for f in &formulas {
            let mut compiled = Compiled::new(f, &inputs).unwrap_or_else(|e| panic!("{f}: {e}"));
            for &a in &values {
                for &b in &values {
                    let regs = [BigBits::from_u64(64, a), BigBits::from_u64(64, b)];
                    let env = [("a", regs[0]), ("b", regs[1])];
                    let want = walker::eval_tree(f, &env).unwrap();
                    assert_eq!(compiled.eval(&regs), want, "{f} at a={a:#x} b={b:#x}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 100_000, "only {checked} evaluations");
}
