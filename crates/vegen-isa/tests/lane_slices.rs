//! The lifter cuts each output lane from the parts of the register formula
//! that overlap it (`vegen_pseudo::lift::lane_formulas`). For every lane of
//! every spec that must be exactly what the path it replaced produced:
//! the whole register formula cloned under an `Extract` and simplified.

use vegen_isa::specs::all_specs;
use vegen_pseudo::lift::lane_formulas;
use vegen_pseudo::simplify::simplify;
use vegen_pseudo::{eval_program, parse_program, Bv};

#[test]
fn direct_lane_slices_equal_extract_of_the_whole_register() {
    for spec in all_specs() {
        let inputs: Vec<(&str, u32)> = spec.inputs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
        let program = parse_program(&spec.pseudocode).unwrap();
        let formula = simplify(&eval_program(&program, &inputs, spec.bits, spec.fp).unwrap());
        let direct = lane_formulas(&formula, spec.out_elem_bits);
        assert_eq!(direct.len() as u32, spec.bits / spec.out_elem_bits, "{}", spec.name);
        for (lane, got) in direct.iter().enumerate() {
            let (lo, hi) =
                (lane as u32 * spec.out_elem_bits, (lane as u32 + 1) * spec.out_elem_bits - 1);
            let want = simplify(&Bv::Extract { hi, lo, arg: Box::new(formula.clone()) });
            assert_eq!(*got, want, "{} lane {lane}", spec.name);
        }
    }
}
