//! Random-testing validation of lifted descriptions against pseudocode
//! semantics.
//!
//! §6.1: "We validated the SMT formulas by random testing. Testing revealed
//! incorrect semantics resulting from ambiguous or simply incorrect
//! documentation." Here the same harness cross-checks two *independent*
//! evaluators — the concrete bit-vector evaluator running the pseudocode
//! formula, and the VIDL evaluator running the lifted description — so a
//! lifting bug (or an ambiguous helper semantics) shows up as a divergence.

use crate::bv::{BigBits, Bv, Compiled};
use vegen_ir::rng::TrialRng;
use vegen_ir::Constant;
use vegen_vidl::{eval_inst, InstSemantics, VecShape};

/// Seed of the trials' input stream.
const TRIAL_SEED: u64 = 0x5eed_0001;

/// Run `iters` random trials comparing the pseudocode formula against the
/// lifted description.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence (including
/// the failing input vectors).
pub fn validate_description(
    formula: &Bv,
    inputs: &[(&str, u32)],
    desc: &InstSemantics,
    iters: usize,
) -> Result<(), String> {
    // A malformed description is a typed error, not a panic: the offline
    // auditor feeds deliberately corrupted descriptions through here and
    // must get a report back. None of this depends on the drawn values, so
    // it is settled once, before the first trial.
    if desc.inputs.len() != inputs.len() {
        return Err(format!(
            "description {} has {} inputs but the spec declares {}",
            desc.name,
            desc.inputs.len(),
            inputs.len()
        ));
    }
    for ((name, total), shape) in inputs.iter().zip(&desc.inputs) {
        if shape.bits() != *total {
            return Err(format!(
                "shape mismatch for input {name}: description has {} bits but the spec \
                 declares {total}",
                shape.bits()
            ));
        }
    }
    if desc.out_bits() != formula.width() {
        return Err(format!(
            "description {} produces {} bits but the formula has {}",
            desc.name,
            desc.out_bits(),
            formula.width()
        ));
    }
    let widest = inputs.iter().map(|(_, total)| *total).fold(desc.out_bits(), u32::max);
    if widest > BigBits::MAX_WIDTH {
        return Err(format!(
            "description {} has a {widest}-bit register; the evaluator holds at most {}",
            desc.name,
            BigBits::MAX_WIDTH
        ));
    }
    let out_elem_bits = desc.out_elem.bits();
    // The formula is compiled once; every trial runs the same program.
    let mut program =
        Compiled::new(formula, inputs).map_err(|e| format!("formula evaluation failed: {e}"))?;
    // Both evaluators' inputs live in buffers the trials overwrite.
    let mut regs: Vec<BigBits> = inputs.iter().map(|(_, total)| BigBits::zero(*total)).collect();
    let mut vidl_inputs: Vec<Vec<Constant>> =
        desc.inputs.iter().map(|shape| Vec::with_capacity(shape.lanes)).collect();
    let mut elems: Vec<u64> = Vec::new();
    let mut rng = TrialRng::new(TRIAL_SEED);
    for trial in 0..iters {
        // Draw concrete input registers.
        for ((shape, reg), lanes) in desc.inputs.iter().zip(&mut regs).zip(&mut vidl_inputs) {
            draw_register(&mut rng, shape, lanes, &mut elems);
            *reg = BigBits::from_elems(shape.elem.bits(), &elems);
        }
        // Pseudocode side.
        let expected = program.eval(&regs);
        // VIDL side.
        let got = eval_inst(desc, &vidl_inputs)
            .map_err(|e| format!("trial {trial}: VIDL evaluation failed: {e}"))?;
        elems.clear();
        elems.extend(got.iter().map(|c| c.raw_bits()));
        let got_bits = BigBits::from_elems(out_elem_bits, &elems);
        if expected != got_bits {
            return Err(format!(
                "trial {trial}: divergence on {}\n  inputs: {:?}\n  pseudocode: {:?}\n  VIDL: {:?}",
                desc.name,
                vidl_inputs,
                expected.to_elems(out_elem_bits),
                got_bits.to_elems(out_elem_bits),
            ));
        }
    }
    Ok(())
}

/// The input registers [`validate_description`] draws for `desc` over
/// `iters` trials: per trial, one image per input in operand order.
pub fn trial_registers(desc: &InstSemantics, iters: usize) -> Vec<Vec<BigBits>> {
    let mut rng = TrialRng::new(TRIAL_SEED);
    let (mut lanes, mut elems) = (Vec::new(), Vec::new());
    (0..iters)
        .map(|_| {
            desc.inputs
                .iter()
                .map(|shape| {
                    draw_register(&mut rng, shape, &mut lanes, &mut elems);
                    BigBits::from_elems(shape.elem.bits(), &elems)
                })
                .collect()
        })
        .collect()
}

/// Draw one input register: its lanes into `lanes`, their bit images into
/// `elems`.
fn draw_register(
    rng: &mut TrialRng,
    shape: &VecShape,
    lanes: &mut Vec<Constant>,
    elems: &mut Vec<u64>,
) {
    lanes.clear();
    lanes.extend((0..shape.lanes).map(|_| rng.draw(shape.elem)));
    elems.clear();
    elems.extend(lanes.iter().map(|c| c.raw_bits()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_program, FpMode};
    use crate::lang::parse_program;
    use crate::lift::lift_to_vidl;
    use crate::simplify::simplify;

    fn lifted(
        name: &str,
        inputs: &[(&str, u32)],
        dst_bits: u32,
        out_elem: u32,
        fp: FpMode,
        src: &str,
    ) -> (Bv, InstSemantics) {
        let p = parse_program(src).unwrap();
        let f = eval_program(&p, inputs, dst_bits, fp).unwrap();
        let f = simplify(&f);
        let d = lift_to_vidl(name, inputs, out_elem, fp, &f).unwrap();
        (f, d)
    }

    #[test]
    fn pmaddwd_validates() {
        let inputs = [("a", 64), ("b", 64)];
        let (f, d) = lifted(
            "pmaddwd",
            &inputs,
            64,
            32,
            FpMode::Int,
            "FOR j := 0 to 1\n i := j*32\n dst[i+31:i] := SignExtend32(a[i+31:i+16])*SignExtend32(b[i+31:i+16]) + SignExtend32(a[i+15:i])*SignExtend32(b[i+15:i])\nENDFOR",
        );
        validate_description(&f, &inputs, &d, 200).unwrap();
    }

    #[test]
    fn saturating_sub_validates() {
        // The psubus family — the paper's §6.1 motivating example for
        // random-testing documentation semantics.
        let inputs = [("a", 32), ("b", 32)];
        let (f, d) = lifted(
            "psubusb_4",
            &inputs,
            32,
            8,
            FpMode::Int,
            "FOR j := 0 to 3\n i := j*8\n dst[i+7:i] := SaturateU8(ZeroExtend16(a[i+7:i]) - ZeroExtend16(b[i+7:i]))\nENDFOR",
        );
        validate_description(&f, &inputs, &d, 400).unwrap();
    }

    #[test]
    fn float_addsub_validates() {
        let inputs = [("a", 128), ("b", 128)];
        let (f, d) = lifted(
            "addsubpd",
            &inputs,
            128,
            64,
            FpMode::Float,
            "dst[63:0] := a[63:0] - b[63:0]\ndst[127:64] := a[127:64] + b[127:64]",
        );
        validate_description(&f, &inputs, &d, 200).unwrap();
    }

    #[test]
    fn detects_injected_divergence() {
        let inputs = [("a", 64), ("b", 64)];
        let (f, mut d) = lifted(
            "paddd2",
            &inputs,
            64,
            32,
            FpMode::Int,
            "FOR j := 0 to 1\n i := j*32\n dst[i+31:i] := a[i+31:i] + b[i+31:i]\nENDFOR",
        );
        // Sabotage the description: swap lane 1's operands to a[0].
        d.lanes[1].args[0].lane = 0;
        let r = validate_description(&f, &inputs, &d, 200);
        assert!(r.is_err(), "validation must catch the sabotaged binding");
    }

    #[test]
    fn malformed_shapes_are_typed_errors_not_panics() {
        let inputs = [("a", 64), ("b", 64)];
        let (f, d) = lifted(
            "paddd2",
            &inputs,
            64,
            32,
            FpMode::Int,
            "FOR j := 0 to 1\n i := j*32\n dst[i+31:i] := a[i+31:i] + b[i+31:i]\nENDFOR",
        );
        // Fewer description inputs than the spec declares.
        let mut short = d.clone();
        short.inputs.pop();
        let e = validate_description(&f, &inputs, &short, 4).unwrap_err();
        assert!(e.contains("2"), "{e}");
        // Width disagreement between description shape and spec.
        let mut wide = d;
        wide.inputs[0].lanes = 4;
        let e = validate_description(&f, &inputs, &wide, 4).unwrap_err();
        assert!(e.contains("shape mismatch"), "{e}");
    }
}
