#![warn(missing_docs)]

//! The offline phase of VeGen: from vendor pseudocode to VIDL.
//!
//! The paper (§6.1) translates Intel's Intrinsics Guide pseudocode into SMT
//! bit-vector formulas with a symbolic evaluator built on z3, simplifies the
//! formulas with z3's simplifier, lifts them to VIDL, and validates the
//! result by random testing. Neither the Intrinsics Guide XML nor z3 is
//! available here, so this crate rebuilds that pipeline from scratch:
//!
//! * [`lang`] — a parser for the Intel-style pseudocode language
//!   (`FOR`/`ENDFOR`, `IF`/`ELSE`/`FI`, bit-slice assignment,
//!   `SignExtend32`, `Saturate16`, ...), faithful to the constructs §6.1
//!   enumerates.
//! * [`bv`] — symbolic bit-vector expressions with concrete big-bit-vector
//!   evaluation (the z3 AST stand-in).
//! * [`eval`] — the symbolic evaluator: loop unrolling, function inlining,
//!   if-conversion of predicated sub-vector assignment, and partial
//!   bit-vector update via extract/concat — exactly the special cases the
//!   paper lists.
//! * [`simplify`] — a rewriting simplifier standing in for z3's `simplify`,
//!   which reduces the naive extract/concat/ite nests into per-lane
//!   expressions that "reflect the high-level intent of the original
//!   documentation".
//! * [`lift`] — slicing the output register into lanes and abstracting each
//!   lane's formula into a VIDL operation plus lane bindings.
//! * [`validate`] — random testing of pseudocode semantics against the
//!   lifted VIDL description (how the paper caught the `psubus` signedness
//!   documentation bug).
//!
//! # Example
//!
//! ```
//! use vegen_pseudo::translate;
//!
//! let desc = translate(
//!     "pmaddwd",
//!     &[("a", 64), ("b", 64)],
//!     64,
//!     32,
//!     vegen_pseudo::FpMode::Int,
//!     r#"
//!     FOR j := 0 to 1
//!         i := j*32
//!         dst[i+31:i] := SignExtend32(a[i+31:i+16]*b[i+31:i+16]) +
//!                        SignExtend32(a[i+15:i]*b[i+15:i])
//!     ENDFOR
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(desc.out_lanes(), 2);
//! assert!(!desc.is_simd());
//! ```

pub mod bv;
pub mod eval;
pub mod lang;
pub mod lift;
pub mod simplify;
pub mod validate;

pub use bv::{BigBits, Bv, BvError, Compiled};
pub use eval::{eval_program, FpMode};
pub use lang::{parse_program, Program};
pub use lift::{lift_to_vidl, LiftError};
pub use validate::{trial_registers, validate_description};

use vegen_vidl::InstSemantics;

/// Error from the end-to-end [`translate`] pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    /// Pseudocode failed to parse.
    Parse(String),
    /// Symbolic evaluation failed (unsupported construct, width error).
    Eval(String),
    /// The simplified formula could not be lifted to VIDL.
    Lift(String),
    /// Random-testing validation found a divergence.
    Validate(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Parse(m) => write!(f, "pseudocode parse error: {m}"),
            TranslateError::Eval(m) => write!(f, "symbolic evaluation error: {m}"),
            TranslateError::Lift(m) => write!(f, "lifting error: {m}"),
            TranslateError::Validate(m) => write!(f, "validation error: {m}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Run the whole offline pipeline for one instruction: parse the pseudocode,
/// symbolically evaluate it to a bit-vector formula, simplify, lift to VIDL,
/// check, and validate by random testing.
///
/// * `inputs` — `(name, total bit width)` per input register, in operand
///   order.
/// * `dst_bits` — output register width in bits.
/// * `out_elem_bits` — output element width in bits.
/// * `fp` — whether arithmetic in the pseudocode is integer or IEEE float
///   (Intel's language overloads `+`/`*`; the guide disambiguates by the
///   intrinsic's type, which we pass explicitly).
///
/// # Errors
///
/// Returns the stage-specific [`TranslateError`] on failure.
pub fn translate(
    name: &str,
    inputs: &[(&str, u32)],
    dst_bits: u32,
    out_elem_bits: u32,
    fp: FpMode,
    pseudocode: &str,
) -> Result<InstSemantics, TranslateError> {
    let program = parse_program(pseudocode).map_err(|e| TranslateError::Parse(e.to_string()))?;
    let formula = eval_program(&program, inputs, dst_bits, fp)
        .map_err(|e| TranslateError::Eval(e.to_string()))?;
    let formula = simplify::simplify(&formula);
    let desc = lift_to_vidl(name, inputs, out_elem_bits, fp, &formula)
        .map_err(|e| TranslateError::Lift(e.to_string()))?;
    vegen_vidl::check_inst(&desc).map_err(|e| TranslateError::Lift(e.to_string()))?;
    validate_description(&formula, inputs, &desc, 64).map_err(TranslateError::Validate)?;
    Ok(desc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The register-zeroing idiom puts a constant wider than a word into
    /// the formula; the simplifier's constant folding used to unwind on it.
    #[test]
    fn wide_zero_constants_translate_without_unwinding() {
        for (src, zero_lanes) in
            [("dst[127:0] := 0", 4), ("dst[127:0] := a[127:0]\ndst[95:0] := 0", 3)]
        {
            let r = translate("z", &[("a", 128)], 128, 32, FpMode::Int, src);
            let d = r.unwrap_or_else(|e| panic!("{src:?}: {e}"));
            assert_eq!(d.out_lanes(), 4, "{src:?}");
            let consts = d.lanes.iter().filter(|l| l.args.is_empty()).count();
            assert_eq!(consts, zero_lanes, "{src:?}: lanes bound to the zero constant");
        }
    }
}
