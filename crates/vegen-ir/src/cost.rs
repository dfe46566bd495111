//! The one table of instruction costs (§6.2), in units of twice the
//! inverse throughput.
//!
//! Scalar costs follow LLVM's default x86 TTI flavour: most operations
//! cost 1, casts are free (they fold into loads and uses on x86), division
//! is expensive. Pack selection (`vegen_core::CostModel`), the VM's static
//! estimate (`vegen_vm::static_cycles`) and the baseline's tree costs all
//! read [`scalar_cost`], so the VM charges a scalar instruction exactly
//! what selection assumed. The per-class data-movement costs next to it
//! are the VM's, and `CostModel`'s defaults: `Cshuffle = 2` exactly as the
//! paper sets it, per-element insertion and extraction as in LLVM.

use crate::inst::{BinOp, InstKind};

/// A contiguous vector load or store.
pub const VECTOR_MEM: f64 = 1.0;
/// A scalar load or store.
pub const SCALAR_MEM: f64 = 1.0;
/// A broadcast of one scalar to every lane.
pub const BROADCAST: f64 = 1.0;
/// A single-source permute.
pub const PERMUTE: f64 = 2.0;
/// A two-source shuffle.
pub const SHUFFLE: f64 = 2.0;
/// One scalar inserted into a vector lane.
pub const INSERT: f64 = 1.0;
/// One vector lane extracted to a scalar.
pub const EXTRACT: f64 = 1.0;

/// Cost of executing one scalar instruction, whatever its operands are.
pub fn scalar_cost<V>(kind: &InstKind<V>) -> f64 {
    match kind {
        InstKind::Const(_) | InstKind::Cast { .. } => 0.0,
        InstKind::Bin {
            op: BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem | BinOp::FDiv,
            ..
        } => 8.0,
        InstKind::Load { .. } | InstKind::Store { .. } => SCALAR_MEM,
        InstKind::Bin { .. }
        | InstKind::FNeg { .. }
        | InstKind::Cmp { .. }
        | InstKind::Select { .. } => 1.0,
    }
}
