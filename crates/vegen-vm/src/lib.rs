#![warn(missing_docs)]

//! The vector virtual machine.
//!
//! Lowered programs (mixes of scalar instructions, target vector
//! instructions, and virtual data-movement instructions, §4.5) need two
//! things the paper got from real hardware: an executable semantics (to
//! check that vectorization preserved behaviour — the paper ran on Xeons;
//! we run here) and a performance estimate (the paper measured wall
//! clock; we sum per-instruction costs derived from the same
//! inverse-throughput data its cost model uses, and the benches also
//! measure interpreted wall clock).
//!
//! Vector compute instructions execute through their VIDL semantics — the
//! very descriptions the offline phase validated — so the instruction
//! database is the single source of truth for behaviour. Scalar code is not
//! a second instruction set: a [`VmInst::Scalar`] carries a
//! [`vegen_ir::Inst`] over registers, which executes through
//! [`vegen_ir::interp::step`] and costs `vegen_ir::cost`'s table, exactly
//! as the scalar function it was lowered from.

pub mod cost;
pub mod exec;
pub mod printer;
pub mod program;

pub use cost::static_cycles;
pub use exec::run_program;
pub use printer::listing;
pub use program::{Dst, LaneSrc, Reg, VmInst, VmProgram};
