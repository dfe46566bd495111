#![warn(missing_docs)]

//! Scalar SSA intermediate representation for the VeGen reproduction.
//!
//! This crate stands in for the subset of LLVM IR that VeGen's vectorizer
//! consumes: straight-line, single-basic-block SSA over fixed-width integer
//! and floating-point scalars, with loads and stores addressed by
//! `(buffer, constant element offset)` pairs. The paper's pass only
//! vectorizes within a basic block (§5.2: "VEGEN does not vectorize across
//! basic blocks"), so a single-block function is the natural unit here.
//!
//! The crate provides:
//!
//! * the IR itself ([`Function`], [`Inst`], [`InstKind`], [`Type`],
//!   [`Constant`]),
//! * a builder ([`FunctionBuilder`]) used by the kernel library and by the
//!   pattern generator,
//! * a structural [verifier](verify::verify) enforcing SSA and type rules,
//! * a reference [interpreter](interp) that gives the IR an executable
//!   semantics (used to validate every vectorization end to end),
//! * [dependence analysis](deps) (use-def plus memory order), and
//! * an `instcombine`-style [canonicalizer](canon) shared between input
//!   programs and generated patterns, mirroring §6 of the paper.
//!
//! # Example
//!
//! ```
//! use vegen_ir::{FunctionBuilder, Type};
//!
//! // C[0] = A[0] * B[0] + A[1] * B[1]  (one lane of a dot product)
//! let mut b = FunctionBuilder::new("dot1");
//! let a = b.param("A", Type::I16, 2);
//! let bb = b.param("B", Type::I16, 2);
//! let c = b.param("C", Type::I32, 1);
//! let a0 = b.load(a, 0);
//! let b0 = b.load(bb, 0);
//! let a1 = b.load(a, 1);
//! let b1 = b.load(bb, 1);
//! let a0w = b.sext(a0, Type::I32);
//! let b0w = b.sext(b0, Type::I32);
//! let a1w = b.sext(a1, Type::I32);
//! let b1w = b.sext(b1, Type::I32);
//! let m0 = b.mul(a0w, b0w);
//! let m1 = b.mul(a1w, b1w);
//! let s = b.add(m0, m1);
//! b.store(c, 0, s);
//! let f = b.finish();
//! assert!(vegen_ir::verify::verify(&f).is_ok());
//! ```

pub mod builder;
pub mod canon;
pub mod constant;
pub mod deps;
pub mod function;
pub mod inst;
pub mod interp;
pub mod printer;
pub mod reduce;
pub mod rng;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use constant::Constant;
pub use function::{Function, Param, ValueId};
pub use inst::{BinOp, CastOp, CmpPred, Inst, InstKind, MemLoc, Operands};
pub use types::Type;
