#![warn(missing_docs)]

//! Generated pattern matchers and the compile-time match table (§4.2, §4.3).
//!
//! In the paper, VeGen's offline phase emits C++ pattern-matching code (one
//! `match_*` function per operation, Fig. 4(c)); at compile time the
//! vectorizer runs every matcher over the scalar program and records the
//! results in a *match table* keyed by `(live-out, operation)`.
//!
//! Here the "generated" matchers are data: each VIDL operation is
//! translated to a tiny IR function, pushed through the *same*
//! canonicalizer as input programs (the `instcombine` trick of §6), and the
//! resulting tree — the canonicalized VIDL [`Expr`](vegen_vidl::Expr), the
//! only expression type there is — is walked by a backtracking structural
//! matcher that understands commutativity (`m_c_Add`-style) and select/cmp
//! inversion — the two robustness measures §6 calls out.
//!
//! [`TargetDesc`] bundles the deduplicated operation registry, the per-lane
//! operation ids of every target instruction, and the static lane-binding
//! tables — the complete "target description library" the vectorization
//! algorithm consumes.

pub mod pattern;
pub mod table;

pub use pattern::{pattern_of_operation, try_pattern_of_operation, PatternError};
pub use table::{DescInst, Match, MatchTable, OpId, OpRegistry, TableError, TargetDesc};
