#![warn(missing_docs)]

//! Vector packs and pack selection — the target-independent heart of VeGen
//! (§4.4, §5).
//!
//! Given a (canonicalized) scalar function and a
//! [`TargetDesc`](vegen_match::TargetDesc), this crate:
//!
//! 1. builds the match table and dependence graph
//!    ([`ctx::VectorizerCtx`]),
//! 2. enumerates affinity-scored seed packs (Fig. 8, [`seeds`]) and, from
//!    them, every *producer pack* the search can reach (Algorithm 1,
//!    [`ctx::VectorizerCtx::producers`]) into one frozen candidate arena
//!    ([`frozen::FrozenCtx`], [`intern`]),
//! 3. scores alternatives with the cost model of §6.2 ([`cost`]) and the
//!    `costSLP` dynamic program of Fig. 7 ([`frozen::FrozenSlp`]), and
//! 4. selects the final pack set with beam search over (V, S, F) states
//!    (Fig. 9, [`beam`]) — beam width 1 being exactly the SLP heuristic.
//!
//! The output is a [`PackSet`] the code generator lowers to a vector
//! program.

pub mod beam;
mod bits;
pub mod cost;
pub mod ctx;
pub mod frozen;
pub mod intern;
pub mod operand;
pub mod pack;
#[cfg(test)]
mod reference_arena;
pub mod seeds;
#[cfg(test)]
mod testutil;

pub use beam::{
    describe_pack, select_packs, select_packs_reusing, BeamConfig, BeamStats, CancelToken,
    CandidateLog, CommittedPack, DecisionLog, IterationLog, SearchBudget, SelectError,
    SelectionResult, SelectionReuse,
};
pub use cost::CostModel;
pub use ctx::VectorizerCtx;
pub use frozen::{FrozenCtx, FrozenSlp};
pub use intern::{OperandId, PackId};
pub use operand::OperandVec;
pub use pack::{Pack, PackSet, SetPackId};
