//! Vector program representation.

use vegen_ir::{Constant, Inst, InstKind, Param, Type};
use vegen_vidl::InstSemantics;

/// A virtual register (scalar or vector, decided by its defining
/// instruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One lane of a [`VmInst::Build`] data-movement instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum LaneSrc {
    /// Take lane `lane` of vector register `src`.
    FromVec { src: Reg, lane: usize },
    /// Insert the scalar register.
    FromScalar(Reg),
    /// An immediate constant lane.
    Const(Constant),
    /// Undefined (the consumer's don't-care lane); executes as zero.
    Undef,
}

/// A VM instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum VmInst {
    /// A scalar IR instruction over registers, into scalar register `dst`;
    /// `dst` is `None` exactly when `inst` is a store.
    Scalar { dst: Option<Reg>, inst: Inst<Reg> },
    /// Contiguous vector load of `lanes` elements starting at `start`.
    VecLoad { dst: Reg, base: usize, start: i64, lanes: usize, elem: Type },
    /// Contiguous vector store.
    VecStore { base: usize, start: i64, src: Reg },
    /// Target vector instruction: `sem` indexes [`VmProgram::sems`].
    VecOp { dst: Reg, sem: usize, args: Vec<Reg> },
    /// Virtual data movement: assemble a vector from lanes of other
    /// registers / scalars / constants. Lowered by a real backend to
    /// shuffles, inserts, broadcasts, or blends; the cost model classifies
    /// it the same way.
    Build { dst: Reg, elem: Type, lanes: Vec<LaneSrc> },
    /// Extract lane `lane` of `src` into a scalar register.
    Extract { dst: Reg, src: Reg, lane: usize },
}

impl VmInst {
    /// The register this instruction defines, if any (stores define none).
    pub fn def(&self) -> Option<Reg> {
        match self {
            VmInst::Scalar { dst, .. } => *dst,
            VmInst::VecLoad { dst, .. }
            | VmInst::VecOp { dst, .. }
            | VmInst::Build { dst, .. }
            | VmInst::Extract { dst, .. } => Some(*dst),
            VmInst::VecStore { .. } => None,
        }
    }

    /// Every register this instruction reads, in operand order (a register
    /// read twice appears twice). Loads read none; [`VmInst::Build`] reads
    /// only its `FromVec`/`FromScalar` lanes.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            VmInst::Scalar { inst, .. } => inst.operands().to_vec(),
            VmInst::VecLoad { .. } => vec![],
            VmInst::VecStore { src, .. } => vec![*src],
            VmInst::VecOp { args, .. } => args.clone(),
            VmInst::Build { lanes, .. } => lanes
                .iter()
                .filter_map(|l| match l {
                    LaneSrc::FromVec { src, .. } => Some(*src),
                    LaneSrc::FromScalar(r) => Some(*r),
                    LaneSrc::Const(_) | LaneSrc::Undef => None,
                })
                .collect(),
            VmInst::Extract { src, .. } => vec![*src],
        }
    }
}

/// A lowered vector program.
#[derive(Debug, Clone)]
pub struct VmProgram {
    /// Program name (usually the source function's).
    pub name: String,
    /// Buffer parameters (same layout as the scalar function's).
    pub params: Vec<Param>,
    /// The vector-instruction semantics referenced by [`VmInst::VecOp`].
    pub sems: Vec<InstSemantics>,
    /// Display mnemonics, parallel to `sems`.
    pub sem_asm: Vec<String>,
    /// Costs (2x inverse throughput), parallel to `sems`.
    pub sem_cost: Vec<f64>,
    /// Instructions in execution order.
    pub insts: Vec<VmInst>,
    /// Number of registers used.
    pub n_regs: usize,
}

impl VmProgram {
    /// New empty program.
    pub fn new(name: impl Into<String>, params: Vec<Param>) -> VmProgram {
        VmProgram {
            name: name.into(),
            params,
            sems: Vec::new(),
            sem_asm: Vec::new(),
            sem_cost: Vec::new(),
            insts: Vec::new(),
            n_regs: 0,
        }
    }

    /// Allocate a fresh register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.n_regs as u32);
        self.n_regs += 1;
        r
    }

    /// Register (or find) a vector-instruction semantics entry.
    pub fn intern_sem(&mut self, sem: &InstSemantics, asm: &str, cost: f64) -> usize {
        if let Some(i) = self.sems.iter().position(|s| s.name == sem.name) {
            return i;
        }
        self.sems.push(sem.clone());
        self.sem_asm.push(asm.to_string());
        self.sem_cost.push(cost);
        self.sems.len() - 1
    }

    /// Append an instruction.
    pub fn push(&mut self, inst: VmInst) {
        self.insts.push(inst);
    }

    /// Append a scalar instruction, giving it a fresh destination register
    /// unless it is a store; returns that register.
    pub fn push_scalar(&mut self, inst: Inst<Reg>) -> Option<Reg> {
        let dst = inst.is_pure().then(|| self.fresh_reg());
        self.push(VmInst::Scalar { dst, inst });
        dst
    }

    /// Number of "real" instructions — the metric Fig. 2 reports. Constant
    /// materializations and `Undef` handling don't count (they fold into
    /// immediates / constant-pool operands in real assembly).
    pub fn instruction_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| {
                !matches!(i, VmInst::Scalar { inst: Inst { kind: InstKind::Const(_), .. }, .. })
            })
            .count()
    }

    /// Number of vector-compute instructions.
    pub fn vector_op_count(&self) -> usize {
        self.insts.iter().filter(|i| matches!(i, VmInst::VecOp { .. })).count()
    }

    /// The distinct target instructions used (for "vector extensions used"
    /// style reporting).
    pub fn vector_ops_used(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .insts
            .iter()
            .filter_map(|i| match i {
                VmInst::VecOp { sem, .. } => Some(self.sem_asm[*sem].clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Classification of a [`VmInst::Build`] for costing and printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// Every lane is a constant or undef: a constant-pool load.
    ConstantVector,
    /// All lanes broadcast one scalar register.
    Broadcast,
    /// A (possibly partial) permutation of a single source vector.
    Permute,
    /// Lanes drawn from exactly two source vectors (a shuffle/blend).
    TwoSourceShuffle,
    /// General case: scalar insertions (possibly mixed with vector lanes).
    Insert {
        /// Number of scalar insertions required.
        scalar_lanes: usize,
        /// Number of distinct vector sources mixed in.
        vec_sources: usize,
    },
}

/// Classify a build's lanes.
pub fn classify_build(lanes: &[LaneSrc]) -> BuildKind {
    let mut scalar_regs: Vec<Reg> = Vec::new();
    let mut vec_srcs: Vec<Reg> = Vec::new();
    let mut all_const = true;
    for l in lanes {
        match l {
            LaneSrc::Const(_) | LaneSrc::Undef => {}
            LaneSrc::FromScalar(r) => {
                all_const = false;
                scalar_regs.push(*r);
            }
            LaneSrc::FromVec { src, .. } => {
                all_const = false;
                if !vec_srcs.contains(src) {
                    vec_srcs.push(*src);
                }
            }
        }
    }
    if all_const {
        return BuildKind::ConstantVector;
    }
    if vec_srcs.is_empty() {
        let first = scalar_regs[0];
        if scalar_regs.len() == lanes.len() && scalar_regs.iter().all(|r| *r == first) {
            return BuildKind::Broadcast;
        }
        return BuildKind::Insert { scalar_lanes: scalar_regs.len(), vec_sources: 0 };
    }
    if scalar_regs.is_empty() {
        return match vec_srcs.len() {
            1 => BuildKind::Permute,
            2 => BuildKind::TwoSourceShuffle,
            n => BuildKind::Insert { scalar_lanes: 0, vec_sources: n },
        };
    }
    BuildKind::Insert { scalar_lanes: scalar_regs.len(), vec_sources: vec_srcs.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_covers_every_instruction_kind() {
        let loc = vegen_ir::MemLoc { base: 0, offset: 0 };
        let mut p = VmProgram::new("t", vec![]);
        let x = p.push_scalar(Inst { kind: InstKind::Load { loc }, ty: Type::I32 });
        assert_eq!(x, Some(Reg(0)));
        let x = Reg(0);
        let sum = Inst {
            kind: InstKind::Bin { op: vegen_ir::BinOp::Add, lhs: x, rhs: x },
            ty: Type::I32,
        };
        assert_eq!(p.push_scalar(sum), Some(Reg(1)));
        let st = Inst { kind: InstKind::Store { loc, value: Reg(1) }, ty: Type::Void };
        assert_eq!(p.push_scalar(st), None, "a store defines no register");
        let uses: Vec<Vec<Reg>> = p.insts.iter().map(VmInst::uses).collect();
        assert_eq!(uses, [vec![], vec![x, x], vec![Reg(1)]]);
        assert_eq!(p.insts[2].def(), None);
        let store = VmInst::VecStore { base: 0, start: 0, src: Reg(1) };
        assert_eq!(store.def(), None);
        assert_eq!(store.uses(), vec![Reg(1)]);
        let load = VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 4, elem: Type::I32 };
        assert_eq!(load.def(), Some(Reg(0)));
        assert!(load.uses().is_empty());
        let op = VmInst::VecOp { dst: Reg(2), sem: 0, args: vec![Reg(0), Reg(0)] };
        assert_eq!(op.def(), Some(Reg(2)));
        assert_eq!(op.uses(), vec![Reg(0), Reg(0)], "repeated reads appear per operand");
        let build = VmInst::Build {
            dst: Reg(3),
            elem: Type::I32,
            lanes: vec![
                LaneSrc::FromVec { src: Reg(2), lane: 1 },
                LaneSrc::FromScalar(Reg(4)),
                LaneSrc::Const(Constant::int(Type::I32, 7)),
                LaneSrc::Undef,
            ],
        };
        assert_eq!(build.def(), Some(Reg(3)));
        assert_eq!(build.uses(), vec![Reg(2), Reg(4)], "const/undef lanes read nothing");
    }

    #[test]
    fn classify_constant_vector() {
        let lanes = vec![
            LaneSrc::Const(Constant::int(Type::I32, 1)),
            LaneSrc::Undef,
            LaneSrc::Const(Constant::int(Type::I32, 2)),
            LaneSrc::Const(Constant::int(Type::I32, 3)),
        ];
        assert_eq!(classify_build(&lanes), BuildKind::ConstantVector);
    }

    #[test]
    fn classify_broadcast() {
        let r = Reg(3);
        let lanes = vec![LaneSrc::FromScalar(r); 4];
        assert_eq!(classify_build(&lanes), BuildKind::Broadcast);
    }

    #[test]
    fn classify_permute_and_shuffle() {
        let a = Reg(0);
        let b = Reg(1);
        let perm = vec![LaneSrc::FromVec { src: a, lane: 1 }, LaneSrc::FromVec { src: a, lane: 0 }];
        assert_eq!(classify_build(&perm), BuildKind::Permute);
        let shuf = vec![LaneSrc::FromVec { src: a, lane: 0 }, LaneSrc::FromVec { src: b, lane: 0 }];
        assert_eq!(classify_build(&shuf), BuildKind::TwoSourceShuffle);
    }

    #[test]
    fn classify_inserts() {
        let lanes = vec![LaneSrc::FromScalar(Reg(0)), LaneSrc::FromScalar(Reg(1))];
        assert_eq!(classify_build(&lanes), BuildKind::Insert { scalar_lanes: 2, vec_sources: 0 });
        let mixed = vec![LaneSrc::FromVec { src: Reg(7), lane: 0 }, LaneSrc::FromScalar(Reg(1))];
        assert_eq!(classify_build(&mixed), BuildKind::Insert { scalar_lanes: 1, vec_sources: 1 });
    }

    #[test]
    fn instruction_counting_skips_consts() {
        let mut p = VmProgram::new("t", vec![]);
        let one = Constant::int(Type::I32, 1);
        p.push_scalar(Inst { kind: InstKind::Const(one), ty: Type::I32 });
        let loc = vegen_ir::MemLoc { base: 0, offset: 0 };
        p.push_scalar(Inst { kind: InstKind::Load { loc }, ty: Type::I32 });
        assert_eq!(p.instruction_count(), 1);
    }
}
