//! Instructions.

use crate::constant::Constant;
use crate::function::ValueId;
use crate::types::Type;
use std::fmt;

/// Binary opcodes.
///
/// Integer arithmetic wraps (like LLVM without `nsw`/`nuw`); shifts with an
/// out-of-range amount produce 0 (a deliberate total semantics so random
/// testing never hits UB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Every opcode, in declaration order.
    pub const ALL: [BinOp; 17] = {
        use BinOp::*;
        [
            Add, Sub, Mul, SDiv, UDiv, SRem, URem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul,
            FDiv,
        ]
    };

    /// The opcode [`BinOp::name`] spells `name`: the inverse every text
    /// format (VIDL, cache entries) reads opcode names with. A `match`, as
    /// the parsers it replaced were; `tests/names.rs` holds the two
    /// directions together.
    pub fn from_name(name: &str) -> Option<BinOp> {
        Some(match name {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "udiv" => BinOp::UDiv,
            "srem" => BinOp::SRem,
            "urem" => BinOp::URem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            _ => return None,
        })
    }

    /// True if `op(a, b) == op(b, a)`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// True for the floating-point opcodes.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Cast opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CastOp {
    /// Sign-extend to a wider integer type.
    SExt,
    /// Zero-extend to a wider integer type.
    ZExt,
    /// Truncate to a narrower integer type.
    Trunc,
    /// `f32` to `f64`.
    FPExt,
    /// `f64` to `f32`.
    FPTrunc,
    /// Signed integer to float.
    SIToFP,
    /// Unsigned integer to float.
    UIToFP,
    /// Float to signed integer (saturating toward the LLVM `fptosi` poison
    /// case being defined as clamping here, again for total semantics).
    FPToSI,
}

impl CastOp {
    /// Every cast, in declaration order.
    pub const ALL: [CastOp; 8] = {
        use CastOp::*;
        [SExt, ZExt, Trunc, FPExt, FPTrunc, SIToFP, UIToFP, FPToSI]
    };

    /// The cast [`CastOp::name`] spells `name`.
    pub fn from_name(name: &str) -> Option<CastOp> {
        Some(match name {
            "sext" => CastOp::SExt,
            "zext" => CastOp::ZExt,
            "trunc" => CastOp::Trunc,
            "fpext" => CastOp::FPExt,
            "fptrunc" => CastOp::FPTrunc,
            "sitofp" => CastOp::SIToFP,
            "uitofp" => CastOp::UIToFP,
            "fptosi" => CastOp::FPToSI,
            _ => return None,
        })
    }

    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            CastOp::SExt => "sext",
            CastOp::ZExt => "zext",
            CastOp::Trunc => "trunc",
            CastOp::FPExt => "fpext",
            CastOp::FPTrunc => "fptrunc",
            CastOp::SIToFP => "sitofp",
            CastOp::UIToFP => "uitofp",
            CastOp::FPToSI => "fptosi",
        }
    }
}

/// Comparison predicates (integer signed/unsigned and ordered float).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum CmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    Feq,
    Fne,
    Flt,
    Fle,
    Fgt,
    Fge,
}

impl CmpPred {
    /// Every predicate, in declaration order.
    pub const ALL: [CmpPred; 16] = {
        use CmpPred::*;
        [Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge, Feq, Fne, Flt, Fle, Fgt, Fge]
    };

    /// The predicate [`CmpPred::name`] spells `name`.
    pub fn from_name(name: &str) -> Option<CmpPred> {
        use CmpPred::*;
        Some(match name {
            "eq" => Eq,
            "ne" => Ne,
            "slt" => Slt,
            "sle" => Sle,
            "sgt" => Sgt,
            "sge" => Sge,
            "ult" => Ult,
            "ule" => Ule,
            "ugt" => Ugt,
            "uge" => Uge,
            "feq" => Feq,
            "fne" => Fne,
            "flt" => Flt,
            "fle" => Fle,
            "fgt" => Fgt,
            "fge" => Fge,
            _ => return None,
        })
    }

    /// The predicate with operands swapped: `a pred b == b swap(pred) a`.
    pub fn swapped(self) -> CmpPred {
        use CmpPred::*;
        match self {
            Eq => Eq,
            Ne => Ne,
            Slt => Sgt,
            Sle => Sge,
            Sgt => Slt,
            Sge => Sle,
            Ult => Ugt,
            Ule => Uge,
            Ugt => Ult,
            Uge => Ule,
            Feq => Feq,
            Fne => Fne,
            Flt => Fgt,
            Fle => Fge,
            Fgt => Flt,
            Fge => Fle,
        }
    }

    /// The logical negation: `!(a pred b) == a inverse(pred) b`.
    ///
    /// For the ordered float predicates this is only exact in the absence of
    /// NaNs; the canonicalizer uses it only where the paper's matcher would
    /// (select/cmp inversion under fast-math).
    pub fn inverse(self) -> CmpPred {
        use CmpPred::*;
        match self {
            Eq => Ne,
            Ne => Eq,
            Slt => Sge,
            Sle => Sgt,
            Sgt => Sle,
            Sge => Slt,
            Ult => Uge,
            Ule => Ugt,
            Ugt => Ule,
            Uge => Ult,
            Feq => Fne,
            Fne => Feq,
            Flt => Fge,
            Fle => Fgt,
            Fgt => Fle,
            Fge => Flt,
        }
    }

    /// True for the float predicates.
    pub fn is_float(self) -> bool {
        use CmpPred::*;
        matches!(self, Feq | Fne | Flt | Fle | Fgt | Fge)
    }

    /// Mnemonic used by the printer.
    pub fn name(self) -> &'static str {
        use CmpPred::*;
        match self {
            Eq => "eq",
            Ne => "ne",
            Slt => "slt",
            Sle => "sle",
            Sgt => "sgt",
            Sge => "sge",
            Ult => "ult",
            Ule => "ule",
            Ugt => "ugt",
            Uge => "uge",
            Feq => "feq",
            Fne => "fne",
            Flt => "flt",
            Fle => "fle",
            Fgt => "fgt",
            Fge => "fge",
        }
    }
}

/// A memory location: a parameter buffer plus a constant element offset.
///
/// All addressing in the kernels the paper evaluates is affine with
/// constant offsets after unrolling, and contiguity checks (for load/store
/// packs) reduce to consecutive offsets on the same base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemLoc {
    /// Index of the pointer parameter.
    pub base: usize,
    /// Element offset into the buffer.
    pub offset: i64,
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arg{}[{}]", self.base, self.offset)
    }
}

/// The operation an instruction performs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum InstKind {
    /// A typed constant.
    Const(Constant),
    /// Binary operation.
    Bin { op: BinOp, lhs: ValueId, rhs: ValueId },
    /// Floating-point negation.
    FNeg { arg: ValueId },
    /// Conversion.
    Cast { op: CastOp, arg: ValueId },
    /// Comparison producing `i1`.
    Cmp { pred: CmpPred, lhs: ValueId, rhs: ValueId },
    /// `cond ? on_true : on_false`.
    Select { cond: ValueId, on_true: ValueId, on_false: ValueId },
    /// Load from a buffer.
    Load { loc: MemLoc },
    /// Store to a buffer.
    Store { loc: MemLoc, value: ValueId },
}

/// An instruction: an [`InstKind`] plus its result type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// What the instruction does.
    pub kind: InstKind,
    /// Result type (`Void` for stores).
    pub ty: Type,
}

/// An instruction's value operands, held inline (no instruction has more
/// than three). Derefs to `&[ValueId]`; iterating by value yields the
/// operands in order.
#[derive(Clone, Copy)]
pub struct Operands {
    ids: [ValueId; 3],
    len: u8,
}

impl Operands {
    fn new(ops: &[ValueId]) -> Operands {
        let mut ids = [ValueId::from_raw(0); 3];
        ids[..ops.len()].copy_from_slice(ops);
        Operands { ids, len: ops.len() as u8 }
    }
}

impl std::ops::Deref for Operands {
    type Target = [ValueId];

    fn deref(&self) -> &[ValueId] {
        &self.ids[..self.len as usize]
    }
}

impl IntoIterator for Operands {
    type Item = ValueId;
    type IntoIter = std::iter::Take<std::array::IntoIter<ValueId, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Inst {
    /// The value operands, in order.
    pub fn operands(&self) -> Operands {
        match &self.kind {
            InstKind::Const(_) | InstKind::Load { .. } => Operands::new(&[]),
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                Operands::new(&[*lhs, *rhs])
            }
            InstKind::FNeg { arg } | InstKind::Cast { arg, .. } => Operands::new(&[*arg]),
            InstKind::Select { cond, on_true, on_false } => {
                Operands::new(&[*cond, *on_true, *on_false])
            }
            InstKind::Store { value, .. } => Operands::new(&[*value]),
        }
    }

    /// Rewrite each operand through `f` in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match &mut self.kind {
            InstKind::Const(_) | InstKind::Load { .. } => {}
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::FNeg { arg } | InstKind::Cast { arg, .. } => *arg = f(*arg),
            InstKind::Select { cond, on_true, on_false } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            InstKind::Store { value, .. } => *value = f(*value),
        }
    }

    /// True for instructions with no side effects (everything but stores).
    pub fn is_pure(&self) -> bool {
        !matches!(self.kind, InstKind::Store { .. })
    }

    /// True if the instruction reads or writes memory.
    pub fn touches_memory(&self) -> bool {
        matches!(self.kind, InstKind::Load { .. } | InstKind::Store { .. })
    }

    /// The memory location accessed, if any.
    pub fn mem_loc(&self) -> Option<MemLoc> {
        match self.kind {
            InstKind::Load { loc } | InstKind::Store { loc, .. } => Some(loc),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::FMul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(!BinOp::FDiv.is_commutative());
    }

    #[test]
    fn predicate_swap_is_involution() {
        use CmpPred::*;
        for p in [Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge, Feq, Fne, Flt, Fle, Fgt, Fge] {
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.inverse().inverse(), p);
        }
    }

    #[test]
    fn predicate_swap_examples() {
        assert_eq!(CmpPred::Slt.swapped(), CmpPred::Sgt);
        assert_eq!(CmpPred::Fge.swapped(), CmpPred::Fle);
        assert_eq!(CmpPred::Slt.inverse(), CmpPred::Sge);
    }

    #[test]
    fn operand_lists() {
        let v0 = ValueId::from_raw(0);
        let v1 = ValueId::from_raw(1);
        let v2 = ValueId::from_raw(2);
        let sel =
            Inst { kind: InstKind::Select { cond: v0, on_true: v1, on_false: v2 }, ty: Type::I32 };
        assert_eq!(*sel.operands(), [v0, v1, v2]);
        assert_eq!(sel.operands().into_iter().collect::<Vec<_>>(), vec![v0, v1, v2]);
        let ld = Inst { kind: InstKind::Load { loc: MemLoc { base: 0, offset: 3 } }, ty: Type::I8 };
        assert!(ld.operands().is_empty());
        assert!(ld.touches_memory());
        assert!(ld.is_pure());
        let st = Inst {
            kind: InstKind::Store { loc: MemLoc { base: 1, offset: 0 }, value: v1 },
            ty: Type::Void,
        };
        assert!(!st.is_pure());
        assert_eq!(st.mem_loc(), Some(MemLoc { base: 1, offset: 0 }));
    }

    #[test]
    fn map_operands_rewrites_all() {
        let v0 = ValueId::from_raw(0);
        let v9 = ValueId::from_raw(9);
        let mut i =
            Inst { kind: InstKind::Bin { op: BinOp::Add, lhs: v0, rhs: v0 }, ty: Type::I32 };
        i.map_operands(|_| v9);
        assert_eq!(*i.operands(), [v9, v9]);
    }
}
