//! Convenience builder for constructing IR functions.

use crate::constant::Constant;
use crate::function::{Function, Param, ValueId};
use crate::inst::{BinOp, CastOp, CmpPred, Inst, InstKind, MemLoc};
use crate::types::Type;

/// Handle to a buffer parameter returned by [`FunctionBuilder::param`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Incrementally builds a [`Function`].
///
/// Result types are inferred from operands; the builder panics on obvious
/// type errors so kernel-construction bugs surface at build time rather
/// than in the verifier.
///
/// # Example
///
/// ```
/// use vegen_ir::{FunctionBuilder, Type};
/// let mut b = FunctionBuilder::new("axpy1");
/// let x = b.param("x", Type::F32, 1);
/// let y = b.param("y", Type::F32, 1);
/// let xv = b.load(x, 0);
/// let yv = b.load(y, 0);
/// let s = b.fadd(xv, yv);
/// b.store(y, 0, s);
/// let f = b.finish();
/// assert_eq!(f.insts.len(), 4);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
}

impl FunctionBuilder {
    /// Start building a function with the given name.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder { f: Function::new(name) }
    }

    /// Declare a buffer parameter of `len` elements of `elem_ty`.
    pub fn param(&mut self, name: impl Into<String>, elem_ty: Type, len: usize) -> ParamId {
        self.f.params.push(Param { name: name.into(), elem_ty, len });
        ParamId(self.f.params.len() - 1)
    }

    /// The function built so far (useful for inspecting types mid-build).
    pub fn function(&self) -> &Function {
        &self.f
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.f
    }

    fn ty(&self, v: ValueId) -> Type {
        self.f.ty(v)
    }

    /// An integer constant of type `ty`.
    pub fn iconst(&mut self, ty: Type, v: i64) -> ValueId {
        self.f.push(Inst { kind: InstKind::Const(Constant::int(ty, v)), ty })
    }

    /// An `f32` constant.
    pub fn f32const(&mut self, v: f32) -> ValueId {
        self.f.push(Inst { kind: InstKind::Const(Constant::f32(v)), ty: Type::F32 })
    }

    /// An `f64` constant.
    pub fn f64const(&mut self, v: f64) -> ValueId {
        self.f.push(Inst { kind: InstKind::Const(Constant::f64(v)), ty: Type::F64 })
    }

    /// An arbitrary constant.
    pub fn constant(&mut self, c: Constant) -> ValueId {
        self.f.push(Inst { kind: InstKind::Const(c), ty: c.ty() })
    }

    /// Load element `offset` of parameter `p`.
    pub fn load(&mut self, p: ParamId, offset: i64) -> ValueId {
        let ty = self.f.params[p.0].elem_ty;
        self.f.push(Inst { kind: InstKind::Load { loc: MemLoc { base: p.0, offset } }, ty })
    }

    /// Store `value` to element `offset` of parameter `p`.
    ///
    /// # Panics
    ///
    /// Panics if the value type does not match the buffer element type.
    pub fn store(&mut self, p: ParamId, offset: i64, value: ValueId) -> ValueId {
        let elem = self.f.params[p.0].elem_ty;
        let vty = self.ty(value);
        assert_eq!(elem, vty, "store of {vty} into {elem} buffer");
        self.f.push(Inst {
            kind: InstKind::Store { loc: MemLoc { base: p.0, offset }, value },
            ty: Type::Void,
        })
    }

    /// A binary operation; operand types must match.
    ///
    /// # Panics
    ///
    /// Panics on mismatched operand types or float/int mismatch with the op.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let lt = self.ty(lhs);
        let rt = self.ty(rhs);
        assert_eq!(lt, rt, "binop {op:?} on {lt} and {rt}");
        assert_eq!(op.is_float(), lt.is_float(), "binop {op:?} on {lt}");
        self.f.push(Inst { kind: InstKind::Bin { op, lhs, rhs }, ty: lt })
    }

    /// Integer or pointer-free `add`.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Add, a, b)
    }
    /// Integer `sub`.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Sub, a, b)
    }
    /// Integer `mul`.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Mul, a, b)
    }
    /// Bitwise `and`.
    pub fn and(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::And, a, b)
    }
    /// Bitwise `or`.
    pub fn or(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Or, a, b)
    }
    /// Bitwise `xor`.
    pub fn xor(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Xor, a, b)
    }
    /// Left shift.
    pub fn shl(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Shl, a, b)
    }
    /// Arithmetic right shift.
    pub fn ashr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::AShr, a, b)
    }
    /// Logical right shift.
    pub fn lshr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::LShr, a, b)
    }
    /// Float add.
    pub fn fadd(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::FAdd, a, b)
    }
    /// Float sub.
    pub fn fsub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::FSub, a, b)
    }
    /// Float mul.
    pub fn fmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::FMul, a, b)
    }
    /// Float div.
    pub fn fdiv(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::FDiv, a, b)
    }

    /// Floating-point negation.
    pub fn fneg(&mut self, a: ValueId) -> ValueId {
        let ty = self.ty(a);
        assert!(ty.is_float());
        self.f.push(Inst { kind: InstKind::FNeg { arg: a }, ty })
    }

    /// A cast to `to`.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical casts (e.g. `sext` to a narrower type).
    pub fn cast(&mut self, op: CastOp, a: ValueId, to: Type) -> ValueId {
        let from = self.ty(a);
        assert!(op.fits(from, to), "invalid cast {op:?} from {from} to {to}");
        self.f.push(Inst { kind: InstKind::Cast { op, arg: a }, ty: to })
    }

    /// Sign-extension.
    pub fn sext(&mut self, a: ValueId, to: Type) -> ValueId {
        self.cast(CastOp::SExt, a, to)
    }
    /// Zero-extension.
    pub fn zext(&mut self, a: ValueId, to: Type) -> ValueId {
        self.cast(CastOp::ZExt, a, to)
    }
    /// Truncation.
    pub fn trunc(&mut self, a: ValueId, to: Type) -> ValueId {
        self.cast(CastOp::Trunc, a, to)
    }

    /// A comparison producing `i1`.
    ///
    /// # Panics
    ///
    /// Panics on operand type mismatch or predicate/type mismatch.
    pub fn cmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        let lt = self.ty(lhs);
        let rt = self.ty(rhs);
        assert_eq!(lt, rt, "cmp {pred:?} on {lt} and {rt}");
        assert_eq!(pred.is_float(), lt.is_float(), "cmp {pred:?} on {lt}");
        self.f.push(Inst { kind: InstKind::Cmp { pred, lhs, rhs }, ty: Type::I1 })
    }

    /// `cond ? t : e`.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not `i1` or arm types differ.
    pub fn select(&mut self, cond: ValueId, t: ValueId, e: ValueId) -> ValueId {
        assert_eq!(self.ty(cond), Type::I1);
        let tt = self.ty(t);
        assert_eq!(tt, self.ty(e));
        self.f.push(Inst { kind: InstKind::Select { cond, on_true: t, on_false: e }, ty: tt })
    }

    /// `min(a, b)` via cmp+select using the given "less-than" predicate.
    pub fn min_via_select(&mut self, lt_pred: CmpPred, a: ValueId, b: ValueId) -> ValueId {
        let c = self.cmp(lt_pred, a, b);
        self.select(c, a, b)
    }

    /// `max(a, b)` via cmp+select using the given "greater-than" predicate.
    pub fn max_via_select(&mut self, gt_pred: CmpPred, a: ValueId, b: ValueId) -> ValueId {
        let c = self.cmp(gt_pred, a, b);
        self.select(c, a, b)
    }

    /// Clamp an integer value into `[lo, hi]` with cmp+select chains (the
    /// scalar shape of saturation, as in x265's idct kernels). Both
    /// comparisons test the original value, matching the form saturating
    /// instruction semantics lower to.
    pub fn clamp(&mut self, v: ValueId, lo: i64, hi: i64) -> ValueId {
        let ty = self.ty(v);
        let lo_c = self.iconst(ty, lo);
        let hi_c = self.iconst(ty, hi);
        let too_big = self.cmp(CmpPred::Sgt, v, hi_c);
        let too_small = self.cmp(CmpPred::Slt, v, lo_c);
        let lo_clamped = self.select(too_small, lo_c, v);
        self.select(too_big, hi_c, lo_clamped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_typed_insts() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 4);
        let x = b.load(p, 0);
        let w = b.sext(x, Type::I32);
        assert_eq!(b.function().ty(w), Type::I32);
        let c = b.iconst(Type::I32, 5);
        let s = b.add(w, c);
        assert_eq!(b.function().ty(s), Type::I32);
    }

    #[test]
    #[should_panic(expected = "binop")]
    fn rejects_mixed_type_binop() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 1);
        let q = b.param("B", Type::I32, 1);
        let x = b.load(p, 0);
        let y = b.load(q, 0);
        b.add(x, y);
    }

    #[test]
    #[should_panic(expected = "invalid cast")]
    fn rejects_narrowing_sext() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let x = b.load(p, 0);
        b.sext(x, Type::I16);
    }

    #[test]
    fn clamp_shape() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let x = b.load(p, 0);
        let c = b.clamp(x, -32768, 32767);
        let f = b.finish();
        // load + 2 consts + 2 cmps + 2 selects
        assert_eq!(f.insts.len(), 7);
        assert!(matches!(f.inst(c).kind, InstKind::Select { .. }));
    }

    #[test]
    fn min_max_helpers() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::F64, 2);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let mn = b.min_via_select(CmpPred::Flt, x, y);
        let mx = b.max_via_select(CmpPred::Fgt, x, y);
        assert!(matches!(b.function().inst(mn).kind, InstKind::Select { .. }));
        assert!(matches!(b.function().inst(mx).kind, InstKind::Select { .. }));
    }
}
