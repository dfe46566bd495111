//! Lane-provenance translation validation (the static analogue of §6.1's
//! offline validation, applied per compilation).
//!
//! Both the prepared scalar [`Function`] and the lowered [`VmProgram`] are
//! evaluated *symbolically* over a shared hash-consed expression arena:
//! every loaded lane starts as an opaque `Init(base, offset)` leaf, every
//! computation builds an interned expression node, and every store writes a
//! symbolic memory cell. If the two final symbolic memories agree cell for
//! cell, every stored lane of the vector program provably computes the same
//! function of the inputs as the scalar store it replaced — for *all*
//! memory images, without executing either program.
//!
//! Interned nodes are normalized at construction with exactly the liberties
//! the structural matcher takes (see `vegen_match::pattern`): commutative
//! operands are sorted, comparisons are oriented by operand order with
//! [`CmpPred::swapped`], selects over non-canonical predicates are rewritten
//! through [`CmpPred::inverse`] with swapped arms, and constant subtrees are
//! folded with the interpreter's own [`eval_bin`]/[`eval_fneg`]/
//! [`eval_cmp`]/[`eval_cast`] (which absorbs the matcher's narrow-constant
//! liberty: the VM computes `sext(83:i16)` where the IR had `83:i32`, and
//! folding makes them the same node). Because the normalization at each node is a function of the
//! already-interned children, equal programs reach equal `SymId`s no matter
//! which side interned first.
//!
//! [`VmInst::VecOp`] lanes are evaluated through the *pattern* of the
//! lane's operation — [`pattern_of_operation`] with the same
//! `canonicalize_patterns` flag the match table was built with — so the
//! analysis replays precisely the shapes the matcher certified, for both
//! the default and the Fig. 11 ablation configuration.

use crate::diag::{Diagnostic, Location};
use std::collections::HashMap;
use vegen_ir::interp::{eval_bin, eval_cast, eval_cmp, eval_fneg};
use vegen_ir::{BinOp, CastOp, CmpPred, Constant, Function, Inst, InstKind, Param, Type};
use vegen_match::pattern_of_operation;
use vegen_vidl::Expr;
use vegen_vm::{LaneSrc, VmInst, VmProgram};

/// Outcome of validating one program against its scalar reference.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceResult {
    /// Mismatches and evaluation failures (all error severity).
    pub diagnostics: Vec<Diagnostic>,
    /// Stored memory cells proved equal to the scalar reference.
    pub lanes_proved: usize,
}

impl ProvenanceResult {
    /// True when every stored lane was proved.
    pub fn is_proved(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Statically prove `program`'s final memory equal to `f`'s, symbolically.
///
/// `canonicalize_patterns` must match the flag the program was compiled
/// with (it selects which pattern flavor VecOp lanes are replayed through).
pub fn validate(
    f: &Function,
    program: &VmProgram,
    canonicalize_patterns: bool,
) -> ProvenanceResult {
    let mut arena = Arena::default();
    let mut result = ProvenanceResult::default();

    let ir_mem = match eval_function(&mut arena, f) {
        Ok(mem) => mem,
        Err(d) => {
            result.diagnostics.push(d);
            return result;
        }
    };
    let vm_mem = match eval_vm(&mut arena, program, canonicalize_patterns) {
        Ok(mem) => mem,
        Err(d) => {
            result.diagnostics.push(d);
            return result;
        }
    };

    // Compare the two final symbolic memories cell by cell. Iterate the
    // union of written locations in deterministic (base, offset) order.
    let mut keys: Vec<(usize, i64)> =
        ir_mem.cells.keys().chain(vm_mem.cells.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let (base, offset) = key;
        let loc = Location::Mem { base, offset };
        let name = |p: &[Param]| p.get(base).map_or("?".to_string(), |p| p.name.clone());
        match (ir_mem.cells.get(&key), vm_mem.cells.get(&key)) {
            (Some(&a), Some(&b)) if a == b => result.lanes_proved += 1,
            (Some(&a), Some(&b)) => {
                let writer = vm_mem.writer(key);
                let msg = if arena.has_undef(b) {
                    format!(
                        "don't-care lane stored to {}[{offset}]: {} computes an undef-derived \
                         value where the scalar program stores {}",
                        name(&f.params),
                        writer,
                        arena.render(&f.params, a),
                    )
                } else {
                    format!(
                        "stored lane differs at {}[{offset}]: {} computes {} but the scalar \
                         program stores {}",
                        name(&f.params),
                        writer,
                        arena.render(&f.params, b),
                        arena.render(&f.params, a),
                    )
                };
                result.diagnostics.push(Diagnostic::error(loc, msg));
            }
            (Some(_), None) => {
                result.diagnostics.push(Diagnostic::error(
                    loc,
                    format!(
                        "missing store: the scalar program writes {}[{offset}] but the vector \
                         program never does",
                        name(&f.params)
                    ),
                ));
            }
            (None, Some(_)) => {
                let writer = vm_mem.writer(key);
                result.diagnostics.push(Diagnostic::error(
                    loc,
                    format!(
                        "extra store: {} writes {}[{offset}], which the scalar program never \
                         touches",
                        writer,
                        name(&f.params)
                    ),
                ));
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    result
}

/// Interned symbolic-expression id. Equal ids mean structurally equal
/// normalized expressions (hash-consing).
pub(crate) type SymId = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum SymExpr {
    /// The initial contents of `base[offset]` — an opaque input.
    Init {
        base: usize,
        offset: i64,
        ty: Type,
    },
    Const(Constant),
    /// An undefined value (a don't-care lane).
    Undef(Type),
    Bin {
        op: BinOp,
        lhs: SymId,
        rhs: SymId,
    },
    FNeg {
        arg: SymId,
    },
    Cast {
        op: CastOp,
        to: Type,
        arg: SymId,
    },
    Cmp {
        pred: CmpPred,
        lhs: SymId,
        rhs: SymId,
    },
    Select {
        cond: SymId,
        on_true: SymId,
        on_false: SymId,
    },
}

/// The canonical half of each `(pred, pred.inverse())` pair. Selects whose
/// condition uses a predicate from the other half are normalized by
/// inverting the predicate and swapping the arms — the same rewrite the
/// matcher accepts when matching selects.
pub(crate) fn canonical_pred(p: CmpPred) -> bool {
    use CmpPred::*;
    matches!(p, Eq | Slt | Sle | Ult | Ule | Feq | Flt | Fle)
}

#[derive(Default)]
pub(crate) struct Arena {
    nodes: Vec<SymExpr>,
    interned: HashMap<SymExpr, SymId>,
}

impl Arena {
    pub(crate) fn intern(&mut self, e: SymExpr) -> SymId {
        if let Some(&id) = self.interned.get(&e) {
            return id;
        }
        let id = self.nodes.len() as SymId;
        self.nodes.push(e.clone());
        self.interned.insert(e, id);
        id
    }

    pub(crate) fn node(&self, id: SymId) -> &SymExpr {
        &self.nodes[id as usize]
    }

    pub(crate) fn mk_const(&mut self, c: Constant) -> SymId {
        self.intern(SymExpr::Const(c))
    }

    pub(crate) fn mk_undef(&mut self, ty: Type) -> SymId {
        self.intern(SymExpr::Undef(ty))
    }

    pub(crate) fn mk_init(&mut self, base: usize, offset: i64, ty: Type) -> SymId {
        self.intern(SymExpr::Init { base, offset, ty })
    }

    pub(crate) fn as_const(&self, id: SymId) -> Option<Constant> {
        match self.node(id) {
            SymExpr::Const(c) => Some(*c),
            _ => None,
        }
    }

    pub(crate) fn mk_bin(&mut self, op: BinOp, lhs: SymId, rhs: SymId) -> SymId {
        if let (Some(a), Some(b)) = (self.as_const(lhs), self.as_const(rhs)) {
            // Fold only when the interpreter agrees the result is defined
            // (division by a constant zero stays symbolic on both sides).
            if let Ok(c) = eval_bin(op, a, b) {
                return self.mk_const(c);
            }
        }
        let (lhs, rhs) = if op.is_commutative() && lhs > rhs { (rhs, lhs) } else { (lhs, rhs) };
        self.intern(SymExpr::Bin { op, lhs, rhs })
    }

    pub(crate) fn mk_fneg(&mut self, arg: SymId) -> SymId {
        if let Some(Ok(c)) = self.as_const(arg).map(eval_fneg) {
            return self.mk_const(c);
        }
        self.intern(SymExpr::FNeg { arg })
    }

    pub(crate) fn mk_cast(&mut self, op: CastOp, to: Type, arg: SymId) -> SymId {
        if let Some(Ok(c)) = self.as_const(arg).map(|c| eval_cast(op, c, to)) {
            return self.mk_const(c);
        }
        self.intern(SymExpr::Cast { op, to, arg })
    }

    pub(crate) fn mk_cmp(&mut self, pred: CmpPred, lhs: SymId, rhs: SymId) -> SymId {
        if let (Some(a), Some(b)) = (self.as_const(lhs), self.as_const(rhs)) {
            if let Ok(c) = eval_cmp(pred, a, b) {
                return self.mk_const(c);
            }
        }
        let (pred, lhs, rhs) =
            if lhs > rhs { (pred.swapped(), rhs, lhs) } else { (pred, lhs, rhs) };
        self.intern(SymExpr::Cmp { pred, lhs, rhs })
    }

    pub(crate) fn mk_select(&mut self, cond: SymId, on_true: SymId, on_false: SymId) -> SymId {
        if let Some(c) = self.as_const(cond) {
            return if c.is_zero() { on_false } else { on_true };
        }
        if let SymExpr::Cmp { pred, lhs, rhs } = *self.node(cond) {
            if !canonical_pred(pred) {
                let inv = self.mk_cmp(pred.inverse(), lhs, rhs);
                return self.intern(SymExpr::Select {
                    cond: inv,
                    on_true: on_false,
                    on_false: on_true,
                });
            }
        }
        self.intern(SymExpr::Select { cond, on_true, on_false })
    }

    /// True if the expression tree contains an `Undef` leaf.
    pub(crate) fn has_undef(&self, id: SymId) -> bool {
        let mut stack = vec![id];
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            match self.node(id) {
                SymExpr::Undef(_) => return true,
                SymExpr::Init { .. } | SymExpr::Const(_) => {}
                SymExpr::Bin { lhs, rhs, .. } | SymExpr::Cmp { lhs, rhs, .. } => {
                    stack.push(*lhs);
                    stack.push(*rhs);
                }
                SymExpr::FNeg { arg } | SymExpr::Cast { arg, .. } => stack.push(*arg),
                SymExpr::Select { cond, on_true, on_false } => {
                    stack.push(*cond);
                    stack.push(*on_true);
                    stack.push(*on_false);
                }
            }
        }
        false
    }

    /// Compact rendering for diagnostics, depth-capped so messages stay
    /// readable on deep expression trees.
    fn render(&self, params: &[Param], id: SymId) -> String {
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        self.render_depth(&names, id, 4)
    }

    /// Like [`Arena::render`], but with caller-supplied base names — the
    /// speccheck auditor renders over operation parameters, not IR params.
    pub(crate) fn render_named(&self, names: &[&str], id: SymId) -> String {
        self.render_depth(names, id, 4)
    }

    fn render_depth(&self, names: &[&str], id: SymId, depth: usize) -> String {
        if depth == 0 {
            return "…".to_string();
        }
        let sub = |this: &Arena, id| this.render_depth(names, id, depth - 1);
        match self.node(id) {
            SymExpr::Init { base, offset, .. } => {
                let name = names.get(*base).copied().unwrap_or("?");
                format!("{name}[{offset}]")
            }
            SymExpr::Const(c) => format!("{c}"),
            SymExpr::Undef(ty) => format!("undef:{ty}"),
            SymExpr::Bin { op, lhs, rhs } => {
                format!("{}({}, {})", op.name(), sub(self, *lhs), sub(self, *rhs))
            }
            SymExpr::FNeg { arg } => format!("fneg({})", sub(self, *arg)),
            SymExpr::Cast { op, to, arg } => format!("{}.{to}({})", op.name(), sub(self, *arg)),
            SymExpr::Cmp { pred, lhs, rhs } => {
                format!("{}({}, {})", pred.name(), sub(self, *lhs), sub(self, *rhs))
            }
            SymExpr::Select { cond, on_true, on_false } => {
                format!(
                    "select({}, {}, {})",
                    sub(self, *cond),
                    sub(self, *on_true),
                    sub(self, *on_false)
                )
            }
        }
    }
}

/// Symbolic memory: written cells plus (on the VM side) which instruction
/// wrote each cell last, for diagnostics.
#[derive(Default)]
struct SymMemory {
    cells: HashMap<(usize, i64), SymId>,
    writers: HashMap<(usize, i64), (usize, Option<usize>)>,
}

impl SymMemory {
    fn read(&mut self, arena: &mut Arena, base: usize, offset: i64, ty: Type) -> SymId {
        match self.cells.get(&(base, offset)) {
            Some(&s) => s,
            None => arena.mk_init(base, offset, ty),
        }
    }

    fn write(&mut self, base: usize, offset: i64, value: SymId, writer: (usize, Option<usize>)) {
        self.cells.insert((base, offset), value);
        self.writers.insert((base, offset), writer);
    }

    fn writer(&self, key: (usize, i64)) -> String {
        match self.writers.get(&key) {
            Some((idx, Some(lane))) => format!("vm inst #{idx} lane {lane}"),
            Some((idx, None)) => format!("vm inst #{idx}"),
            None => "the vector program".to_string(),
        }
    }
}

fn param_elem(params: &[Param], base: usize, at: Location) -> Result<Type, Diagnostic> {
    params
        .get(base)
        .map(|p| p.elem_ty)
        .ok_or_else(|| Diagnostic::error(at, format!("unknown parameter arg{base}")))
}

/// Symbolically execute one scalar instruction whose operands are already
/// symbolic: the step both the scalar function and the VM's scalar code
/// take. A store writes `mem` (recording `writer`) and yields a `Void`
/// undef.
fn step(
    arena: &mut Arena,
    mem: &mut SymMemory,
    params: &[Param],
    inst: &Inst<SymId>,
    writer: (usize, Option<usize>),
    at: Location,
) -> Result<SymId, Diagnostic> {
    Ok(match inst.kind {
        InstKind::Const(c) => arena.mk_const(c),
        InstKind::Bin { op, lhs, rhs } => arena.mk_bin(op, lhs, rhs),
        InstKind::FNeg { arg } => arena.mk_fneg(arg),
        InstKind::Cast { op, arg } => arena.mk_cast(op, inst.ty, arg),
        InstKind::Cmp { pred, lhs, rhs } => arena.mk_cmp(pred, lhs, rhs),
        InstKind::Select { cond, on_true, on_false } => arena.mk_select(cond, on_true, on_false),
        InstKind::Load { loc } => {
            let ty = param_elem(params, loc.base, at)?;
            mem.read(arena, loc.base, loc.offset, ty)
        }
        InstKind::Store { loc, value } => {
            param_elem(params, loc.base, at)?;
            mem.write(loc.base, loc.offset, value, writer);
            arena.mk_undef(Type::Void)
        }
    })
}

/// Symbolically execute the scalar function; return its final memory.
fn eval_function(arena: &mut Arena, f: &Function) -> Result<SymMemory, Diagnostic> {
    let mut mem = SymMemory::default();
    let mut vals: Vec<SymId> = Vec::with_capacity(f.insts.len());
    for (v, inst) in f.iter() {
        let inst = inst.map(|id| vals[id.index()]);
        // Stores define no value; their undef keeps the slots aligned.
        vals.push(step(arena, &mut mem, &f.params, &inst, (v.index(), None), Location::Value(v))?);
    }
    Ok(mem)
}

/// A symbolic register: one expression (scalar) or one per lane (vector).
#[derive(Clone)]
enum RegVal {
    Scalar(SymId),
    Vector(Vec<SymId>),
}

/// Symbolically execute the VM program; return its final memory.
fn eval_vm(
    arena: &mut Arena,
    prog: &VmProgram,
    canonicalize_patterns: bool,
) -> Result<SymMemory, Diagnostic> {
    let mut mem = SymMemory::default();
    let mut regs: Vec<Option<RegVal>> = vec![None; prog.n_regs];
    // Patterns replayed for VecOp lanes, cached per (semantics, operation).
    let mut patterns: HashMap<(usize, usize), Expr> = HashMap::new();

    for (idx, inst) in prog.insts.iter().enumerate() {
        let at = Location::VmInst { index: idx, lane: None };
        let scalar = |regs: &[Option<RegVal>], r: vegen_vm::Reg| -> Result<SymId, Diagnostic> {
            match regs.get(r.0 as usize).and_then(|v| v.as_ref()) {
                Some(RegVal::Scalar(s)) => Ok(*s),
                Some(RegVal::Vector(_)) => Err(Diagnostic::error(
                    at,
                    format!("r{} used as scalar but holds a vector", r.0),
                )),
                None => Err(Diagnostic::error(at, format!("use of undefined register r{}", r.0))),
            }
        };
        let vector = |regs: &[Option<RegVal>],
                      r: vegen_vm::Reg|
         -> Result<Vec<SymId>, Diagnostic> {
            match regs.get(r.0 as usize).and_then(|v| v.as_ref()) {
                Some(RegVal::Vector(l)) => Ok(l.clone()),
                Some(RegVal::Scalar(_)) => Err(Diagnostic::error(
                    at,
                    format!("r{} used as vector but holds a scalar", r.0),
                )),
                None => Err(Diagnostic::error(at, format!("use of undefined register r{}", r.0))),
            }
        };
        match inst {
            VmInst::Scalar { dst, inst } => {
                let inst = inst.try_map(|r| scalar(&regs, r))?;
                let sym = step(arena, &mut mem, &prog.params, &inst, (idx, None), at)?;
                if let Some(dst) = dst.get() {
                    regs[dst.0 as usize] = Some(RegVal::Scalar(sym));
                }
            }
            VmInst::VecLoad { dst, base, start, lanes, elem } => {
                param_elem(&prog.params, *base, at)?;
                let syms =
                    (0..*lanes).map(|l| mem.read(arena, *base, start + l as i64, *elem)).collect();
                regs[dst.0 as usize] = Some(RegVal::Vector(syms));
            }
            VmInst::VecStore { base, start, src } => {
                param_elem(&prog.params, *base, at)?;
                let lanes = vector(&regs, *src)?;
                for (l, sym) in lanes.into_iter().enumerate() {
                    mem.write(*base, start + l as i64, sym, (idx, Some(l)));
                }
            }
            VmInst::VecOp { dst, sem, args } => {
                let Some(semantics) = prog.sems.get(*sem) else {
                    return Err(Diagnostic::error(at, format!("unknown semantics index {sem}")));
                };
                let arg_lanes: Vec<Vec<SymId>> =
                    args.iter().map(|&r| vector(&regs, r)).collect::<Result<_, _>>()?;
                let mut out = Vec::with_capacity(semantics.out_lanes());
                for (l, binding) in semantics.lanes.iter().enumerate() {
                    let lane_at = Location::VmInst { index: idx, lane: Some(l) };
                    let pat = patterns.entry((*sem, binding.op)).or_insert_with(|| {
                        pattern_of_operation(&semantics.ops[binding.op], canonicalize_patterns)
                    });
                    let mut psyms = Vec::with_capacity(binding.args.len());
                    for r in &binding.args {
                        let lane = arg_lanes
                            .get(r.input)
                            .and_then(|lanes| lanes.get(r.lane))
                            .copied()
                            .ok_or_else(|| {
                                Diagnostic::error(
                                    lane_at,
                                    format!(
                                        "lane binding reads input {} lane {}, which is out of \
                                         range",
                                        r.input, r.lane
                                    ),
                                )
                            })?;
                        psyms.push(lane);
                    }
                    out.push(eval_pattern(arena, pat, &psyms, &|i| {
                        Diagnostic::error(
                            lane_at,
                            format!("pattern parameter {i} has no lane binding"),
                        )
                    })?);
                }
                regs[dst.0 as usize] = Some(RegVal::Vector(out));
            }
            VmInst::Build { dst, elem, lanes } => {
                let mut out = Vec::with_capacity(lanes.len());
                for (l, src) in lanes.iter().enumerate() {
                    let lane_at = Location::VmInst { index: idx, lane: Some(l) };
                    let sym = match src {
                        LaneSrc::FromVec { src, lane } => {
                            let v = vector(&regs, *src)?;
                            *v.get(*lane).ok_or_else(|| {
                                Diagnostic::error(
                                    lane_at,
                                    format!("shuffle index {lane} out of range for r{}", src.0),
                                )
                            })?
                        }
                        LaneSrc::FromScalar(r) => scalar(&regs, *r)?,
                        LaneSrc::Const(c) => arena.mk_const(*c),
                        LaneSrc::Undef => arena.mk_undef(*elem),
                    };
                    out.push(sym);
                }
                regs[dst.0 as usize] = Some(RegVal::Vector(out));
            }
            VmInst::Extract { dst, src, lane } => {
                let v = vector(&regs, *src)?;
                let sym = *v.get(*lane).ok_or_else(|| {
                    Diagnostic::error(
                        at,
                        format!("extract lane {lane} out of range for r{}", src.0),
                    )
                })?;
                regs[dst.0 as usize] = Some(RegVal::Scalar(sym));
            }
        }
    }
    Ok(mem)
}

/// Evaluate a VIDL expression — a matcher pattern or a lane operation
/// body — over symbolic parameter bindings; `unbound(i)` is the error for
/// a parameter `i` with no binding.
pub(crate) fn eval_pattern(
    arena: &mut Arena,
    e: &Expr,
    params: &[SymId],
    unbound: &dyn Fn(usize) -> Diagnostic,
) -> Result<SymId, Diagnostic> {
    match e {
        Expr::Param(i) => params.get(*i).copied().ok_or_else(|| unbound(*i)),
        Expr::Const(c) => Ok(arena.mk_const(*c)),
        Expr::Bin { op, lhs, rhs } => {
            let l = eval_pattern(arena, lhs, params, unbound)?;
            let r = eval_pattern(arena, rhs, params, unbound)?;
            Ok(arena.mk_bin(*op, l, r))
        }
        Expr::FNeg(a) => {
            let a = eval_pattern(arena, a, params, unbound)?;
            Ok(arena.mk_fneg(a))
        }
        Expr::Cast { op, to, arg } => {
            let a = eval_pattern(arena, arg, params, unbound)?;
            Ok(arena.mk_cast(*op, *to, a))
        }
        Expr::Cmp { pred, lhs, rhs } => {
            let l = eval_pattern(arena, lhs, params, unbound)?;
            let r = eval_pattern(arena, rhs, params, unbound)?;
            Ok(arena.mk_cmp(*pred, l, r))
        }
        Expr::Select { cond, on_true, on_false } => {
            let c = eval_pattern(arena, cond, params, unbound)?;
            let t = eval_pattern(arena, on_true, params, unbound)?;
            let e = eval_pattern(arena, on_false, params, unbound)?;
            Ok(arena.mk_select(c, t, e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use vegen_ir::{CmpPred, FunctionBuilder, MemLoc, Type};
    use vegen_vm::{Dst, Reg};

    /// A scalar VM instruction defining register `dst`.
    fn scalar(dst: u32, kind: InstKind<Reg>, ty: Type) -> VmInst {
        VmInst::Scalar { dst: Dst::new(Reg(dst)).unwrap(), inst: Inst { kind, ty } }
    }

    /// `r{dst} = arg{base}[offset]` over an `i32` buffer.
    fn load(dst: u32, base: usize, offset: i64) -> VmInst {
        scalar(dst, InstKind::Load { loc: MemLoc { base, offset } }, Type::I32)
    }

    /// `arg{base}[offset] = r{src}`.
    fn store(base: usize, offset: i64, src: u32) -> VmInst {
        let kind = InstKind::Store { loc: MemLoc { base, offset }, value: Reg(src) };
        VmInst::Scalar { dst: Dst::NONE, inst: Inst { kind, ty: Type::Void } }
    }

    /// `A[0] = B[1]; A[1] = B[0]` as scalar IR.
    fn swap_function() -> Function {
        let mut b = FunctionBuilder::new("swap");
        let bb = b.param("B", Type::I32, 2);
        let a = b.param("A", Type::I32, 2);
        let x = b.load(bb, 1);
        let y = b.load(bb, 0);
        b.store(a, 0, x);
        b.store(a, 1, y);
        b.finish()
    }

    /// The vectorized swap: load B, permute the lanes, store A.
    fn swap_program(f: &Function, lanes: Vec<LaneSrc>) -> VmProgram {
        VmProgram {
            name: "swap".into(),
            params: f.params.clone(),
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts: vec![
                VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 2, elem: Type::I32 },
                VmInst::Build { dst: Reg(1), elem: Type::I32, lanes },
                VmInst::VecStore { base: 1, start: 0, src: Reg(1) },
            ],
            n_regs: 2,
        }
    }

    #[test]
    fn lane_permutation_proves() {
        let f = swap_function();
        let prog = swap_program(
            &f,
            vec![
                LaneSrc::FromVec { src: Reg(0), lane: 1 },
                LaneSrc::FromVec { src: Reg(0), lane: 0 },
            ],
        );
        let r = validate(&f, &prog, true);
        assert!(r.is_proved(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.lanes_proved, 2);
    }

    #[test]
    fn swapped_shuffle_indices_rejected() {
        // Corruption: the identity permutation where the kernel swaps.
        let f = swap_function();
        let prog = swap_program(
            &f,
            vec![
                LaneSrc::FromVec { src: Reg(0), lane: 0 },
                LaneSrc::FromVec { src: Reg(0), lane: 1 },
            ],
        );
        let r = validate(&f, &prog, true);
        assert_eq!(r.diagnostics.len(), 2, "both lanes must mismatch: {:?}", r.diagnostics);
        for d in &r.diagnostics {
            assert_eq!(d.severity, Severity::Error);
            assert!(d.message.contains("vm inst #2 lane"), "writer not named: {}", d.message);
        }
        assert!(r.diagnostics[0].message.contains("B[0]"), "{}", r.diagnostics[0].message);
        assert!(r.diagnostics[0].message.contains("B[1]"), "{}", r.diagnostics[0].message);
    }

    #[test]
    fn dropped_pack_lane_rejected_as_undef() {
        let f = swap_function();
        let prog =
            swap_program(&f, vec![LaneSrc::FromVec { src: Reg(0), lane: 1 }, LaneSrc::Undef]);
        let r = validate(&f, &prog, true);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        let d = &r.diagnostics[0];
        assert!(d.message.contains("don't-care lane stored"), "{}", d.message);
        assert!(d.message.contains("vm inst #2 lane 1"), "{}", d.message);
        assert_eq!(r.lanes_proved, 1);
    }

    #[test]
    fn reordered_dependent_store_rejected() {
        // x = A[1]; A[0] = x + 1; A[1] = 7  — the A[1] store must stay
        // after the load it anti-depends on.
        let mut b = FunctionBuilder::new("reorder");
        let a = b.param("A", Type::I32, 2);
        let x = b.load(a, 1);
        let one = b.iconst(Type::I32, 1);
        let s = b.add(x, one);
        b.store(a, 0, s);
        let seven = b.iconst(Type::I32, 7);
        b.store(a, 1, seven);
        let f = b.finish();

        let good = vec![
            load(0, 0, 1),
            scalar(1, InstKind::Const(Constant::int(Type::I32, 1)), Type::I32),
            scalar(2, InstKind::Bin { op: BinOp::Add, lhs: Reg(0), rhs: Reg(1) }, Type::I32),
            store(0, 0, 2),
            scalar(3, InstKind::Const(Constant::int(Type::I32, 7)), Type::I32),
            store(0, 1, 3),
        ];
        let mut prog = VmProgram {
            name: "reorder".into(),
            params: f.params.clone(),
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts: good,
            n_regs: 4,
        };
        assert!(validate(&f, &prog, true).is_proved());

        // Corruption: hoist the `A[1] = 7` store above the load, so the
        // load symbolically reads 7 and A[0] becomes the constant 8.
        let store7 = prog.insts.remove(5);
        let const7 = prog.insts.remove(4);
        prog.insts.insert(0, store7);
        prog.insts.insert(0, const7);
        let r = validate(&f, &prog, true);
        assert!(!r.is_proved());
        let d = &r.diagnostics[0];
        assert!(d.message.contains("A[0]"), "{}", d.message);
        assert!(d.message.contains("add(A[1], 1_i32)"), "scalar side rendered: {}", d.message);
    }

    #[test]
    fn inverted_select_predicate_proves() {
        // IR computes max via select(sgt(x, y), x, y); the VM computes the
        // equivalent select(sle(x, y), y, x). Normalization maps both to
        // the same node.
        let mut b = FunctionBuilder::new("max");
        let src = b.param("B", Type::I32, 2);
        let dst = b.param("A", Type::I32, 1);
        let x = b.load(src, 0);
        let y = b.load(src, 1);
        let c = b.cmp(CmpPred::Sgt, x, y);
        let m = b.select(c, x, y);
        b.store(dst, 0, m);
        let f = b.finish();

        let prog = VmProgram {
            name: "max".into(),
            params: f.params.clone(),
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts: vec![
                load(0, 0, 0),
                load(1, 0, 1),
                scalar(2, InstKind::Cmp { pred: CmpPred::Sle, lhs: Reg(0), rhs: Reg(1) }, Type::I1),
                scalar(
                    3,
                    InstKind::Select { cond: Reg(2), on_true: Reg(1), on_false: Reg(0) },
                    Type::I32,
                ),
                store(1, 0, 3),
            ],
            n_regs: 4,
        };
        let r = validate(&f, &prog, true);
        assert!(r.is_proved(), "{:?}", r.diagnostics);
    }

    #[test]
    fn narrow_constant_folds_to_ir_constant() {
        // IR multiplies by the i32 constant 83; the VM materializes 83 as
        // i16 and sign-extends (the narrow-constant liberty). Constant
        // folding makes them the same node.
        let mut b = FunctionBuilder::new("k83");
        let src = b.param("B", Type::I32, 1);
        let dst = b.param("A", Type::I32, 1);
        let x = b.load(src, 0);
        let k = b.iconst(Type::I32, 83);
        let m = b.mul(x, k);
        b.store(dst, 0, m);
        let f = b.finish();

        let prog = VmProgram {
            name: "k83".into(),
            params: f.params.clone(),
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts: vec![
                load(0, 0, 0),
                scalar(1, InstKind::Const(Constant::int(Type::I16, 83)), Type::I16),
                scalar(2, InstKind::Cast { op: CastOp::SExt, arg: Reg(1) }, Type::I32),
                scalar(3, InstKind::Bin { op: BinOp::Mul, lhs: Reg(0), rhs: Reg(2) }, Type::I32),
                store(1, 0, 3),
            ],
            n_regs: 4,
        };
        let r = validate(&f, &prog, true);
        assert!(r.is_proved(), "{:?}", r.diagnostics);
    }

    #[test]
    fn missing_and_extra_stores_reported() {
        let f = swap_function();
        // Writes A[0] only, plus a stray write to B[0].
        let prog = VmProgram {
            name: "swap".into(),
            params: f.params.clone(),
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts: vec![load(0, 0, 1), store(1, 0, 0), store(0, 0, 0)],
            n_regs: 1,
        };
        let r = validate(&f, &prog, true);
        let msgs: Vec<&str> = r.diagnostics.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("extra store")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("missing store")), "{msgs:?}");
    }
}
