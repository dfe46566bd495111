//! `instcombine`-style canonicalization.
//!
//! §6 of the paper runs LLVM's `instcombine` over each generated pattern so
//! the pattern matchers agree with the canonical form LLVM feeds the
//! vectorizer. We reproduce that arrangement with one shared canonicalizer
//! applied both to input programs (before matching) and to the IR snippets
//! the pattern generator derives from VIDL operations. The most important
//! rewrite — called out explicitly in the paper — is turning non-strict
//! comparisons against constants into strict ones (`x <= 1` becomes
//! `x < 2`), which is what makes integer-saturation patterns match.
//!
//! Every rewrite is one named row of `RULES`, and one emitter applies
//! them: each instruction — from the input, or created by a row — runs the
//! value rows until one fires, else each reshaping row once in table
//! order, then the value rows again, then CSE. A canonical form is never
//! required for correctness: every row is an identity on `interp`
//! semantics, and nothing downstream relies on a row having fired.

use crate::constant::{mask, sext, Constant};
use crate::function::{Function, ValueId};
use crate::inst::{BinOp, CastOp, CmpPred, Inst, InstKind, MemLoc};
use crate::interp::{eval_bin, eval_cast, eval_cmp};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// One named rewrite.
struct Rule {
    name: &'static str,
    /// The instruction kinds it can fire on (a mask of [`kind_bit`]s).
    kinds: u8,
    action: Action,
}

enum Action {
    /// Replaces the instruction by a value: an operand, a constant, or
    /// instructions it emits through the emitter.
    Value(fn(&mut Emitter, &Inst) -> Option<ValueId>),
    /// Rewrites the instruction into canonical shape; true if it changed.
    Reshape(fn(&mut Emitter, &mut Inst) -> bool),
}

use Action::{Reshape, Value};

const BIN: u8 = 1;
const CAST: u8 = 2;
const CMP: u8 = 4;
const SELECT: u8 = 8;
const FNEG: u8 = 16;

/// The kind bit rows test; 0 for constants, loads and stores, which no row
/// rewrites.
fn kind_bit(kind: &InstKind) -> u8 {
    match kind {
        InstKind::Bin { .. } => BIN,
        InstKind::Cast { .. } => CAST,
        InstKind::Cmp { .. } => CMP,
        InstKind::Select { .. } => SELECT,
        InstKind::FNeg { .. } => FNEG,
        InstKind::Const(_) | InstKind::Load { .. } | InstKind::Store { .. } => 0,
    }
}

/// The rewrites, in the order the emitter tries them (DESIGN §5 states each
/// row's identity).
const RULES: [Rule; 13] = [
    Rule { name: "const_fold", kinds: BIN | CAST | CMP, action: Value(const_fold) },
    Rule { name: "int_identity", kinds: BIN, action: Value(int_identity) },
    Rule { name: "same_operands", kinds: BIN, action: Value(same_operands) },
    Rule { name: "trunc_of_ext", kinds: CAST, action: Value(trunc_of_ext) },
    Rule { name: "trunc_sink", kinds: CAST, action: Value(trunc_sink) },
    Rule { name: "ext_compose", kinds: CAST, action: Value(ext_compose) },
    Rule { name: "fneg_fneg", kinds: FNEG, action: Value(fneg_fneg) },
    Rule { name: "select_fold", kinds: SELECT, action: Value(select_fold) },
    Rule { name: "commute", kinds: BIN, action: Reshape(commute) },
    Rule { name: "cmp_const_right", kinds: CMP, action: Reshape(cmp_const_right) },
    Rule { name: "cmp_narrow_ext", kinds: CMP, action: Reshape(cmp_narrow_ext) },
    Rule { name: "cmp_narrow_const", kinds: CMP, action: Reshape(cmp_narrow_const) },
    Rule { name: "strict_cmp", kinds: CMP, action: Reshape(strict_cmp) },
];

/// Pass cap. Rows re-emit what they create, so the corpus converges in at
/// most three passes; the cap only bounds a pathological input, and
/// [`CanonStats::converged`] reports hitting it.
const MAX_PASSES: u32 = 16;

/// Nesting bound for emissions a value row starts: past it no value row
/// fires and the next pass continues the chain, so a hostile chain cannot
/// exhaust the stack.
const MAX_NEST: u32 = 256;

/// What one [`canonicalize_with_stats`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanonStats {
    /// How often each row fired, over all passes, in table order.
    fires: [u64; RULES.len()],
    /// Passes run; when converged, the last one changed nothing.
    pub passes: u32,
    /// Whether a pass reproduced its input within the pass cap.
    pub converged: bool,
}

impl CanonStats {
    /// `(row name, fire count)` for each row that fired, in table order.
    pub fn fired(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        RULES.iter().zip(self.fires).filter(|(_, n)| *n > 0).map(|(r, n)| (r.name, n))
    }
}

/// `trunc_sink ×4, commute ×2 (2 passes)`.
impl fmt::Display for CanonStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<String> = self.fired().map(|(name, n)| format!("{name} ×{n}")).collect();
        let rows = if rows.is_empty() { "no rewrites".to_string() } else { rows.join(", ") };
        let plural = if self.passes == 1 { "" } else { "es" };
        let cap = if self.converged { "" } else { ", not converged" };
        write!(f, "{rows} ({} pass{plural}{cap})", self.passes)
    }
}

/// Canonicalize `f`: apply the `RULES` table to a fixpoint, CSE, and drop
/// dead pure instructions. The result computes the same memory effects as
/// the input (gated over the whole kernel corpus by the root crate's
/// `canon_corpus` test).
pub fn canonicalize(f: &Function) -> Function {
    canonicalize_with_stats(f).0
}

/// [`canonicalize`], also reporting per-row fire counts, the pass count and
/// whether the fixpoint was reached.
pub fn canonicalize_with_stats(f: &Function) -> (Function, CanonStats) {
    let mut stats = CanonStats::default();
    let mut cur = f.clone();
    // `rebalance_adds` reshapes whole chains, which no per-instruction row
    // can, so the emitter and it alternate until neither changes anything.
    while stats.passes < MAX_PASSES {
        stats.passes += 1;
        let next = rebalance_adds(&canonicalize_once(&cur, &mut stats.fires));
        if next == cur {
            stats.converged = true;
            break;
        }
        cur = next;
    }
    (cur, stats)
}

/// Rebalance single-use `add`/`fadd` chains into adjacent-pair trees:
/// `(((a+b)+c)+d)` becomes `(a+b)+(c+d)`.
///
/// Front ends emit accumulation chains left-leaning, which hides
/// multiply-add pairs from the pattern matcher (`madd` needs
/// `add(mul, mul)` subtrees). Both kernels and generated patterns pass
/// through this, so their shapes stay aligned. `fadd` reassociation
/// matches the paper's `-ffast-math` evaluation setup.
fn rebalance_adds(f: &Function) -> Function {
    let users = f.users();
    let chain_op = |kind: &InstKind| -> Option<BinOp> {
        match kind {
            InstKind::Bin { op: op @ (BinOp::Add | BinOp::FAdd), .. } => Some(*op),
            _ => None,
        }
    };
    // A chain interior node: same opcode, exactly one use, and that use is
    // the chain above it.
    let is_interior = |v: ValueId| -> bool {
        chain_op(&f.inst(v).kind).is_some()
            && users[v.index()].len() == 1
            && chain_op(&f.inst(users[v.index()][0]).kind) == chain_op(&f.inst(v).kind)
    };
    // The chain's leaves, left to right. A chain can be as deep as the
    // function is long, so the walk keeps its own stack: `true` marks a
    // node still to expand, and the right side goes on first so the left
    // comes off first.
    let flatten = |root: ValueId, leaves: &mut Vec<ValueId>| {
        let mut stack = vec![(root, true)];
        while let Some((v, expand)) = stack.pop() {
            match f.inst(v).kind {
                InstKind::Bin { lhs, rhs, .. } if expand => {
                    stack.extend([(rhs, is_interior(rhs)), (lhs, is_interior(lhs))]);
                }
                _ => leaves.push(v),
            }
        }
    };
    let mut out = Function::new(f.name.clone());
    out.params = f.params.clone();
    let mut remap: Vec<ValueId> = Vec::with_capacity(f.insts.len());
    for (v, inst) in f.iter() {
        let mut inst = inst.clone();
        inst.map_operands(|o| remap[o.index()]);
        // Only rebuild at chain roots with more than 3 leaves (3-leaf
        // chains are already the balanced shape).
        let root_op = chain_op(&f.inst(v).kind).filter(|_| !is_interior(v));
        if let Some(op) = root_op {
            let mut leaves = Vec::new();
            flatten(v, &mut leaves);
            if leaves.len() >= 4 {
                // Pair adjacent terms (in original order) until one remains.
                let mut level: Vec<ValueId> = leaves.iter().map(|l| remap[l.index()]).collect();
                let ty = inst.ty;
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        next.push(match pair {
                            [a, b] => {
                                out.push(Inst { kind: InstKind::Bin { op, lhs: *a, rhs: *b }, ty })
                            }
                            [a] => *a,
                            _ => unreachable!(),
                        });
                    }
                    level = next;
                }
                remap.push(level[0]);
                continue;
            }
        }
        let nv = out.push(inst);
        remap.push(nv);
    }
    out
}

fn canonicalize_once(f: &Function, fires: &mut [u64; RULES.len()]) -> Function {
    let mut e = Emitter {
        out: Function::new(f.name.clone()),
        numbering: HashMap::new(),
        store_epoch: HashMap::new(),
        fires,
        nest: 0,
    };
    e.out.params = f.params.clone();
    // Map from old value id to new value id.
    let mut remap: Vec<ValueId> = Vec::with_capacity(f.insts.len());
    for (_, inst) in f.iter() {
        let mut inst = inst.clone();
        inst.map_operands(|v| remap[v.index()]);
        remap.push(e.emit(inst));
    }
    dce(&e.out)
}

/// The CSE key of an instruction.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    /// A pure instruction other than a load: equal instructions are equal
    /// values.
    Pure(Inst),
    /// A load, valid until the next store to its buffer (`epoch` counts
    /// them).
    Load { loc: MemLoc, epoch: u64, ty: Type },
}

/// One pass's output function, with the state every emission shares.
struct Emitter<'s> {
    out: Function,
    /// Value numbering: emitted instructions, and the inputs that became
    /// them.
    numbering: HashMap<Key, ValueId>,
    /// Stores seen per buffer.
    store_epoch: HashMap<usize, u64>,
    fires: &'s mut [u64; RULES.len()],
    /// Value-row lookups currently on the stack.
    nest: u32,
}

impl Emitter<'_> {
    /// Emit `inst`, returning the value it maps to.
    fn emit(&mut self, inst: Inst) -> ValueId {
        if let InstKind::Store { loc, .. } = inst.kind {
            *self.store_epoch.entry(loc.base).or_insert(0) += 1;
            return self.out.push(inst);
        }
        let key = self.key(&inst);
        if let Some(&v) = self.numbering.get(&key) {
            return v;
        }
        let v = self.apply_rules(inst);
        self.numbering.insert(key, v);
        v
    }

    /// The value rows, else every reshaping row then the value rows again,
    /// else CSE. An instruction no row touched is new: `emit` found no
    /// equal one.
    fn apply_rules(&mut self, mut inst: Inst) -> ValueId {
        let kind = kind_bit(&inst.kind);
        if let Some(v) = self.resolve(&inst, kind) {
            return v;
        }
        let mut reshaped = false;
        for (i, rule) in RULES.iter().enumerate() {
            match rule.action {
                Reshape(reshape) if rule.kinds & kind != 0 => {
                    let fired = reshape(self, &mut inst);
                    self.fires[i] += u64::from(fired);
                    reshaped |= fired;
                }
                _ => {}
            }
        }
        if !reshaped {
            return self.out.push(inst);
        }
        if let Some(v) = self.resolve(&inst, kind) {
            return v;
        }
        let key = self.key(&inst);
        *self.numbering.entry(key).or_insert_with(|| self.out.push(inst))
    }

    /// The value of the first value row for `kind` that fires, if any.
    fn resolve(&mut self, inst: &Inst, kind: u8) -> Option<ValueId> {
        if self.nest == MAX_NEST || kind == 0 {
            return None;
        }
        self.nest += 1;
        let v = RULES.iter().enumerate().find_map(|(i, rule)| match rule.action {
            Value(value) if rule.kinds & kind != 0 => {
                value(self, inst).inspect(|_| self.fires[i] += 1)
            }
            _ => None,
        });
        self.nest -= 1;
        v
    }

    fn key(&self, inst: &Inst) -> Key {
        match inst.kind {
            InstKind::Load { loc } => {
                let epoch = self.store_epoch.get(&loc.base).copied().unwrap_or(0);
                Key::Load { loc, epoch, ty: inst.ty }
            }
            _ => Key::Pure(inst.clone()),
        }
    }

    fn constant(&mut self, c: Constant) -> ValueId {
        self.emit(Inst { kind: InstKind::Const(c), ty: c.ty() })
    }

    fn cast(&mut self, op: CastOp, arg: ValueId, ty: Type) -> ValueId {
        self.emit(Inst { kind: InstKind::Cast { op, arg }, ty })
    }

    fn const_of(&self, v: ValueId) -> Option<Constant> {
        match self.out.inst(v).kind {
            InstKind::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The extension and source of `v`, if it is a sext or zext.
    fn ext_of(&self, v: ValueId) -> Option<(CastOp, ValueId)> {
        match self.out.inst(v).kind {
            InstKind::Cast { op: op @ (CastOp::SExt | CastOp::ZExt), arg } => Some((op, arg)),
            _ => None,
        }
    }
}

/// `op(c₁, c₂)` → its value (binary operations, casts, compares).
fn const_fold(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let c = match inst.kind {
        InstKind::Bin { op, lhs, rhs } => eval_bin(op, e.const_of(lhs)?, e.const_of(rhs)?).ok()?,
        InstKind::Cast { op, arg } => eval_cast(op, e.const_of(arg)?, inst.ty).ok()?,
        InstKind::Cmp { pred, lhs, rhs } => {
            eval_cmp(pred, e.const_of(lhs)?, e.const_of(rhs)?).ok()?
        }
        _ => return None,
    };
    Some(e.constant(c))
}

/// `x+0 x−0 x|0 x^0 x<<0 x>>0 x·1 x&~0` → `x`; `x·0 x&0` → `0`. Integer
/// only: the float identities do not hold under NaN.
fn int_identity(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let InstKind::Bin { op, lhs, rhs } = inst.kind else { return None };
    let b = e.const_of(rhs)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor if b.is_zero() => Some(lhs),
        BinOp::Shl | BinOp::LShr | BinOp::AShr if b.is_zero() => Some(lhs),
        BinOp::Mul if b.is_one() => Some(lhs),
        BinOp::And if b.is_all_ones() => Some(lhs),
        BinOp::Mul | BinOp::And if b.is_zero() => Some(e.constant(Constant::zero(inst.ty))),
        _ => None,
    }
}

/// `x−x x^x` → `0`; `x&x x|x` → `x` (integers).
fn same_operands(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let InstKind::Bin { op, lhs, rhs } = inst.kind else { return None };
    match op {
        _ if lhs != rhs || !inst.ty.is_int() => None,
        BinOp::Sub | BinOp::Xor => Some(e.constant(Constant::zero(inst.ty))),
        BinOp::And | BinOp::Or => Some(lhs),
        _ => None,
    }
}

/// `trunc(ext x)` → `x` at x's width, `ext x` wider than x, `trunc x`
/// narrower.
fn trunc_of_ext(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let InstKind::Cast { op: CastOp::Trunc, arg } = inst.kind else { return None };
    let (ext, x) = e.ext_of(arg)?;
    let x_ty = e.out.ty(x);
    if inst.ty == x_ty {
        return Some(x);
    }
    let op = if inst.ty.bits() > x_ty.bits() { ext } else { CastOp::Trunc };
    Some(e.cast(op, x, inst.ty))
}

/// `trunc(x ∘ y)` → `trunc x ∘ trunc y` for the width-local `+ − · & | ^`;
/// `trunc(c ? x : y)` → `c ? trunc x : trunc y`. Narrow computations written
/// widely (C integer promotion) then converge with patterns written narrow.
fn trunc_sink(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    use BinOp::{Add, And, Mul, Or, Sub, Xor};
    let InstKind::Cast { op: CastOp::Trunc, arg } = inst.kind else { return None };
    let ty = inst.ty;
    let kind = match e.out.inst(arg).kind {
        InstKind::Bin { op: op @ (Add | Sub | Mul | And | Or | Xor), lhs, rhs } => {
            let lhs = e.cast(CastOp::Trunc, lhs, ty);
            InstKind::Bin { op, lhs, rhs: e.cast(CastOp::Trunc, rhs, ty) }
        }
        InstKind::Select { cond, on_true, on_false } => {
            let on_true = e.cast(CastOp::Trunc, on_true, ty);
            InstKind::Select { cond, on_true, on_false: e.cast(CastOp::Trunc, on_false, ty) }
        }
        _ => return None,
    };
    Some(e.emit(Inst { kind, ty }))
}

/// `ext(zext x)` → `zext x`; `sext(sext x)` → `sext x`. `zext(sext x)`
/// does not compose.
fn ext_compose(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    use CastOp::{SExt, ZExt};
    let InstKind::Cast { op: outer @ (SExt | ZExt), arg } = inst.kind else { return None };
    let (inner, x) = e.ext_of(arg)?;
    let op = match (outer, inner) {
        (_, ZExt) => ZExt,
        (ZExt, _) => return None,
        _ => SExt,
    };
    Some(e.cast(op, x, inst.ty))
}

/// `−(−x)` → `x`.
fn fneg_fneg(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let InstKind::FNeg { arg } = inst.kind else { return None };
    match e.out.inst(arg).kind {
        InstKind::FNeg { arg: x } => Some(x),
        _ => None,
    }
}

/// `c ? x : x` → `x`; `true ? x : y` → `x`; `false ? x : y` → `y`.
fn select_fold(e: &mut Emitter, inst: &Inst) -> Option<ValueId> {
    let InstKind::Select { cond, on_true, on_false } = inst.kind else { return None };
    if on_true == on_false {
        return Some(on_true);
    }
    e.const_of(cond).map(|c| if c.as_bool() { on_true } else { on_false })
}

/// Commutative operands: constants last, otherwise the higher-ranked
/// operand (LLVM's complexity order, [`rank`]) first.
fn commute(e: &mut Emitter, inst: &mut Inst) -> bool {
    let InstKind::Bin { op, lhs, rhs } = &mut inst.kind else { return false };
    let swap = op.is_commutative() && rank(&e.out, *lhs) < rank(&e.out, *rhs);
    if swap {
        std::mem::swap(lhs, rhs);
    }
    swap
}

/// `cmp c, x` → `cmp x, c` with the swapped predicate.
fn cmp_const_right(e: &mut Emitter, inst: &mut Inst) -> bool {
    let InstKind::Cmp { pred, lhs, rhs } = &mut inst.kind else { return false };
    let swap = e.const_of(*lhs).is_some() && e.const_of(*rhs).is_none();
    if swap {
        std::mem::swap(lhs, rhs);
        *pred = pred.swapped();
    }
    swap
}

/// `cmp (ext a), (ext b)` → `cmp a, b` for one extension kind over one
/// width (LLVM's `icmp (zext a), (zext b)` → unsigned `icmp a, b`).
fn cmp_narrow_ext(e: &mut Emitter, inst: &mut Inst) -> bool {
    let InstKind::Cmp { pred, lhs, rhs } = &mut inst.kind else { return false };
    let (Some((ext, a)), Some((op, b))) = (e.ext_of(*lhs), e.ext_of(*rhs)) else { return false };
    if ext != op || e.out.ty(a) != e.out.ty(b) || pred.is_float() {
        return false;
    }
    (*pred, *lhs, *rhs) = (narrowed(ext, *pred), a, b);
    true
}

/// `cmp (ext x), C` → `cmp x, C` at x's width when C is representable
/// there.
fn cmp_narrow_const(e: &mut Emitter, inst: &mut Inst) -> bool {
    let InstKind::Cmp { pred, lhs, rhs } = &mut inst.kind else { return false };
    let (Some((ext, x)), Some(c)) = (e.ext_of(*lhs), e.const_of(*rhs)) else { return false };
    let x_ty = e.out.ty(x);
    let Some(n) = narrow(c, ext, x_ty.bits()).filter(|_| !pred.is_float()) else { return false };
    (*pred, *lhs, *rhs) = (narrowed(ext, *pred), x, e.constant(Constant::int(x_ty, n)));
    true
}

/// `x ≤ C` → `x < C+1` and `x ≥ C` → `x > C−1`, signed and unsigned, unless
/// `C±1` leaves the type — the rewrite §6 calls crucial for saturation.
fn strict_cmp(e: &mut Emitter, inst: &mut Inst) -> bool {
    let InstKind::Cmp { pred, rhs, .. } = &mut inst.kind else { return false };
    let Some(c) = e.const_of(*rhs).filter(|c| c.ty().is_int()) else { return false };
    let (bits, s, u) = (c.ty().bits(), c.as_i64(), c.as_u64());
    let (strict, bound) = match *pred {
        CmpPred::Sle if s < smax(bits) => (CmpPred::Slt, s + 1),
        CmpPred::Sge if s > -smax(bits) - 1 => (CmpPred::Sgt, s - 1),
        CmpPred::Ule if u < mask(bits) => (CmpPred::Ult, (u + 1) as i64),
        CmpPred::Uge if u > 0 => (CmpPred::Ugt, (u - 1) as i64),
        _ => return false,
    };
    (*pred, *rhs) = (strict, e.constant(Constant::int(c.ty(), bound)));
    true
}

/// A compare's predicate after narrowing both sides past `ext`: both
/// extensions preserve equality and sext preserves both orders, while zext
/// makes a signed order unsigned.
fn narrowed(ext: CastOp, pred: CmpPred) -> CmpPred {
    match (ext, pred) {
        (CastOp::ZExt, CmpPred::Slt) => CmpPred::Ult,
        (CastOp::ZExt, CmpPred::Sle) => CmpPred::Ule,
        (CastOp::ZExt, CmpPred::Sgt) => CmpPred::Ugt,
        (CastOp::ZExt, CmpPred::Sge) => CmpPred::Uge,
        (_, p) => p,
    }
}

/// Commutative order key: constants, loads, casts, then everything else,
/// with the value id as the tiebreak.
fn rank(out: &Function, v: ValueId) -> (u8, usize) {
    let r = match out.inst(v).kind {
        InstKind::Const(_) => 0,
        InstKind::Load { .. } => 1,
        InstKind::Cast { .. } => 2,
        _ => 3,
    };
    (r, v.index())
}

/// The largest signed value of a `bits`-wide integer.
fn smax(bits: u32) -> i64 {
    sext(mask(bits) >> 1, bits)
}

/// `c` narrowed to `bits` wide, if `ext` of that narrow value gives `c`
/// back.
fn narrow(c: Constant, ext: CastOp, bits: u32) -> Option<i64> {
    match ext {
        CastOp::SExt => (-smax(bits) - 1..=smax(bits)).contains(&c.as_i64()).then_some(c.as_i64()),
        _ => (c.as_u64() <= mask(bits)).then_some(c.as_u64() as i64),
    }
}

/// Append narrowed twins of every integer constant (e.g. `83_i16` next to
/// `83_i32`).
///
/// Vector-instruction patterns frequently read an extended operand
/// (`sext_i32(x: i16)`); in the scalar program the corresponding position
/// often holds a *wide constant* (the front end folds `sext i16 83` to
/// `i32 83`). The matcher can bind such a pattern parameter to the
/// narrowed constant — provided a narrow constant instruction exists to
/// bind to. This pass materializes them; they are pure, unused, and cost
/// nothing unless a selected pack's operand references them (in which case
/// they fold into a constant vector).
pub fn add_narrow_constants(f: &Function) -> Function {
    let mut out = f.clone();
    // Collect in program order: iterating the HashSet directly would append
    // the twins in RandomState order, making the canonical form (and hence
    // content-addressed cache keys) differ from run to run.
    let mut existing: std::collections::HashSet<Constant> = std::collections::HashSet::new();
    let mut wide: Vec<Constant> = Vec::new();
    for i in &f.insts {
        if let InstKind::Const(c) = i.kind {
            if existing.insert(c) {
                wide.push(c);
            }
        }
    }
    for c in wide {
        if !c.ty().is_int() {
            continue;
        }
        for bits in [8u32, 16, 32] {
            if bits >= c.ty().bits() {
                continue;
            }
            let nty = Type::int_with_bits(bits).unwrap();
            // The signed-narrowing twin (for sext-parameter bindings), then
            // the unsigned one (for zext-parameter bindings).
            for n in [CastOp::SExt, CastOp::ZExt].into_iter().filter_map(|ext| narrow(c, ext, bits))
            {
                let n = Constant::int(nty, n);
                if existing.insert(n) {
                    out.push(Inst { kind: InstKind::Const(n), ty: nty });
                }
            }
        }
    }
    out
}

/// Drop pure instructions with no (transitive) store users.
fn dce(f: &Function) -> Function {
    let n = f.insts.len();
    let mut live = vec![false; n];
    let mut stack: Vec<ValueId> = Vec::new();
    for (v, inst) in f.iter() {
        if !inst.is_pure() {
            live[v.index()] = true;
            stack.push(v);
        }
    }
    while let Some(v) = stack.pop() {
        for op in f.inst(v).operands() {
            if !live[op.index()] {
                live[op.index()] = true;
                stack.push(op);
            }
        }
    }
    // Loads have no side effects here (no volatile), so dead loads go too.
    let mut out = Function::new(f.name.clone());
    out.params = f.params.clone();
    let mut remap: HashMap<ValueId, ValueId> = HashMap::new();
    for (v, inst) in f.iter() {
        if live[v.index()] {
            let mut inst = inst.clone();
            inst.map_operands(|o| remap[&o]);
            let nv = out.push(inst);
            remap.insert(v, nv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::{random_memory, run};

    fn equivalent(before: &Function, after: &Function) {
        for seed in 0..16 {
            let mut m1 = random_memory(before, seed);
            let mut m2 = m1.clone();
            run(before, &mut m1).unwrap();
            run(after, &mut m2).unwrap();
            assert_eq!(m1, m2, "canonicalization changed behaviour (seed {seed})");
        }
    }

    #[test]
    fn folds_constants() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let c1 = b.iconst(Type::I32, 2);
        let c2 = b.iconst(Type::I32, 3);
        let s = b.add(c1, c2);
        let x = b.load(p, 0);
        let y = b.add(x, s);
        b.store(p, 0, y);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        // 2+3 should have become the constant 5.
        assert!(g.insts.iter().any(|i| matches!(i.kind, InstKind::Const(c) if c.as_i64() == 5)));
        assert!(!g.insts.iter().any(|i| matches!(i.kind, InstKind::Const(c) if c.as_i64() == 2)));
    }

    #[test]
    fn removes_identity_ops() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let x = b.load(p, 0);
        let z = b.iconst(Type::I32, 0);
        let y = b.add(x, z);
        let one = b.iconst(Type::I32, 1);
        let w = b.mul(y, one);
        b.store(p, 0, w);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert_eq!(g.insts.len(), 2, "only load and store remain: {g}");
    }

    #[test]
    fn cse_merges_duplicates() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s1 = b.add(x, y);
        let s2 = b.add(x, y);
        let m = b.mul(s1, s2);
        b.store(p, 2, m);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let adds = g
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn load_cse_does_not_cross_store() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x1 = b.load(p, 0);
        let c = b.iconst(Type::I32, 9);
        b.store(p, 0, c);
        let x2 = b.load(p, 0); // must reload
        let s = b.add(x1, x2);
        b.store(p, 1, s);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let loads = g.insts.iter().filter(|i| matches!(i.kind, InstKind::Load { .. })).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn loads_cse_within_epoch() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x1 = b.load(p, 0);
        let x2 = b.load(p, 0);
        let s = b.add(x1, x2);
        b.store(p, 1, s);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let loads = g.insts.iter().filter(|i| matches!(i.kind, InstKind::Load { .. })).count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn strict_inequality_rewrite() {
        // x <= 1  becomes  x < 2 (the example from §6 of the paper).
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let one = b.iconst(Type::I32, 1);
        let c = b.cmp(CmpPred::Sle, x, one);
        let z = b.iconst(Type::I32, 0);
        let sel = b.select(c, x, z);
        b.store(p, 1, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let cmp = g
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Cmp { pred, rhs, .. } => Some((pred, rhs)),
                _ => None,
            })
            .unwrap();
        assert_eq!(cmp.0, CmpPred::Slt);
        assert_eq!(g.inst(cmp.1).kind, InstKind::Const(Constant::int(Type::I32, 2)));
    }

    #[test]
    fn strict_rewrite_respects_overflow_boundary() {
        // x sle INT32_MAX must NOT become x slt INT32_MAX+1.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let m = b.iconst(Type::I32, i32::MAX as i64);
        let c = b.cmp(CmpPred::Sle, x, m);
        let z = b.iconst(Type::I32, 0);
        let sel = b.select(c, x, z);
        b.store(p, 1, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
    }

    #[test]
    fn constant_moves_to_rhs_of_cmp() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let k = b.iconst(Type::I32, 4);
        let c = b.cmp(CmpPred::Slt, k, x); // 4 < x  =>  x > 4  =>  x sgt 4
        let z = b.iconst(Type::I32, 0);
        let sel = b.select(c, x, z);
        b.store(p, 1, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let found = g.insts.iter().any(|i| {
            matches!(i.kind, InstKind::Cmp { pred: CmpPred::Sgt, rhs, .. }
                if matches!(g.inst(rhs).kind, InstKind::Const(_)))
        });
        assert!(found, "{g}");
    }

    #[test]
    fn commutative_order_is_canonical() {
        // add(const, x) and add(x, const) should land in the same form.
        let build = |flip: bool| {
            let mut b = FunctionBuilder::new("t");
            let p = b.param("A", Type::I32, 2);
            let x = b.load(p, 0);
            let k = b.iconst(Type::I32, 3);
            let s = if flip { b.add(k, x) } else { b.add(x, k) };
            b.store(p, 1, s);
            b.finish()
        };
        let g1 = canonicalize(&build(false));
        let g2 = canonicalize(&build(true));
        assert_eq!(g1.insts, g2.insts);
    }

    #[test]
    fn dce_drops_dead_code() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let _dead = b.mul(x, x);
        b.store(p, 1, x);
        let f = b.finish();
        let g = canonicalize(&f);
        assert_eq!(g.insts.len(), 2);
    }

    #[test]
    fn trunc_of_ext_returns_source() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 2);
        let x = b.load(p, 0);
        let w = b.sext(x, Type::I32);
        let n = b.trunc(w, Type::I16);
        b.store(p, 1, n);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert_eq!(g.insts.len(), 2, "{g}");
    }

    #[test]
    fn trunc_sinks_through_binop() {
        // trunc16(mul32(sext32 x, sext32 y)) => mul16(x, y): the pmullw
        // pattern convergence.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let xw = b.sext(x, Type::I32);
        let yw = b.sext(y, Type::I32);
        let m = b.mul(xw, yw);
        let n = b.trunc(m, Type::I16);
        b.store(p, 2, n);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(
            g.insts.iter().any(|i| matches!(i.kind,
                InstKind::Bin { op: BinOp::Mul, .. } if i.ty == Type::I16)),
            "expected a narrow multiply: {g}"
        );
        assert!(
            !g.insts.iter().any(|i| matches!(i.kind, InstKind::Cast { .. })),
            "all casts should fold away: {g}"
        );
    }

    #[test]
    fn trunc_sinks_into_select() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let q = b.param("O", Type::I16, 1);
        let x = b.load(p, 0);
        let c = b.clamp(x, -32768, 32767);
        let n = b.trunc(c, Type::I16);
        b.store(q, 0, n);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        // The outermost value stored is now a select over i16 values.
        let InstKind::Store { value, .. } = g.insts.last().unwrap().kind else { panic!() };
        assert!(matches!(g.inst(value).kind, InstKind::Select { .. }), "{g}");
        assert_eq!(g.ty(value), Type::I16);
    }

    #[test]
    fn cmp_of_zexts_narrows_to_unsigned() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I8, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let xw = b.zext(x, Type::I32);
        let yw = b.zext(y, Type::I32);
        let c = b.cmp(CmpPred::Slt, xw, yw);
        let sel = b.select(c, x, y);
        b.store(p, 2, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(
            g.insts.iter().any(|i| matches!(i.kind,
                InstKind::Cmp { pred: CmpPred::Ult, lhs, .. } if g.ty(lhs) == Type::I8)),
            "{g}"
        );
    }

    #[test]
    fn cmp_of_sexts_narrows_signed() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let xw = b.sext(x, Type::I32);
        let yw = b.sext(y, Type::I32);
        let c = b.cmp(CmpPred::Sgt, xw, yw);
        let sel = b.select(c, x, y);
        b.store(p, 2, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(
            g.insts.iter().any(|i| matches!(i.kind,
                InstKind::Cmp { pred: CmpPred::Sgt, lhs, .. } if g.ty(lhs) == Type::I16)),
            "{g}"
        );
    }

    #[test]
    fn cmp_ext_vs_constant_narrows_when_it_fits() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I8, 2);
        let x = b.load(p, 0);
        let xw = b.zext(x, Type::I32);
        let k = b.iconst(Type::I32, 200);
        let c = b.cmp(CmpPred::Slt, xw, k);
        let z = b.iconst(Type::I8, 0);
        let sel = b.select(c, x, z);
        b.store(p, 1, sel);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(
            g.insts.iter().any(|i| matches!(i.kind,
                InstKind::Cmp { pred: CmpPred::Ult, lhs, .. } if g.ty(lhs) == Type::I8)),
            "{g}"
        );
    }

    #[test]
    fn ext_of_ext_composes() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I8, 1);
        let q = b.param("O", Type::I64, 1);
        let x = b.load(p, 0);
        let w1 = b.zext(x, Type::I16);
        let w2 = b.sext(w1, Type::I64); // sext(zext) == zext
        b.store(q, 0, w2);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        let casts: Vec<_> = g
            .insts
            .iter()
            .filter_map(|i| match i.kind {
                InstKind::Cast { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(casts, vec![CastOp::ZExt], "{g}");
    }

    #[test]
    fn load_cse_keeps_i64_constants_apart() {
        // A load's CSE key once shared the constant key space: `load i64
        // A[0]` collided with `const 0_i64`, and both stores wrote the load.
        let mut b = FunctionBuilder::new("t");
        let a = b.param("A", Type::I64, 1);
        let o = b.param("O", Type::I64, 2);
        let x = b.load(a, 0);
        let zero = b.iconst(Type::I64, 0);
        b.store(o, 0, x);
        b.store(o, 1, zero);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert_eq!(g.insts.len(), 4, "{g}");
    }

    #[test]
    fn load_cse_keeps_i64_loads_after_constants() {
        // ... and `load i64 A[1]` collided with an earlier `const 65536_i64`.
        let mut b = FunctionBuilder::new("t");
        let a = b.param("A", Type::I64, 2);
        let o = b.param("O", Type::I64, 2);
        let k = b.iconst(Type::I64, 65536);
        let x = b.load(a, 1);
        b.store(o, 0, k);
        b.store(o, 1, x);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(g.insts.iter().any(|i| matches!(i.kind, InstKind::Load { .. })), "{g}");
    }

    /// `trunc i16` of a left-deep `mul` chain over `depth + 1` i32 loads.
    fn truncated_mul_chain(depth: usize) -> Function {
        let mut b = FunctionBuilder::new("t");
        let a = b.param("A", Type::I32, depth + 1);
        let o = b.param("O", Type::I16, 1);
        let mut m = b.load(a, 0);
        for i in 1..=depth {
            let x = b.load(a, i as i64);
            m = b.mul(m, x);
        }
        let n = b.trunc(m, Type::I16);
        b.store(o, 0, n);
        b.finish()
    }

    #[test]
    fn deep_trunc_chains_reach_the_fixpoint() {
        // Trunc sinking once moved one level per pass, so a chain deeper
        // than the pass cap came back half-sunk and not idempotent.
        for depth in [16, 64] {
            let f = truncated_mul_chain(depth);
            let (g, stats) = canonicalize_with_stats(&f);
            equivalent(&f, &g);
            assert_eq!(canonicalize(&g), g, "depth {depth}: not a fixpoint");
            assert!(stats.converged && stats.passes <= 2, "depth {depth}: {stats}");
            assert!(!g
                .insts
                .iter()
                .any(|i| i.ty == Type::I32 && !matches!(i.kind, InstKind::Load { .. })));
        }
    }

    /// A left-deep `add` chain over `depth + 1` i32 loads, stored once.
    fn add_chain(depth: usize) -> Function {
        let mut b = FunctionBuilder::new("t");
        let a = b.param("A", Type::I32, depth + 1);
        let o = b.param("O", Type::I32, 1);
        let mut s = b.load(a, 0);
        for i in 1..=depth {
            let x = b.load(a, i as i64);
            s = b.add(s, x);
        }
        b.store(o, 0, s);
        b.finish()
    }

    /// The leaves of the `add` tree stored by `f`, left to right.
    fn add_leaves(f: &Function) -> Vec<ValueId> {
        let InstKind::Store { value, .. } = f.insts.last().unwrap().kind else { panic!() };
        let (mut stack, mut leaves) = (vec![value], Vec::new());
        while let Some(v) = stack.pop() {
            match f.inst(v).kind {
                InstKind::Bin { op: BinOp::Add, lhs, rhs } => stack.extend([rhs, lhs]),
                _ => leaves.push(v),
            }
        }
        leaves
    }

    #[test]
    fn deep_add_chains_canonicalize_on_a_small_stack() {
        // One stack frame per chain level overflowed a 2 MiB thread well
        // before this depth; a serve request line can carry such a chain.
        const DEPTH: usize = 200_000;
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let f = add_chain(DEPTH);
            let balanced = rebalance_adds(&f);
            let loads = |g: &Function, leaves: Vec<ValueId>| -> Vec<i64> {
                leaves
                    .into_iter()
                    .map(|v| match g.inst(v).kind {
                        InstKind::Load { loc } => loc.offset,
                        ref k => panic!("leaf {k:?}"),
                    })
                    .collect()
            };
            let order = loads(&balanced, add_leaves(&balanced));
            assert!(order.iter().copied().eq(0..=DEPTH as i64), "leaf order changed");
            // Two whole passes: the first reads the deep chain, the second
            // the dead copy of it the first leaves behind. Later passes
            // repeat the second.
            let mut fires = [0; RULES.len()];
            let mut g = f.clone();
            for _ in 0..2 {
                g = rebalance_adds(&canonicalize_once(&g, &mut fires));
            }
            assert_eq!(add_leaves(&g).len(), DEPTH + 1);
        });
        worker.unwrap().join().expect("canonicalize must not overflow a 2 MiB stack");
    }

    #[test]
    fn chains_past_the_nest_bound_finish_in_later_passes() {
        let f = truncated_mul_chain(600);
        let (g, stats) = canonicalize_with_stats(&f);
        equivalent(&f, &g);
        assert!(stats.converged && stats.passes <= 5, "{stats}");
        assert_eq!(canonicalize(&g), g);
    }

    #[test]
    fn shared_subtrees_are_rewritten_once() {
        // `trunc` of x·x squared 40 times: sinking without remembering what
        // each input became would visit 2⁴⁰ paths.
        let mut b = FunctionBuilder::new("t");
        let a = b.param("A", Type::I32, 1);
        let o = b.param("O", Type::I16, 1);
        let mut m = b.load(a, 0);
        for _ in 0..40 {
            m = b.mul(m, m);
        }
        let n = b.trunc(m, Type::I16);
        b.store(o, 0, n);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert_eq!(g.insts.len(), 43, "load, trunc, 40 narrow multiplies, store: {g}");
    }

    #[test]
    fn stats_name_the_rows_that_fired() {
        let f = truncated_mul_chain(2);
        let (_, stats) = canonicalize_with_stats(&f);
        // Loads order by value id, so both multiplies also swap operands.
        let fired: Vec<_> = stats.fired().collect();
        assert_eq!(fired, [("trunc_sink", 2), ("commute", 2)], "{stats}");
        assert_eq!(stats.to_string(), "trunc_sink ×2, commute ×2 (2 passes)");
        let (_, quiet) = canonicalize_with_stats(&canonicalize(&f));
        assert_eq!(quiet.to_string(), "no rewrites (1 pass)");
    }

    #[test]
    fn x_minus_x_folds_to_zero() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let d = b.sub(x, x);
        b.store(p, 1, d);
        let f = b.finish();
        let g = canonicalize(&f);
        equivalent(&f, &g);
        assert!(g.insts.iter().any(|i| matches!(i.kind, InstKind::Const(c) if c.is_zero())));
    }
}
