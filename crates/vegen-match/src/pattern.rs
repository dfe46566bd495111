//! Pattern generation from VIDL operations and the structural matcher.
//!
//! A pattern is a VIDL [`Expr`]: the operation body after the scaffold
//! function built from it has gone through the shared canonicalizer
//! (§6's `instcombine` trick). Matching a pattern against an IR value
//! either fails or binds the pattern's parameters (the operation's
//! live-ins) to IR values.

use vegen_ir::canon::canonicalize;
use vegen_ir::{CastOp, Constant, Function, FunctionBuilder, InstKind, Type, ValueId};
use vegen_vidl::{Expr, Operation};

/// Build the scaffold IR function for an operation: one single-element
/// buffer per parameter, the body built over loads, the result stored.
///
/// This mirrors §6's canonicalizer, which wraps each pattern in an LLVM
/// function and runs `instcombine` on it.
fn scaffold(op: &Operation) -> (Function, usize) {
    let mut b = FunctionBuilder::new(format!("pat_{}", op.name));
    let params: Vec<_> =
        (0..op.params.len()).map(|i| b.param(format!("p{i}"), op.params[i], 1)).collect();
    let out = b.param("out", op.ret, 1);
    let loads: Vec<ValueId> = params.iter().map(|&p| b.load(p, 0)).collect();
    let root = build_expr(&mut b, &op.expr, &loads);
    b.store(out, 0, root);
    (b.finish(), op.params.len())
}

fn build_expr(b: &mut FunctionBuilder, e: &Expr, loads: &[ValueId]) -> ValueId {
    match e {
        Expr::Param(i) => loads[*i],
        Expr::Const(c) => b.constant(*c),
        Expr::Bin { op, lhs, rhs } => {
            let l = build_expr(b, lhs, loads);
            let r = build_expr(b, rhs, loads);
            b.bin(*op, l, r)
        }
        Expr::FNeg(a) => {
            let v = build_expr(b, a, loads);
            b.fneg(v)
        }
        Expr::Cast { op, to, arg } => {
            let v = build_expr(b, arg, loads);
            b.cast(*op, v, *to)
        }
        Expr::Cmp { pred, lhs, rhs } => {
            let l = build_expr(b, lhs, loads);
            let r = build_expr(b, rhs, loads);
            b.cmp(*pred, l, r)
        }
        Expr::Select { cond, on_true, on_false } => {
            let c = build_expr(b, cond, loads);
            let t = build_expr(b, on_true, loads);
            let f = build_expr(b, on_false, loads);
            b.select(c, t, f)
        }
    }
}

/// Extract the pattern tree rooted at `v` from a (canonicalized) scaffold
/// function. Loads from parameter buffer `i` become `Param(i)`.
fn extract(f: &Function, v: ValueId, n_params: usize) -> Expr {
    match &f.inst(v).kind {
        InstKind::Load { loc } => {
            debug_assert!(loc.base < n_params);
            Expr::Param(loc.base)
        }
        InstKind::Const(c) => Expr::Const(*c),
        InstKind::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(extract(f, *lhs, n_params)),
            rhs: Box::new(extract(f, *rhs, n_params)),
        },
        InstKind::FNeg { arg } => Expr::FNeg(Box::new(extract(f, *arg, n_params))),
        InstKind::Cast { op, arg } => {
            Expr::Cast { op: *op, to: f.ty(v), arg: Box::new(extract(f, *arg, n_params)) }
        }
        InstKind::Cmp { pred, lhs, rhs } => Expr::Cmp {
            pred: *pred,
            lhs: Box::new(extract(f, *lhs, n_params)),
            rhs: Box::new(extract(f, *rhs, n_params)),
        },
        InstKind::Select { cond, on_true, on_false } => Expr::Select {
            cond: Box::new(extract(f, *cond, n_params)),
            on_true: Box::new(extract(f, *on_true, n_params)),
            on_false: Box::new(extract(f, *on_false, n_params)),
        },
        InstKind::Store { .. } => unreachable!("store cannot be a pattern root"),
    }
}

/// Error deriving a matcher pattern from a malformed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError(pub String);

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pattern generation failed: {}", self.0)
    }
}

impl std::error::Error for PatternError {}

/// Derive the matcher pattern for an operation.
///
/// With `canonicalize_pattern` set (the default configuration), the
/// operation is first run through the shared canonicalizer — §7.2 evaluates
/// exactly this switch (Fig. 11's "w/o canonicalization" bars).
///
/// # Panics
///
/// Panics if the operation body references an out-of-range parameter; use
/// [`try_pattern_of_operation`] for descriptions that have not been
/// validated.
pub fn pattern_of_operation(op: &Operation, canonicalize_pattern: bool) -> Expr {
    try_pattern_of_operation(op, canonicalize_pattern)
        .unwrap_or_else(|e| panic!("malformed operation {}: {e}", op.name))
}

/// Fallible form of [`pattern_of_operation`]: a body referencing an
/// out-of-range parameter is a typed error instead of a panic, so an
/// offline auditor can report malformed specs rather than abort.
///
/// # Errors
///
/// Returns a [`PatternError`] naming the out-of-range parameter.
pub fn try_pattern_of_operation(
    op: &Operation,
    canonicalize_pattern: bool,
) -> Result<Expr, PatternError> {
    if let Some(i) = op.expr.params_used().into_iter().max() {
        if i >= op.params.len() {
            return Err(PatternError(format!(
                "operation {} references parameter x{i} but declares only {} parameters",
                op.name,
                op.params.len()
            )));
        }
    }
    let (f, n_params) = scaffold(op);
    let f = if canonicalize_pattern { canonicalize(&f) } else { f };
    let store = *f
        .stores()
        .first()
        .ok_or_else(|| PatternError(format!("operation {} scaffold lost its store", op.name)))?;
    let InstKind::Store { value, .. } = f.inst(store).kind else {
        return Err(PatternError(format!("operation {} scaffold root is not a store", op.name)));
    };
    Ok(extract(&f, value, n_params))
}

/// Try to match `pat` rooted at value `v` of `f`, with `param_tys` giving
/// each parameter's required type. On success returns the parameter
/// binding; parameters the (canonicalized) pattern no longer references
/// come back as `None` (don't-care).
pub fn match_at(
    f: &Function,
    pat: &Expr,
    param_tys: &[Type],
    v: ValueId,
) -> Option<Vec<Option<ValueId>>> {
    let pool = const_pool(f);
    match_at_with_covered(f, &pool, pat, param_tys, v).map(|(bind, _)| bind)
}

/// Index the function's constant instructions by value (first definition
/// wins). Used to bind pattern parameters to *narrowed constants*: a
/// pattern position `sext_i32(x: i16)` matches the wide constant `83_i32`
/// by binding `x` to the narrow twin `83_i16` (see
/// [`vegen_ir::canon::add_narrow_constants`]).
pub fn const_pool(f: &Function) -> std::collections::HashMap<Constant, ValueId> {
    let mut pool = std::collections::HashMap::new();
    for (v, inst) in f.iter() {
        if let InstKind::Const(c) = inst.kind {
            pool.entry(c).or_insert(v);
        }
    }
    pool
}

/// Like [`match_at`] but also returns the *covered* instructions — the
/// matched interior of the IR DAG (operator nodes, including the root but
/// excluding live-ins and constants). When a pack is selected these become
/// dead code (§5.2).
pub fn match_at_with_covered(
    f: &Function,
    consts: &std::collections::HashMap<Constant, ValueId>,
    pat: &Expr,
    param_tys: &[Type],
    v: ValueId,
) -> Option<(Vec<Option<ValueId>>, Vec<ValueId>)> {
    let mut bind: Vec<Option<ValueId>> = vec![None; param_tys.len()];
    let mut covered: Vec<ValueId> = Vec::new();
    let mctx = MCtx { f, consts };
    if go(&mctx, pat, param_tys, v, &mut bind, &mut covered) {
        covered.sort();
        covered.dedup();
        Some((bind, covered))
    } else {
        None
    }
}

struct MCtx<'f> {
    f: &'f Function,
    consts: &'f std::collections::HashMap<Constant, ValueId>,
}

fn go(
    m: &MCtx<'_>,
    pat: &Expr,
    param_tys: &[Type],
    v: ValueId,
    bind: &mut Vec<Option<ValueId>>,
    covered: &mut Vec<ValueId>,
) -> bool {
    let f = m.f;
    match pat {
        Expr::Param(i) => {
            if f.ty(v) != param_tys[*i] {
                return false;
            }
            match bind[*i] {
                None => {
                    bind[*i] = Some(v);
                    true
                }
                Some(prev) => prev == v,
            }
        }
        Expr::Const(c) => matches!(f.inst(v).kind, InstKind::Const(c2) if c2 == *c),
        Expr::FNeg(a) => match f.inst(v).kind {
            InstKind::FNeg { arg } => {
                covered.push(v);
                go(m, a, param_tys, arg, bind, covered)
            }
            _ => false,
        },
        Expr::Cast { op, to, arg } => match f.inst(v).kind {
            InstKind::Cast { op: iop, arg: iarg } if iop == *op && f.ty(v) == *to => {
                covered.push(v);
                go(m, arg, param_tys, iarg, bind, covered)
            }
            // A wide constant matches `ext(x)` by binding `x` to the
            // narrowed constant twin, if representable at the source width
            // (how `83 * (int)src[i]` meets the `mul(sext(x1), sext(x2))`
            // pattern: x2 := 83_i16).
            InstKind::Const(c)
                if c.ty() == *to
                    && matches!(op, CastOp::SExt | CastOp::ZExt)
                    && matches!(&**arg, Expr::Param(_)) =>
            {
                let Expr::Param(i) = &**arg else { unreachable!() };
                let nty = param_tys[*i];
                if !nty.is_int() {
                    return false;
                }
                let bits = nty.bits();
                let narrow = match op {
                    CastOp::SExt => {
                        let smax =
                            vegen_ir::constant::sext(vegen_ir::constant::mask(bits) >> 1, bits);
                        if c.as_i64() > smax || c.as_i64() < -smax - 1 {
                            return false;
                        }
                        Constant::int(nty, c.as_i64())
                    }
                    CastOp::ZExt => {
                        if c.as_u64() > vegen_ir::constant::mask(bits) {
                            return false;
                        }
                        Constant::int(nty, c.as_u64() as i64)
                    }
                    _ => unreachable!(),
                };
                let Some(&nv) = m.consts.get(&narrow) else { return false };
                match bind[*i] {
                    None => {
                        bind[*i] = Some(nv);
                        true
                    }
                    Some(prev) => prev == nv,
                }
            }
            _ => false,
        },
        Expr::Bin { op, lhs, rhs } => {
            let InstKind::Bin { op: iop, lhs: il, rhs: ir } = f.inst(v).kind else {
                return false;
            };
            if iop != *op {
                return false;
            }
            covered.push(v);
            if attempt(m, &[(lhs, il), (rhs, ir)], param_tys, bind, covered) {
                return true;
            }
            if op.is_commutative() && attempt(m, &[(lhs, ir), (rhs, il)], param_tys, bind, covered)
            {
                return true;
            }
            covered.pop();
            false
        }
        Expr::Cmp { pred, lhs, rhs } => {
            let InstKind::Cmp { pred: ipred, lhs: il, rhs: ir } = f.inst(v).kind else {
                return false;
            };
            covered.push(v);
            if ipred == *pred && attempt(m, &[(lhs, il), (rhs, ir)], param_tys, bind, covered) {
                return true;
            }
            // a pred b == b pred.swapped() a
            if ipred == pred.swapped()
                && attempt(m, &[(lhs, ir), (rhs, il)], param_tys, bind, covered)
            {
                return true;
            }
            covered.pop();
            false
        }
        Expr::Select { cond, on_true, on_false } => {
            let InstKind::Select { cond: ic, on_true: it, on_false: ie } = f.inst(v).kind else {
                return false;
            };
            covered.push(v);
            if attempt(m, &[(cond, ic), (on_true, it), (on_false, ie)], param_tys, bind, covered) {
                return true;
            }
            // Inverted form (§6): select(cmp(p, ...), x, y) also matches
            // select(cmp(!p, ...), y, x).
            if let Expr::Cmp { pred, lhs, rhs } = &**cond {
                let inv = Expr::Cmp { pred: pred.inverse(), lhs: lhs.clone(), rhs: rhs.clone() };
                if attempt(
                    m,
                    &[(&inv, ic), (on_false, it), (on_true, ie)],
                    param_tys,
                    bind,
                    covered,
                ) {
                    return true;
                }
            }
            covered.pop();
            false
        }
    }
}

/// Match a list of (pattern, value) pairs transactionally: all succeed or
/// the binding (and covered list) is rolled back.
fn attempt(
    m: &MCtx<'_>,
    pairs: &[(&Expr, ValueId)],
    param_tys: &[Type],
    bind: &mut Vec<Option<ValueId>>,
    covered: &mut Vec<ValueId>,
) -> bool {
    let snapshot = bind.clone();
    let cov_len = covered.len();
    for (p, v) in pairs {
        if !go(m, p, param_tys, *v, bind, covered) {
            *bind = snapshot;
            covered.truncate(cov_len);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::CmpPred;
    use vegen_vidl::parse_operation;

    fn op(src: &str) -> Operation {
        parse_operation(src).unwrap()
    }

    /// madd operation of pmaddwd (Fig. 4(b)).
    fn madd() -> Operation {
        op("op madd (x1: i16, x2: i16, x3: i16, x4: i16) -> i32 =
            add(mul(sext_i32(x1), sext_i32(x2)), mul(sext_i32(x3), sext_i32(x4)))")
    }

    /// Build the example scalar program of Fig. 4(d): one dot-product lane.
    fn dot_lane() -> (Function, ValueId, Vec<ValueId>) {
        let mut b = FunctionBuilder::new("dot");
        let a = b.param("A", Type::I16, 4);
        let bb = b.param("B", Type::I16, 4);
        let c = b.param("C", Type::I32, 2);
        let a0 = b.load(a, 0);
        let b0 = b.load(bb, 0);
        let a1 = b.load(a, 1);
        let b1 = b.load(bb, 1);
        let a0w = b.sext(a0, Type::I32);
        let b0w = b.sext(b0, Type::I32);
        let a1w = b.sext(a1, Type::I32);
        let b1w = b.sext(b1, Type::I32);
        let m0 = b.mul(a0w, b0w);
        let m1 = b.mul(a1w, b1w);
        let t = b.add(m0, m1);
        b.store(c, 0, t);
        (b.finish(), t, vec![a0, b0, a1, b1])
    }

    #[test]
    fn madd_pattern_matches_dot_lane() {
        let o = madd();
        let pat = pattern_of_operation(&o, true);
        let (f, root, live_ins) = dot_lane();
        let bind = match_at(&f, &pat, &o.params, root).expect("must match");
        let bound: Vec<ValueId> = bind.into_iter().map(|b| b.unwrap()).collect();
        // Commutativity means the exact order may mirror, but each (x1,x2)
        // and (x3,x4) multiply pair must be one of the kernel's two
        // multiply pairs.
        let [a0, b0, a1, b1] = live_ins[..] else { panic!() };
        let pair1: std::collections::BTreeSet<_> = [bound[0], bound[1]].into();
        let pair2: std::collections::BTreeSet<_> = [bound[2], bound[3]].into();
        let lane0: std::collections::BTreeSet<_> = [a0, b0].into();
        let lane1: std::collections::BTreeSet<_> = [a1, b1].into();
        assert!(
            (pair1 == lane0 && pair2 == lane1) || (pair1 == lane1 && pair2 == lane0),
            "bound {bound:?}"
        );
    }

    #[test]
    fn madd_matches_commuted_operands() {
        // Multiply operands swapped: b0*a0 instead of a0*b0.
        let o = madd();
        let pat = pattern_of_operation(&o, true);
        let mut b = FunctionBuilder::new("dotc");
        let a = b.param("A", Type::I16, 2);
        let bb = b.param("B", Type::I16, 2);
        let c = b.param("C", Type::I32, 1);
        let a0 = b.load(a, 0);
        let b0 = b.load(bb, 0);
        let a1 = b.load(a, 1);
        let b1 = b.load(bb, 1);
        let a0w = b.sext(a0, Type::I32);
        let b0w = b.sext(b0, Type::I32);
        let a1w = b.sext(a1, Type::I32);
        let b1w = b.sext(b1, Type::I32);
        let m0 = b.mul(b0w, a0w); // swapped
        let m1 = b.mul(a1w, b1w);
        let t = b.add(m1, m0); // adds swapped too
        b.store(c, 0, t);
        let f = b.finish();
        assert!(match_at(&f, &pat, &o.params, t).is_some());
    }

    #[test]
    fn pattern_rejects_wrong_types() {
        let o = madd();
        let pat = pattern_of_operation(&o, true);
        // Same shape but i32 inputs sign-extended to i64.
        let mut b = FunctionBuilder::new("dot64");
        let a = b.param("A", Type::I32, 2);
        let bb = b.param("B", Type::I32, 2);
        let c = b.param("C", Type::I64, 1);
        let a0 = b.load(a, 0);
        let b0 = b.load(bb, 0);
        let a1 = b.load(a, 1);
        let b1 = b.load(bb, 1);
        let a0w = b.sext(a0, Type::I64);
        let b0w = b.sext(b0, Type::I64);
        let a1w = b.sext(a1, Type::I64);
        let b1w = b.sext(b1, Type::I64);
        let m0 = b.mul(a0w, b0w);
        let m1 = b.mul(a1w, b1w);
        let t = b.add(m0, m1);
        b.store(c, 0, t);
        let f = b.finish();
        assert!(match_at(&f, &pat, &o.params, t).is_none());
    }

    #[test]
    fn repeated_param_requires_same_value() {
        let o = op("op sq (x: i32) -> i32 = mul(x, x)");
        let pat = pattern_of_operation(&o, true);
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let xx = b.mul(x, x);
        let xy = b.mul(x, y);
        b.store(p, 0, xx);
        b.store(p, 1, xy);
        let f = b.finish();
        assert!(match_at(&f, &pat, &o.params, xx).is_some());
        assert!(match_at(&f, &pat, &o.params, xy).is_none());
    }

    #[test]
    fn select_inversion_matches_flipped_max() {
        // Pattern: max = select(cmp_fgt(x, y), x, y).
        let o = op("op fmax (x: f64, y: f64) -> f64 =
            select(cmp_fgt(x, y), x, y)");
        let pat = pattern_of_operation(&o, true);
        // Program computes select(x <= y, y, x) — the inverted form.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::F64, 2);
        let q = b.param("O", Type::F64, 1);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let c = b.cmp(CmpPred::Fle, x, y);
        let s = b.select(c, y, x);
        b.store(q, 0, s);
        let f = b.finish();
        let bind = match_at(&f, &pat, &o.params, s).expect("inverted max must match");
        assert_eq!(bind, vec![Some(x), Some(y)]);
    }

    #[test]
    fn cmp_swap_matches() {
        // Pattern cmp_sgt(x, y); program has cmp_slt(y, x).
        let o = op("op gt (x: i32, y: i32) -> i1 = cmp_sgt(x, y)");
        let pat = pattern_of_operation(&o, true);
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let q = b.param("O", Type::I32, 1);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let c = b.cmp(CmpPred::Slt, y, x);
        let z = b.iconst(Type::I32, 0);
        let s = b.select(c, x, z);
        b.store(q, 0, s);
        let f = b.finish();
        let bind = match_at(&f, &pat, &o.params, c).unwrap();
        assert_eq!(bind, vec![Some(x), Some(y)]);
    }

    #[test]
    fn canonicalized_saturation_pattern_matches_clamped_kernel() {
        // The operation is written the "documentation way" (compare against
        // non-strict bounds is already strict here, but widths differ); the
        // kernel clamps in i32 and truncates on store. Canonicalization must
        // make them meet.
        let o = op("op sat16 (x: i32) -> i16 =
            select(cmp_sgt(x, 32767:i32), 32767:i16,
                   select(cmp_slt(x, -32768:i32), -32768:i16, trunc_i16(x)))");
        let pat = pattern_of_operation(&o, true);
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let q = b.param("O", Type::I16, 1);
        let x = b.load(p, 0);
        let clamped = b.clamp(x, -32768, 32767);
        let narrowed = b.trunc(clamped, Type::I16);
        b.store(q, 0, narrowed);
        let f = b.finish();
        let g = canonicalize(&f);
        // Find the stored value in the canonicalized function.
        let InstKind::Store { value, .. } = g.insts.last().unwrap().kind else { panic!() };
        assert!(
            match_at(&g, &pat, &o.params, value).is_some(),
            "saturation must match after canonicalization:\n{g}"
        );
    }

    #[test]
    fn uncanonicalized_saturation_pattern_misses() {
        // The same setup with pattern canonicalization disabled: the raw
        // pattern keeps trunc outside the selects and fails to match the
        // canonicalized kernel — the effect Fig. 11 ablates.
        let o = op("op sat16 (x: i32) -> i16 =
            trunc_i16(select(cmp_sgt(x, 32767:i32), 32767:i32,
                      select(cmp_slt(x, -32768:i32), -32768:i32, x)))");
        let raw = pattern_of_operation(&o, false);
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 1);
        let q = b.param("O", Type::I16, 1);
        let x = b.load(p, 0);
        let clamped = b.clamp(x, -32768, 32767);
        let narrowed = b.trunc(clamped, Type::I16);
        b.store(q, 0, narrowed);
        let f = b.finish();
        let g = canonicalize(&f);
        let InstKind::Store { value, .. } = g.insts.last().unwrap().kind else { panic!() };
        assert!(
            match_at(&g, &raw, &o.params, value).is_none(),
            "raw pattern should miss the canonicalized kernel"
        );
        // But the canonicalized version of the same pattern hits.
        let cooked = pattern_of_operation(&o, true);
        assert!(match_at(&g, &cooked, &o.params, value).is_some());
    }

    #[test]
    fn pattern_size_reports_nodes() {
        let o = madd();
        let pat = pattern_of_operation(&o, true);
        assert_eq!(pat.size(), 11);
        assert_eq!(pat.params_used().len(), 4);
    }
}
