//! SLP tree construction, profitability, and lowering for the baseline.

use crate::BaselineConfig;
use std::collections::HashMap;
use vegen_ir::deps::DepGraph;
use vegen_ir::{BinOp, CastOp, CmpPred, Function, InstKind, Type, ValueId};
use vegen_vidl::{Expr, InstSemantics, LaneBinding, LaneRef, Operation, VecShape};
use vegen_vm::{LaneSrc, Reg, VmInst, VmProgram};

/// The isomorphic shape of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum OpShape {
    Bin(BinOp),
    /// Cast op, destination type, source type (the source type matters:
    /// lanes mixing `sext i8 -> i32` with `sext i16 -> i32` are not
    /// isomorphic).
    Cast(CastOp, Type, Type),
    /// Predicate and operand type (two `sgt` lanes comparing different
    /// widths are not isomorphic even though both produce `i1`).
    Cmp(CmpPred, Type),
    Select,
    FNeg,
}

#[derive(Debug, Clone, PartialEq)]
enum BundleKind {
    /// Isomorphic vector operation.
    Op(OpShape),
    /// Alternating fsub (even lanes) / fadd (odd lanes) — LLVM's addsub
    /// special case.
    AltFAddSub,
    /// Contiguous vector load.
    Load { base: usize, start: i64 },
    /// Materialized from scalars / constants / extracts.
    Gather,
}

#[derive(Debug, Clone)]
struct Bundle {
    vals: Vec<ValueId>,
    ty: Type,
    kind: BundleKind,
    children: Vec<usize>,
}

/// A committed SLP tree: bundle arena (root last) plus its seed stores.
#[derive(Debug, Clone)]
struct Tree {
    bundles: Vec<Bundle>,
    root: usize,
    store_base: usize,
    store_start: i64,
    stores: Vec<ValueId>,
}

/// The forest: committed trees plus the claim map.
pub struct SlpForest<'a> {
    f: &'a Function,
    deps: &'a DepGraph,
    users: &'a [Vec<ValueId>],
    cfg: &'a BaselineConfig,
    trees: Vec<Tree>,
    /// value -> (tree, bundle, lane) for values computed in vectors.
    claimed: HashMap<ValueId, (usize, usize, usize)>,
    /// store instructions covered by committed trees.
    covered_stores: Vec<ValueId>,
}

fn shape_of(f: &Function, v: ValueId) -> Option<OpShape> {
    Some(match &f.inst(v).kind {
        InstKind::Bin { op, .. } => OpShape::Bin(*op),
        InstKind::Cast { op, arg } => OpShape::Cast(*op, f.ty(v), f.ty(*arg)),
        InstKind::Cmp { pred, lhs, .. } => OpShape::Cmp(*pred, f.ty(*lhs)),
        InstKind::Select { .. } => OpShape::Select,
        InstKind::FNeg { .. } => OpShape::FNeg,
        _ => return None,
    })
}

impl<'a> SlpForest<'a> {
    /// Create an empty forest.
    pub fn new(
        f: &'a Function,
        deps: &'a DepGraph,
        users: &'a [Vec<ValueId>],
        cfg: &'a BaselineConfig,
    ) -> SlpForest<'a> {
        SlpForest {
            f,
            deps,
            users,
            cfg,
            trees: Vec::new(),
            claimed: HashMap::new(),
            covered_stores: Vec::new(),
        }
    }

    /// Number of committed trees.
    pub fn committed_trees(&self) -> usize {
        self.trees.len()
    }

    /// Attempt to vectorize one store chain chunk; commits on profit.
    pub fn try_vectorize_chain(&mut self, chunk: &[(i64, ValueId, ValueId)]) -> bool {
        let stores: Vec<ValueId> = chunk.iter().map(|c| c.1).collect();
        if !self.deps.all_independent(&stores) {
            return false;
        }
        let values: Vec<ValueId> = chunk.iter().map(|c| c.2).collect();
        let mut bundles: Vec<Bundle> = Vec::new();
        let mut memo: HashMap<Vec<ValueId>, usize> = HashMap::new();
        let root = self.build(&values, &mut bundles, &mut memo, 0);

        // Profitability: vector cost (ops + gathers + store + extracts)
        // versus the scalar cost of everything the tree covers.
        let mut vec_cost = 1.0; // the vector store
        let mut scalar_cost = stores.len() as f64; // the scalar stores
        let mut covered: Vec<ValueId> = Vec::new();
        for b in &bundles {
            vec_cost += self.bundle_vec_cost(b);
            if !matches!(b.kind, BundleKind::Gather) {
                for &v in &b.vals {
                    covered.push(v);
                    scalar_cost += vegen_ir::cost::scalar_cost(&self.f.inst(v).kind);
                }
            }
        }
        covered.sort();
        covered.dedup();
        // Extract penalty for values with users outside the tree.
        for &v in &covered {
            let external =
                self.users[v.index()].iter().any(|u| !covered.contains(u) && !stores.contains(u));
            if external {
                vec_cost += 1.0;
            }
        }
        if vec_cost >= scalar_cost {
            return false;
        }
        // Commit.
        let t = self.trees.len();
        for (bi, b) in bundles.iter().enumerate() {
            if matches!(b.kind, BundleKind::Gather) {
                continue;
            }
            for (lane, &v) in b.vals.iter().enumerate() {
                self.claimed.entry(v).or_insert((t, bi, lane));
            }
        }
        self.covered_stores.extend(&stores);
        self.trees.push(Tree {
            bundles,
            root,
            store_base: {
                let InstKind::Store { loc, .. } = self.f.inst(stores[0]).kind else {
                    unreachable!()
                };
                loc.base
            },
            store_start: chunk[0].0,
            stores,
        });
        true
    }

    /// Recursive bundle construction (the `buildTree` of SLPVectorizer).
    fn build(
        &self,
        vals: &[ValueId],
        bundles: &mut Vec<Bundle>,
        memo: &mut HashMap<Vec<ValueId>, usize>,
        depth: usize,
    ) -> usize {
        if let Some(&i) = memo.get(vals) {
            return i;
        }
        let idx = self.build_uncached(vals, bundles, memo, depth);
        memo.insert(vals.to_vec(), idx);
        idx
    }

    fn gather(&self, vals: &[ValueId], bundles: &mut Vec<Bundle>) -> usize {
        bundles.push(Bundle {
            vals: vals.to_vec(),
            ty: self.f.ty(vals[0]),
            kind: BundleKind::Gather,
            children: Vec::new(),
        });
        bundles.len() - 1
    }

    fn build_uncached(
        &self,
        vals: &[ValueId],
        bundles: &mut Vec<Bundle>,
        memo: &mut HashMap<Vec<ValueId>, usize>,
        depth: usize,
    ) -> usize {
        let f = self.f;
        let ty = f.ty(vals[0]);
        let uniform_ty = vals.iter().all(|&v| f.ty(v) == ty);
        if depth > 12 || !uniform_ty {
            return self.gather(vals, bundles);
        }
        // Repeated values, dependences, or lanes already claimed by an
        // earlier tree force a gather.
        let mut sorted = vals.to_vec();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != vals.len()
            || !self.deps.all_independent(vals)
            || vals.iter().any(|v| self.claimed.contains_key(v))
        {
            return self.gather(vals, bundles);
        }
        if vals.iter().any(|&v| matches!(f.inst(v).kind, InstKind::Const(_))) {
            return self.gather(vals, bundles);
        }
        // Contiguous loads.
        if vals.iter().all(|&v| matches!(f.inst(v).kind, InstKind::Load { .. })) {
            let locs: Vec<_> = vals
                .iter()
                .map(|&v| match f.inst(v).kind {
                    InstKind::Load { loc } => loc,
                    _ => unreachable!(),
                })
                .collect();
            let base = locs[0].base;
            let start = locs[0].offset;
            let contiguous = locs
                .iter()
                .enumerate()
                .all(|(i, l)| l.base == base && l.offset == start + i as i64);
            if contiguous {
                bundles.push(Bundle {
                    vals: vals.to_vec(),
                    ty,
                    kind: BundleKind::Load { base, start },
                    children: Vec::new(),
                });
                return bundles.len() - 1;
            }
            return self.gather(vals, bundles);
        }
        // Isomorphic operation?
        let shapes: Vec<Option<OpShape>> = vals.iter().map(|&v| shape_of(f, v)).collect();
        if shapes.iter().all(|s| s.is_some() && s == &shapes[0]) {
            let shape = shapes[0].unwrap();
            let n_ops = f.inst(vals[0]).operands().len();
            bundles.push(Bundle {
                vals: vals.to_vec(),
                ty,
                kind: BundleKind::Op(shape),
                children: Vec::new(),
            });
            let me = bundles.len() - 1;
            let commutative =
                matches!(shape, OpShape::Bin(op) if op.is_commutative()) && n_ops == 2;
            let children = if commutative {
                let (lhs, rhs) = self.reorder_binary_operands(vals);
                vec![
                    self.build(&lhs, bundles, memo, depth + 1),
                    self.build(&rhs, bundles, memo, depth + 1),
                ]
            } else {
                (0..n_ops)
                    .map(|oi| {
                        let operand_vals: Vec<ValueId> =
                            vals.iter().map(|&v| f.inst(v).operands()[oi]).collect();
                        self.build(&operand_vals, bundles, memo, depth + 1)
                    })
                    .collect()
            };
            bundles[me].children = children;
            return me;
        }
        // LLVM's alternating fadd/fsub special case.
        if self.cfg.addsub_support && vals.len().is_multiple_of(2) && ty.is_float() {
            let alt_ok = vals.iter().enumerate().all(|(i, &v)| {
                matches!(
                    (i % 2, &f.inst(v).kind),
                    (0, InstKind::Bin { op: BinOp::FSub, .. })
                        | (1, InstKind::Bin { op: BinOp::FAdd, .. })
                )
            });
            if alt_ok {
                bundles.push(Bundle {
                    vals: vals.to_vec(),
                    ty,
                    kind: BundleKind::AltFAddSub,
                    children: Vec::new(),
                });
                let me = bundles.len() - 1;
                let (lhs, rhs) = self.reorder_binary_operands(vals);
                let children = vec![
                    self.build(&lhs, bundles, memo, depth + 1),
                    self.build(&rhs, bundles, memo, depth + 1),
                ];
                bundles[me].children = children;
                return me;
            }
        }
        self.gather(vals, bundles)
    }

    /// LLVM-style commutative operand reordering: orient each lane's
    /// `(lhs, rhs)` so the operand vectors look alike (loads of the same
    /// base, matching opcodes), using lane 0's orientation as reference.
    /// Lanes whose opcode is non-commutative (the `fsub` lanes of an
    /// alternating bundle) keep their order.
    fn reorder_binary_operands(&self, vals: &[ValueId]) -> (Vec<ValueId>, Vec<ValueId>) {
        let f = self.f;
        let ops0 = f.inst(vals[0]).operands();
        let (mut lhs, mut rhs) = (vec![ops0[0]], vec![ops0[1]]);
        let sim = |x: ValueId, reference: ValueId| -> i32 {
            match (&f.inst(x).kind, &f.inst(reference).kind) {
                (InstKind::Load { loc: a }, InstKind::Load { loc: b }) => {
                    if a.base == b.base {
                        3
                    } else {
                        1
                    }
                }
                (InstKind::Bin { op: a, .. }, InstKind::Bin { op: b, .. }) if a == b => 2,
                (InstKind::Const(_), InstKind::Const(_)) => 2,
                (a, b) if std::mem::discriminant(a) == std::mem::discriminant(b) => 1,
                _ => 0,
            }
        };
        for &v in &vals[1..] {
            let ops = f.inst(v).operands();
            let commutative = matches!(f.inst(v).kind,
                InstKind::Bin { op, .. } if op.is_commutative());
            let straight = sim(ops[0], lhs[0]) + sim(ops[1], rhs[0]);
            let swapped = sim(ops[1], lhs[0]) + sim(ops[0], rhs[0]);
            if commutative && swapped > straight {
                lhs.push(ops[1]);
                rhs.push(ops[0]);
            } else {
                lhs.push(ops[0]);
                rhs.push(ops[1]);
            }
        }
        (lhs, rhs)
    }

    fn bundle_vec_cost(&self, b: &Bundle) -> f64 {
        match &b.kind {
            BundleKind::Op(shape) => match shape {
                OpShape::Bin(
                    BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem | BinOp::FDiv,
                ) => 16.0,
                _ => 1.0,
            },
            // Two vector ops plus the blend LLVM's cost model charges —
            // including the §7.4 overestimate knob.
            BundleKind::AltFAddSub => 2.0 + self.cfg.addsub_blend_cost,
            BundleKind::Load { .. } => 1.0,
            BundleKind::Gather => {
                let f = self.f;
                let non_const: Vec<ValueId> = b
                    .vals
                    .iter()
                    .copied()
                    .filter(|&v| !matches!(f.inst(v).kind, InstKind::Const(_)))
                    .collect();
                if non_const.is_empty() {
                    0.0
                } else if non_const.len() == b.vals.len()
                    && non_const.iter().all(|v| *v == non_const[0])
                {
                    1.0 // broadcast
                } else {
                    non_const.len() as f64
                }
            }
        }
    }

    /// Lower the whole function: committed trees as vector code, the rest
    /// scalar.
    pub fn lower(&self) -> VmProgram {
        let f = self.f;
        let mut prog = VmProgram::new(f.name.clone(), f.params.clone());

        // Scalar liveness: stores not covered, plus gather lanes.
        let mut need_scalar: Vec<bool> = vec![false; f.insts.len()];
        let mut work: Vec<ValueId> = Vec::new();
        for st in f.stores() {
            if !self.covered_stores.contains(&st) {
                work.push(st);
            }
        }
        for t in &self.trees {
            for b in &t.bundles {
                if matches!(b.kind, BundleKind::Gather) {
                    for &v in &b.vals {
                        if !self.claimed.contains_key(&v)
                            && !matches!(f.inst(v).kind, InstKind::Const(_))
                        {
                            work.push(v);
                        }
                    }
                }
            }
        }
        while let Some(v) = work.pop() {
            if need_scalar[v.index()] {
                continue;
            }
            need_scalar[v.index()] = true;
            for o in f.inst(v).operands() {
                if self.claimed.contains_key(&o) || matches!(f.inst(o).kind, InstKind::Const(_)) {
                    continue;
                }
                work.push(o);
            }
        }

        // Emission order: scalar instructions in program order; each tree
        // as soon as every scalar value its gathers reference (and every
        // earlier tree it extracts from) has been emitted. Seed stores are
        // at the end of the covered region, so this never reorders memory
        // effects (asserted below).
        let mut anchors: Vec<usize> = Vec::with_capacity(self.trees.len());
        for t in &self.trees {
            let mut anchor = t.stores.iter().map(|s| s.index()).min().unwrap();
            for b in &t.bundles {
                if !matches!(b.kind, BundleKind::Gather) {
                    continue;
                }
                for &v in &b.vals {
                    if matches!(f.inst(v).kind, InstKind::Const(_)) {
                        continue;
                    }
                    match self.claimed.get(&v) {
                        None => anchor = anchor.max(v.index() + 1),
                        Some(&(ot, _, _)) if ot < anchors.len() => anchor = anchor.max(anchors[ot]),
                        Some(_) => {}
                    }
                }
            }
            // Memory safety: nothing emitted after the anchor may depend on
            // the covered stores.
            for (v, inst) in f.iter() {
                if v.index() >= anchor || !inst.touches_memory() {
                    continue;
                }
                for &s in &t.stores {
                    assert!(
                        !self.deps.depends(v, s),
                        "baseline scheduling would reorder memory operations"
                    );
                }
            }
            anchors.push(anchor);
        }
        let mut tree_at: HashMap<usize, Vec<usize>> = HashMap::new();
        for (ti, &a) in anchors.iter().enumerate() {
            tree_at.entry(a).or_default().push(ti);
        }

        let mut scalar_reg: HashMap<ValueId, Reg> = HashMap::new();
        let mut bundle_reg: HashMap<(usize, usize), Reg> = HashMap::new();
        let mut extract_reg: HashMap<(usize, usize, usize), Reg> = HashMap::new();

        for (v, _) in f.iter() {
            if let Some(trees) = tree_at.get(&v.index()) {
                for &ti in trees {
                    self.emit_tree(
                        ti,
                        &mut prog,
                        &mut scalar_reg,
                        &mut bundle_reg,
                        &mut extract_reg,
                    );
                }
            }
            if need_scalar[v.index()] {
                self.emit_scalar(v, &mut prog, &mut scalar_reg, &bundle_reg, &mut extract_reg);
            }
        }
        // Trees anchored past the last instruction.
        if let Some(trees) = tree_at.get(&f.insts.len()) {
            for &ti in trees {
                self.emit_tree(ti, &mut prog, &mut scalar_reg, &mut bundle_reg, &mut extract_reg);
            }
        }
        crate::peephole::fuse(&mut prog);
        prog
    }

    fn scalar_value_reg(
        &self,
        v: ValueId,
        prog: &mut VmProgram,
        scalar_reg: &mut HashMap<ValueId, Reg>,
        bundle_reg: &HashMap<(usize, usize), Reg>,
        extract_reg: &mut HashMap<(usize, usize, usize), Reg>,
    ) -> Reg {
        if let Some(&r) = scalar_reg.get(&v) {
            return r;
        }
        // A constant is never claimed: a bundle holding one is a gather.
        if let Some(&(t, b, lane)) = self.claimed.get(&v) {
            if let Some(&r) = extract_reg.get(&(t, b, lane)) {
                return r;
            }
            if let Some(&src) = bundle_reg.get(&(t, b)) {
                let dst = prog.fresh_reg();
                prog.push(VmInst::Extract { dst, src, lane });
                extract_reg.insert((t, b, lane), dst);
                return dst;
            }
            // The producing tree anchors later than this use: recompute the
            // value redundantly as a scalar (operands have strictly smaller
            // indices, so the recursion terminates).
        }
        self.emit_scalar(v, prog, scalar_reg, bundle_reg, extract_reg)
            .expect("baseline: a store is never a scalar operand")
    }

    /// Emit `v`'s instruction as scalar code, its operands resolved in
    /// order through [`Self::scalar_value_reg`], and return its register
    /// (none for a store).
    fn emit_scalar(
        &self,
        v: ValueId,
        prog: &mut VmProgram,
        scalar_reg: &mut HashMap<ValueId, Reg>,
        bundle_reg: &HashMap<(usize, usize), Reg>,
        extract_reg: &mut HashMap<(usize, usize, usize), Reg>,
    ) -> Option<Reg> {
        let inst = self
            .f
            .inst(v)
            .map(|x| self.scalar_value_reg(x, prog, scalar_reg, bundle_reg, extract_reg));
        let dst = prog.push_scalar(inst)?;
        scalar_reg.insert(v, dst);
        Some(dst)
    }

    fn emit_tree(
        &self,
        ti: usize,
        prog: &mut VmProgram,
        scalar_reg: &mut HashMap<ValueId, Reg>,
        bundle_reg: &mut HashMap<(usize, usize), Reg>,
        extract_reg: &mut HashMap<(usize, usize, usize), Reg>,
    ) {
        let t = &self.trees[ti];
        // Emit bundles in child-first order via explicit stack.
        let mut order: Vec<usize> = Vec::new();
        let mut visited = vec![false; t.bundles.len()];
        fn visit(b: usize, t: &Tree, visited: &mut [bool], order: &mut Vec<usize>) {
            if visited[b] {
                return;
            }
            visited[b] = true;
            for &c in &t.bundles[b].children {
                visit(c, t, visited, order);
            }
            order.push(b);
        }
        visit(t.root, t, &mut visited, &mut order);

        for &bi in &order {
            let b = &t.bundles[bi];
            let reg = match &b.kind {
                BundleKind::Load { base, start } => {
                    let dst = prog.fresh_reg();
                    prog.push(VmInst::VecLoad {
                        dst,
                        base: *base,
                        start: *start,
                        lanes: b.vals.len(),
                        elem: b.ty,
                    });
                    dst
                }
                BundleKind::Gather => {
                    let lanes: Vec<LaneSrc> = b
                        .vals
                        .iter()
                        .map(|&v| {
                            if let InstKind::Const(c) = self.f.inst(v).kind {
                                LaneSrc::Const(c)
                            } else if let Some((src, lane)) =
                                self.claimed.get(&v).and_then(|&(ot, ob, lane)| {
                                    bundle_reg.get(&(ot, ob)).map(|&r| (r, lane))
                                })
                            {
                                LaneSrc::FromVec { src, lane }
                            } else {
                                // Unclaimed, or claimed by a tree that
                                // anchors later: (re)compute as a scalar.
                                LaneSrc::FromScalar(self.scalar_value_reg(
                                    v,
                                    prog,
                                    scalar_reg,
                                    &bundle_reg.clone(),
                                    extract_reg,
                                ))
                            }
                        })
                        .collect();
                    let dst = prog.fresh_reg();
                    prog.push(VmInst::Build { dst, elem: b.ty, lanes });
                    dst
                }
                BundleKind::Op(shape) => {
                    let args: Vec<Reg> = b.children.iter().map(|c| bundle_reg[&(ti, *c)]).collect();
                    let in_tys: Vec<Type> = b.children.iter().map(|&c| t.bundles[c].ty).collect();
                    let sem = synth_simd_sem(*shape, &in_tys, b.ty, b.vals.len());
                    let cost = self.bundle_vec_cost(b);
                    let si = prog.intern_sem(&sem, &sem.name.clone(), cost);
                    let dst = prog.fresh_reg();
                    prog.push(VmInst::VecOp { dst, sem: si, args });
                    dst
                }
                BundleKind::AltFAddSub => {
                    // As LLVM emits it before the backend: a full fsub, a
                    // full fadd, and a blend of alternating lanes.
                    let lhs = bundle_reg[&(ti, b.children[0])];
                    let rhs = bundle_reg[&(ti, b.children[1])];
                    let in_tys = vec![b.ty, b.ty];
                    let sub_sem =
                        synth_simd_sem(OpShape::Bin(BinOp::FSub), &in_tys, b.ty, b.vals.len());
                    let add_sem =
                        synth_simd_sem(OpShape::Bin(BinOp::FAdd), &in_tys, b.ty, b.vals.len());
                    let si_sub = prog.intern_sem(&sub_sem, &sub_sem.name.clone(), 1.0);
                    let si_add = prog.intern_sem(&add_sem, &add_sem.name.clone(), 1.0);
                    let r_sub = prog.fresh_reg();
                    let r_add = prog.fresh_reg();
                    prog.push(VmInst::VecOp { dst: r_sub, sem: si_sub, args: vec![lhs, rhs] });
                    prog.push(VmInst::VecOp { dst: r_add, sem: si_add, args: vec![lhs, rhs] });
                    let lanes: Vec<LaneSrc> = (0..b.vals.len())
                        .map(|i| LaneSrc::FromVec {
                            src: if i % 2 == 0 { r_sub } else { r_add },
                            lane: i,
                        })
                        .collect();
                    let dst = prog.fresh_reg();
                    prog.push(VmInst::Build { dst, elem: b.ty, lanes });
                    dst
                }
            };
            bundle_reg.insert((ti, bi), reg);
        }
        // The vector store.
        let src = bundle_reg[&(ti, t.root)];
        prog.push(VmInst::VecStore { base: t.store_base, start: t.store_start, src });
    }
}

/// Synthesize the VIDL semantics of a generic (LLVM vector IR style) SIMD
/// operation: `lanes` parallel copies of `shape` with elementwise operands.
pub fn synth_simd_sem(
    shape: OpShape,
    in_tys: &[Type],
    out_ty: Type,
    lanes: usize,
) -> InstSemantics {
    let (name, params, expr): (String, Vec<Type>, Expr) = match shape {
        OpShape::Bin(op) => (
            format!("llvm.{}.v{lanes}{out_ty}", op.name()),
            vec![in_tys[0], in_tys[1]],
            Expr::Bin { op, lhs: Box::new(Expr::Param(0)), rhs: Box::new(Expr::Param(1)) },
        ),
        OpShape::Cast(op, to, from) => (
            format!("llvm.{}.{from}.v{lanes}{to}", op.name()),
            vec![in_tys[0]],
            Expr::Cast { op, to, arg: Box::new(Expr::Param(0)) },
        ),
        OpShape::Cmp(pred, _) => (
            format!("llvm.cmp_{}.v{lanes}{}", pred.name(), in_tys[0]),
            vec![in_tys[0], in_tys[1]],
            Expr::Cmp { pred, lhs: Box::new(Expr::Param(0)), rhs: Box::new(Expr::Param(1)) },
        ),
        OpShape::Select => (
            format!("llvm.select.v{lanes}{out_ty}"),
            vec![in_tys[0], in_tys[1], in_tys[2]],
            Expr::Select {
                cond: Box::new(Expr::Param(0)),
                on_true: Box::new(Expr::Param(1)),
                on_false: Box::new(Expr::Param(2)),
            },
        ),
        OpShape::FNeg => (
            format!("llvm.fneg.v{lanes}{out_ty}"),
            vec![in_tys[0]],
            Expr::FNeg(Box::new(Expr::Param(0))),
        ),
    };
    let op = Operation { name: format!("{name}_op"), params: params.clone(), ret: out_ty, expr };
    let inputs: Vec<VecShape> = params.iter().map(|&elem| VecShape { lanes, elem }).collect();
    let lane_bindings: Vec<LaneBinding> = (0..lanes)
        .map(|l| LaneBinding {
            op: 0,
            args: (0..params.len()).map(|input| LaneRef { input, lane: l }).collect(),
        })
        .collect();
    InstSemantics { name, inputs, out_elem: out_ty, ops: vec![op], lanes: lane_bindings }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_sem_is_wellformed_simd() {
        let sem = synth_simd_sem(OpShape::Bin(BinOp::Add), &[Type::I32, Type::I32], Type::I32, 4);
        vegen_vidl::check_inst(&sem).unwrap();
        assert!(sem.is_simd());
        assert_eq!(sem.out_lanes(), 4);
        let sel = synth_simd_sem(OpShape::Select, &[Type::I1, Type::F32, Type::F32], Type::F32, 8);
        vegen_vidl::check_inst(&sel).unwrap();
    }
}
