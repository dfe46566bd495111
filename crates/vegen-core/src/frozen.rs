//! Frozen, thread-shareable selection context.
//!
//! The live [`VectorizerCtx`] interns operands/packs lazily through a
//! `RefCell`, which is single-threaded by construction. The parallel beam
//! search instead runs a *freeze pre-pass*: a closure fixpoint that
//! populates every producer/covering/group/pack-operand memo up front
//! (still through the live context, so its memos stay warm for later
//! calls), then snapshots the arenas into an immutable [`FrozenCtx`] that
//! workers share by reference — no locks, no interior mutability, and
//! byte-identical data on every thread.
//!
//! The closure is the transitive reachable set from the seed packs: every
//! pack's operands are interned, every operand's producers / covering
//! loads / opcode groups are enumerated, and every pack those yield is
//! processed in turn, in ascending id order until both arenas stop
//! growing. After the fixpoint the search itself interns nothing, so the
//! snapshot can never go stale mid-search.
//!
//! [`FrozenSlp`] is the Fig. 7 `costSLP` evaluator over a frozen context.
//! It mirrors [`crate::slp::SlpCost`] *exactly* — same arms, same
//! recursion order, same cycle guard — so its memoized values are
//! bit-identical to the live evaluator's; the beam keeps this evaluation
//! on the main thread (see `crate::beam`) precisely so f64 accumulation
//! order never depends on the worker count.

use crate::beam::{BeamConfig, SearchBudget, SelectError};
use crate::bits::{bit, intersects, set_bit, BitMatrix};
use crate::cost::CostModel;
use crate::ctx::VectorizerCtx;
use crate::intern::{InternSnapshot, OperandId, PackData, PackId};
use crate::operand::OperandVec;
use crate::pack::Pack;
use crate::seeds::{enumerate_seeds, AffinityParams};
use std::time::Instant;
#[cfg(any(test, debug_assertions))]
use vegen_ir::deps::DepGraph;
use vegen_ir::{Function, InstKind, ValueId};

/// An immutable snapshot of everything `select_packs` reads: the function,
/// its dependence/use structure, the cost model, the fully populated
/// interner arenas and candidate indexes, per-pack costs, the
/// per-value scalar-closure cost table, the resolved seed packs, and the
/// bit masks of the transition kernel.
///
/// ## Transition-kernel masks
///
/// Every mask is a row of `words` `u64`s indexed by value
/// index, computed once here so one beam transition is a few word-ANDs:
///
/// * per value `v`: `users_mask[v]` (its use-def users) — "all users of
///   `v` are decided" is `users_mask[v] & free == 0`;
/// * per pack `p`: `dep_mask[p]` (OR of the dependence-closure rows of
///   the values it defines), a `static_illegal` bit, and its matches'
///   interior values in descending index order. The values a pack defines
///   are not stored as a row: they are the (at most vector-length)
///   `PackData::defined` list, tested bit by bit against a row — a third
///   of the per-pack mask memory for the same answers.
///
/// Pack-set legality (§4.4: the dependence graph with every pack
/// contracted to one node stays acyclic) is decided from these alone. Write
/// `def[B]` for the values pack `B` defines and `A ⇒ B` iff
/// `dep_mask[A] ∩ def[B] ≠ ∅`. A set of packs is legal
/// iff (a) no pack is `static_illegal` — defines one value twice, or has a
/// dependence path that leaves the pack and re-enters it: some `a ∈ P`
/// with a direct dependence `d ∉ P` whose closure meets `P` — (b) no value
/// is in two packs, and (c) `⇒` restricted to *distinct* packs is acyclic.
/// Edges inside one pack are not cycles (the from-scratch check in
/// [`crate::ctx::packs_legal`] drops them too), which is why `A ⇒ A` is
/// never consulted. DESIGN.md §6 gives the argument that (a)–(c) are
/// exact.
///
/// A `FrozenCtx` owns all of its data (the function is cloned out of the
/// borrowed context), so an `Arc<FrozenCtx>` outlives the `VectorizerCtx`
/// it was frozen from — that is what lets the engine's degradation ladder
/// reuse one snapshot across rungs that each build a fresh live context.
#[derive(Debug)]
pub struct FrozenCtx {
    pub(crate) f: Function,
    /// For the from-scratch legality oracle the search asserts against in
    /// debug builds and tests; the search itself reads only the masks.
    #[cfg(any(test, debug_assertions))]
    pub(crate) deps: DepGraph,
    /// Length of every value-indexed bit row.
    pub(crate) words: usize,
    /// Use lists as lists, for the reference sweep the tests compare with.
    #[cfg(test)]
    pub(crate) users: Vec<Vec<ValueId>>,
    users_mask: BitMatrix,
    /// The constants of `f` (never charged, never demanded).
    pub(crate) const_mask: Vec<u64>,
    dep_mask: BitMatrix,
    static_illegal: Vec<bool>,
    /// Interior values of each compute pack's matches (covered, not
    /// defined), descending, as `interior[interior_at[p]..interior_at[p+1]]`.
    interior: Vec<ValueId>,
    interior_at: Vec<u32>,
    pub(crate) cost: CostModel,
    /// `desc.insts[i].def.name` — all the target description the search
    /// output (pack descriptions) needs.
    pub(crate) inst_names: Vec<String>,
    pub(crate) snap: InternSnapshot,
    /// `pack_cost` by [`PackId`] index.
    pub(crate) pack_costs: Vec<f64>,
    /// `scalar_closure_cost(f, [v])` by `ValueId` index (bit-identical to
    /// the per-call computation; see [`CostModel::scalar_one_costs`]).
    pub(crate) scalar_one: Vec<f64>,
    /// Cost of the all-scalar block.
    pub(crate) scalar_cost: f64,
    /// Resolved seed packs (store chains + affinity), in seed order.
    pub(crate) seed_packs: Vec<PackId>,
    /// Reuse-compatibility fingerprint: the seed parameters the snapshot
    /// was frozen under (seed resolution is part of the closure).
    seeds: AffinityParams,
    use_affinity_seeds: bool,
}

/// How often the freeze fixpoint polls wall/cancellation budgets.
const FREEZE_BUDGET_STRIDE: u32 = 16;

fn budget_ok(budget: &SearchBudget, t0: Instant) -> Result<(), SelectError> {
    if let Some(w) = budget.wall {
        let elapsed = t0.elapsed();
        if elapsed >= w {
            vegen_trace::instant("beam", "budget_wall");
            return Err(SelectError::Deadline { budget: w, elapsed });
        }
    }
    if let Some(token) = &budget.cancel {
        if token.is_cancelled() {
            vegen_trace::instant("beam", "cancelled");
            return Err(SelectError::Cancelled);
        }
    }
    Ok(())
}

impl FrozenCtx {
    /// Run the closure fixpoint against the live context, then snapshot.
    ///
    /// Seed packs are resolved first — in exactly the order the search
    /// preamble always used, so interned ids of the seed phase are
    /// unchanged — then every operand id gets its producers, covering
    /// loads, and opcode groups enumerated and every pack id its operand
    /// bindings, in ascending id order, until the arenas stop growing.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] if the configured wall/cancellation
    /// budget trips mid-freeze (the fixpoint is the interning-heavy phase,
    /// so it polls the budget cooperatively).
    pub(crate) fn freeze(
        ctx: &VectorizerCtx<'_>,
        cfg: &BeamConfig,
        t0: Instant,
    ) -> Result<FrozenCtx, SelectError> {
        let _sp = vegen_trace::span("beam", "freeze");
        budget_ok(&cfg.budget, t0)?;

        // Seed packs: store chains always; affinity seeds resolved through
        // Algorithm 1 into concrete packs.
        let mut seed_packs: Vec<PackId> =
            ctx.store_chain_packs().into_iter().map(|p| ctx.intern_pack(p)).collect();
        if cfg.use_affinity_seeds {
            for x in enumerate_seeds(ctx, &cfg.seeds) {
                let id = ctx.intern_operand(&x);
                seed_packs.extend(ctx.producers_for(id).iter().copied());
            }
        }
        seed_packs.dedup();

        // Closure fixpoint over the arenas.
        let mut next_op = 0u32;
        let mut next_pack = 0u32;
        let mut stride = 0u32;
        loop {
            let stats = ctx.intern_stats();
            if next_op >= stats.operands as u32 && next_pack >= stats.packs as u32 {
                break;
            }
            while next_pack < ctx.intern_stats().packs as u32 {
                let _ = ctx.pack_operand_ids(PackId(next_pack));
                next_pack += 1;
                stride += 1;
                if stride.is_multiple_of(FREEZE_BUDGET_STRIDE) {
                    budget_ok(&cfg.budget, t0)?;
                }
            }
            while next_op < ctx.intern_stats().operands as u32 {
                let id = OperandId(next_op);
                let _ = ctx.producers_for(id);
                let _ = ctx.covering_for(id);
                let _ = ctx.groups_for(id);
                next_op += 1;
                stride += 1;
                if stride.is_multiple_of(FREEZE_BUDGET_STRIDE) {
                    budget_ok(&cfg.budget, t0)?;
                }
            }
        }

        let f = ctx.f.clone();
        let snap = ctx.intern_snapshot();
        let pack_costs: Vec<f64> = snap.packs.iter().map(|p| ctx.pack_cost(p)).collect();
        let scalar_one = ctx.cost.scalar_one_costs(&f);
        let scalar_cost: f64 = f.value_ids().map(|v| ctx.cost.scalar_inst_cost(&f, v)).sum();

        let n = f.insts.len();
        let words = n.div_ceil(64).max(1);
        let mut users_mask = BitMatrix::new(n, words);
        for (v, users) in ctx.users.iter().enumerate() {
            for u in users {
                set_bit(users_mask.row_mut(v), u.index());
            }
        }
        let mut const_mask = vec![0u64; words];
        for (v, inst) in f.iter() {
            if matches!(inst.kind, InstKind::Const(_)) {
                set_bit(&mut const_mask, v.index());
            }
        }
        let n_packs = snap.packs.len();
        let mut dep_mask = BitMatrix::new(n_packs, words);
        let mut def = vec![0u64; words];
        let mut static_illegal = vec![false; n_packs];
        let mut interior: Vec<ValueId> = Vec::new();
        let mut interior_at: Vec<u32> = Vec::with_capacity(n_packs + 1);
        let mut covered: Vec<ValueId> = Vec::new();
        for (pi, data) in snap.pack_data.iter().enumerate() {
            def.fill(0);
            for &v in &data.defined {
                // A value defined twice by one pack.
                static_illegal[pi] |= !set_bit(&mut def, v.index());
                for (acc, w) in dep_mask.row_mut(pi).iter_mut().zip(ctx.deps.closure_row(v)) {
                    *acc |= w;
                }
            }
            // A dependence path that leaves the pack and comes back.
            static_illegal[pi] |= data.defined.iter().any(|&a| {
                ctx.deps
                    .direct_deps(a)
                    .iter()
                    .any(|&d| !bit(&def, d.index()) && intersects(ctx.deps.closure_row(d), &def))
            });
            interior_at.push(interior.len() as u32);
            if let Pack::Compute { matches, .. } = &*snap.packs[pi] {
                covered.clear();
                covered.extend(
                    matches
                        .iter()
                        .flatten()
                        .flat_map(|m| m.covered.iter().copied())
                        .filter(|v| !bit(&def, v.index())),
                );
                covered.sort_unstable();
                covered.dedup();
                interior.extend(covered.iter().rev());
            }
        }
        interior_at.push(interior.len() as u32);

        Ok(FrozenCtx {
            #[cfg(any(test, debug_assertions))]
            deps: ctx.deps.clone(),
            words,
            #[cfg(test)]
            users: ctx.users.clone(),
            users_mask,
            const_mask,
            dep_mask,
            static_illegal,
            interior,
            interior_at,
            cost: ctx.cost,
            inst_names: ctx.desc.insts.iter().map(|i| i.def.name.clone()).collect(),
            snap,
            pack_costs,
            scalar_one,
            scalar_cost,
            seed_packs,
            seeds: cfg.seeds,
            use_affinity_seeds: cfg.use_affinity_seeds,
            f,
        })
    }

    /// Whether this snapshot can serve a search over `ctx` under `cfg`:
    /// same function, same seed configuration. Width, budgets, logging,
    /// and thread count never invalidate a snapshot.
    pub(crate) fn compatible(&self, ctx: &VectorizerCtx<'_>, cfg: &BeamConfig) -> bool {
        self.use_affinity_seeds == cfg.use_affinity_seeds
            && self.seeds == cfg.seeds
            && self.f == *ctx.f
    }

    /// The frozen function.
    pub fn function(&self) -> &Function {
        &self.f
    }

    pub(crate) fn operand(&self, id: OperandId) -> &std::sync::Arc<OperandVec> {
        &self.snap.operands[id.0 as usize]
    }

    pub(crate) fn pack(&self, id: PackId) -> &Pack {
        &self.snap.packs[id.0 as usize]
    }

    pub(crate) fn pack_data(&self, id: PackId) -> &PackData {
        &self.snap.pack_data[id.0 as usize]
    }

    pub(crate) fn producers_for(&self, id: OperandId) -> &[PackId] {
        &self.snap.producers[id.0 as usize]
    }

    pub(crate) fn covering_for(&self, id: OperandId) -> &[PackId] {
        &self.snap.covering[id.0 as usize]
    }

    pub(crate) fn groups_for(&self, id: OperandId) -> &[OperandId] {
        &self.snap.groups[id.0 as usize]
    }

    pub(crate) fn pack_operand_ids(&self, id: PackId) -> Option<&[OperandId]> {
        self.snap.pack_operands[id.0 as usize].as_deref()
    }

    pub(crate) fn pack_cost_of(&self, id: PackId) -> f64 {
        self.pack_costs[id.0 as usize]
    }

    pub(crate) fn inst_name(&self, di: usize) -> &str {
        &self.inst_names[di]
    }

    pub(crate) fn scalar_one(&self, v: ValueId) -> f64 {
        self.scalar_one[v.index()]
    }

    /// Whether every user of `v` is decided (absent from `free`). Users
    /// follow their operand in program order, so words below `v`'s own
    /// hold none.
    pub(crate) fn users_decided(&self, free: &[u64], v: ValueId) -> bool {
        let w0 = v.index() / 64;
        !intersects(&self.users_mask.row(v.index())[w0..], &free[w0..])
    }

    /// Whether pack `id` defines a value in `row`.
    pub(crate) fn defines_any(&self, id: PackId, row: &[u64]) -> bool {
        self.pack_data(id).defined.iter().any(|v| bit(row, v.index()))
    }

    /// Everything the values pack `id` defines transitively depend on.
    pub(crate) fn dep_mask(&self, id: PackId) -> &[u64] {
        self.dep_mask.row(id.0 as usize)
    }

    /// Whether pack `id` is illegal in every pack set (see the type docs).
    pub(crate) fn static_illegal(&self, id: PackId) -> bool {
        self.static_illegal[id.0 as usize]
    }

    /// The interior values of pack `id`'s matches, descending.
    pub(crate) fn interior(&self, id: PackId) -> &[ValueId] {
        let i = id.0 as usize;
        &self.interior[self.interior_at[i] as usize..self.interior_at[i + 1] as usize]
    }

    /// The insertion arm of the Fig. 7 recurrence (see
    /// [`crate::slp::SlpCost::insert_arm`]).
    pub(crate) fn insert_arm(&self, x: &OperandVec) -> f64 {
        self.cost.operand_insert_cost(&self.f, x)
            + self.cost.scalar_closure_cost(&self.f, x.defined())
    }
}

/// The `costSLP` DP of Fig. 7 over a [`FrozenCtx`] — the exact mirror of
/// [`crate::slp::SlpCost`], with the `RefCell`s replaced by `&mut self`
/// (the beam evaluates estimates on the main thread only, so no interior
/// mutability is needed) and the arena already fully populated (so the
/// recursion interns nothing).
///
/// The memo survives across searches when carried in a
/// `crate::beam::SelectionReuse`: `costSLP` depends only on the frozen
/// context, never on beam width or search state, so reused values are
/// literally the ones a fresh evaluation would produce.
#[derive(Debug, Default)]
pub struct FrozenSlp {
    memo: Vec<Option<f64>>,
    in_progress: Vec<bool>,
}

impl FrozenSlp {
    /// A fresh evaluator (empty memo).
    pub fn new() -> FrozenSlp {
        FrozenSlp::default()
    }

    /// Drop all memoized values (used when the frozen context changes or
    /// after a caught panic may have stranded `in_progress` marks).
    pub fn reset(&mut self) {
        self.memo.clear();
        self.in_progress.clear();
    }

    /// `costSLP` of an interned operand.
    pub(crate) fn cost_id(&mut self, fz: &FrozenCtx, id: OperandId) -> f64 {
        let i = id.0 as usize;
        if let Some(c) = self.memo.get(i).copied().flatten() {
            return c;
        }
        if self.in_progress.len() <= i {
            self.in_progress.resize(i + 1, false);
        }
        if self.in_progress[i] {
            // Cycle through producers: unproducible on this path.
            return f64::INFINITY;
        }
        self.in_progress[i] = true;
        let x = fz.operand(id).clone();
        let mut best = fz.insert_arm(&x);
        if let Some(c) = self.cover_arm_id(fz, id, &x) {
            best = best.min(c);
        }
        for &pid in fz.producers_for(id) {
            if let Some(c) = self.pack_arm_id(fz, pid) {
                best = best.min(c);
            }
        }
        // Blend arm: a mixed-opcode operand produced by one pack per
        // opcode group plus shuffles to merge them.
        let groups = fz.groups_for(id);
        if !groups.is_empty() {
            let mut c = fz.cost.c_shuffle * (groups.len() - 1) as f64;
            for &g in groups {
                c += self.cost_id(fz, g);
            }
            best = best.min(c);
        }
        self.in_progress[i] = false;
        if self.memo.len() <= i {
            self.memo.resize(i + 1, None);
        }
        self.memo[i] = Some(best);
        best
    }

    fn cover_arm_id(&mut self, fz: &FrozenCtx, id: OperandId, x: &OperandVec) -> Option<f64> {
        let f = &fz.f;
        if x.defined_count() == 0
            || !x.defined().all(|v| matches!(f.inst(v).kind, InstKind::Load { .. }))
        {
            return None;
        }
        let packs = fz.covering_for(id);
        if packs.is_empty() {
            return None;
        }
        // Every defined lane must actually be inside some covering pack.
        let covered = |v| packs.iter().any(|&pid| fz.pack_data(pid).values.contains(&Some(v)));
        if !x.defined().all(covered) {
            return None;
        }
        let loads: f64 = packs.iter().map(|&pid| fz.pack_cost_of(pid)).sum();
        Some(loads + fz.cost.c_shuffle * packs.len() as f64)
    }

    fn pack_arm_id(&mut self, fz: &FrozenCtx, pid: PackId) -> Option<f64> {
        let operand_ids = fz.pack_operand_ids(pid)?;
        let mut c = fz.pack_cost_of(pid);
        for &oid in operand_ids {
            if fz.operand(oid).defined_count() == 0 {
                continue;
            }
            c += self.cost_id(fz, oid);
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slp::SlpCost;
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_isa::{InstDb, TargetIsa};
    use vegen_match::TargetDesc;

    fn avx2_desc() -> TargetDesc {
        TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
    }

    fn dot4() -> Function {
        let mut b = FunctionBuilder::new("dot4");
        let a = b.param("A", Type::I16, 8);
        let bb = b.param("B", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let a0 = b.load(a, lane * 2);
            let b0 = b.load(bb, lane * 2);
            let a1 = b.load(a, lane * 2 + 1);
            let b1 = b.load(bb, lane * 2 + 1);
            let a0w = b.sext(a0, Type::I32);
            let b0w = b.sext(b0, Type::I32);
            let a1w = b.sext(a1, Type::I32);
            let b1w = b.sext(b1, Type::I32);
            let m0 = b.mul(a0w, b0w);
            let m1 = b.mul(a1w, b1w);
            let t = b.add(m0, m1);
            b.store(c, lane, t);
        }
        canonicalize(&b.finish())
    }

    #[test]
    fn frozen_slp_matches_live_slp_bit_for_bit() {
        let desc = avx2_desc();
        let f = dot4();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig::default();
        let fz = FrozenCtx::freeze(&ctx, &cfg, Instant::now()).unwrap();
        let live = SlpCost::new(&ctx);
        let mut frozen = FrozenSlp::new();
        // Every interned operand must cost identically under both
        // evaluators (same arms, same recursion, same memo discipline) —
        // evaluated in the same ascending-id order so cycle-guard entry
        // order matches too.
        for i in 0..fz.snap.operands.len() as u32 {
            let id = OperandId(i);
            let a = live.cost_id(id);
            let b = frozen.cost_id(&fz, id);
            assert_eq!(a.to_bits(), b.to_bits(), "operand {i}: live {a} != frozen {b}");
        }
    }

    #[test]
    fn freeze_is_compatible_with_same_function_and_seeds() {
        let desc = avx2_desc();
        let f = dot4();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig::default();
        let fz = FrozenCtx::freeze(&ctx, &cfg, Instant::now()).unwrap();
        // Same function, fresh context, different width: compatible.
        let ctx2 = VectorizerCtx::new(&f, &desc, CostModel::default());
        assert!(fz.compatible(&ctx2, &BeamConfig::slp()));
        // Different seed parameters: not compatible.
        let other = BeamConfig { use_affinity_seeds: false, ..BeamConfig::default() };
        assert!(!fz.compatible(&ctx2, &other));
        // Different function: not compatible.
        let mut b = FunctionBuilder::new("other");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        b.store(p, 1, x);
        let g = canonicalize(&b.finish());
        let ctx3 = VectorizerCtx::new(&g, &desc, CostModel::default());
        assert!(!fz.compatible(&ctx3, &cfg));
    }

    #[test]
    fn freeze_honours_wall_budget() {
        use std::time::Duration;
        let desc = avx2_desc();
        let f = dot4();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig {
            budget: SearchBudget { wall: Some(Duration::ZERO), ..SearchBudget::default() },
            ..BeamConfig::default()
        };
        assert!(matches!(
            FrozenCtx::freeze(&ctx, &cfg, Instant::now()),
            Err(SelectError::Deadline { .. })
        ));
    }
}
