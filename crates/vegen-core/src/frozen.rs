//! Frozen, thread-shareable selection context.
//!
//! Pack selection starts with a *freeze*: every candidate the search could
//! reach is enumerated once, into a candidate [`Arena`], and the result is
//! an immutable [`FrozenCtx`] that beam workers share by reference — no
//! locks, no interior mutability, and byte-identical data on every thread.
//!
//! The candidates are the closure of the seed packs: every pack's operands
//! are interned, every operand's producers / covering loads / opcode
//! groups are enumerated, and every pack those yield is processed in turn,
//! in ascending id order until both arenas stop growing. The search itself
//! interns nothing, so a frozen context can never go stale mid-search, and
//! the search and its estimator read one candidate set.
//!
//! [`FrozenSlp`] is the `costSLP` dynamic program of Fig. 7 over a frozen
//! context:
//!
//! ```text
//! costSLP(v) = min( min_{p in producers(v)} costop(p) + Σ_i costSLP(operand_i(p)),
//!                   Cinsert·|v| + costscalar(v) )
//! ```
//!
//! It decides whether to produce a vector operand `v` directly via a
//! producer pack (recursively costing that pack's operands) or to build it
//! with vector insertions from scalar values — "the main modification we
//! added to the original SLP algorithm — in SLP-based vectorization, there
//! is at most one pack that can produce any given operand" (§5.1). The
//! beam ranks states by the same quantity (§5.2) and keeps the evaluation
//! on the main thread (see `crate::beam`), so f64 accumulation order never
//! depends on the worker count.

use crate::beam::{describe_compute, describe_pack, BeamConfig, SearchBudget, SelectError};
use crate::bits::{bit, intersects, set_bit, BitMatrix};
use crate::cost::CostModel;
use crate::ctx::VectorizerCtx;
use crate::intern::{Arena, OperandId, PackId, PackRef};
use crate::operand::OperandVec;
use crate::pack::{Pack, PackedMatch};
use crate::seeds::{enumerate_seeds, AffinityParams};
use std::time::Instant;
#[cfg(any(test, debug_assertions))]
use vegen_ir::deps::DepGraph;
use vegen_ir::{Function, InstKind, ValueId};
use vegen_match::OpId;

/// An immutable snapshot of everything `select_packs` reads: the function,
/// its dependence/use structure, the cost model, the candidate arena and
/// its operands' content ranks, per-pack costs, the per-value
/// scalar-closure cost table, the resolved seed packs, and the bit masks of
/// the transition kernel.
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
///   are not stored as a row: they are the (at most vector-length) defined
///   lanes of `Arena::values`, tested bit by bit against a row — a third
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
/// borrowed context, and the match-table entries its compute packs
/// reference are kept once each in a `MatchColumn`), so an
/// `Arc<FrozenCtx>` outlives the `VectorizerCtx` it was frozen from — that
/// is what lets the engine's degradation ladder reuse one snapshot across
/// rungs that each build a fresh context.
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
    /// What a compute pack's matches are, for the few places a [`Pack`]
    /// is materialized.
    matches: MatchColumn,
    pub(crate) cost: CostModel,
    /// `desc.insts[i].def.name` as `inst_names[inst_name_at[i]..inst_name_at[i + 1]]`
    /// — with the lane operations in `matches`, all the target description
    /// the search output (pack descriptions) needs.
    inst_names: String,
    inst_name_at: Vec<u32>,
    /// Every operand and pack the search can reach, with their candidate
    /// lists.
    pub(crate) arena: Arena,
    /// By [`OperandId`] index: the operand's position among all frozen
    /// operands in content (lane-lexicographic) order. A state's `V` is
    /// sorted by it, which is the order `V` iterated in when it held the
    /// operands themselves, so every `f64` sum over `V` adds in that order.
    operand_rank: Vec<u32>,
    /// `pack_cost` by [`PackId`] index.
    pub(crate) pack_costs: Vec<f64>,
    /// `scalar_closure_cost(f, [v])` by `ValueId` index (bit-identical to
    /// the per-call computation; see [`CostModel::scalar_one_costs`]).
    pub(crate) scalar_one: Vec<f64>,
    /// Cost of the all-scalar block.
    pub(crate) scalar_cost: f64,
    /// Resolved seed packs (store chains + affinity), in seed order.
    pub(crate) seed_packs: Vec<PackId>,
    /// The seed packs by their first defined lane: value `v`'s are the
    /// ascending `seed_packs` positions `seed_first[seed_first_at[v]..
    /// seed_first_at[v + 1]]`. A pack applies only if that lane is ready,
    /// so expansion visits only the lists of ready values.
    seed_first: Vec<u32>,
    seed_first_at: Vec<u32>,
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
    /// Freeze `ctx` the way [`crate::select_packs`] does before it
    /// searches: a snapshot to inspect, or to measure on its own.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] if a configured wall or cancellation
    /// budget trips mid-freeze.
    pub fn new(ctx: &VectorizerCtx<'_>, cfg: &BeamConfig) -> Result<FrozenCtx, SelectError> {
        FrozenCtx::freeze(ctx, cfg, Instant::now())
    }

    /// Enumerate the candidate closure of `ctx` under `cfg`'s seeds and
    /// derive the search's tables from it.
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
        FrozenCtx::freeze_from(Arena::default(), ctx, cfg, t0)
    }

    /// [`Self::freeze`] on top of what `arena` already holds (the legality
    /// tests intern packs no seed would reach).
    ///
    /// Seed packs are resolved first — store chains, then the producers of
    /// each affinity seed — and then [`Arena::close`] sweeps to the
    /// fixpoint. Ids are assigned in interning order, so this order is what
    /// makes a freeze reproducible.
    pub(crate) fn freeze_from(
        mut arena: Arena,
        ctx: &VectorizerCtx<'_>,
        cfg: &BeamConfig,
        t0: Instant,
    ) -> Result<FrozenCtx, SelectError> {
        let _sp = vegen_trace::span("beam", "freeze");
        budget_ok(&cfg.budget, t0)?;
        // Polled once per first lane of the seed enumeration and once per
        // id of the closure sweep.
        let mut stride = 0u32;
        let mut poll = || {
            stride += 1;
            if stride.is_multiple_of(FREEZE_BUDGET_STRIDE) {
                budget_ok(&cfg.budget, t0)?;
            }
            Ok(())
        };

        // Seed packs: store chains always; affinity seeds resolved through
        // Algorithm 1 into concrete packs.
        let mut seed_packs: Vec<PackId> =
            ctx.store_chain_packs().into_iter().map(|p| arena.intern_memory(p)).collect();
        if cfg.use_affinity_seeds {
            for x in enumerate_seeds(ctx, &cfg.seeds, &mut poll)? {
                seed_packs.extend(arena.seed_producers(ctx, x));
            }
        }
        seed_packs.dedup();

        // Closure fixpoint over the arenas.
        arena.close(ctx, poll)?;

        let f = ctx.f.clone();
        let n_packs = arena.pack_count();
        let pack_costs: Vec<f64> = (0..n_packs as u32)
            .map(|i| match arena.pack(PackId(i)) {
                PackRef::Compute { inst, .. } => ctx.desc.insts[inst].def.cost,
                PackRef::Memory(p) => ctx.pack_cost(p),
            })
            .collect();
        let scalar_one = ctx.cost.scalar_one_costs(&f);
        let scalar_cost: f64 = f.value_ids().map(|v| ctx.cost.scalar_inst_cost(&f, v)).sum();

        let n = f.insts.len();
        let words = n.div_ceil(64).max(1);
        // A counting sort of the seed positions by first defined lane.
        let first_lane =
            |pid: PackId| arena.defined(pid).next().expect("a seed pack defines a lane").index();
        let mut seed_first_at = vec![0u32; n + 1];
        for &pid in &seed_packs {
            seed_first_at[first_lane(pid) + 1] += 1;
        }
        for v in 0..n {
            seed_first_at[v + 1] += seed_first_at[v];
        }
        let mut seed_first = vec![0u32; seed_packs.len()];
        let mut fill = seed_first_at.clone();
        for (at, &pid) in seed_packs.iter().enumerate() {
            let v = first_lane(pid);
            seed_first[fill[v] as usize] = at as u32;
            fill[v] += 1;
        }
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
        let mut dep_mask = BitMatrix::new(n_packs, words);
        let mut def = vec![0u64; words];
        let mut static_illegal = vec![false; n_packs];
        let mut interior: Vec<ValueId> = Vec::new();
        let mut interior_at: Vec<u32> = Vec::with_capacity(n_packs + 1);
        let mut covered: Vec<ValueId> = Vec::new();
        let mut referenced: Vec<(ValueId, OpId)> = Vec::new();
        for (pi, illegal) in static_illegal.iter_mut().enumerate() {
            let id = PackId(pi as u32);
            def.fill(0);
            for v in arena.defined(id) {
                // A value defined twice by one pack.
                *illegal |= !set_bit(&mut def, v.index());
                for (acc, w) in dep_mask.row_mut(pi).iter_mut().zip(ctx.deps.closure_row(v)) {
                    *acc |= w;
                }
            }
            // A dependence path that leaves the pack and comes back.
            *illegal |= arena.defined(id).any(|a| {
                ctx.deps
                    .direct_deps(a)
                    .iter()
                    .any(|&d| !bit(&def, d.index()) && intersects(ctx.deps.closure_row(d), &def))
            });
            interior_at.push(interior.len() as u32);
            if let PackRef::Compute { inst, out } = arena.pack(id) {
                covered.clear();
                for (v, &op) in out.lanes().iter().zip(&ctx.desc.insts[inst].lane_ops) {
                    let Some(v) = *v else { continue };
                    referenced.push((v, op));
                    let m = ctx.table.lookup(v, op).expect("a compute lane has its match");
                    covered.extend(m.covered.iter().copied().filter(|c| !bit(&def, c.index())));
                }
                covered.sort_unstable();
                covered.dedup();
                interior.extend(covered.iter().rev());
            }
        }
        interior_at.push(interior.len() as u32);
        let matches = MatchColumn::new(ctx, referenced);
        let mut inst_names = String::new();
        let mut inst_name_at = vec![0];
        for inst in &ctx.desc.insts {
            inst_names.push_str(&inst.def.name);
            inst_name_at.push(inst_names.len() as u32);
        }

        // Interned operands are distinct, so the content order is total.
        let mut by_content: Vec<OperandId> =
            (0..arena.operand_count() as u32).map(OperandId).collect();
        by_content.sort_unstable_by(|&a, &b| arena.operand(a).cmp(arena.operand(b)));
        let mut operand_rank = vec![0u32; by_content.len()];
        for (rank, id) in by_content.into_iter().enumerate() {
            operand_rank[id.0 as usize] = rank as u32;
        }

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
            matches,
            cost: ctx.cost,
            inst_names,
            inst_name_at,
            arena,
            operand_rank,
            pack_costs,
            scalar_one,
            scalar_cost,
            seed_packs,
            seed_first,
            seed_first_at,
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

    pub(crate) fn pack_cost_of(&self, id: PackId) -> f64 {
        self.pack_costs[id.0 as usize]
    }

    pub(crate) fn inst_name(&self, di: usize) -> &str {
        &self.inst_names[self.inst_name_at[di] as usize..self.inst_name_at[di + 1] as usize]
    }

    pub(crate) fn scalar_one(&self, v: ValueId) -> f64 {
        self.scalar_one[v.index()]
    }

    /// Operand `id`'s position in content order (see `operand_rank`).
    pub(crate) fn operand_rank(&self, id: OperandId) -> u32 {
        self.operand_rank[id.0 as usize]
    }

    /// Whether every user of `v` is decided (absent from `free`). Users
    /// follow their operand in program order, so words below `v`'s own
    /// hold none.
    pub(crate) fn users_decided(&self, free: &[u64], v: ValueId) -> bool {
        let w0 = v.index() / 64;
        !intersects(&self.users_mask.row(v.index())[w0..], &free[w0..])
    }

    /// The `seed_packs` positions of the seed packs whose first defined
    /// lane is `v`, ascending.
    pub(crate) fn seeds_first_at(&self, v: usize) -> &[u32] {
        &self.seed_first[self.seed_first_at[v] as usize..self.seed_first_at[v + 1] as usize]
    }

    /// Whether pack `id` defines a value in `row`.
    pub(crate) fn defines_any(&self, id: PackId, row: &[u64]) -> bool {
        self.arena.defined(id).any(|v| bit(row, v.index()))
    }

    /// Pack `id` as a [`Pack`]: a copy, for the packs that leave the search
    /// (the committed pack set, the reference tests).
    pub(crate) fn pack(&self, id: PackId) -> Pack {
        match self.arena.pack(id) {
            PackRef::Compute { inst, out } => {
                Pack::Compute { inst, matches: self.matches.lanes(inst, out) }
            }
            PackRef::Memory(p) => p.clone(),
        }
    }

    /// [`describe_pack`] of pack `id`, without materializing it.
    pub(crate) fn describe_pack(&self, id: PackId) -> String {
        match self.arena.pack(id) {
            PackRef::Compute { inst, out } => {
                describe_compute(self.inst_name(inst), out.lanes().iter().copied())
            }
            PackRef::Memory(p) => describe_pack(|di| self.inst_name(di), p),
        }
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

    /// The insertion arm of the Fig. 7 recurrence: build `x` from scalars.
    pub(crate) fn insert_arm(&self, x: &OperandVec) -> f64 {
        self.cost.operand_insert_cost(&self.f, x)
            + self.cost.scalar_closure_cost(&self.f, x.defined())
    }
}

/// The match-table entries the compute packs of a frozen arena reference,
/// each once, in flat columns: what materializing a [`Pack::Compute`]
/// needs after the context and its table are gone. Match `i` is
/// `keys[i] = (root, op)` with live-ins `live_ins[at[i].0..at[i + 1].0]`
/// and covered values `covered[at[i].1..at[i + 1].1]`; instruction `di`'s
/// lane operations are `lane_ops[lane_ops_at[di]..lane_ops_at[di + 1]]`.
#[derive(Debug)]
struct MatchColumn {
    /// Ascending.
    keys: Vec<(ValueId, OpId)>,
    at: Vec<(u32, u32)>,
    live_ins: Vec<Option<ValueId>>,
    covered: Vec<ValueId>,
    lane_ops: Vec<OpId>,
    lane_ops_at: Vec<u32>,
}

impl MatchColumn {
    /// Keep the matches `keys` (in any order, repeats allowed) of `ctx`'s
    /// table.
    fn new(ctx: &VectorizerCtx<'_>, mut keys: Vec<(ValueId, OpId)>) -> MatchColumn {
        keys.sort_unstable();
        keys.dedup();
        let mut at = Vec::with_capacity(keys.len() + 1);
        let (mut live_ins, mut covered) = (Vec::new(), Vec::new());
        for &(root, op) in &keys {
            at.push((live_ins.len() as u32, covered.len() as u32));
            let m = ctx.table.lookup(root, op).expect("a referenced match");
            live_ins.extend_from_slice(&m.live_ins);
            covered.extend_from_slice(&m.covered);
        }
        at.push((live_ins.len() as u32, covered.len() as u32));
        let mut lane_ops = Vec::new();
        let mut lane_ops_at = vec![0];
        for inst in &ctx.desc.insts {
            lane_ops.extend_from_slice(&inst.lane_ops);
            lane_ops_at.push(lane_ops.len() as u32);
        }
        MatchColumn { keys, at, live_ins, covered, lane_ops, lane_ops_at }
    }

    /// The matches of compute pack `(inst, out)`, lane by lane.
    fn lanes(&self, inst: usize, out: &OperandVec) -> Vec<Option<PackedMatch>> {
        let ops =
            &self.lane_ops[self.lane_ops_at[inst] as usize..self.lane_ops_at[inst + 1] as usize];
        out.lanes().iter().zip(ops).map(|(v, &op)| v.map(|root| self.get(root, op))).collect()
    }

    fn get(&self, root: ValueId, op: OpId) -> PackedMatch {
        let i = self.keys.binary_search(&(root, op)).expect("a referenced match");
        let ((l0, c0), (l1, c1)) = (self.at[i], self.at[i + 1]);
        PackedMatch {
            op,
            root,
            live_ins: self.live_ins[l0 as usize..l1 as usize].to_vec(),
            covered: self.covered[c0 as usize..c1 as usize].to_vec(),
        }
    }
}

/// The memoized `costSLP` DP of Fig. 7 over a [`FrozenCtx`]. The memo is
/// keyed by interned [`OperandId`] in a flat vector — a lookup is one
/// bounds check and one load — and the arena is complete, so the recursion
/// interns nothing.
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
        let x = fz.arena.operand(id);
        let mut best = fz.insert_arm(x);
        if let Some(c) = self.cover_arm_id(fz, id, x) {
            best = best.min(c);
        }
        for &pid in fz.arena.candidates(id).producers {
            best = best.min(self.pack_arm_id(fz, pid));
        }
        // Blend arm: a mixed-opcode operand produced by one pack per
        // opcode group plus shuffles to merge them.
        let groups = fz.arena.candidates(id).groups;
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

    /// The covering-loads arm: jumbled load lanes produced by one or two
    /// wide vector loads plus a shuffle (the strategy behind Fig. 12's
    /// `vpermi2d` and Fig. 14's `vpshufd`).
    fn cover_arm_id(&mut self, fz: &FrozenCtx, id: OperandId, x: &OperandVec) -> Option<f64> {
        let f = &fz.f;
        if x.defined_count() == 0
            || !x.defined().all(|v| matches!(f.inst(v).kind, InstKind::Load { .. }))
        {
            return None;
        }
        let packs = fz.arena.candidates(id).covering;
        if packs.is_empty() {
            return None;
        }
        // Every defined lane must actually be inside some covering pack.
        let covered = |v| packs.iter().any(|&pid| fz.arena.values(pid).contains(&Some(v)));
        if !x.defined().all(covered) {
            return None;
        }
        let loads: f64 = packs.iter().map(|&pid| fz.pack_cost_of(pid)).sum();
        Some(loads + fz.cost.c_shuffle * packs.len() as f64)
    }

    /// Cost of producing via a specific pack: `costop + Σ costSLP(operands)`.
    fn pack_arm_id(&mut self, fz: &FrozenCtx, pid: PackId) -> f64 {
        let mut c = fz.pack_cost_of(pid);
        for &oid in fz.arena.pack_operands(pid) {
            if fz.arena.operand(oid).defined_count() == 0 {
                continue;
            }
            c += self.cost_id(fz, oid);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{avx2_desc, dot_kernel, loads_of, stored_values};
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};

    fn frozen(ctx: &VectorizerCtx<'_>) -> FrozenCtx {
        FrozenCtx::freeze(ctx, &BeamConfig::default(), Instant::now()).unwrap()
    }

    /// `costSLP(x)` for an operand of the frozen closure.
    fn cost(slp: &mut FrozenSlp, fz: &FrozenCtx, x: &OperandVec) -> f64 {
        slp.cost_id(fz, fz.arena.operand_id(x).expect("operand is in the closure"))
    }

    #[test]
    fn dot_lanes_are_cheaper_via_pmaddwd() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let fz = frozen(&VectorizerCtx::new(&f, &desc, CostModel::default()));
        let mut slp = FrozenSlp::new();
        let x = OperandVec::from_values(stored_values(&f));
        let vector_cost = cost(&mut slp, &fz, &x);
        let scalar_cost = fz.insert_arm(&x);
        assert!(
            vector_cost < scalar_cost,
            "pmaddwd chain ({vector_cost}) must beat scalar+insert ({scalar_cost})"
        );
        // The winning arm is the pmaddwd pack's.
        let id = fz.arena.operand_id(&x).unwrap();
        let pmaddwd = fz
            .arena
            .candidates(id)
            .producers
            .iter()
            .copied()
            .find(|&pid| {
                matches!(fz.arena.pack(pid), PackRef::Compute { inst, .. }
                if fz.inst_name(inst) == "pmaddwd_128")
            })
            .expect("pmaddwd_128 produces the four dot lanes");
        assert_eq!(slp.pack_arm_id(&fz, pmaddwd), vector_cost);
    }

    #[test]
    fn load_operand_costs_one_vector_load() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let fz = frozen(&VectorizerCtx::new(&f, &desc, CostModel::default()));
        let x = OperandVec::from_values(loads_of(&f, 0));
        assert_eq!(cost(&mut FrozenSlp::new(), &fz, &x), fz.cost.c_vload);
    }

    #[test]
    fn unproducible_operand_falls_back_to_insertion() {
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        let t = b.add(s, y); // depends on s: never packable with it
        b.store(p, 2, s);
        b.store(p, 3, t);
        let f = canonicalize(&b.finish());
        let fz = frozen(&VectorizerCtx::new(&f, &desc, CostModel::default()));
        // The store chain's operand: in the closure, with no producers.
        let dependent = OperandVec::from_values(stored_values(&f));
        let id = fz.arena.operand_id(&dependent).unwrap();
        assert!(fz.arena.candidates(id).producers.is_empty());
        assert_eq!(cost(&mut FrozenSlp::new(), &fz, &dependent), fz.insert_arm(&dependent));
    }

    #[test]
    fn memoization_is_consistent() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let fz = frozen(&VectorizerCtx::new(&f, &desc, CostModel::default()));
        let mut slp = FrozenSlp::new();
        let x = OperandVec::from_values(stored_values(&f));
        let c1 = cost(&mut slp, &fz, &x);
        let c2 = cost(&mut slp, &fz, &x);
        assert_eq!(c1, c2);
        // A fresh evaluator agrees with the warm one on every operand.
        let mut fresh = FrozenSlp::new();
        for i in (0..fz.arena.operand_count() as u32).rev() {
            let id = OperandId(i);
            assert_eq!(slp.cost_id(&fz, id).to_bits(), fresh.cost_id(&fz, id).to_bits());
        }
    }

    /// Per kernel and width, the arena sizes and the producer-enumeration
    /// and state-hash counters of one cold search.
    fn render_intern_counts() -> String {
        use crate::beam::select_packs;
        use std::collections::BTreeMap;
        let desc = avx2_desc();
        let mut kernels = crate::testutil::suite_kernels();
        kernels.extend(crate::testutil::corpus_and_soak_seed_kernels());
        // Keyed by name: the soak seeds repeat corpus kernels, and the
        // seed directory lists in file-system order.
        let mut lines = BTreeMap::new();
        for f in &kernels {
            for width in [1usize, 16] {
                let ctx = VectorizerCtx::new(f, &desc, CostModel::default());
                let cfg = BeamConfig { beam_threads: 1, ..BeamConfig::with_width(width) };
                let s = select_packs(&ctx, &cfg).unwrap().stats;
                lines.insert(
                    (f.name.clone(), width),
                    format!(
                        "{} width {width}: operands {} packs {} producer_hits {} producer_misses {} hash_collisions {}\n",
                        f.name,
                        s.interned_operands,
                        s.interned_packs,
                        s.producer_cache_hits,
                        s.producer_cache_misses,
                        s.hash_collisions
                    ),
                );
            }
        }
        lines.into_values().collect()
    }

    #[test]
    fn cold_search_intern_counts_match_the_fixture() {
        const FIXTURE: &str =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/intern_counts.txt");
        let got = render_intern_counts();
        if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
            std::fs::write(FIXTURE, &got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(FIXTURE).expect("intern-counts fixture");
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }

    #[test]
    fn freeze_is_compatible_with_same_function_and_seeds() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let cfg = BeamConfig::default();
        let fz = frozen(&VectorizerCtx::new(&f, &desc, CostModel::default()));
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
        let f = dot_kernel(4);
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
