//! The vectorizer context: match table, dependences, producer enumeration
//! (Algorithm 1), memory packs, and pack-set legality.
//!
//! Every enumerator here is a pure function of the context: nothing is
//! interned or memoized on it. `FrozenCtx::freeze` calls each once per
//! distinct operand or pack and keeps the answers in its candidate arena
//! (see [`crate::intern`]).

use crate::cost::CostModel;
use crate::operand::OperandVec;
use crate::pack::Pack;
use std::collections::HashMap;
use vegen_ir::deps::DepGraph;
use vegen_ir::{BinOp, CastOp, CmpPred, Function, InstKind, Type, ValueId};
use vegen_match::{Match, MatchTable, TargetDesc};

/// Everything the pack-selection heuristics need about one function.
#[derive(Debug)]
pub struct VectorizerCtx<'a> {
    /// The (canonicalized) scalar function.
    pub f: &'a Function,
    /// The generated target description.
    pub desc: &'a TargetDesc,
    /// The match table (§4.3).
    pub table: MatchTable,
    /// Transitive dependence relation.
    pub deps: DepGraph,
    /// Use lists per value.
    pub users: Vec<Vec<ValueId>>,
    /// Cost model parameters.
    pub cost: CostModel,
    /// Widest vector register (bits) in the target description.
    pub max_bits: u32,
    /// Load instruction at each `(base, offset)`.
    pub(crate) loads_at: HashMap<(usize, i64), ValueId>,
    /// Indices into `desc.insts` by output shape `(out_lanes, out_elem)`,
    /// each list in description order — Algorithm 1 only ever considers
    /// the instructions whose shape fits the operand.
    pub(crate) insts_by_shape: HashMap<(usize, Type), Vec<usize>>,
}

/// A pack Algorithm 1 finds for an operand `x`
/// ([`VectorizerCtx::producers`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Producer {
    /// Instruction `inst` with lane `i` computing `x[i]` through the
    /// table's match `(x[i], lane_ops[i])`, so the pair `(inst, x)`
    /// determines the pack.
    Compute {
        /// Index into `TargetDesc::insts`.
        inst: usize,
        /// The operands its lane bindings derive.
        operands: Vec<OperandVec>,
    },
    /// A contiguous vector load producing `x`.
    Load(Pack),
}

/// A window `base[start .. start + width)` of a buffer, which a load pack
/// may cover ([`VectorizerCtx::covering_windows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadWindow {
    /// Parameter index of the buffer.
    pub base: usize,
    /// First element offset.
    pub start: i64,
    /// Number of elements.
    pub width: i64,
}

/// Which opcode group of [`VectorizerCtx::opcode_group_subvectors`] a
/// value falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpcodeGroup {
    Bin(BinOp),
    /// A cast and its result type.
    Cast(CastOp, Type),
    Cmp(CmpPred),
    Select,
    FNeg,
    Load,
    Const,
    Store,
}

impl OpcodeGroup {
    fn of(f: &Function, v: ValueId) -> OpcodeGroup {
        match f.inst(v).kind {
            InstKind::Bin { op, .. } => OpcodeGroup::Bin(op),
            InstKind::Cast { op, .. } => OpcodeGroup::Cast(op, f.ty(v)),
            InstKind::Cmp { pred, .. } => OpcodeGroup::Cmp(pred),
            InstKind::Select { .. } => OpcodeGroup::Select,
            InstKind::FNeg { .. } => OpcodeGroup::FNeg,
            InstKind::Load { .. } => OpcodeGroup::Load,
            InstKind::Const(_) => OpcodeGroup::Const,
            InstKind::Store { .. } => OpcodeGroup::Store,
        }
    }

    /// The group's name `class:op:type` (`bin:add`, `cast:sext:i32`,
    /// `select`) as its parts, which order as the joined names do: no class
    /// name is a prefix of another, and the type comes last.
    fn name(self) -> (&'static str, &'static str, &'static str) {
        match self {
            OpcodeGroup::Bin(op) => ("bin", op.name(), ""),
            OpcodeGroup::Cast(op, ty) => ("cast", op.name(), ty.name()),
            OpcodeGroup::Cmp(pred) => ("cmp", pred.name(), ""),
            OpcodeGroup::Select => ("select", "", ""),
            OpcodeGroup::FNeg => ("fneg", "", ""),
            OpcodeGroup::Load => ("load", "", ""),
            OpcodeGroup::Const => ("const", "", ""),
            OpcodeGroup::Store => ("store", "", ""),
        }
    }
}

impl<'a> VectorizerCtx<'a> {
    /// Build the context: runs every generated matcher over `f`.
    pub fn new(f: &'a Function, desc: &'a TargetDesc, cost: CostModel) -> VectorizerCtx<'a> {
        let table = MatchTable::build(f, &desc.ops);
        let deps = DepGraph::build(f);
        let users = f.users();
        let mut loads_at = HashMap::new();
        for (v, inst) in f.iter() {
            if let InstKind::Load { loc } = inst.kind {
                // Post-canonicalization each (base, offset, epoch) loads
                // once; keep the first (kernels here are store-last).
                loads_at.entry((loc.base, loc.offset)).or_insert(v);
            }
        }
        let max_bits = desc.insts.iter().map(|i| i.def.bits).max().unwrap_or(128);
        let mut insts_by_shape: HashMap<(usize, Type), Vec<usize>> = HashMap::new();
        for (di, inst) in desc.insts.iter().enumerate() {
            insts_by_shape.entry((inst.out_lanes(), inst.def.sem.out_elem)).or_default().push(di);
        }
        VectorizerCtx { f, desc, table, deps, users, cost, max_bits, loads_at, insts_by_shape }
    }

    /// The element type shared by the defined lanes of `x`, if consistent.
    pub fn operand_type(&self, x: &OperandVec) -> Option<Type> {
        let mut it = x.defined();
        let first = it.next()?;
        let ty = self.f.ty(first);
        if it.all(|v| self.f.ty(v) == ty) {
            Some(ty)
        } else {
            None
        }
    }

    /// Algorithm 1 extended with load packs: all packs that produce the
    /// vector operand `x`, each compute pack with the operands its lane
    /// bindings derived (feasibility needs them, so the caller gets them
    /// for free).
    pub fn producers(&self, x: &OperandVec) -> Vec<Producer> {
        if x.defined_count() == 0 {
            return Vec::new();
        }
        // Line 1-2: dependent values cannot be packed together.
        let lanes = x.lanes();
        let dependent = lanes.iter().enumerate().any(|(i, a)| {
            a.is_some_and(|a| {
                lanes[i + 1..].iter().flatten().any(|&b| !self.deps.independent(a, b))
            })
        });
        if dependent {
            return Vec::new();
        }
        let Some(ty) = self.operand_type(x) else { return Vec::new() };
        let mut out = Vec::new();

        // Compute packs: one candidate per instruction description whose
        // shape fits (lines 5-17), in description order. The operands are
        // bound straight from the table's matches; nothing is copied.
        let fitting = self.insts_by_shape.get(&(x.len(), ty)).map_or(&[][..], Vec::as_slice);
        let mut lane_matches: Vec<Option<&Match>> =
            Vec::with_capacity(if fitting.is_empty() { 0 } else { x.len() });
        'inst: for &di in fitting {
            let inst = &self.desc.insts[di];
            lane_matches.clear();
            for (lane, want) in x.lanes().iter().enumerate() {
                match want {
                    None => lane_matches.push(None),
                    Some(v) => match self.table.lookup(*v, inst.lane_ops[lane]) {
                        Some(m) => lane_matches.push(Some(m)),
                        None => continue 'inst,
                    },
                }
            }
            // The lane bindings must agree on the vector operands.
            let live_ins = |lane: usize| lane_matches[lane].map(|m| m.live_ins.as_slice());
            if let Some(operands) = self.bind_operands(di, live_ins) {
                out.push(Producer::Compute { inst: di, operands });
            }
        }

        // Load packs: defined lanes must be loads of consecutive elements
        // of one buffer; don't-care lanes extend the run (in bounds).
        if let Some(p) = self.load_pack_for(x, ty) {
            out.push(Producer::Load(p));
        }
        out
    }

    fn load_pack_for(&self, x: &OperandVec, ty: Type) -> Option<Pack> {
        let mut base_start: Option<(usize, i64)> = None;
        for (lane, v) in x.lanes().iter().enumerate() {
            let Some(v) = v else { continue };
            let InstKind::Load { loc } = self.f.inst(*v).kind else { return None };
            let implied_start = loc.offset - lane as i64;
            match base_start {
                None => base_start = Some((loc.base, implied_start)),
                Some((b, s)) if b == loc.base && s == implied_start => {}
                _ => return None,
            }
        }
        let (base, start) = base_start?;
        let len = self.f.params[base].len as i64;
        if start < 0 || start + x.len() as i64 > len {
            return None; // the implied contiguous run leaves the buffer
        }
        let loads: Vec<Option<ValueId>> = (0..x.len())
            .map(|lane| match x.lane(lane) {
                Some(v) => Some(v),
                // A don't-care lane reuses an existing load if the program
                // has one at that address; otherwise it is simply unused.
                None => self.loads_at.get(&(base, start + lane as i64)).copied(),
            })
            .collect();
        Some(Pack::Load { base, start, loads, elem: ty })
    }

    /// The load windows that *cover* the (jumbled) load lanes of `x`
    /// without producing it exactly. Deciding these loads as vector loads
    /// and then paying one shuffle is how VeGen forms operands like the
    /// interleaved `src[4+j], src[12+j]` vector of idct4 (Fig. 12's
    /// `vpermi2d` before `vpmaddwd`). A window is a key: the caller builds
    /// its pack ([`Self::window_pack`]) only the first time it sees it.
    pub fn covering_windows(&self, x: &OperandVec) -> Vec<LoadWindow> {
        let load_at = |v: ValueId| match self.f.inst(v).kind {
            InstKind::Load { loc } => Some((loc.base, loc.offset)),
            _ => None,
        };
        let Some(mut at) = x.defined().map(load_at).collect::<Option<Vec<_>>>() else {
            return Vec::new();
        };
        at.sort_unstable();
        at.dedup();
        let mut out = Vec::new();
        for run in at.chunk_by(|a, b| a.0 == b.0) {
            let base = run[0].0;
            let elem = self.f.params[base].elem_ty;
            let buf_len = self.f.params[base].len as i64;
            let max_lanes = (self.max_bits / elem.bits()).max(2) as i64;
            let (lo, hi) = (run[0].1, run[run.len() - 1].1);
            let span = hi - lo + 1;
            if span > 2 * max_lanes {
                continue; // too scattered for a couple of vector loads
            }
            // Cover the span with power-of-two windows that fit both the
            // register and the buffer.
            let mut width = (span as u64).next_power_of_two() as i64;
            width = width.clamp(2, max_lanes);
            while width > buf_len && width > 2 {
                width /= 2;
            }
            if width > buf_len {
                continue;
            }
            let mut start = lo;
            while start <= hi {
                // Clamp the window into the buffer.
                let s = start.min(buf_len - width).max(0);
                out.push(LoadWindow { base, start: s, width });
                start = s + width;
            }
        }
        out
    }

    /// The load pack of window `w`: `None` if the program loads nothing
    /// inside it.
    pub fn window_pack(&self, w: LoadWindow) -> Option<Pack> {
        let LoadWindow { base, start, width } = w;
        let loads: Vec<Option<ValueId>> =
            (0..width).map(|i| self.loads_at.get(&(base, start + i)).copied()).collect();
        let elem = self.f.params[base].elem_ty;
        loads.iter().any(Option::is_some).then_some(Pack::Load { base, start, loads, elem })
    }

    /// Split a mixed-opcode operand into per-opcode subvectors (other lanes
    /// don't-care). An operand like fft4's `[add, add, add, sub]` final
    /// stage has no single producer, but each opcode group may — the two
    /// packs are then blended, paying `Cshuffle` (§5's cost formulation
    /// explicitly prices operands produced by several packs).
    ///
    /// Groups come out in the order of their names `class:op:type`
    /// (`bin:add` before `cast:sext:i32` before `select`).
    pub fn opcode_group_subvectors(&self, x: &OperandVec) -> Vec<OperandVec> {
        use std::collections::BTreeMap;
        let group = |v: ValueId| OpcodeGroup::of(self.f, v);
        let mut groups = x.defined().map(group);
        let Some(first) = groups.next() else { return Vec::new() };
        if groups.all(|g| g == first) {
            return Vec::new(); // one group
        }
        let mut by_name: BTreeMap<_, Vec<Option<ValueId>>> = BTreeMap::new();
        for (i, lane) in x.lanes().iter().enumerate() {
            let Some(v) = *lane else { continue };
            by_name.entry(group(v).name()).or_insert_with(|| vec![None; x.len()])[i] = Some(v);
        }
        by_name.into_values().map(OperandVec::new).collect()
    }

    /// `operand_i(p)` for every input operand of a pack, derived from the
    /// lane-binding tables generated from semantics (§4.4). Returns `None`
    /// if the matches bind conflicting values to one input lane.
    pub fn pack_operands(&self, p: &Pack) -> Option<Vec<OperandVec>> {
        match p {
            Pack::Load { .. } => Some(Vec::new()),
            Pack::Store { values, .. } => Some(vec![OperandVec::from_values(values.clone())]),
            Pack::Compute { inst, matches } => {
                self.bind_operands(*inst, |lane| matches[lane].as_ref().map(|m| &m.live_ins[..]))
            }
        }
    }

    /// The operands of instruction `di` whose output lane `l` holds a
    /// match with live-ins `live_ins(l)` (`None` = don't-care lane).
    fn bind_operands<'m>(
        &self,
        di: usize,
        live_ins: impl Fn(usize) -> Option<&'m [Option<ValueId>]>,
    ) -> Option<Vec<OperandVec>> {
        let di = &self.desc.insts[di];
        let mut operands = Vec::with_capacity(di.operand_count());
        for bindings in &di.bindings {
            let mut lanes: Vec<Option<ValueId>> = Vec::with_capacity(bindings.len());
            for uses in bindings {
                let mut lane_val: Option<ValueId> = None;
                for u in uses {
                    let Some(live_ins) = live_ins(u.out_lane) else { continue };
                    let Some(v) = live_ins[u.param] else { continue };
                    match lane_val {
                        None => lane_val = Some(v),
                        Some(prev) if prev == v => {}
                        // Two operations demand different values in the
                        // same input lane: infeasible.
                        Some(_) => return None,
                    }
                }
                lanes.push(lane_val);
            }
            operands.push(OperandVec::new(lanes));
        }
        Some(operands)
    }

    /// Cost of executing pack `p` (excluding operand materialization).
    pub fn pack_cost(&self, p: &Pack) -> f64 {
        match p {
            Pack::Compute { inst, .. } => self.desc.insts[*inst].def.cost,
            Pack::Load { .. } => self.cost.c_vload,
            Pack::Store { .. } => self.cost.c_vstore,
        }
    }

    /// All contiguous store-chain chunks (the classic SLP seeds), at every
    /// power-of-two width that fits the target's registers. Emission is
    /// program-ordered (bases in parameter order, offsets ascending) — a
    /// `HashMap` here would leak its iteration order into the seed-pack
    /// list and, through transition tie-breaks, into the selected packs.
    pub fn store_chain_packs(&self) -> Vec<Pack> {
        use std::collections::BTreeMap;
        let mut by_base: BTreeMap<usize, Vec<(i64, ValueId, ValueId)>> = BTreeMap::new();
        for (v, inst) in self.f.iter() {
            if let InstKind::Store { loc, value } = inst.kind {
                by_base.entry(loc.base).or_default().push((loc.offset, v, value));
            }
        }
        let mut out = Vec::new();
        for (base, mut stores) in by_base {
            stores.sort();
            let elem = self.f.params[base].elem_ty;
            let max_lanes = (self.max_bits / elem.bits()).max(1) as usize;
            // Split into maximal runs of consecutive offsets.
            let mut runs: Vec<Vec<(i64, ValueId, ValueId)>> = Vec::new();
            for s in stores {
                match runs.last_mut() {
                    Some(run) if run.last().unwrap().0 + 1 == s.0 => run.push(s),
                    _ => runs.push(vec![s]),
                }
            }
            for run in runs {
                let mut w = 2usize;
                while w <= run.len() && w <= max_lanes {
                    for i in 0..=(run.len() - w) {
                        let chunk = &run[i..i + w];
                        let values: Vec<ValueId> = chunk.iter().map(|s| s.2).collect();
                        if !self
                            .deps
                            .all_independent(&chunk.iter().map(|s| s.1).collect::<Vec<_>>())
                        {
                            continue;
                        }
                        out.push(Pack::Store {
                            base,
                            start: chunk[0].0,
                            stores: chunk.iter().map(|s| s.1).collect(),
                            values,
                            elem,
                        });
                    }
                    w *= 2;
                }
            }
        }
        out
    }

    /// Legality (§4.4): contracting every pack to a single node, the
    /// dependence graph must stay acyclic — this is also exactly the
    /// condition under which a grouped schedule exists (§4.5).
    pub fn packs_legal(&self, packs: &[&Pack]) -> bool {
        let values: Vec<Vec<Option<ValueId>>> = packs.iter().map(|p| p.values()).collect();
        let lanes: Vec<&[Option<ValueId>]> = values.iter().map(Vec::as_slice).collect();
        packs_legal(self.f.insts.len(), &self.deps, &lanes)
    }
}

/// [`VectorizerCtx::packs_legal`] as a free function over the pieces it
/// actually reads: each pack is its lane values (`values(p)`; a don't-care
/// lane defines nothing). This is the from-scratch check: it contracts
/// every pack to one node and searches the whole contracted graph for a
/// cycle. The beam search decides the same question incrementally from
/// precomputed masks (see `crate::frozen`) and asserts agreement with this
/// function in debug builds and in the differential tests, so keep it
/// simple and obviously right rather than fast.
pub fn packs_legal(n: usize, deps: &DepGraph, packs: &[&[Option<ValueId>]]) -> bool {
    // group[v] = pack index + 1, or 0 for scalar singleton.
    let mut group = vec![0usize; n];
    for (pi, p) in packs.iter().enumerate() {
        for v in p.iter().flatten().copied() {
            if group[v.index()] != 0 {
                return false; // a value in two packs is illegal
            }
            group[v.index()] = pi + 1;
        }
    }
    let mut graph = Contracted { deps, packs, group, marks: vec![Mark::White; packs.len() + n] };
    (0..packs.len()).all(|start| graph.acyclic_from(start))
}

#[derive(Clone, Copy, PartialEq)]
enum Mark {
    White,
    Grey,
    Black,
}

/// The dependence graph with every pack contracted to one node: packs are
/// nodes `0..k`, scalars `k + value index`. Edges run from a node to the
/// nodes it depends on; edges inside one pack are dropped.
struct Contracted<'a> {
    deps: &'a DepGraph,
    packs: &'a [&'a [Option<ValueId>]],
    group: Vec<usize>,
    marks: Vec<Mark>,
}

impl Contracted<'_> {
    fn node_of(&self, v: ValueId) -> usize {
        match self.group[v.index()] {
            0 => self.packs.len() + v.index(),
            g => g - 1,
        }
    }

    /// Depth-first search: false if a cycle is reachable from `node`.
    fn acyclic_from(&mut self, node: usize) -> bool {
        match self.marks[node] {
            Mark::Black => return true,
            Mark::Grey => return false,
            Mark::White => {}
        }
        self.marks[node] = Mark::Grey;
        let (deps, packs) = (self.deps, self.packs);
        let through = |this: &mut Self, v: ValueId| {
            deps.direct_deps(v).iter().all(|&d| {
                let dn = this.node_of(d);
                dn == node || this.acyclic_from(dn)
            })
        };
        let ok = if node < packs.len() {
            packs[node].iter().flatten().all(|&v| through(self, v))
        } else {
            through(self, ValueId::from_raw((node - packs.len()) as u32))
        };
        if ok {
            self.marks[node] = Mark::Black;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{avx2_desc, dot_kernel, loads_of, stored_values};
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};

    /// The packs of Algorithm 1 for `x`, with their operands: compute
    /// pack `(inst, x)` holds the table's match `(x[i], lane_ops[i])` in
    /// lane `i`.
    fn producers(ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<(Pack, Vec<OperandVec>)> {
        let lane = |v: Option<ValueId>, op| v.map(|v| ctx.table.lookup(v, op).unwrap().clone());
        ctx.producers(x)
            .into_iter()
            .map(|p| match p {
                Producer::Compute { inst, operands } => {
                    let ops = &ctx.desc.insts[inst].lane_ops;
                    let matches =
                        x.lanes().iter().zip(ops).map(|(&v, &op)| lane(v, op).map(Into::into));
                    (Pack::Compute { inst, matches: matches.collect() }, operands)
                }
                Producer::Load(p) => (p, Vec::new()),
            })
            .collect()
    }

    /// The packs of Algorithm 1 for `x` (operands dropped).
    fn producer_packs(ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<Pack> {
        producers(ctx, x).into_iter().map(|(p, _)| p).collect()
    }

    #[test]
    fn two_lane_producers_have_two_lanes() {
        // AVX2 has no 64-bit `pmaddwd`, so the two dot lanes may have no
        // compute producer at all; whatever is enumerated must fit them.
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let x = OperandVec::from_values(stored_values(&f));
        for p in producer_packs(&ctx, &x) {
            assert_eq!(p.lanes(), 2);
        }
    }

    #[test]
    fn load_pack_enumeration() {
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        // The four loads of A in offset order.
        let x = OperandVec::from_values(loads_of(&f, 0));
        let producers = producer_packs(&ctx, &x);
        let load_packs: Vec<_> = producers.iter().filter(|p| p.is_load()).collect();
        assert_eq!(load_packs.len(), 1);
        let Pack::Load { base, start, loads: ls, .. } = load_packs[0] else { panic!() };
        assert_eq!((*base, *start), (0, 0));
        assert!(ls.iter().all(|l| l.is_some()));
    }

    #[test]
    fn jumbled_loads_have_no_load_pack() {
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut loads = loads_of(&f, 0);
        loads.swap(0, 1);
        let x = OperandVec::from_values(loads);
        assert!(producer_packs(&ctx, &x).iter().all(|p| !p.is_load()));
    }

    #[test]
    fn dont_care_lanes_reuse_existing_loads() {
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let loads = loads_of(&f, 0);
        // Operand wants lanes 0 and 2 only.
        let x = OperandVec::new(vec![Some(loads[0]), None, Some(loads[2]), None]);
        let producers = producer_packs(&ctx, &x);
        let lp = producers.iter().find(|p| p.is_load()).expect("load pack");
        let Pack::Load { loads: ls, .. } = lp else { panic!() };
        // Don't-care lanes got filled with the existing loads at offsets 1, 3.
        assert_eq!(ls[1], Some(loads[1]));
        assert_eq!(ls[3], Some(loads[3]));
    }

    #[test]
    fn out_of_bounds_dont_care_run_is_rejected() {
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let loads = loads_of(&f, 0);
        // Lanes [a1, _, a3, _] imply a load of A[1..5), out of bounds (len 4).
        let x = OperandVec::new(vec![Some(loads[1]), None, Some(loads[3]), None]);
        assert!(producer_packs(&ctx, &x).iter().all(|p| !p.is_load()));
    }

    #[test]
    fn dependent_values_have_no_producers() {
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        let t = b.add(s, y); // t depends on s
        b.store(p, 2, s);
        b.store(p, 3, t);
        let f = canonicalize(&b.finish());
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        // s and t, the two stored values.
        let x = OperandVec::from_values(stored_values(&f));
        assert!(ctx.producers(&x).is_empty());
    }

    #[test]
    fn store_chains_enumerate_chunks() {
        let desc = avx2_desc();
        let f = dot_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let chains = ctx.store_chain_packs();
        // C[0..2): exactly one 2-wide chunk.
        assert_eq!(chains.len(), 1);
        assert!(chains[0].is_store());
        assert_eq!(chains[0].lanes(), 2);
    }

    #[test]
    fn pack_operands_of_pmaddwd_pack() {
        // Four lanes, so pmaddwd_128 applies.
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let x = OperandVec::from_values(stored_values(&f));
        let (pm, operands) = producers(&ctx, &x)
            .into_iter()
            .find(|(p, _)| {
                matches!(p, Pack::Compute { inst, .. }
                if desc.insts[*inst].def.name == "pmaddwd_128")
            })
            .expect("pmaddwd_128 must produce the 4 dot lanes");
        assert_eq!(ctx.pack_operands(&pm).as_ref(), Some(&operands));
        assert_eq!(operands.len(), 2);
        // Each operand is 8 lanes of loads from one array, fully defined,
        // and is itself producible by a single vector load.
        for op in &operands {
            assert_eq!(op.len(), 8);
            assert_eq!(op.defined_count(), 8);
            let prods = producer_packs(&ctx, op);
            assert!(prods.iter().any(|p| p.is_load()), "operand {op} needs a load pack");
        }
    }

    #[test]
    fn store_chains_emit_in_program_order() {
        // Many distinct store bases: a HashMap-backed grouping would emit
        // the chains in hash order, which varies per map instance. The
        // emission must be program-ordered and identical across contexts.
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("many_bases");
        let src = b.param("S", Type::I32, 2);
        let x = b.load(src, 0);
        let y = b.load(src, 1);
        let s = b.add(x, y);
        let d = b.mul(x, y);
        let outs: Vec<_> = (0..8).map(|i| b.param(format!("O{i}"), Type::I32, 2)).collect();
        for &o in &outs {
            b.store(o, 0, s);
            b.store(o, 1, d);
        }
        let f = canonicalize(&b.finish());
        let order = |ctx: &VectorizerCtx<'_>| -> Vec<(usize, i64, usize)> {
            ctx.store_chain_packs()
                .iter()
                .map(|p| match p {
                    Pack::Store { base, start, stores, .. } => (*base, *start, stores.len()),
                    _ => unreachable!(),
                })
                .collect()
        };
        let ctx1 = VectorizerCtx::new(&f, &desc, CostModel::default());
        let ctx2 = VectorizerCtx::new(&f, &desc, CostModel::default());
        let o1 = order(&ctx1);
        assert_eq!(o1, order(&ctx2), "chain emission must not depend on map instance");
        let mut sorted = o1.clone();
        sorted.sort();
        assert_eq!(o1, sorted, "chains must come out in (base, offset) program order");
        assert_eq!(o1.len(), 8);
    }

    #[test]
    fn legality_rejects_cross_dependent_packs() {
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 8);
        let x0 = b.load(p, 0);
        let x1 = b.load(p, 1);
        let a = b.add(x0, x1); // a
        let d0 = b.add(a, x0); // depends on a
        let bb = b.add(d0, x1); // b depends on d0
        let d1 = b.add(bb, x0); // d1 depends on b
        b.store(p, 4, a);
        b.store(p, 5, d0);
        b.store(p, 6, bb);
        b.store(p, 7, d1);
        let f = canonicalize(&b.finish());
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        // Pack {a, d1} and {b, d0}: a < d0 < b < d1 gives a contracted cycle.
        let find = |off: i64| -> ValueId {
            f.iter()
                .find_map(|(v, i)| match i.kind {
                    InstKind::Store { loc, value } if loc.offset == off => {
                        let _ = v;
                        Some(value)
                    }
                    _ => None,
                })
                .unwrap()
        };
        let (a, d0, bb, d1) = (find(4), find(5), find(6), find(7));
        let mk = |vals: [ValueId; 2]| Pack::Store {
            base: 0,
            start: 0,
            stores: vals.to_vec(),
            values: vals.to_vec(),
            elem: Type::I32,
        };
        // Abuse store packs as generic value groups for the check.
        let p1 = mk([a, d1]);
        let p2 = mk([d0, bb]);
        assert!(!ctx.packs_legal(&[&p1, &p2]), "contracted cycle must be rejected");
        let p3 = mk([a, d0]);
        let p4 = mk([bb, d1]);
        assert!(ctx.packs_legal(&[&p3, &p4]));
    }
}
