//! The candidate arena as it was before compute packs became handles:
//! every pack a full [`Pack`] interned by content, each compute lane's
//! match copied out of the table, and the enumerators that built those
//! copies (Algorithm 1, covering loads, string-keyed opcode groups).
//!
//! Test-only. It is the reference the handle arena of [`crate::intern`]
//! is held to: on three targets and three kernel populations, every
//! frozen id must mean what it meant here — the same operand, the same
//! pack field for field once materialized, the same operands and
//! candidate lists, and the same interior and `static_illegal` masks.

use crate::beam::BeamConfig;
use crate::bits::{bit, intersects, set_bit};
use crate::cost::CostModel;
use crate::ctx::VectorizerCtx;
use crate::frozen::FrozenCtx;
use crate::intern::{OperandId, PackId};
use crate::operand::OperandVec;
use crate::pack::Pack;
use crate::seeds::enumerate_seeds;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;
use vegen_ir::{InstKind, Type, ValueId};
use vegen_match::Match;

/// Algorithm 1 extended with load packs, every compute pack built with
/// copies of its lanes' matches.
fn producers(ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<(Pack, Vec<OperandVec>)> {
    let defined: Vec<ValueId> = x.defined().collect();
    if defined.is_empty() || !ctx.deps.all_independent(&defined) {
        return Vec::new();
    }
    let Some(ty) = ctx.operand_type(x) else { return Vec::new() };
    let mut out = Vec::new();
    let fitting = ctx.insts_by_shape.get(&(x.len(), ty)).map_or(&[][..], Vec::as_slice);
    let mut lane_matches: Vec<Option<&Match>> = Vec::with_capacity(x.len());
    'inst: for &di in fitting {
        let inst = &ctx.desc.insts[di];
        lane_matches.clear();
        for (lane, want) in x.lanes().iter().enumerate() {
            match want {
                None => lane_matches.push(None),
                Some(v) => match ctx.table.lookup(*v, inst.lane_ops[lane]) {
                    Some(m) => lane_matches.push(Some(m)),
                    None => continue 'inst,
                },
            }
        }
        let matches = lane_matches.iter().map(|m| m.map(|m| m.clone().into())).collect();
        let pack = Pack::Compute { inst: di, matches };
        if let Some(operands) = pack_operands(ctx, &pack) {
            out.push((pack, operands));
        }
    }
    if let Some(p) = load_pack_for(ctx, x, ty) {
        out.push((p, Vec::new()));
    }
    out
}

fn load_pack_for(ctx: &VectorizerCtx<'_>, x: &OperandVec, ty: Type) -> Option<Pack> {
    let mut base_start: Option<(usize, i64)> = None;
    for (lane, v) in x.lanes().iter().enumerate() {
        let Some(v) = v else { continue };
        let InstKind::Load { loc } = ctx.f.inst(*v).kind else { return None };
        let implied_start = loc.offset - lane as i64;
        match base_start {
            None => base_start = Some((loc.base, implied_start)),
            Some((b, s)) if b == loc.base && s == implied_start => {}
            _ => return None,
        }
    }
    let (base, start) = base_start?;
    let len = ctx.f.params[base].len as i64;
    if start < 0 || start + x.len() as i64 > len {
        return None;
    }
    let loads: Vec<Option<ValueId>> = (0..x.len())
        .map(|lane| match x.lane(lane) {
            Some(v) => Some(v),
            None => ctx.loads_at.get(&(base, start + lane as i64)).copied(),
        })
        .collect();
    Some(Pack::Load { base, start, loads, elem: ty })
}

/// Every covering load pack of `x`, each built in full.
fn covering_load_packs(ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<Pack> {
    let mut by_base: BTreeMap<usize, Vec<i64>> = BTreeMap::new();
    for v in x.defined() {
        let InstKind::Load { loc } = ctx.f.inst(v).kind else { return Vec::new() };
        by_base.entry(loc.base).or_default().push(loc.offset);
    }
    let mut out = Vec::new();
    for (base, mut offsets) in by_base {
        offsets.sort();
        offsets.dedup();
        let elem = ctx.f.params[base].elem_ty;
        let buf_len = ctx.f.params[base].len as i64;
        let max_lanes = (ctx.max_bits / elem.bits()).max(2) as i64;
        let lo = offsets[0];
        let hi = *offsets.last().unwrap();
        let span = hi - lo + 1;
        if span > 2 * max_lanes {
            continue;
        }
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
            let s = start.min(buf_len - width).max(0);
            let loads: Vec<Option<ValueId>> =
                (0..width).map(|i| ctx.loads_at.get(&(base, s + i)).copied()).collect();
            if loads.iter().any(|l| l.is_some()) {
                out.push(Pack::Load { base, start: s, loads, elem });
            }
            start = s + width;
        }
    }
    out
}

/// Per-opcode subvectors, grouped under formatted string keys.
fn opcode_group_subvectors(ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<OperandVec> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, lane) in x.lanes().iter().enumerate() {
        let Some(v) = lane else { continue };
        let key = match &ctx.f.inst(*v).kind {
            InstKind::Bin { op, .. } => format!("bin:{}", op.name()),
            InstKind::Cast { op, .. } => format!("cast:{}:{}", op.name(), ctx.f.ty(*v)),
            InstKind::Cmp { pred, .. } => format!("cmp:{}", pred.name()),
            InstKind::Select { .. } => "select".to_string(),
            InstKind::FNeg { .. } => "fneg".to_string(),
            InstKind::Load { .. } => "load".to_string(),
            InstKind::Const(_) => "const".to_string(),
            InstKind::Store { .. } => "store".to_string(),
        };
        groups.entry(key).or_default().push(i);
    }
    if groups.len() < 2 {
        return Vec::new();
    }
    groups
        .into_values()
        .map(|lanes| {
            OperandVec::new(
                (0..x.len()).map(|i| if lanes.contains(&i) { x.lane(i) } else { None }).collect(),
            )
        })
        .collect()
}

/// `operand_i(p)` from the copied matches' live-ins.
fn pack_operands(ctx: &VectorizerCtx<'_>, p: &Pack) -> Option<Vec<OperandVec>> {
    match p {
        Pack::Load { .. } => Some(Vec::new()),
        Pack::Store { values, .. } => Some(vec![OperandVec::from_values(values.clone())]),
        Pack::Compute { inst, matches } => {
            let di = &ctx.desc.insts[*inst];
            let mut operands = Vec::with_capacity(di.operand_count());
            for bindings in &di.bindings {
                let mut lanes: Vec<Option<ValueId>> = Vec::with_capacity(bindings.len());
                for uses in bindings {
                    let mut lane_val: Option<ValueId> = None;
                    for u in uses {
                        let Some(m) = &matches[u.out_lane] else { continue };
                        let Some(v) = m.live_ins[u.param] else { continue };
                        match lane_val {
                            None => lane_val = Some(v),
                            Some(prev) if prev == v => {}
                            Some(_) => return None,
                        }
                    }
                    lanes.push(lane_val);
                }
                operands.push(OperandVec::new(lanes));
            }
            Some(operands)
        }
    }
}

/// Candidate lists of one operand.
struct Candidates {
    producers: Vec<PackId>,
    covering: Vec<PackId>,
    groups: Vec<OperandId>,
}

/// The content-interning arena, swept the same way as the handle arena.
#[derive(Default)]
struct Arena {
    operands: Vec<Arc<OperandVec>>,
    operand_ids: HashMap<Arc<OperandVec>, OperandId>,
    packs: Vec<Arc<Pack>>,
    pack_ids: HashMap<Arc<Pack>, PackId>,
    candidates: Vec<Candidates>,
    pack_operands: Vec<Option<Vec<OperandId>>>,
    seeded: HashMap<OperandId, Vec<PackId>>,
    bound: VecDeque<(PackId, Vec<OperandId>)>,
    producer_hits: u64,
    producer_misses: u64,
}

impl Arena {
    fn intern_operand(&mut self, x: &OperandVec) -> OperandId {
        if let Some(&id) = self.operand_ids.get(x) {
            return id;
        }
        let id = OperandId(self.operands.len() as u32);
        let rc = Arc::new(x.clone());
        self.operands.push(rc.clone());
        self.operand_ids.insert(rc, id);
        id
    }

    fn intern_pack(&mut self, p: Pack) -> PackId {
        if let Some(&id) = self.pack_ids.get(&p) {
            return id;
        }
        let id = PackId(self.packs.len() as u32);
        let rc = Arc::new(p);
        self.packs.push(rc.clone());
        self.pack_ids.insert(rc, id);
        id
    }

    fn enumerate_producers(&mut self, ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<PackId> {
        self.producer_misses += 1;
        let mut ids = Vec::new();
        for (pack, operands) in producers(ctx, x) {
            let unseen = self.packs.len();
            let pid = self.intern_pack(pack);
            if pid.0 as usize == unseen {
                let operand_ids = operands.iter().map(|o| self.intern_operand(o)).collect();
                self.bound.push_back((pid, operand_ids));
            }
            ids.push(pid);
        }
        ids
    }

    fn seed_producers(&mut self, ctx: &VectorizerCtx<'_>, x: &OperandVec) -> &[PackId] {
        let id = self.intern_operand(x);
        let producers = self.enumerate_producers(ctx, x);
        self.seeded.entry(id).or_insert(producers)
    }

    fn close(&mut self, ctx: &VectorizerCtx<'_>) {
        loop {
            let swept = (self.pack_operands.len(), self.candidates.len());
            while let Some(pack) = self.packs.get(self.pack_operands.len()).cloned() {
                let id = PackId(self.pack_operands.len() as u32);
                let operands = if self.bound.front().is_some_and(|(bound, _)| *bound == id) {
                    self.bound.pop_front().map(|(_, operands)| operands)
                } else {
                    pack_operands(ctx, &pack)
                        .map(|operands| operands.iter().map(|o| self.intern_operand(o)).collect())
                };
                self.pack_operands.push(operands);
            }
            while let Some(x) = self.operands.get(self.candidates.len()).cloned() {
                let id = OperandId(self.candidates.len() as u32);
                let producers = match self.seeded.remove(&id) {
                    Some(producers) => {
                        self.producer_hits += 1;
                        producers
                    }
                    None => self.enumerate_producers(ctx, &x),
                };
                let covering =
                    covering_load_packs(ctx, &x).into_iter().map(|p| self.intern_pack(p)).collect();
                let groups = opcode_group_subvectors(ctx, &x)
                    .iter()
                    .map(|g| self.intern_operand(g))
                    .collect();
                self.candidates.push(Candidates { producers, covering, groups });
            }
            if swept == (self.pack_operands.len(), self.candidates.len()) {
                return;
            }
        }
    }
}

/// A reference freeze: the filled arena, the seed packs, and per pack its
/// interior values (descending) and `static_illegal` bit.
struct Frozen {
    arena: Arena,
    seed_packs: Vec<PackId>,
    interior: Vec<Vec<ValueId>>,
    static_illegal: Vec<bool>,
}

fn freeze(ctx: &VectorizerCtx<'_>, cfg: &BeamConfig) -> Frozen {
    let mut arena = Arena::default();
    let mut seed_packs: Vec<PackId> =
        ctx.store_chain_packs().into_iter().map(|p| arena.intern_pack(p)).collect();
    if cfg.use_affinity_seeds {
        let seeds = enumerate_seeds(ctx, &cfg.seeds, || Ok::<(), Infallible>(()));
        for x in seeds.unwrap_or_else(|e| match e {}) {
            seed_packs.extend(arena.seed_producers(ctx, &x));
        }
    }
    seed_packs.dedup();
    arena.close(ctx);

    let words = ctx.f.insts.len().div_ceil(64).max(1);
    let mut def = vec![0u64; words];
    let (mut interior, mut static_illegal) = (Vec::new(), Vec::new());
    for pack in &arena.packs {
        let defined: Vec<ValueId> = pack.defined().collect();
        def.fill(0);
        let mut illegal = false;
        for &v in &defined {
            illegal |= !set_bit(&mut def, v.index());
        }
        illegal |= defined.iter().any(|&a| {
            ctx.deps
                .direct_deps(a)
                .iter()
                .any(|&d| !bit(&def, d.index()) && intersects(ctx.deps.closure_row(d), &def))
        });
        static_illegal.push(illegal);
        let mut covered: Vec<ValueId> = Vec::new();
        if let Pack::Compute { matches, .. } = &**pack {
            covered.extend(
                matches
                    .iter()
                    .flatten()
                    .flat_map(|m| m.covered.iter().copied())
                    .filter(|v| !bit(&def, v.index())),
            );
            covered.sort_unstable();
            covered.dedup();
            covered.reverse();
        }
        interior.push(covered);
    }
    Frozen { arena, seed_packs, interior, static_illegal }
}

/// Freeze `f` both ways and compare them id for id.
fn assert_same_freeze(ctx: &VectorizerCtx<'_>) {
    let cfg = BeamConfig::default();
    let fz = FrozenCtx::freeze(ctx, &cfg, Instant::now()).unwrap();
    let want = freeze(ctx, &cfg);
    let name = &ctx.f.name;
    let (got, r) = (&fz.arena, &want.arena);
    assert_eq!(fz.seed_packs, want.seed_packs, "{name}: seed packs");
    assert_eq!(got.producer_lookups(), (r.producer_hits, r.producer_misses), "{name}");
    assert_eq!(got.operand_count(), r.operands.len(), "{name}: operand count");
    for (i, x) in r.operands.iter().enumerate() {
        let id = OperandId(i as u32);
        assert_eq!(got.operand(id), &**x, "{name}: operand {i}");
        let (c, want) = (got.candidates(id), &r.candidates[i]);
        let have = (c.producers, c.covering, c.groups);
        let want = (&want.producers[..], &want.covering[..], &want.groups[..]);
        assert_eq!(have, want, "{name}: candidates of operand {i} {x}");
    }
    assert_eq!(got.pack_count(), r.packs.len(), "{name}: pack count");
    for (i, p) in r.packs.iter().enumerate() {
        let id = PackId(i as u32);
        // `Pack` equality compares every field of every lane's match,
        // `live_ins` and `covered` included.
        assert_eq!(fz.pack(id), **p, "{name}: pack {i}");
        assert_eq!(got.values(id), p.values(), "{name}: lanes of pack {i}");
        assert_eq!(Some(got.pack_operands(id)), r.pack_operands[i].as_deref(), "{name}: pack {i}");
        assert_eq!(fz.interior(id), want.interior[i], "{name}: interior of pack {i}");
        assert_eq!(fz.static_illegal(id), want.static_illegal[i], "{name}: pack {i}");
    }
}

fn assert_same_freezes_on(target: vegen_isa::TargetIsa) {
    let desc = vegen_match::TargetDesc::build(&vegen_isa::InstDb::for_target(&target), true);
    let mut kernels = crate::testutil::suite_kernels();
    kernels.extend(crate::testutil::corpus(42));
    kernels.extend(crate::testutil::corpus(1337));
    for f in &kernels {
        assert_same_freeze(&VectorizerCtx::new(f, &desc, CostModel::default()));
    }
}

#[test]
fn handle_arena_matches_the_reference_on_sse4() {
    assert_same_freezes_on(vegen_isa::TargetIsa::sse4());
}

#[test]
fn handle_arena_matches_the_reference_on_avx2() {
    assert_same_freezes_on(vegen_isa::TargetIsa::avx2());
}

#[test]
fn handle_arena_matches_the_reference_on_avx512vnni() {
    assert_same_freezes_on(vegen_isa::TargetIsa::avx512vnni());
}
