//! Seed-pack enumeration with pairwise affinity scores (Fig. 8, §5.1).
//!
//! Beyond store chains, VeGen seeds the search with a limited set of
//! non-store packs: for every non-memory instruction that feeds a store,
//! and every target vector length, it enumerates the top-k lane sequences
//! maximizing the summed affinity of adjacent lanes.

use crate::ctx::VectorizerCtx;
use crate::intern::IdMap;
use crate::operand::OperandVec;
use vegen_ir::{InstKind, ValueId};

/// The `α` parameters of the affinity recurrence (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffinityParams {
    /// Penalty for packing a value with itself.
    pub broadcast: f64,
    /// Penalty for a pair of constants.
    pub constant: f64,
    /// Penalty for an unpackable pair.
    pub mismatch: f64,
    /// Per-element penalty for loads at a non-unit constant distance.
    pub jumbled: f64,
    /// Reward for a well-matched pair.
    pub matched: f64,
    /// How many top sequences to keep per (first-lane, width).
    pub top_k: usize,
    /// Recursion depth cap for the operand-affinity sum.
    pub max_depth: usize,
}

impl Default for AffinityParams {
    fn default() -> AffinityParams {
        AffinityParams {
            broadcast: 1.0,
            constant: 1.0,
            mismatch: 4.0,
            jumbled: 1.0,
            matched: 2.0,
            top_k: 3,
            max_depth: 4,
        }
    }
}

/// The affinity score between two IR values (Fig. 8). Higher is better.
pub fn affinity(ctx: &VectorizerCtx<'_>, params: &AffinityParams, v: ValueId, w: ValueId) -> f64 {
    let mut memo = IdMap::default();
    affinity_rec(ctx, params, v, w, params.max_depth, &mut memo)
}

fn affinity_rec(
    ctx: &VectorizerCtx<'_>,
    params: &AffinityParams,
    v: ValueId,
    w: ValueId,
    depth: usize,
    memo: &mut IdMap<(ValueId, ValueId), f64>,
) -> f64 {
    if let Some(&c) = memo.get(&(v, w)) {
        return c;
    }
    let score = affinity_uncached(ctx, params, v, w, depth, memo);
    memo.insert((v, w), score);
    score
}

fn affinity_uncached(
    ctx: &VectorizerCtx<'_>,
    params: &AffinityParams,
    v: ValueId,
    w: ValueId,
    depth: usize,
    memo: &mut IdMap<(ValueId, ValueId), f64>,
) -> f64 {
    if v == w {
        return -params.broadcast;
    }
    let iv = ctx.f.inst(v);
    let iw = ctx.f.inst(w);
    if let (InstKind::Const(_), InstKind::Const(_)) = (&iv.kind, &iw.kind) {
        return -params.constant;
    }
    // Loads: contiguous is ideal, constant-offset jumbled is penalized by
    // distance, different bases are a mismatch.
    if let (InstKind::Load { loc: lv }, InstKind::Load { loc: lw }) = (&iv.kind, &iw.kind) {
        if lv.base != lw.base || iv.ty != iw.ty {
            return -params.mismatch;
        }
        let d = lw.offset - lv.offset;
        if d == 1 {
            return params.matched;
        }
        return -params.jumbled * (d - 1).abs() as f64;
    }
    // "Packable" in the Fig. 8 sense: same opcode shape and type.
    let same_shape = iv.ty == iw.ty
        && match (&iv.kind, &iw.kind) {
            (InstKind::Bin { op: a, .. }, InstKind::Bin { op: b, .. }) => a == b,
            (InstKind::Cast { op: a, .. }, InstKind::Cast { op: b, .. }) => a == b,
            (InstKind::Cmp { pred: a, .. }, InstKind::Cmp { pred: b, .. }) => a == b,
            (InstKind::Select { .. }, InstKind::Select { .. }) => true,
            (InstKind::FNeg { .. }, InstKind::FNeg { .. }) => true,
            _ => false,
        };
    if !same_shape || !ctx.deps.independent(v, w) {
        return -params.mismatch;
    }
    if depth == 0 {
        return params.matched;
    }
    let mut score = params.matched;
    for (ov, ow) in iv.operands().into_iter().zip(iw.operands()) {
        score += affinity_rec(ctx, params, ov, ow, depth - 1, memo);
    }
    score
}

/// Candidate lane values (non-memory compute instructions) and first lanes
/// (those with a store user), both in program order.
fn lane_candidates(ctx: &VectorizerCtx<'_>) -> (Vec<ValueId>, Vec<ValueId>) {
    let compute: Vec<ValueId> = ctx
        .f
        .iter()
        .filter(|(_, i)| {
            !matches!(i.kind, InstKind::Load { .. } | InstKind::Store { .. } | InstKind::Const(_))
        })
        .map(|(v, _)| v)
        .collect();
    let firsts: Vec<ValueId> = compute
        .iter()
        .copied()
        .filter(|&v| {
            ctx.users[v.index()]
                .iter()
                .any(|&u| matches!(ctx.f.inst(u).kind, InstKind::Store { .. }))
        })
        .collect();
    (compute, firsts)
}

/// The longest seed vector enumerated, in lanes.
const MAX_SEED_LANES: usize = 16;

/// Enumerate seed operand vectors (§5.1): for each non-memory instruction
/// used by a store and each power-of-two vector length the target holds,
/// the top-k affinity-chained lane sequences starting at that instruction.
///
/// The top-k beam over lane sequences does not depend on the length it is
/// heading for, so one run to the longest length serves every shorter one:
/// the frontier is emitted as seeds each time its length reaches a power
/// of two.
pub fn enumerate_seeds(ctx: &VectorizerCtx<'_>, params: &AffinityParams) -> Vec<OperandVec> {
    let mut memo = IdMap::default();
    let (compute, firsts) = lane_candidates(ctx);
    let mut seeds = Vec::new();
    // Extensions of the current frontier: (score, frontier index, new lane).
    let mut scored: Vec<(f64, usize, ValueId)> = Vec::new();
    for &first in &firsts {
        let ty = ctx.f.ty(first);
        let lane_budget = (ctx.max_bits / ty.bits().max(1)).max(2) as usize;
        let mut frontier: Vec<(f64, Vec<ValueId>)> = vec![(0.0, vec![first])];
        for len in 2..=MAX_SEED_LANES.min(lane_budget) {
            scored.clear();
            for (at, (score, seq)) in frontier.iter().enumerate() {
                let last = *seq.last().unwrap();
                for &cand in &compute {
                    if seq.contains(&cand) || ctx.f.ty(cand) != ty {
                        continue;
                    }
                    if !seq.iter().all(|&s| ctx.deps.independent(s, cand)) {
                        continue;
                    }
                    let a = affinity_rec(ctx, params, last, cand, params.max_depth, &mut memo);
                    scored.push((score + a, at, cand));
                }
            }
            // Stable, so equal scores keep (frontier, candidate) order.
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored.truncate(params.top_k);
            if scored.is_empty() {
                break;
            }
            frontier = scored
                .iter()
                .map(|&(score, at, cand)| {
                    let mut seq = Vec::with_capacity(len);
                    seq.extend_from_slice(&frontier[at].1);
                    seq.push(cand);
                    (score, seq)
                })
                .collect();
            if len.is_power_of_two() {
                seeds.extend(frontier.iter().map(|(_, seq)| OperandVec::from_values(seq.clone())));
            }
        }
    }
    seeds.sort();
    seeds.dedup();
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::testutil::avx2_desc;
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_match::TargetDesc;

    fn setup() -> (vegen_ir::Function, TargetDesc) {
        let mut b = FunctionBuilder::new("axpy4");
        let a = b.param("A", Type::F64, 4);
        let x = b.param("X", Type::F64, 4);
        let o = b.param("O", Type::F64, 4);
        for i in 0..4i64 {
            let av = b.load(a, i);
            let xv = b.load(x, i);
            let m = b.fmul(av, xv);
            b.store(o, i, m);
        }
        let f = canonicalize(&b.finish());
        (f, avx2_desc())
    }

    #[test]
    fn contiguous_loads_have_positive_affinity() {
        let (f, desc) = setup();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let params = AffinityParams::default();
        let loads: Vec<ValueId> = f
            .iter()
            .filter_map(|(v, i)| match i.kind {
                InstKind::Load { loc } if loc.base == 0 => Some((loc.offset, v)),
                _ => None,
            })
            .map(|(_, v)| v)
            .collect();
        let a01 = affinity(&ctx, &params, loads[0], loads[1]);
        assert_eq!(a01, params.matched);
        let a02 = affinity(&ctx, &params, loads[0], loads[2]);
        assert!(a02 < 0.0, "distance-2 loads are jumbled");
        let self_a = affinity(&ctx, &params, loads[0], loads[0]);
        assert_eq!(self_a, -params.broadcast);
    }

    #[test]
    fn isomorphic_muls_score_above_mismatches() {
        let (f, desc) = setup();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let params = AffinityParams::default();
        let muls: Vec<ValueId> = f
            .iter()
            .filter(|(_, i)| matches!(i.kind, InstKind::Bin { op: vegen_ir::BinOp::FMul, .. }))
            .map(|(v, _)| v)
            .collect();
        assert_eq!(muls.len(), 4);
        // Adjacent muls (over contiguous loads) beat distant ones.
        let a01 = affinity(&ctx, &params, muls[0], muls[1]);
        let a03 = affinity(&ctx, &params, muls[0], muls[3]);
        assert!(a01 > 0.0);
        assert!(a01 > a03);
    }

    #[test]
    fn seeds_include_the_natural_mul_vector() {
        let (f, desc) = setup();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let seeds = enumerate_seeds(&ctx, &AffinityParams::default());
        let muls: Vec<ValueId> = f
            .iter()
            .filter(|(_, i)| matches!(i.kind, InstKind::Bin { op: vegen_ir::BinOp::FMul, .. }))
            .map(|(v, _)| v)
            .collect();
        let want = OperandVec::from_values(muls);
        assert!(seeds.contains(&want), "expected in-order mul seed among {} seeds", seeds.len());
    }

    /// The enumeration this module used before the one-pass version: the
    /// lane beam restarted from `[first]` for every vector length, cloning
    /// a sequence per candidate. Kept as the reference.
    fn restarting_enumerate_seeds(
        ctx: &VectorizerCtx<'_>,
        params: &AffinityParams,
    ) -> Vec<OperandVec> {
        let mut memo = IdMap::default();
        let (compute, firsts) = lane_candidates(ctx);
        let mut seeds = Vec::new();
        for &first in &firsts {
            let ty = ctx.f.ty(first);
            let lane_budget = (ctx.max_bits / ty.bits().max(1)).max(2) as usize;
            let mut vl = 2usize;
            while vl <= MAX_SEED_LANES.min(lane_budget) {
                let mut frontier: Vec<(f64, Vec<ValueId>)> = vec![(0.0, vec![first])];
                for _ in 1..vl {
                    let mut next: Vec<(f64, Vec<ValueId>)> = Vec::new();
                    for (score, seq) in &frontier {
                        let last = *seq.last().unwrap();
                        for &cand in &compute {
                            if seq.contains(&cand) || ctx.f.ty(cand) != ty {
                                continue;
                            }
                            if !seq.iter().all(|&s| ctx.deps.independent(s, cand)) {
                                continue;
                            }
                            let a =
                                affinity_rec(ctx, params, last, cand, params.max_depth, &mut memo);
                            next.push((score + a, {
                                let mut s = seq.clone();
                                s.push(cand);
                                s
                            }));
                        }
                    }
                    next.sort_by(|a, b| b.0.total_cmp(&a.0));
                    next.truncate(params.top_k);
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                for (_, seq) in frontier {
                    if seq.len() == vl {
                        seeds.push(OperandVec::from_values(seq));
                    }
                }
                vl *= 2;
            }
        }
        seeds.sort();
        seeds.dedup();
        seeds
    }

    #[test]
    fn one_pass_enumeration_matches_the_restarting_reference() {
        let desc = avx2_desc();
        let params = AffinityParams::default();
        let mut kernels = crate::testutil::suite_kernels();
        kernels.extend(crate::testutil::corpus_and_soak_seed_kernels());
        let mut total = 0;
        for f in &kernels {
            let ctx = VectorizerCtx::new(f, &desc, CostModel::default());
            let seeds = enumerate_seeds(&ctx, &params);
            assert_eq!(seeds, restarting_enumerate_seeds(&ctx, &params), "{}", f.name);
            total += seeds.len();
        }
        assert!(total > 1_000, "only {total} seeds compared");
    }

    #[test]
    fn dependent_values_never_seed_together() {
        let mut b = FunctionBuilder::new("chain");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        let t = b.add(s, y);
        b.store(p, 2, s);
        b.store(p, 3, t);
        let f = canonicalize(&b.finish());
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let seeds = enumerate_seeds(&ctx, &AffinityParams::default());
        for seed in &seeds {
            let vals: Vec<ValueId> = seed.defined().collect();
            assert!(ctx.deps.all_independent(&vals), "dependent seed {seed}");
        }
    }
}
