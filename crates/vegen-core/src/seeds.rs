//! Seed-pack enumeration with pairwise affinity scores (Fig. 8, §5.1).
//!
//! Beyond store chains, VeGen seeds the search with a limited set of
//! non-store packs: for every non-memory instruction that feeds a store,
//! and every target vector length, it enumerates the top-k lane sequences
//! maximizing the summed affinity of adjacent lanes.

use crate::bits::{clear_bit, ones, set_bit, BitMatrix};
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
///
/// Each frontier sequence carries the bitset of values that may extend
/// it: the compute values of its type, less its lanes, their ancestors and
/// their descendants (the dependence closure and its transpose). The set
/// is walked in ascending index — program order — so the affinity memo is
/// filled in the order a scan of every compute value would fill it (the
/// memo ignores the remaining depth, so that order decides scores).
///
/// `poll` runs once per first lane, before its sequences are extended.
///
/// # Errors
///
/// Returns the first error `poll` returns, at once.
pub fn enumerate_seeds<E>(
    ctx: &VectorizerCtx<'_>,
    params: &AffinityParams,
    mut poll: impl FnMut() -> Result<(), E>,
) -> Result<Vec<OperandVec>, E> {
    let mut memo = IdMap::default();
    let (compute, firsts) = lane_candidates(ctx);
    let words = ctx.f.insts.len().div_ceil(64).max(1);
    // `below.row(v)`: the compute values that depend on `v`.
    let mut below = BitMatrix::new(ctx.f.insts.len(), words);
    for &u in &compute {
        for v in ones(ctx.deps.closure_row(u)) {
            set_bit(below.row_mut(v), u.index());
        }
    }
    // The frontier: scores, then the sequences (`len - 1` lanes each) and
    // their extension sets (`words` each) back to back; the next frontier
    // is built beside it and swapped in.
    let mut scores: Vec<f64> = Vec::new();
    let (mut seqs, mut next_seqs) = (Vec::new(), Vec::new());
    let (mut masks, mut next_masks) = (Vec::new(), Vec::new());
    // The best extensions of the frontier: (score, frontier index, lane).
    let mut best: Vec<(f64, usize, ValueId)> = Vec::with_capacity(params.top_k + 1);
    let mut seeds = Vec::new();
    for &first in &firsts {
        poll()?;
        let ty = ctx.f.ty(first);
        let lane_budget = (ctx.max_bits / ty.bits().max(1)).max(2) as usize;
        scores.clear();
        scores.push(0.0);
        seqs.clear();
        seqs.push(first);
        masks.clear();
        masks.resize(words, 0);
        for &c in compute.iter().filter(|&&c| ctx.f.ty(c) == ty) {
            set_bit(&mut masks, c.index());
        }
        exclude(&mut masks, ctx, &below, first);
        for len in 2..=MAX_SEED_LANES.min(lane_budget) {
            best.clear();
            for (at, &score) in scores.iter().enumerate() {
                let last = seqs[at * (len - 1) + len - 2];
                for c in ones(&masks[at * words..(at + 1) * words]) {
                    let cand = ValueId::from_raw(c as u32);
                    let a = affinity_rec(ctx, params, last, cand, params.max_depth, &mut memo);
                    keep_best(&mut best, params.top_k, (score + a, at, cand));
                }
            }
            if best.is_empty() {
                break;
            }
            scores.clear();
            next_seqs.clear();
            next_masks.clear();
            for &(score, at, cand) in &best {
                scores.push(score);
                next_seqs.extend_from_slice(&seqs[at * (len - 1)..(at + 1) * (len - 1)]);
                next_seqs.push(cand);
                let from = next_masks.len();
                next_masks.extend_from_slice(&masks[at * words..(at + 1) * words]);
                exclude(&mut next_masks[from..], ctx, &below, cand);
            }
            std::mem::swap(&mut seqs, &mut next_seqs);
            std::mem::swap(&mut masks, &mut next_masks);
            if len.is_power_of_two() {
                seeds.extend(seqs.chunks(len).map(|seq| OperandVec::from_values(seq.to_vec())));
            }
        }
    }
    seeds.sort();
    seeds.dedup();
    Ok(seeds)
}

/// Remove lane `v`, its ancestors and its descendants from `mask`.
fn exclude(mask: &mut [u64], ctx: &VectorizerCtx<'_>, below: &BitMatrix, v: ValueId) {
    let (up, down) = (ctx.deps.closure_row(v), below.row(v.index()));
    for ((m, u), d) in mask.iter_mut().zip(up).zip(down) {
        *m &= !(u | d);
    }
    clear_bit(mask, v.index());
}

/// Insert `x` into `best`, the `k` highest scores seen so far in
/// descending order, after every entry it ties with: the prefix a stable
/// descending sort of everything seen would keep.
fn keep_best(best: &mut Vec<(f64, usize, ValueId)>, k: usize, x: (f64, usize, ValueId)) {
    let at = best.iter().position(|b| b.0.total_cmp(&x.0).is_lt()).unwrap_or(best.len());
    if at < k {
        best.insert(at, x);
        best.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::testutil::{avx2_desc, corpus, corpus_and_soak_seed_kernels, suite_kernels};
    use std::convert::Infallible;
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_isa::{InstDb, TargetIsa};
    use vegen_match::TargetDesc;

    /// [`enumerate_seeds`] without a budget.
    fn seeds_of(ctx: &VectorizerCtx<'_>, params: &AffinityParams) -> Vec<OperandVec> {
        enumerate_seeds(ctx, params, || Ok::<(), Infallible>(())).unwrap_or_else(|e| match e {})
    }

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
        let seeds = seeds_of(&ctx, &AffinityParams::default());
        let muls: Vec<ValueId> = f
            .iter()
            .filter(|(_, i)| matches!(i.kind, InstKind::Bin { op: vegen_ir::BinOp::FMul, .. }))
            .map(|(v, _)| v)
            .collect();
        let want = OperandVec::from_values(muls);
        assert!(seeds.contains(&want), "expected in-order mul seed among {} seeds", seeds.len());
    }

    /// The one-pass enumeration this module used before the bitset walk:
    /// every compute value tested against every lane of every frontier
    /// sequence, all extensions scored into one list, then a stable sort
    /// and a truncation. Kept as the reference.
    fn one_pass_enumerate_seeds(
        ctx: &VectorizerCtx<'_>,
        params: &AffinityParams,
    ) -> Vec<OperandVec> {
        let mut memo = IdMap::default();
        let (compute, firsts) = lane_candidates(ctx);
        let mut seeds = Vec::new();
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
                        let mut seq = frontier[at].1.clone();
                        seq.push(cand);
                        (score, seq)
                    })
                    .collect();
                if len.is_power_of_two() {
                    seeds.extend(
                        frontier.iter().map(|(_, seq)| OperandVec::from_values(seq.clone())),
                    );
                }
            }
        }
        seeds.sort();
        seeds.dedup();
        seeds
    }

    #[test]
    fn bitset_walk_matches_the_one_pass_reference_on_three_targets() {
        let params = AffinityParams::default();
        let mut kernels = suite_kernels();
        kernels.extend(corpus_and_soak_seed_kernels());
        kernels.extend(corpus(1337));
        let mut total = 0;
        for target in [TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()] {
            let desc = TargetDesc::build(&InstDb::for_target(&target), true);
            for f in &kernels {
                let ctx = VectorizerCtx::new(f, &desc, CostModel::default());
                let seeds = seeds_of(&ctx, &params);
                assert_eq!(seeds, one_pass_enumerate_seeds(&ctx, &params), "{}", f.name);
                total += seeds.len();
            }
        }
        assert!(total > 10_000, "only {total} seeds compared");
    }

    #[test]
    fn a_failing_poll_stops_the_enumeration_at_once() {
        let desc = avx2_desc();
        let f = suite_kernels().into_iter().find(|f| f.name == "idct8").expect("idct8");
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let firsts = lane_candidates(&ctx).1.len();
        assert!(firsts > 4, "idct8 has {firsts} first lanes");
        for k in [1, 2, firsts] {
            let mut calls = 0;
            let r = enumerate_seeds(&ctx, &AffinityParams::default(), || {
                calls += 1;
                if calls == k {
                    Err(calls)
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err(k), "the k-th poll's error comes back");
            assert_eq!(calls, k, "no poll after the failing one");
        }
        // One poll per first lane.
        let mut calls = 0;
        enumerate_seeds(&ctx, &AffinityParams::default(), || {
            calls += 1;
            Ok::<(), Infallible>(())
        })
        .unwrap_or_else(|e| match e {});
        assert_eq!(calls, firsts);
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
        let mut kernels = suite_kernels();
        kernels.extend(corpus_and_soak_seed_kernels());
        let mut total = 0;
        for f in &kernels {
            let ctx = VectorizerCtx::new(f, &desc, CostModel::default());
            let seeds = seeds_of(&ctx, &params);
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
        let seeds = seeds_of(&ctx, &AffinityParams::default());
        for seed in &seeds {
            let vals: Vec<ValueId> = seed.defined().collect();
            assert!(ctx.deps.all_independent(&vals), "dependent seed {seed}");
        }
    }
}
