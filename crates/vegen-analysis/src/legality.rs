//! Independent re-check of pack legality (§4.4) on a selected pack set.
//!
//! The beam search only ever *constructs* legal packs
//! (`VectorizerCtx::producers` filters candidates and
//! `packs_legal` guards every transition), so this pass re-derives the
//! legality conditions from first principles — its own [`DepGraph`], the
//! VIDL-level [`InstSemantics::operand_bindings`] instead of the context's
//! cached binding tables, and Kahn's algorithm instead of the context's
//! tricolor DFS — and checks the *output* of selection. A bug anywhere in
//! the matcher, the candidate arena, or the search that lets an illegal pack
//! through is caught here instead of surfacing as miscompiled code.
//!
//! [`InstSemantics::operand_bindings`]: vegen_vidl::InstSemantics::operand_bindings

use crate::diag::{Diagnostic, Location};
use std::collections::HashMap;
use vegen_core::{Pack, PackSet, SetPackId};
use vegen_ir::deps::DepGraph;
use vegen_ir::{Function, InstKind, Type, ValueId};
use vegen_match::TargetDesc;

/// Check every §4.4 legality condition on `packs`.
///
/// Returned diagnostics are all error severity: lane overlap between
/// packs, dependent lanes, inconsistent operand bindings, malformed
/// memory packs, and dependence cycles in the contracted pack graph.
pub fn check_packs(f: &Function, desc: &TargetDesc, packs: &PackSet) -> Vec<Diagnostic> {
    let deps = DepGraph::build(f);
    let mut diags = Vec::new();

    // No value may be produced by two packs.
    let mut producer: HashMap<ValueId, SetPackId> = HashMap::new();
    for (pid, pack) in packs.iter() {
        for v in pack.defined() {
            if let Some(prev) = producer.insert(v, pid) {
                diags.push(Diagnostic::error(
                    Location::Pack { pack: pid.0, lane: None },
                    format!("value {v} is produced by both pack p{} and pack p{}", prev.0, pid.0),
                ));
            }
        }
    }

    for (pid, pack) in packs.iter() {
        check_lane_independence(&deps, pid, pack, &mut diags);
        match pack {
            Pack::Load { base, start, loads, elem } => {
                check_load_pack(f, pid, *base, *start, loads, *elem, &mut diags)
            }
            Pack::Store { base, start, stores, values, elem } => {
                check_store_pack(f, pid, *base, *start, stores, values, *elem, &mut diags)
            }
            Pack::Compute { inst, matches } => {
                check_compute_pack(f, desc, pid, *inst, matches, &mut diags)
            }
        }
    }

    check_schedulability(f, &deps, packs, &producer, &mut diags);
    diags
}

/// Lanes of one pack must be pairwise independent — no lane may
/// (transitively) depend on another, or the pack has no valid execution.
fn check_lane_independence(
    deps: &DepGraph,
    pid: SetPackId,
    pack: &Pack,
    diags: &mut Vec<Diagnostic>,
) {
    let values = pack.values();
    for (i, a) in values.iter().enumerate() {
        let Some(a) = a else { continue };
        for (j, b) in values.iter().enumerate().skip(i + 1) {
            let Some(b) = b else { continue };
            if !deps.independent(*a, *b) {
                diags.push(Diagnostic::error(
                    Location::Pack { pack: pid.0, lane: Some(j) },
                    format!("lanes {i} ({a}) and {j} ({b}) are not independent"),
                ));
            }
        }
    }
}

fn check_load_pack(
    f: &Function,
    pid: SetPackId,
    base: usize,
    start: i64,
    loads: &[Option<ValueId>],
    elem: Type,
    diags: &mut Vec<Diagnostic>,
) {
    let at = |lane| Location::Pack { pack: pid.0, lane };
    let Some(param) = f.params.get(base) else {
        diags.push(Diagnostic::error(at(None), format!("load pack from unknown parameter {base}")));
        return;
    };
    if param.elem_ty != elem {
        diags.push(Diagnostic::error(
            at(None),
            format!("load pack element type {elem} differs from {}: {}", param.name, param.elem_ty),
        ));
    }
    // Don't-care lanes are still read by the vector load, so the whole
    // range must be in bounds, not just the bound lanes.
    if start < 0 || start as usize + loads.len() > param.len {
        diags.push(Diagnostic::error(
            at(None),
            format!(
                "load pack {}[{start}..{}) is out of bounds (len {})",
                param.name,
                start + loads.len() as i64,
                param.len
            ),
        ));
    }
    for (lane, v) in loads.iter().enumerate() {
        let Some(v) = v else { continue };
        match f.inst(*v).kind {
            InstKind::Load { loc } if loc.base == base && loc.offset == start + lane as i64 => {}
            InstKind::Load { loc } => diags.push(Diagnostic::error(
                at(Some(lane)),
                format!(
                    "lane {lane} covers {v}, which loads arg{}[{}], not {}[{}]",
                    loc.base,
                    loc.offset,
                    param.name,
                    start + lane as i64
                ),
            )),
            _ => diags.push(Diagnostic::error(
                at(Some(lane)),
                format!("lane {lane} covers {v}, which is not a load"),
            )),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_store_pack(
    f: &Function,
    pid: SetPackId,
    base: usize,
    start: i64,
    stores: &[ValueId],
    values: &[ValueId],
    elem: Type,
    diags: &mut Vec<Diagnostic>,
) {
    let at = |lane| Location::Pack { pack: pid.0, lane };
    let Some(param) = f.params.get(base) else {
        diags.push(Diagnostic::error(at(None), format!("store pack to unknown parameter {base}")));
        return;
    };
    if param.elem_ty != elem {
        diags.push(Diagnostic::error(
            at(None),
            format!(
                "store pack element type {elem} differs from {}: {}",
                param.name, param.elem_ty
            ),
        ));
    }
    if start < 0 || start as usize + stores.len() > param.len {
        diags.push(Diagnostic::error(
            at(None),
            format!(
                "store pack {}[{start}..{}) is out of bounds (len {})",
                param.name,
                start + stores.len() as i64,
                param.len
            ),
        ));
    }
    if stores.len() != values.len() {
        diags.push(Diagnostic::error(
            at(None),
            format!("store pack has {} stores but {} values", stores.len(), values.len()),
        ));
        return;
    }
    for (lane, (s, val)) in stores.iter().zip(values).enumerate() {
        match f.inst(*s).kind {
            InstKind::Store { loc, value }
                if loc.base == base && loc.offset == start + lane as i64 && value == *val => {}
            InstKind::Store { loc, value } => diags.push(Diagnostic::error(
                at(Some(lane)),
                format!(
                    "lane {lane} covers {s}, which stores {value} to arg{}[{}], not {val} to \
                     {}[{}]",
                    loc.base,
                    loc.offset,
                    param.name,
                    start + lane as i64
                ),
            )),
            _ => diags.push(Diagnostic::error(
                at(Some(lane)),
                format!("lane {lane} covers {s}, which is not a store"),
            )),
        }
    }
}

/// Re-check a compute pack against its instruction's VIDL semantics: the
/// lane operations must be the ones the description assigns, and every
/// operand register lane the instruction reads must have a single
/// consistent IR value across all the output lanes it feeds (`operand_i(.)`
/// of §4.4, re-derived from [`InstSemantics::operand_bindings`]).
fn check_compute_pack(
    f: &Function,
    desc: &TargetDesc,
    pid: SetPackId,
    inst: usize,
    matches: &[Option<vegen_core::pack::PackedMatch>],
    diags: &mut Vec<Diagnostic>,
) {
    let at = |lane| Location::Pack { pack: pid.0, lane };
    let Some(di) = desc.insts.get(inst) else {
        diags.push(Diagnostic::error(at(None), format!("unknown target instruction {inst}")));
        return;
    };
    let sem = &di.def.sem;
    if matches.len() != sem.out_lanes() {
        diags.push(Diagnostic::error(
            at(None),
            format!(
                "{} has {} output lanes but the pack has {}",
                di.def.name,
                sem.out_lanes(),
                matches.len()
            ),
        ));
        return;
    }
    if matches.iter().all(|m| m.is_none()) {
        diags.push(Diagnostic::error(
            at(None),
            format!("{} pack defines no lanes at all", di.def.name),
        ));
    }
    for (lane, m) in matches.iter().enumerate() {
        let Some(m) = m else { continue };
        if m.op != di.lane_ops[lane] {
            diags.push(Diagnostic::error(
                at(Some(lane)),
                format!(
                    "lane {lane} is matched by operation {}, but {} runs {} on that lane",
                    desc.ops.get(m.op).name,
                    di.def.name,
                    desc.ops.get(di.lane_ops[lane]).name
                ),
            ));
        }
        if f.ty(m.root) != sem.out_elem {
            diags.push(Diagnostic::error(
                at(Some(lane)),
                format!(
                    "lane {lane} root {} has type {}, but {} produces {}",
                    m.root,
                    f.ty(m.root),
                    di.def.name,
                    sem.out_elem
                ),
            ));
        }
    }
    for input in 0..sem.inputs.len() {
        for (in_lane, uses) in sem.operand_bindings(input).iter().enumerate() {
            // A lane with no uses is a semantic don't-care; a lane whose
            // consuming output lanes are all unpacked is a selection-level
            // don't-care. Either way it is unconstrained. Otherwise every
            // live use must bind the same IR value.
            let mut bound: Option<ValueId> = None;
            for u in uses {
                let Some(m) = &matches[u.out_lane] else { continue };
                let Some(v) = m.live_ins.get(u.param).copied().flatten() else { continue };
                match bound {
                    None => bound = Some(v),
                    Some(w) if w != v => diags.push(Diagnostic::error(
                        at(Some(u.out_lane)),
                        format!(
                            "operand {input} lane {in_lane} is bound inconsistently: output \
                             lane {} needs {v} but an earlier lane bound {w}",
                            u.out_lane
                        ),
                    )),
                    Some(_) => {}
                }
            }
        }
    }
}

/// The contracted dependence graph — packs fused to single nodes, scalar
/// instructions as their own nodes — must be acyclic, or no instruction
/// schedule can realize the selection. Checked with Kahn's algorithm
/// (deliberately not the tricolor DFS the selection context uses).
fn check_schedulability(
    f: &Function,
    deps: &DepGraph,
    packs: &PackSet,
    producer: &HashMap<ValueId, SetPackId>,
    diags: &mut Vec<Diagnostic>,
) {
    let n_packs = packs.len();
    let node_of = |v: ValueId| producer.get(&v).map_or(n_packs + v.index(), |p| p.0);
    let n_nodes = n_packs + f.insts.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut indegree = vec![0usize; n_nodes];
    for v in f.value_ids() {
        let nv = node_of(v);
        for &d in deps.direct_deps(v) {
            let nd = node_of(d);
            if nd != nv {
                succs[nd].push(nv);
                indegree[nv] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n_nodes).filter(|&n| indegree[n] == 0).collect();
    let mut processed = 0usize;
    while let Some(n) = ready.pop() {
        processed += 1;
        for &s in &succs[n] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    if processed < n_nodes {
        let stuck: Vec<String> =
            (0..n_packs).filter(|&p| indegree[p] > 0).map(|p| format!("p{p}")).collect();
        diags.push(Diagnostic::error(
            Location::Program,
            format!(
                "pack dependence graph has a cycle (no feasible schedule); packs involved: {}",
                if stuck.is_empty() {
                    "none (scalar-only cycle)".to_string()
                } else {
                    stuck.join(", ")
                }
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::FunctionBuilder;
    use vegen_match::OpRegistry;

    fn empty_desc() -> TargetDesc {
        TargetDesc { ops: OpRegistry::default(), insts: vec![] }
    }

    #[test]
    fn wellformed_store_and_load_packs_pass() {
        let mut b = FunctionBuilder::new("copy2");
        let src = b.param("B", Type::I32, 2);
        let dst = b.param("A", Type::I32, 2);
        let x = b.load(src, 0);
        let y = b.load(src, 1);
        let s0 = b.store(dst, 0, x);
        let s1 = b.store(dst, 1, y);
        let f = b.finish();

        let mut packs = PackSet::new();
        packs.insert(Pack::Load {
            base: 0,
            start: 0,
            loads: vec![Some(x), Some(y)],
            elem: Type::I32,
        });
        packs.insert(Pack::Store {
            base: 1,
            start: 0,
            stores: vec![s0, s1],
            values: vec![x, y],
            elem: Type::I32,
        });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn swapped_store_lanes_rejected() {
        let mut b = FunctionBuilder::new("copy2");
        let src = b.param("B", Type::I32, 2);
        let dst = b.param("A", Type::I32, 2);
        let x = b.load(src, 0);
        let y = b.load(src, 1);
        let s0 = b.store(dst, 0, x);
        let s1 = b.store(dst, 1, y);
        let f = b.finish();

        let mut packs = PackSet::new();
        // Lane order corrupted: lane 0 covers the store to A[1].
        packs.insert(Pack::Store {
            base: 1,
            start: 0,
            stores: vec![s1, s0],
            values: vec![y, x],
            elem: Type::I32,
        });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("lane 0"), "{}", diags[0].message);
        assert!(matches!(diags[0].location, Location::Pack { pack: 0, lane: Some(0) }));
    }

    #[test]
    fn dependent_store_lanes_rejected() {
        // s1's stored value is loaded from the cell s0 writes.
        let mut b = FunctionBuilder::new("chain");
        let a = b.param("A", Type::I32, 2);
        let k = b.iconst(Type::I32, 5);
        let s0 = b.store(a, 0, k);
        let x = b.load(a, 0);
        let s1 = b.store(a, 1, x);
        let f = b.finish();

        let mut packs = PackSet::new();
        packs.insert(Pack::Store {
            base: 0,
            start: 0,
            stores: vec![s0, s1],
            values: vec![k, x],
            elem: Type::I32,
        });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert!(diags.iter().any(|d| d.message.contains("not independent")), "{diags:?}");
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut b = FunctionBuilder::new("dup");
        let src = b.param("B", Type::I32, 2);
        let dst = b.param("A", Type::I32, 2);
        let x = b.load(src, 0);
        let y = b.load(src, 1);
        let s0 = b.store(dst, 0, x);
        let s1 = b.store(dst, 1, y);
        let _ = (s0, s1);
        let f = b.finish();

        let mut packs = PackSet::new();
        packs.insert(Pack::Load {
            base: 0,
            start: 0,
            loads: vec![Some(x), Some(y)],
            elem: Type::I32,
        });
        packs.insert(Pack::Load { base: 0, start: 0, loads: vec![Some(x), None], elem: Type::I32 });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert!(diags.iter().any(|d| d.message.contains("produced by both pack")), "{diags:?}");
    }

    #[test]
    fn out_of_bounds_load_pack_rejected() {
        let mut b = FunctionBuilder::new("oob");
        let src = b.param("B", Type::I32, 2);
        let dst = b.param("A", Type::I32, 1);
        let x = b.load(src, 1);
        b.store(dst, 0, x);
        let f = b.finish();

        let mut packs = PackSet::new();
        // The don't-care lane extends the vector load past the buffer.
        packs.insert(Pack::Load { base: 0, start: 1, loads: vec![Some(x), None], elem: Type::I32 });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert!(diags.iter().any(|d| d.message.contains("out of bounds")), "{diags:?}");
    }

    #[test]
    fn cross_pack_cycle_rejected() {
        // Two store packs that each depend on the other through a
        // store-to-load chain: p0 = {s0, s3}, p1 = {s1, s2} where
        // s1 needs s0's store and s3 needs s2's store. Each pack's own
        // lanes stay independent; only the contracted graph has the cycle.
        let mut b = FunctionBuilder::new("cycle");
        let a = b.param("A", Type::I32, 2);
        let bb = b.param("B", Type::I32, 2);
        let k = b.iconst(Type::I32, 1);
        let s0 = b.store(a, 0, k);
        let x = b.load(a, 0);
        let s1 = b.store(bb, 0, x);
        let s2 = b.store(bb, 1, k);
        let y = b.load(bb, 1);
        let s3 = b.store(a, 1, y);
        let f = b.finish();

        let mut packs = PackSet::new();
        packs.insert(Pack::Store {
            base: 0,
            start: 0,
            stores: vec![s0, s3],
            values: vec![k, y],
            elem: Type::I32,
        });
        packs.insert(Pack::Store {
            base: 1,
            start: 0,
            stores: vec![s1, s2],
            values: vec![x, k],
            elem: Type::I32,
        });
        let diags = check_packs(&f, &empty_desc(), &packs);
        assert!(
            diags.iter().any(|d| d.message.contains("cycle")
                && d.message.contains("p0")
                && d.message.contains("p1")),
            "{diags:?}"
        );
        // The cycle is the only problem: per-pack checks are clean.
        assert!(diags.iter().all(|d| d.message.contains("cycle")), "{diags:?}");
    }
}
