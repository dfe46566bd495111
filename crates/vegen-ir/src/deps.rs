//! Dependence analysis over straight-line code.
//!
//! The vectorizer needs two queries: "does instruction `b` (transitively)
//! depend on instruction `a`?" (pack legality, §4.4) and "which values are
//! independent?" (packs require independent live-outs). Dependences are
//! use-def edges plus memory-order edges.
//!
//! # Aliasing model (`restrict` assumption)
//!
//! Every buffer parameter is treated as `restrict`-qualified, as in the
//! paper's kernel setting: **distinct parameters never alias**, so a store
//! to `A` imposes no ordering on loads or stores of `B` no matter what
//! offsets either uses. Within one parameter, all offsets are compile-time
//! constants (this IR has no computed addressing), so two accesses alias
//! **iff their constant element offsets are equal** — `A[0]` and `A[1]`
//! are disjoint cells, never a may-alias pair. The memory-order edges this
//! produces are exactly:
//!
//! * store→load (flow): a load sees the last prior store to the same cell;
//! * load→store (anti): a store is ordered after every prior load of the
//!   cell it overwrites;
//! * store→store (output): stores to the same cell stay in program order.
//!
//! Callers that ever introduce non-`restrict` inputs or runtime-computed
//! offsets must conservatively merge those parameters' cells before using
//! this graph; nothing here degrades to a may-alias answer on its own.

use crate::function::{Function, ValueId};
use crate::inst::InstKind;

/// Precomputed transitive dependence relation for a function.
///
/// `O(n^2 / 64)` bitset closure — functions here are kernels of at most a
/// few hundred instructions, so this is cheap and makes the hot
/// `depends(a, b)` query O(1).
#[derive(Debug, Clone)]
pub struct DepGraph {
    n: usize,
    words: usize,
    /// `closed[i]` = bitset of values that `i` transitively depends on.
    closed: Vec<u64>,
    /// Direct dependence edges (use-def plus memory order), per value.
    direct: Vec<Vec<ValueId>>,
}

impl DepGraph {
    /// Build the transitive dependence closure of `f`.
    pub fn build(f: &Function) -> DepGraph {
        let n = f.insts.len();
        let words = n.div_ceil(64).max(1);
        let mut closed = vec![0u64; n * words];
        let mut direct_edges: Vec<Vec<ValueId>> = Vec::with_capacity(n);

        // Memory state while scanning forward: last store per (base, offset)
        // and all prior loads per (base, offset) awaiting a store edge.
        use std::collections::HashMap;
        let mut last_store: HashMap<(usize, i64), ValueId> = HashMap::new();
        let mut loads_since_store: HashMap<(usize, i64), Vec<ValueId>> = HashMap::new();

        for (v, inst) in f.iter() {
            let vi = v.index();
            let mut direct: Vec<ValueId> = inst.operands().to_vec();
            match inst.kind {
                InstKind::Load { loc } => {
                    let key = (loc.base, loc.offset);
                    if let Some(&s) = last_store.get(&key) {
                        direct.push(s);
                    }
                    loads_since_store.entry(key).or_default().push(v);
                }
                InstKind::Store { loc, .. } => {
                    let key = (loc.base, loc.offset);
                    if let Some(&s) = last_store.get(&key) {
                        direct.push(s); // store-store order
                    }
                    for l in loads_since_store.remove(&key).unwrap_or_default() {
                        direct.push(l); // anti-dependence: load before store
                    }
                    last_store.insert(key, v);
                }
                _ => {}
            }
            // closed[v] = union of closed[d] | {d} over direct deps d.
            for &d in &direct {
                let di = d.index();
                let (head, tail) = closed.split_at_mut(vi * words);
                let src = &head[di * words..di * words + words];
                let dst = &mut tail[..words];
                for w in 0..words {
                    dst[w] |= src[w];
                }
                dst[di / 64] |= 1u64 << (di % 64);
            }
            direct_edges.push(direct);
        }
        DepGraph { n, words, closed, direct: direct_edges }
    }

    /// The direct dependence edges of `v` (operands plus memory-order
    /// predecessors). Used by legality checks that contract packs into
    /// single nodes.
    pub fn direct_deps(&self, v: ValueId) -> &[ValueId] {
        &self.direct[v.index()]
    }

    /// The closure row of `v`: a bitset over value indices (bit `i` of
    /// word `i / 64` = `ValueId` `i`) of everything `v` transitively
    /// depends on. Rows are `len().div_ceil(64).max(1)` words long.
    pub fn closure_row(&self, v: ValueId) -> &[u64] {
        &self.closed[v.index() * self.words..(v.index() + 1) * self.words]
    }

    /// True if `user` transitively depends on `dep`.
    pub fn depends(&self, user: ValueId, dep: ValueId) -> bool {
        let ui = user.index();
        let di = dep.index();
        debug_assert!(ui < self.n && di < self.n);
        self.closed[ui * self.words + di / 64] >> (di % 64) & 1 != 0
    }

    /// True if neither value depends on the other (and they are distinct).
    pub fn independent(&self, a: ValueId, b: ValueId) -> bool {
        a != b && !self.depends(a, b) && !self.depends(b, a)
    }

    /// True if all values in the slice are pairwise independent.
    pub fn all_independent(&self, vs: &[ValueId]) -> bool {
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                if !self.independent(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the function had no instructions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;

    #[test]
    fn use_def_chains() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        let t = b.add(s, s);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(s, x));
        assert!(g.depends(t, x)); // transitive
        assert!(!g.depends(x, s));
        assert!(g.independent(x, y));
        assert!(!g.independent(t, s));
    }

    #[test]
    fn store_load_forwarding_edge() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let st = b.store(p, 1, x);
        let y = b.load(p, 1); // must see the store
        let z = b.load(p, 2); // unrelated offset
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(y, st));
        assert!(!g.depends(z, st));
    }

    #[test]
    fn anti_dependence_load_then_store() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let one = b.iconst(Type::I32, 1);
        let y = b.add(x, one);
        let st = b.store(p, 0, y); // overwrites what x read
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(st, x), "store must be ordered after the earlier load");
    }

    #[test]
    fn store_store_order() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let c = b.iconst(Type::I32, 1);
        let s1 = b.store(p, 0, c);
        let s2 = b.store(p, 0, c);
        let s3 = b.store(p, 1, c);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(s2, s1));
        assert!(!g.depends(s3, s1));
    }

    #[test]
    fn distinct_params_never_alias() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let q = b.param("B", Type::I32, 2);
        let c = b.iconst(Type::I32, 7);
        let st = b.store(p, 0, c);
        let x = b.load(q, 0);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(!g.depends(x, st));
    }

    #[test]
    fn store_then_load_mixed_offsets() {
        // store A[0]; store A[2]; loads at 0, 1, 2 — each load must depend
        // exactly on the store to its own offset.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let c = b.iconst(Type::I32, 9);
        let s0 = b.store(p, 0, c);
        let s2 = b.store(p, 2, c);
        let l0 = b.load(p, 0);
        let l1 = b.load(p, 1);
        let l2 = b.load(p, 2);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(l0, s0) && !g.depends(l0, s2));
        assert!(!g.depends(l1, s0) && !g.depends(l1, s2));
        assert!(g.depends(l2, s2) && !g.depends(l2, s0));
    }

    #[test]
    fn load_then_store_mixed_offsets() {
        // Loads at 0 and 1, then stores at 1 and 3: only the store that
        // overwrites a previously read cell gets the anti edge.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let l0 = b.load(p, 0);
        let l1 = b.load(p, 1);
        let s1 = b.store(p, 1, l0);
        let s3 = b.store(p, 3, l1);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(s1, l1), "anti edge: store A[1] after load A[1]");
        assert!(!g.depends(s3, l0), "store A[3] overwrites nothing that was read");
        // s3 depends on l1 only through use-def (it stores l1), which is
        // not an aliasing artifact.
        assert!(g.depends(s3, l1));
    }

    #[test]
    fn store_store_mixed_offsets() {
        // Interleaved stores at alternating offsets: output edges connect
        // same-offset stores only, transitively in program order.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let c = b.iconst(Type::I32, 1);
        let a0 = b.store(p, 0, c);
        let a1 = b.store(p, 1, c);
        let b0 = b.store(p, 0, c);
        let b1 = b.store(p, 1, c);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.depends(b0, a0) && g.depends(b1, a1));
        assert!(!g.depends(b0, a1) && !g.depends(b1, b0));
        assert!(g.independent(a0, a1) && g.independent(b0, b1));
    }

    #[test]
    fn all_independent_checks_pairs() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let z = b.add(x, y);
        let f = b.finish();
        let g = DepGraph::build(&f);
        assert!(g.all_independent(&[x, y]));
        assert!(!g.all_independent(&[x, y, z]));
    }
}
