//! The operation registry, target description, and match table (§4.3).

use crate::pattern::try_pattern_of_operation;
use vegen_ir::{Function, InstKind, Type, ValueId};
use vegen_isa::{InstDb, InstDef};
use vegen_vidl::ast::LaneUse;
use vegen_vidl::Expr;

/// Identifier of a deduplicated operation in an [`OpRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// One registered operation: its matcher pattern and signature.
#[derive(Debug, Clone)]
pub struct RegisteredOp {
    /// Display name (first operation that produced this pattern).
    pub name: String,
    /// Parameter types.
    pub param_tys: Vec<Type>,
    /// Result type.
    pub ret: Type,
    /// The (canonicalized) matcher pattern.
    pub pattern: Expr,
}

/// Deduplicated set of operations collected from all target instructions.
#[derive(Debug, Clone, Default)]
pub struct OpRegistry {
    ops: Vec<RegisteredOp>,
}

impl OpRegistry {
    /// Register (or find) an operation, returning its id.
    pub fn intern(&mut self, name: &str, param_tys: Vec<Type>, ret: Type, pattern: Expr) -> OpId {
        if let Some(i) = self
            .ops
            .iter()
            .position(|o| o.pattern == pattern && o.param_tys == param_tys && o.ret == ret)
        {
            return OpId(i);
        }
        self.ops.push(RegisteredOp { name: name.to_string(), param_tys, ret, pattern });
        OpId(self.ops.len() - 1)
    }

    /// The operation with the given id.
    pub fn get(&self, id: OpId) -> &RegisteredOp {
        &self.ops[id.0]
    }

    /// Number of registered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate `(OpId, &RegisteredOp)`.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &RegisteredOp)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpId(i), o))
    }
}

/// A target instruction prepared for the vectorizer: its definition, the
/// registry id of each lane's operation, and the static lane-binding tables
/// (`operand_i(.)` of §4.4).
#[derive(Debug, Clone)]
pub struct DescInst {
    /// The underlying instruction definition.
    pub def: InstDef,
    /// One operation id per output lane.
    pub lane_ops: Vec<OpId>,
    /// `bindings[input][in_lane]` = the `(out_lane, param)` uses of that
    /// input lane (empty = don't-care).
    pub bindings: Vec<Vec<Vec<LaneUse>>>,
}

impl DescInst {
    /// Number of output lanes.
    pub fn out_lanes(&self) -> usize {
        self.lane_ops.len()
    }

    /// Number of input operands.
    pub fn operand_count(&self) -> usize {
        self.bindings.len()
    }
}

/// The complete target description library generated from instruction
/// semantics: what the paper's offline phase emits as C++ and we carry as
/// data.
#[derive(Debug, Clone)]
pub struct TargetDesc {
    /// Deduplicated operations with matcher patterns.
    pub ops: OpRegistry,
    /// Prepared instructions.
    pub insts: Vec<DescInst>,
}

/// Error building a [`TargetDesc`] from a malformed instruction database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A lane binding references an operation index the description lacks.
    UnknownOperation {
        /// Offending instruction name.
        inst: String,
        /// Offending output lane.
        lane: usize,
        /// The out-of-range operation index.
        op: usize,
    },
    /// A lane operation's body could not be turned into a pattern.
    BadPattern {
        /// Offending instruction name.
        inst: String,
        /// Offending output lane.
        lane: usize,
        /// Why pattern generation failed.
        message: String,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::UnknownOperation { inst, lane, op } => {
                write!(f, "{inst} lane {lane} references unknown operation #{op}")
            }
            TableError::BadPattern { inst, lane, message } => {
                write!(f, "{inst} lane {lane}: {message}")
            }
        }
    }
}

impl std::error::Error for TableError {}

impl TargetDesc {
    /// Build the description library for an instruction database.
    ///
    /// `canonicalize_patterns` mirrors the paper's §6 canonicalization
    /// switch (ablated in Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics on a malformed database; use [`TargetDesc::try_build`] for
    /// databases that have not been validated (e.g. deliberately corrupted
    /// audit inputs).
    pub fn build(db: &InstDb, canonicalize_patterns: bool) -> TargetDesc {
        Self::try_build(db, canonicalize_patterns)
            .unwrap_or_else(|e| panic!("malformed instruction database: {e}"))
    }

    /// Fallible form of [`TargetDesc::build`]: malformed lane bindings and
    /// operation bodies are typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// Returns the first [`TableError`] encountered, naming the
    /// instruction and lane.
    pub fn try_build(db: &InstDb, canonicalize_patterns: bool) -> Result<TargetDesc, TableError> {
        let mut ops = OpRegistry::default();
        let mut insts = Vec::new();
        // An instruction's lanes point at a handful of operations (§6.1),
        // so each operation is derived once, by the first lane that uses
        // it: registry order and the lane named by an error are those of
        // a lane-by-lane derivation.
        let mut derived: Vec<Option<OpId>> = Vec::new();
        for def in db.iter() {
            derived.clear();
            derived.resize(def.sem.ops.len(), None);
            let mut lane_ops: Vec<OpId> = Vec::with_capacity(def.sem.lanes.len());
            for (lane_idx, lane) in def.sem.lanes.iter().enumerate() {
                let Some(op) = def.sem.ops.get(lane.op) else {
                    return Err(TableError::UnknownOperation {
                        inst: def.name.clone(),
                        lane: lane_idx,
                        op: lane.op,
                    });
                };
                if let Some(id) = derived[lane.op] {
                    lane_ops.push(id);
                    continue;
                }
                let pattern = try_pattern_of_operation(op, canonicalize_patterns).map_err(|e| {
                    TableError::BadPattern {
                        inst: def.name.clone(),
                        lane: lane_idx,
                        message: e.to_string(),
                    }
                })?;
                let id = ops.intern(&op.name, op.params.clone(), op.ret, pattern);
                derived[lane.op] = Some(id);
                lane_ops.push(id);
            }
            let bindings: Vec<Vec<Vec<LaneUse>>> =
                (0..def.sem.inputs.len()).map(|i| def.sem.operand_bindings(i)).collect();
            insts.push(DescInst { def: def.clone(), lane_ops, bindings });
        }
        Ok(TargetDesc { ops, insts })
    }

    /// Find a prepared instruction by name.
    pub fn find(&self, name: &str) -> Option<&DescInst> {
        self.insts.iter().find(|i| i.def.name == name)
    }
}

/// A successful pattern match: an IR DAG with one live-out and (possibly)
/// several live-ins (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The matched operation.
    pub op: OpId,
    /// The match's live-out (its root instruction).
    pub root: ValueId,
    /// Live-ins in operation-parameter order; `None` for parameters the
    /// canonicalized pattern no longer references.
    pub live_ins: Vec<Option<ValueId>>,
    /// The matched interior instructions (root included, live-ins
    /// excluded). Selecting a pack covering this match turns interior
    /// instructions with no external users into dead code.
    pub covered: Vec<ValueId>,
}

/// The match table: every `(live-out, operation) -> match` for a function
/// (§4.3). "The match table allows VEGEN's target-independent vectorization
/// algorithm to efficiently enumerate the set of candidate vector
/// instructions that can produce a given vector."
#[derive(Debug, Clone)]
pub struct MatchTable {
    /// Every match, by root and then operation id, ascending.
    matches: Vec<Match>,
    /// Value `v`'s matches are `matches[at[v]..at[v + 1]]`.
    at: Vec<u32>,
    /// `matches[i].op`, so [`Self::ops_at`] is a slice.
    ops: Vec<OpId>,
}

impl MatchTable {
    /// Run every registered matcher over every instruction of `f`.
    ///
    /// Loads, stores and constants are not pattern roots (loads and stores
    /// are packed by the separate memory-pack logic; constants are
    /// materialized directly).
    pub fn build(f: &Function, ops: &OpRegistry) -> MatchTable {
        let mut matches = Vec::new();
        let mut at = Vec::with_capacity(f.insts.len() + 1);
        let consts = crate::pattern::const_pool(f);
        for (v, inst) in f.iter() {
            at.push(matches.len() as u32);
            if matches!(
                inst.kind,
                InstKind::Load { .. } | InstKind::Store { .. } | InstKind::Const(_)
            ) {
                continue;
            }
            for (op_id, op) in ops.iter() {
                if op.ret != inst.ty {
                    continue;
                }
                if let Some((live_ins, covered)) =
                    crate::pattern::match_at_with_covered(f, &consts, &op.pattern, &op.param_tys, v)
                {
                    matches.push(Match { op: op_id, root: v, live_ins, covered });
                }
            }
        }
        at.push(matches.len() as u32);
        let ops = matches.iter().map(|m| m.op).collect();
        MatchTable { matches, at, ops }
    }

    /// The matches rooted at `v`, in operation-id order.
    fn range(&self, v: ValueId) -> std::ops::Range<usize> {
        match self.at.get(v.index()..v.index() + 2) {
            Some(&[from, to]) => from as usize..to as usize,
            _ => 0..0,
        }
    }

    /// Look up the match for `(live_out, op)` — the `M[(x_i, f)]` access of
    /// Algorithm 1.
    pub fn lookup(&self, live_out: ValueId, op: OpId) -> Option<&Match> {
        let range = self.range(live_out);
        let i = self.ops[range.clone()].binary_search(&op).ok()?;
        Some(&self.matches[range.start + i])
    }

    /// All operations that matched at `v`.
    pub fn ops_at(&self, v: ValueId) -> &[OpId] {
        &self.ops[self.range(v)]
    }

    /// Total number of matches recorded.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True if no matches were found.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::{FunctionBuilder, Type};
    use vegen_isa::TargetIsa;

    fn desc() -> TargetDesc {
        TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
    }

    #[test]
    fn try_build_reports_malformed_lane_binding() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        let mut defs: Vec<_> = db.iter().cloned().collect();
        let name = defs[0].name.clone();
        defs[0].sem.lanes[1].op = 99;
        let e = TargetDesc::try_build(&InstDb::from_defs(defs), true).unwrap_err();
        assert_eq!(e, TableError::UnknownOperation { inst: name, lane: 1, op: 99 });
    }

    #[test]
    fn try_build_reports_out_of_range_pattern_param() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        let mut defs: Vec<_> = db.iter().cloned().collect();
        let name = defs[0].name.clone();
        let op_idx = defs[0].sem.lanes[0].op;
        defs[0].sem.ops[op_idx].expr = Expr::Param(7);
        let e = TargetDesc::try_build(&InstDb::from_defs(defs), true).unwrap_err();
        let TableError::BadPattern { inst, lane: 0, message } = e else {
            panic!("wrong error: {e:?}");
        };
        assert_eq!(inst, name);
        assert!(message.contains("x7"), "{message}");
    }

    #[test]
    fn registry_dedupes_across_instructions() {
        let d = desc();
        // paddd exists at 128 and 256 bits; the 32-bit add operation must be
        // registered once.
        let n_adds = d
            .ops
            .iter()
            .filter(|(_, o)| {
                matches!(&o.pattern, Expr::Bin { op: vegen_ir::BinOp::Add, lhs, rhs }
                    if matches!(**lhs, Expr::Param(_)) && matches!(**rhs, Expr::Param(_)))
                    && o.param_tys == vec![Type::I32, Type::I32]
            })
            .count();
        assert_eq!(n_adds, 1);
        assert!(d.ops.len() < d.insts.iter().map(|i| i.out_lanes()).sum::<usize>());
    }

    #[test]
    fn pmaddwd_lanes_share_one_op() {
        let d = desc();
        let i = d.find("pmaddwd_128").unwrap();
        assert_eq!(i.out_lanes(), 4);
        assert!(i.lane_ops.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn addsub_lanes_alternate_ops() {
        let d = desc();
        let i = d.find("addsubpd_128").unwrap();
        assert_eq!(i.out_lanes(), 2);
        assert_ne!(i.lane_ops[0], i.lane_ops[1]);
    }

    #[test]
    fn match_table_finds_dot_product_lanes() {
        // Fig. 4(d)/(e): both madd matches (rooted at t1 and t2) appear in
        // the table.
        let d = desc();
        let mut b = FunctionBuilder::new("dot_prod");
        let a = b.param("A", Type::I16, 4);
        let bb = b.param("B", Type::I16, 4);
        let c = b.param("C", Type::I32, 2);
        let mut roots = Vec::new();
        for lane in 0..2 {
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
            roots.push(t);
        }
        let f = b.finish();
        let table = MatchTable::build(&f, &d.ops);
        let pmaddwd = d.find("pmaddwd_128").unwrap();
        let madd_op = pmaddwd.lane_ops[0];
        for (i, &root) in roots.iter().enumerate() {
            let m = table
                .lookup(root, madd_op)
                .unwrap_or_else(|| panic!("madd must match at lane root {i}"));
            assert_eq!(m.live_ins.len(), 4);
            assert!(m.live_ins.iter().all(|l| l.is_some()));
        }
    }

    #[test]
    fn simple_add_matches_many_ops() {
        let d = desc();
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        b.store(p, 2, s);
        let f = b.finish();
        let table = MatchTable::build(&f, &d.ops);
        // The add matches at least the plain add32 operation; it is also a
        // degenerate match for nothing else (madd needs muls below it).
        assert!(!table.ops_at(s).is_empty());
        let add_ops: Vec<_> = table.ops_at(s).to_vec();
        for op in add_ops {
            let m = table.lookup(s, op).unwrap();
            assert_eq!(m.root, s);
        }
    }

    #[test]
    fn loads_and_stores_are_not_roots() {
        let d = desc();
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let st = b.store(p, 1, x);
        let f = b.finish();
        let table = MatchTable::build(&f, &d.ops);
        assert!(table.ops_at(x).is_empty());
        assert!(table.ops_at(st).is_empty());
    }

    #[test]
    fn vnni_dot_product_op_matches_accumulating_kernel() {
        let d512 = TargetDesc::build(&InstDb::for_target(&TargetIsa::avx512vnni()), true);
        let vpdp = d512.find("vpdpbusd_128").unwrap();
        let dot_op = vpdp.lane_ops[0];
        // One lane of the TVM kernel: acc + 4 u8*i8 products.
        let mut b = FunctionBuilder::new("tvm_lane");
        let data = b.param("data", Type::I8, 4);
        let kern = b.param("kernel", Type::I8, 4);
        let out = b.param("out", Type::I32, 1);
        let acc0 = b.load(out, 0);
        let mut acc = acc0;
        for k in 0..4 {
            let dv = b.load(data, k);
            let kv = b.load(kern, k);
            let dw = b.zext(dv, Type::I32);
            let kw = b.sext(kv, Type::I32);
            let m = b.mul(dw, kw);
            acc = b.add(acc, m);
        }
        b.store(out, 0, acc);
        let f = vegen_ir::canon::canonicalize(&b.finish());
        let table = MatchTable::build(&f, &d512.ops);
        let root = {
            let InstKind::Store { value, .. } = f.insts.last().unwrap().kind else { panic!() };
            value
        };
        assert!(
            table.lookup(root, dot_op).is_some(),
            "vpdpbusd op must match the accumulating dot-product lane\n{f}"
        );
    }
}
