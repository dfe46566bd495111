//! The cost model (§6.2).
//!
//! Vector instruction costs come from the instruction database (twice the
//! inverse throughput, as the paper scales Intrinsics Guide data). Scalar
//! costs and the defaults of the data-movement constants are
//! [`vegen_ir::cost`]'s, the table the VM's static estimate reads too;
//! this model adds the special cases (constant vectors, broadcasts) the
//! paper says it detects and overrides.

use crate::operand::OperandVec;
use vegen_ir::cost::{scalar_cost, BROADCAST, EXTRACT, INSERT, SHUFFLE, VECTOR_MEM};
use vegen_ir::{Function, InstKind, ValueId};

/// Cost-model parameters (the `C` constants of §5 / §6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of inserting one scalar into a vector lane.
    pub c_insert: f64,
    /// Cost of extracting one vector lane to a scalar.
    pub c_extract: f64,
    /// Cost of one vector shuffle.
    pub c_shuffle: f64,
    /// Cost of a vector load pack.
    pub c_vload: f64,
    /// Cost of a vector store pack.
    pub c_vstore: f64,
    /// Cost of a broadcast (all lanes the same scalar).
    pub c_broadcast: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            c_insert: INSERT,
            c_extract: EXTRACT,
            c_shuffle: SHUFFLE,
            c_vload: VECTOR_MEM,
            c_vstore: VECTOR_MEM,
            c_broadcast: BROADCAST,
        }
    }
}

impl CostModel {
    /// Cost of executing one scalar instruction ([`scalar_cost`]).
    pub fn scalar_inst_cost(&self, f: &Function, v: ValueId) -> f64 {
        scalar_cost(&f.inst(v).kind)
    }

    /// `costscalar(v)`: the total cost of producing every value in `vals`
    /// and their (transitive, use-def) dependencies with scalar
    /// instructions only — the baseline arm of the Fig. 7 recurrence.
    pub fn scalar_closure_cost(
        &self,
        f: &Function,
        vals: impl IntoIterator<Item = ValueId>,
    ) -> f64 {
        let mut seen = vec![false; f.insts.len()];
        let mut stack: Vec<ValueId> = vals.into_iter().collect();
        let mut total = 0.0;
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            total += self.scalar_inst_cost(f, v);
            stack.extend(f.inst(v).operands());
        }
        total
    }

    /// [`Self::scalar_closure_cost`] of `[v]` for every value of `f`,
    /// indexed by `ValueId`. One reusable epoch-marked visit buffer
    /// replaces the per-call `seen` allocation; the traversal — and
    /// therefore the f64 accumulation order — is identical to calling
    /// `scalar_closure_cost(f, [v])` per value, so precomputed entries are
    /// bit-identical to on-demand ones.
    pub fn scalar_one_costs(&self, f: &Function) -> Vec<f64> {
        let n = f.insts.len();
        let mut seen = vec![u32::MAX; n];
        let mut stack: Vec<ValueId> = Vec::new();
        let mut out = vec![0.0; n];
        for v in f.value_ids() {
            let epoch = v.index() as u32;
            stack.clear();
            stack.push(v);
            let mut total = 0.0;
            while let Some(w) = stack.pop() {
                if seen[w.index()] == epoch {
                    continue;
                }
                seen[w.index()] = epoch;
                total += self.scalar_inst_cost(f, w);
                stack.extend(f.inst(w).operands());
            }
            out[v.index()] = total;
        }
        out
    }

    /// Cost of materializing operand `x` with vector insertions, with the
    /// paper's special cases: an all-constant operand is free (it folds to
    /// a constant-pool load) and a broadcast costs one instruction.
    pub fn operand_insert_cost(&self, f: &Function, x: &OperandVec) -> f64 {
        let non_const: Vec<ValueId> =
            x.defined().filter(|v| !matches!(f.inst(*v).kind, InstKind::Const(_))).collect();
        if non_const.is_empty() {
            return 0.0;
        }
        if x.is_broadcast() {
            return self.c_broadcast;
        }
        self.c_insert * non_const.len() as f64
    }

    /// Cost of inserting one particular scalar `v` into the lanes of `x`
    /// (the `costinsert(i, V)` term of Fig. 9): constants are free.
    pub fn insert_one_cost(&self, f: &Function, v: ValueId, x: &OperandVec) -> f64 {
        if matches!(f.inst(v).kind, InstKind::Const(_)) {
            return 0.0;
        }
        self.c_insert * x.count_of(v) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::{BinOp, FunctionBuilder, Type};

    #[test]
    fn closure_cost_counts_each_value_once() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 3);
        let x = b.load(p, 0); // 1
        let y = b.load(p, 1); // 1
        let s = b.add(x, y); // 1
        let t = b.mul(s, s); // 1, s shared
        b.store(p, 2, t);
        let f = b.finish();
        let cm = CostModel::default();
        assert_eq!(cm.scalar_closure_cost(&f, [t]), 4.0);
        assert_eq!(cm.scalar_closure_cost(&f, [s]), 3.0);
        assert_eq!(cm.scalar_closure_cost(&f, [s, t]), 4.0);
    }

    #[test]
    fn scalar_one_table_is_bit_identical_to_per_call_closure() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 3);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s = b.add(x, y);
        let t = b.mul(s, s);
        b.store(p, 2, t);
        let f = b.finish();
        let cm = CostModel::default();
        let table = cm.scalar_one_costs(&f);
        assert_eq!(table.len(), f.insts.len());
        for v in f.value_ids() {
            assert_eq!(
                table[v.index()].to_bits(),
                cm.scalar_closure_cost(&f, [v]).to_bits(),
                "entry for v{} must match the per-call closure cost",
                v.index()
            );
        }
    }

    #[test]
    fn casts_are_free_div_is_dear() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I16, 2);
        let q = b.param("O", Type::I32, 1);
        let x = b.load(p, 0);
        let w = b.sext(x, Type::I32);
        let y = b.load(p, 1);
        let yw = b.sext(y, Type::I32);
        let d = b.bin(BinOp::SDiv, w, yw);
        b.store(q, 0, d);
        let f = b.finish();
        let cm = CostModel::default();
        assert_eq!(cm.scalar_inst_cost(&f, w), 0.0);
        assert_eq!(cm.scalar_inst_cost(&f, d), 8.0);
    }

    #[test]
    fn constant_operand_is_free_broadcast_is_one() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 2);
        let c1 = b.iconst(Type::I32, 7);
        let c2 = b.iconst(Type::I32, 9);
        let x = b.load(p, 0);
        let s = b.add(x, c1);
        b.store(p, 1, s);
        let f = b.finish();
        let cm = CostModel::default();
        let consts = OperandVec::from_values([c1, c2]);
        assert_eq!(cm.operand_insert_cost(&f, &consts), 0.0);
        let bcast = OperandVec::from_values([x, x, x, x]);
        assert_eq!(cm.operand_insert_cost(&f, &bcast), cm.c_broadcast);
        let mixed = OperandVec::from_values([x, s]);
        assert_eq!(cm.operand_insert_cost(&f, &mixed), 2.0 * cm.c_insert);
        // Inserting a constant into a vector is free.
        assert_eq!(cm.insert_one_cost(&f, c1, &mixed), 0.0);
        assert_eq!(cm.insert_one_cost(&f, x, &mixed), cm.c_insert);
    }
}
