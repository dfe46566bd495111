//! Functions: single-basic-block containers of instructions.

use crate::inst::{Inst, InstKind};
use crate::types::Type;
use std::fmt;

/// A reference to an instruction's result (SSA value).
///
/// Values are indices into [`Function::insts`]; program order is index
/// order, and the verifier enforces defs-before-uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// Construct from a raw index.
    pub fn from_raw(raw: u32) -> ValueId {
        ValueId(raw)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A pointer parameter: a named buffer of `len` elements of type `elem_ty`.
///
/// Parameters model the `restrict` pointer arguments of the paper's kernels;
/// distinct parameters never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Human-readable name (used by the printer).
    pub name: String,
    /// Element type of the buffer.
    pub elem_ty: Type,
    /// Number of elements.
    pub len: usize,
}

/// A single-basic-block function over buffer parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Buffer parameters.
    pub params: Vec<Param>,
    /// Instructions in program order.
    pub insts: Vec<Inst>,
}

impl Function {
    /// An empty function with the given name.
    pub fn new(name: impl Into<String>) -> Function {
        Function { name: name.into(), params: Vec::new(), insts: Vec::new() }
    }

    /// The instruction defining `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn inst(&self, v: ValueId) -> &Inst {
        &self.insts[v.index()]
    }

    /// The result type of `v`.
    pub fn ty(&self, v: ValueId) -> Type {
        self.inst(v).ty
    }

    /// Append an instruction and return its value.
    pub fn push(&mut self, inst: Inst) -> ValueId {
        let id = ValueId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Iterate over `(ValueId, &Inst)` in program order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Inst)> {
        self.insts.iter().enumerate().map(|(i, inst)| (ValueId(i as u32), inst))
    }

    /// All value ids, in program order.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> {
        (0..self.insts.len() as u32).map(ValueId)
    }

    /// Ids of all store instructions, in program order.
    pub fn stores(&self) -> Vec<ValueId> {
        self.iter()
            .filter(|(_, i)| matches!(i.kind, InstKind::Store { .. }))
            .map(|(v, _)| v)
            .collect()
    }

    /// For each value, the list of instructions that use it.
    pub fn users(&self) -> Vec<Vec<ValueId>> {
        let mut users = vec![Vec::new(); self.insts.len()];
        for (v, inst) in self.iter() {
            for op in inst.operands() {
                users[op.index()].push(v);
            }
        }
        users
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::print_function(self, f)
    }
}

#[cfg(test)]
mod tests {

    use crate::builder::FunctionBuilder;
    use crate::types::Type;

    #[test]
    fn push_returns_sequential_ids() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        let f = b.finish();
        assert_eq!(f.insts.len(), 2);
    }

    #[test]
    fn stores_and_users() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let s = b.add(x, x);
        b.store(p, 1, s);
        let f = b.finish();
        assert_eq!(f.stores().len(), 1);
        let users = f.users();
        // One entry per use site: add(x, x) uses x twice.
        assert_eq!(users[x.index()], vec![s, s]);
        assert_eq!(users[s.index()].len(), 1);
    }

    #[test]
    fn users_counts_one_entry_per_use_site() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let y = b.load(p, 1);
        let s1 = b.add(x, y);
        let s2 = b.mul(x, y);
        b.store(p, 2, s1);
        b.store(p, 3, s2);
        let f = b.finish();
        let users = f.users();
        assert_eq!(users[x.index()].len(), 2);
        assert_eq!(users[y.index()].len(), 2);
    }
}
