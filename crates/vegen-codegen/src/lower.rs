//! Lowering pack sets to vector programs.

use std::collections::{HashMap, HashSet};
use std::fmt;
use vegen_core::{Pack, PackSet, SetPackId, VectorizerCtx};
use vegen_ir::{Function, InstKind, ValueId};
use vegen_vm::{LaneSrc, Reg, ScalarOp, VmInst, VmProgram};

/// Why lowering a pack set (or scalar function) to a VM program failed.
///
/// A legal pack set produced by the selection phase never trips these —
/// they exist so a corrupted or adversarial pack set surfaces as a typed
/// error on the pipeline path instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A selected pack's lanes do not agree on operands.
    IncoherentOperands {
        /// Debug rendering of the offending pack.
        pack: String,
    },
    /// The pack set has a dependence cycle and cannot be scheduled.
    Unschedulable {
        /// Units successfully ordered before the cycle.
        ordered: usize,
        /// Total schedulable units.
        total: usize,
    },
    /// A scalar value was requested before any unit produced it.
    ValueNotEmitted {
        /// The value in question.
        value: String,
    },
    /// An operand vector mixes element types across lanes.
    MixedElementTypes,
    /// A scalar instruction references an operand with no register.
    MissingOperand {
        /// The undefined operand.
        value: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::IncoherentOperands { pack } => {
                write!(f, "pack has incoherent operands: {pack}")
            }
            LowerError::Unschedulable { ordered, total } => {
                write!(f, "pack set is not schedulable ({ordered} of {total} units ordered)")
            }
            LowerError::ValueNotEmitted { value } => {
                write!(f, "scalar value {value} requested before its unit was emitted")
            }
            LowerError::MixedElementTypes => {
                write!(f, "operand lanes do not share an element type")
            }
            LowerError::MissingOperand { value } => {
                write!(f, "scalar operand {value} has no defining register")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// A schedulable unit: one pack or one scalar instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Unit {
    Pack(SetPackId),
    Scalar(ValueId),
}

struct Lowering<'c, 'a> {
    ctx: &'c VectorizerCtx<'a>,
    packs: &'c PackSet,
    /// Which pack lane produces each value.
    vector_home: HashMap<ValueId, (SetPackId, usize)>,
    /// Scalar instructions that must be emitted.
    need_scalar: HashSet<ValueId>,
    prog: VmProgram,
    pack_reg: HashMap<SetPackId, Reg>,
    scalar_reg: HashMap<ValueId, Reg>,
    extract_reg: HashMap<(SetPackId, usize), Reg>,
    operand_reg: HashMap<Vec<Option<ValueId>>, Reg>,
}

/// Lower `packs` over the context's function into a vector program.
///
/// # Panics
///
/// Panics if the pack set is not schedulable (a legal pack set always is;
/// the selection phase enforces legality). Use [`try_lower`] on the
/// pipeline path to get a typed [`LowerError`] instead.
pub fn lower(ctx: &VectorizerCtx<'_>, packs: &PackSet) -> VmProgram {
    try_lower(ctx, packs).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`lower`]: a malformed pack set becomes a
/// [`LowerError`] instead of a panic.
pub fn try_lower(ctx: &VectorizerCtx<'_>, packs: &PackSet) -> Result<VmProgram, LowerError> {
    let f = ctx.f;
    let mut vector_home = HashMap::new();
    for (id, p) in packs.iter() {
        for (lane, v) in p.lane_values().enumerate() {
            if let Some(v) = v {
                vector_home.insert(v, (id, lane));
            }
        }
    }

    // Which scalar instructions must be emitted: scalar stores plus every
    // pack-operand lane not produced by a pack, closed over operands.
    let mut need_scalar: HashSet<ValueId> = HashSet::new();
    let mut work: Vec<ValueId> = Vec::new();
    for st in f.stores() {
        if !vector_home.contains_key(&st) {
            work.push(st);
        }
    }
    for (_, p) in packs.iter() {
        let operands = ctx
            .pack_operands(p)
            .ok_or_else(|| LowerError::IncoherentOperands { pack: format!("{p:?}") })?;
        for x in operands {
            for v in x.defined() {
                if !vector_home.contains_key(&v) && !matches!(f.inst(v).kind, InstKind::Const(_)) {
                    work.push(v);
                }
            }
        }
    }
    while let Some(v) = work.pop() {
        if !need_scalar.insert(v) {
            continue;
        }
        for o in f.inst(v).operands() {
            if vector_home.contains_key(&o) || matches!(f.inst(o).kind, InstKind::Const(_)) {
                continue;
            }
            work.push(o);
        }
    }

    let mut lowering = Lowering {
        ctx,
        packs,
        vector_home,
        need_scalar,
        prog: VmProgram::new(f.name.clone(), f.params.clone()),
        pack_reg: HashMap::new(),
        scalar_reg: HashMap::new(),
        extract_reg: HashMap::new(),
        operand_reg: HashMap::new(),
    };
    let order = lowering.schedule()?;
    for unit in order {
        lowering.emit_unit(unit)?;
    }
    Ok(lowering.prog)
}

impl<'c, 'a> Lowering<'c, 'a> {
    fn unit_of(&self, v: ValueId) -> Option<Unit> {
        if let Some((p, _)) = self.vector_home.get(&v) {
            return Some(Unit::Pack(*p));
        }
        if self.need_scalar.contains(&v) {
            return Some(Unit::Scalar(v));
        }
        None
    }

    /// The units a unit depends on, walking through non-unit (matched
    /// interior / constant) values.
    fn unit_deps(&self, u: Unit) -> Vec<Unit> {
        let owned: Vec<ValueId> = match u {
            Unit::Pack(p) => self.packs.get(p).defined().collect(),
            Unit::Scalar(v) => vec![v],
        };
        let mut out: Vec<Unit> = Vec::new();
        let mut seen: HashSet<ValueId> = HashSet::new();
        let mut stack: Vec<ValueId> = Vec::new();
        for v in &owned {
            stack.extend(self.ctx.deps.direct_deps(*v).iter().copied());
        }
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            if owned.contains(&v) {
                continue;
            }
            match self.unit_of(v) {
                Some(du) if du != u => out.push(du),
                Some(_) => {}
                None => stack.extend(self.ctx.deps.direct_deps(v).iter().copied()),
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Topological order of the units (Kahn's algorithm, stable by
    /// original program position — the §4.5 scheduling step).
    fn schedule(&self) -> Result<Vec<Unit>, LowerError> {
        let mut units: Vec<Unit> = self.packs.iter().map(|(id, _)| Unit::Pack(id)).collect();
        units.extend(self.need_scalar.iter().map(|&v| Unit::Scalar(v)));
        // Stable ordering key: the earliest original index a unit touches.
        let key = |u: &Unit| -> usize {
            match u {
                Unit::Pack(p) => {
                    self.packs.get(*p).defined().map(|v| v.index()).min().unwrap_or(usize::MAX)
                }
                Unit::Scalar(v) => v.index(),
            }
        };
        units.sort_by_key(key);
        let index: HashMap<Unit, usize> = units.iter().enumerate().map(|(i, u)| (*u, i)).collect();
        let mut indegree = vec![0usize; units.len()];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
        for (i, u) in units.iter().enumerate() {
            for d in self.unit_deps(*u) {
                let di = index[&d];
                succs[di].push(i);
                indegree[i] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..units.len()).filter(|&i| indegree[i] == 0).collect();
        ready.sort();
        let mut order = Vec::with_capacity(units.len());
        while let Some(i) = ready.pop() {
            order.push(units[i]);
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
            // Keep determinism: smallest index first.
            ready.sort_by(|a, b| b.cmp(a));
        }
        if order.len() != units.len() {
            return Err(LowerError::Unschedulable { ordered: order.len(), total: units.len() });
        }
        Ok(order)
    }

    /// Scalar register holding `v`, emitting a constant, extraction, or
    /// (already-emitted) scalar value.
    fn scalar_value_reg(&mut self, v: ValueId) -> Result<Reg, LowerError> {
        if let Some(&r) = self.scalar_reg.get(&v) {
            return Ok(r);
        }
        if let InstKind::Const(c) = self.ctx.f.inst(v).kind {
            let dst = self.prog.fresh_reg();
            self.prog.push(VmInst::Scalar { dst, op: ScalarOp::Const(c) });
            self.scalar_reg.insert(v, dst);
            return Ok(dst);
        }
        if let Some(&(p, lane)) = self.vector_home.get(&v) {
            if let Some(&r) = self.extract_reg.get(&(p, lane)) {
                return Ok(r);
            }
            let src = *self
                .pack_reg
                .get(&p)
                .ok_or_else(|| LowerError::ValueNotEmitted { value: v.to_string() })?;
            let dst = self.prog.fresh_reg();
            self.prog.push(VmInst::Extract { dst, src, lane });
            self.extract_reg.insert((p, lane), dst);
            return Ok(dst);
        }
        Err(LowerError::ValueNotEmitted { value: v.to_string() })
    }

    /// Vector register for operand `x`: a pack that produces it exactly, or
    /// a `Build` gathering its lanes (§4.5's swizzle emission).
    fn operand_vector_reg(&mut self, x: &vegen_core::OperandVec) -> Result<Reg, LowerError> {
        if let Some(&r) = self.operand_reg.get(x.lanes()) {
            return Ok(r);
        }
        // Exact production by an emitted pack?
        for (id, p) in self.packs.iter() {
            if self.pack_reg.contains_key(&id) && x.produced_by(&p.values()) {
                let r = self.pack_reg[&id];
                self.operand_reg.insert(x.lanes().to_vec(), r);
                return Ok(r);
            }
        }
        let f = self.ctx.f;
        let elem = self.ctx.operand_type(x).ok_or(LowerError::MixedElementTypes)?;
        let mut lanes: Vec<LaneSrc> = Vec::with_capacity(x.lanes().len());
        for l in x.lanes() {
            lanes.push(match l {
                None => LaneSrc::Undef,
                Some(v) => {
                    if let InstKind::Const(c) = f.inst(*v).kind {
                        LaneSrc::Const(c)
                    } else if let Some(&(p, lane)) = self.vector_home.get(v) {
                        let src = *self
                            .pack_reg
                            .get(&p)
                            .ok_or_else(|| LowerError::ValueNotEmitted { value: v.to_string() })?;
                        LaneSrc::FromVec { src, lane }
                    } else {
                        let src = *self
                            .scalar_reg
                            .get(v)
                            .ok_or_else(|| LowerError::ValueNotEmitted { value: v.to_string() })?;
                        LaneSrc::FromScalar(src)
                    }
                }
            });
        }
        let dst = self.prog.fresh_reg();
        self.prog.push(VmInst::Build { dst, elem, lanes });
        self.operand_reg.insert(x.lanes().to_vec(), dst);
        Ok(dst)
    }

    fn emit_unit(&mut self, u: Unit) -> Result<(), LowerError> {
        match u {
            Unit::Scalar(v) => self.emit_scalar(v),
            Unit::Pack(id) => self.emit_pack(id),
        }
    }

    fn emit_scalar(&mut self, v: ValueId) -> Result<(), LowerError> {
        let f = self.ctx.f;
        let inst = f.inst(v).clone();
        let op = match &inst.kind {
            InstKind::Const(c) => ScalarOp::Const(*c),
            InstKind::Bin { op, lhs, rhs } => ScalarOp::Bin {
                op: *op,
                lhs: self.scalar_value_reg(*lhs)?,
                rhs: self.scalar_value_reg(*rhs)?,
            },
            InstKind::FNeg { arg } => ScalarOp::FNeg { arg: self.scalar_value_reg(*arg)? },
            InstKind::Cast { op, arg } => {
                ScalarOp::Cast { op: *op, to: inst.ty, arg: self.scalar_value_reg(*arg)? }
            }
            InstKind::Cmp { pred, lhs, rhs } => ScalarOp::Cmp {
                pred: *pred,
                lhs: self.scalar_value_reg(*lhs)?,
                rhs: self.scalar_value_reg(*rhs)?,
            },
            InstKind::Select { cond, on_true, on_false } => ScalarOp::Select {
                cond: self.scalar_value_reg(*cond)?,
                on_true: self.scalar_value_reg(*on_true)?,
                on_false: self.scalar_value_reg(*on_false)?,
            },
            InstKind::Load { loc } => {
                let dst = self.prog.fresh_reg();
                self.prog.push(VmInst::LoadScalar { dst, base: loc.base, offset: loc.offset });
                self.scalar_reg.insert(v, dst);
                return Ok(());
            }
            InstKind::Store { loc, value } => {
                let src = self.scalar_value_reg(*value)?;
                self.prog.push(VmInst::StoreScalar { base: loc.base, offset: loc.offset, src });
                return Ok(());
            }
        };
        let dst = self.prog.fresh_reg();
        self.prog.push(VmInst::Scalar { dst, op });
        self.scalar_reg.insert(v, dst);
        Ok(())
    }

    fn emit_pack(&mut self, id: SetPackId) -> Result<(), LowerError> {
        let pack = self.packs.get(id).clone();
        match &pack {
            Pack::Load { base, start, loads, elem } => {
                let dst = self.prog.fresh_reg();
                self.prog.push(VmInst::VecLoad {
                    dst,
                    base: *base,
                    start: *start,
                    lanes: loads.len(),
                    elem: *elem,
                });
                self.pack_reg.insert(id, dst);
            }
            Pack::Store { base, start, values, .. } => {
                let x = vegen_core::OperandVec::from_values(values.clone());
                let src = self.operand_vector_reg(&x)?;
                self.prog.push(VmInst::VecStore { base: *base, start: *start, src });
                self.pack_reg.insert(id, src);
            }
            Pack::Compute { inst, .. } => {
                let operands = self
                    .ctx
                    .pack_operands(&pack)
                    .ok_or_else(|| LowerError::IncoherentOperands { pack: format!("{pack:?}") })?;
                let di = &self.ctx.desc.insts[*inst];
                let mut args: Vec<Reg> = Vec::with_capacity(operands.len());
                for (i, x) in operands.iter().enumerate() {
                    if x.defined_count() == 0 {
                        // Entirely don't-care operand (every matched
                        // lane ignores this input): any value works.
                        let elem = di.def.sem.inputs[i].elem;
                        let dst = self.prog.fresh_reg();
                        self.prog.push(VmInst::Build {
                            dst,
                            elem,
                            lanes: vec![LaneSrc::Undef; x.len()],
                        });
                        args.push(dst);
                    } else {
                        args.push(self.operand_vector_reg(x)?);
                    }
                }
                let sem = self.prog.intern_sem(&di.def.sem, &di.def.asm, di.def.cost);
                let dst = self.prog.fresh_reg();
                self.prog.push(VmInst::VecOp { dst, sem, args });
                self.pack_reg.insert(id, dst);
            }
        }
        Ok(())
    }
}

/// Lower a scalar function 1:1 into a (vector-free) VM program — the
/// "scalar build" every experiment compares against.
///
/// # Panics
///
/// Panics on a malformed function (an operand used before definition).
/// Use [`try_lower_scalar`] on the pipeline path instead.
pub fn lower_scalar(f: &Function) -> VmProgram {
    try_lower_scalar(f).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`lower_scalar`].
pub fn try_lower_scalar(f: &Function) -> Result<VmProgram, LowerError> {
    let mut prog = VmProgram::new(f.name.clone(), f.params.clone());
    let mut regs: HashMap<ValueId, Reg> = HashMap::new();
    for (v, inst) in f.iter() {
        let r = |regs: &HashMap<ValueId, Reg>, x: ValueId| -> Result<Reg, LowerError> {
            regs.get(&x).copied().ok_or_else(|| LowerError::MissingOperand { value: x.to_string() })
        };
        match &inst.kind {
            InstKind::Load { loc } => {
                let dst = prog.fresh_reg();
                prog.push(VmInst::LoadScalar { dst, base: loc.base, offset: loc.offset });
                regs.insert(v, dst);
            }
            InstKind::Store { loc, value } => {
                prog.push(VmInst::StoreScalar {
                    base: loc.base,
                    offset: loc.offset,
                    src: r(&regs, *value)?,
                });
            }
            other => {
                let op = match other {
                    InstKind::Const(c) => ScalarOp::Const(*c),
                    InstKind::Bin { op, lhs, rhs } => {
                        ScalarOp::Bin { op: *op, lhs: r(&regs, *lhs)?, rhs: r(&regs, *rhs)? }
                    }
                    InstKind::FNeg { arg } => ScalarOp::FNeg { arg: r(&regs, *arg)? },
                    InstKind::Cast { op, arg } => {
                        ScalarOp::Cast { op: *op, to: inst.ty, arg: r(&regs, *arg)? }
                    }
                    InstKind::Cmp { pred, lhs, rhs } => {
                        ScalarOp::Cmp { pred: *pred, lhs: r(&regs, *lhs)?, rhs: r(&regs, *rhs)? }
                    }
                    InstKind::Select { cond, on_true, on_false } => ScalarOp::Select {
                        cond: r(&regs, *cond)?,
                        on_true: r(&regs, *on_true)?,
                        on_false: r(&regs, *on_false)?,
                    },
                    InstKind::Load { .. } | InstKind::Store { .. } => unreachable!(),
                };
                let dst = prog.fresh_reg();
                prog.push(VmInst::Scalar { dst, op });
                regs.insert(v, dst);
            }
        }
    }
    Ok(prog)
}
