//! The candidate arena of pack selection.
//!
//! The beam search (Fig. 9) and the `costSLP` DP (Fig. 7) revisit the same
//! vector operands and candidate packs thousands of times per kernel, so
//! both work on handles into one [`Arena`]:
//!
//! * [`OperandId`] / [`PackId`] — operands and packs are hash-consed, then
//!   compared, hashed, and stored as `u32`s instead of heap-allocated
//!   vectors;
//! * per operand, its Algorithm-1 producers, covering load packs and
//!   opcode-group subvectors; per pack, its operands and cached lane data
//!   ([`PackData`]) — each enumerated once, so the search never re-derives
//!   a lane binding.
//!
//! An arena is filled once, by `FrozenCtx::freeze` — seed operands first,
//! then a packs-then-operands ascending sweep to the fixpoint
//! ([`Arena::close`]) — and only read afterwards. The sweep *pushes* the
//! lists of the id it passes, so every list vector is exactly as long as
//! the swept prefix of its arena and a finished arena has no unpopulated
//! entry to check for.
//!
//! Note: [`PackId`] here is the arena handle; the selection *output* keeps
//! its own insertion-ordered [`crate::pack::SetPackId`].

use crate::ctx::VectorizerCtx;
use crate::operand::OperandVec;
use crate::pack::Pack;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use vegen_ir::ValueId;

/// Handle of an interned [`OperandVec`] in an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperandId(pub u32);

/// Handle of an interned [`Pack`] in an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackId(pub u32);

/// Lane data of an interned pack, computed once at interning time so the
/// search never re-allocates `values()` / `defined_values()` per visit.
#[derive(Debug)]
pub struct PackData {
    /// `values(p)`: produced IR values, lane by lane.
    pub values: Vec<Option<ValueId>>,
    /// The defined produced values.
    pub defined: Vec<ValueId>,
}

/// What the sweep enumerates for one operand.
#[derive(Debug)]
pub(crate) struct Candidates {
    /// Algorithm-1 producers.
    pub(crate) producers: Vec<PackId>,
    /// Load packs covering the operand's (jumbled) load lanes.
    pub(crate) covering: Vec<PackId>,
    /// Per-opcode subvectors of a mixed-opcode operand.
    pub(crate) groups: Vec<OperandId>,
}

/// Hash-consed operands and packs plus the candidate lists per id.
///
/// Operands and packs are `Arc`s only so each is stored once between its
/// arena slot and its id-map key; beam states hold plain ids.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    operands: Vec<Arc<OperandVec>>,
    operand_ids: HashMap<Arc<OperandVec>, OperandId>,
    packs: Vec<Arc<Pack>>,
    pack_ids: HashMap<Arc<Pack>, PackId>,
    /// By [`PackId`], pushed when the pack is interned.
    pack_data: Vec<PackData>,
    /// By [`OperandId`], one entry per swept operand.
    candidates: Vec<Candidates>,
    /// By [`PackId`], one entry per swept pack (`None` = the lane bindings
    /// conflict).
    pack_operands: Vec<Option<Vec<OperandId>>>,
    /// Lists enumerated ahead of the sweep and taken when it reaches their
    /// id: the producers of seed operands, and the operands of every pack
    /// Algorithm 1 yielded (it derives them to check feasibility), queued
    /// in interning order, which is ascending id order — the sweep's.
    seeded: HashMap<OperandId, Vec<PackId>>,
    bound: VecDeque<(PackId, Vec<OperandId>)>,
    /// Sweep requests for an operand whose producers were already
    /// enumerated (a seed), and Algorithm-1 enumerations.
    producer_hits: u64,
    producer_misses: u64,
}

impl Arena {
    /// Intern `x`, returning its stable id (same operand → same id).
    pub(crate) fn intern_operand(&mut self, x: &OperandVec) -> OperandId {
        if let Some(&id) = self.operand_ids.get(x) {
            return id;
        }
        let id = OperandId(self.operands.len() as u32);
        let rc = Arc::new(x.clone());
        self.operands.push(rc.clone());
        self.operand_ids.insert(rc, id);
        id
    }

    /// Intern `p`, returning its stable id (same pack → same id).
    pub(crate) fn intern_pack(&mut self, p: Pack) -> PackId {
        if let Some(&id) = self.pack_ids.get(&p) {
            return id;
        }
        let id = PackId(self.packs.len() as u32);
        let values = p.values();
        let defined = values.iter().copied().flatten().collect();
        let rc = Arc::new(p);
        self.packs.push(rc.clone());
        self.pack_data.push(PackData { values, defined });
        self.pack_ids.insert(rc, id);
        id
    }

    /// Run Algorithm 1 on `x`, interning every producer pack and, at a
    /// pack's first sighting, the operands its lane bindings derived (they
    /// are a function of the pack, so a pack seen before has them bound).
    fn enumerate_producers(&mut self, ctx: &VectorizerCtx<'_>, x: &OperandVec) -> Vec<PackId> {
        self.producer_misses += 1;
        let mut ids = Vec::new();
        for (pack, operands) in ctx.producers(x) {
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

    /// Intern the seed operand `x` and enumerate its producers now, ahead
    /// of the sweep (which takes the list over when it reaches `x`).
    pub(crate) fn seed_producers(&mut self, ctx: &VectorizerCtx<'_>, x: &OperandVec) -> &[PackId] {
        let id = self.intern_operand(x);
        let producers = self.enumerate_producers(ctx, x);
        self.seeded.entry(id).or_insert(producers)
    }

    /// Sweep to the fixpoint: every interned pack gets its operands bound,
    /// every interned operand its producers, covering loads and opcode
    /// groups enumerated (and interned, in that order) — packs before
    /// operands, each in ascending id order, until both arenas stop
    /// growing. `poll` runs after every id and may abort the sweep.
    pub(crate) fn close<E>(
        &mut self,
        ctx: &VectorizerCtx<'_>,
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let swept = (self.pack_operands.len(), self.candidates.len());
            while let Some(pack) = self.packs.get(self.pack_operands.len()).cloned() {
                let id = PackId(self.pack_operands.len() as u32);
                let operands = if self.bound.front().is_some_and(|(bound, _)| *bound == id) {
                    self.bound.pop_front().map(|(_, operands)| operands)
                } else {
                    ctx.pack_operands(&pack)
                        .map(|operands| operands.iter().map(|o| self.intern_operand(o)).collect())
                };
                self.pack_operands.push(operands);
                poll()?;
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
                    ctx.covering_load_packs(&x).into_iter().map(|p| self.intern_pack(p)).collect();
                let groups = ctx
                    .opcode_group_subvectors(&x)
                    .iter()
                    .map(|g| self.intern_operand(g))
                    .collect();
                self.candidates.push(Candidates { producers, covering, groups });
                poll()?;
            }
            if swept == (self.pack_operands.len(), self.candidates.len()) {
                return Ok(());
            }
        }
    }

    /// The id of `x`, if it is interned.
    pub(crate) fn operand_id(&self, x: &OperandVec) -> Option<OperandId> {
        self.operand_ids.get(x).copied()
    }

    pub(crate) fn operand(&self, id: OperandId) -> &OperandVec {
        &self.operands[id.0 as usize]
    }

    pub(crate) fn operand_count(&self) -> usize {
        self.operands.len()
    }

    pub(crate) fn pack(&self, id: PackId) -> &Pack {
        &self.packs[id.0 as usize]
    }

    /// Every interned pack with its lane data, in id order.
    pub(crate) fn packs(&self) -> impl Iterator<Item = (&Pack, &PackData)> {
        self.packs.iter().map(|p| &**p).zip(&self.pack_data)
    }

    pub(crate) fn pack_count(&self) -> usize {
        self.packs.len()
    }

    pub(crate) fn pack_data(&self, id: PackId) -> &PackData {
        &self.pack_data[id.0 as usize]
    }

    pub(crate) fn candidates(&self, id: OperandId) -> &Candidates {
        &self.candidates[id.0 as usize]
    }

    /// The operands of pack `id`: `None` if its lane bindings conflict.
    pub(crate) fn pack_operands(&self, id: PackId) -> Option<&[OperandId]> {
        self.pack_operands[id.0 as usize].as_deref()
    }

    /// `(hits, misses)` of the producer enumeration that filled this arena.
    pub(crate) fn producer_lookups(&self) -> (u64, u64) {
        (self.producer_hits, self.producer_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::testutil::{avx2_desc, dot_kernel, stored_values};
    use vegen_ir::Type;

    fn v(i: u32) -> ValueId {
        ValueId::from_raw(i)
    }

    #[test]
    fn operand_round_trip_and_dedup() {
        let mut arena = Arena::default();
        let a = OperandVec::from_values([v(1), v(2)]);
        let b = OperandVec::new(vec![Some(v(1)), None, Some(v(3))]);
        let ia = arena.intern_operand(&a);
        let ib = arena.intern_operand(&b);
        assert_ne!(ia, ib);
        // Round trip: resolve returns the interned operand.
        assert_eq!(*arena.operand(ia), a);
        assert_eq!(*arena.operand(ib), b);
        // Dedup: the same operand (a fresh allocation) maps to the same id.
        assert_eq!(arena.intern_operand(&OperandVec::from_values([v(1), v(2)])), ia);
        assert_eq!(arena.operand_id(&a), Some(ia));
        assert_eq!(arena.operand_count(), 2);
    }

    #[test]
    fn pack_round_trip_dedup_and_lane_data() {
        let mut arena = Arena::default();
        let p = Pack::Load { base: 0, start: 0, loads: vec![Some(v(4)), None], elem: Type::I32 };
        let id = arena.intern_pack(p.clone());
        assert_eq!(arena.intern_pack(p.clone()), id, "same pack must dedup to one id");
        assert_eq!(*arena.pack(id), p);
        let data = arena.pack_data(id);
        assert_eq!(data.values, vec![Some(v(4)), None]);
        assert_eq!(data.defined, vec![v(4)]);
        assert_eq!(arena.pack_count(), 1);
    }

    #[test]
    fn sweep_enumerates_each_operand_once_and_hits_on_a_seed() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut arena = Arena::default();
        let x = OperandVec::from_values(stored_values(&f));
        let seeded = arena.seed_producers(&ctx, &x).to_vec();
        assert!(!seeded.is_empty());
        assert_eq!(arena.producer_lookups(), (0, 1));
        let polled = arena.close(&ctx, || Ok::<(), ()>(()));
        assert_eq!(polled, Ok(()));
        // The sweep took the seed's list over instead of enumerating again,
        // and enumerated every other operand exactly once.
        let id = arena.operand_id(&x).unwrap();
        assert_eq!(arena.candidates(id).producers, seeded);
        assert_eq!(arena.producer_lookups(), (1, arena.operand_count() as u64));
        assert_eq!(arena.candidates.len(), arena.operand_count());
        assert_eq!(arena.pack_operands.len(), arena.pack_count());
        assert!(arena.seeded.is_empty() && arena.bound.is_empty());
    }
}
