//! Vector packs (§4.4): tuples of a target instruction and the matches
//! packed into its output lanes, plus the two special memory pack kinds.

use crate::operand::OperandVec;
use vegen_ir::{Type, ValueId};
use vegen_match::Match;

/// A vector pack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pack {
    /// A compute pack `(v, [m1, ..., mk])`: instruction `inst` (an index
    /// into the target description) with one optional match per output
    /// lane (`None` = the lane's output is unused).
    Compute {
        /// Index into `TargetDesc::insts`.
        inst: usize,
        /// One match per output lane.
        matches: Vec<Option<PackedMatch>>,
    },
    /// A contiguous vector load: `base[start .. start + lanes)`.
    Load {
        /// Parameter index of the buffer.
        base: usize,
        /// First element offset.
        start: i64,
        /// The load instructions covered, lane by lane (`None` where the
        /// lane is loaded but unused — a don't-care lane of the consumer).
        loads: Vec<Option<ValueId>>,
        /// Element type.
        elem: Type,
    },
    /// A contiguous vector store: `base[start ..)` of the values stored by
    /// `stores` (every lane defined).
    Store {
        /// Parameter index of the buffer.
        base: usize,
        /// First element offset.
        start: i64,
        /// The store instructions covered, in lane order.
        stores: Vec<ValueId>,
        /// The values stored, in lane order.
        values: Vec<ValueId>,
        /// Element type.
        elem: Type,
    },
}

/// A match embedded in a pack. Equality on `(op, root, live_ins)` mirrors
/// [`vegen_match::Match`]; this copy exists so packs are hashable. The hash
/// covers `(op, root)` only: a match table holds one match per
/// `(root, op)`, so the rest never tells two packed matches apart and
/// interning a pack need not walk every `live_ins`/`covered` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMatch {
    /// Operation id in the registry.
    pub op: vegen_match::OpId,
    /// Live-out.
    pub root: ValueId,
    /// Live-ins in parameter order (`None` = don't-care parameter).
    pub live_ins: Vec<Option<ValueId>>,
    /// Matched interior instructions (root included) — dead-code candidates
    /// once the pack is selected.
    pub covered: Vec<ValueId>,
}

impl std::hash::Hash for PackedMatch {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.op.hash(state);
        self.root.hash(state);
    }
}

impl From<Match> for PackedMatch {
    fn from(m: Match) -> PackedMatch {
        PackedMatch { op: m.op, root: m.root, live_ins: m.live_ins, covered: m.covered }
    }
}

impl Pack {
    /// `values(p)`: the IR values this pack produces, lane by lane.
    /// Store packs "produce" their store instructions (used for dependence
    /// and scheduling).
    ///
    /// `None` marks a don't-care lane and keeps its *position* — the
    /// returned vector always has [`Pack::lanes`] entries. Positional
    /// don't-cares are load-bearing: `vegen_analysis::legality` checks
    /// per-lane independence and don't-care placement against exactly
    /// this layout.
    pub fn values(&self) -> Vec<Option<ValueId>> {
        self.lane_values().collect()
    }

    /// [`Pack::values`] as a non-allocating iterator, in lane order.
    pub fn lane_values(&self) -> impl Iterator<Item = Option<ValueId>> + '_ {
        (0..self.lanes()).map(move |lane| match self {
            Pack::Compute { matches, .. } => matches[lane].as_ref().map(|m| m.root),
            Pack::Load { loads, .. } => loads[lane],
            Pack::Store { stores, .. } => Some(stores[lane]),
        })
    }

    /// The defined produced values, in lane order, without allocating.
    pub fn defined(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.lane_values().flatten()
    }

    /// The defined produced values.
    pub fn defined_values(&self) -> Vec<ValueId> {
        self.defined().collect()
    }

    /// Number of output lanes.
    pub fn lanes(&self) -> usize {
        match self {
            Pack::Compute { matches, .. } => matches.len(),
            Pack::Load { loads, .. } => loads.len(),
            Pack::Store { stores, .. } => stores.len(),
        }
    }

    /// True for store packs.
    pub fn is_store(&self) -> bool {
        matches!(self, Pack::Store { .. })
    }

    /// True for load packs.
    pub fn is_load(&self) -> bool {
        matches!(self, Pack::Load { .. })
    }

    /// The operand vectors this pack consumes, as lane-value lists.
    /// Compute operands come from the lane-binding tables (see
    /// [`crate::ctx::VectorizerCtx::pack_operands`], which performs the
    /// consistency check); this method is only valid for store packs.
    pub fn store_operand(&self) -> Option<OperandVec> {
        match self {
            Pack::Store { values, .. } => Some(OperandVec::from_values(values.clone())),
            _ => None,
        }
    }
}

/// An id of a pack inside a [`PackSet`] (the selection *output*; distinct
/// from the context-level arena handle [`crate::intern::PackId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetPackId(pub usize);

/// A deduplicated, insertion-ordered set of packs — the vectorizer's
/// output.
#[derive(Debug, Clone, Default)]
pub struct PackSet {
    packs: Vec<Pack>,
}

impl PackSet {
    /// An empty set.
    pub fn new() -> PackSet {
        PackSet::default()
    }

    /// Insert a pack, returning its id (existing id if already present).
    pub fn insert(&mut self, p: Pack) -> SetPackId {
        if let Some(i) = self.packs.iter().position(|q| *q == p) {
            return SetPackId(i);
        }
        self.packs.push(p);
        SetPackId(self.packs.len() - 1)
    }

    /// The pack with the given id.
    pub fn get(&self, id: SetPackId) -> &Pack {
        &self.packs[id.0]
    }

    /// Iterate `(SetPackId, &Pack)`.
    pub fn iter(&self) -> impl Iterator<Item = (SetPackId, &Pack)> {
        self.packs.iter().enumerate().map(|(i, p)| (SetPackId(i), p))
    }

    /// Number of packs.
    pub fn len(&self) -> usize {
        self.packs.len()
    }

    /// True if there are no packs.
    pub fn is_empty(&self) -> bool {
        self.packs.is_empty()
    }

    /// Which pack (if any) produces `v` as one of its lanes, and at which
    /// lane index.
    pub fn producer_of(&self, v: ValueId) -> Option<(SetPackId, usize)> {
        for (id, p) in self.iter() {
            if let Some(lane) = p.lane_values().position(|l| l == Some(v)) {
                return Some((id, lane));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId::from_raw(i)
    }

    #[test]
    fn store_pack_values_and_operand() {
        let p = Pack::Store {
            base: 0,
            start: 4,
            stores: vec![v(10), v(11)],
            values: vec![v(2), v(3)],
            elem: Type::I32,
        };
        assert_eq!(p.values(), vec![Some(v(10)), Some(v(11))]);
        assert_eq!(p.store_operand().unwrap(), OperandVec::from_values([v(2), v(3)]));
        assert!(p.is_store());
        assert_eq!(p.lanes(), 2);
    }

    #[test]
    fn values_keeps_dont_care_lane_positions() {
        let m = |root: u32| PackedMatch {
            op: vegen_match::OpId(0),
            root: v(root),
            live_ins: vec![],
            covered: vec![v(root)],
        };
        let p = Pack::Compute { inst: 3, matches: vec![Some(m(5)), None, Some(m(7))] };
        assert_eq!(p.values(), vec![Some(v(5)), None, Some(v(7))]);
        assert_eq!(p.lanes(), 3);
        assert_eq!(p.defined_values(), vec![v(5), v(7)]);
        let l = Pack::Load { base: 0, start: 0, loads: vec![None, Some(v(1))], elem: Type::I32 };
        assert_eq!(l.values(), vec![None, Some(v(1))]);
        assert_eq!(l.lanes(), 2);
    }

    #[test]
    fn packset_dedupes() {
        let mut s = PackSet::new();
        let p =
            Pack::Load { base: 0, start: 0, loads: vec![Some(v(0)), Some(v(1))], elem: Type::I16 };
        let a = s.insert(p.clone());
        let b = s.insert(p);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn producer_lookup() {
        let mut s = PackSet::new();
        s.insert(Pack::Load {
            base: 0,
            start: 0,
            loads: vec![Some(v(0)), None, Some(v(2))],
            elem: Type::I8,
        });
        assert_eq!(s.producer_of(v(2)), Some((SetPackId(0), 2)));
        assert_eq!(s.producer_of(v(1)), None);
    }
}
