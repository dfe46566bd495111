//! The candidate arena of pack selection.
//!
//! The beam search (Fig. 9) and the `costSLP` DP (Fig. 7) revisit the same
//! vector operands and candidate packs thousands of times per kernel, so
//! both work on handles into one [`Arena`]:
//!
//! * [`OperandId`] / [`PackId`] — operands and packs are hash-consed, then
//!   compared, hashed, and stored as `u32`s instead of heap-allocated
//!   vectors;
//! * a compute pack is a handle pair, not a copy: Algorithm 1 finds it for
//!   an operand `x` as an instruction whose lane `i` computes `x[i]`
//!   through the match table's `(x[i], lane_ops[i])`, so `(inst, x)` is
//!   its key, `x`'s lanes are its lane values, and its matches stay in the
//!   table — `FrozenCtx` materializes a [`Pack`] only where one leaves the
//!   search (see `crate::frozen`);
//! * per operand, its Algorithm-1 producers, covering load packs and
//!   opcode-group subvectors; per pack, its operands — each enumerated
//!   once, so the search never re-derives a lane binding, and each kept
//!   in a flat column rather than a vector of its own.
//!
//! An arena is filled once, by `FrozenCtx::freeze` — seed operands first,
//! then a packs-then-operands ascending sweep to the fixpoint
//! ([`Arena::close`]) — and only read afterwards. The sweep *pushes* the
//! candidate lists of the operand it passes, so the list index is exactly
//! as long as the swept prefix of the operands and a finished arena has no
//! unpopulated entry to check for.
//!
//! Note: [`PackId`] here is the arena handle; the selection *output* keeps
//! its own insertion-ordered [`crate::pack::SetPackId`].

use crate::ctx::{LoadWindow, Producer, VectorizerCtx};
use crate::operand::OperandVec;
use crate::pack::Pack;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use vegen_ir::ValueId;

/// Handle of an interned [`OperandVec`] in an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperandId(pub u32);

/// Handle of an interned pack in an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackId(pub u32);

/// The hasher of the freeze's maps: FxHash's rotate-xor-multiply, a word
/// at a time. Keys are ids and lanes the freeze made itself, never
/// adversarial, and interning hashes every operand it is offered.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// A map keyed by ids (see [`IdHasher`]).
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A range of one of the arena's flat list columns.
#[derive(Debug, Clone, Copy)]
struct Span {
    from: u32,
    to: u32,
}

impl Span {
    fn of<T>(self, column: &[T]) -> &[T] {
        &column[self.from as usize..self.to as usize]
    }
}

/// What a [`PackId`] stands for.
#[derive(Debug)]
enum Slot {
    /// Instruction `inst` producing operand `out` lane for lane; its
    /// operands are `operand_lists[operands]`.
    Compute { inst: u32, out: OperandId, operands: Span },
    /// A load or store pack with its lane values `memory_lanes[lanes]`
    /// and, once swept, a store pack's operand.
    Memory { pack: Arc<Pack>, lanes: Span, operand: Option<OperandId> },
}

/// An interned pack, as the arena holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PackRef<'a> {
    /// Instruction `inst` with lane `i` holding the match table's
    /// `(out[i], lane_ops[i])`.
    Compute { inst: usize, out: &'a OperandVec },
    /// A load or store pack.
    Memory(&'a Pack),
}

/// What the sweep enumerates for one operand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidates<'a> {
    /// Algorithm-1 producers.
    pub(crate) producers: &'a [PackId],
    /// Load packs covering the operand's (jumbled) load lanes.
    pub(crate) covering: &'a [PackId],
    /// Per-opcode subvectors of a mixed-opcode operand.
    pub(crate) groups: &'a [OperandId],
}

/// [`Candidates`] as spans of the candidate columns.
#[derive(Debug, Clone, Copy)]
struct CandidateSpans {
    producers: Span,
    covering: Span,
    groups: Span,
}

/// Hash-consed operands and packs plus the candidate lists per id.
///
/// Operands and memory packs are `Arc`s only so each is stored once
/// between its arena slot and its id-map key; beam states hold plain ids.
/// Every list lives in a flat column, addressed by a [`Span`].
#[derive(Debug, Default)]
pub(crate) struct Arena {
    operands: Vec<Arc<OperandVec>>,
    operand_ids: IdMap<Arc<OperandVec>, OperandId>,
    /// By [`PackId`].
    slots: Vec<Slot>,
    compute_ids: IdMap<(u32, OperandId), PackId>,
    memory_ids: IdMap<Arc<Pack>, PackId>,
    memory_lanes: Vec<Option<ValueId>>,
    operand_lists: Vec<OperandId>,
    /// Every covering window met so far and its pack (`None`: the program
    /// loads nothing inside it).
    windows: IdMap<LoadWindow, Option<PackId>>,
    /// By [`OperandId`], one entry per swept operand, into
    /// `candidate_packs` and `candidate_groups`.
    candidates: Vec<CandidateSpans>,
    candidate_packs: Vec<PackId>,
    candidate_groups: Vec<OperandId>,
    /// How many packs the sweep has passed.
    packs_swept: usize,
    /// The producers of seed operands, enumerated ahead of the sweep and
    /// taken over when it reaches their id.
    seeded: IdMap<OperandId, Span>,
    /// Sweep requests for an operand whose producers were already
    /// enumerated (a seed), and Algorithm-1 enumerations.
    producer_hits: u64,
    producer_misses: u64,
}

impl Arena {
    /// Intern `x`, returning its stable id (same operand → same id).
    pub(crate) fn intern_operand(&mut self, x: OperandVec) -> OperandId {
        if let Some(&id) = self.operand_ids.get(&x) {
            return id;
        }
        let id = OperandId(self.operands.len() as u32);
        let rc = Arc::new(x);
        self.operands.push(rc.clone());
        self.operand_ids.insert(rc, id);
        id
    }

    /// Intern the load or store pack `p`, returning its stable id (same
    /// pack → same id).
    pub(crate) fn intern_memory(&mut self, p: Pack) -> PackId {
        debug_assert!(!matches!(p, Pack::Compute { .. }), "compute packs are interned by key");
        if let Some(&id) = self.memory_ids.get(&p) {
            return id;
        }
        let id = PackId(self.slots.len() as u32);
        let from = self.memory_lanes.len() as u32;
        self.memory_lanes.extend(p.lane_values());
        let lanes = Span { from, to: self.memory_lanes.len() as u32 };
        let rc = Arc::new(p);
        self.slots.push(Slot::Memory { pack: rc.clone(), lanes, operand: None });
        self.memory_ids.insert(rc, id);
        id
    }

    /// Intern the compute pack `(inst, out)` and, at its first sighting,
    /// the operands its lane bindings derive.
    fn intern_compute(&mut self, inst: usize, out: OperandId, operands: Vec<OperandVec>) -> PackId {
        let next = PackId(self.slots.len() as u32);
        let id = *self.compute_ids.entry((inst as u32, out)).or_insert(next);
        if id == next {
            let from = self.operand_lists.len() as u32;
            for x in operands {
                let oid = self.intern_operand(x);
                self.operand_lists.push(oid);
            }
            let operands = Span { from, to: self.operand_lists.len() as u32 };
            self.slots.push(Slot::Compute { inst: inst as u32, out, operands });
        }
        id
    }

    /// The pack of covering window `w`, built at its first sighting only.
    fn intern_window(&mut self, ctx: &VectorizerCtx<'_>, w: LoadWindow) -> Option<PackId> {
        if let Some(&id) = self.windows.get(&w) {
            return id;
        }
        let id = ctx.window_pack(w).map(|p| self.intern_memory(p));
        self.windows.insert(w, id);
        id
    }

    /// Run Algorithm 1 on operand `id`, appending every producer pack to
    /// the candidate column and, at a compute pack's first sighting,
    /// interning the operands its lane bindings derived (they are a
    /// function of the pack, so a pack seen before has them bound).
    fn enumerate_producers(&mut self, ctx: &VectorizerCtx<'_>, id: OperandId) -> Span {
        self.producer_misses += 1;
        let x = self.operands[id.0 as usize].clone();
        let from = self.candidate_packs.len() as u32;
        for producer in ctx.producers(&x) {
            let pid = match producer {
                Producer::Compute { inst, operands } => self.intern_compute(inst, id, operands),
                Producer::Load(p) => self.intern_memory(p),
            };
            self.candidate_packs.push(pid);
        }
        Span { from, to: self.candidate_packs.len() as u32 }
    }

    /// Intern the seed operand `x` and enumerate its producers now, ahead
    /// of the sweep (which takes the list over when it reaches `x`).
    pub(crate) fn seed_producers(&mut self, ctx: &VectorizerCtx<'_>, x: OperandVec) -> &[PackId] {
        let id = self.intern_operand(x);
        let producers = self.enumerate_producers(ctx, id);
        self.seeded.entry(id).or_insert(producers).of(&self.candidate_packs)
    }

    /// Sweep to the fixpoint: every interned pack gets its operands bound,
    /// every interned operand its producers, covering loads and opcode
    /// groups enumerated (and interned, in that order) — packs before
    /// operands, each in ascending id order, until both arenas stop
    /// growing. `poll` runs after every id and may abort the sweep.
    ///
    /// A compute pack's operands were bound when Algorithm 1 yielded it, a
    /// load pack has none, so only a store pack's operand is interned
    /// here.
    pub(crate) fn close<E>(
        &mut self,
        ctx: &VectorizerCtx<'_>,
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let swept = (self.packs_swept, self.candidates.len());
            while self.packs_swept < self.slots.len() {
                if let Slot::Memory { pack, .. } = &self.slots[self.packs_swept] {
                    if let Some(x) = pack.store_operand() {
                        let id = self.intern_operand(x);
                        if let Slot::Memory { operand, .. } = &mut self.slots[self.packs_swept] {
                            *operand = Some(id);
                        }
                    }
                }
                self.packs_swept += 1;
                poll()?;
            }
            while let Some(x) = self.operands.get(self.candidates.len()).cloned() {
                let id = OperandId(self.candidates.len() as u32);
                let producers = match self.seeded.remove(&id) {
                    Some(producers) => {
                        self.producer_hits += 1;
                        producers
                    }
                    None => self.enumerate_producers(ctx, id),
                };
                let from = self.candidate_packs.len() as u32;
                for w in ctx.covering_windows(&x) {
                    if let Some(pid) = self.intern_window(ctx, w) {
                        self.candidate_packs.push(pid);
                    }
                }
                let covering = Span { from, to: self.candidate_packs.len() as u32 };
                let from = self.candidate_groups.len() as u32;
                for g in ctx.opcode_group_subvectors(&x) {
                    let gid = self.intern_operand(g);
                    self.candidate_groups.push(gid);
                }
                let groups = Span { from, to: self.candidate_groups.len() as u32 };
                self.candidates.push(CandidateSpans { producers, covering, groups });
                poll()?;
            }
            if swept == (self.packs_swept, self.candidates.len()) {
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

    pub(crate) fn pack(&self, id: PackId) -> PackRef<'_> {
        match &self.slots[id.0 as usize] {
            Slot::Compute { inst, out, .. } => {
                PackRef::Compute { inst: *inst as usize, out: self.operand(*out) }
            }
            Slot::Memory { pack, .. } => PackRef::Memory(pack),
        }
    }

    pub(crate) fn pack_count(&self) -> usize {
        self.slots.len()
    }

    /// `values(p)`: the IR values pack `id` produces, lane by lane.
    pub(crate) fn values(&self, id: PackId) -> &[Option<ValueId>] {
        match &self.slots[id.0 as usize] {
            Slot::Compute { out, .. } => self.operand(*out).lanes(),
            Slot::Memory { lanes, .. } => lanes.of(&self.memory_lanes),
        }
    }

    /// The values pack `id` defines, in lane order.
    pub(crate) fn defined(&self, id: PackId) -> impl Iterator<Item = ValueId> + '_ {
        self.values(id).iter().flatten().copied()
    }

    pub(crate) fn is_store(&self, id: PackId) -> bool {
        matches!(self.pack(id), PackRef::Memory(p) if p.is_store())
    }

    pub(crate) fn candidates(&self, id: OperandId) -> Candidates<'_> {
        let spans = self.candidates[id.0 as usize];
        Candidates {
            producers: spans.producers.of(&self.candidate_packs),
            covering: spans.covering.of(&self.candidate_packs),
            groups: spans.groups.of(&self.candidate_groups),
        }
    }

    /// The operands of pack `id` (every interned pack's lane bindings
    /// agree: Algorithm 1 yields no other).
    pub(crate) fn pack_operands(&self, id: PackId) -> &[OperandId] {
        match &self.slots[id.0 as usize] {
            Slot::Compute { operands, .. } => operands.of(&self.operand_lists),
            Slot::Memory { operand, .. } => operand.as_slice(),
        }
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
        let ia = arena.intern_operand(a.clone());
        let ib = arena.intern_operand(b.clone());
        assert_ne!(ia, ib);
        // Round trip: resolve returns the interned operand.
        assert_eq!(*arena.operand(ia), a);
        assert_eq!(*arena.operand(ib), b);
        // Dedup: the same operand (a fresh allocation) maps to the same id.
        assert_eq!(arena.intern_operand(OperandVec::from_values([v(1), v(2)])), ia);
        assert_eq!(arena.operand_id(&a), Some(ia));
        assert_eq!(arena.operand_count(), 2);
    }

    #[test]
    fn memory_pack_round_trip_dedup_and_lane_data() {
        let mut arena = Arena::default();
        let p = Pack::Load { base: 0, start: 0, loads: vec![Some(v(4)), None], elem: Type::I32 };
        let id = arena.intern_memory(p.clone());
        assert_eq!(arena.intern_memory(p.clone()), id, "same pack must dedup to one id");
        assert!(matches!(arena.pack(id), PackRef::Memory(q) if *q == p));
        assert_eq!(arena.values(id), [Some(v(4)), None]);
        assert_eq!(arena.defined(id).collect::<Vec<_>>(), [v(4)]);
        assert_eq!(arena.pack_count(), 1);
    }

    #[test]
    fn compute_pack_is_its_instruction_and_operand() {
        let mut arena = Arena::default();
        let x = arena.intern_operand(OperandVec::new(vec![Some(v(7)), None, Some(v(9))]));
        let y = arena.intern_operand(OperandVec::from_values([v(7), v(8), v(9)]));
        let id = arena.intern_compute(3, x, vec![OperandVec::from_values([v(1)])]);
        assert_eq!(arena.intern_compute(3, x, Vec::new()), id, "same key must dedup to one id");
        assert_ne!(arena.intern_compute(4, x, Vec::new()), id);
        assert_ne!(arena.intern_compute(3, y, Vec::new()), id);
        // The operands bound at the first sighting stay.
        let bound = arena.operand_id(&OperandVec::from_values([v(1)])).unwrap();
        assert_eq!(arena.pack_operands(id), [bound]);
        // The lane data is the operand's, not a copy of it.
        assert!(std::ptr::eq(arena.values(id), arena.operand(x).lanes()));
        assert_eq!(arena.defined(id).collect::<Vec<_>>(), [v(7), v(9)]);
        assert!(matches!(arena.pack(id), PackRef::Compute { inst: 3, .. }));
    }

    #[test]
    fn sweep_enumerates_each_operand_once_and_hits_on_a_seed() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut arena = Arena::default();
        let x = OperandVec::from_values(stored_values(&f));
        let seeded = arena.seed_producers(&ctx, x.clone()).to_vec();
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
        assert_eq!(arena.packs_swept, arena.pack_count());
        assert!(arena.seeded.is_empty());
    }
}
