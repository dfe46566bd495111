//! Beam search over (V, S, F) states — the Fig. 9 recurrence, explored
//! greedily with a bounded frontier (§5.2).
//!
//! A state tracks the vector operands still to produce (`V`), the scalar
//! values still to produce (`S`, initially the basic block's stores), and
//! the undecided ("free") instructions (`F`). Transitions either apply a
//! pack (a producer of some `v ∈ V`, a store-chain pack, or an
//! affinity-enumerated seed pack) or fix one instruction as scalar, with
//! the transition costs of Fig. 9 (`costop`, `costextract`, `costshuffle`,
//! `costinsert`). Candidates are ranked by `g + Σ costSLP(v) + Σ
//! costscalar(s)` — the paper's state-evaluation function — and the beam
//! keeps the best `k`. Beam width 1 is exactly the SLP heuristic.
//!
//! Instructions interior to a selected match whose every user is decided
//! become dead ("some machine operations replace multiple IR instructions
//! and turn the intermediate instructions into dead code").
//!
//! ## Search-state representation
//!
//! The hot path works entirely on interned ids (see [`crate::intern`]):
//!
//! * `F`, `S`, the ready set `R` and the per-value producer table live in
//!   one flat word buffer per state, laid out `[free | S | ready | prod]`
//!   (see `State`), so a successor is one buffer copy; `F`, `S` and `R`
//!   are bitsets by value index — ascending-bit iteration is ascending
//!   `ValueId` order — and `prod` packs one 32-bit lane per value;
//! * `R` is the free values whose users are all decided, kept current by
//!   `State::decide`, so every readiness test of a transition is one
//!   bit and the dead sweep visits only the values a transition made
//!   ready;
//! * `V` is a sorted vector of plain `Copy` members, each an
//!   [`OperandId`] with its content rank (computed once by
//!   [`FrozenCtx`]), so iteration order stays the operand-lexicographic
//!   order the search has always used;
//! * the pack path is a persistent cons list of [`PackId`]s shared between
//!   a state and its successors, so a transition is O(1) instead of
//!   cloning the whole path;
//! * the (F, V, S) identity is maintained as an incrementally-updated
//!   128-bit XOR hash — applying a transition folds the changed elements
//!   in and out. Deduplication indexes the pool by that hash (one map
//!   entry per distinct hash, a side chain for true collisions) and a full
//!   key comparison arbitrates every hash match (collisions are counted in
//!   [`BeamStats::hash_collisions`]).
//!
//! ## Score every successor, build only the survivors
//!
//! Most successors are pruned in the iteration that creates them, so an
//! iteration has two steps. Expansion applies each transition into one
//! reused scratch state and records a `Scored` successor: its parent's
//! frontier position, the action, `g`, the hash, the path length, and its
//! `[F words | S words | V members]` key in one flat per-iteration key
//! buffer. Dedup, the estimate, the top-k ranking and the decision log all
//! read those records and keys. Only the `width` survivors become
//! `State`s, each built by re-applying its action to its parent — so a
//! pruned successor costs no allocation at all.
//!
//! ## Parallel search
//!
//! The search runs over an immutable [`FrozenCtx`] snapshot (see
//! [`crate::frozen`]): freezing enumerates every candidate up front, so
//! expansion never interns and workers share the snapshot by reference.
//! Each iteration's frontier is split into contiguous chunks, one per
//! worker; workers score their chunk's successors into their own record
//! and key buffers and hand the chunk back with them, and the main thread
//! concatenates the buffers *in chunk order* before the
//! (order-preserving) dedup, the total-order top-k selection, and the
//! build of the survivors — so selections are byte-identical at any
//! thread count, including every f64 accumulation order. Completion
//! estimates (`costSLP`) stay on the main thread, memoized per operand in
//! [`FrozenSlp`], which is reusable across searches via
//! [`SelectionReuse`]. A successor's estimate is a sum of memo reads and
//! is recomputed every time — there is no per-state estimate table,
//! because a table lookup costs more than the sum it would save.

use crate::bits::{bit, clear_bit, ones, set_bit};
use crate::ctx::VectorizerCtx;
use crate::frozen::{FrozenCtx, FrozenSlp};
use crate::intern::{OperandId, PackId};
use crate::operand::OperandVec;
use crate::pack::{Pack, PackSet};
use crate::seeds::AffinityParams;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vegen_ir::ValueId;

/// A shared cooperative cancellation flag, checked at every beam
/// iteration boundary and between states inside a parallel fan-out.
/// Cloning shares the flag; cancelling any clone cancels the search that
/// polls it.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the searcher's
    /// next poll (per state within an iteration).
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CancelToken({})", self.is_cancelled())
    }
}

/// Resource budgets for one `select_packs` call.
///
/// Budgets never change a *successful* selection — exhausting one turns
/// the whole call into a [`SelectError`] instead of silently truncating
/// the search; the caller decides how to degrade (retry narrower, fall
/// back to scalar). That invariant is why budgets are excluded from
/// content-addressed compilation caching.
#[derive(Debug, Clone, Default)]
pub struct SearchBudget {
    /// Cap on successor states generated across the whole search
    /// (deterministic: independent of wall clock and machine speed).
    pub max_steps: Option<u64>,
    /// Wall-clock budget, checked at iteration boundaries and between
    /// states inside a fan-out.
    pub wall: Option<Duration>,
    /// External cooperative cancellation.
    pub cancel: Option<CancelToken>,
}

impl SearchBudget {
    /// No limits (the default).
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }
}

/// Why a budgeted search stopped before reaching a terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The transition budget ([`SearchBudget::max_steps`]) ran out.
    StepBudget {
        /// Transitions generated when the search stopped.
        steps: u64,
        /// The configured cap.
        limit: u64,
    },
    /// The wall-clock budget ([`SearchBudget::wall`]) ran out.
    Deadline {
        /// The configured budget.
        budget: Duration,
        /// Wall time actually spent when the check fired.
        elapsed: Duration,
    },
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::StepBudget { steps, limit } => {
                write!(f, "step budget exhausted ({steps} transitions, limit {limit})")
            }
            SelectError::Deadline { budget, elapsed } => {
                write!(f, "wall budget exceeded ({elapsed:?} spent of {budget:?})")
            }
            SelectError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl std::error::Error for SelectError {}

/// Configuration for pack selection.
#[derive(Debug, Clone)]
pub struct BeamConfig {
    /// Beam width `k` (1 = the SLP heuristic; the paper evaluates 1, 64,
    /// and 128).
    pub width: usize,
    /// Seed-enumeration parameters (Fig. 8).
    pub seeds: AffinityParams,
    /// Include affinity seeds (store chains are always included).
    pub use_affinity_seeds: bool,
    /// Cap on transitions expanded per state per iteration.
    pub max_transitions: usize,
    /// Hard iteration cap (defaults to a multiple of the function size).
    pub max_iters: Option<usize>,
    /// Record a per-iteration [`DecisionLog`] (kept and pruned candidates
    /// with their score breakdowns, plus the committed pack sequence) in
    /// the [`SelectionResult`]. Observation only: the search explores and
    /// ranks identically with logging on or off.
    pub log_decisions: bool,
    /// Worker threads for the per-iteration frontier fan-out. `0` (the
    /// default) resolves to the machine's available parallelism. Never
    /// affects the selection — only wall time — so it is excluded from
    /// content-addressed caching.
    pub beam_threads: usize,
    /// Step/wall/cancellation budgets. Unlimited by default; when a limit
    /// trips, `select_packs` returns a [`SelectError`] instead of a
    /// truncated selection.
    pub budget: SearchBudget,
}

impl Default for BeamConfig {
    fn default() -> BeamConfig {
        BeamConfig {
            width: 64,
            seeds: AffinityParams::default(),
            use_affinity_seeds: true,
            max_transitions: 256,
            max_iters: None,
            log_decisions: false,
            beam_threads: 0,
            budget: SearchBudget::default(),
        }
    }
}

impl BeamConfig {
    /// The SLP-heuristic configuration (beam width 1).
    pub fn slp() -> BeamConfig {
        BeamConfig { width: 1, ..BeamConfig::default() }
    }

    /// A named beam width.
    pub fn with_width(width: usize) -> BeamConfig {
        BeamConfig { width, ..BeamConfig::default() }
    }
}

/// Search-effort and cache statistics for one `select_packs` call.
///
/// Producer-cache counters are those of the freeze this call ran (under
/// snapshot reuse both are zero, since a reused search enumerates
/// nothing); arena sizes are the frozen snapshot's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BeamStats {
    /// States popped from the beam and expanded.
    pub states_expanded: usize,
    /// Successor states generated across all expansions.
    pub transitions: u64,
    /// Pooled states merged into an already-seen (F, V, S) state.
    pub dedup_hits: u64,
    /// Distinct states whose 128-bit hashes collided (resolved by the
    /// full-key comparison).
    pub hash_collisions: u64,
    /// Freeze requests for an operand whose producers were already
    /// enumerated (an affinity seed the sweep came back to).
    pub producer_cache_hits: u64,
    /// Algorithm-1 enumerations (one per distinct operand).
    pub producer_cache_misses: u64,
    /// Distinct operands in the frozen snapshot backing this call.
    pub interned_operands: usize,
    /// Distinct packs in the frozen snapshot backing this call.
    pub interned_packs: usize,
    /// Wall time spent inside `select_packs`.
    pub beam_wall: Duration,
    /// Resolved worker-thread count for this call (see
    /// [`BeamConfig::beam_threads`]).
    pub workers: usize,
    /// Iterations whose frontier was fanned across more than one worker.
    pub fanouts: u64,
    /// Always 0: the search keeps no per-state estimate table (an estimate
    /// is a sum of `costSLP` memo reads, cheaper than any lookup). The
    /// field remains because cache entries and the perf harness carry it.
    pub tt_hits: u64,
    /// Always 0; see [`BeamStats::tt_hits`].
    pub tt_misses: u64,
    /// Wall time spent concatenating and deduplicating worker buffers on
    /// the main thread.
    pub merge_wall: Duration,
    /// Wall time spent freezing the context snapshot (near zero when a
    /// snapshot was reused).
    pub freeze_wall: Duration,
    /// Whether this call was served by an already-frozen snapshot from a
    /// [`SelectionReuse`].
    pub frozen_reused: bool,
}

/// Feed one search's [`BeamStats`] into the process-lifetime metrics
/// registry. Called once per `select_packs` call (not per iteration), so
/// the registry lookups are off the search hot path.
fn record_search_metrics(stats: &BeamStats) {
    use vegen_trace::metrics;
    metrics::counter("beam_states_expanded_total").add(stats.states_expanded as u64);
    metrics::counter("beam_transitions_total").add(stats.transitions);
    metrics::counter("beam_fanouts_total").add(stats.fanouts);
    if stats.frozen_reused {
        metrics::counter("beam_frozen_reuses_total").inc();
    }
    metrics::histogram("beam_select_us").record_duration(stats.beam_wall);
    metrics::histogram("beam_freeze_us").record_duration(stats.freeze_wall);
    metrics::histogram("beam_merge_us").record_duration(stats.merge_wall);
}

/// The outcome of pack selection.
#[derive(Debug, Clone, Default)]
pub struct SelectionResult {
    /// The selected packs.
    pub packs: PackSet,
    /// Estimated cost of the vectorized block (the winning state's `g`).
    pub vector_cost: f64,
    /// Estimated cost of the all-scalar block.
    pub scalar_cost: f64,
    /// Number of states expanded (search-effort statistic).
    pub states_expanded: usize,
    /// Detailed search statistics.
    pub stats: BeamStats,
    /// Per-iteration decision log ([`BeamConfig::log_decisions`] only).
    pub decisions: Option<DecisionLog>,
}

/// Why the beam kept (or pruned) each candidate, iteration by iteration —
/// the evidence behind a selection, surfaced by `vegen-engine explain`.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    /// One entry per beam iteration.
    pub iterations: Vec<IterationLog>,
    /// The winning state's pack sequence, in commit order.
    pub committed: Vec<CommittedPack>,
}

/// One beam iteration: frontier and pool sizes plus the top candidates
/// around the keep/prune boundary.
#[derive(Debug, Clone)]
pub struct IterationLog {
    /// Iteration number (0-based).
    pub index: usize,
    /// Frontier size entering the iteration.
    pub beam_in: usize,
    /// Raw successor pool (carried terminals included).
    pub pool: usize,
    /// Pool size after (F, V, S) deduplication.
    pub deduped: usize,
    /// Frontier size after truncation to the beam width.
    pub kept: usize,
    /// The best-ranked kept candidates followed by the best-ranked pruned
    /// candidates (capped; see `MAX_LOGGED_CANDIDATES`).
    pub candidates: Vec<CandidateLog>,
}

/// One ranked candidate state: the transition that created it and its
/// Fig. 9 score breakdown (`score = g + est`).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateLog {
    /// Human-readable transition: `"pack <desc>"`, `"scalar v<n>"`, or
    /// `"init"` for the search root. A terminal state carried over from the
    /// frontier shows the transition that made it.
    pub action: String,
    /// Path cost so far (`g`).
    pub g: f64,
    /// Completion estimate (`Σ costSLP(v) + Σ costscalar(s)`).
    pub est: f64,
    /// Ranking score (`g + est`).
    pub score: f64,
    /// Packs committed on the state's path.
    pub packs: usize,
    /// Whether the candidate survived truncation.
    pub kept: bool,
}

/// One pack on the winning path.
#[derive(Debug, Clone)]
pub struct CommittedPack {
    /// Position in the commit sequence (0-based).
    pub step: usize,
    /// Human-readable pack description.
    pub pack: String,
    /// The pack's own cost (`costop`).
    pub cost: f64,
}

/// Per-iteration cap on logged candidates on each side of the keep/prune
/// boundary — enough to see why the boundary fell where it did without
/// letting wide beams balloon the log.
const MAX_LOGGED_CANDIDATES: usize = 8;

/// Render a pack for decision logs and `explain` output; `inst_name`
/// resolves an index into the target description's instructions.
pub fn describe_pack<'n>(inst_name: impl Fn(usize) -> &'n str, pack: &Pack) -> String {
    match pack {
        Pack::Compute { inst, matches } => {
            describe_compute(inst_name(*inst), matches.iter().map(|m| m.as_ref().map(|m| m.root)))
        }
        Pack::Load { base, start, loads, .. } => {
            format!("vload p{}[{}..{})", base, start, *start + loads.len() as i64)
        }
        Pack::Store { base, start, stores, .. } => {
            format!("vstore p{}[{}..{})", base, start, *start + stores.len() as i64)
        }
    }
}

/// [`describe_pack`] of a compute pack: its instruction and lane roots.
pub(crate) fn describe_compute(name: &str, roots: impl Iterator<Item = Option<ValueId>>) -> String {
    let lanes: Vec<String> =
        roots.map(|r| r.map_or("_".to_string(), |r| format!("v{}", r.index()))).collect();
    format!("{name}[{}]", lanes.join(" "))
}

/// The transition that produced a state. Only the search root is `Init`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Action {
    #[default]
    Init,
    Pack(PackId),
    Scalar(ValueId),
}

/// How a decided value was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prod {
    Free,
    Scalar,
    /// Produced by pack `i` on the state's path.
    Pack(u16),
    /// Produced by pack `i` and already extract-charged.
    PackX(u16),
    /// Interior of a match: dead, never materialized.
    Dead,
}

impl Prod {
    /// The 32-bit lane stored in a state's `prod` region: a variant tag in
    /// the high half, the full `u16` path index in the low half. `Free` is
    /// lane 0, so a zeroed region is the search root's table.
    fn to_lane(self) -> u32 {
        match self {
            Prod::Free => 0,
            Prod::Scalar => 1 << 16,
            Prod::Pack(i) => 2 << 16 | i as u32,
            Prod::PackX(i) => 3 << 16 | i as u32,
            Prod::Dead => 4 << 16,
        }
    }

    fn from_lane(lane: u32) -> Prod {
        let i = lane as u16;
        match lane >> 16 {
            0 => Prod::Free,
            1 => Prod::Scalar,
            2 => Prod::Pack(i),
            3 => Prod::PackX(i),
            4 => Prod::Dead,
            tag => unreachable!("corrupt prod lane tag {tag}"),
        }
    }
}

/// A requested vector operand: its content rank, then its interned id.
/// Ordered by rank, so `vset` iterates in the same lexicographic order as
/// the pre-interning `BTreeSet<OperandVec>` (the order of floating-point
/// cost accumulation depends on it); ranks are distinct, so equality is
/// id equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct VOp {
    rank: u32,
    id: OperandId,
}

impl VOp {
    fn new(fz: &FrozenCtx, id: OperandId) -> VOp {
        VOp { rank: fz.operand_rank(id), id }
    }

    /// The member's word in a successor key: the rank in the high half,
    /// so comparing words compares members.
    fn key_word(self) -> u64 {
        (self.rank as u64) << 32 | self.id.0 as u64
    }

    fn id_of_key_word(word: u64) -> OperandId {
        OperandId(word as u32)
    }
}

/// Persistent pack path: a cons list shared between a state and its
/// successors, so applying a pack is O(1).
struct PackNode {
    pack: PackId,
    prev: Option<Arc<PackNode>>,
    /// Path length up to and including this node.
    len: u16,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mix one element of a state component into 128 bits. The state hash is
/// the XOR of these over every decided instruction, `S` member, and `V`
/// member — XOR is commutative and self-inverse, so the hash is a
/// path-independent function of the (F, V, S) sets and each insert/remove
/// is O(1).
fn mix128(tag: u64, x: u64) -> u128 {
    let a = splitmix64(tag ^ x);
    let b = splitmix64(a ^ 0xD1B5_4A32_D192_ED03);
    ((a as u128) << 64) | b as u128
}

// Component tags must differ in their high bits: element indices are
// < 2^32, so `tag ^ x` seeds from different components can never coincide
// (low-bit-only tags would alias, e.g. free-bit 3 with S-member 0).
const TAG_FREE: u64 = 0xA076_1D64_78BD_642F;
const TAG_S: u64 = 0xE703_7ED1_A0B4_28DB;
const TAG_V: u64 = 0x8EBC_6AF0_9C88_C6E3;

/// One (V, S, F) search state.
///
/// `F`, `S`, the ready set `R` and the producer table share one buffer,
/// `[free | S | ready | prod]`: `words` words each of the free, the
/// scalar-demand and the ready bitset, then one 32-bit [`Prod`] lane per
/// value, two to a word. `R` = {v ∈ F : every user of v is decided} is a
/// function of `F`, so it is not part of the state identity; it is kept
/// current by [`State::decide`]. Every transition writes all four, so a
/// successor copies them in one `memcpy` (into a reused scratch state when
/// it is scored, a fresh allocation when it is built); the accessors below
/// are the only code that knows the layout.
#[derive(Clone, Default)]
struct State {
    buf: Vec<u64>,
    /// Length of each bitset region of `buf`.
    words: u32,
    /// `V`, sorted under [`VOp`]'s order.
    vset: Vec<VOp>,
    g: f64,
    /// The pack path. A transition applied into a scratch state leaves
    /// this alone; only [`Search::build`] extends it.
    packs: Option<Arc<PackNode>>,
    /// Incremental 128-bit hash of the (F, V, S) identity.
    hash: u128,
    /// The transition that created this state (not part of the state
    /// identity).
    action: Action,
}

impl State {
    /// A state over `n` values with nothing free, nothing demanded and an
    /// all-[`Prod::Free`] producer table.
    fn zeroed(n: usize, words: usize) -> State {
        State {
            buf: vec![0; 3 * words + n.div_ceil(2)],
            words: words as u32,
            vset: Vec::new(),
            g: 0.0,
            packs: None,
            hash: 0,
            action: Action::Init,
        }
    }

    /// `F`, as a bitset by value index.
    fn free(&self) -> &[u64] {
        &self.buf[..self.words as usize]
    }

    fn free_mut(&mut self) -> &mut [u64] {
        &mut self.buf[..self.words as usize]
    }

    /// `S`, as a bitset by value index.
    fn sset(&self) -> &[u64] {
        &self.buf[self.words as usize..2 * self.words as usize]
    }

    fn sset_mut(&mut self) -> &mut [u64] {
        let w = self.words as usize;
        &mut self.buf[w..2 * w]
    }

    /// `R`, as a bitset by value index: the free values whose users are
    /// all decided.
    fn ready(&self) -> &[u64] {
        let w = self.words as usize;
        &self.buf[2 * w..3 * w]
    }

    fn ready_mut(&mut self) -> &mut [u64] {
        let w = self.words as usize;
        &mut self.buf[2 * w..3 * w]
    }

    /// The (F, S) words — the buffer-resident part of the state identity.
    fn key_words(&self) -> &[u64] {
        &self.buf[..2 * self.words as usize]
    }

    /// Append the state's (F, V, S) key, `[F words | S words | V
    /// members]`, to `out`.
    fn push_key(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.key_words());
        out.extend(self.vset.iter().map(|x| x.key_word()));
    }

    /// Overwrite everything but the pack path and the action with
    /// `parent`'s, reusing this state's buffers.
    fn copy_from(&mut self, parent: &State) {
        self.buf.clone_from(&parent.buf);
        self.words = parent.words;
        self.vset.clone_from(&parent.vset);
        self.g = parent.g;
        self.hash = parent.hash;
    }

    /// How value `v` was produced.
    fn prod(&self, v: ValueId) -> Prod {
        let i = v.index();
        let word = self.buf[3 * self.words as usize + i / 2];
        Prod::from_lane((word >> (i % 2 * 32)) as u32)
    }

    fn set_prod(&mut self, v: ValueId, p: Prod) {
        let i = v.index();
        let shift = i % 2 * 32;
        let word = &mut self.buf[3 * self.words as usize + i / 2];
        *word = *word & !(0xFFFF_FFFF << shift) | (p.to_lane() as u64) << shift;
    }

    fn is_free(&self, v: ValueId) -> bool {
        bit(self.free(), v.index())
    }

    /// Whether `v` is free with every user decided (`v ∈ R`).
    fn is_ready(&self, v: ValueId) -> bool {
        bit(self.ready(), v.index())
    }

    fn terminal(&self) -> bool {
        self.vset.is_empty() && self.sset().iter().all(|w| *w == 0)
    }

    /// `S` in ascending `ValueId` order.
    #[cfg(test)]
    fn sset_iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        ones(self.sset()).map(|i| ValueId::from_raw(i as u32))
    }

    fn clear_free(&mut self, v: ValueId) {
        clear_bit(self.free_mut(), v.index());
        self.hash ^= mix128(TAG_FREE, v.index() as u64);
    }

    /// Decide the free value `v` as produced by `p`: it leaves `F` and
    /// `R`, and each free operand whose last free user was `v` joins `R`
    /// and is pushed onto `fresh`, the dead sweep's worklist.
    fn decide(&mut self, fz: &FrozenCtx, v: ValueId, p: Prod, fresh: &mut Vec<ValueId>) {
        self.clear_free(v);
        clear_bit(self.ready_mut(), v.index());
        self.set_prod(v, p);
        for o in fz.f.inst(v).operands() {
            if self.is_free(o)
                && fz.users_decided(self.free(), o)
                && set_bit(self.ready_mut(), o.index())
            {
                fresh.push(o);
            }
        }
    }

    fn sset_insert(&mut self, v: ValueId) {
        if set_bit(self.sset_mut(), v.index()) {
            self.hash ^= mix128(TAG_S, v.index() as u64);
        }
    }

    fn sset_remove(&mut self, v: ValueId) -> bool {
        let removed = clear_bit(self.sset_mut(), v.index());
        if removed {
            self.hash ^= mix128(TAG_S, v.index() as u64);
        }
        removed
    }

    fn toggle_v_hash(&mut self, id: OperandId) {
        self.hash ^= mix128(TAG_V, id.0 as u64);
    }

    fn vset_insert(&mut self, x: VOp) {
        if let Err(at) = self.vset.binary_search(&x) {
            self.toggle_v_hash(x.id);
            self.vset.insert(at, x);
        }
    }

    fn vset_remove_at(&mut self, at: usize) {
        let x = self.vset.remove(at);
        self.toggle_v_hash(x.id);
    }

    /// Drop every requested vector whose defined lanes are all decided.
    fn vset_drop_satisfied(&mut self, fz: &FrozenCtx) {
        let mut at = 0;
        while at < self.vset.len() {
            if fz.arena.operand(self.vset[at].id).defined().all(|l| !bit(self.free(), l.index())) {
                self.vset_remove_at(at);
            } else {
                at += 1;
            }
        }
    }

    fn pack_len(&self) -> u16 {
        self.packs.as_ref().map_or(0, |n| n.len)
    }

    fn push_pack(&mut self, pack: PackId) {
        let len = self.pack_len() + 1;
        self.packs = Some(Arc::new(PackNode { pack, prev: self.packs.take(), len }));
    }

    /// Iterate the pack path, newest first.
    fn packs_iter(&self) -> impl Iterator<Item = PackId> + '_ {
        let mut node = self.packs.as_deref();
        std::iter::from_fn(move || {
            let n = node?;
            node = n.prev.as_deref();
            Some(n.pack)
        })
    }
}

/// A scored successor: everything dedup, the estimate, ranking and the
/// decision log read. Its (F, V, S) key is `keys[key..key + key_len]` of
/// the iteration's [`Pool`]; only the survivors are built into
/// [`State`]s.
#[derive(Debug, Clone, Copy)]
struct Scored {
    hash: u128,
    g: f64,
    /// The transition that makes the successor (for a carried terminal,
    /// the one that made it).
    action: Action,
    /// The parent's position in the frontier.
    parent: u32,
    key: u32,
    key_len: u32,
    /// Pack-path length.
    packs: u16,
    /// A terminal frontier state, carried over unchanged.
    carried: bool,
}

/// Successors scored in one iteration, in frontier order: one worker's
/// chunk, or the whole pool once the main thread has appended every
/// chunk's in chunk order.
#[derive(Default)]
struct Pool {
    recs: Vec<Scored>,
    /// Every record's key, `[F words | S words | V members]`, back to back.
    keys: Vec<u64>,
    /// Frontier states expanded, and the successors they produced.
    expanded: usize,
    transitions: u64,
}

impl Pool {
    fn clear(&mut self) {
        self.recs.clear();
        self.keys.clear();
        self.expanded = 0;
        self.transitions = 0;
    }

    /// Record `st`, the successor of frontier state `parent` by `action`.
    fn record(&mut self, st: &State, parent: u32, action: Action, packs: u16, carried: bool) {
        let key = self.keys.len();
        st.push_key(&mut self.keys);
        self.recs.push(Scored {
            hash: st.hash,
            g: st.g,
            action,
            parent,
            key: key as u32,
            key_len: (self.keys.len() - key) as u32,
            packs,
            carried,
        });
    }

    fn key(&self, rec: &Scored) -> &[u64] {
        &self.keys[rec.key as usize..(rec.key + rec.key_len) as usize]
    }

    /// Append a chunk's successors after this pool's.
    fn append(&mut self, chunk: Pool) {
        let base = self.keys.len() as u32;
        self.recs.extend(chunk.recs.iter().map(|r| Scored { key: r.key + base, ..*r }));
        self.keys.extend_from_slice(&chunk.keys);
        self.expanded += chunk.expanded;
        self.transitions += chunk.transitions;
    }
}

/// The deterministic (F, V, S) tie-break order on two successor keys over
/// `words`-word bitsets: free words, then the requested operands
/// lexicographically, then the scalar demands as ascending value
/// sequences — exactly the tuple order of the former materialized state
/// key.
fn key_cmp(words: usize, a: &[u64], b: &[u64]) -> Ordering {
    let w = words;
    a[..w]
        .cmp(&b[..w])
        .then_with(|| a[2 * w..].cmp(&b[2 * w..]))
        .then_with(|| ones(&a[w..2 * w]).cmp(ones(&b[w..2 * w])))
}

/// Hasher for the dedup index: a state hash is already a 128-bit mix, so
/// folding its halves is all the hashing the map needs.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the dedup index hashes u128 state hashes only");
    }

    fn write_u128(&mut self, x: u128) {
        self.0 = x as u64 ^ (x >> 64) as u64;
    }
}

/// End of a collision chain in [`Dedup`].
const CHAIN_END: u32 = u32::MAX;

/// Deduplication of identical (F, V, S) successors. The index maps each
/// incremental hash to the first output position carrying it; distinct
/// keys under one hash (a true 128-bit collision) are linked through
/// `chain`, and a key comparison arbitrates every hash match. Both live
/// across iterations, so their tables are allocated once per search.
#[derive(Default)]
struct Dedup {
    index: HashMap<u128, u32, BuildHasherDefault<FoldHasher>>,
    /// `chain[i]`: the next output position sharing `out[i]`'s hash.
    chain: Vec<u32>,
}

impl Dedup {
    /// Leave in `out` one record position per distinct key of `pool`,
    /// keeping the cheapest path (first-seen wins ties), in first-seen
    /// order — a deterministic order, unlike hash-map iteration — so every
    /// downstream consumer (estimate evaluation, ranking) sees a
    /// reproducible sequence.
    fn run(
        &mut self,
        pool: &Pool,
        out: &mut Vec<u32>,
        dedup_hits: &mut u64,
        hash_collisions: &mut u64,
    ) {
        self.index.clear();
        self.index.reserve(pool.recs.len());
        self.chain.clear();
        out.clear();
        for (i, rec) in pool.recs.iter().enumerate() {
            let mut at = match self.index.entry(rec.hash) {
                Entry::Vacant(e) => {
                    e.insert(out.len() as u32);
                    self.chain.push(CHAIN_END);
                    out.push(i as u32);
                    continue;
                }
                Entry::Occupied(e) => *e.get() as usize,
            };
            loop {
                let seen = &pool.recs[out[at] as usize];
                if pool.key(seen) == pool.key(rec) {
                    *dedup_hits += 1;
                    if rec.g < seen.g {
                        out[at] = i as u32;
                    }
                    break;
                }
                if self.chain[at] == CHAIN_END {
                    *hash_collisions += 1;
                    self.chain[at] = out.len() as u32;
                    self.chain.push(CHAIN_END);
                    out.push(i as u32);
                    break;
                }
                at = self.chain[at] as usize;
            }
        }
    }
}

/// Cross-search state carried between `select_packs_reusing` calls: the
/// frozen context snapshot and the `costSLP` memo. The degradation ladder
/// threads one of these through its rungs so a width-1 retry after a
/// budget trip pays neither the freeze nor the `costSLP` recursion again;
/// the bench reuses one across beam widths.
///
/// A snapshot is reused only when [`FrozenCtx`] deems the new call
/// compatible (same function, same seed configuration); otherwise
/// everything keyed by the stale snapshot's ids is dropped and the
/// context is re-frozen. After a *panic* caught around a search, call
/// [`SelectionReuse::reset`] — a typed [`SelectError`] leaves the reuse
/// state consistent, but an unwind may strand the `costSLP` memo's
/// in-progress marks.
#[derive(Debug, Default)]
pub struct SelectionReuse {
    frozen: Option<Arc<FrozenCtx>>,
    slp: FrozenSlp,
    frozen_reuses: u64,
}

impl SelectionReuse {
    /// Fresh reuse state (first search freezes).
    pub fn new() -> SelectionReuse {
        SelectionReuse::default()
    }

    /// How many searches were served by an already-frozen snapshot.
    pub fn frozen_reuses(&self) -> u64 {
        self.frozen_reuses
    }

    /// `costSLP(x)` (Fig. 7) under the parked snapshot, from the memo the
    /// last search ranked states with. `None` before the first search and
    /// for an operand outside the snapshot's candidate closure (the
    /// operands of store-chain packs are always inside).
    pub fn cost_slp(&mut self, x: &OperandVec) -> Option<f64> {
        let fz = self.frozen.as_deref()?;
        Some(self.slp.cost_id(fz, fz.arena.operand_id(x)?))
    }

    /// Drop the snapshot and the `costSLP` memo. Required after catching a
    /// panic out of a search; otherwise only useful to force a re-freeze.
    pub fn reset(&mut self) {
        self.frozen = None;
        self.slp.reset();
    }
}

/// Per-thread scratch buffers of the transition kernel, so scoring a
/// successor allocates nothing.
#[derive(Default)]
struct Scratch {
    /// The successor each transition is applied into.
    next: State,
    /// The dead sweep's worklist: values a transition made ready.
    fresh: Vec<ValueId>,
    /// The dead sweep's view of the lanes of `V`.
    lanes: Vec<u64>,
    /// `expand`'s seed candidates, as positions in `seed_packs`.
    seeds: Vec<u32>,
    /// `expand`'s scalar-fix candidates.
    fix: Vec<u64>,
    /// The legality check's view of the pack path and its DFS state.
    path: Vec<PackId>,
    visited: Vec<bool>,
    stack: Vec<usize>,
    /// Path positions of the packs feeding a joined operand.
    sources: Vec<u16>,
}

/// The transition engine: pure functions over the frozen snapshot, safe
/// to call from any worker thread (each with its own [`Scratch`]).
struct Search<'f> {
    fz: &'f FrozenCtx,
    cfg: BeamConfig,
}

impl<'f> Search<'f> {
    /// Charge for operand lanes of `next` that were decided before the
    /// operand was requested: free if a pack on `parent`'s path produces
    /// `x` exactly, otherwise one insertion per distinct scalar (or
    /// swept-dead) lane plus one shuffle per distinct source pack.
    fn join_cost(
        &self,
        parent: &State,
        next: &State,
        x: &OperandVec,
        scratch: &mut Scratch,
    ) -> f64 {
        let fz = self.fz;
        let decided = |v: ValueId| !next.is_free(v) && !bit(&fz.const_mask, v.index());
        if !x.defined().any(decided) {
            return 0.0;
        }
        // If an existing pack produces x exactly, joining is free.
        for pid in parent.packs_iter() {
            if x.produced_by(fz.arena.values(pid)) {
                return 0.0;
            }
        }
        let mut cost = 0.0;
        scratch.sources.clear();
        for (lane, v) in x.lanes().iter().enumerate() {
            let Some(v) = *v else { continue };
            // Each distinct decided value is charged once.
            if !decided(v) || x.lanes()[..lane].contains(&Some(v)) {
                continue;
            }
            match next.prod(v) {
                // A swept-dead value revives as a scalar at lowering time
                // (codegen re-derives scalar demands from the final packs);
                // estimate it like a scalar insertion.
                Prod::Scalar | Prod::Dead => cost += fz.cost.c_insert,
                Prod::Pack(i) | Prod::PackX(i) => scratch.sources.push(i),
                Prod::Free => unreachable!(),
            }
        }
        scratch.sources.sort_unstable();
        scratch.sources.dedup();
        cost + fz.cost.c_shuffle * scratch.sources.len() as f64
    }

    /// Whether the state's pack path stays legal with `pid` appended (see
    /// [`FrozenCtx`] for the `⇒` relation and why it is exact). The path is
    /// legal by induction, so a new cycle must pass through the new pack:
    /// walk `⇒` from it over the packs already chosen and ask whether one
    /// of them leads back. The caller has checked that every value `pid`
    /// defines is free, which rules out a value in two packs — the values
    /// of chosen packs are decided.
    fn extends_legally(&self, st: &State, pid: PackId, scratch: &mut Scratch) -> bool {
        let fz = self.fz;
        if fz.static_illegal(pid) {
            return false;
        }
        // The chosen packs, then the new one; the walk starts at the new one.
        let Scratch { path, visited, stack, .. } = scratch;
        path.clear();
        path.extend(st.packs_iter());
        path.push(pid);
        let new = path.len() - 1;
        visited.clear();
        visited.resize(path.len(), false);
        stack.clear();
        stack.push(new);
        while let Some(i) = stack.pop() {
            let dep = fz.dep_mask(path[i]);
            for (j, &q) in path.iter().enumerate() {
                // (`j == i`: dependences inside one pack are not cycles.)
                if j == i || visited[j] || !fz.defines_any(q, dep) {
                    continue;
                }
                if j == new {
                    return false;
                }
                visited[j] = true;
                stack.push(j);
            }
        }
        true
    }

    /// The from-scratch oracle for [`Self::extends_legally`].
    #[cfg(any(test, debug_assertions))]
    fn legal_from_scratch(&self, st: &State, pid: PackId) -> bool {
        let mut lanes: Vec<&[Option<ValueId>]> =
            st.packs_iter().map(|p| self.fz.arena.values(p)).collect();
        lanes.reverse();
        lanes.push(self.fz.arena.values(pid));
        crate::ctx::packs_legal(self.fz.f.insts.len(), &self.fz.deps, &lanes)
    }

    /// Transition: apply a pack to `st`, writing the successor into `next`
    /// (all of it but the pack path). Returns whether the pack applies;
    /// `next` is meaningful only if it does.
    fn apply_pack(&self, st: &State, pid: PackId, next: &mut State, scratch: &mut Scratch) -> bool {
        let fz = self.fz;
        // All produced values must be free with all users decided.
        if !fz.arena.defined(pid).all(|v| st.is_ready(v)) {
            return false;
        }
        // Legality: no contracted cycle with already-chosen packs.
        let legal = self.extends_legally(st, pid, scratch);
        #[cfg(any(test, debug_assertions))]
        {
            assert_eq!(
                legal,
                self.legal_from_scratch(st, pid),
                "incremental legality diverged from packs_legal on {}",
                fz.describe_pack(pid)
            );
            #[cfg(test)]
            tests::LEGALITY_CHECKS.with(|c| c.set(c.get() + 1));
        }
        if !legal {
            return false;
        }
        let operand_ids = fz.arena.pack_operands(pid);
        let is_store = fz.arena.is_store(pid);
        next.copy_from(st);
        next.action = Action::Pack(pid);
        let pidx = st.pack_len();
        next.g += fz.pack_cost_of(pid);
        let mut fresh = std::mem::take(&mut scratch.fresh);
        fresh.clear();

        for v in fz.arena.defined(pid) {
            // Extraction cost for values some scalar already demanded —
            // store packs are exempt (§5.2).
            let prod = if next.sset_remove(v) && !is_store {
                next.g += fz.cost.c_extract;
                Prod::PackX(pidx)
            } else {
                Prod::Pack(pidx)
            };
            next.decide(fz, v, prod, &mut fresh);
        }
        // Shuffle charge: vectors overlapping but not exactly produced.
        // Overlapping vectors whose lanes are now all decided leave V.
        let ours = |p: Prod| matches!(p, Prod::Pack(i) | Prod::PackX(i) if i == pidx);
        let mut at = 0;
        while at < next.vset.len() {
            let x = fz.arena.operand(next.vset[at].id);
            if !x.defined().any(|l| ours(next.prod(l))) {
                at += 1;
                continue;
            }
            if !x.produced_by(fz.arena.values(pid)) {
                next.g += fz.cost.c_shuffle;
            }
            if x.defined().all(|l| !bit(next.free(), l.index())) {
                next.vset_remove_at(at);
            } else {
                at += 1;
            }
        }

        // Dead-code the interiors of the matches: interior nodes whose
        // users are all decided. Interiors use each other, and a user
        // follows its operand, so one descending pass is the fixpoint.
        for &v in fz.interior(pid) {
            if next.is_ready(v) {
                next.decide(fz, v, Prod::Dead, &mut fresh);
            }
        }

        // Request the pack's operands (all-constant ones fold to constant
        // vectors).
        for &oid in operand_ids {
            let x = fz.arena.operand(oid);
            if x.defined().all(|v| bit(&fz.const_mask, v.index())) {
                continue;
            }
            next.g += self.join_cost(st, next, x, scratch);
            if x.defined().any(|l| bit(next.free(), l.index())) {
                next.vset_insert(VOp::new(fz, oid));
            }
        }

        self.sweep_dead(next, st.action == Action::Init, &mut fresh, &mut scratch.lanes);
        scratch.fresh = fresh;
        true
    }

    /// Sweep undemanded dead code: any ready value that is not requested
    /// (in S or a lane of V) will never be emitted — the "intermediate
    /// instructions become dead code" effect of replacing multiple IR
    /// instructions with one machine operation.
    ///
    /// `fresh` holds the values the transition that made `st` added to
    /// `R`, and the sweep visits only those and what killing them makes
    /// ready. That is exact: in a swept state every ready value is
    /// demanded, and a transition takes demand away from no free value
    /// (it drops from `S` and `V` only values and vectors it decides), so
    /// a ready, undemanded value of `st` is one the transition made ready.
    /// The root was never swept, so a transition from it (`from_root`)
    /// visits all of `R`. Killing is monotone, so the worklist order cannot
    /// change the least fixpoint, and the state hash is an XOR over
    /// members, so it cannot show in the hash either.
    fn sweep_dead(
        &self,
        st: &mut State,
        from_root: bool,
        fresh: &mut Vec<ValueId>,
        lanes: &mut Vec<u64>,
    ) {
        let fz = self.fz;
        #[cfg(test)]
        let reference = tests::reference_sweep(fz, st);
        if from_root {
            fresh.clear();
            fresh.extend(ones(st.ready()).map(|i| ValueId::from_raw(i as u32)));
        }
        // The lanes of `V`, gathered at the first value that needs them
        // (the sweep changes neither `V` nor `S`).
        let mut lanes_built = false;
        while let Some(v) = fresh.pop() {
            if !st.is_ready(v) || bit(st.sset(), v.index()) {
                continue;
            }
            if !lanes_built {
                lanes.clear();
                lanes.resize(fz.words, 0);
                for x in &st.vset {
                    for l in fz.arena.operand(x.id).defined() {
                        set_bit(lanes, l.index());
                    }
                }
                lanes_built = true;
            }
            if !bit(lanes, v.index()) {
                st.decide(fz, v, Prod::Dead, fresh);
            }
        }
        #[cfg(test)]
        tests::assert_same_sweep(&reference, st);
    }

    /// Transition: fix `v` as a scalar instruction of `st`, writing the
    /// successor into `next` as [`Self::apply_pack`] does.
    fn apply_scalar(
        &self,
        st: &State,
        v: ValueId,
        next: &mut State,
        scratch: &mut Scratch,
    ) -> bool {
        let fz = self.fz;
        if !st.is_ready(v) {
            return false;
        }
        let f = &fz.f;
        next.copy_from(st);
        next.action = Action::Scalar(v);
        next.g += fz.cost.scalar_inst_cost(f, v);
        // Insertion cost into every requested vector that wants v.
        for x in &next.vset {
            next.g += fz.cost.insert_one_cost(f, v, fz.arena.operand(x.id));
        }
        let mut fresh = std::mem::take(&mut scratch.fresh);
        fresh.clear();
        next.decide(fz, v, Prod::Scalar, &mut fresh);
        next.sset_remove(v);
        // Satisfied vectors leave V.
        next.vset_drop_satisfied(fz);
        // Operands become scalar demands; pack-produced operands extract.
        for o in f.inst(v).operands() {
            if bit(&fz.const_mask, o.index()) {
                continue;
            }
            if next.is_free(o) {
                next.sset_insert(o);
            } else {
                // (Dead operands revive as scalars at lowering time.)
                if let Prod::Pack(i) = next.prod(o) {
                    next.g += fz.cost.c_extract;
                    next.set_prod(o, Prod::PackX(i));
                }
            }
        }
        self.sweep_dead(next, st.action == Action::Init, &mut fresh, &mut scratch.lanes);
        scratch.fresh = fresh;
        true
    }

    /// Score every successor of frontier state `st` (at position
    /// `parent`) into `out`, at most [`BeamConfig::max_transitions`] of
    /// them.
    fn expand(&self, st: &State, parent: u32, out: &mut Pool, scratch: &mut Scratch) {
        let fz = self.fz;
        let cap = self.cfg.max_transitions;
        let mut next = std::mem::take(&mut scratch.next);
        let mut n = 0usize;
        // 1. Producers of requested vectors — exact producers plus load
        //    packs covering jumbled load operands (paid with a shuffle) —
        //    and of their opcode groups, for mixed-opcode operands (blended
        //    at a shuffle cost when they meet); 2. seed packs (store chains
        //    + affinity seeds) whose first defined lane is ready, in
        //    `seed_packs` order — no other seed pack can apply, and `n`
        //    counts successes only, so skipping them records the same
        //    successors.
        let requested = st.vset.iter().flat_map(|x| {
            let candidates = fz.arena.candidates(x.id);
            let groups = candidates.groups.iter().flat_map(|&g| fz.arena.candidates(g).producers);
            candidates.producers.iter().chain(candidates.covering).chain(groups)
        });
        let mut seeds = std::mem::take(&mut scratch.seeds);
        seeds.clear();
        for v in ones(st.ready()) {
            seeds.extend_from_slice(fz.seeds_first_at(v));
        }
        seeds.sort_unstable();
        #[cfg(test)]
        tests::assert_same_seed_candidates(fz, st, &seeds);
        let seed_packs = seeds.iter().map(|&at| &fz.seed_packs[at as usize]);
        for &pid in requested.chain(seed_packs) {
            if n >= cap {
                break;
            }
            if self.apply_pack(st, pid, &mut next, scratch) {
                out.record(&next, parent, Action::Pack(pid), st.pack_len() + 1, false);
                n += 1;
            }
        }
        scratch.seeds = seeds;
        // 3. Scalar fixes: ready values demanded by S or by requested
        //    vectors, in ascending value order.
        let mut fix = std::mem::take(&mut scratch.fix);
        fix.clear();
        fix.extend_from_slice(st.sset());
        for x in &st.vset {
            for v in fz.arena.operand(x.id).defined() {
                set_bit(&mut fix, v.index());
            }
        }
        for (f, r) in fix.iter_mut().zip(st.ready()) {
            *f &= r;
        }
        for i in ones(&fix) {
            if n >= cap {
                break;
            }
            let v = ValueId::from_raw(i as u32);
            if self.apply_scalar(st, v, &mut next, scratch) {
                out.record(&next, parent, Action::Scalar(v), st.pack_len(), false);
                n += 1;
            }
        }
        #[cfg(test)]
        tests::MOST_SUCCESSORS.with(|m| m.set(m.get().max(n)));
        scratch.fix = fix;
        scratch.next = next;
    }

    /// Build the state `rec` scored: re-apply its action to its parent in
    /// `frontier` and extend the parent's pack path (a carried terminal is
    /// its parent).
    fn build(&self, frontier: &[State], rec: &Scored, scratch: &mut Scratch) -> State {
        let parent = &frontier[rec.parent as usize];
        if rec.carried {
            return parent.clone();
        }
        #[cfg(test)]
        tests::BUILDS.with(|c| c.set(c.get() + 1));
        let mut next = State::default();
        let applied = match rec.action {
            Action::Pack(pid) => self.apply_pack(parent, pid, &mut next, scratch),
            Action::Scalar(v) => self.apply_scalar(parent, v, &mut next, scratch),
            Action::Init => false,
        };
        assert!(applied, "a scored transition must re-apply to its parent");
        next.packs = parent.packs.clone();
        if let Action::Pack(pid) = rec.action {
            next.push_pack(pid);
        }
        next
    }
}

/// Heuristic completion estimate of the successor keyed `key`: `Σ
/// costSLP(v) + Σ costscalar(s)` — the per-value sums of Fig. 9's
/// ordering formula. The scalar term double-counts shared subtrees, which
/// biases the beam *toward* keeping partially-vectorized states alive;
/// that bias is what lets the search carry fft4's butterfly packs past
/// the point where the plain scalar path looks locally cheaper (and
/// mirrors the paper's own characterization of costSLP as optimistic,
/// §5.1). Evaluated on the main thread only, so the `costSLP` memo needs
/// no synchronization and fills in a reproducible order. Once the memo is
/// warm this is |V| reads and one add per member of S — less than hashing
/// the key to look the answer up would cost, so the answer is not cached
/// per state.
fn estimate(fz: &FrozenCtx, slp: &mut FrozenSlp, key: &[u64]) -> f64 {
    let w = fz.words;
    let mut h = 0.0;
    for &member in &key[2 * w..] {
        h += slp.cost_id(fz, VOp::id_of_key_word(member));
    }
    for s in ones(&key[w..2 * w]) {
        h += fz.scalar_one(ValueId::from_raw(s as u32));
    }
    h
}

/// A deduplicated successor with its ranking keys: `(score, estimate,
/// record position in the pool)`.
type Ranked = (f64, f64, u32);

/// The beam's ranking order: score; then prefer the more-progressed state
/// (smaller heuristic remainder — its cost is more certain); then the
/// (F, V, S) key — a total order on distinct states, so neither pool order
/// nor thread count can leak into the result.
fn rank_cmp(pool: &Pool, words: usize, a: &Ranked, b: &Ranked) -> Ordering {
    let key = |r: &Ranked| pool.key(&pool.recs[r.2 as usize]);
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.total_cmp(&b.1))
        .then_with(|| key_cmp(words, key(a), key(b)))
}

/// Move the `keep` best-ranked entries to the front of `ranked`, in rank
/// order; the rest follow in no particular order. [`rank_cmp`] is total on
/// a deduplicated pool, so the prefix is exactly the first `keep` entries
/// of a full sort.
fn rank_prefix(pool: &Pool, words: usize, ranked: &mut [Ranked], keep: usize) {
    let cmp = |a: &Ranked, b: &Ranked| rank_cmp(pool, words, a, b);
    if ranked.len() > keep {
        ranked.select_nth_unstable_by(keep - 1, cmp);
    }
    let keep = keep.min(ranked.len());
    ranked[..keep].sort_unstable_by(cmp);
}

/// The candidates around the keep/prune boundary of a ranked pool: the
/// best kept and the best pruned, [`MAX_LOGGED_CANDIDATES`] of each at
/// most — which is why [`rank_prefix`] orders that many past `width`.
fn candidate_logs(
    fz: &FrozenCtx,
    pool: &Pool,
    ranked: &[Ranked],
    width: usize,
) -> Vec<CandidateLog> {
    let logged = |rank: usize| rank < MAX_LOGGED_CANDIDATES || rank >= width;
    ranked
        .iter()
        .enumerate()
        .take(width + MAX_LOGGED_CANDIDATES)
        .filter(|(rank, _)| logged(*rank))
        .map(|(rank, &(score, est, at))| {
            let rec = &pool.recs[at as usize];
            CandidateLog {
                action: match rec.action {
                    Action::Init => "init".to_string(),
                    Action::Pack(pid) => {
                        format!("pack {}", fz.describe_pack(pid))
                    }
                    Action::Scalar(v) => format!("scalar v{}", v.index()),
                },
                g: rec.g,
                est,
                score,
                packs: rec.packs as usize,
                kept: rank < width,
            }
        })
        .collect()
}

/// Score one contiguous frontier chunk, which starts at frontier position
/// `start`, into `out` (carried terminals included, in frontier order).
/// Runs on the main thread (chunk 0, and everything when single-threaded)
/// and on workers alike — one implementation, so the sequential and
/// parallel paths cannot diverge. Polls wall/cancellation budgets between
/// states so an abort lands mid-fan-out instead of waiting out the
/// iteration.
fn process_chunk(
    search: &Search<'_>,
    states: &[State],
    start: u32,
    budget: &SearchBudget,
    t0: Instant,
    out: &mut Pool,
    scratch: &mut Scratch,
) -> Result<(), SelectError> {
    for (parent, st) in (start..).zip(states) {
        if let Some(w) = budget.wall {
            let elapsed = t0.elapsed();
            if elapsed >= w {
                return Err(SelectError::Deadline { budget: w, elapsed });
            }
        }
        if let Some(token) = &budget.cancel {
            if token.is_cancelled() {
                return Err(SelectError::Cancelled);
            }
        }
        if st.terminal() {
            out.record(st, parent, st.action, st.pack_len(), true);
            continue;
        }
        out.expanded += 1;
        let before = out.recs.len();
        search.expand(st, parent, out, scratch);
        out.transitions += (out.recs.len() - before) as u64;
    }
    Ok(())
}

/// Resolve [`BeamConfig::beam_threads`]: `0` means one worker per
/// available core.
fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Select a pack set for the context's function using beam search.
///
/// Returns the best terminal state's packs; if the search fails to reach a
/// terminal state within its iteration budget (it should not — the
/// all-scalar path is always available), the result is the empty pack set
/// at scalar cost.
///
/// # Errors
///
/// Returns a [`SelectError`] when a configured [`SearchBudget`] limit
/// (steps, wall clock, or cancellation) trips before the search finishes.
/// With the default unlimited budget this function never fails.
pub fn select_packs(
    ctx: &VectorizerCtx<'_>,
    cfg: &BeamConfig,
) -> Result<SelectionResult, SelectError> {
    select_packs_reusing(ctx, cfg, &mut SelectionReuse::new())
}

/// [`select_packs`] with cross-search reuse: the frozen snapshot and the
/// `costSLP` memo in `reuse` are consulted first and updated after. Reuse affects wall time only — a reused
/// search selects byte-identical packs to a fresh one, because every
/// cached value is a pure function of the (compatibility-checked) frozen
/// context.
///
/// # Errors
///
/// As [`select_packs`]. On a typed error the snapshot is still parked in
/// `reuse`, so a retry (the degradation ladder's width-1 rung) skips the
/// freeze.
pub fn select_packs_reusing(
    ctx: &VectorizerCtx<'_>,
    cfg: &BeamConfig,
    reuse: &mut SelectionReuse,
) -> Result<SelectionResult, SelectError> {
    let _sp = vegen_trace::span("beam", "select_packs");
    let t0 = Instant::now();

    let freeze_t = Instant::now();
    let mut frozen_reused = false;
    let fz: Arc<FrozenCtx> = match reuse.frozen.take() {
        Some(fz) if fz.compatible(ctx, cfg) => {
            frozen_reused = true;
            reuse.frozen_reuses += 1;
            fz
        }
        _ => {
            // Different function or seed config: everything keyed by the
            // old snapshot's ids is stale.
            reuse.slp.reset();
            Arc::new(FrozenCtx::freeze(ctx, cfg, t0)?)
        }
    };
    let freeze_wall = freeze_t.elapsed();

    let result = run_search(&fz, cfg, &mut reuse.slp, t0, freeze_wall, frozen_reused);
    // Park the snapshot even on a typed error: the caller's retry reuses
    // it. (A panic unwinds past this — the engine resets the reuse state
    // when it catches one.)
    reuse.frozen = Some(fz);
    result
}

/// The search root: everything free, nothing requested, `S` = the stores,
/// `R` = the values nothing uses.
fn initial_state(fz: &FrozenCtx) -> State {
    let n = fz.f.insts.len();
    let mut init = State::zeroed(n, fz.words);
    let free = init.free_mut();
    for i in 0..n {
        set_bit(free, i);
    }
    for v in fz.f.value_ids() {
        if fz.users_decided(init.free(), v) {
            set_bit(init.ready_mut(), v.index());
        }
    }
    for s in fz.f.stores() {
        init.sset_insert(s);
    }
    init
}

fn run_search(
    fz: &FrozenCtx,
    cfg: &BeamConfig,
    slp: &mut FrozenSlp,
    t0: Instant,
    freeze_wall: Duration,
    frozen_reused: bool,
) -> Result<SelectionResult, SelectError> {
    let n = fz.f.insts.len();
    let scalar_cost = fz.scalar_cost;
    let threads = resolve_threads(cfg.beam_threads);
    let search = Search { fz, cfg: cfg.clone() };

    let max_iters = cfg.max_iters.unwrap_or(2 * n + 32);
    let mut beam: Vec<State> = vec![initial_state(fz)];
    let mut best_terminal: Option<State> = None;
    let mut expanded = 0usize;
    let mut transitions = 0u64;
    let mut dedup_hits = 0u64;
    let mut hash_collisions = 0u64;
    let mut fanouts = 0u64;
    let mut merge_wall = Duration::ZERO;
    let mut decisions = cfg.log_decisions.then(DecisionLog::default);
    // The main thread's buffers, reused by every iteration.
    let mut scratch = Scratch::default();
    let mut pool = Pool::default();
    let mut dedup = Dedup::default();
    let mut deduped: Vec<u32> = Vec::new();
    let mut ranked: Vec<Ranked> = Vec::new();

    // One scoped worker pool for the whole search: workers are spawned
    // once and fed per-iteration chunks over channels (spawning per
    // iteration would dwarf the work being split).
    std::thread::scope(|scope| -> Result<SelectionResult, SelectError> {
        type WorkerResult = (usize, Vec<State>, std::thread::Result<Result<Pool, SelectError>>);
        let worker_count = threads.saturating_sub(1);
        let mut job_txs: Vec<mpsc::Sender<(usize, u32, Vec<State>)>> =
            Vec::with_capacity(worker_count);
        let (res_tx, res_rx) = mpsc::channel::<WorkerResult>();
        for _ in 0..worker_count {
            let (tx, rx) = mpsc::channel::<(usize, u32, Vec<State>)>();
            job_txs.push(tx);
            let res_tx = res_tx.clone();
            let search = &search;
            let budget = cfg.budget.clone();
            scope.spawn(move || {
                let mut scratch = Scratch::default();
                while let Ok((idx, start, states)) = rx.recv() {
                    // Catch panics per job so the main thread never blocks
                    // on a dead worker; the payload is re-thrown there.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut out = Pool::default();
                        process_chunk(search, &states, start, &budget, t0, &mut out, &mut scratch)
                            .map(|()| out)
                    }));
                    // The chunk goes back with its successors: the main
                    // thread builds the survivors from their parents.
                    if res_tx.send((idx, states, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        for iter in 0..max_iters {
            // Budget checks at the iteration boundary: the search either
            // runs to completion or reports exactly why it could not — a
            // partial frontier is never silently returned as a selection.
            if let Some(limit) = cfg.budget.max_steps {
                if transitions >= limit {
                    vegen_trace::instant("beam", "budget_steps");
                    return Err(SelectError::StepBudget { steps: transitions, limit });
                }
            }
            if let Some(budget) = cfg.budget.wall {
                let elapsed = t0.elapsed();
                if elapsed >= budget {
                    vegen_trace::instant("beam", "budget_wall");
                    return Err(SelectError::Deadline { budget, elapsed });
                }
            }
            if let Some(token) = &cfg.budget.cancel {
                if token.is_cancelled() {
                    vegen_trace::instant("beam", "cancelled");
                    return Err(SelectError::Cancelled);
                }
            }
            let beam_in = beam.len();
            if vegen_trace::enabled() {
                vegen_trace::counter("beam", "frontier", beam_in as f64);
            }
            if !beam.iter().any(|st| !st.terminal()) {
                break;
            }

            // Fan the frontier out in contiguous chunks (sizes differing
            // by at most one): chunks 1.. go to the workers, and the main
            // thread scores chunk 0 straight into the pool.
            let mut frontier = std::mem::take(&mut beam);
            let t_eff = threads.min(frontier.len()).max(1);
            if t_eff > 1 {
                fanouts += 1;
            }
            let (size, rem) = (frontier.len() / t_eff, frontier.len() % t_eff);
            for i in (1..t_eff).rev() {
                let start = i * size + i.min(rem);
                let chunk = frontier.split_off(start);
                job_txs[i - 1].send((i, start as u32, chunk)).expect("beam worker exited early");
            }
            pool.clear();
            let main_out =
                process_chunk(&search, &frontier, 0, &cfg.budget, t0, &mut pool, &mut scratch);
            // Collect into index slots regardless of arrival order, then
            // read them back in chunk order: the merged pool (and the
            // reassembled frontier) is the exact sequential one at any
            // thread count.
            let mut slots: Vec<Option<(Vec<State>, _)>> = (1..t_eff).map(|_| None).collect();
            for _ in 1..t_eff {
                let (idx, states, out) = res_rx.recv().expect("beam worker hung up");
                slots[idx - 1] = Some((states, out));
            }
            let merge_t = Instant::now();
            let mut first_err: Option<SelectError> = main_out.err();
            let mut first_panic: Option<Box<dyn Any + Send>> = None;
            for slot in slots {
                let (states, out) = slot.expect("every chunk slot is filled");
                frontier.extend(states);
                match out {
                    Ok(Ok(chunk)) => pool.append(chunk),
                    Ok(Err(e)) => {
                        first_err.get_or_insert(e);
                    }
                    Err(p) => {
                        first_panic.get_or_insert(p);
                    }
                }
            }
            if let Some(p) = first_panic {
                std::panic::resume_unwind(p);
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            expanded += pool.expanded;
            transitions += pool.transitions;
            let raw_pool = pool.recs.len();
            #[cfg(test)]
            let reference = tests::materialize(
                &search,
                &frontier,
                &pool,
                &mut scratch,
                (dedup_hits, hash_collisions),
            );
            dedup.run(&pool, &mut deduped, &mut dedup_hits, &mut hash_collisions);
            #[cfg(test)]
            tests::assert_same_dedup(&reference, &pool, &deduped, (dedup_hits, hash_collisions));
            merge_wall += merge_t.elapsed();

            ranked.clear();
            ranked.extend(deduped.iter().map(|&at| {
                let rec = &pool.recs[at as usize];
                let h = estimate(fz, slp, pool.key(rec));
                (rec.g + h, h, at)
            }));
            let width = cfg.width.max(1);
            rank_prefix(&pool, fz.words, &mut ranked, width + MAX_LOGGED_CANDIDATES);
            #[cfg(test)]
            tests::assert_same_ranking(fz, slp, reference, &pool, &ranked, width);
            if vegen_trace::enabled() {
                vegen_trace::counter("beam", "pool", raw_pool as f64);
                vegen_trace::counter("beam", "deduped", deduped.len() as f64);
                vegen_trace::counter("beam", "pruned", ranked.len().saturating_sub(width) as f64);
            }
            if let Some(log) = decisions.as_mut() {
                log.iterations.push(IterationLog {
                    index: iter,
                    beam_in,
                    pool: raw_pool,
                    deduped: deduped.len(),
                    kept: ranked.len().min(width),
                    candidates: candidate_logs(fz, &pool, &ranked, width),
                });
            }
            ranked.truncate(width);
            beam = ranked
                .iter()
                .map(|&(_, _, at)| search.build(&frontier, &pool.recs[at as usize], &mut scratch))
                .collect();
            for st in &beam {
                if st.terminal() {
                    match &best_terminal {
                        Some(b) if b.g <= st.g => {}
                        _ => best_terminal = Some(st.clone()),
                    }
                }
            }
            if beam.is_empty() {
                break;
            }
        }

        let (producer_cache_hits, producer_cache_misses) =
            if frozen_reused { (0, 0) } else { fz.arena.producer_lookups() };
        let stats = BeamStats {
            states_expanded: expanded,
            transitions,
            dedup_hits,
            hash_collisions,
            producer_cache_hits,
            producer_cache_misses,
            interned_operands: fz.arena.operand_count(),
            interned_packs: fz.arena.pack_count(),
            beam_wall: t0.elapsed(),
            workers: threads,
            fanouts,
            tt_hits: 0,
            tt_misses: 0,
            merge_wall,
            freeze_wall,
            frozen_reused,
        };
        record_search_metrics(&stats);

        Ok(match best_terminal {
            Some(st) => {
                let mut ids: Vec<PackId> = st.packs_iter().collect();
                ids.reverse();
                if let Some(log) = decisions.as_mut() {
                    for (step, &pid) in ids.iter().enumerate() {
                        log.committed.push(CommittedPack {
                            step,
                            pack: fz.describe_pack(pid),
                            cost: fz.pack_cost_of(pid),
                        });
                    }
                }
                let mut packs = PackSet::new();
                for pid in ids {
                    packs.insert(fz.pack(pid));
                }
                SelectionResult {
                    packs,
                    vector_cost: st.g,
                    scalar_cost,
                    states_expanded: expanded,
                    stats,
                    decisions,
                }
            }
            None => SelectionResult {
                packs: PackSet::new(),
                vector_cost: scalar_cost,
                scalar_cost,
                states_expanded: expanded,
                stats,
                decisions,
            },
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::intern::Arena;
    use crate::testutil::{avx2_desc, corpus_and_soak_seed_kernels, dot_kernel, suite_kernels};
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use vegen_ir::canon::canonicalize;
    use vegen_ir::{Function, FunctionBuilder, Type};
    use vegen_match::TargetDesc;

    thread_local! {
        /// Candidates on which `apply_pack` compared the incremental
        /// legality verdict with `packs_legal`, on this thread.
        pub(super) static LEGALITY_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Transitions whose dead sweep was compared with
        /// [`reference_sweep`], on this thread.
        static SWEEP_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Iterations whose record dedup and ranked prefix were compared
        /// with `dedup_pool` and a full sort of the materialized pool, on
        /// this thread.
        static POOL_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Expansions whose indexed seed candidates were compared with a
        /// full pass over `seed_packs`, on this thread.
        static SEED_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// States built from a record (not carried), on this thread.
        pub(super) static BUILDS: Cell<u64> = const { Cell::new(0) };
        /// The most successors one expansion scored, on this thread.
        pub(super) static MOST_SUCCESSORS: Cell<usize> = const { Cell::new(0) };
    }

    /// The sweep the search used before the bitset kernel: a `BTreeSet` of
    /// demanded values and ascending passes over every instruction until
    /// nothing changes, readiness read from the use lists; then `R`
    /// recomputed from scratch. Kept as the reference `sweep_dead` is
    /// compared with after every transition any test of this crate makes,
    /// scored or built.
    pub(super) fn reference_sweep(fz: &FrozenCtx, st: &State) -> State {
        let mut st = st.clone();
        let mut demanded: BTreeSet<ValueId> = st.sset_iter().collect();
        for x in &st.vset {
            demanded.extend(fz.arena.operand(x.id).defined());
        }
        let ready = |st: &State, v: ValueId| {
            st.is_free(v) && fz.users[v.index()].iter().all(|u| !st.is_free(*u))
        };
        loop {
            let mut changed = false;
            for v in fz.f.value_ids() {
                if !demanded.contains(&v) && ready(&st, v) {
                    st.clear_free(v);
                    st.set_prod(v, Prod::Dead);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // `R` from scratch, from the use lists.
        st.ready_mut().fill(0);
        for v in fz.f.value_ids() {
            if ready(&st, v) {
                set_bit(st.ready_mut(), v.index());
            }
        }
        st
    }

    /// The seed packs a full pass over `seed_packs` would find ready, by
    /// the use-list test, in order, must be the ready ones among the
    /// indexed candidates `seeds` (positions in `seed_packs`) — which must
    /// ascend.
    pub(super) fn assert_same_seed_candidates(fz: &FrozenCtx, st: &State, seeds: &[u32]) {
        let ready =
            |v: ValueId| st.is_free(v) && fz.users[v.index()].iter().all(|u| !st.is_free(*u));
        let applicable = |at: &u32| fz.arena.defined(fz.seed_packs[*at as usize]).all(ready);
        let want: Vec<u32> = (0..fz.seed_packs.len() as u32).filter(applicable).collect();
        let got: Vec<u32> = seeds.iter().copied().filter(applicable).collect();
        assert_eq!(want, got, "seed candidates: the index misses or misorders a ready seed pack");
        assert!(seeds.is_sorted(), "seed candidates: positions out of seed order");
        SEED_CHECKS.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn assert_same_sweep(reference: &State, st: &State) {
        assert_eq!(reference.free(), st.free(), "sweep: free words diverge from the reference");
        assert_eq!(reference.ready(), st.ready(), "sweep: R diverges from the reference");
        assert!(reference.buf == st.buf, "sweep: S or prod table diverges from the reference");
        assert_eq!(reference.hash, st.hash, "sweep: state hash diverges from the reference");
        SWEEP_CHECKS.with(|c| c.set(c.get() + 1));
    }

    /// Full (F, V, S) equality of two materialized states.
    fn same_key(a: &State, b: &State) -> bool {
        a.key_words() == b.key_words() && a.vset == b.vset
    }

    /// The (F, V, S) tie-break order on materialized states, compared
    /// component by component.
    fn state_key_cmp(a: &State, b: &State) -> Ordering {
        a.free()
            .cmp(b.free())
            .then_with(|| a.vset.iter().cmp(b.vset.iter()))
            .then_with(|| a.sset_iter().cmp(b.sset_iter()))
    }

    /// The estimate of a materialized state.
    fn state_estimate(fz: &FrozenCtx, slp: &mut FrozenSlp, st: &State) -> f64 {
        let mut h = 0.0;
        for x in &st.vset {
            h += slp.cost_id(fz, x.id);
        }
        for s in st.sset_iter() {
            h += fz.scalar_one(s);
        }
        h
    }

    /// The dedup the search ran over materialized states before it scored
    /// records: an index from hash to the first output position, a chain
    /// per collision, and [`same_key`] arbitrating every hash match. Kept
    /// as the reference [`Dedup`] is compared with on every iteration any
    /// test of this crate runs.
    fn dedup_pool(pool: Vec<State>, dedup_hits: &mut u64, hash_collisions: &mut u64) -> Vec<State> {
        let mut index: HashMap<u128, u32, BuildHasherDefault<FoldHasher>> =
            HashMap::with_capacity_and_hasher(pool.len(), BuildHasherDefault::default());
        let mut chain: Vec<u32> = Vec::with_capacity(pool.len());
        let mut out: Vec<State> = Vec::with_capacity(pool.len());
        for st in pool {
            let mut at = match index.entry(st.hash) {
                Entry::Vacant(e) => {
                    e.insert(out.len() as u32);
                    chain.push(CHAIN_END);
                    out.push(st);
                    continue;
                }
                Entry::Occupied(e) => *e.get() as usize,
            };
            loop {
                if same_key(&out[at], &st) {
                    *dedup_hits += 1;
                    if st.g < out[at].g {
                        out[at] = st;
                    }
                    break;
                }
                if chain[at] == CHAIN_END {
                    *hash_collisions += 1;
                    chain[at] = out.len() as u32;
                    chain.push(CHAIN_END);
                    out.push(st);
                    break;
                }
                at = chain[at] as usize;
            }
        }
        out
    }

    /// What a record and the state built from it must agree on: the
    /// identity hash, the path cost, the transition, the path length.
    type Fingerprint = (u128, u64, Action, u16);

    fn fingerprint(st: &State) -> Fingerprint {
        (st.hash, st.g.to_bits(), st.action, st.pack_len())
    }

    fn record_fingerprint(rec: &Scored) -> Fingerprint {
        (rec.hash, rec.g.to_bits(), rec.action, rec.packs)
    }

    /// An iteration's pool built state by state and deduplicated by
    /// [`dedup_pool`], with the search's two running counters as that
    /// dedup leaves them.
    pub(super) struct Materialized {
        deduped: Vec<State>,
        counters: (u64, u64),
    }

    /// Build every record of `pool` from its parent — checking that each
    /// state agrees with its record and has its key — and deduplicate the
    /// built pool the way the search did before it scored records.
    pub(super) fn materialize(
        search: &Search<'_>,
        frontier: &[State],
        pool: &Pool,
        scratch: &mut Scratch,
        counters: (u64, u64),
    ) -> Materialized {
        let mut key = Vec::new();
        let built: Vec<State> = pool
            .recs
            .iter()
            .map(|rec| {
                let st = search.build(frontier, rec, scratch);
                assert_eq!(
                    fingerprint(&st),
                    record_fingerprint(rec),
                    "a built state left its record"
                );
                key.clear();
                st.push_key(&mut key);
                assert_eq!(key, pool.key(rec), "a built state's key is not its record's");
                st
            })
            .collect();
        let (mut hits, mut collisions) = counters;
        let deduped = dedup_pool(built, &mut hits, &mut collisions);
        Materialized { deduped, counters: (hits, collisions) }
    }

    pub(super) fn assert_same_dedup(
        reference: &Materialized,
        pool: &Pool,
        deduped: &[u32],
        counters: (u64, u64),
    ) {
        let want: Vec<Fingerprint> = reference.deduped.iter().map(fingerprint).collect();
        let got: Vec<Fingerprint> =
            deduped.iter().map(|&at| record_fingerprint(&pool.recs[at as usize])).collect();
        assert_eq!(want, got, "dedup: records diverge from the materialized pool");
        assert_eq!(reference.counters, counters, "dedup: hit/collision counts diverge");
    }

    /// Rank the materialized pool by a full sort and compare the prefix the
    /// search keeps and logs with the records' ranking. The estimates read
    /// only memo entries the records' estimates already filled.
    pub(super) fn assert_same_ranking(
        fz: &FrozenCtx,
        slp: &mut FrozenSlp,
        reference: Materialized,
        pool: &Pool,
        ranked: &[Ranked],
        width: usize,
    ) {
        let mut sorted: Vec<(f64, f64, State)> = reference
            .deduped
            .into_iter()
            .map(|st| {
                let h = state_estimate(fz, slp, &st);
                (st.g + h, h, st)
            })
            .collect();
        sorted.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.total_cmp(&b.1))
                .then_with(|| state_key_cmp(&a.2, &b.2))
        });
        assert_eq!(sorted.len(), ranked.len());
        let keep = (width + MAX_LOGGED_CANDIDATES).min(sorted.len());
        let want: Vec<_> = sorted[..keep]
            .iter()
            .map(|(score, h, st)| (score.to_bits(), h.to_bits(), fingerprint(st)))
            .collect();
        let got: Vec<_> = ranked[..keep]
            .iter()
            .map(|&(score, h, at)| {
                (score.to_bits(), h.to_bits(), record_fingerprint(&pool.recs[at as usize]))
            })
            .collect();
        assert_eq!(want, got, "ranking: the selected prefix diverges from a full sort");
        POOL_CHECKS.with(|c| c.set(c.get() + 1));
    }

    fn simd_add_kernel(lanes: i64) -> Function {
        let mut b = FunctionBuilder::new("vadd");
        let a = b.param("A", Type::I32, lanes as usize);
        let bb = b.param("B", Type::I32, lanes as usize);
        let c = b.param("C", Type::I32, lanes as usize);
        for i in 0..lanes {
            let x = b.load(a, i);
            let y = b.load(bb, i);
            let s = b.add(x, y);
            b.store(c, i, s);
        }
        canonicalize(&b.finish())
    }

    fn pack_list(r: &SelectionResult) -> Vec<Pack> {
        r.packs.iter().map(|(_, p)| p.clone()).collect()
    }

    #[test]
    fn vectorizes_simd_add() {
        let desc = avx2_desc();
        let f = simd_add_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert!(r.vector_cost < r.scalar_cost, "vadd must be profitable");
        // Expect: 1 store pack, 1 paddd pack, 2 load packs.
        assert!(r.packs.iter().any(|(_, p)| p.is_store()));
        assert!(r.packs.iter().any(|(_, p)| p.is_load()));
        assert!(r.packs.iter().any(|(_, p)| matches!(p, Pack::Compute { inst, .. }
            if desc.insts[*inst].def.name.starts_with("paddd"))));
    }

    #[test]
    fn vectorizes_dot4_with_pmaddwd() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert!(
            r.packs.iter().any(|(_, p)| matches!(p, Pack::Compute { inst, .. }
                if desc.insts[*inst].def.name == "pmaddwd_128")),
            "expected pmaddwd pack; got {:?}",
            r.packs.iter().map(|(_, p)| p).collect::<Vec<_>>()
        );
        assert!(r.vector_cost < r.scalar_cost);
    }

    #[test]
    fn beam_1_is_never_better_than_beam_64() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r1 = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        let r64 = select_packs(&ctx, &BeamConfig::with_width(64)).unwrap();
        assert!(r64.vector_cost <= r1.vector_cost + 1e-9);
    }

    #[test]
    fn unvectorizable_kernel_stays_scalar() {
        // A serial dependence chain cannot be packed.
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("chain");
        let p = b.param("A", Type::I32, 2);
        let x = b.load(p, 0);
        let mut acc = x;
        for _ in 0..6 {
            acc = b.mul(acc, acc);
        }
        b.store(p, 1, acc);
        let f = canonicalize(&b.finish());
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert!(r.packs.is_empty(), "{:?}", r.packs.iter().collect::<Vec<_>>());
        assert!((r.vector_cost - r.scalar_cost).abs() < 1e-9);
    }

    #[test]
    fn two_lane_kernel_uses_smaller_packs() {
        let desc = avx2_desc();
        let f = simd_add_kernel(2);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        // 2 x i32 is only 64 bits — no 64-bit instructions exist in the
        // database, so this must stay scalar.
        assert!(r.packs.is_empty() || r.vector_cost <= r.scalar_cost);
    }

    #[test]
    fn mixed_opcode_store_values_blend_two_packs() {
        // fft4's final-stage shape: outputs [add, add, add, sub] have no
        // single producer; the search must blend an addps pack and a subps
        // pack (the opcode-group transition).
        let desc = avx2_desc();
        let mut b = FunctionBuilder::new("blend");
        let a = b.param("A", Type::F32, 4);
        let bb = b.param("B", Type::F32, 4);
        let o = b.param("O", Type::F32, 4);
        for i in 0..4i64 {
            let x = b.load(a, i);
            let y = b.load(bb, i);
            let s = if i == 3 { b.fsub(x, y) } else { b.fadd(x, y) };
            b.store(o, i, s);
        }
        let f = canonicalize(&b.finish());
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::with_width(32)).unwrap();
        assert!(r.vector_cost < r.scalar_cost, "blend path must be profitable");
        let names: Vec<&str> = r
            .packs
            .iter()
            .filter_map(|(_, p)| match p {
                Pack::Compute { inst, .. } => Some(desc.insts[*inst].def.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"addps_128"), "{names:?}");
        assert!(names.contains(&"subps_128"), "{names:?}");
    }

    #[test]
    fn eight_lanes_use_256_bit_packs() {
        let desc = avx2_desc();
        let f = simd_add_kernel(8);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r = select_packs(&ctx, &BeamConfig::with_width(8)).unwrap();
        assert!(r.vector_cost < r.scalar_cost);
        let has_256 = r.packs.iter().any(|(_, p)| {
            matches!(p, Pack::Compute { inst, .. }
            if desc.insts[*inst].def.name == "paddd_256")
        });
        let two_128 = r
            .packs
            .iter()
            .filter(|(_, p)| {
                matches!(p, Pack::Compute { inst, .. }
                if desc.insts[*inst].def.name == "paddd_128")
            })
            .count()
            == 2;
        assert!(has_256 || two_128, "{:?}", r.packs.iter().collect::<Vec<_>>());
    }

    fn tiny_state(store: u32, g: f64, hash: u128) -> State {
        let mut st = State::zeroed(2, 1);
        st.free_mut()[0] = 0b11;
        set_bit(st.sset_mut(), store as usize);
        st.g = g;
        st.hash = hash; // forced, to exercise the collision path
        st
    }

    /// Score `states` as one pool and run the search's dedup over it: the
    /// positions that survive, in output order, and (hits, collisions).
    fn dedup_states(states: &[State]) -> (Vec<usize>, (u64, u64)) {
        let mut pool = Pool::default();
        for st in states {
            pool.record(st, 0, st.action, 0, false);
        }
        let (mut hits, mut collisions, mut out) = (0u64, 0u64, Vec::new());
        Dedup::default().run(&pool, &mut out, &mut hits, &mut collisions);
        (out.into_iter().map(|at| at as usize).collect(), (hits, collisions))
    }

    #[test]
    fn colliding_hashes_keep_distinct_states() {
        // Two states with different (F, V, S) but the same (forced) hash
        // must both survive dedup via the full-key comparison.
        let pool = [tiny_state(0, 1.0, 42), tiny_state(1, 2.0, 42), tiny_state(1, 1.5, 42)];
        let (out, counters) = dedup_states(&pool);
        // First-seen order, and the duplicate found down the chain merges
        // into its own state, not the chain head.
        assert_eq!(out, vec![0, 2], "a collision must not merge distinct states");
        assert_eq!(counters, (1, 1));
    }

    #[test]
    fn dedup_keeps_cheapest_and_first_on_tie() {
        let (out, counters) = dedup_states(&[tiny_state(0, 2.0, 7), tiny_state(0, 1.0, 7)]);
        assert_eq!(out, vec![1], "cheaper duplicate must win");
        assert_eq!(counters, (1, 0));

        // Equal g: the first-pooled state wins (matching the old map
        // semantics that expansion order decides ties).
        let (out, counters) = dedup_states(&[tiny_state(0, 3.0, 9), tiny_state(0, 3.0, 9)]);
        assert_eq!(out, vec![0]);
        assert_eq!(counters, (1, 0));
    }

    #[test]
    fn dedup_preserves_first_seen_order() {
        // The deduped pool must come out in first-seen order — the
        // deterministic sequence the estimate memo fills in — not in
        // hash-map iteration order.
        let pool = [tiny_state(3, 1.0, 30), tiny_state(1, 1.0, 10), tiny_state(2, 1.0, 20)];
        assert_eq!(dedup_states(&pool).0, vec![0, 1, 2]);
    }

    #[test]
    fn incremental_hash_is_path_independent() {
        // Reaching the same (F, V, S) by different operation orders must
        // produce the same hash (XOR accumulation is commutative).
        let mut a = tiny_state(0, 0.0, 0);
        a.hash = 0;
        let mut b = a.clone();
        a.sset_insert(ValueId::from_raw(1));
        a.clear_free(ValueId::from_raw(0));
        b.clear_free(ValueId::from_raw(0));
        b.sset_insert(ValueId::from_raw(1));
        assert_eq!(a.hash, b.hash);
        // Insert/remove round-trips back to the original hash.
        let h0 = a.hash;
        a.sset_insert(ValueId::from_raw(1)); // already present: no-op
        assert_eq!(a.hash, h0);
        a.sset_remove(ValueId::from_raw(1));
        a.sset_insert(ValueId::from_raw(1));
        assert_eq!(a.hash, h0);
    }

    #[test]
    fn prod_lanes_round_trip_every_variant_at_the_buffer_edges() {
        let all = [
            Prod::Free,
            Prod::Scalar,
            Prod::Dead,
            Prod::Pack(0),
            Prod::Pack(u16::MAX),
            Prod::PackX(0),
            Prod::PackX(u16::MAX),
        ];
        for p in all {
            assert_eq!(Prod::from_lane(p.to_lane()), p);
        }
        // Odd and even value counts, one and two bitset words.
        for n in [2usize, 5, 64, 129] {
            let words = n.div_ceil(64);
            let lanes = [0, 1, n - 1].map(|i| ValueId::from_raw(i as u32));
            for p in all {
                for q in all {
                    let mut st = State::zeroed(n, words);
                    st.free_mut().fill(u64::MAX);
                    st.sset_mut().fill(u64::MAX);
                    for v in lanes {
                        st.set_prod(v, q);
                    }
                    // Overwriting one lane leaves its neighbours and the
                    // bitset regions alone.
                    for v in lanes {
                        st.set_prod(v, p);
                        assert_eq!(st.prod(v), p, "n={n} {v}");
                        for other in lanes.into_iter().filter(|o| *o != v) {
                            assert_eq!(st.prod(other), q, "n={n}: {v} clobbered {other}");
                        }
                        st.set_prod(v, q);
                    }
                    assert!(st.key_words().iter().all(|w| *w == u64::MAX));
                }
            }
        }
    }

    #[test]
    fn decision_log_is_off_by_default_and_observation_only() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let plain = select_packs(&ctx, &BeamConfig::with_width(8)).unwrap();
        assert!(plain.decisions.is_none(), "logging must be opt-in");

        let logged =
            select_packs(&ctx, &BeamConfig { log_decisions: true, ..BeamConfig::with_width(8) })
                .unwrap();
        let log = logged.decisions.as_ref().expect("log_decisions must populate the log");
        // Same packs, same cost: logging must not perturb the search.
        assert_eq!(pack_list(&plain), pack_list(&logged));
        assert_eq!(plain.vector_cost, logged.vector_cost);

        assert!(!log.iterations.is_empty());
        assert!(!log.committed.is_empty(), "dot4 commits packs");
        assert!(log.committed.iter().any(|c| c.pack.contains("pmaddwd")), "{:?}", log.committed);
        for it in &log.iterations {
            assert!(it.kept <= 8);
            assert!(it.deduped <= it.pool);
            // Kept candidates are logged before pruned ones and scores are
            // nondecreasing within each group (the pool is sorted).
            let kept: Vec<&CandidateLog> = it.candidates.iter().filter(|c| c.kept).collect();
            for w in kept.windows(2) {
                assert!(w[0].score <= w[1].score);
            }
            for c in &it.candidates {
                assert!((c.score - (c.g + c.est)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn step_budget_exhaustion_is_a_typed_error() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig {
            budget: SearchBudget { max_steps: Some(1), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        match select_packs(&ctx, &cfg) {
            Err(SelectError::StepBudget { steps, limit }) => {
                assert_eq!(limit, 1);
                assert!(steps >= 1);
            }
            other => panic!("expected StepBudget, got {other:?}"),
        }
        // The same search without a budget succeeds, and a budget generous
        // enough to finish changes nothing about the result.
        let free = select_packs(&ctx, &BeamConfig::with_width(8)).unwrap();
        let roomy = BeamConfig {
            budget: SearchBudget { max_steps: Some(u64::MAX), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        let budgeted = select_packs(&ctx, &roomy).unwrap();
        assert_eq!(
            pack_list(&free),
            pack_list(&budgeted),
            "a non-binding budget must not perturb the selection"
        );
    }

    #[test]
    fn zero_wall_budget_trips_deadline() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig {
            budget: SearchBudget { wall: Some(Duration::ZERO), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        assert!(matches!(select_packs(&ctx, &cfg), Err(SelectError::Deadline { .. })));
    }

    #[test]
    fn cancelled_token_stops_the_search() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let token = CancelToken::new();
        token.cancel();
        let cfg = BeamConfig {
            budget: SearchBudget { cancel: Some(token), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        assert!(matches!(select_packs(&ctx, &cfg), Err(SelectError::Cancelled)));
        // An uncancelled token is inert.
        let cfg = BeamConfig {
            budget: SearchBudget { cancel: Some(CancelToken::new()), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        assert!(select_packs(&ctx, &cfg).is_ok());
    }

    #[test]
    fn selection_reports_search_stats() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let r1 = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert!(r1.stats.states_expanded > 0);
        assert_eq!(r1.stats.states_expanded, r1.states_expanded);
        assert!(r1.stats.transitions >= r1.stats.states_expanded as u64);
        assert!(r1.stats.interned_operands > 0);
        assert!(r1.stats.interned_packs > 0);
        assert!(r1.stats.producer_cache_misses > 0, "first run must enumerate");
        assert!(r1.stats.workers >= 1);
        // A second run through the same reuse state enumerates nothing: it
        // is served by the snapshot the first one froze.
        let mut reuse = SelectionReuse::new();
        let cold = select_packs_reusing(&ctx, &BeamConfig::slp(), &mut reuse).unwrap();
        assert_eq!(cold.stats.producer_cache_misses, r1.stats.producer_cache_misses);
        let r2 = select_packs_reusing(&ctx, &BeamConfig::slp(), &mut reuse).unwrap();
        assert!(r2.stats.frozen_reused);
        assert_eq!((r2.stats.producer_cache_hits, r2.stats.producer_cache_misses), (0, 0));
        assert_eq!(pack_list(&r1), pack_list(&r2), "reused run must select identical packs");
    }

    #[test]
    fn thread_count_never_changes_the_selection() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let base = select_packs(&ctx, &BeamConfig { beam_threads: 1, ..BeamConfig::with_width(8) })
            .unwrap();
        for threads in [2usize, 8] {
            let cfg = BeamConfig { beam_threads: threads, ..BeamConfig::with_width(8) };
            let r = select_packs(&ctx, &cfg).unwrap();
            assert_eq!(r.stats.workers, threads);
            assert_eq!(pack_list(&base), pack_list(&r), "selection diverged at {threads} threads");
            assert_eq!(
                base.vector_cost.to_bits(),
                r.vector_cost.to_bits(),
                "vector cost diverged at {threads} threads"
            );
            assert_eq!(base.stats.states_expanded, r.stats.states_expanded);
            assert_eq!(base.stats.transitions, r.stats.transitions);
            assert_eq!(base.stats.dedup_hits, r.stats.dedup_hits);
            assert!(r.stats.fanouts > 0 || r.stats.states_expanded <= 1);
        }
    }

    #[test]
    fn snapshot_reuse_across_widths() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut reuse = SelectionReuse::new();
        let r1 = select_packs_reusing(&ctx, &BeamConfig::slp(), &mut reuse).unwrap();
        assert!(!r1.stats.frozen_reused, "first search must freeze");
        assert_eq!(reuse.frozen_reuses(), 0);

        // A wider search over the same snapshot: the selection matches a
        // fresh, reuse-free search exactly.
        let r64 = select_packs_reusing(&ctx, &BeamConfig::with_width(64), &mut reuse).unwrap();
        assert!(r64.stats.frozen_reused, "compatible call must reuse the snapshot");
        assert_eq!(reuse.frozen_reuses(), 1);
        assert_eq!((r64.stats.tt_hits, r64.stats.tt_misses), (0, 0), "there is no table");
        let fresh = select_packs(&ctx, &BeamConfig::with_width(64)).unwrap();
        assert_eq!(pack_list(&fresh), pack_list(&r64), "reuse must not perturb the selection");
        assert_eq!(fresh.vector_cost.to_bits(), r64.vector_cost.to_bits());
        assert_eq!(fresh.stats.transitions, r64.stats.transitions);

        // Flipping the seed configuration invalidates the snapshot.
        let other = BeamConfig { use_affinity_seeds: false, ..BeamConfig::slp() };
        let r3 = select_packs_reusing(&ctx, &other, &mut reuse).unwrap();
        assert!(!r3.stats.frozen_reused, "incompatible seeds must re-freeze");
        assert_eq!(reuse.frozen_reuses(), 1);
    }

    #[test]
    fn typed_error_parks_the_snapshot_for_retry() {
        let desc = avx2_desc();
        let f = dot_kernel(4);
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut reuse = SelectionReuse::new();
        // Warm the snapshot, then trip a step budget mid-search.
        select_packs_reusing(&ctx, &BeamConfig::with_width(8), &mut reuse).unwrap();
        let tight = BeamConfig {
            budget: SearchBudget { max_steps: Some(1), ..SearchBudget::default() },
            ..BeamConfig::with_width(8)
        };
        assert!(matches!(
            select_packs_reusing(&ctx, &tight, &mut reuse),
            Err(SelectError::StepBudget { .. })
        ));
        // The retry (the ladder's width-1 rung) reuses the parked snapshot
        // and still selects exactly what a fresh search would.
        let retry = select_packs_reusing(&ctx, &BeamConfig::slp(), &mut reuse).unwrap();
        assert!(retry.stats.frozen_reused, "retry after a typed error must reuse");
        assert_eq!(reuse.frozen_reuses(), 2);
        let fresh = select_packs(&ctx, &BeamConfig::slp()).unwrap();
        assert_eq!(pack_list(&fresh), pack_list(&retry));
        assert_eq!(fresh.vector_cost.to_bits(), retry.vector_cost.to_bits());
    }

    /// Search `f` at `width` on this thread and return how many legality
    /// verdicts, sweeps and pools (dedup + ranking) were compared with
    /// their references on the way (the comparisons themselves are in
    /// `apply_pack`, `sweep_dead`, `expand` and `run_search`); every
    /// expansion also compares its indexed seed candidates. Every scored
    /// transition sweeps once, and so does every state built from a
    /// record: each one once for its iteration's materialized pool, and
    /// the survivors once more.
    fn checked_search(desc: &TargetDesc, f: &Function, width: usize) -> [u64; 3] {
        let counts = || {
            [
                LEGALITY_CHECKS.get(),
                SWEEP_CHECKS.get(),
                POOL_CHECKS.get(),
                BUILDS.get(),
                SEED_CHECKS.get(),
            ]
        };
        let before = counts();
        let ctx = VectorizerCtx::new(f, desc, CostModel::default());
        let cfg =
            BeamConfig { beam_threads: 1, log_decisions: true, ..BeamConfig::with_width(width) };
        let r = select_packs(&ctx, &cfg).unwrap();
        let after = counts();
        let [legality, sweeps, pools, builds, seeds] =
            std::array::from_fn(|i| after[i] - before[i]);
        let transitions = r.stats.transitions;
        assert!(builds >= transitions, "{}: every scored transition is materialized", f.name);
        assert_eq!(sweeps, transitions + builds, "{}: every transition sweeps once", f.name);
        let expanded = r.stats.states_expanded as u64;
        assert_eq!(seeds, expanded, "{}: every expansion checks its seed candidates", f.name);
        let iterations = r.decisions.expect("logging is on").iterations.len() as u64;
        assert_eq!(pools, iterations, "{}: every iteration checks its pool", f.name);
        [legality, sweeps, pools]
    }

    /// Run [`checked_search`] over `kernels` at widths 16 and 1.
    fn assert_pipeline_matches_the_references(kernels: &[Function]) {
        let desc = avx2_desc();
        let mut totals = [0u64; 3];
        for f in kernels {
            for width in [16, 1] {
                for (total, n) in totals.iter_mut().zip(checked_search(&desc, f, width)) {
                    *total += n;
                }
            }
        }
        let [legality, sweeps, pools] = totals;
        assert!(legality > 10_000, "only {legality} legality verdicts compared");
        assert!(sweeps > 100_000, "only {sweeps} sweeps compared");
        assert!(pools > 1_000, "only {pools} pools compared");
    }

    #[test]
    fn suite_transitions_match_the_reference_kernel() {
        // Every candidate pack the search considers on the paper suite gets
        // the incremental verdict compared with `packs_legal`, every
        // transition's sweep with the ascending reference, and every
        // iteration's record dedup and ranked prefix with the dedup and a
        // full sort of the materialized pool.
        assert_pipeline_matches_the_references(&suite_kernels());
    }

    #[test]
    fn corpus_and_soak_seed_transitions_match_the_reference_kernel() {
        assert_pipeline_matches_the_references(&corpus_and_soak_seed_kernels());
    }

    #[test]
    fn max_transitions_caps_every_expansion() {
        // The cap binds inside one requested operand's producer, covering
        // and group lists too, not only between operands.
        let desc = avx2_desc();
        let cfg = BeamConfig { max_transitions: 3, beam_threads: 1, ..BeamConfig::with_width(4) };
        MOST_SUCCESSORS.set(0);
        for f in suite_kernels() {
            let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
            select_packs(&ctx, &cfg).unwrap();
            assert!(MOST_SUCCESSORS.get() <= 3, "{}: {} successors", f.name, MOST_SUCCESSORS.get());
        }
        assert_eq!(MOST_SUCCESSORS.get(), 3, "the cap never bound");
    }

    /// A pack over arbitrary values (a store pack abused as a value group,
    /// as in `ctx`'s legality test).
    fn group(vals: &[ValueId]) -> Pack {
        Pack::Store {
            base: 0,
            start: 0,
            stores: vals.to_vec(),
            values: vals.to_vec(),
            elem: Type::I32,
        }
    }

    /// Freeze `f` with `packs` interned, and ask both checks whether the
    /// path `chosen` (indices into `packs`) stays legal with `new` added.
    fn verdicts(f: &Function, packs: &[Pack], chosen: &[usize], new: usize) -> (bool, bool) {
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(f, &desc, CostModel::default());
        let mut arena = Arena::default();
        let ids: Vec<PackId> = packs.iter().map(|p| arena.intern_memory(p.clone())).collect();
        let cfg = BeamConfig::default();
        let fz = FrozenCtx::freeze_from(arena, &ctx, &cfg, Instant::now()).unwrap();
        let search = Search { fz: &fz, cfg };
        let mut st = initial_state(&fz);
        for &i in chosen {
            st.push_pack(ids[i]);
        }
        let incremental = search.extends_legally(&st, ids[new], &mut Scratch::default());
        (incremental, search.legal_from_scratch(&st, ids[new]))
    }

    #[test]
    fn legality_rejects_a_cycle_between_two_packs_through_a_scalar() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 8);
        let x0 = b.load(p, 0);
        let x1 = b.load(p, 1);
        let a1 = b.add(x0, x1);
        let s = b.add(a1, x0); // scalar between the packs
        let b1 = b.add(s, x1); // P2 depends on P1 through s
        let b2 = b.mul(x0, x1);
        let a2 = b.add(b2, x0); // P1 depends on P2 directly
        b.store(p, 4, b1);
        b.store(p, 5, a2);
        let f = b.finish();
        let packs = [group(&[a1, a2]), group(&[b1, b2])];
        assert_eq!(verdicts(&f, &packs, &[], 0), (true, true), "P1 alone is legal");
        assert_eq!(verdicts(&f, &packs, &[], 1), (true, true), "P2 alone is legal");
        assert_eq!(verdicts(&f, &packs, &[0], 1), (false, false));
        assert_eq!(verdicts(&f, &packs, &[1], 0), (false, false));
    }

    #[test]
    fn legality_follows_a_three_pack_cycle_that_no_closure_bit_shortcuts() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 8);
        let x0 = b.load(p, 0);
        let x1 = b.load(p, 1);
        let a1 = b.add(x0, x1);
        let b1 = b.add(a1, x0); // P2 => P1
        let b2 = b.mul(x0, x1);
        let c1 = b.add(b2, x0); // P3 => P2, through the other lane of P2
        let c2 = b.mul(x1, x1);
        let a2 = b.add(c2, x1); // P1 => P3
        b.store(p, 4, b1);
        b.store(p, 5, c1);
        b.store(p, 6, a2);
        let f = b.finish();
        let packs = [group(&[a1, a2]), group(&[b1, b2]), group(&[c1, c2])];
        for (chosen, new) in [(vec![1], 0), (vec![2], 0), (vec![1], 2), (vec![0, 1], 2)] {
            let expect = chosen.len() < 2;
            assert_eq!(verdicts(&f, &packs, &chosen, new), (expect, expect), "{chosen:?}+{new}");
        }
        assert_eq!(verdicts(&f, &packs, &[1, 2], 0), (false, false));
        assert_eq!(verdicts(&f, &packs, &[2, 0], 1), (false, false));
    }

    #[test]
    fn legality_rejects_a_load_pack_ordered_through_an_outside_store() {
        // l1 reads the cell an intervening store of l0 writes: the pack
        // {l0, l1} depends on itself through the store.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let l0 = b.load(p, 0);
        b.store(p, 1, l0);
        let l1 = b.load(p, 1);
        b.store(p, 2, l1);
        let f = b.finish();
        let cover =
            Pack::Load { base: 0, start: 0, loads: vec![Some(l0), Some(l1)], elem: Type::I32 };
        assert_eq!(verdicts(&f, &[cover], &[], 0), (false, false));
    }

    #[test]
    fn legality_rejects_a_value_defined_twice() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let l0 = b.load(p, 0);
        b.store(p, 1, l0);
        let f = b.finish();
        let twice =
            Pack::Load { base: 0, start: 0, loads: vec![Some(l0), Some(l0)], elem: Type::I32 };
        assert_eq!(verdicts(&f, &[twice], &[], 0), (false, false));
    }

    #[test]
    fn legality_accepts_a_direct_edge_inside_one_pack() {
        // `packs_legal` drops edges that stay inside a pack, so a pack
        // whose lanes depend on each other directly is (to this check)
        // legal; the incremental check must agree.
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x0 = b.load(p, 0);
        let a = b.add(x0, x0);
        let c = b.add(a, x0);
        b.store(p, 1, c);
        let f = b.finish();
        assert_eq!(verdicts(&f, &[group(&[a, c])], &[], 0), (true, true));
    }

    #[test]
    fn the_root_sweep_kills_a_three_deep_dead_chain() {
        let mut b = FunctionBuilder::new("t");
        let p = b.param("A", Type::I32, 4);
        let x = b.load(p, 0);
        let c1 = b.add(x, x);
        let c2 = b.add(c1, c1);
        let c3 = b.add(c2, c2); // never used: the chain is dead from its top
        let y = b.load(p, 1);
        let st_y = b.store(p, 2, y);
        let f = b.finish();
        let desc = avx2_desc();
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig::default();
        let fz = FrozenCtx::freeze(&ctx, &cfg, Instant::now()).unwrap();
        let search = Search { fz: &fz, cfg };
        let mut st = initial_state(&fz);
        // (`sweep_dead` itself compares with the ascending reference,
        // which needs four passes here.)
        search.sweep_dead(&mut st, true, &mut Vec::new(), &mut Vec::new());
        for v in [x, c1, c2, c3] {
            assert!(!st.is_free(v), "{v} must be swept");
            assert_eq!(st.prod(v), Prod::Dead);
        }
        for v in [y, st_y] {
            assert!(st.is_free(v), "{v} is demanded (or feeds a demand) and must stay");
        }
    }
}
