//! Offline spec auditing: static verification of the pseudocode → VIDL →
//! match-table chain.
//!
//! The offline artifacts — pseudocode [`Spec`]s, their lifted
//! [`InstSemantics`], and the [`TargetDesc`] match table derived from them
//! — are trusted by every compile. This pass audits the whole chain
//! without compiling anything:
//!
//! 1. **Width/type audit**: every instruction's VIDL is re-checked
//!    (collecting *all* violations, with lane-level locations), output
//!    register widths must equal the declared bit width, and narrow
//!    integer arithmetic hidden under a widening cast (a C-promotion
//!    violation that would never match front-end IR) is flagged.
//! 2. **Source-chain audit**: each spec is re-run through the offline
//!    pipeline (parse → symeval → simplify → lift → validate) and the
//!    fresh semantics are compared per lane — ignoring operation *names*,
//!    which are display-only — against what the database actually carries,
//!    so any drift between pseudocode and shipped semantics is caught.
//! 3. **Match-table consistency**: overlapping rules (identical lane
//!    operations and bindings) are errors when ambiguous (duplicate name
//!    or equal cost) and warnings with a deterministic tie-break proof
//!    otherwise; dead rules (lanes whose canonicalized pattern can never
//!    match) and cost anomalies (non-positive, non-finite, or
//!    non-monotone-in-width costs) are reported.
//! 4. **Faithfulness + liberties**: each match rule's pattern is proved
//!    equal to its lane's operation semantics over the hash-consed
//!    [`crate::provenance`] expression arena; lanes the canonicalizer
//!    rewrote beyond the arena's normal form fall back to 64 random
//!    trials of [`vegen_vidl::eval_expr`] on both trees. The matcher's
//!    liberties — commutative operand swapping and cmp/select inversion —
//!    are verified against the concrete evaluator on the same NaN-free
//!    domain the offline validator samples.
//!
//! All findings use the shared [`Diagnostic`] type with
//! [`Location::Inst`] instruction/lane locations, so `vegen-engine
//! check-specs` can gate CI on error severity exactly like the per-compile
//! passes do.

use crate::diag::{Diagnostic, Location, Severity};
use crate::provenance::{canonical_pred, eval_pattern, Arena};
use std::collections::HashMap;
use vegen_ir::interp::{eval_bin, eval_cmp};
use vegen_ir::rng::TrialRng;
use vegen_ir::{BinOp, CastOp, CmpPred, Constant, Type};
use vegen_isa::specs::{all_specs, Spec};
use vegen_isa::{InstDb, InstDef, TargetIsa};
use vegen_match::table::RegisteredOp;
use vegen_match::{OpId, TargetDesc};
use vegen_vidl::{check_inst_all, eval_expr, Expr, InstSemantics, Operation};

/// Structural statistics of a built match table, surfaced in engine
/// reports independently of the full audit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatchTableStats {
    /// Prepared match rules (one per instruction in the database).
    pub rules: usize,
    /// Deduplicated operations in the registry.
    pub ops: usize,
    /// Rules with at least one lane whose pattern can never match.
    pub dead_rules: usize,
    /// Size of the largest class of rules with identical lane operations
    /// and bindings (1 = no overlap).
    pub max_overlap_class: usize,
}

/// The outcome of auditing one target's spec chain.
#[derive(Debug, Clone, Default)]
pub struct SpecCheckReport {
    /// Target display name.
    pub target: String,
    /// Instructions audited.
    pub insts_checked: usize,
    /// Lanes whose match pattern was proved equal to the semantics
    /// symbolically (same arena id).
    pub lanes_proved: usize,
    /// Lanes proved by the 64-trial dynamic fallback (canonicalizer
    /// rewrites outside the arena's normal form).
    pub lanes_validated: usize,
    /// Match-table statistics.
    pub stats: MatchTableStats,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl SpecCheckReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when the audit found no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// One-line human-readable summary.
    pub fn verdict(&self) -> String {
        if self.is_clean() {
            format!(
                "spec audit {}: {} instructions clean — {} lanes proved symbolically, {} \
                 validated dynamically, {} rules / {} ops, {} dead, {} warnings",
                self.target,
                self.insts_checked,
                self.lanes_proved,
                self.lanes_validated,
                self.stats.rules,
                self.stats.ops,
                self.stats.dead_rules,
                self.warning_count()
            )
        } else {
            format!(
                "spec audit {}: REJECTED — {} errors across {} instructions",
                self.target,
                self.error_count(),
                self.insts_checked
            )
        }
    }
}

/// The built-in specs a target's database is built from.
pub fn target_specs(target: &TargetIsa) -> Vec<Spec> {
    all_specs().iter().filter(|s| target.has(s.ext) && s.bits <= target.max_bits).cloned().collect()
}

/// Audit the built-in spec chain for one target configuration.
pub fn check_target(target: &TargetIsa, canonicalize_patterns: bool) -> SpecCheckReport {
    let db = InstDb::for_target(target);
    check_database(&target.name, &target_specs(target), &db, canonicalize_patterns)
}

/// Audit an explicit database against its source specs.
///
/// `specs` are matched to database entries by name; this is the entry
/// point for corruption testing, where the database is a deliberately
/// mutated copy while the specs stay pristine.
pub fn check_database(
    target_name: &str,
    specs: &[Spec],
    db: &InstDb,
    canonicalize_patterns: bool,
) -> SpecCheckReport {
    let mut report = SpecCheckReport {
        target: target_name.to_string(),
        insts_checked: db.len(),
        ..SpecCheckReport::default()
    };
    let diags = &mut report.diagnostics;

    for (index, def) in db.iter().enumerate() {
        audit_widths(index, def, diags);
    }
    audit_spec_sources(specs, db, diags);

    let desc = match TargetDesc::try_build(db, canonicalize_patterns) {
        Ok(desc) => desc,
        Err(e) => {
            let (inst, lane) = match &e {
                vegen_match::TableError::UnknownOperation { inst, lane, .. }
                | vegen_match::TableError::BadPattern { inst, lane, .. } => (inst, *lane),
            };
            let index = db.iter().position(|d| &d.name == inst).unwrap_or(0);
            diags.push(Diagnostic::error(
                Location::Inst { index, lane: Some(lane) },
                format!("match table cannot be built: {e}"),
            ));
            return report;
        }
    };

    report.stats = audit_match_table(&desc, diags);

    let mut arena = Arena::default();
    let (proved, validated) = audit_faithfulness(&mut arena, &desc, diags);
    report.lanes_proved = proved;
    report.lanes_validated = validated;

    audit_liberties(&mut arena, &desc, diags);
    report
}

/// The structural statistics alone, without running the audit — cheap
/// enough for every engine report.
pub fn match_table_stats(desc: &TargetDesc) -> MatchTableStats {
    audit_match_table(desc, &mut Vec::new())
}

// ---------------------------------------------------------------------------
// 1. Width and type audit
// ---------------------------------------------------------------------------

fn audit_widths(index: usize, def: &InstDef, diags: &mut Vec<Diagnostic>) {
    for v in check_inst_all(&def.sem, None) {
        diags.push(Diagnostic::error(
            Location::Inst { index, lane: v.lane },
            format!("{}: {}", def.name, v.message),
        ));
    }
    if def.sem.out_bits() != def.bits {
        diags.push(Diagnostic::error(
            Location::Inst { index, lane: None },
            format!(
                "{}: declared output width is {} bits but the semantics produce {} lanes of {} \
                 ({} bits)",
                def.name,
                def.bits,
                def.sem.out_lanes(),
                def.sem.out_elem,
                def.sem.out_bits()
            ),
        ));
    }
    for op in &def.sem.ops {
        scan_promotion(index, &def.name, op, &op.expr, diags);
    }
}

/// Flag widening casts of narrow integer arithmetic: specs are written at
/// the C-promotion width precisely so their patterns match front-end IR,
/// and `sext(add_i8(..))`-shaped semantics break that convention.
fn scan_promotion(index: usize, inst: &str, op: &Operation, e: &Expr, diags: &mut Vec<Diagnostic>) {
    if let Expr::Cast { op: CastOp::SExt | CastOp::ZExt, arg, .. } = e {
        if let Expr::Bin { op: bop @ (BinOp::Add | BinOp::Sub | BinOp::Mul), .. } = arg.as_ref() {
            if let Some(ty) = arg.ty(&op.params) {
                if ty.is_int() && ty.bits() < 32 {
                    diags.push(Diagnostic::warning(
                        Location::Inst { index, lane: None },
                        format!(
                            "{inst}: operation {} widens a narrow {ty} {} — arithmetic below \
                             the C-promotion width will not match front-end IR",
                            op.name,
                            bop.name()
                        ),
                    ));
                }
            }
        }
    }
    match e {
        Expr::Param(_) | Expr::Const(_) => {}
        Expr::FNeg(a) => scan_promotion(index, inst, op, a, diags),
        Expr::Cast { arg, .. } => scan_promotion(index, inst, op, arg, diags),
        Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            scan_promotion(index, inst, op, lhs, diags);
            scan_promotion(index, inst, op, rhs, diags);
        }
        Expr::Select { cond, on_true, on_false } => {
            scan_promotion(index, inst, op, cond, diags);
            scan_promotion(index, inst, op, on_true, diags);
            scan_promotion(index, inst, op, on_false, diags);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Source-chain audit
// ---------------------------------------------------------------------------

/// Re-run the offline pipeline for every spec and compare the fresh
/// artifacts against what the database carries.
fn audit_spec_sources(specs: &[Spec], db: &InstDb, diags: &mut Vec<Diagnostic>) {
    let by_name: HashMap<&str, &Spec> = specs.iter().map(|s| (s.name.as_str(), s)).collect();
    for (index, def) in db.iter().enumerate() {
        let loc = Location::Inst { index, lane: None };
        let Some(spec) = by_name.get(def.name.as_str()) else {
            diags.push(Diagnostic::warning(
                loc,
                format!(
                    "{}: no source spec found; the pseudocode chain cannot be re-audited",
                    def.name
                ),
            ));
            continue;
        };
        let fresh = match spec.build() {
            Ok(f) => f,
            Err(e) => {
                diags.push(Diagnostic::error(
                    loc,
                    format!("{}: offline pipeline fails on the source spec: {e}", def.name),
                ));
                continue;
            }
        };
        if def.bits != fresh.bits {
            diags.push(Diagnostic::error(
                loc,
                format!(
                    "{}: database width {} diverges from spec width {}",
                    def.name, def.bits, fresh.bits
                ),
            ));
        }
        if def.ext != fresh.ext {
            diags.push(Diagnostic::error(
                loc,
                format!(
                    "{}: database extension gate {:?} diverges from spec gate {:?}",
                    def.name, def.ext, fresh.ext
                ),
            ));
        }
        if (def.cost - fresh.cost).abs() > 1e-12 {
            diags.push(Diagnostic::error(
                loc,
                format!(
                    "{}: database cost {} diverges from 2x the spec's inverse throughput ({})",
                    def.name, def.cost, fresh.cost
                ),
            ));
        }
        compare_semantics(index, &def.name, &fresh.sem, &def.sem, diags);
    }
}

/// Per-lane structural comparison ignoring operation *names* (display
/// metadata): a renamed operation is semantically neutral; anything else
/// that differs is drift.
fn compare_semantics(
    index: usize,
    name: &str,
    fresh: &InstSemantics,
    got: &InstSemantics,
    diags: &mut Vec<Diagnostic>,
) {
    if got.inputs != fresh.inputs {
        diags.push(Diagnostic::error(
            Location::Inst { index, lane: None },
            format!(
                "{name}: input shapes {:?} diverge from the lifted semantics {:?}",
                got.inputs, fresh.inputs
            ),
        ));
    }
    if got.out_elem != fresh.out_elem {
        diags.push(Diagnostic::error(
            Location::Inst { index, lane: None },
            format!(
                "{name}: output element type {} diverges from the lifted semantics {}",
                got.out_elem, fresh.out_elem
            ),
        ));
    }
    if got.lanes.len() != fresh.lanes.len() {
        diags.push(Diagnostic::error(
            Location::Inst { index, lane: None },
            format!(
                "{name}: {} output lanes diverge from the lifted semantics ({} lanes)",
                got.lanes.len(),
                fresh.lanes.len()
            ),
        ));
        return;
    }
    for (lane, (gb, fb)) in got.lanes.iter().zip(&fresh.lanes).enumerate() {
        let loc = Location::Inst { index, lane: Some(lane) };
        if gb.args != fb.args {
            diags.push(Diagnostic::error(
                loc,
                format!(
                    "{name}: lane binding reads {:?} but the spec's pseudocode reads {:?}",
                    gb.args, fb.args
                ),
            ));
        }
        match (got.ops.get(gb.op), fresh.ops.get(fb.op)) {
            (Some(g), Some(f)) => {
                if g.params != f.params || g.ret != f.ret || g.expr != f.expr {
                    diags.push(Diagnostic::error(
                        loc,
                        format!(
                            "{name}: lane operation {} diverges semantically from the spec's \
                             pseudocode",
                            g.name
                        ),
                    ));
                }
            }
            _ => diags.push(Diagnostic::error(
                loc,
                format!("{name}: lane references an out-of-range operation"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Match-table consistency
// ---------------------------------------------------------------------------

fn audit_match_table(desc: &TargetDesc, diags: &mut Vec<Diagnostic>) -> MatchTableStats {
    let mut stats = MatchTableStats {
        rules: desc.insts.len(),
        ops: desc.ops.len(),
        dead_rules: 0,
        max_overlap_class: if desc.insts.is_empty() { 0 } else { 1 },
    };

    // Overlap classes: rules indistinguishable to the vectorizer (same
    // per-lane operations and the same operand-binding tables).
    let mut classes: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    for (i, inst) in desc.insts.iter().enumerate() {
        classes.entry(class_key(inst)).or_default().push(i);
    }
    let mut overlaps: Vec<&Vec<usize>> = classes.values().filter(|c| c.len() > 1).collect();
    overlaps.sort_by_key(|c| c[0]);
    for class in overlaps {
        stats.max_overlap_class = stats.max_overlap_class.max(class.len());
        // Deterministic tie-break: lowest cost wins, name as secondary key.
        let mut ranked: Vec<usize> = class.clone();
        ranked.sort_by(|&a, &b| {
            let (ia, ib) = (&desc.insts[a].def, &desc.insts[b].def);
            ia.cost
                .partial_cmp(&ib.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ia.name.cmp(&ib.name))
        });
        let names: Vec<&str> = ranked.iter().map(|&i| desc.insts[i].def.name.as_str()).collect();
        let dup_name =
            ranked.windows(2).find(|w| desc.insts[w[0]].def.name == desc.insts[w[1]].def.name);
        let (winner, runner_up) = (&desc.insts[ranked[0]].def, &desc.insts[ranked[1]].def);
        if let Some(w) = dup_name {
            diags.push(Diagnostic::error(
                Location::Inst { index: w[1], lane: None },
                format!(
                    "duplicate match rule: {} appears {} times with identical lane semantics",
                    desc.insts[w[0]].def.name,
                    ranked
                        .iter()
                        .filter(|&&i| desc.insts[i].def.name == desc.insts[w[0]].def.name)
                        .count()
                ),
            ));
        } else if winner.cost == runner_up.cost {
            diags.push(Diagnostic::error(
                Location::Inst { index: ranked[0], lane: None },
                format!(
                    "ambiguous match rules: {} have identical lane semantics and equal cost {} — \
                     selection order is unspecified",
                    names.join(", "),
                    winner.cost
                ),
            ));
        } else {
            diags.push(Diagnostic::warning(
                Location::Inst { index: ranked[0], lane: None },
                format!(
                    "overlapping match rules [{}]: deterministic tie-break — {} wins at cost {} \
                     (next: {} at {})",
                    names.join(", "),
                    winner.name,
                    winner.cost,
                    runner_up.name,
                    runner_up.cost
                ),
            ));
        }
    }

    // Dead and trivial rules.
    for (i, inst) in desc.insts.iter().enumerate() {
        let mut dead = false;
        for (lane, &op_id) in inst.lane_ops.iter().enumerate() {
            match &desc.ops.get(op_id).pattern {
                Expr::Const(c) => {
                    dead = true;
                    diags.push(Diagnostic::warning(
                        Location::Inst { index: i, lane: Some(lane) },
                        format!(
                            "{}: lane pattern folded to the constant {c}; constants are never \
                             pattern roots, so this rule is dead",
                            inst.def.name
                        ),
                    ));
                }
                Expr::Param(_) => {
                    diags.push(Diagnostic::warning(
                        Location::Inst { index: i, lane: Some(lane) },
                        format!(
                            "{}: lane pattern is a bare parameter and matches any value of its \
                             type",
                            inst.def.name
                        ),
                    ));
                }
                _ => {}
            }
        }
        if dead {
            stats.dead_rules += 1;
        }
    }

    // Cost anomalies.
    let mut by_asm: HashMap<&str, Vec<(u32, f64, usize)>> = HashMap::new();
    for (i, inst) in desc.insts.iter().enumerate() {
        let def = &inst.def;
        if !(def.cost.is_finite() && def.cost > 0.0) {
            diags.push(Diagnostic::error(
                Location::Inst { index: i, lane: None },
                format!("{}: cost {} is not a positive finite number", def.name, def.cost),
            ));
        }
        by_asm.entry(def.asm.as_str()).or_default().push((def.bits, def.cost, i));
    }
    for (asm, mut widths) in by_asm {
        widths.sort_by_key(|&(bits, _, _)| bits);
        for w in widths.windows(2) {
            let ((b1, c1, _), (b2, c2, i2)) = (w[0], w[1]);
            if b2 > b1 && c2 < c1 {
                diags.push(Diagnostic::warning(
                    Location::Inst { index: i2, lane: None },
                    format!(
                        "{asm}: cost {c2} at {b2} bits undercuts cost {c1} at {b1} bits — \
                         non-monotone cost table"
                    ),
                ));
            }
        }
    }
    stats
}

/// A stable hash key for a rule's vectorizer-visible identity: lane
/// operation ids plus the operand-binding tables.
fn class_key(inst: &vegen_match::DescInst) -> Vec<u8> {
    let mut key = Vec::new();
    for op in &inst.lane_ops {
        key.extend_from_slice(&(op.0 as u64).to_le_bytes());
    }
    key.push(0xff);
    for input in &inst.bindings {
        key.push(0xfe);
        for lane_uses in input {
            key.push(0xfd);
            for u in lane_uses {
                key.extend_from_slice(&(u.out_lane as u32).to_le_bytes());
                key.extend_from_slice(&(u.param as u32).to_le_bytes());
            }
        }
    }
    key
}

// ---------------------------------------------------------------------------
// 4. Faithfulness: match rule ≡ lane semantics
// ---------------------------------------------------------------------------

/// How one registered operation settled against one lane operation body.
enum Settled {
    /// Equal in the symbolic arena.
    Proved,
    /// Equal on the 64-trial dynamic fallback.
    Validated,
    /// Not shown equal: every lane using the pair reports this error at
    /// its own location, after its instruction's name when `named`.
    Failed { named: bool, message: String },
}

/// Prove each lane's match pattern equal to its operation body. A proof
/// depends only on the registered operation and the body, so each
/// `(OpId, body)` pair is settled once — most lanes of a SIMD instruction,
/// and the same operation at every register width, share one — while the
/// counts and diagnostics stay per lane.
fn audit_faithfulness(
    arena: &mut Arena,
    desc: &TargetDesc,
    diags: &mut Vec<Diagnostic>,
) -> (usize, usize) {
    let mut proved = 0usize;
    let mut validated = 0usize;
    let mut settled: Vec<Settled> = Vec::new();
    let mut by_body: HashMap<(OpId, &Expr), usize> = HashMap::new();
    for (index, inst) in desc.insts.iter().enumerate() {
        for (lane, &op_id) in inst.lane_ops.iter().enumerate() {
            let at = Location::Inst { index, lane: Some(lane) };
            let reg = desc.ops.get(op_id);
            let binding = &inst.def.sem.lanes[lane];
            let vidl_op = &inst.def.sem.ops[binding.op];
            if reg.param_tys != vidl_op.params || reg.ret != vidl_op.ret {
                diags.push(Diagnostic::error(
                    at,
                    format!(
                        "{}: registered matcher signature diverges from the lane operation {}",
                        inst.def.name, vidl_op.name
                    ),
                ));
                continue;
            }
            let s = *by_body.entry((op_id, &vidl_op.expr)).or_insert_with(|| {
                settled.push(settle(arena, reg, vidl_op));
                settled.len() - 1
            });
            match &settled[s] {
                Settled::Proved => proved += 1,
                Settled::Validated => validated += 1,
                Settled::Failed { named: true, message } => {
                    diags.push(Diagnostic::error(at, format!("{}: {message}", inst.def.name)))
                }
                Settled::Failed { named: false, message } => {
                    diags.push(Diagnostic::error(at, message.clone()))
                }
            }
        }
    }
    (proved, validated)
}

/// Settle one registered operation against a lane operation body of the
/// same signature.
fn settle(arena: &mut Arena, reg: &RegisteredOp, vidl_op: &Operation) -> Settled {
    // Errors are re-located per lane; the location here is a placeholder.
    let at = Location::Program;
    let params: Vec<_> =
        vidl_op.params.iter().enumerate().map(|(j, &ty)| arena.mk_init(j, 0, ty)).collect();
    let sem_unbound = |i| Diagnostic::error(at, format!("operation parameter {i} is out of range"));
    let pat_unbound =
        |i| Diagnostic::error(at, format!("pattern parameter {i} has no lane binding"));
    let sides = eval_pattern(arena, &vidl_op.expr, &params, &sem_unbound)
        .and_then(|sem| Ok((sem, eval_pattern(arena, &reg.pattern, &params, &pat_unbound)?)));
    let (sem_side, pat_side) = match sides {
        Ok(sides) => sides,
        Err(d) => return Settled::Failed { named: false, message: d.message },
    };
    if sem_side == pat_side {
        return Settled::Proved;
    }
    // The canonicalizer applies rewrites the arena's normal form does not
    // model (strict-inequality rewriting, trunc sinking, extension
    // narrowing); fall back to random trials on the same NaN-free domain
    // the offline validator uses.
    match concrete_equiv(vidl_op, &reg.pattern, 64) {
        Ok(()) => Settled::Validated,
        Err(msg) => {
            let names: Vec<String> = (0..vidl_op.params.len()).map(|j| format!("x{j}")).collect();
            let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            Settled::Failed {
                named: true,
                message: format!(
                    "match pattern diverges from lane semantics ({}): semantics {} vs pattern {}",
                    msg,
                    arena.render_named(&names, sem_side),
                    arena.render_named(&names, pat_side)
                ),
            }
        }
    }
}

/// 64-trial concrete equivalence of an operation body and its
/// canonicalized pattern.
fn concrete_equiv(op: &Operation, pat: &Expr, trials: usize) -> Result<(), String> {
    let mut rng = TrialRng::new(0x5eed_0002);
    for trial in 0..trials {
        let vals: Vec<Constant> = op.params.iter().map(|&ty| rng.draw(ty)).collect();
        let sem = eval_expr(&op.expr, &vals).map_err(|e| e.to_string());
        let got = eval_expr(pat, &vals).map_err(|e| e.to_string());
        match (&sem, &got) {
            (Ok(a), Ok(b)) if a == b => {}
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "trial {trial} diverges on inputs {vals:?}: semantics {sem:?}, pattern {got:?}"
                ))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// 5. Commutativity and inversion closure
// ---------------------------------------------------------------------------

/// Verify the matcher's liberties — commutative operand swapping, cmp
/// operand swapping, and select/cmp inversion — against the concrete
/// evaluator, and check that the symbolic arena's normal form actually
/// closes over them.
fn audit_liberties(arena: &mut Arena, desc: &TargetDesc, diags: &mut Vec<Diagnostic>) {
    let mut bin_ops: Vec<BinOp> = Vec::new();
    let mut preds: Vec<CmpPred> = Vec::new();
    for inst in &desc.insts {
        for op in &inst.def.sem.ops {
            collect_ops(&op.expr, &mut bin_ops, &mut preds);
        }
    }
    for (_, reg) in desc.ops.iter() {
        collect_ops(&reg.pattern, &mut bin_ops, &mut preds);
    }
    bin_ops.sort();
    bin_ops.dedup();
    preds.sort();
    preds.dedup();

    let int_tys = [Type::I8, Type::I16, Type::I32, Type::I64];
    let float_tys = [Type::F32, Type::F64];
    let mut rng = TrialRng::new(0x5eed_0003);

    for &op in bin_ops.iter().filter(|o| o.is_commutative()) {
        let tys: &[Type] = if op.is_float() { &float_tys } else { &int_tys };
        for &ty in tys {
            for _ in 0..64 {
                let (a, b) = (rng.draw(ty), rng.draw(ty));
                let fwd = eval_bin(op, a, b);
                let rev = eval_bin(op, b, a);
                let agree = matches!((&fwd, &rev), (Ok(x), Ok(y)) if x == y)
                    || matches!((&fwd, &rev), (Err(_), Err(_)));
                if !agree {
                    diags.push(Diagnostic::error(
                        Location::Program,
                        format!(
                            "declared-commutative {} is not commutative on {ty}: {}({a:?}, \
                             {b:?}) = {fwd:?} but swapped = {rev:?}",
                            op.name(),
                            op.name()
                        ),
                    ));
                    break;
                }
            }
            // Arena closure: both operand orders intern to one id.
            let x = arena.mk_init(0, 0, ty);
            let y = arena.mk_init(1, 0, ty);
            if arena.mk_bin(op, x, y) != arena.mk_bin(op, y, x) {
                diags.push(Diagnostic::error(
                    Location::Program,
                    format!("arena does not normalize commutative {} on {ty}", op.name()),
                ));
            }
        }
    }

    for &pred in &preds {
        let tys: &[Type] = if pred.is_float() { &float_tys } else { &int_tys };
        for &ty in tys {
            for _ in 0..64 {
                let (a, b) = (rng.draw(ty), rng.draw(ty));
                let cmp = |p, x, y| eval_cmp(p, x, y).map(Constant::as_u64);
                let base = cmp(pred, a, b);
                if cmp(pred.swapped(), b, a) != base {
                    diags.push(Diagnostic::error(
                        Location::Program,
                        format!(
                            "swapped predicate law fails for {} on {ty} at ({a:?}, {b:?})",
                            pred.name()
                        ),
                    ));
                    break;
                }
                if cmp(pred.inverse(), a, b) != base.clone().map(|v| 1 - v) {
                    diags.push(Diagnostic::error(
                        Location::Program,
                        format!(
                            "inverse predicate law fails for {} on {ty} at ({a:?}, {b:?}) — \
                             NaN-free domain assumed",
                            pred.name()
                        ),
                    ));
                    break;
                }
            }
            // Arena closure: swapped comparisons intern to one id, and a
            // select over a non-canonical predicate equals its inverted,
            // arm-swapped rewrite.
            let x = arena.mk_init(0, 0, ty);
            let y = arena.mk_init(1, 0, ty);
            if arena.mk_cmp(pred, x, y) != arena.mk_cmp(pred.swapped(), y, x) {
                diags.push(Diagnostic::error(
                    Location::Program,
                    format!("arena does not normalize swapped {} on {ty}", pred.name()),
                ));
            }
            if !canonical_pred(pred) {
                let t = arena.mk_init(2, 0, ty);
                let f = arena.mk_init(3, 0, ty);
                let c1 = arena.mk_cmp(pred, x, y);
                let s1 = arena.mk_select(c1, t, f);
                let c2 = arena.mk_cmp(pred.inverse(), x, y);
                let s2 = arena.mk_select(c2, f, t);
                if s1 != s2 {
                    diags.push(Diagnostic::error(
                        Location::Program,
                        format!("arena select inversion is not closed for {} on {ty}", pred.name()),
                    ));
                }
            }
        }
    }
}

fn collect_ops(e: &Expr, bin_ops: &mut Vec<BinOp>, preds: &mut Vec<CmpPred>) {
    match e {
        Expr::Param(_) | Expr::Const(_) => {}
        Expr::FNeg(a) => collect_ops(a, bin_ops, preds),
        Expr::Cast { arg, .. } => collect_ops(arg, bin_ops, preds),
        Expr::Bin { op, lhs, rhs } => {
            bin_ops.push(*op);
            collect_ops(lhs, bin_ops, preds);
            collect_ops(rhs, bin_ops, preds);
        }
        Expr::Cmp { pred, lhs, rhs } => {
            preds.push(*pred);
            collect_ops(lhs, bin_ops, preds);
            collect_ops(rhs, bin_ops, preds);
        }
        Expr::Select { cond, on_true, on_false } => {
            collect_ops(cond, bin_ops, preds);
            collect_ops(on_true, bin_ops, preds);
            collect_ops(on_false, bin_ops, preds);
        }
    }
}

// ---------------------------------------------------------------------------
// Deliberate corruption, for the CI smoke and the seeded corruption tests
// ---------------------------------------------------------------------------

/// Apply one named corruption to a database — support for the seeded
/// corruption tests and the `check-specs --corrupt KIND` CI smoke, which
/// both assert the audit rejects the mutated database and names the
/// mutated instruction. Returns the corrupted database and the name of
/// the instruction that was mutated.
///
/// Kinds: `lane-swap` (swap the first two output-lane bindings),
/// `widen` (widen the output element type without touching the declared
/// register width), `flip-cmp` (invert the first comparison predicate in
/// some operation body), `dup-rule` (append a byte-identical copy of the
/// first instruction), `neg-cost` (set the first instruction's cost to
/// −1), `rename-op` (rename a lane operation — display metadata only,
/// which the audit must *accept*).
pub fn corrupt_database(db: &InstDb, kind: &str) -> Result<(InstDb, String), String> {
    let mut defs: Vec<InstDef> = db.iter().cloned().collect();
    let name = match kind {
        "lane-swap" => {
            let d = defs
                .iter_mut()
                .find(|d| d.sem.lanes.len() >= 2 && d.sem.lanes[0] != d.sem.lanes[1])
                .ok_or("no instruction with two distinct lane bindings")?;
            d.sem.lanes.swap(0, 1);
            d.name.clone()
        }
        "widen" => {
            let d = defs
                .iter_mut()
                .find(|d| matches!(d.sem.out_elem, Type::I8 | Type::I16 | Type::I32 | Type::F32))
                .ok_or("no instruction with a widenable output element")?;
            d.sem.out_elem = match d.sem.out_elem {
                Type::I8 => Type::I16,
                Type::I16 => Type::I32,
                Type::I32 => Type::I64,
                Type::F32 => Type::F64,
                t => t,
            };
            d.name.clone()
        }
        "flip-cmp" => defs
            .iter_mut()
            .find_map(|d| {
                d.sem.ops.iter_mut().any(|op| flip_first_cmp(&mut op.expr)).then(|| d.name.clone())
            })
            .ok_or("no instruction with a comparison")?,
        "dup-rule" => {
            let d = defs.first().ok_or("empty database")?.clone();
            let name = d.name.clone();
            defs.push(d);
            name
        }
        "neg-cost" => {
            let d = defs.first_mut().ok_or("empty database")?;
            d.cost = -1.0;
            d.name.clone()
        }
        "rename-op" => {
            let d = defs.first_mut().ok_or("empty database")?;
            let op = d.sem.ops.first_mut().ok_or("instruction has no operations")?;
            op.name = format!("{}_renamed", op.name);
            d.name.clone()
        }
        other => Err(format!(
            "unknown corruption {other:?} (expect lane-swap|widen|flip-cmp|dup-rule|neg-cost|\
             rename-op)"
        ))?,
    };
    Ok((InstDb::from_defs(defs), name))
}

/// Invert the first comparison predicate found in `e`; true when one was.
fn flip_first_cmp(e: &mut Expr) -> bool {
    match e {
        Expr::Param(_) | Expr::Const(_) => false,
        Expr::FNeg(a) => flip_first_cmp(a),
        Expr::Cast { arg, .. } => flip_first_cmp(arg),
        Expr::Bin { lhs, rhs, .. } => flip_first_cmp(lhs) || flip_first_cmp(rhs),
        Expr::Cmp { pred, .. } => {
            *pred = pred.inverse();
            true
        }
        Expr::Select { cond, on_true, on_false } => {
            flip_first_cmp(cond) || flip_first_cmp(on_true) || flip_first_cmp(on_false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_tree_avx2_audits_clean() {
        let r = check_target(&TargetIsa::avx2(), true);
        assert!(
            r.is_clean(),
            "in-tree AVX2 specs must audit clean:\n{}",
            r.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert!(r.insts_checked >= 50, "expected a substantial database, got {}", r.insts_checked);
        assert!(r.lanes_proved > 0, "some lanes must be proved symbolically");
        assert_eq!(r.stats.rules, r.insts_checked);
        assert!(r.stats.ops > 0 && r.stats.ops < r.stats.rules * 8);
    }

    #[test]
    fn in_tree_vnni_audits_clean() {
        let r = check_target(&TargetIsa::avx512vnni(), true);
        assert!(
            r.is_clean(),
            "in-tree AVX512-VNNI specs must audit clean:\n{}",
            r.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn uncanonicalized_patterns_prove_symbolically() {
        // Without the canonicalizer, every pattern is the operation body
        // verbatim, so the symbolic proof must close every lane.
        let r = check_target(&TargetIsa::sse4(), false);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.lanes_validated, 0, "no lane should need the dynamic fallback");
    }

    /// A wrong pattern of an operation shared across lanes and
    /// instructions is settled once but reported at every lane using it,
    /// under that lane's instruction name.
    #[test]
    fn a_wrong_shared_pattern_fails_every_lane_using_it() {
        use vegen_match::OpRegistry;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let mut desc = TargetDesc::build(&db, true);
        let uses = |desc: &TargetDesc, id: OpId| -> Vec<Location> {
            let mut at = Vec::new();
            for (index, inst) in desc.insts.iter().enumerate() {
                for (lane, _) in inst.lane_ops.iter().enumerate().filter(|(_, &op)| op == id) {
                    at.push(Location::Inst { index, lane: Some(lane) });
                }
            }
            at
        };
        // The integer operation the most lanes use.
        let (bad, _) = desc
            .ops
            .iter()
            .filter(|(_, op)| op.ret.is_int())
            .max_by_key(|(id, _)| uses(&desc, *id).len())
            .unwrap();
        let expected = uses(&desc, bad);
        let sharing: std::collections::HashSet<usize> = expected
            .iter()
            .map(|l| match l {
                Location::Inst { index, .. } => *index,
                _ => unreachable!(),
            })
            .collect();
        assert!(sharing.len() >= 2, "op {bad:?} should be shared across instructions");
        let mut ops = OpRegistry::default();
        for (id, op) in desc.ops.iter() {
            let mut pattern = op.pattern.clone();
            if id == bad {
                pattern = Expr::Bin {
                    op: BinOp::Xor,
                    lhs: Box::new(pattern),
                    rhs: Box::new(Expr::Const(Constant::int(op.ret, 1))),
                };
            }
            assert_eq!(ops.intern(&op.name, op.param_tys.clone(), op.ret, pattern), id);
        }
        desc.ops = ops;
        let mut diags = Vec::new();
        let (proved, validated) = audit_faithfulness(&mut Arena::default(), &desc, &mut diags);
        let lanes: usize = desc.insts.iter().map(|i| i.out_lanes()).sum();
        assert_eq!(proved + validated + diags.len(), lanes);
        let located: Vec<Location> = diags.iter().map(|d| d.location).collect();
        assert_eq!(located, expected, "one error per lane using op {bad:?}");
        for d in &diags {
            let Location::Inst { index, .. } = d.location else { unreachable!() };
            let name = &desc.insts[index].def.name;
            assert!(d.message.starts_with(&format!("{name}: match pattern diverges")), "{d}");
        }
    }

    /// Settlements are shared per `(OpId, body)`, never per `OpId` alone:
    /// a body that no longer computes its registered pattern fails even
    /// where the same operation proved for an earlier instruction.
    #[test]
    fn each_body_is_settled_against_the_pattern() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        let mut desc = TargetDesc::build(&db, true);
        // The last instruction whose first lane's operation an earlier
        // instruction also uses.
        let first_use = |desc: &TargetDesc, id: OpId| {
            desc.insts.iter().position(|i| i.lane_ops.contains(&id)).unwrap()
        };
        let index = (0..desc.insts.len())
            .rev()
            .find(|&i| {
                let id = desc.insts[i].lane_ops[0];
                first_use(&desc, id) < i && desc.ops.get(id).ret.is_int()
            })
            .expect("an operation shared across instructions");
        let inst = &mut desc.insts[index];
        let op = inst.def.sem.lanes[0].op;
        let ret = inst.def.sem.ops[op].ret;
        let body = std::mem::replace(&mut inst.def.sem.ops[op].expr, Expr::Param(0));
        inst.def.sem.ops[op].expr = Expr::Bin {
            op: BinOp::Xor,
            lhs: Box::new(body),
            rhs: Box::new(Expr::Const(Constant::int(ret, 1))),
        };
        let expected: Vec<Location> = (0..inst.out_lanes())
            .filter(|&lane| inst.def.sem.lanes[lane].op == op)
            .map(|lane| Location::Inst { index, lane: Some(lane) })
            .collect();
        let mut diags = Vec::new();
        audit_faithfulness(&mut Arena::default(), &desc, &mut diags);
        let located: Vec<Location> = diags.iter().map(|d| d.location).collect();
        assert_eq!(located, expected, "{}", desc.insts[index].def.name);
    }

    #[test]
    fn verdict_mentions_target() {
        let r = check_target(&TargetIsa::sse4(), true);
        assert!(r.verdict().contains("SSE4"), "{}", r.verdict());
    }
}
