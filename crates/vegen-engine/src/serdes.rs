//! JSON serialization of compiled kernels for the persistent disk cache.
//!
//! The workspace builds fully offline (no serde), so every shape that
//! crosses the process boundary is encoded by hand through the in-tree
//! [`Json`] writer/parser. The encoding is designed for *byte stability*:
//! `encode(decode(encode(x))) == encode(x)` byte-for-byte, which is what
//! lets the disk cache self-check entries at store time and lets restart
//! tests compare golden packs across engine processes.
//!
//! Conventions:
//!
//! * 64-bit bit patterns ([`Constant::raw_bits`]) are lower-case hex
//!   strings — `Json::Num` is `f64` and loses integers above 2⁵³;
//! * durations are integer nanoseconds;
//! * costs stay `f64`: Rust's shortest-roundtrip `Display` guarantees
//!   render → parse → render stability;
//! * [`InstSemantics`](vegen::vidl::InstSemantics) are embedded as VIDL concrete syntax
//!   ([`vegen::vidl::print::inst_text`] / [`vegen::vidl::parse_inst`]),
//!   so cached programs are self-contained — decoding never consults the
//!   instruction database;
//! * enums are tagged objects (`{"k": "bin", ...}`) with the IR printer's
//!   stable mnemonics.
//!
//! Encoders build a [`Json`] tree and render it. Decoders read a
//! [`Node`] of the tokenized text ([`Doc::parse`]), so a disk hit never
//! builds a tree: there is one decoder per type, and [`kernel_from_json`]
//! is only an adapter for a caller that holds a tree already.
//!
//! Decoding is total: every malformed document comes back as `Err(String)`
//! naming the offending field, never a panic — the disk cache treats any
//! decode error as a corrupt entry, rejects it, and recompiles.

use crate::json::{Doc, Items, Json, Node};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Duration;
use vegen::analysis::{AnalysisReport, Diagnostic, Location, Severity};
use vegen::driver::{CompiledKernel, StageTimes, PIPELINE};
use vegen_core::beam::{
    BeamStats, CandidateLog, CommittedPack, DecisionLog, IterationLog, SelectionResult,
};
use vegen_core::pack::{Pack, PackSet, PackedMatch};
use vegen_ir::{
    BinOp, CastOp, CmpPred, Constant, Function, Inst, InstKind, MemLoc, Param, Type, ValueId,
};
use vegen_vm::{Dst, LaneSrc, Reg, VmInst, VmProgram};

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

fn field<'a>(j: Node<'a>, key: &str) -> Result<Node<'a>, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num(j: Node<'_>, key: &str) -> Result<f64, String> {
    field(j, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

/// A member holding an `f64` the encoder can write back: finite, since it
/// renders a non-finite value as `null` (`1e999` reads as infinity).
fn finite(j: Node<'_>, key: &str) -> Result<f64, String> {
    let v = num(j, key)?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("field {key:?} is not a finite number: {v}"))
    }
}

fn uint(j: Node<'_>, key: &str) -> Result<u64, String> {
    let v = num(j, key)?;
    if v < 0.0 || v != v.trunc() {
        return Err(format!("field {key:?} is not a non-negative integer: {v}"));
    }
    Ok(v as u64)
}

fn int(j: Node<'_>, key: &str) -> Result<i64, String> {
    let v = num(j, key)?;
    if v != v.trunc() {
        return Err(format!("field {key:?} is not an integer: {v}"));
    }
    Ok(v as i64)
}

fn string<'a>(j: Node<'a>, key: &str) -> Result<Cow<'a, str>, String> {
    field(j, key)?.as_str().ok_or_else(|| format!("field {key:?} is not a string"))
}

fn arr<'a>(j: Node<'a>, key: &str) -> Result<Items<'a>, String> {
    field(j, key)?.items().ok_or_else(|| format!("field {key:?} is not an array"))
}

/// The elements of array member `key`, each through `decode`, into a
/// vector allocated once.
fn list<'a, T>(
    j: Node<'a>,
    key: &str,
    mut decode: impl FnMut(Node<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = arr(j, key)?;
    let mut out = Vec::with_capacity(items.clone().count());
    for item in items {
        out.push(decode(item)?);
    }
    Ok(out)
}

fn boolean(j: Node<'_>, key: &str) -> Result<bool, String> {
    field(j, key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a boolean"))
}

fn hex_u64(j: Node<'_>, key: &str) -> Result<u64, String> {
    let s = string(j, key)?;
    u64::from_str_radix(&s, 16).map_err(|e| format!("field {key:?} is not hex: {e}"))
}

fn nanos(j: Node<'_>, key: &str) -> Result<Duration, String> {
    Ok(Duration::from_nanos(uint(j, key)?))
}

fn duration_json(d: Duration) -> Json {
    Json::int(d.as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// IR scalars
// ---------------------------------------------------------------------------

/// A member that names an IR scalar through `vegen_ir`'s one name table;
/// `what` is the vocabulary, for the error.
fn named<T>(j: Node<'_>, key: &str, what: &str, find: fn(&str) -> Option<T>) -> Result<T, String> {
    let s = string(j, key)?;
    find(&s).ok_or_else(|| format!("unknown {what} {s:?}"))
}

fn ty_of(j: Node<'_>, key: &str) -> Result<Type, String> {
    named(j, key, "type", Type::from_name)
}

fn constant_json(c: Constant) -> Json {
    Json::obj([
        ("ty", Json::str(c.ty().name())),
        ("bits", Json::str(format!("{:x}", c.raw_bits()))),
    ])
}

fn constant_from(j: Node<'_>) -> Result<Constant, String> {
    let ty = ty_of(j, "ty")?;
    let bits = hex_u64(j, "bits")?;
    Ok(match ty {
        Type::I1 => Constant::bool(bits & 1 == 1),
        Type::F32 => Constant::f32(f32::from_bits(bits as u32)),
        Type::F64 => Constant::f64(f64::from_bits(bits)),
        // `Constant::int` masks to the type width, so the raw bit pattern
        // round-trips exactly for every integer type.
        _ => Constant::int(ty, bits as i64),
    })
}

fn value_json(v: ValueId) -> Json {
    Json::int(v.index() as u64)
}

fn value_from(j: Node<'_>) -> Result<ValueId, String> {
    let v = j.as_f64().ok_or("value id is not a number")?;
    if v < 0.0 || v != v.trunc() {
        return Err(format!("bad value id {v}"));
    }
    Ok(ValueId::from_raw(v as u32))
}

fn opt_value_json(v: Option<ValueId>) -> Json {
    v.map_or(Json::Null, value_json)
}

fn opt_value_from(j: Node<'_>) -> Result<Option<ValueId>, String> {
    if j.is_null() {
        Ok(None)
    } else {
        value_from(j).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Function
// ---------------------------------------------------------------------------

fn param_json(p: &Param) -> Json {
    Json::obj([
        ("name", Json::str(&p.name)),
        ("ty", Json::str(p.elem_ty.name())),
        ("len", Json::int(p.len as u64)),
    ])
}

fn param_from(j: Node<'_>) -> Result<Param, String> {
    Ok(Param {
        name: string(j, "name")?.into_owned(),
        elem_ty: ty_of(j, "ty")?,
        len: uint(j, "len")? as usize,
    })
}

/// An instruction over any operand handle, each operand through
/// `handle`: IR values in a function, registers in a VM program, where
/// the instruction also names the register it defines (`dst`; a store
/// defines none).
fn inst_json<V: Copy>(inst: &Inst<V>, dst: Option<V>, handle: impl Fn(V) -> Json) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = Vec::with_capacity(7);
    if let Some(dst) = dst {
        pairs.push(("dst", handle(dst)));
    }
    pairs.push(("ty", Json::str(inst.ty.name())));
    match inst.kind {
        InstKind::Const(c) => {
            pairs.push(("k", Json::str("const")));
            pairs.push(("c", constant_json(c)));
        }
        InstKind::Bin { op, lhs, rhs } => {
            pairs.push(("k", Json::str("bin")));
            pairs.push(("op", Json::str(op.name())));
            pairs.push(("lhs", handle(lhs)));
            pairs.push(("rhs", handle(rhs)));
        }
        InstKind::FNeg { arg } => {
            pairs.push(("k", Json::str("fneg")));
            pairs.push(("arg", handle(arg)));
        }
        InstKind::Cast { op, arg } => {
            pairs.push(("k", Json::str("cast")));
            pairs.push(("op", Json::str(op.name())));
            pairs.push(("arg", handle(arg)));
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            pairs.push(("k", Json::str("cmp")));
            pairs.push(("pred", Json::str(pred.name())));
            pairs.push(("lhs", handle(lhs)));
            pairs.push(("rhs", handle(rhs)));
        }
        InstKind::Select { cond, on_true, on_false } => {
            pairs.push(("k", Json::str("select")));
            pairs.push(("cond", handle(cond)));
            pairs.push(("t", handle(on_true)));
            pairs.push(("f", handle(on_false)));
        }
        InstKind::Load { loc } => {
            pairs.push(("k", Json::str("load")));
            pairs.push(("base", Json::int(loc.base as u64)));
            pairs.push(("offset", Json::Num(loc.offset as f64)));
        }
        InstKind::Store { loc, value } => {
            pairs.push(("k", Json::str("store")));
            pairs.push(("base", Json::int(loc.base as u64)));
            pairs.push(("offset", Json::Num(loc.offset as f64)));
            pairs.push(("value", handle(value)));
        }
    }
    Json::obj(pairs)
}

/// The inverse of [`inst_json`]; `handle` decodes one operand.
fn inst_from<'a, V>(
    j: Node<'a>,
    handle: impl Fn(Node<'a>) -> Result<V, String>,
) -> Result<Inst<V>, String> {
    let ty = ty_of(j, "ty")?;
    let value_of = |key: &str| field(j, key).and_then(&handle);
    let kind = match &*string(j, "k")? {
        "const" => InstKind::Const(constant_from(field(j, "c")?)?),
        "bin" => InstKind::Bin {
            op: named(j, "op", "binop", BinOp::from_name)?,
            lhs: value_of("lhs")?,
            rhs: value_of("rhs")?,
        },
        "fneg" => InstKind::FNeg { arg: value_of("arg")? },
        "cast" => InstKind::Cast {
            op: named(j, "op", "cast op", CastOp::from_name)?,
            arg: value_of("arg")?,
        },
        "cmp" => InstKind::Cmp {
            pred: named(j, "pred", "predicate", CmpPred::from_name)?,
            lhs: value_of("lhs")?,
            rhs: value_of("rhs")?,
        },
        "select" => InstKind::Select {
            cond: value_of("cond")?,
            on_true: value_of("t")?,
            on_false: value_of("f")?,
        },
        "load" => InstKind::Load {
            loc: MemLoc { base: uint(j, "base")? as usize, offset: int(j, "offset")? },
        },
        "store" => InstKind::Store {
            loc: MemLoc { base: uint(j, "base")? as usize, offset: int(j, "offset")? },
            value: value_of("value")?,
        },
        other => return Err(format!("unknown inst kind {other:?}")),
    };
    Ok(Inst { kind, ty })
}

/// Encode a scalar IR function.
pub fn function_to_json(f: &Function) -> Json {
    Json::obj([
        ("name", Json::str(&f.name)),
        ("params", Json::Arr(f.params.iter().map(param_json).collect())),
        ("insts", Json::Arr(f.insts.iter().map(|i| inst_json(i, None, value_json)).collect())),
    ])
}

/// Decode a scalar IR function.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn function_from_node(j: Node<'_>) -> Result<Function, String> {
    Ok(Function {
        name: string(j, "name")?.into_owned(),
        params: list(j, "params", param_from)?,
        insts: list(j, "insts", |i| inst_from(i, value_from))?,
    })
}

// ---------------------------------------------------------------------------
// VM programs
// ---------------------------------------------------------------------------

fn reg_json(r: Reg) -> Json {
    Json::int(r.0 as u64)
}

fn reg_of(j: Node<'_>, key: &str) -> Result<Reg, String> {
    Ok(Reg(uint(j, key)? as u32))
}

fn reg_from(j: Node<'_>) -> Result<Reg, String> {
    value_from(j).map(|v| Reg(v.index() as u32))
}

fn lane_src_json(l: &LaneSrc) -> Json {
    match l {
        LaneSrc::FromVec { src, lane } => Json::obj([
            ("k", Json::str("vec")),
            ("src", reg_json(*src)),
            ("lane", Json::int(*lane as u64)),
        ]),
        LaneSrc::FromScalar(r) => Json::obj([("k", Json::str("scalar")), ("reg", reg_json(*r))]),
        LaneSrc::Const(c) => Json::obj([("k", Json::str("const")), ("c", constant_json(*c))]),
        LaneSrc::Undef => Json::obj([("k", Json::str("undef"))]),
    }
}

fn lane_src_from(j: Node<'_>) -> Result<LaneSrc, String> {
    Ok(match &*string(j, "k")? {
        "vec" => LaneSrc::FromVec { src: reg_of(j, "src")?, lane: uint(j, "lane")? as usize },
        "scalar" => LaneSrc::FromScalar(reg_of(j, "reg")?),
        "const" => LaneSrc::Const(constant_from(field(j, "c")?)?),
        "undef" => LaneSrc::Undef,
        other => return Err(format!("unknown lane source {other:?}")),
    })
}

fn vm_inst_json(i: &VmInst) -> Json {
    match i {
        VmInst::Scalar { dst, inst } => inst_json(inst, dst.get(), reg_json),
        VmInst::VecLoad { dst, base, start, lanes, elem } => Json::obj([
            ("k", Json::str("vec_load")),
            ("dst", reg_json(*dst)),
            ("base", Json::int(*base as u64)),
            ("start", Json::Num(*start as f64)),
            ("lanes", Json::int(*lanes as u64)),
            ("elem", Json::str(elem.name())),
        ]),
        VmInst::VecStore { base, start, src } => Json::obj([
            ("k", Json::str("vec_store")),
            ("base", Json::int(*base as u64)),
            ("start", Json::Num(*start as f64)),
            ("src", reg_json(*src)),
        ]),
        VmInst::VecOp { dst, sem, args } => Json::obj([
            ("k", Json::str("vec_op")),
            ("dst", reg_json(*dst)),
            ("sem", Json::int(*sem as u64)),
            ("args", Json::Arr(args.iter().map(|r| reg_json(*r)).collect())),
        ]),
        VmInst::Build { dst, elem, lanes } => Json::obj([
            ("k", Json::str("build")),
            ("dst", reg_json(*dst)),
            ("elem", Json::str(elem.name())),
            ("lanes", Json::Arr(lanes.iter().map(lane_src_json).collect())),
        ]),
        VmInst::Extract { dst, src, lane } => Json::obj([
            ("k", Json::str("extract")),
            ("dst", reg_json(*dst)),
            ("src", reg_json(*src)),
            ("lane", Json::int(*lane as u64)),
        ]),
    }
}

fn vm_inst_from(j: Node<'_>) -> Result<VmInst, String> {
    Ok(match &*string(j, "k")? {
        "vec_load" => VmInst::VecLoad {
            dst: reg_of(j, "dst")?,
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            lanes: uint(j, "lanes")? as usize,
            elem: ty_of(j, "elem")?,
        },
        "vec_store" => VmInst::VecStore {
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            src: reg_of(j, "src")?,
        },
        "vec_op" => VmInst::VecOp {
            dst: reg_of(j, "dst")?,
            sem: uint(j, "sem")? as usize,
            args: list(j, "args", reg_from)?,
        },
        "build" => VmInst::Build {
            dst: reg_of(j, "dst")?,
            elem: ty_of(j, "elem")?,
            lanes: list(j, "lanes", lane_src_from)?,
        },
        "extract" => VmInst::Extract {
            dst: reg_of(j, "dst")?,
            src: reg_of(j, "src")?,
            lane: uint(j, "lane")? as usize,
        },
        // Any other kind is a scalar IR instruction over registers; it
        // names a `dst` exactly when it is not a store.
        _ => {
            let inst = inst_from(j, reg_from)?;
            let dst = match (inst.is_pure(), j.get("dst")) {
                (true, Some(dst)) => {
                    Dst::new(reg_from(dst)?).ok_or("scalar \"dst\" is not a register")?
                }
                (false, None) => Dst::NONE,
                _ => return Err("scalar \"dst\" does not fit its instruction".into()),
            };
            VmInst::Scalar { dst, inst }
        }
    })
}

/// Encode a VM program. Vector-instruction semantics are embedded as VIDL
/// concrete syntax so the program decodes without an instruction database.
pub fn program_to_json(p: &VmProgram) -> Json {
    Json::obj([
        ("name", Json::str(&p.name)),
        ("params", Json::Arr(p.params.iter().map(param_json).collect())),
        (
            "sems",
            Json::Arr(p.sems.iter().map(|s| Json::str(vegen::vidl::print::inst_text(s))).collect()),
        ),
        ("sem_asm", Json::Arr(p.sem_asm.iter().map(Json::str).collect())),
        ("sem_cost", Json::Arr(p.sem_cost.iter().map(|c| Json::Num(*c)).collect())),
        ("insts", Json::Arr(p.insts.iter().map(vm_inst_json).collect())),
        ("n_regs", Json::int(p.n_regs as u64)),
    ])
}

/// Decode a VM program.
///
/// # Errors
///
/// Returns a message naming the malformed field (VIDL parse errors
/// included).
pub fn program_from_node(j: Node<'_>) -> Result<VmProgram, String> {
    let sems = list(j, "sems", |s| {
        let text = s.as_str().ok_or("sem is not a string")?;
        vegen::vidl::parse_inst(&text).map_err(|e| format!("sem: {e}"))
    })?;
    Ok(VmProgram {
        name: string(j, "name")?.into_owned(),
        params: list(j, "params", param_from)?,
        sems,
        sem_asm: list(j, "sem_asm", |s| {
            s.as_str().map(Cow::into_owned).ok_or_else(|| "sem_asm is not a string".to_string())
        })?,
        sem_cost: list(j, "sem_cost", |c| {
            c.as_f64()
                .filter(|c| c.is_finite())
                .ok_or_else(|| "sem_cost is not a number".to_string())
        })?,
        insts: list(j, "insts", vm_inst_from)?,
        n_regs: uint(j, "n_regs")? as usize,
    })
}

// ---------------------------------------------------------------------------
// Selection (packs + stats + decision log)
// ---------------------------------------------------------------------------

fn packed_match_json(m: &PackedMatch) -> Json {
    Json::obj([
        ("op", Json::int(m.op.0 as u64)),
        ("root", value_json(m.root)),
        ("live_ins", Json::Arr(m.live_ins.iter().map(|v| opt_value_json(*v)).collect())),
        ("covered", Json::Arr(m.covered.iter().map(|v| value_json(*v)).collect())),
    ])
}

fn packed_match_from(j: Node<'_>) -> Result<PackedMatch, String> {
    Ok(PackedMatch {
        op: vegen::matcher::OpId(uint(j, "op")? as usize),
        root: field(j, "root").and_then(value_from)?,
        live_ins: list(j, "live_ins", opt_value_from)?,
        covered: list(j, "covered", value_from)?,
    })
}

fn pack_json(p: &Pack) -> Json {
    match p {
        Pack::Compute { inst, matches } => Json::obj([
            ("k", Json::str("compute")),
            ("inst", Json::int(*inst as u64)),
            (
                "matches",
                Json::Arr(
                    matches
                        .iter()
                        .map(|m| m.as_ref().map_or(Json::Null, packed_match_json))
                        .collect(),
                ),
            ),
        ]),
        Pack::Load { base, start, loads, elem } => Json::obj([
            ("k", Json::str("load")),
            ("base", Json::int(*base as u64)),
            ("start", Json::Num(*start as f64)),
            ("loads", Json::Arr(loads.iter().map(|v| opt_value_json(*v)).collect())),
            ("elem", Json::str(elem.name())),
        ]),
        Pack::Store { base, start, stores, values, elem } => Json::obj([
            ("k", Json::str("store")),
            ("base", Json::int(*base as u64)),
            ("start", Json::Num(*start as f64)),
            ("stores", Json::Arr(stores.iter().map(|v| value_json(*v)).collect())),
            ("values", Json::Arr(values.iter().map(|v| value_json(*v)).collect())),
            ("elem", Json::str(elem.name())),
        ]),
    }
}

fn pack_from(j: Node<'_>) -> Result<Pack, String> {
    Ok(match &*string(j, "k")? {
        "compute" => Pack::Compute {
            inst: uint(j, "inst")? as usize,
            matches: list(j, "matches", |m| {
                if m.is_null() {
                    Ok(None)
                } else {
                    packed_match_from(m).map(Some)
                }
            })?,
        },
        "load" => Pack::Load {
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            loads: list(j, "loads", opt_value_from)?,
            elem: ty_of(j, "elem")?,
        },
        "store" => Pack::Store {
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            stores: list(j, "stores", value_from)?,
            values: list(j, "values", value_from)?,
            elem: ty_of(j, "elem")?,
        },
        other => return Err(format!("unknown pack kind {other:?}")),
    })
}

fn beam_stats_json(s: &BeamStats) -> Json {
    Json::obj([
        ("states_expanded", Json::int(s.states_expanded as u64)),
        ("transitions", Json::int(s.transitions)),
        ("dedup_hits", Json::int(s.dedup_hits)),
        ("hash_collisions", Json::int(s.hash_collisions)),
        ("producer_cache_hits", Json::int(s.producer_cache_hits)),
        ("producer_cache_misses", Json::int(s.producer_cache_misses)),
        ("interned_operands", Json::int(s.interned_operands as u64)),
        ("interned_packs", Json::int(s.interned_packs as u64)),
        ("beam_wall_ns", duration_json(s.beam_wall)),
        ("workers", Json::int(s.workers as u64)),
        ("fanouts", Json::int(s.fanouts)),
        ("tt_hits", Json::int(s.tt_hits)),
        ("tt_misses", Json::int(s.tt_misses)),
        ("merge_wall_ns", duration_json(s.merge_wall)),
        ("freeze_wall_ns", duration_json(s.freeze_wall)),
        ("frozen_reused", Json::Bool(s.frozen_reused)),
    ])
}

fn beam_stats_from(j: Node<'_>) -> Result<BeamStats, String> {
    Ok(BeamStats {
        states_expanded: uint(j, "states_expanded")? as usize,
        transitions: uint(j, "transitions")?,
        dedup_hits: uint(j, "dedup_hits")?,
        hash_collisions: uint(j, "hash_collisions")?,
        producer_cache_hits: uint(j, "producer_cache_hits")?,
        producer_cache_misses: uint(j, "producer_cache_misses")?,
        interned_operands: uint(j, "interned_operands")? as usize,
        interned_packs: uint(j, "interned_packs")? as usize,
        beam_wall: nanos(j, "beam_wall_ns")?,
        workers: uint(j, "workers")? as usize,
        fanouts: uint(j, "fanouts")?,
        tt_hits: uint(j, "tt_hits")?,
        tt_misses: uint(j, "tt_misses")?,
        merge_wall: nanos(j, "merge_wall_ns")?,
        freeze_wall: nanos(j, "freeze_wall_ns")?,
        frozen_reused: boolean(j, "frozen_reused")?,
    })
}

fn decision_log_json(log: &DecisionLog) -> Json {
    let iteration = |it: &IterationLog| {
        Json::obj([
            ("index", Json::int(it.index as u64)),
            ("beam_in", Json::int(it.beam_in as u64)),
            ("pool", Json::int(it.pool as u64)),
            ("deduped", Json::int(it.deduped as u64)),
            ("kept", Json::int(it.kept as u64)),
            (
                "candidates",
                Json::Arr(
                    it.candidates
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("action", Json::str(&c.action)),
                                ("g", Json::Num(c.g)),
                                ("est", Json::Num(c.est)),
                                ("score", Json::Num(c.score)),
                                ("packs", Json::int(c.packs as u64)),
                                ("kept", Json::Bool(c.kept)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    Json::obj([
        ("iterations", Json::Arr(log.iterations.iter().map(iteration).collect())),
        (
            "committed",
            Json::Arr(
                log.committed
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("step", Json::int(c.step as u64)),
                            ("pack", Json::str(&c.pack)),
                            ("cost", Json::Num(c.cost)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decision_log_from(j: Node<'_>) -> Result<DecisionLog, String> {
    let iterations = list(j, "iterations", |it| {
        Ok(IterationLog {
            index: uint(it, "index")? as usize,
            beam_in: uint(it, "beam_in")? as usize,
            pool: uint(it, "pool")? as usize,
            deduped: uint(it, "deduped")? as usize,
            kept: uint(it, "kept")? as usize,
            candidates: list(it, "candidates", |c| {
                Ok(CandidateLog {
                    action: string(c, "action")?.into_owned(),
                    g: finite(c, "g")?,
                    est: finite(c, "est")?,
                    score: finite(c, "score")?,
                    packs: uint(c, "packs")? as usize,
                    kept: boolean(c, "kept")?,
                })
            })?,
        })
    })?;
    let committed = list(j, "committed", |c| {
        Ok(CommittedPack {
            step: uint(c, "step")? as usize,
            pack: string(c, "pack")?.into_owned(),
            cost: finite(c, "cost")?,
        })
    })?;
    Ok(DecisionLog { iterations, committed })
}

fn selection_json(s: &SelectionResult) -> Json {
    let mut packs = Vec::new();
    for (_, p) in s.packs.iter() {
        packs.push(pack_json(p));
    }
    Json::obj([
        ("packs", Json::Arr(packs)),
        ("vector_cost", Json::Num(s.vector_cost)),
        ("scalar_cost", Json::Num(s.scalar_cost)),
        ("states_expanded", Json::int(s.states_expanded as u64)),
        ("stats", beam_stats_json(&s.stats)),
        ("decisions", s.decisions.as_ref().map_or(Json::Null, decision_log_json)),
    ])
}

fn selection_from(j: Node<'_>) -> Result<SelectionResult, String> {
    let mut packs = PackSet::new();
    for p in arr(j, "packs")? {
        packs.insert(pack_from(p)?);
    }
    Ok(SelectionResult {
        packs,
        vector_cost: finite(j, "vector_cost")?,
        scalar_cost: finite(j, "scalar_cost")?,
        states_expanded: uint(j, "states_expanded")? as usize,
        stats: beam_stats_from(field(j, "stats")?)?,
        decisions: match field(j, "decisions")? {
            log if log.is_null() => None,
            log => Some(decision_log_from(log)?),
        },
    })
}

// ---------------------------------------------------------------------------
// Analysis report
// ---------------------------------------------------------------------------

fn location_json(l: &Location) -> Json {
    let opt_lane = |l: &Option<usize>| l.map_or(Json::Null, |n| Json::int(n as u64));
    match l {
        Location::Value(v) => Json::obj([("k", Json::str("value")), ("v", value_json(*v))]),
        Location::Pack { pack, lane } => Json::obj([
            ("k", Json::str("pack")),
            ("pack", Json::int(*pack as u64)),
            ("lane", opt_lane(lane)),
        ]),
        Location::VmInst { index, lane } => Json::obj([
            ("k", Json::str("vm")),
            ("index", Json::int(*index as u64)),
            ("lane", opt_lane(lane)),
        ]),
        Location::Mem { base, offset } => Json::obj([
            ("k", Json::str("mem")),
            ("base", Json::int(*base as u64)),
            ("offset", Json::Num(*offset as f64)),
        ]),
        Location::Inst { index, lane } => Json::obj([
            ("k", Json::str("inst")),
            ("index", Json::int(*index as u64)),
            ("lane", opt_lane(lane)),
        ]),
        Location::Program => Json::obj([("k", Json::str("program"))]),
    }
}

fn location_from(j: Node<'_>) -> Result<Location, String> {
    let lane_of = |key: &str| -> Result<Option<usize>, String> {
        match field(j, key)? {
            lane if lane.is_null() => Ok(None),
            lane => {
                let v = lane.as_f64().ok_or("lane is not a number")?;
                Ok(Some(v as usize))
            }
        }
    };
    Ok(match &*string(j, "k")? {
        "value" => Location::Value(field(j, "v").and_then(value_from)?),
        "pack" => Location::Pack { pack: uint(j, "pack")? as usize, lane: lane_of("lane")? },
        "vm" => Location::VmInst { index: uint(j, "index")? as usize, lane: lane_of("lane")? },
        "mem" => Location::Mem { base: uint(j, "base")? as usize, offset: int(j, "offset")? },
        "inst" => Location::Inst { index: uint(j, "index")? as usize, lane: lane_of("lane")? },
        "program" => Location::Program,
        other => return Err(format!("unknown location kind {other:?}")),
    })
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::obj([
        (
            "sev",
            Json::str(match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            }),
        ),
        ("loc", location_json(&d.location)),
        ("msg", Json::str(&d.message)),
    ])
}

fn diagnostic_from(j: Node<'_>) -> Result<Diagnostic, String> {
    let severity = match &*string(j, "sev")? {
        "error" => Severity::Error,
        "warning" => Severity::Warning,
        other => return Err(format!("unknown severity {other:?}")),
    };
    Ok(Diagnostic {
        severity,
        location: location_from(field(j, "loc")?)?,
        message: string(j, "msg")?.into_owned(),
    })
}

fn diags_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(diagnostic_json).collect())
}

fn diags_from(j: Node<'_>, key: &str) -> Result<Vec<Diagnostic>, String> {
    list(j, key, diagnostic_from)
}

fn analysis_json(a: &AnalysisReport) -> Json {
    Json::obj([
        ("legality", diags_json(&a.legality)),
        ("provenance", diags_json(&a.provenance)),
        ("lint", diags_json(&a.lint)),
        ("packs_checked", Json::int(a.packs_checked as u64)),
        ("lanes_proved", Json::int(a.lanes_proved as u64)),
    ])
}

fn analysis_from(j: Node<'_>) -> Result<AnalysisReport, String> {
    Ok(AnalysisReport {
        legality: diags_from(j, "legality")?,
        provenance: diags_from(j, "provenance")?,
        lint: diags_from(j, "lint")?,
        packs_checked: uint(j, "packs_checked")? as usize,
        lanes_proved: uint(j, "lanes_proved")? as usize,
    })
}

// ---------------------------------------------------------------------------
// Stage times + the compiled kernel
// ---------------------------------------------------------------------------

/// Encode per-stage wall times (integer nanoseconds, one `<stage>_ns`
/// member per pipeline stage).
pub fn stage_times_to_json(t: &StageTimes) -> Json {
    Json::Obj(t.iter().map(|(stage, d)| (format!("{stage}_ns"), duration_json(d))).collect())
}

/// Decode per-stage wall times.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn stage_times_from_node(j: Node<'_>) -> Result<StageTimes, String> {
    let (mut t, mut key) = (StageTimes::default(), String::new());
    for stage in PIPELINE {
        key.clear();
        let _ = write!(key, "{stage}_ns");
        *t.slot_mut(stage) = nanos(j, &key)?;
    }
    Ok(t)
}

/// Encode a full compiled kernel: the canonical function, all three
/// programs, the selection (packs, statistics, optional decision log), and
/// the static-analysis report.
pub fn kernel_to_json(k: &CompiledKernel) -> Json {
    Json::obj([
        ("function", function_to_json(&k.function)),
        ("scalar", program_to_json(&k.scalar)),
        ("vegen", program_to_json(&k.vegen)),
        ("baseline", program_to_json(&k.baseline)),
        ("selection", selection_json(&k.selection)),
        ("baseline_trees", Json::int(k.baseline_trees as u64)),
        ("analysis", analysis_json(&k.analysis)),
    ])
}

/// Decode a full compiled kernel.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn kernel_from_node(j: Node<'_>) -> Result<CompiledKernel, String> {
    Ok(CompiledKernel {
        function: function_from_node(field(j, "function")?)?,
        scalar: program_from_node(field(j, "scalar")?)?,
        vegen: program_from_node(field(j, "vegen")?)?,
        baseline: program_from_node(field(j, "baseline")?)?,
        selection: selection_from(field(j, "selection")?)?,
        baseline_trees: uint(j, "baseline_trees")? as usize,
        analysis: analysis_from(field(j, "analysis")?)?,
    })
}

/// [`kernel_from_node`] for a caller that already holds a tree: renders
/// it and decodes the rendering. The product path never builds the tree
/// ([`crate::diskcache`] decodes the file's own text).
///
/// # Errors
///
/// As [`kernel_from_node`].
pub fn kernel_from_json(j: &Json) -> Result<CompiledKernel, String> {
    let text = j.render();
    kernel_from_node(Doc::parse(&text)?.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen::driver::{compile, PipelineConfig};
    use vegen_ir::FunctionBuilder;
    use vegen_isa::TargetIsa;

    fn sample() -> CompiledKernel {
        let mut b = FunctionBuilder::new("serdes_dot");
        let a = b.param("A", Type::I16, 8);
        let bb = b.param("B", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let mut terms = Vec::new();
            for k in 0..2i64 {
                let x = b.load(a, lane * 2 + k);
                let y = b.load(bb, lane * 2 + k);
                let xw = b.sext(x, Type::I32);
                let yw = b.sext(y, Type::I32);
                terms.push(b.mul(xw, yw));
            }
            let s = b.add(terms[0], terms[1]);
            b.store(c, lane, s);
        }
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
        compile(&b.finish(), &cfg)
    }

    /// Render `doc` and run `decode` on the tokenized rendering.
    fn decode<T>(doc: &Json, decode: fn(Node<'_>) -> Result<T, String>) -> Result<T, String> {
        let text = doc.render();
        decode(Doc::parse(&text).expect("rendered JSON parses").root())
    }

    #[test]
    fn kernel_round_trips_byte_for_byte() {
        let kernel = sample();
        let doc = kernel_to_json(&kernel);
        let text = doc.render();
        let decoded = decode(&doc, kernel_from_node).expect("entry decodes");
        // Byte stability: re-encoding the decoded kernel reproduces the
        // original rendering exactly.
        assert_eq!(kernel_to_json(&decoded).render(), text);
        // And the decoded kernel is semantically the original: identical
        // listings, costs, and verification behavior.
        assert_eq!(vegen_vm::listing(&decoded.vegen), vegen_vm::listing(&kernel.vegen));
        assert_eq!(vegen_vm::listing(&decoded.scalar), vegen_vm::listing(&kernel.scalar));
        assert_eq!(vegen_vm::listing(&decoded.baseline), vegen_vm::listing(&kernel.baseline));
        assert_eq!(decoded.cycles(), kernel.cycles());
        assert_eq!(decoded.selection.packs.len(), kernel.selection.packs.len());
        assert_eq!(decoded.function, kernel.function);
        decoded.verify(8).expect("decoded programs still verify");
        // The tree adapter decodes the same kernel.
        let adapted = kernel_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(kernel_to_json(&adapted).render(), text);
    }

    #[test]
    fn stage_times_round_trip() {
        let t = StageTimes {
            canonicalize: Duration::from_nanos(123),
            target_desc: Duration::from_micros(45),
            selection: Duration::from_millis(6),
            lowering: Duration::from_nanos(789),
            analysis: Duration::ZERO,
            baseline: Duration::from_nanos(1),
        };
        assert_eq!(decode(&stage_times_to_json(&t), stage_times_from_node).unwrap(), t);
    }

    #[test]
    fn constants_round_trip_bit_exactly() {
        for c in [
            Constant::int(Type::I64, -1),
            Constant::int(Type::I8, -128),
            Constant::bool(true),
            Constant::f32(-0.0),
            Constant::f64(f64::NAN),
            Constant::f32(1.5e-7),
        ] {
            let back = decode(&constant_json(c), constant_from).unwrap();
            assert_eq!(back.ty(), c.ty());
            assert_eq!(back.raw_bits(), c.raw_bits());
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(decode(&Json::obj([("name", Json::str("x"))]), function_from_node)
            .unwrap_err()
            .contains("params"));
        let bad_kind = Json::obj([("ty", Json::str("i32")), ("k", Json::str("frobnicate"))]);
        assert!(decode(&bad_kind, |j| inst_from(j, value_from))
            .unwrap_err()
            .contains("frobnicate"));
        // A VM scalar instruction names a `dst` exactly when it is not a
        // store.
        let load = r#""ty":"i32","k":"load","base":0,"offset":1"#;
        let store = r#""ty":"void","k":"store","base":0,"offset":1,"value":0"#;
        for (dst, inst, ok) in [
            (r#""dst":0,"#, load, true),
            ("", load, false),
            ("", store, true),
            (r#""dst":1,"#, store, false),
        ] {
            let text = format!("{{{dst}{inst}}}");
            let doc = Doc::parse(&text).unwrap();
            assert_eq!(vm_inst_from(doc.root()).is_ok(), ok, "{text}");
        }
        let bad_vm_kind = Doc::parse(r#"{"ty":"i32","k":"frobnicate"}"#).unwrap();
        assert!(vm_inst_from(bad_vm_kind.root()).unwrap_err().contains("frobnicate"));
        let bad_ty = Json::obj([("ty", Json::str("i128"))]);
        assert_eq!(decode(&bad_ty, |j| ty_of(j, "ty")), Err("unknown type \"i128\"".to_string()));
        // A cost the encoder could not write back: it renders infinity as
        // `null`, which would not decode.
        let overflow = Doc::parse(r#"{"cost":1e999,"sem_cost":[-1e999]}"#).unwrap();
        assert!(finite(overflow.root(), "cost").unwrap_err().contains("not a finite number"));
        let sem_cost = |c: Node<'_>| c.as_f64().filter(|c| c.is_finite()).ok_or("not a number");
        assert!(list(overflow.root(), "sem_cost", |c| Ok(sem_cost(c)?)).is_err());
    }
}
