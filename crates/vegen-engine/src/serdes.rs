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
//! * [`InstSemantics`] are embedded as VIDL concrete syntax
//!   ([`vegen::vidl::print::inst_text`] / [`vegen::vidl::parse_inst`]),
//!   so cached programs are self-contained — decoding never consults the
//!   instruction database;
//! * enums are tagged objects (`{"k": "bin", ...}`) with the IR printer's
//!   stable mnemonics.
//!
//! Decoding is total: every malformed document comes back as `Err(String)`
//! naming the offending field, never a panic — the disk cache treats any
//! decode error as a corrupt entry, rejects it, and recompiles.

use crate::json::Json;
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
use vegen_vm::{LaneSrc, Reg, ScalarOp, VmInst, VmProgram};

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

fn uint(j: &Json, key: &str) -> Result<u64, String> {
    let v = num(j, key)?;
    if v < 0.0 || v != v.trunc() {
        return Err(format!("field {key:?} is not a non-negative integer: {v}"));
    }
    Ok(v as u64)
}

fn int(j: &Json, key: &str) -> Result<i64, String> {
    let v = num(j, key)?;
    if v != v.trunc() {
        return Err(format!("field {key:?} is not an integer: {v}"));
    }
    Ok(v as i64)
}

fn string<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?.as_str().ok_or_else(|| format!("field {key:?} is not a string"))
}

fn arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?.as_arr().ok_or_else(|| format!("field {key:?} is not an array"))
}

fn boolean(j: &Json, key: &str) -> Result<bool, String> {
    field(j, key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a boolean"))
}

fn hex_u64(j: &Json, key: &str) -> Result<u64, String> {
    let s = string(j, key)?;
    u64::from_str_radix(s, 16).map_err(|e| format!("field {key:?} is not hex: {e}"))
}

fn nanos(j: &Json, key: &str) -> Result<Duration, String> {
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
fn named<T>(j: &Json, key: &str, what: &str, find: fn(&str) -> Option<T>) -> Result<T, String> {
    let s = string(j, key)?;
    find(s).ok_or_else(|| format!("unknown {what} {s:?}"))
}

fn ty_of(j: &Json, key: &str) -> Result<Type, String> {
    named(j, key, "type", Type::from_name)
}

fn constant_json(c: Constant) -> Json {
    Json::obj([
        ("ty", Json::str(c.ty().name())),
        ("bits", Json::str(format!("{:x}", c.raw_bits()))),
    ])
}

fn constant_from(j: &Json) -> Result<Constant, String> {
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

fn value_from(j: &Json) -> Result<ValueId, String> {
    let v = j.as_f64().ok_or("value id is not a number")?;
    if v < 0.0 || v != v.trunc() {
        return Err(format!("bad value id {v}"));
    }
    Ok(ValueId::from_raw(v as u32))
}

fn opt_value_json(v: Option<ValueId>) -> Json {
    v.map_or(Json::Null, value_json)
}

fn opt_value_from(j: &Json) -> Result<Option<ValueId>, String> {
    match j {
        Json::Null => Ok(None),
        other => value_from(other).map(Some),
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

fn param_from(j: &Json) -> Result<Param, String> {
    Ok(Param {
        name: string(j, "name")?.to_string(),
        elem_ty: ty_of(j, "ty")?,
        len: uint(j, "len")? as usize,
    })
}

fn inst_json(inst: &Inst) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = vec![("ty", Json::str(inst.ty.name()))];
    match &inst.kind {
        InstKind::Const(c) => {
            pairs.push(("k", Json::str("const")));
            pairs.push(("c", constant_json(*c)));
        }
        InstKind::Bin { op, lhs, rhs } => {
            pairs.push(("k", Json::str("bin")));
            pairs.push(("op", Json::str(op.name())));
            pairs.push(("lhs", value_json(*lhs)));
            pairs.push(("rhs", value_json(*rhs)));
        }
        InstKind::FNeg { arg } => {
            pairs.push(("k", Json::str("fneg")));
            pairs.push(("arg", value_json(*arg)));
        }
        InstKind::Cast { op, arg } => {
            pairs.push(("k", Json::str("cast")));
            pairs.push(("op", Json::str(op.name())));
            pairs.push(("arg", value_json(*arg)));
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            pairs.push(("k", Json::str("cmp")));
            pairs.push(("pred", Json::str(pred.name())));
            pairs.push(("lhs", value_json(*lhs)));
            pairs.push(("rhs", value_json(*rhs)));
        }
        InstKind::Select { cond, on_true, on_false } => {
            pairs.push(("k", Json::str("select")));
            pairs.push(("cond", value_json(*cond)));
            pairs.push(("t", value_json(*on_true)));
            pairs.push(("f", value_json(*on_false)));
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
            pairs.push(("value", value_json(*value)));
        }
    }
    Json::obj(pairs)
}

fn inst_from(j: &Json) -> Result<Inst, String> {
    let ty = ty_of(j, "ty")?;
    let value_of = |key: &str| field(j, key).and_then(value_from);
    let kind = match string(j, "k")? {
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
        ("insts", Json::Arr(f.insts.iter().map(inst_json).collect())),
    ])
}

/// Decode a scalar IR function.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn function_from_json(j: &Json) -> Result<Function, String> {
    Ok(Function {
        name: string(j, "name")?.to_string(),
        params: arr(j, "params")?.iter().map(param_from).collect::<Result<_, _>>()?,
        insts: arr(j, "insts")?.iter().map(inst_from).collect::<Result<_, _>>()?,
    })
}

// ---------------------------------------------------------------------------
// VM programs
// ---------------------------------------------------------------------------

fn reg_json(r: Reg) -> Json {
    Json::int(r.0 as u64)
}

fn reg_of(j: &Json, key: &str) -> Result<Reg, String> {
    Ok(Reg(uint(j, key)? as u32))
}

fn scalar_op_json(op: &ScalarOp) -> Json {
    match op {
        ScalarOp::Const(c) => Json::obj([("k", Json::str("const")), ("c", constant_json(*c))]),
        ScalarOp::Bin { op, lhs, rhs } => Json::obj([
            ("k", Json::str("bin")),
            ("op", Json::str(op.name())),
            ("lhs", reg_json(*lhs)),
            ("rhs", reg_json(*rhs)),
        ]),
        ScalarOp::FNeg { arg } => Json::obj([("k", Json::str("fneg")), ("arg", reg_json(*arg))]),
        ScalarOp::Cast { op, to, arg } => Json::obj([
            ("k", Json::str("cast")),
            ("op", Json::str(op.name())),
            ("to", Json::str(to.name())),
            ("arg", reg_json(*arg)),
        ]),
        ScalarOp::Cmp { pred, lhs, rhs } => Json::obj([
            ("k", Json::str("cmp")),
            ("pred", Json::str(pred.name())),
            ("lhs", reg_json(*lhs)),
            ("rhs", reg_json(*rhs)),
        ]),
        ScalarOp::Select { cond, on_true, on_false } => Json::obj([
            ("k", Json::str("select")),
            ("cond", reg_json(*cond)),
            ("t", reg_json(*on_true)),
            ("f", reg_json(*on_false)),
        ]),
    }
}

fn scalar_op_from(j: &Json) -> Result<ScalarOp, String> {
    Ok(match string(j, "k")? {
        "const" => ScalarOp::Const(constant_from(field(j, "c")?)?),
        "bin" => ScalarOp::Bin {
            op: named(j, "op", "binop", BinOp::from_name)?,
            lhs: reg_of(j, "lhs")?,
            rhs: reg_of(j, "rhs")?,
        },
        "fneg" => ScalarOp::FNeg { arg: reg_of(j, "arg")? },
        "cast" => ScalarOp::Cast {
            op: named(j, "op", "cast op", CastOp::from_name)?,
            to: ty_of(j, "to")?,
            arg: reg_of(j, "arg")?,
        },
        "cmp" => ScalarOp::Cmp {
            pred: named(j, "pred", "predicate", CmpPred::from_name)?,
            lhs: reg_of(j, "lhs")?,
            rhs: reg_of(j, "rhs")?,
        },
        "select" => ScalarOp::Select {
            cond: reg_of(j, "cond")?,
            on_true: reg_of(j, "t")?,
            on_false: reg_of(j, "f")?,
        },
        other => return Err(format!("unknown scalar op {other:?}")),
    })
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

fn lane_src_from(j: &Json) -> Result<LaneSrc, String> {
    Ok(match string(j, "k")? {
        "vec" => LaneSrc::FromVec { src: reg_of(j, "src")?, lane: uint(j, "lane")? as usize },
        "scalar" => LaneSrc::FromScalar(reg_of(j, "reg")?),
        "const" => LaneSrc::Const(constant_from(field(j, "c")?)?),
        "undef" => LaneSrc::Undef,
        other => return Err(format!("unknown lane source {other:?}")),
    })
}

fn vm_inst_json(i: &VmInst) -> Json {
    match i {
        VmInst::Scalar { dst, op } => Json::obj([
            ("k", Json::str("scalar")),
            ("dst", reg_json(*dst)),
            ("op", scalar_op_json(op)),
        ]),
        VmInst::LoadScalar { dst, base, offset } => Json::obj([
            ("k", Json::str("load_scalar")),
            ("dst", reg_json(*dst)),
            ("base", Json::int(*base as u64)),
            ("offset", Json::Num(*offset as f64)),
        ]),
        VmInst::StoreScalar { base, offset, src } => Json::obj([
            ("k", Json::str("store_scalar")),
            ("base", Json::int(*base as u64)),
            ("offset", Json::Num(*offset as f64)),
            ("src", reg_json(*src)),
        ]),
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

fn vm_inst_from(j: &Json) -> Result<VmInst, String> {
    Ok(match string(j, "k")? {
        "scalar" => VmInst::Scalar { dst: reg_of(j, "dst")?, op: scalar_op_from(field(j, "op")?)? },
        "load_scalar" => VmInst::LoadScalar {
            dst: reg_of(j, "dst")?,
            base: uint(j, "base")? as usize,
            offset: int(j, "offset")?,
        },
        "store_scalar" => VmInst::StoreScalar {
            base: uint(j, "base")? as usize,
            offset: int(j, "offset")?,
            src: reg_of(j, "src")?,
        },
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
            args: arr(j, "args")?
                .iter()
                .map(|r| value_from(r).map(|v| Reg(v.index() as u32)))
                .collect::<Result<_, _>>()?,
        },
        "build" => VmInst::Build {
            dst: reg_of(j, "dst")?,
            elem: ty_of(j, "elem")?,
            lanes: arr(j, "lanes")?.iter().map(lane_src_from).collect::<Result<_, _>>()?,
        },
        "extract" => VmInst::Extract {
            dst: reg_of(j, "dst")?,
            src: reg_of(j, "src")?,
            lane: uint(j, "lane")? as usize,
        },
        other => return Err(format!("unknown vm inst {other:?}")),
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
pub fn program_from_json(j: &Json) -> Result<VmProgram, String> {
    let sems = arr(j, "sems")?
        .iter()
        .map(|s| {
            let text = s.as_str().ok_or("sem is not a string")?;
            vegen::vidl::parse_inst(text).map_err(|e| format!("sem: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(VmProgram {
        name: string(j, "name")?.to_string(),
        params: arr(j, "params")?.iter().map(param_from).collect::<Result<_, _>>()?,
        sems,
        sem_asm: arr(j, "sem_asm")?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or("sem_asm is not a string".to_string()))
            .collect::<Result<_, _>>()?,
        sem_cost: arr(j, "sem_cost")?
            .iter()
            .map(|c| c.as_f64().ok_or("sem_cost is not a number".to_string()))
            .collect::<Result<_, _>>()?,
        insts: arr(j, "insts")?.iter().map(vm_inst_from).collect::<Result<_, _>>()?,
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

fn packed_match_from(j: &Json) -> Result<PackedMatch, String> {
    Ok(PackedMatch {
        op: vegen::matcher::OpId(uint(j, "op")? as usize),
        root: field(j, "root").and_then(value_from)?,
        live_ins: arr(j, "live_ins")?.iter().map(opt_value_from).collect::<Result<_, _>>()?,
        covered: arr(j, "covered")?.iter().map(value_from).collect::<Result<_, _>>()?,
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

fn pack_from(j: &Json) -> Result<Pack, String> {
    Ok(match string(j, "k")? {
        "compute" => Pack::Compute {
            inst: uint(j, "inst")? as usize,
            matches: arr(j, "matches")?
                .iter()
                .map(|m| match m {
                    Json::Null => Ok(None),
                    other => packed_match_from(other).map(Some),
                })
                .collect::<Result<_, String>>()?,
        },
        "load" => Pack::Load {
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            loads: arr(j, "loads")?.iter().map(opt_value_from).collect::<Result<_, _>>()?,
            elem: ty_of(j, "elem")?,
        },
        "store" => Pack::Store {
            base: uint(j, "base")? as usize,
            start: int(j, "start")?,
            stores: arr(j, "stores")?.iter().map(value_from).collect::<Result<_, _>>()?,
            values: arr(j, "values")?.iter().map(value_from).collect::<Result<_, _>>()?,
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

fn beam_stats_from(j: &Json) -> Result<BeamStats, String> {
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

fn decision_log_from(j: &Json) -> Result<DecisionLog, String> {
    let iterations = arr(j, "iterations")?
        .iter()
        .map(|it| {
            Ok(IterationLog {
                index: uint(it, "index")? as usize,
                beam_in: uint(it, "beam_in")? as usize,
                pool: uint(it, "pool")? as usize,
                deduped: uint(it, "deduped")? as usize,
                kept: uint(it, "kept")? as usize,
                candidates: arr(it, "candidates")?
                    .iter()
                    .map(|c| {
                        Ok(CandidateLog {
                            action: string(c, "action")?.to_string(),
                            g: num(c, "g")?,
                            est: num(c, "est")?,
                            score: num(c, "score")?,
                            packs: uint(c, "packs")? as usize,
                            kept: boolean(c, "kept")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect::<Result<_, String>>()?;
    let committed = arr(j, "committed")?
        .iter()
        .map(|c| {
            Ok(CommittedPack {
                step: uint(c, "step")? as usize,
                pack: string(c, "pack")?.to_string(),
                cost: num(c, "cost")?,
            })
        })
        .collect::<Result<_, String>>()?;
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

fn selection_from(j: &Json) -> Result<SelectionResult, String> {
    let mut packs = PackSet::new();
    for p in arr(j, "packs")? {
        packs.insert(pack_from(p)?);
    }
    Ok(SelectionResult {
        packs,
        vector_cost: num(j, "vector_cost")?,
        scalar_cost: num(j, "scalar_cost")?,
        states_expanded: uint(j, "states_expanded")? as usize,
        stats: beam_stats_from(field(j, "stats")?)?,
        decisions: match field(j, "decisions")? {
            Json::Null => None,
            other => Some(decision_log_from(other)?),
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

fn location_from(j: &Json) -> Result<Location, String> {
    let lane_of = |key: &str| -> Result<Option<usize>, String> {
        match field(j, key)? {
            Json::Null => Ok(None),
            other => {
                let v = other.as_f64().ok_or("lane is not a number")?;
                Ok(Some(v as usize))
            }
        }
    };
    Ok(match string(j, "k")? {
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

fn diagnostic_from(j: &Json) -> Result<Diagnostic, String> {
    let severity = match string(j, "sev")? {
        "error" => Severity::Error,
        "warning" => Severity::Warning,
        other => return Err(format!("unknown severity {other:?}")),
    };
    Ok(Diagnostic {
        severity,
        location: location_from(field(j, "loc")?)?,
        message: string(j, "msg")?.to_string(),
    })
}

fn diags_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(diagnostic_json).collect())
}

fn diags_from(j: &Json, key: &str) -> Result<Vec<Diagnostic>, String> {
    arr(j, key)?.iter().map(diagnostic_from).collect()
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

fn analysis_from(j: &Json) -> Result<AnalysisReport, String> {
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
pub fn stage_times_from_json(j: &Json) -> Result<StageTimes, String> {
    let mut t = StageTimes::default();
    for stage in PIPELINE {
        *t.slot_mut(stage) = nanos(j, &format!("{stage}_ns"))?;
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
pub fn kernel_from_json(j: &Json) -> Result<CompiledKernel, String> {
    Ok(CompiledKernel {
        function: function_from_json(field(j, "function")?)?,
        scalar: program_from_json(field(j, "scalar")?)?,
        vegen: program_from_json(field(j, "vegen")?)?,
        baseline: program_from_json(field(j, "baseline")?)?,
        selection: selection_from(field(j, "selection")?)?,
        baseline_trees: uint(j, "baseline_trees")? as usize,
        analysis: analysis_from(field(j, "analysis")?)?,
    })
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

    #[test]
    fn kernel_round_trips_byte_for_byte() {
        let kernel = sample();
        let doc = kernel_to_json(&kernel);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        let decoded = kernel_from_json(&parsed).expect("entry decodes");
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
        let j = stage_times_to_json(&t);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(stage_times_from_json(&parsed).unwrap(), t);
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
            let j = constant_json(c);
            let parsed = Json::parse(&j.render()).unwrap();
            let back = constant_from(&parsed).unwrap();
            assert_eq!(back.ty(), c.ty());
            assert_eq!(back.raw_bits(), c.raw_bits());
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(function_from_json(&Json::obj([("name", Json::str("x"))]))
            .unwrap_err()
            .contains("params"));
        let bad_kind = Json::obj([("ty", Json::str("i32")), ("k", Json::str("frobnicate"))]);
        assert!(inst_from(&bad_kind).unwrap_err().contains("frobnicate"));
        let bad_ty = Json::obj([("ty", Json::str("i128"))]);
        assert_eq!(ty_of(&bad_ty, "ty"), Err("unknown type \"i128\"".to_string()));
    }
}
