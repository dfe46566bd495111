//! Property tests: the canonicalizer preserves semantics on arbitrary
//! well-typed straight-line programs and is idempotent.
//!
//! Programs mix i16, i32 and i64 values; the i64 buffer is parameter 0 and
//! the i64 constants include 0 and 65536, the values a load's CSE key was
//! once confused with (`load i64 C[0]` and `C[1]`).
//!
//! Cases are generated with the in-tree deterministic [`XorShift`] stream
//! (this repo builds offline; see `vegen_ir::rng`), so every failure
//! reproduces from its case index.

use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::interp::{random_memory, run};
use vegen_ir::rng::XorShift;
use vegen_ir::{BinOp, CmpPred, Function, FunctionBuilder, Type, ValueId};

/// One step of a small random program over three typed value pools.
#[derive(Debug, Clone)]
enum Step {
    Load { buf: usize, off: usize },
    Const(i64),
    Bin { op: usize, a: usize, b: usize },
    Cmp { pred: usize, a: usize, b: usize },
    SelectLike { a: usize, b: usize },
    Cast { kind: usize, a: usize },
    Store { v: usize },
    Load64 { off: usize },
    Const64(i64),
    Bin64 { op: usize, a: usize, b: usize },
    Store64 { v: usize },
}

fn gen_step(r: &mut XorShift) -> Step {
    match r.below(11) {
        0 => Step::Load { buf: r.below(2), off: r.below(6) },
        1 => Step::Const(r.range_i64(-70000, 70000)),
        2 => Step::Bin { op: r.below(9), a: r.below(32), b: r.below(32) },
        3 => Step::Cmp { pred: r.below(6), a: r.below(32), b: r.below(32) },
        4 => Step::SelectLike { a: r.below(32), b: r.below(32) },
        5 => Step::Cast { kind: r.below(5), a: r.below(32) },
        6 => Step::Store { v: r.below(32) },
        7 => Step::Load64 { off: r.below(4) },
        8 => Step::Const64([0, 65536, 1, -1, r.range_i64(-70000, 70000)][r.below(5)]),
        9 => Step::Bin64 { op: r.below(9), a: r.below(32), b: r.below(32) },
        _ => Step::Store64 { v: r.below(32) },
    }
}

fn gen_steps(r: &mut XorShift, min: usize, max: usize) -> Vec<Step> {
    let n = min + r.below(max - min);
    (0..n).map(|_| gen_step(r)).collect()
}

fn build(steps: &[Step]) -> Option<Function> {
    let mut b = FunctionBuilder::new("prop");
    let buf64 = b.param("C", Type::I64, 4);
    let bufs = [b.param("A", Type::I16, 6), b.param("B", Type::I16, 6)];
    let out32 = b.param("O", Type::I32, 24);
    let out64 = b.param("P", Type::I64, 8);
    let mut i16s: Vec<ValueId> = Vec::new();
    let mut i32s: Vec<ValueId> = Vec::new();
    let mut i64s: Vec<ValueId> = Vec::new();
    let mut bools: Vec<ValueId> = Vec::new();
    let (mut next_out, mut next_out64) = (0usize, 0usize);
    let bin_ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::LShr,
    ];
    let preds = [CmpPred::Eq, CmpPred::Ne, CmpPred::Slt, CmpPred::Sle, CmpPred::Ugt, CmpPred::Uge];
    for s in steps {
        match s {
            Step::Load { buf, off } => {
                let v = b.load(bufs[buf % 2], (*off % 6) as i64);
                i16s.push(v);
            }
            Step::Const(c) => {
                let v = b.iconst(Type::I32, *c);
                i32s.push(v);
            }
            Step::Bin { op, a, b: rb } => {
                if i32s.len() < 2 {
                    continue;
                }
                let x = i32s[a % i32s.len()];
                let y = i32s[rb % i32s.len()];
                let v = b.bin(bin_ops[op % bin_ops.len()], x, y);
                i32s.push(v);
            }
            Step::Cmp { pred, a, b: rb } => {
                if i32s.len() < 2 {
                    continue;
                }
                let x = i32s[a % i32s.len()];
                let y = i32s[rb % i32s.len()];
                let v = b.cmp(preds[pred % preds.len()], x, y);
                bools.push(v);
            }
            Step::SelectLike { a, b: rb } => {
                if bools.is_empty() || i32s.len() < 2 {
                    continue;
                }
                let c = bools[a % bools.len()];
                let x = i32s[a % i32s.len()];
                let y = i32s[rb % i32s.len()];
                let v = b.select(c, x, y);
                i32s.push(v);
            }
            Step::Cast { kind, a } => match kind % 5 {
                0 if !i16s.is_empty() => {
                    let v = b.sext(i16s[a % i16s.len()], Type::I32);
                    i32s.push(v);
                }
                1 if !i16s.is_empty() => {
                    let v = b.zext(i16s[a % i16s.len()], Type::I32);
                    i32s.push(v);
                }
                2 if !i32s.is_empty() => {
                    let v = b.trunc(i32s[a % i32s.len()], Type::I16);
                    i16s.push(v);
                }
                3 if !i32s.is_empty() => {
                    let v = b.sext(i32s[a % i32s.len()], Type::I64);
                    i64s.push(v);
                }
                4 if !i64s.is_empty() => {
                    let v = b.trunc(i64s[a % i64s.len()], Type::I32);
                    i32s.push(v);
                }
                _ => {}
            },
            Step::Store { v } => {
                if i32s.is_empty() || next_out >= 24 {
                    continue;
                }
                b.store(out32, next_out as i64, i32s[v % i32s.len()]);
                next_out += 1;
            }
            Step::Load64 { off } => {
                let v = b.load(buf64, *off as i64);
                i64s.push(v);
            }
            Step::Const64(c) => {
                let v = b.iconst(Type::I64, *c);
                i64s.push(v);
            }
            Step::Bin64 { op, a, b: rb } => {
                if i64s.len() < 2 {
                    continue;
                }
                let x = i64s[a % i64s.len()];
                let y = i64s[rb % i64s.len()];
                let v = b.bin(bin_ops[op % bin_ops.len()], x, y);
                i64s.push(v);
            }
            Step::Store64 { v } => {
                if i64s.is_empty() || next_out64 >= 8 {
                    continue;
                }
                b.store(out64, next_out64 as i64, i64s[v % i64s.len()]);
                next_out64 += 1;
            }
        }
    }
    let f = b.finish();
    if f.stores().is_empty() {
        None
    } else {
        Some(f)
    }
}

/// Division is excluded from the generator, so `run` cannot trap; shifts
/// are total by definition in this IR.
fn effects(f: &Function, seed: u64) -> vegen_ir::interp::Memory {
    let mut mem = random_memory(f, seed);
    run(f, &mut mem).expect("no traps possible");
    mem
}

#[test]
fn canonicalize_preserves_semantics() {
    let mut r = XorShift::new(0xC0DE_0001);
    for case in 0..64u32 {
        let Some(f) = build(&gen_steps(&mut r, 4, 60)) else { continue };
        assert!(vegen_ir::verify::verify(&f).is_ok(), "case {case}: generator made invalid IR");
        let g = canonicalize(&f);
        assert!(vegen_ir::verify::verify(&g).is_ok(), "case {case}: canonicalizer broke IR:\n{g}");
        for seed in 0..4u64 {
            assert_eq!(
                effects(&f, seed),
                effects(&g, seed),
                "case {case}, seed {seed}:\n{f}\nvs\n{g}"
            );
        }
    }
}

#[test]
fn canonicalize_is_idempotent() {
    let mut r = XorShift::new(0xC0DE_0002);
    for case in 0..64u32 {
        let Some(f) = build(&gen_steps(&mut r, 4, 40)) else { continue };
        let once = canonicalize(&f);
        let twice = canonicalize(&once);
        assert_eq!(once, twice, "case {case}: not a fixpoint:\n{once}\nvs\n{twice}");
    }
}

#[test]
fn narrow_constants_are_pure_additions() {
    let mut r = XorShift::new(0xC0DE_0003);
    for case in 0..64u32 {
        let Some(f) = build(&gen_steps(&mut r, 4, 40)) else { continue };
        let g = add_narrow_constants(&canonicalize(&f));
        assert!(vegen_ir::verify::verify(&g).is_ok(), "case {case}");
        for seed in 0..2u64 {
            assert_eq!(effects(&f, seed), effects(&g, seed), "case {case}, seed {seed}");
        }
    }
}
