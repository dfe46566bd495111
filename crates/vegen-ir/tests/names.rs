//! The IR vocabulary has one name table: `name()` spells, `from_name()`
//! reads, `ALL` enumerates. The VIDL parser and the cache-entry codec read
//! names through it, so a variant that is in the enum but not in `ALL`
//! would print and never parse back.

use vegen_ir::{BinOp, CastOp, CmpPred, Type};

/// Variants per enum, by exhaustive `match`: a new variant does not
/// compile until it is added to its pattern — next to the count that
/// `ALL.len()` is then compared with.
fn variant_counts() -> [usize; 4] {
    let binops = {
        use BinOp::*;
        match Add {
            Add | Sub | Mul | SDiv | UDiv | SRem | URem | And | Or | Xor | Shl | LShr | AShr
            | FAdd | FSub | FMul | FDiv => 17,
        }
    };
    let casts = {
        use CastOp::*;
        match SExt {
            SExt | ZExt | Trunc | FPExt | FPTrunc | SIToFP | UIToFP | FPToSI => 8,
        }
    };
    let preds = {
        use CmpPred::*;
        match Eq {
            Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge | Feq | Fne | Flt | Fle
            | Fgt | Fge => 16,
        }
    };
    let types = match Type::I1 {
        Type::I1
        | Type::I8
        | Type::I16
        | Type::I32
        | Type::I64
        | Type::F32
        | Type::F64
        | Type::Void => 8,
    };
    [binops, casts, preds, types]
}

/// `all` is the first `count` variants in declaration order — so, with
/// `count` variants in the enum, all of them — and every name reads back.
fn check<T: Copy + PartialEq + std::fmt::Debug>(
    all: &[T],
    count: usize,
    discriminant: fn(T) -> usize,
    name: fn(T) -> &'static str,
    from_name: fn(&str) -> Option<T>,
) {
    assert_eq!(all.len(), count, "ALL does not list every variant");
    for (i, &x) in all.iter().enumerate() {
        assert_eq!(discriminant(x), i, "{x:?} is out of place in ALL");
        assert_eq!(from_name(name(x)), Some(x), "{x:?} does not read back");
        assert_eq!(from_name(&name(x).to_uppercase()), None, "names are case-sensitive");
    }
    assert_eq!(from_name(""), None);
    assert_eq!(from_name("nope"), None);
}

#[test]
fn every_name_reads_back_and_all_is_the_whole_enum() {
    let [binops, casts, preds, types] = variant_counts();
    check(&BinOp::ALL, binops, |x| x as usize, BinOp::name, BinOp::from_name);
    check(&CastOp::ALL, casts, |x| x as usize, CastOp::name, CastOp::from_name);
    check(&CmpPred::ALL, preds, |x| x as usize, CmpPred::name, CmpPred::from_name);
    check(&Type::ALL, types, |x| x as usize, Type::name, Type::from_name);
    // The printer spells a type with the same table.
    assert!(Type::ALL.iter().all(|ty| ty.to_string() == ty.name()));
}
