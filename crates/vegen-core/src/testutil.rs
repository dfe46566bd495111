//! Inputs shared by the tests of this crate: the AVX2 target description,
//! the dot-product kernel the unit tests probe, and the three kernel
//! populations every oracle runs over.

use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::{Function, FunctionBuilder, InstKind, Type, ValueId};
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

pub(crate) fn avx2_desc() -> TargetDesc {
    TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
}

/// The Fig. 4(d) dot-product kernel with `lanes` output lanes:
/// `C[i] = A[2i]·B[2i] + A[2i+1]·B[2i+1]`, i16 inputs widened to i32. Four
/// lanes is what `pmaddwd_128` produces.
pub(crate) fn dot_kernel(lanes: i64) -> Function {
    let mut b = FunctionBuilder::new("dot");
    let a = b.param("A", Type::I16, 2 * lanes as usize);
    let bb = b.param("B", Type::I16, 2 * lanes as usize);
    let c = b.param("C", Type::I32, lanes as usize);
    for lane in 0..lanes {
        let a0 = b.load(a, lane * 2);
        let b0 = b.load(bb, lane * 2);
        let a1 = b.load(a, lane * 2 + 1);
        let b1 = b.load(bb, lane * 2 + 1);
        let a0w = b.sext(a0, Type::I32);
        let b0w = b.sext(b0, Type::I32);
        let a1w = b.sext(a1, Type::I32);
        let b1w = b.sext(b1, Type::I32);
        let m0 = b.mul(a0w, b0w);
        let m1 = b.mul(a1w, b1w);
        let t = b.add(m0, m1);
        b.store(c, lane, t);
    }
    canonicalize(&b.finish())
}

/// The values `f` stores, in store order.
pub(crate) fn stored_values(f: &Function) -> Vec<ValueId> {
    f.stores()
        .iter()
        .map(|&s| match f.inst(s).kind {
            InstKind::Store { value, .. } => value,
            _ => unreachable!(),
        })
        .collect()
}

/// The loads of parameter `base`, in offset order.
pub(crate) fn loads_of(f: &Function, base: usize) -> Vec<ValueId> {
    let mut loads: Vec<(i64, ValueId)> = f
        .iter()
        .filter_map(|(v, i)| match i.kind {
            InstKind::Load { loc } if loc.base == base => Some((loc.offset, v)),
            _ => None,
        })
        .collect();
    loads.sort();
    loads.into_iter().map(|l| l.1).collect()
}

pub(crate) fn prepared(f: &Function) -> Function {
    add_narrow_constants(&canonicalize(f))
}

/// The paper suite, prepared the way the driver prepares it.
pub(crate) fn suite_kernels() -> Vec<Function> {
    vegen_kernels::all().into_iter().map(|k| prepared(&(k.build)())).collect()
}

/// The 200 generated kernels of corpus `seed`, prepared.
pub(crate) fn corpus(seed: u64) -> Vec<Function> {
    (0..200).map(|i| prepared(&vegen_kernels::gen::generate(seed, i).function)).collect()
}

/// 200 generated corpus kernels plus the six committed soak regression
/// seeds (read by their two integers).
pub(crate) fn corpus_and_soak_seed_kernels() -> Vec<Function> {
    let mut kernels: Vec<(u64, u64)> = (0..200).map(|i| (42, i)).collect();
    let seeds_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../vegen-engine/tests/soak_seeds");
    for entry in std::fs::read_dir(seeds_dir).expect("soak seed corpus") {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let int = |key: &str| -> u64 {
            let at = text.find(key).unwrap_or_else(|| panic!("seed file lacks {key}"));
            let digits: String = text[at + key.len()..]
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().unwrap()
        };
        kernels.push((int("\"corpus_seed\""), int("\"index\"")));
    }
    assert_eq!(kernels.len(), 206, "200 corpus kernels + six committed soak seeds");
    kernels
        .into_iter()
        .map(|(seed, index)| prepared(&vegen_kernels::gen::generate(seed, index).function))
        .collect()
}
