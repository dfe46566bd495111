//! Inputs shared by the differential tests of this crate: the AVX2 target
//! description and the three kernel populations every oracle runs over.

use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::Function;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

pub(crate) fn avx2_desc() -> TargetDesc {
    TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true)
}

fn prepared(f: &Function) -> Function {
    add_narrow_constants(&canonicalize(f))
}

/// The paper suite, prepared the way the driver prepares it.
pub(crate) fn suite_kernels() -> Vec<Function> {
    vegen_kernels::all().into_iter().map(|k| prepared(&(k.build)())).collect()
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
