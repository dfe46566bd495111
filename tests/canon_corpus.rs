//! Corpus-wide canonicalizer gate.
//!
//! Every downstream check — `CompiledKernel::verify`, the soak
//! differential, lane provenance — takes the *canonical* function as its
//! reference, so a canonicalizer bug is invisible to all of them. This gate
//! checks the canonicalizer itself, against the *original* program, over the
//! ledger's three sets: the suite kernels, corpus seed 42 (indices
//! 0..1000, the soak set; its first 200 are the quality corpus) and holdout
//! seed 1337 (0..200):
//!
//! * (a) byte identity — each canonical function, and each distinct
//!   canonical pattern of the SSE4 / AVX2 / AVX512-VNNI operations, hashes
//!   to the digest pinned in `tests/fixtures/canon_digests.txt`;
//! * (b) idempotence — canonicalizing the canonical form changes nothing;
//! * (c) convergence within [`MAX_PASSES`] passes;
//! * (d) semantics — `interp` memory equals the original function's on
//!   four random images.
//!
//! Regenerate the fixture — only for an intended canonical-form change —
//! with `VEGEN_UPDATE_GOLDEN=1 cargo test --test canon_corpus`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use vegen::ir::canon::{canonicalize, canonicalize_with_stats};
use vegen::ir::interp::{random_memory, run};
use vegen::ir::Function;
use vegen::isa::{InstDb, TargetIsa};
use vegen::kernels::gen;
use vegen::matcher::pattern_of_operation;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/canon_digests.txt");

/// The most passes any corpus function may take to reach its fixpoint
/// (the last pass is the one that observes no change).
const MAX_PASSES: u32 = 3;

/// The ledger's functions: suite, corpus (seed 42) and holdout (seed 1337).
fn corpus() -> Vec<Function> {
    let suite = vegen::kernels::all().into_iter().map(|k| (k.build)());
    let corpus = (0..1000).map(|i| gen::generate(42, i).function);
    let holdout = (0..200).map(|i| gen::generate(1337, i).function);
    suite.chain(corpus).chain(holdout).collect()
}

/// FNV-1a over the text: stable across processes, platforms and releases.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// One `name<TAB>digest` line per function, then one per distinct
/// canonical operation pattern of the three targets.
fn render_digests(functions: &[Function]) -> String {
    let mut out = String::new();
    for f in functions {
        writeln!(out, "{}\t{}", f.name, digest(&canonicalize(f).to_string())).unwrap();
    }
    let mut patterns = BTreeSet::new();
    for target in [TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()] {
        for def in InstDb::for_target(&target).iter() {
            for op in &def.sem.ops {
                let pattern = format!("{:?}", pattern_of_operation(op, true));
                patterns.insert(format!("pattern:{}\t{}", op.name, digest(&pattern)));
            }
        }
    }
    for line in patterns {
        writeln!(out, "{line}").unwrap();
    }
    out
}

#[test]
fn canonical_forms_match_the_pinned_digests() {
    let got = render_digests(&corpus());
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        eprintln!("canon_corpus: fixture regenerated ({} lines)", got.lines().count());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with VEGEN_UPDATE_GOLDEN=1 to create it");
    let differing: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got {g}\n  want {w}"))
        .collect();
    assert!(differing.is_empty(), "{} canonical forms changed:\n{}", differing.len(), {
        differing[..differing.len().min(10)].join("\n")
    });
    assert_eq!(got.lines().count(), want.lines().count(), "canon digests: line counts diverge");
}

#[test]
fn canonical_forms_are_idempotent_convergent_and_faithful() {
    for f in corpus() {
        let (g, stats) = canonicalize_with_stats(&f);
        assert!(
            stats.converged && stats.passes <= MAX_PASSES,
            "{}: {} passes, converged {}",
            f.name,
            stats.passes,
            stats.converged
        );
        assert_eq!(canonicalize(&g), g, "{}: canonical form is not a fixpoint", f.name);
        for seed in 0..4 {
            let mut want = random_memory(&f, seed);
            let mut got = want.clone();
            run(&f, &mut want).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            run(&g, &mut got).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            assert!(want == got, "{}: canonicalization changed memory (seed {seed})", f.name);
        }
    }
}
