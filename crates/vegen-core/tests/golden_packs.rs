//! Golden-packs regression test: pack selection over the full
//! `vegen-kernels` suite, rendered to a canonical text form and compared
//! byte-for-byte against a committed fixture.
//!
//! The fixture pins the *semantics* of the search — which packs win, in
//! which order, at which cost — so that representation-level work on the
//! hot path (operand/pack interning, incremental state hashing, persistent
//! pack sets) provably changes nothing about the output. Regenerate with:
//!
//! ```text
//! VEGEN_UPDATE_GOLDEN=1 cargo test -p vegen-core --test golden_packs
//! ```

use std::fmt::Write as _;
use vegen_core::{
    select_packs_reusing, BeamConfig, CostModel, Pack, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::ValueId;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_packs.txt");

/// The beam widths pinned by the fixture (1 = the SLP heuristic, 8 = a
/// mid-size beam that exercises dedup and tie-breaking).
const WIDTHS: [usize; 2] = [1, 8];

fn lane(v: &Option<ValueId>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "_".to_string(),
    }
}

fn lanes(vs: &[Option<ValueId>]) -> String {
    let rendered: Vec<String> = vs.iter().map(lane).collect();
    format!("[{}]", rendered.join(","))
}

fn values(vs: &[ValueId]) -> String {
    let rendered: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", rendered.join(","))
}

fn render_pack(desc: &TargetDesc, p: &Pack) -> String {
    match p {
        Pack::Compute { inst, matches } => {
            let mut s = format!("compute {}", desc.insts[*inst].def.name);
            for m in matches {
                match m {
                    None => s.push_str(" _"),
                    Some(m) => {
                        write!(
                            s,
                            " {{root={} live_ins={} covered={}}}",
                            m.root,
                            lanes(&m.live_ins),
                            values(&m.covered)
                        )
                        .unwrap();
                    }
                }
            }
            s
        }
        Pack::Load { base, start, loads, elem } => {
            format!("load base={base} start={start} elem={elem} loads={}", lanes(loads))
        }
        Pack::Store { base, start, stores, values: vals, elem } => format!(
            "store base={base} start={start} elem={elem} stores={} values={}",
            values(stores),
            values(vals)
        ),
    }
}

fn render_suite() -> String {
    let desc = TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true);
    let mut out = String::new();
    for k in vegen_kernels::all() {
        let f = add_narrow_constants(&canonicalize(&(k.build)()));
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        // One freeze per kernel: the candidates do not depend on the width.
        let mut reuse = SelectionReuse::new();
        for width in WIDTHS {
            let r = select_packs_reusing(&ctx, &BeamConfig::with_width(width), &mut reuse).unwrap();
            writeln!(out, "kernel {} width {}", k.name, width).unwrap();
            writeln!(out, "  vector_cost {:?} scalar_cost {:?}", r.vector_cost, r.scalar_cost)
                .unwrap();
            for (_, p) in r.packs.iter() {
                writeln!(out, "  {}", render_pack(&desc, p)).unwrap();
            }
        }
    }
    out
}

#[test]
fn selected_packs_match_golden_fixture() {
    let got = render_suite();
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        eprintln!("golden_packs: fixture regenerated ({} bytes)", got.len());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with VEGEN_UPDATE_GOLDEN=1 to create it");
    if got != want {
        // Pinpoint the first diverging line for a readable failure.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "golden packs diverge at line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "golden packs: line counts diverge");
        panic!("golden packs diverge");
    }
}
