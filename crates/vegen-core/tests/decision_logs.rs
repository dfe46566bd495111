//! Decision-log regression test: the per-iteration beam log of four paper
//! kernels at width 16, rendered with every `f64` as its bit pattern and
//! compared byte-for-byte against a committed fixture.
//!
//! The log is observation only, and it is built from the same ranked pool
//! the search truncates, so this pins both at once: which candidates each
//! iteration ranked around the keep/prune boundary, in which order, with
//! which `g`, estimate and score bits. The same rendering must come out at
//! one and at two beam threads. Regenerate with:
//!
//! ```text
//! VEGEN_UPDATE_GOLDEN=1 cargo test -p vegen-core --test decision_logs
//! ```

use std::fmt::Write as _;
use vegen_core::{select_packs, BeamConfig, CostModel, VectorizerCtx};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/decision_logs.txt");

const KERNELS: [&str; 4] = ["fft4", "idct4", "chroma", "sbc"];

const WIDTH: usize = 16;

fn render(threads: usize) -> String {
    let desc = TargetDesc::build(&InstDb::for_target(&TargetIsa::avx2()), true);
    let mut out = String::new();
    for name in KERNELS {
        let k = vegen_kernels::all()
            .into_iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("suite kernel {name}"));
        let f = add_narrow_constants(&canonicalize(&(k.build)()));
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let cfg = BeamConfig {
            log_decisions: true,
            beam_threads: threads,
            ..BeamConfig::with_width(WIDTH)
        };
        let r = select_packs(&ctx, &cfg).unwrap();
        let log = r.decisions.expect("log_decisions populates the log");
        writeln!(out, "kernel {name} width {WIDTH}").unwrap();
        for it in &log.iterations {
            writeln!(
                out,
                "  iter {} beam_in {} pool {} deduped {} kept {}",
                it.index, it.beam_in, it.pool, it.deduped, it.kept
            )
            .unwrap();
            for c in &it.candidates {
                writeln!(
                    out,
                    "    {} g {:016x} est {:016x} score {:016x} packs {} {}",
                    if c.kept { "kept" } else { "pruned" },
                    c.g.to_bits(),
                    c.est.to_bits(),
                    c.score.to_bits(),
                    c.packs,
                    c.action
                )
                .unwrap();
            }
        }
        for c in &log.committed {
            writeln!(out, "  committed {} cost {:016x} {}", c.step, c.cost.to_bits(), c.pack)
                .unwrap();
        }
    }
    out
}

#[test]
fn decision_logs_match_the_fixture_at_one_and_two_threads() {
    let got = render(1);
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &got).unwrap();
        eprintln!("decision_logs: fixture regenerated ({} bytes)", got.len());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with VEGEN_UPDATE_GOLDEN=1 to create it");
    for (threads, got) in [(1, got), (2, render(2))] {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "decision logs diverge at line {} ({threads} threads)", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{threads} threads: line counts");
    }
}
