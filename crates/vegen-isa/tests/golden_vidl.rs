//! Golden-VIDL regression test: every spec in `all_specs()` order through
//! the offline pipeline, rendered with `vegen_vidl::inst_text` and compared
//! byte-for-byte against a committed fixture.
//!
//! The fixture pins the *product* of the generator half — the descriptions
//! the match tables are built from — so that work on the offline pipeline's
//! representation (bit-vector kernel, lane slicing, simplifier plumbing)
//! provably changes nothing downstream, and a spec addition shows up as a
//! reviewable fixture diff. Regenerate with:
//!
//! ```text
//! VEGEN_UPDATE_GOLDEN=1 cargo test -p vegen-isa --test golden_vidl
//! ```

use vegen_isa::specs::all_specs;
use vegen_vidl::inst_text;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/spec_vidl.txt");

fn render_specs() -> String {
    all_specs()
        .iter()
        .map(|spec| match spec.build() {
            Ok(def) => inst_text(&def.sem),
            Err(e) => panic!("spec {} fails to build: {e}", spec.name),
        })
        .collect()
}

#[test]
fn spec_descriptions_match_golden_fixture() {
    let got = render_specs();
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        eprintln!("golden_vidl: fixture regenerated ({} bytes)", got.len());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with VEGEN_UPDATE_GOLDEN=1 to create it");
    if got != want {
        // Pinpoint the first diverging line for a readable failure.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "golden VIDL diverges at line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "golden VIDL: line counts diverge");
        panic!("golden VIDL diverges");
    }
}
