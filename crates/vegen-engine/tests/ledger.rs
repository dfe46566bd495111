//! `reports/ledger.tsv` against the compiler: the [`CHECKED`] sections are
//! recomputed in-process and must equal the committed file's lines of
//! those sections (≈20 s debug). The figures run on one worker and the file
//! was written on one per core, so this also checks that the thread count
//! changes nothing. `fig11`, `ablation` and `soak` (≈45, 10 and 21 s debug)
//! are gated by CI's release `vegen-engine ledger --check`. After an
//! intended change of behaviour, regenerate the file and review its diff:
//! `VEGEN_UPDATE_GOLDEN=1 cargo test -p vegen-engine --test ledger`.

use vegen_engine::ledger::{differences, render, SECTIONS};

const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/ledger.tsv");

/// The checked sections, each with the worker count it is rendered on.
const CHECKED: [(&[&str], usize); 2] = [
    (&["fig2", "fig10", "fig12", "fig13", "fig14", "fig15", "check-specs"], 1),
    (&["suite", "corpus"], 0),
];

fn section(text: &str, name: &str) -> String {
    text.lines().filter(|l| l.split('\t').next() == Some(name)).collect::<Vec<_>>().join("\n")
}

#[test]
fn committed_ledger_matches_the_compiler() {
    if std::env::var_os("VEGEN_UPDATE_GOLDEN").is_some() {
        return std::fs::write(LEDGER, render(&SECTIONS, 0).unwrap()).unwrap();
    }
    let committed = std::fs::read_to_string(LEDGER).expect("reports/ledger.tsv");
    for (sections, threads) in CHECKED {
        let got = render(sections, threads).unwrap();
        assert_eq!(got.lines().next(), committed.lines().next(), "the header changed");
        for name in sections {
            let diffs = differences(&section(&committed, name), &section(&got, name));
            let first = diffs.iter().take(10).cloned().collect::<Vec<_>>().join("\n");
            assert!(diffs.is_empty(), "{} line(s) of {name} differ:\n{first}", diffs.len());
        }
    }
}
