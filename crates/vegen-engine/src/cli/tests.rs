//! The front end's contract, checked on the pure parser and on
//! `main_with_args`: the parent's exit codes for command lines that end
//! during argument handling, and — for every (subcommand, flag) pair of
//! the table — that the flag is rejected when malformed and sets exactly
//! its own value when well formed.

use super::*;

fn argv(words: &[&str]) -> Vec<String> {
    words.iter().map(|s| s.to_string()).collect()
}

/// The row's required positionals, then `tail`.
fn with_positionals(cmd: &Command, tail: &[&str]) -> Vec<String> {
    argv(&[cmd.positionals, tail].concat())
}

/// A well-formed value for a flag of this kind, and what `parse` must
/// store for it.
fn sample(kind: Kind) -> (Option<&'static str>, Value) {
    match kind {
        Kind::Switch => (None, Value::Switch),
        Kind::Text => (Some("some/text"), Value::Text("some/text".to_string())),
        Kind::Uint => (Some("7"), Value::Uint(7)),
        Kind::Target => (Some("SSE4.1"), Value::Target(TargetIsa::sse4())),
    }
}

/// `tests/fixtures/cli_parity.txt` was recorded from the binary of the
/// parent commit (eight hand-written argument loops); every line must
/// still end with the same exit code.
#[test]
fn parent_exit_codes_reproduce() {
    let matrix = include_str!("../../tests/fixtures/cli_parity.txt");
    let cases: Vec<(i32, Vec<String>)> = matrix
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (code, line) = l.split_once('\t').expect("<code>\\t<argv>");
            (code.parse().expect("exit code"), line.split(' ').map(str::to_string).collect())
        })
        .collect();
    assert!(cases.len() > 100, "fixture truncated: {} cases", cases.len());
    for (code, args) in cases {
        assert_eq!(main_with_args(&args), code, "{args:?}");
    }
}

#[test]
fn every_row_rejects_malformed_arguments() {
    for cmd in COMMANDS {
        let err = |tail: &[&str]| {
            parse(cmd, &with_positionals(cmd, tail)).expect_err(&format!("{} {tail:?}", cmd.name))
        };
        assert_eq!(err(&["--bogus"]), "unknown argument \"--bogus\"");
        assert_eq!(err(&["stray"]), "unknown argument \"stray\"");
        for flag in cmd.flags.iter().filter(|f| f.kind != Kind::Switch) {
            assert_eq!(err(&[flag.name]), format!("{} needs a value", flag.name));
            if flag.kind == Kind::Uint {
                for bad in ["x", "", "-1", "1.5"] {
                    assert!(err(&[flag.name, bad]).starts_with(flag.name), "{}", flag.name);
                }
            }
            if flag.kind == Kind::Target {
                assert_eq!(err(&[flag.name, "nope"]), "--target: unknown target \"nope\"");
            }
        }
        if let Some(last) = cmd.positionals.last() {
            let short = &cmd.positionals[..cmd.positionals.len() - 1];
            assert_eq!(parse(cmd, &argv(short)), Err(format!("missing {last}")));
        }
    }
}

#[test]
fn every_flag_sets_exactly_the_value_it_names() {
    for cmd in COMMANDS {
        let bare = parse(cmd, &with_positionals(cmd, &[])).unwrap().expect("not help");
        assert_eq!(bare.values, [], "{}: nothing given, nothing set", cmd.name);
        assert_eq!(bare.positionals, argv(cmd.positionals));
        for flag in cmd.flags {
            let (raw, want) = sample(flag.kind);
            let tail: Vec<&str> = std::iter::once(flag.name).chain(raw).collect();
            let parsed = parse(cmd, &with_positionals(cmd, &tail)).unwrap().expect("not help");
            assert_eq!(parsed.values, [(flag.name, want)], "{} {}", cmd.name, flag.name);
            assert_eq!(parsed.positionals, bare.positionals);
        }
    }
}

#[test]
fn help_wins_wherever_it_stands_and_the_last_occurrence_of_a_flag_wins() {
    let suite = &COMMANDS[0];
    for help in ["--help", "-h"] {
        assert_eq!(parse(suite, &argv(&["--beam", "4", help, "--bogus"])), Ok(None));
    }
    // In value position it is a value, as it always was.
    let parsed = parse(suite, &argv(&["--out", "--help"])).unwrap().expect("not help");
    assert_eq!(parsed.text(&OUT), Some("--help"));
    let parsed =
        parse(suite, &argv(&["--beam", "4", "--runs", "1", "--beam", "8"])).unwrap().unwrap();
    assert_eq!(parsed.num::<usize>(&BEAM), Some(8));
    assert_eq!(parsed.num::<usize>(&RUNS), Some(1));
    // A flag the row does not list reads as absent, so a shared helper
    // may ask for it.
    assert!(!parsed.has(&WARM_START) && parsed.text(&SOCKET).is_none());
}

/// The surface: 41 flags, 71 (subcommand, flag) pairs, nine rows — the
/// eight the table was built with, plus `ledger` and its `--check`. A
/// change here is a change of user surface and belongs in the PR text.
#[test]
fn the_table_declares_the_parent_surface() {
    let pairs: Vec<(&str, &str)> =
        COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| (c.name, f.name))).collect();
    let mut distinct: Vec<&str> = pairs.iter().map(|(_, f)| *f).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!((COMMANDS.len(), pairs.len(), distinct.len()), (9, 71, 41));
    let mut unique = pairs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), pairs.len(), "a row lists a flag twice");
    let hidden: Vec<&str> =
        COMMANDS.iter().flat_map(|c| c.flags).filter(|f| f.hidden).map(|f| f.name).collect();
    assert_eq!(hidden, ["--inject-miscompile"]);
}

/// `ledger`'s usage errors end before anything is compiled, with exit 2.
#[test]
fn ledger_usage_errors_exit_2() {
    assert_eq!(main_with_args(&argv(&["ledger", "--bogus"])), 2);
    assert_eq!(main_with_args(&argv(&["ledger", "--check"])), 2);
    let missing = std::env::temp_dir().join(format!("vegen-no-ledger-{}", std::process::id()));
    assert_eq!(main_with_args(&argv(&["ledger", "--check", missing.to_str().unwrap()])), 2);
}

/// README's command-line listing is pasted from the bare `--help`; it may
/// not drift from the table.
#[test]
fn readme_carries_the_generated_overview() {
    let readme = include_str!("../../../../README.md");
    let text = overview();
    assert!(readme.contains(&text), "re-paste `vegen-engine --help` into README.md:\n{text}");
}
