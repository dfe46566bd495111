//! A subcommand whose stdout is a pipe with no reader (`explain | grep -q`
//! after grep has exited) stops writing quietly and exits with the code the
//! run would have had — it does not panic in a failed `println!`.

use std::process::{Command, Stdio};

/// Run the binary with `args` and a stdout whose read end is closed before
/// the process starts; return its exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn vegen-engine");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn explain_with_closed_stdout_exits_zero() {
    let (code, stderr) = run_with_closed_stdout(&["explain", "idct4"]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn check_specs_with_closed_stdout_exits_zero() {
    let (code, stderr) = run_with_closed_stdout(&["check-specs", "--target", "avx2"]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
}
