//! `sweep` reports a bad invocation by its exit code even when nobody is
//! left to read its stderr (`sweep campaign bad.json 2>&1 | true`): the
//! message write fails, and the process still exits 1, not 101.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stderr_keeps_exit_code_one() {
    for args in [
        &["campaign", "no/such/spec.json"][..],
        &["no/such/spec.json"],
        &["--threads", "0"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(1), "sweep {args:?}");
    }
}
