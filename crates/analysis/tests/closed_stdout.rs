//! `fsm` reports by its exit code even when nobody is left to read what
//! it prints: with stdout closed (`fsm … | head -1`) a replay that
//! reproduces its violation still exits 0, not 101.

use std::process::{Command, Stdio};

/// A pipe whose reader is gone: every write to it fails.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer
}

#[test]
fn a_closed_stdout_keeps_the_replay_exit_code() {
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fsm/forged_ls_overflow.json"
    );
    let run = |stdout: Stdio| {
        Command::new(env!("CARGO_BIN_EXE_fsm"))
            .args(["--replay", scenario])
            .stdout(stdout)
            .stderr(Stdio::null())
            .status()
            .unwrap()
            .code()
    };
    assert_eq!(run(Stdio::null()), Some(0), "fsm --replay {scenario}");
    assert_eq!(run(closed_pipe().into()), Some(0), "closed stdout");
}
