//! `repro` reports by its CSVs and its exit code even when nobody is
//! left to read what it prints. With stdout closed (`repro … | head -1`)
//! every artifact is still written and the run exits 0, not 101; with
//! stderr closed a bad invocation still exits 2.

use std::process::{Command, Stdio};

/// A pipe whose reader is gone: every write to it fails.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer
}

#[test]
fn a_closed_stdout_keeps_the_csvs_and_exit_code_zero() {
    // Outside the workspace, so `results_dir` falls back to ./results.
    let dir = std::env::temp_dir().join(format!("repro-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--threads", "1", "table1", "fig6c"])
        .current_dir(&dir)
        .stdout(closed_pipe())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "repro --quick table1 fig6c");
    for csv in ["table1.csv", "fig6c.csv"] {
        assert!(dir.join("results").join(csv).is_file(), "{csv}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_closed_stderr_keeps_exit_code_two() {
    for args in [&["--bogus"][..], &["no-such-artifact"], &[]] {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(closed_pipe())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "repro {args:?}");
    }
}
