//! `fragalign gen … | head`: a reader that closes the pipe early ends
//! the output, quietly. The writer must exit 0 without a panic on
//! stderr instead of dying on "failed printing to stdout: Broken pipe".

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn gen_into_a_pipe_closed_early_exits_quietly() {
    // About 400 KB of JSON: far more than a pipe buffers, so the writer
    // is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fragalign"))
        .args([
            "gen",
            "--regions",
            "2000",
            "--h-frags",
            "4",
            "--m-frags",
            "4",
            "--seed",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fragalign");
    let mut stdout = child.stdout.take().expect("stdout piped");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("first 100 bytes");
    assert!(head.starts_with(b"{"), "gen prints JSON");
    drop(stdout);

    let out = child.wait_with_output().expect("fragalign exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "gen panicked on a closed pipe: {stderr}"
    );
    assert!(stderr.is_empty(), "gen wrote to stderr: {stderr}");
    assert!(out.status.success(), "gen exited with {:?}", out.status);
}
