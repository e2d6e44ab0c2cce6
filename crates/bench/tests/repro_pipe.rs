//! `repro` ends quietly when the reader of its output goes away early, as
//! in `repro all | head`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn repro_exits_cleanly_when_its_reader_closes_early() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig3")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    let mut first_line = String::new();
    // Reads the header, which `repro` prints before it runs anything, then
    // closes the pipe while the experiment is still running.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first_line)
        .expect("repro writes a header");
    assert!(first_line.starts_with("MFC reproduction"), "{first_line}");
    let output = child.wait_with_output().expect("repro finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
