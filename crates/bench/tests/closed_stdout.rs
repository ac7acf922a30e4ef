//! A figure binary whose stdout reader has gone away (`fig3 | head -1`)
//! ends quietly with exit code 0 instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn figure_binaries_end_quietly_when_stdout_is_closed() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig3"), &["--iterations", "64"][..]),
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["--quick", "--clusters", "2"][..],
        ),
    ] {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the binary starts");
        // Close the read end before the binary has computed its report.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("the binary runs");
        assert!(output.status.success(), "{bin}: {:?}", output.status);
        assert!(
            output.stderr.is_empty(),
            "{bin}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
