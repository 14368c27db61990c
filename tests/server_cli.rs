//! `gridpaxos-server` command line: flags that were removed must be
//! refused, not silently accepted. Argument parsing finishes before the
//! server binds anything, so no socket is opened here.
#![cfg(target_os = "linux")]

use std::process::Command;

#[test]
fn removed_flags_print_usage_and_exit_2() {
    for removed in [
        ["--apply-workers", "2"],
        ["--checkpoint-chunk-kb", "64"],
        ["--transport", "reactor"],
        ["--sync", "batched"],
    ] {
        // Otherwise-valid arguments: it is the removed flag that is refused.
        let out = Command::new(env!("CARGO_BIN_EXE_gridpaxos-server"))
            .args(["--id", "0", "--listen", "127.0.0.1:0"])
            .args(["--peer", "0=127.0.0.1:0"])
            .args(removed)
            .output()
            .expect("run gridpaxos-server");
        assert_eq!(out.status.code(), Some(2), "{removed:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: gridpaxos-server"),
            "{removed:?}: {stderr}"
        );
        assert!(
            !stderr.contains(removed[0]),
            "usage still advertises {}",
            removed[0]
        );
    }
}
