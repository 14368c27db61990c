//! Repo-specific lint binary: `cargo run -p check --bin lint`.
//!
//! Runs [`check::lint::lint_repo`]: rule 7, `one-guard`, over every
//! `crates/*/src` (rules 1–6 are clippy's and core's; see the module
//! docs). Exit code 0 = clean, 1 = findings, 2 = I/O error.

use std::path::PathBuf;

fn main() {
    // Locate the repo root: the manifest dir is crates/check.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let findings = match check::lint::lint_repo(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: io error: {e}");
            std::process::exit(2);
        }
    };
    if findings.is_empty() {
        println!("lint: clean");
        return;
    }
    for f in &findings {
        println!("{f}");
    }
    eprintln!("lint: {} finding(s)", findings.len());
    std::process::exit(1);
}
