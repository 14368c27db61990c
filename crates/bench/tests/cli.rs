//! The `experiments` binary's command line: a bad `--seed` and an
//! unknown name are refused before anything runs.

use gridpaxos_bench::experiments::REGISTRY;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn a_bad_seed_prints_the_usage_and_exits_2() {
    let out = experiments(&["--seed", "x", "fig5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran anyway: {:?}", out.stdout);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"));
}

#[test]
fn an_unknown_name_lists_the_registry_and_exits_2() {
    let out = experiments(&["fig5", "group-commit"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran fig5 anyway");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'group-commit'"),
        "{stderr}"
    );
    let known = stderr
        .lines()
        .find_map(|l| l.strip_prefix("known: "))
        .expect("a known: line");
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    assert_eq!(
        known.split(' ').collect::<Vec<_>>(),
        [&["all"], &names[..]].concat()
    );
}
