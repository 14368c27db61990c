//! `gridcheck`: bounded-exhaustive model checking of the consensus core.
//!
//! ```text
//! gridcheck --smoke              # CI configuration (bounded depths)
//! gridcheck --depth 9            # deeper sweep of every scenario
//! gridcheck --scenario leader-crash --depth 10
//! gridcheck --list               # list scenarios
//! gridcheck --txn2pc             # cross-group 2PC atomicity checker
//! gridcheck --txn2pc --seed 0x2bc00007       # replay one seed
//! ```
//!
//! Exit code 0 = every explored schedule satisfies every invariant;
//! 1 = a counterexample was found (its schedule is printed for replay);
//! 2 = usage error.

use check::{explore, smoke_scenarios, txn2pc};
use std::time::Instant;

fn main() {
    let mut smoke = false;
    let mut list = false;
    let mut depth: Option<usize> = None;
    let mut only: Option<String> = None;
    let mut run_txn2pc = false;
    let mut tx = txn2pc::Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(d) => depth = Some(d),
                None => usage_error("--depth needs an integer"),
            },
            "--scenario" => match args.next() {
                Some(s) => only = Some(s),
                None => usage_error("--scenario needs a name"),
            },
            "--txn2pc" => run_txn2pc = true,
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    tx.kv_seeds = n;
                    tx.world_seeds = (n / 100).max(1);
                }
                None => usage_error("--seeds needs an integer"),
            },
            "--seed" => match args.next().and_then(|v| parse_seed(&v)) {
                Some(s) => tx.replay = Some(s),
                None => usage_error("--seed needs an integer (decimal or 0x hex)"),
            },
            "--target" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tx.target_distinct = t,
                None => usage_error("--target needs an integer"),
            },
            "--help" | "-h" => {
                println!(
                    "gridcheck [--smoke] [--depth N] [--scenario NAME] [--list]\n\
                     gridcheck --txn2pc [--seeds N] [--seed S] [--target N]\n\
                     Bounded-exhaustive model checker for the gridpaxos protocol core,\n\
                     plus a cross-group 2PC atomicity checker over sharded deployments."
                );
                return;
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    if run_txn2pc {
        run_txn2pc_mode(&tx);
    }

    let scenarios = smoke_scenarios();
    if list {
        for s in &scenarios {
            println!("{:24} smoke depth {}", s.name, s.smoke_depth);
        }
        return;
    }

    let started = Instant::now();
    let mut total_states = 0u64;
    let mut total_transitions = 0u64;
    let mut ran = 0usize;
    for s in &scenarios {
        if let Some(only) = &only {
            if s.name != only {
                continue;
            }
        }
        ran += 1;
        let d = depth.unwrap_or(if smoke {
            s.smoke_depth
        } else {
            s.smoke_depth + 1
        });
        let t = Instant::now();
        match explore(s, d) {
            Ok(stats) => {
                total_states += stats.distinct_states;
                total_transitions += stats.transitions;
                println!(
                    "ok   {:24} depth {:2}  {:>9} states  {:>10} transitions  {:>7} pruned  {:.1}s",
                    s.name,
                    d,
                    stats.distinct_states,
                    stats.transitions,
                    stats.pruned,
                    t.elapsed().as_secs_f64()
                );
            }
            Err(cex) => {
                println!("FAIL {:24} depth {d:2}", s.name);
                print!("{cex}");
                std::process::exit(1);
            }
        }
    }
    if ran == 0 {
        usage_error("no scenario matched (try --list)");
    }
    println!(
        "all scenarios pass: {total_states} distinct states, \
         {total_transitions} transitions in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

fn run_txn2pc_mode(opts: &txn2pc::Opts) -> ! {
    let t = Instant::now();
    let report = txn2pc::run(opts);
    for f in &report.failures {
        println!(
            "FAIL [{}] seed {:#x}: {}\n     replay: gridcheck --txn2pc --seed {:#x}",
            f.harness, f.seed, f.detail, f.seed
        );
    }
    println!(
        "txn2pc: {} schedules, {} distinct, {} failure(s) in {:.1}s",
        report.schedules,
        report.distinct,
        report.failures.len(),
        t.elapsed().as_secs_f64()
    );
    if report.passed(opts) {
        std::process::exit(0);
    }
    if report.failures.is_empty() {
        eprintln!(
            "txn2pc: coverage below target ({} < {})",
            report.distinct, opts.target_distinct
        );
    }
    std::process::exit(1);
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("gridcheck: {msg}");
    std::process::exit(2);
}
