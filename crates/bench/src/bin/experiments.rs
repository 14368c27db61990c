//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments all                 # everything, paper order
//! experiments rrt-sysnet fig5 …   # a selection
//! experiments --seed 7 table1     # override the seed
//! ```
//!
//! The names are the rows of `gridpaxos_bench::experiments::REGISTRY`.

use gridpaxos_bench::experiments::{select, tables, REGISTRY};

/// Print `why`, the usage and every name the registry knows; exit 2.
fn usage(why: &str) -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    eprintln!(
        "{why}\nusage: experiments [--seed N] [NAME ...]\nknown: all {}",
        names.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        let Some(Ok(s)) = args.get(i + 1).map(|v| v.parse()) else {
            usage("--seed takes a non-negative integer")
        };
        seed = s;
        args.drain(i..=i + 1);
    }
    if args.is_empty() {
        args.push("all".to_owned());
    }
    let picked: Vec<_> = args
        .iter()
        .map(|name| select(name).unwrap_or_else(|| usage(&format!("unknown experiment '{name}'"))))
        .collect();
    for entry in picked.into_iter().flatten() {
        for t in tables(entry, seed) {
            t.print();
            match t.write_csv() {
                Ok(p) => println!("  csv: {}", p.display()),
                Err(e) => eprintln!("  csv write failed: {e}"),
            }
            match t.write_json(entry.3) {
                Ok(p) => println!("  json: {}", p.display()),
                Err(e) => eprintln!("  json write failed: {e}"),
            }
        }
    }
}
