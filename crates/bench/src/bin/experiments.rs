//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments all                 # everything, paper order
//! experiments rrt-sysnet fig5 …   # a selection
//! experiments --seed 7 table1     # override the seed
//! ```

use gridpaxos_bench::TableOut;

fn run_one(name: &str, seed: u64) -> Option<Vec<TableOut>> {
    let t = match name {
        "all" => return Some(gridpaxos_bench::all(seed)),
        "rrt-sysnet" => gridpaxos_bench::rrt_sysnet(seed, 2000),
        "fig5" => gridpaxos_bench::fig5(seed),
        "fig6" => gridpaxos_bench::fig6(seed),
        "fig7" => gridpaxos_bench::fig7(seed),
        "fig8" => gridpaxos_bench::fig8(seed),
        "table1" => gridpaxos_bench::table1(seed, 500),
        "fig9" => {
            return Some(vec![
                gridpaxos_bench::fig9(seed, 3),
                gridpaxos_bench::fig9(seed, 5),
            ])
        }
        "leader-switch" => gridpaxos_bench::leader_switch(seed),
        "scale-t" => gridpaxos_bench::scale_t(seed),
        "ablation" => gridpaxos_bench::ablation(seed),
        "state-size" => gridpaxos_bench::state_size(seed),
        "batch-ablation" => gridpaxos_bench::batch_ablation(seed),
        "sharding" => gridpaxos_bench::sharding(seed),
        "txn" => gridpaxos_bench::bank_transactions(seed),
        "read-batching" => gridpaxos_bench::read_batching(seed),
        "follower-reads" => gridpaxos_bench::follower_reads(seed),
        "reactor" => gridpaxos_bench::reactor(seed),
        "large-state" => gridpaxos_bench::large_state(seed),
        _ => return None,
    };
    Some(vec![t])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        if i + 1 < args.len() {
            seed = args[i + 1].parse().unwrap_or(42);
            args.drain(i..=i + 1);
        }
    }
    if args.is_empty() {
        args.push("all".to_owned());
    }
    let mut any_bad = false;
    for name in &args {
        match run_one(name, seed) {
            Some(tables) => {
                for t in tables {
                    t.print();
                    match t.write_csv() {
                        Ok(p) => println!("  csv: {}", p.display()),
                        Err(e) => eprintln!("  csv write failed: {e}"),
                    }
                    match t.write_json() {
                        Ok(p) => println!("  json: {}", p.display()),
                        Err(e) => eprintln!("  json write failed: {e}"),
                    }
                }
            }
            None => {
                eprintln!(
                    "unknown experiment '{name}'; known: all rrt-sysnet fig5 fig6 fig7 fig8 \
                     table1 fig9 leader-switch scale-t ablation state-size batch-ablation \
                     sharding txn read-batching follower-reads reactor large-state"
                );
                any_bad = true;
            }
        }
    }
    if any_bad {
        std::process::exit(2);
    }
}
