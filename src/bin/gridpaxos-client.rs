//! Interactive client for a `gridpaxos-server` group: a small REPL over
//! the replicated key-value store.
//!
//! ```text
//! gridpaxos-client --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102
//! > put greeting hello
//! ok
//! > get greeting
//! hello
//! > add hits 1
//! 1
//! > txn put a 1 ; put b 2
//! committed
//! ```
//!
//! The client runs on the same `epoll` client loop as every live client,
//! so, like `gridpaxos-server`, it is Linux only.

// Off Linux only the stub `main` at the bottom is live.
#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use gridpaxos::core::client::ClientCore;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: gridpaxos-client [--peer <id>=<host:port>]... \n\
         commands: get K | put K V | del K | add K N | txn <op> [; <op>]... | quit"
    );
    exit(2)
}

fn parse_op(tokens: &[&str]) -> Option<(RequestKind, KvOp)> {
    match tokens {
        ["get", k] => Some((RequestKind::Read, KvOp::Get((*k).into()))),
        ["put", k, v] => Some((RequestKind::Write, KvOp::Put((*k).into(), (*v).into()))),
        ["del", k] => Some((RequestKind::Write, KvOp::Del((*k).into()))),
        ["add", k, n] => n
            .parse()
            .ok()
            .map(|n| (RequestKind::Write, KvOp::Add((*k).into(), n))),
        _ => None,
    }
}

fn show(body: Option<ReplyBody>) {
    match body {
        Some(ReplyBody::Ok(payload)) => match KvStore::decode_reply(&payload) {
            Some(v) => println!("{v}"),
            None => println!("(nil)"),
        },
        Some(ReplyBody::TxnCommitted { .. }) => println!("committed"),
        Some(ReplyBody::TxnAborted { reason, .. }) => println!("aborted: {reason:?}"),
        Some(ReplyBody::Empty) => println!("ok"),
        // The client core retries Busy internally; a Busy surfacing here
        // means the overall deadline expired while the cluster was
        // shedding load.
        Some(ReplyBody::Busy) => println!("error: cluster overloaded (busy), try again"),
        // Prepare votes are internal to the 2PC coordinator; a single-op
        // REPL call never issues one.
        Some(ReplyBody::TxnPrepared { txn }) => println!("prepared: {txn:?}"),
        None => println!("error: request timed out (no leader reachable?)"),
    }
}

#[cfg(target_os = "linux")]
fn main() {
    use gridpaxos::transport::{fresh_client_id, SyncClient};
    let mut peers: HashMap<ProcessId, SocketAddr> = HashMap::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--peer" => {
                i += 1;
                let Some((pid, addr)) = args.get(i).and_then(|s| s.split_once('=')) else {
                    usage()
                };
                let (Ok(pid), Ok(addr)) = (pid.parse::<u32>(), addr.parse()) else {
                    usage()
                };
                peers.insert(ProcessId(pid), addr);
            }
            _ => usage(),
        }
        i += 1;
    }
    if peers.is_empty() {
        usage();
    }
    // A fresh id: the replicas' dedup tables remember every earlier
    // client's last request, a reused one's included.
    let core = ClientCore::new(fresh_client_id(), peers.len(), Dur::from_millis(500));
    let mut client = SyncClient::new(core, peers).unwrap_or_else(|e| {
        eprintln!("client loop: {e}");
        exit(1)
    });

    let stdin = std::io::stdin();
    print!("> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            print!("> ");
            std::io::stdout().flush().ok();
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if let Some(rest) = line.strip_prefix("txn ") {
            // txn put a 1 ; put b 2
            let ops: Option<Vec<(RequestKind, bytes::Bytes)>> = rest
                .split(';')
                .map(|part| {
                    let tokens: Vec<&str> = part.split_whitespace().collect();
                    parse_op(&tokens).map(|(kind, op)| (kind, op.encode()))
                })
                .collect();
            match ops {
                Some(ops) if !ops.is_empty() => match client.run_txn(TxnScript { ops }) {
                    Some(TxnOutcome::Committed) => println!("committed"),
                    Some(TxnOutcome::Aborted(r)) => println!("aborted: {r:?}"),
                    None => println!("error: transaction timed out"),
                },
                _ => println!("parse error (txn put K V ; add K N ; ...)"),
            }
        } else {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match parse_op(&tokens) {
                // The store answers a put or a del with what the key now
                // holds; the REPL acknowledges it, as its doc shows.
                Some((kind, op @ (KvOp::Put(..) | KvOp::Del(_)))) => {
                    match client.call(kind, op.encode()) {
                        Some(ReplyBody::Ok(_)) => println!("ok"),
                        other => show(other),
                    }
                }
                Some((kind, op)) => show(client.call(kind, op.encode())),
                None => println!("parse error (get/put/del/add/txn/quit)"),
            }
        }
        print!("> ");
        std::io::stdout().flush().ok();
    }
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("gridpaxos-client requires Linux (epoll)");
    exit(2)
}
