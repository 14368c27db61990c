//! A deployable replica server: one process of a replicated key-value
//! store over TCP. The node runs on the epoll reactor (one loop thread,
//! every connection multiplexed, admission control) and, with `--data-dir`,
//! group-commits its WAL: the reactor syncs once per drain cycle before
//! any acknowledgment is sent. Linux only.
//!
//! ```text
//! # A three-replica group on one machine:
//! gridpaxos-server --id 0 --listen 127.0.0.1:7100 \
//!     --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102 &
//! gridpaxos-server --id 1 --listen 127.0.0.1:7101 \
//!     --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102 &
//! gridpaxos-server --id 2 --listen 127.0.0.1:7102 \
//!     --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102 &
//! ```
//!
//! Then talk to the group with `gridpaxos-client`.

// Off Linux only the stub `main` at the bottom is live.
#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use gridpaxos::core::prelude::*;
use gridpaxos::services::KvStore;
use gridpaxos::transport::{FileStorage, SyncMode};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: gridpaxos-server --id <N> --listen <host:port> \
         [--peer <id>=<host:port>]... [--tpaxos] [--wan]\n\
         \n\
         --id      this replica's id (0-based)\n\
         --listen  address to bind\n\
         --peer    listen address of every replica (repeat; include self)\n\
         --data-dir <path>  durable storage directory (default: in-memory)\n\
         --tpaxos  enable T-Paxos transaction mode (default: per-op)\n\
         --wan     use WAN-tuned timeouts (default: cluster-tuned)"
    );
    exit(2)
}

#[cfg(target_os = "linux")]
fn main() {
    use gridpaxos::transport::{spawn_reactor_node, ReactorConfig};
    let mut id: Option<u32> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut peers: HashMap<ProcessId, SocketAddr> = HashMap::new();
    let mut tpaxos = false;
    let mut wan = false;
    let mut data_dir: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--id" => {
                i += 1;
                id = args.get(i).and_then(|s| s.parse().ok());
            }
            "--listen" => {
                i += 1;
                listen = args.get(i).and_then(|s| s.parse().ok());
            }
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
            "--data-dir" => {
                i += 1;
                data_dir = args.get(i).cloned();
            }
            "--tpaxos" => tpaxos = true,
            "--wan" => wan = true,
            _ => usage(),
        }
        i += 1;
    }
    let (Some(id), Some(listen)) = (id, listen) else {
        usage()
    };
    if peers.is_empty() {
        usage();
    }
    let n = peers.len();

    let mut cfg = if wan {
        Config::wan(n)
    } else {
        Config::cluster(n)
    };
    if tpaxos {
        cfg.txn_mode = TxnMode::TPaxos;
    }

    // Wall-clock-derived seed: replicas must differ (that is the
    // nondeterminism the protocol exists to handle).
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(42)
        ^ u64::from(id);

    // Fresh storage starts a new replica; a data dir with prior state is
    // recovered. The reactor flushes before it transmits, so the WAL can
    // group-commit.
    let storage: Box<dyn NodeStorage> = match &data_dir {
        Some(dir) => match FileStorage::open(dir, SyncMode::Batched, 1) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("open data dir {dir}: {e}");
                exit(1);
            }
        },
        None => Box::new(vec![Box::new(MemStorage::new()) as Box<dyn Storage>]),
    };
    let app = |_| Box::new(KvStore::new()) as Box<dyn App>;
    let node = Node::open(ProcessId(id), cfg, storage, &app, seed, Time::ZERO);
    if let (Some(dir), Some(replica)) = (&data_dir, node.group(GroupId::ZERO)) {
        eprintln!(
            "gridpaxos-server r{id}: opened {dir} at instance {}",
            replica.chosen_prefix()
        );
    }

    let listener = match TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            exit(1);
        }
    };
    let bound = listener.local_addr().unwrap_or(listen);
    eprintln!("gridpaxos-server r{id}: listening on {bound}, group of {n}");
    // Run until killed.
    let stop = Arc::new(AtomicBool::new(false));
    let handle = match spawn_reactor_node(node, listener, peers, stop, ReactorConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("spawn reactor: {e}");
            exit(1);
        }
    };
    for replica in handle.join() {
        eprintln!(
            "gridpaxos-server r{id}: stopped at instance {}",
            replica.chosen_prefix()
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("gridpaxos-server requires Linux (epoll)");
    exit(2)
}
