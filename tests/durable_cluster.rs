//! Full-stack durability: a TCP cluster with file-backed storage is shut
//! down completely and relaunched from its data directories — committed
//! state must survive the restart.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};
use gridpaxos::transport::{FileStorage, ReactorCluster, ReactorConfig, SyncMode};
use std::path::PathBuf;

fn tmp_dirs(name: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let d = std::env::temp_dir().join(format!(
                "gridpaxos-durable-{name}-{}-r{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&d);
            d
        })
        .collect()
}

fn launch(dirs: &[PathBuf]) -> ReactorCluster {
    ReactorCluster::launch_with_storage(
        Config::cluster(3),
        1,
        || Box::new(KvStore::new()),
        None,
        ReactorConfig::default(),
        |p: ProcessId| {
            let storage = FileStorage::open(&dirs[p.0 as usize], SyncMode::Never, 1)
                .expect("open file storage");
            vec![Box::new(storage) as Box<dyn Storage>]
        },
    )
    .expect("launch durable cluster")
}

#[test]
fn committed_state_survives_full_cluster_restart() {
    let dirs = tmp_dirs("restart", 3);

    // Generation 1: commit some writes, then stop everything.
    {
        let cluster = launch(&dirs);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut client = cluster.client();
        for (k, v) in [("alpha", "1"), ("beta", "2"), ("gamma", "3")] {
            let reply = client
                .call(RequestKind::Write, KvOp::Put(k.into(), v.into()).encode())
                .expect("write");
            assert!(matches!(reply, ReplyBody::Ok(_)));
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
        let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
        assert!(replicas.iter().all(|r| r.chosen_prefix() == Instance(3)));
    }

    // Generation 2: relaunch from the same directories.
    {
        let cluster = launch(&dirs);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut client = cluster.client();
        let reply = client
            .call(RequestKind::Read, KvOp::Get("beta".into()).encode())
            .expect("read after restart");
        let ReplyBody::Ok(payload) = reply else {
            panic!("unexpected reply");
        };
        assert_eq!(
            KvStore::decode_reply(&payload).as_deref(),
            Some("2"),
            "committed write must survive the restart"
        );
        // And the cluster keeps making progress on top of recovered state.
        let reply = client
            .call(RequestKind::Write, KvOp::Add("counter".into(), 1).encode())
            .expect("write after restart");
        assert!(matches!(reply, ReplyBody::Ok(_)));

        std::thread::sleep(std::time::Duration::from_millis(250));
        let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
        let snaps: Vec<Bytes> = replicas.iter().map(|r| r.service_snapshot()).collect();
        assert!(snaps.windows(2).all(|w| w[0] == w[1]));
        let mut kv = KvStore::new();
        kv.restore(&snaps[0]);
        assert_eq!(kv.get("alpha"), Some("1"));
        assert_eq!(kv.get("counter"), Some("1"));
        assert!(
            replicas.iter().all(|r| r.chosen_prefix() >= Instance(4)),
            "progress continued past the recovered prefix"
        );
    }
    for d in dirs {
        std::fs::remove_dir_all(d).ok();
    }
}
