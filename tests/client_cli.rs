//! `gridpaxos-client` end to end: two `gridpaxos-server` processes of a
//! three-replica group, the third replica down, and the REPL's commands
//! piped in. Every first send and every retry also dials the replica that
//! is down; the refused dials must cost the calls nothing.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A loopback address nothing listens on once this returns.
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr")
}

/// Server processes, killed when the test ends, however it ends.
struct Servers(Vec<Child>);

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn the_client_binary_serves_its_repl_with_one_replica_down() {
    let addrs: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
    let peers: Vec<String> = addrs
        .iter()
        .enumerate()
        .flat_map(|(i, a)| ["--peer".to_string(), format!("{i}={a}")])
        .collect();
    let servers = Servers(
        (0..2)
            .map(|i| {
                Command::new(env!("CARGO_BIN_EXE_gridpaxos-server"))
                    .args(["--id", &i.to_string(), "--listen", &addrs[i].to_string()])
                    .args(&peers)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("start gridpaxos-server")
            })
            .collect(),
    );
    let started = Instant::now();
    for addr in &addrs[..2] {
        while TcpStream::connect(addr).is_err() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{addr} never listened"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let mut client = Command::new(env!("CARGO_BIN_EXE_gridpaxos-client"))
        .args(&peers)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start gridpaxos-client");
    client
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"put greeting hello\nget greeting\nadd hits 1\nquit\n")
        .expect("write commands");
    let out = client.wait_with_output().expect("client output");
    drop(servers);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let answers: Vec<&str> = stdout
        .split("> ")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    assert_eq!(
        answers,
        ["ok", "hello", "1"],
        "stdout {stdout:?}, stderr {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(0));
}
