//! Lint self-tests: each rule fires on a deliberately bad snippet (or a
//! mutation of the shipped code it guards) and
//! stays silent on the idiomatic equivalent. The wildcard-arm case is
//! the CI tripwire: introducing `_ =>` into Msg dispatch anywhere in the
//! core makes `cargo run -p check --bin lint` (and these tests) fail.

use check::lint::{
    check_barrier_callers, check_barrier_class, check_flush_barrier, check_msg_wildcards,
    check_no_blocking, check_one_guard, check_persist_before_send, check_read_mode_owner,
    check_unwraps, lint_repo, lint_source, mask_test_items, strip_noise, Finding, Scope,
};

const FULL: Scope = Scope {
    no_unwrap: true,
    persist: true,
    flush: true,
    no_blocking: true,
};

#[test]
fn wildcard_msg_arm_is_flagged() {
    let src = r#"
        fn dispatch(&mut self, msg: Msg) {
            match msg {
                Msg::Request(req) => self.handle_request(req),
                Msg::Prepare { ballot, .. } => self.handle_prepare(ballot),
                _ => {}
            }
        }
    "#;
    let findings = check_msg_wildcards("dispatch.rs", &strip_noise(src));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "msg-wildcard");
}

#[test]
fn exhaustive_msg_match_is_clean() {
    let src = r#"
        fn dispatch(&mut self, msg: Msg) {
            match msg {
                Msg::Request(req) => self.handle_request(req),
                Msg::Prepare { ballot, .. } | Msg::Promise { ballot, .. } => {
                    self.handle_ballot(ballot)
                }
                Msg::Reply(r) => drop(r),
            }
        }
    "#;
    assert!(check_msg_wildcards("dispatch.rs", &strip_noise(src)).is_empty());
}

/// A match over a *different* enum that merely binds a nested `Msg::`
/// pattern is a filter, not Msg dispatch — its `_` arm is fine.
#[test]
fn nested_msg_pattern_in_action_match_is_clean() {
    let src = r#"
        fn sent(actions: &[Action]) -> Vec<GroupId> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Send { msg: Msg::Grouped { group, .. }, .. } => Some(*group),
                    _ => None,
                })
                .collect()
        }
    "#;
    assert!(check_msg_wildcards("helpers.rs", &strip_noise(src)).is_empty());
}

#[test]
fn wildcard_inside_test_module_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn pick(msg: Msg) -> u32 {
                match msg {
                    Msg::Request(_) => 1,
                    _ => 0,
                }
            }
        }
    "#;
    let masked = mask_test_items(&strip_noise(src));
    assert!(check_msg_wildcards("mod.rs", &masked).is_empty());
}

#[test]
fn unwrap_outside_tests_is_flagged() {
    let src = r#"
        fn decode(buf: &[u8]) -> Frame {
            let len = buf.first().copied().unwrap();
            parse(&buf[1..]).expect("valid frame")
        }
    "#;
    let findings = check_unwraps("decode.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-unwrap"));
}

#[test]
fn unwrap_inside_test_module_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn roundtrip() {
                decode(&encode()).unwrap();
            }
        }
    "#;
    let findings = check_unwraps("decode.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The string literal `".unwrap()"` must not fool the rule — noise
/// stripping removes string contents before scanning.
#[test]
fn unwrap_in_string_literal_is_clean() {
    let src = r#"
        fn banner() -> &'static str {
            "never call .unwrap() here"
        }
    "#;
    assert!(check_unwraps("doc.rs", &mask_test_items(&strip_noise(src))).is_empty());
}

#[test]
fn send_before_persist_is_flagged() {
    // `handle_accept` builds its Accepted reply before calling
    // save_accepted: acknowledging before durability (§3.1 violation).
    let src = r#"
        fn handle_accept(&mut self, from: Addr) {
            let reply = Msg::Accepted { instance: i };
            out.push(Action::Send { to: from, msg: reply });
            self.stable.acked().save_accepted(i, &decree);
        }
    "#;
    let findings = check_persist_before_send("mod.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "persist-before-send");
}

#[test]
fn missing_persist_is_flagged() {
    let src = r#"
        fn handle_accept(&mut self, from: Addr) {
            out.push(Action::Send { to: from, msg: Msg::Accepted { instance: i } });
        }
    "#;
    let findings = check_persist_before_send("mod.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "persist-before-send");
}

#[test]
fn persist_that_raises_no_barrier_is_flagged() {
    // Written through the door for records no message acknowledges, the
    // accept record would wait for some later barrier while its
    // `Accepted` leaves now.
    let src = r#"
        fn handle_accept(&mut self, from: Addr) {
            self.stable.unacked().save_accepted(i, &decree);
            out.push(Action::Send { to: from, msg: Msg::Accepted { instance: i } });
        }
    "#;
    let findings = check_persist_before_send("mod.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "persist-before-send");
}

#[test]
fn persist_before_send_is_clean() {
    let src = r#"
        fn handle_accept(&mut self, from: Addr) {
            self.stable.acked().save_accepted(i, &decree);
            out.push(Action::Send { to: from, msg: Msg::Accepted { instance: i } });
        }
    "#;
    let findings = check_persist_before_send("mod.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The promise is written by the preamble `defer_to`; `handle_prepare`
/// has to run it before it builds the `Promise`, and the preamble has to
/// write through the door that raises the barrier.
#[test]
fn promise_built_before_the_preamble_persisted_it_is_flagged() {
    let preamble = |door: &str| {
        format!(
            "fn defer_to(&mut self, ballot: Ballot) -> bool {{
                self.promised = ballot;
                self.stable.{door}().save_promised(ballot);
                true
            }}"
        )
    };
    let handler = |body: &str| format!("fn handle_prepare(&mut self, from: Addr) {{ {body} }}");
    let promise = "out.push(Action::Send { to: from, msg: Msg::Promise { ballot } });";
    let check =
        |src: String| check_persist_before_send("mod.rs", &mask_test_items(&strip_noise(&src)));

    let clean = handler(&format!(
        "if !self.defer_to(ballot) {{ return; }} {promise}"
    ));
    assert!(check(preamble("acked") + &clean).is_empty());
    for bad in [
        preamble("acked") + &handler(promise),
        preamble("acked") + &handler(&format!("{promise} self.defer_to(ballot);")),
        preamble("unacked") + &clean,
    ] {
        let findings = check(bad);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].rule, "persist-before-send");
    }
}

#[test]
fn missing_flush_barrier_is_flagged() {
    let src = r#"
        fn release_or_cut(wire: &mut impl Wire, power_cut: bool) {
            let mut outbox = std::mem::take(wire.outbox());
            wire.transmit(&mut outbox.ahead);
            wire.transmit(&mut outbox.behind);
            *wire.outbox() = outbox;
        }
    "#;
    let findings = check_flush_barrier("outbox.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "flush-before-transmit");
}

/// The release hands the behind list — `Accepted`, `Promise`, `Reply` —
/// to the network before the covering flush: under group commit the WAL
/// records backing those messages may still be un-synced.
#[test]
fn behind_list_transmitted_before_the_barrier_is_flagged() {
    let src = r#"
        fn release_or_cut(wire: &mut impl Wire, power_cut: bool) {
            let mut outbox = std::mem::take(wire.outbox());
            wire.transmit(&mut outbox.ahead);
            wire.transmit(&mut outbox.behind);
            for core in wire.cores() {
                core.flush_storage();
            }
            *wire.outbox() = outbox;
        }
    "#;
    let findings = check_flush_barrier("outbox.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "flush-before-transmit");
    assert_eq!(findings[0].line, 5, "the behind list's line");
}

#[test]
fn ahead_then_barrier_then_behind_is_clean() {
    let src = r#"
        fn release_or_cut(wire: &mut impl Wire, power_cut: bool) {
            if wire.outbox().is_empty() {
                return;
            }
            let mut outbox = std::mem::take(wire.outbox());
            if !outbox.ahead.is_empty() {
                wire.transmit(&mut outbox.ahead);
            }
            if power_cut && wire.cores().iter().any(|core| core.storage_dirty()) {
                outbox.behind.clear();
            } else {
                for core in wire.cores() {
                    if core.storage_dirty() {
                        core.flush_storage();
                    }
                }
                wire.transmit(&mut outbox.behind);
            }
            *wire.outbox() = outbox;
        }
    "#;
    let findings = check_flush_barrier("outbox.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The barrier has one caller. A drive loop that sorts its sends by
/// `precedes_barrier` itself, or runs `flush_storage` itself, keeps a
/// second copy of the order — where the order rule above does not look.
#[test]
fn a_drive_loop_spelling_the_order_itself_is_flagged() {
    let check =
        |file: &str, src: &str| check_barrier_callers(file, &mask_test_items(&strip_noise(src)));
    let partitions = r#"
        fn dispatch(&mut self, actions: Vec<Action>, send_at: Time, cpu_done: Time) {
            for (msg, to) in sends(actions) {
                let depart = if msg.precedes_barrier() { cpu_done } else { send_at };
                self.send_one(to, msg, depart);
            }
        }
    "#;
    let flushes = r#"
        fn step(&mut self, idx: usize, actions: Vec<Action>) {
            self.replicas[idx].flush_storage();
            self.process_actions(idx, actions);
        }
    "#;
    for (src, line) in [(partitions, 4), (flushes, 3)] {
        let findings = check("crates/simnet/src/world.rs", src);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].rule, "flush-before-transmit");
        assert_eq!(findings[0].line, line);
        assert!(check("crates/core/src/outbox.rs", src).is_empty());
    }
    // Not calls: a definition, a longer name, the flush on the way out.
    let replica = r#"
        pub fn flush_storage(&mut self) {
            self.stable.flush();
        }
        pub fn stop(&mut self) {
            self.flush_storage();
            self.exec.abandon();
        }
        pub fn chaos_accepted_precedes_barrier(&mut self) {}
    "#;
    assert!(check("crates/core/src/replica/mod.rs", replica).is_empty());
    assert_eq!(check("crates/transport/src/reactor.rs", replica).len(), 1);
}

/// Read policy has one owner. A mode `match` in `leader.rs` is §3.4's
/// rule written a second time; the same text is `reads.rs`'s to write,
/// and a test's to name.
#[test]
fn a_read_mode_decision_outside_reads_rs_is_flagged() {
    let check =
        |file: &str, src: &str| check_read_mode_owner(file, &mask_test_items(&strip_noise(src)));
    let decides = r#"
        fn leader_handle_request(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
            match self.cfg.read_mode {
                m if m.is_follower() => self.leader_handle_read(req, now, out),
                _ => self.sequence(req, now, out),
            }
        }
    "#;
    let findings = check("crates/core/src/replica/leader.rs", decides);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "read-policy-owner");
    assert_eq!(findings[0].line, 3);
    for elsewhere in [
        "crates/core/src/replica/reads.rs",
        "crates/core/src/replica/tests.rs",
        "crates/simnet/src/world.rs",
    ] {
        assert!(check(elsewhere, decides).is_empty(), "{elsewhere}");
    }
    // Each spelling is a decision; a builder's longer name is not.
    let spellings = r#"
        fn f(&self) -> bool {
            self.cfg.confirm_batching && self.cfg.read_mode == ReadMode::XPaxos
        }
        fn g(cfg: Config) -> Config {
            cfg.with_read_mode(mode).with_confirm_batching(false)
        }
    "#;
    assert_eq!(check("crates/core/src/replica/mod.rs", spellings).len(), 3);
}

/// The tree as shipped passes every rule, the one caller and the one
/// owner included.
#[test]
fn the_shipped_tree_is_clean() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let findings = lint_repo(root).expect("read the tree");
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The services decode client bytes inside the replica process, so the
/// no-unwrap rule reaches `crates/services/src` too: one non-test
/// `expect` there is one finding, a test module's is none.
#[test]
fn an_expect_in_a_service_is_flagged() {
    let root = std::env::temp_dir().join(format!("lint-services-{}", std::process::id()));
    let dir = root.join("crates/services/src/kvstore");
    std::fs::create_dir_all(&dir).expect("make the tree");
    let src = r#"
        fn write_of(op: KvOp) -> KvWrite {
            op.into_write().expect("write op")
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {
                decode(&[]).unwrap();
            }
        }
    "#;
    std::fs::write(dir.join("mod.rs"), src).expect("write the file");
    let findings = lint_repo(&root);
    std::fs::remove_dir_all(&root).expect("clean up");
    let findings = findings.expect("read the tree");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "no-unwrap");
    assert_eq!(findings[0].file, "crates/services/src/kvstore/mod.rs");
}

/// The classifier may answer `true` for `Accept` alone: each other
/// variant in a `true` arm is its own finding, with or without the
/// exhaustive rest of the match.
#[test]
fn classifier_letting_acknowledgements_ahead_is_flagged() {
    let classifier = |ahead: &str| {
        format!(
            "impl Msg {{
                pub fn precedes_barrier(&self) -> bool {{
                    match self {{
                        {ahead} => true,
                        Msg::Grouped {{ inner, .. }} => inner.precedes_barrier(),
                        Msg::Request(_)
                        | Msg::Reply(_)
                        | Msg::Chosen {{ .. }} => false,
                    }}
                }}
            }}"
        )
    };
    let check = |src: String| check_barrier_class("msg.rs", &mask_test_items(&strip_noise(&src)));
    assert!(check(classifier("Msg::Accept { .. }")).is_empty());
    for (bad, n) in [
        ("Msg::Accept { .. } | Msg::Accepted { .. }", 1),
        ("Msg::Promise { .. } | Msg::Accept { .. }", 1),
        ("Msg::Accept { .. } | Msg::Prepare { ballot, .. }", 1),
        (
            "Msg::Accepted { .. } | Msg::Promise { .. } | Msg::Prepare { .. }",
            3,
        ),
    ] {
        let findings = check(classifier(bad));
        assert_eq!(findings.len(), n, "{bad}: {findings:?}");
        assert!(findings.iter().all(|f| f.rule == "flush-before-transmit"));
    }
    // The shipped classifier goes through `lint_source` like any file.
    let shipped = include_str!("../../core/src/msg.rs");
    assert!(lint_source("crates/core/src/msg.rs", shipped, Scope::default()).is_empty());
}

#[test]
fn blocking_calls_on_reactor_path_are_flagged() {
    // Each of the four forbidden primitives parks the reactor thread:
    // sleep outright, the others loop internally past EWOULDBLOCK.
    let src = r#"
        fn drain(&mut self, stream: &mut TcpStream) {
            std::thread::sleep(Duration::from_millis(1));
            stream.write_all(&self.buf);
            stream.read_exact(&mut self.hdr);
            stream.read_to_end(&mut self.rest);
        }
    "#;
    let findings = check_no_blocking("reactor.rs", &mask_test_items(&strip_noise(src)));
    assert_eq!(findings.len(), 4, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-blocking-call"));
}

#[test]
fn nonblocking_read_write_loops_are_clean() {
    let src = r#"
        fn flush_conn(&mut self, stream: &mut TcpStream) -> io::Result<()> {
            loop {
                match stream.write(&self.buf[self.off..]) {
                    Ok(n) => self.off += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        }
    "#;
    let findings = check_no_blocking("reactor.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// Blocking calls inside `#[cfg(test)]` harness code are exempt — the
/// reactor's own tests drive it from blocking client sockets.
#[test]
fn blocking_call_inside_test_module_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn burst() {
                sock.write_all(&batch).expect("send burst");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    "#;
    let findings = check_no_blocking("reactor.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// Mentioning a blocking primitive in a comment or string is fine —
/// noise stripping removes both before the scan.
#[test]
fn blocking_token_in_comment_is_clean() {
    let src = r#"
        // Unlike write_all, flush_into surfaces EWOULDBLOCK to the caller.
        fn doc() -> &'static str {
            "never thread::sleep here"
        }
    "#;
    let findings = check_no_blocking("backpressure.rs", &mask_test_items(&strip_noise(src)));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// End-to-end: `lint_source` composes stripping, masking and every rule.
#[test]
fn lint_source_composes_all_rules() {
    let src = r#"
        fn handle(&mut self, msg: Msg) {
            match msg {
                Msg::Request(req) => self.queue.push(req),
                _ => self.count.checked_add(1).unwrap(),
            }
        }
    "#;
    let findings = lint_source("handle.rs", src, FULL);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"msg-wildcard"), "rules: {rules:?}");
    assert!(rules.contains(&"no-unwrap"), "rules: {rules:?}");
}

fn one_guard(src: &str) -> Vec<Finding> {
    check_one_guard("fstorage.rs", &mask_test_items(&strip_noise(src)))
}

/// The WAL's flush barrier drops its guard before it fsyncs. Each of
/// three mutations of the shipped function puts something under the
/// guard, and each is one finding on the line that does it.
#[test]
fn one_guard_fires_on_mutations_of_the_shipped_flush() {
    let shipped = include_str!("../../transport/src/fstorage.rs");
    assert!(one_guard(shipped).is_empty(), "{:?}", one_guard(shipped));
    let dropped = "        drop(inner);\n";
    let sync = "        fatal_io(\"WAL fsync (flush barrier)\", wal.sync_data());\n";
    let barrier = format!("{dropped}{sync}");
    assert!(
        shipped.contains(&barrier),
        "the flush this test mutates moved"
    );
    for (mutated, token) in [
        // The fsync moved above the drop.
        (format!("{sync}{dropped}"), "sync_data"),
        // A second acquisition while the first guard is live.
        (
            format!("        let appends = self.wal.lock().appends;\n{barrier}"),
            "lock",
        ),
        // A channel send while the guard is live.
        (
            format!("        let _ = tx.send(target);\n{barrier}"),
            "send",
        ),
    ] {
        let findings = one_guard(&shipped.replacen(&barrier, &mutated, 1));
        assert_eq!(findings.len(), 1, "{token}: {findings:?}");
        assert_eq!(findings[0].rule, "one-guard");
        assert!(
            findings[0].msg.starts_with(&format!("`{token}(")),
            "{findings:?}"
        );
    }
}

/// Every spelling of a guard, and each thing that parks a thread, fires
/// while the guard is live: to its `drop` or the end of its block.
#[test]
fn one_guard_fires_on_blocking_under_any_guard() {
    let src = r#"
        fn f(&self) {
            let g = self.a.lock().unwrap();
            std::thread::sleep(TICK);
            let h = lock(&self.b);
            drop(h);
            let v = rx.recv();
            let w = rx.recv_timeout(TICK);
            worker.join();
            done.try_send(v);
        }
        fn g(&self) {
            let mut c = self.core.lock().unwrap_or_else(PoisonError::into_inner);
            {
                let other = self.inner.lock();
            }
        }
    "#;
    let lines: Vec<usize> = one_guard(src).iter().map(|f| f.line).collect();
    // Line 5's `lock` is the second acquisition under `g`; so is line 15.
    assert_eq!(lines, [4, 5, 7, 8, 9, 10, 15], "{:?}", one_guard(src));
}

/// Nothing under a guard, or nothing that is one, is clean: a value read
/// through a lock, a guard dropped before the fsync, a block that ends
/// before the send, the helper's own definition, a longer name.
#[test]
fn one_guard_is_clean_without_a_live_guard() {
    let src = r#"
        fn lock(wal: &Mutex<WalInner>) -> MutexGuard<'_, WalInner> {
            wal.lock().unwrap_or_else(PoisonError::into_inner)
        }
        fn flush(&mut self) {
            let appends = lock(&self.wal).appends;
            let inner = lock(&self.wal);
            let wal = inner.wal.try_clone();
            drop(inner);
            wal.sync_data();
            let inner = lock(&self.wal);
        }
        fn stage(&self) {
            let batch = {
                let mut c = lock(&self.core);
                std::mem::take(&mut c.queue)
            };
            for msg in batch {
                let _ = self.tx.send(msg);
            }
            let path = dir.join("wal.log");
            let held = self.m.try_lock();
            thread::sleep(TICK);
        }
    "#;
    assert!(one_guard(src).is_empty(), "{:?}", one_guard(src));
}
