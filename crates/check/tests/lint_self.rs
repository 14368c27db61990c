//! Lint self-tests: the one rule the pass holds, `one-guard`, fires on
//! deliberately bad snippets and mutations of the shipped code it guards,
//! and stays silent on the idiomatic equivalent. Rules 1, 2 and 5 are
//! clippy's and rules 3, 4 and 6 are held in `gridpaxos-core`, so they
//! have no case here.

use check::lint::{check_one_guard, lint_repo, mask_test_items, strip_noise, Finding};

/// The tree as shipped passes the rule.
#[test]
fn the_shipped_tree_is_clean() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let findings = lint_repo(root).expect("read the tree");
    assert!(findings.is_empty(), "findings: {findings:?}");
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
