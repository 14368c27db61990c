//! Synchronization shim: the one place the replication codebase takes
//! locks.
//!
//! Every `Mutex`/`Condvar` in `gridpaxos-core` and
//! `gridpaxos-transport` — the apply pool's, the WAL's and the TCP client
//! side's (`tcp`, `mux`) — comes from this module, never from
//! `std::sync` or `parking_lot` directly. That buys two things:
//!
//! * **Normally** (no features): zero-cost non-poisoning wrappers over
//!   `std::sync` — `lock()` returns the guard directly (poison is
//!   swallowed; a panicking holder already took the process down in this
//!   codebase, see `fstorage::fatal_io`), and [`blocking`] compiles to
//!   nothing.
//! * **Under `--features sync-audit`**: every acquisition is recorded
//!   into a per-thread held-set and a global lock-order graph keyed by
//!   the lock's *creation site* (`file:line`, captured via
//!   `#[track_caller]`). At test end, [`audit::Report`] exposes the
//!   observed edges, any cycles (a cycle means two threads can nest the
//!   same locks in opposite orders — a deadlock schedule exists), and
//!   any *held-across-blocking* violations: a [`blocking`] marker or a
//!   [`Condvar::wait`] reached while the thread holds some *other*
//!   audited lock.
//!
//! The audit layer is the dynamic half of the concurrency audit plane;
//! the static half (cross-file lock-order and guard-scope analysis) lives
//! in `crates/check`. The two see the same lock identities because both
//! key on source locations.

use std::sync as std_sync;

// ---------------------------------------------------------------------------
// Plain (default) mode: zero-cost non-poisoning wrappers.
// ---------------------------------------------------------------------------

/// Mutual-exclusion lock; `lock()` returns the guard directly.
#[cfg(not(feature = "sync-audit"))]
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std_sync::Mutex<T>);

#[cfg(not(feature = "sync-audit"))]
impl<T> Mutex<T> {
    /// Wrap a value.
    #[inline]
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std_sync::Mutex::new(value))
    }

    /// Consume the lock, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }
}

#[cfg(not(feature = "sync-audit"))]
impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (blocking).
    #[inline]
    #[must_use = "the guard is the lock; dropping it immediately releases"]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }
}

/// Guard returned by [`Mutex::lock`] (plain mode: the std guard itself).
#[cfg(not(feature = "sync-audit"))]
pub type MutexGuard<'a, T> = std_sync::MutexGuard<'a, T>;

/// Condition variable paired with [`Mutex`]; `wait` consumes and returns
/// the guard (the lock is released for the duration of the wait).
#[cfg(not(feature = "sync-audit"))]
#[derive(Debug, Default)]
pub struct Condvar(std_sync::Condvar);

#[cfg(not(feature = "sync-audit"))]
impl Condvar {
    /// A fresh condition variable.
    #[inline]
    #[must_use]
    pub fn new() -> Condvar {
        Condvar(std_sync::Condvar::new())
    }

    /// Atomically release the guard's lock and park until notified;
    /// re-acquires before returning. Spurious wakeups possible — always
    /// wait in a predicate loop.
    #[inline]
    #[must_use = "wait returns the re-acquired guard"]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Mark a blocking operation (fsync, blocking socket I/O, blocking
/// channel receive) that must never run while an audited lock is held.
/// Zero-cost no-op normally; under `sync-audit` it records a
/// held-across-blocking violation if the calling thread holds any
/// audited guard.
#[cfg(not(feature = "sync-audit"))]
#[inline]
pub fn blocking(_label: &str) {}

// ---------------------------------------------------------------------------
// Audited mode: identical API, every acquisition instrumented.
// ---------------------------------------------------------------------------

#[cfg(feature = "sync-audit")]
use std::sync::Arc;

/// Mutual-exclusion lock; `lock()` returns the guard directly.
/// (Audited: acquisitions feed the lock-order graph.)
#[cfg(feature = "sync-audit")]
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    id: u64,
    site: Arc<str>,
    inner: std_sync::Mutex<T>,
}

#[cfg(feature = "sync-audit")]
impl<T> Mutex<T> {
    /// Wrap a value. The caller's source location becomes the lock's
    /// audit identity, so every instance created at one site forms one
    /// lock *class* in the order graph.
    #[inline]
    #[track_caller]
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            id: audit::next_id(),
            site: audit::site_label(std::panic::Location::caller()),
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }
}

#[cfg(feature = "sync-audit")]
impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (blocking).
    #[must_use = "the guard is the lock; dropping it immediately releases"]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        audit::on_attempt(self.id, &self.site);
        let g = self
            .inner
            .lock()
            .unwrap_or_else(std_sync::PoisonError::into_inner);
        audit::on_acquired(self.id, &self.site);
        MutexGuard {
            inner: Some(g),
            id: self.id,
            site: Arc::clone(&self.site),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std_sync::PoisonError::into_inner)
    }
}

#[cfg(feature = "sync-audit")]
impl<T: Default> Default for Mutex<T> {
    /// Default-constructed locks (e.g. inside `#[derive(Default)]`
    /// containers) share one audit class anchored here rather than at
    /// the container's construction site — `Default::default` cannot
    /// carry `#[track_caller]`.
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

/// Guard returned by [`Mutex::lock`] (audited: release is recorded).
#[cfg(feature = "sync-audit")]
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only transiently inside [`Condvar::wait`], where the guard
    /// is consumed by value and never dereferenced.
    inner: Option<std_sync::MutexGuard<'a, T>>,
    id: u64,
    site: Arc<str>,
}

#[cfg(feature = "sync-audit")]
impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("guard dereferenced during condvar wait"),
        }
    }
}

#[cfg(feature = "sync-audit")]
impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("guard dereferenced during condvar wait"),
        }
    }
}

#[cfg(feature = "sync-audit")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            audit::on_release(self.id);
        }
    }
}

/// Condition variable paired with [`Mutex`]. (Audited: waiting while
/// holding any *other* audited lock is a held-across-blocking violation
/// — the classic lost-wakeup/deadlock shape.)
#[cfg(feature = "sync-audit")]
#[derive(Debug, Default)]
pub struct Condvar(std_sync::Condvar);

#[cfg(feature = "sync-audit")]
impl Condvar {
    /// A fresh condition variable.
    #[inline]
    #[must_use]
    pub fn new() -> Condvar {
        Condvar(std_sync::Condvar::new())
    }

    /// Atomically release the guard's lock and park until notified;
    /// re-acquires before returning.
    #[must_use = "wait returns the re-acquired guard"]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let id = guard.id;
        let site = Arc::clone(&guard.site);
        // Waiting releases the guard's own lock, so only *other* held
        // locks make this a blocking violation.
        audit::on_blocking("Condvar::wait", Some(id));
        let Some(std_guard) = guard.inner.take() else {
            unreachable!("guard waited on during condvar wait");
        };
        audit::on_release(id);
        drop(guard); // inner already taken: the Drop impl records nothing
        let g = self
            .0
            .wait(std_guard)
            .unwrap_or_else(std_sync::PoisonError::into_inner);
        audit::on_acquired(id, &site);
        MutexGuard {
            inner: Some(g),
            id,
            site,
        }
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Mark a blocking operation (see the plain-mode doc). Audited: records
/// a violation if the calling thread holds any audited guard.
#[cfg(feature = "sync-audit")]
pub fn blocking(label: &str) {
    audit::on_blocking(label, None);
}

/// The recording half of `sync-audit`: lock-order graph, cycle
/// detection and held-across-blocking violations.
///
/// Recordings route to a process-global [`Registry`] by default; a test
/// that deliberately provokes violations (the mutation self-tests)
/// isolates itself by [`install`]ing a private registry on its thread so
/// parallel tests asserting a *clean* global report are undisturbed.
#[cfg(feature = "sync-audit")]
pub mod audit {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex as StdMutex, OnceLock};

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    pub(super) fn next_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// `file:line` of the lock's creation site, trimmed to the path tail
    /// so labels stay readable (`core/src/apply.rs:61`).
    pub(super) fn site_label(loc: &std::panic::Location<'_>) -> Arc<str> {
        let file = loc.file().replace('\\', "/");
        let parts: Vec<&str> = file.split('/').collect();
        let tail = if parts.len() > 3 {
            parts[parts.len() - 3..].join("/")
        } else {
            file.clone()
        };
        Arc::from(format!("{tail}:{}", loc.line()))
    }

    thread_local! {
        /// Locks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<(u64, Arc<str>)>> = const { RefCell::new(Vec::new()) };
        /// Per-thread registry override (test isolation).
        static OVERRIDE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    }

    /// Accumulates acquisition edges and violations.
    #[derive(Default)]
    pub struct Registry {
        state: StdMutex<State>,
    }

    #[derive(Default)]
    struct State {
        /// (held-class, acquired-class) -> observation count.
        edges: BTreeMap<(Arc<str>, Arc<str>), u64>,
        violations: Vec<String>,
    }

    impl Registry {
        /// A fresh, empty registry.
        #[must_use]
        pub fn new() -> Registry {
            Registry::default()
        }

        fn edge(&self, from: &Arc<str>, to: &Arc<str>) {
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *s.edges
                .entry((Arc::clone(from), Arc::clone(to)))
                .or_insert(0) += 1;
        }

        fn violation(&self, v: String) {
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.violations.push(v);
        }

        /// Snapshot the recorded graph, running cycle detection.
        #[must_use]
        pub fn report(&self) -> Report {
            let s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let cycles = find_cycles(&s.edges);
            Report {
                edges: s
                    .edges
                    .iter()
                    .map(|((a, b), n)| (a.to_string(), b.to_string(), *n))
                    .collect(),
                cycles,
                violations: s.violations.clone(),
            }
        }

        /// Discard everything recorded so far.
        pub fn reset(&self) {
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *s = State::default();
        }
    }

    /// What the audit observed: edges, cycles, violations.
    #[derive(Clone, Debug, Default)]
    pub struct Report {
        /// Observed nesting edges `(held, acquired, count)`.
        pub edges: Vec<(String, String, u64)>,
        /// Cycles in the lock-order graph (each a list of classes). A
        /// cycle means opposite nesting orders were both observed — some
        /// schedule deadlocks.
        pub cycles: Vec<Vec<String>>,
        /// Held-across-blocking violations.
        pub violations: Vec<String>,
    }

    impl Report {
        /// No cycles and no violations.
        #[must_use]
        pub fn is_clean(&self) -> bool {
            self.cycles.is_empty() && self.violations.is_empty()
        }

        /// Panic with a readable summary unless clean (call at test end).
        pub fn assert_clean(&self) {
            if self.is_clean() {
                return;
            }
            let mut msg = String::from("sync-audit failures:\n");
            for c in &self.cycles {
                msg.push_str(&format!("  lock-order cycle: {}\n", c.join(" -> ")));
            }
            for v in &self.violations {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }

    /// Enumerate elementary cycles (deduplicated by node set) in the
    /// class-level order graph via DFS with an explicit path stack. The
    /// graph has a handful of nodes; simplicity over asymptotics.
    fn find_cycles(edges: &BTreeMap<(Arc<str>, Arc<str>), u64>) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        let mut cycles: Vec<Vec<String>> = Vec::new();
        let mut seen_sets: Vec<Vec<String>> = Vec::new();
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for &start in &nodes {
            let mut path: Vec<&str> = vec![start];
            let mut stack: Vec<Vec<&str>> = vec![adj.get(start).cloned().unwrap_or_default()];
            while let Some(nexts) = stack.last_mut() {
                let Some(n) = nexts.pop() else {
                    path.pop();
                    stack.pop();
                    continue;
                };
                if let Some(pos) = path.iter().position(|&p| p == n) {
                    let cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                    let mut key = cycle.clone();
                    key.sort();
                    if !seen_sets.contains(&key) {
                        seen_sets.push(key);
                        cycles.push(cycle);
                    }
                    continue;
                }
                // Bound the walk: paths longer than the node count cannot
                // introduce new elementary cycles.
                if path.len() > nodes.len() {
                    continue;
                }
                path.push(n);
                stack.push(adj.get(n).cloned().unwrap_or_default());
            }
        }
        cycles
    }

    fn global() -> &'static Arc<Registry> {
        static G: OnceLock<Arc<Registry>> = OnceLock::new();
        G.get_or_init(|| Arc::new(Registry::new()))
    }

    /// Route this thread's recordings into `reg` instead of the global
    /// registry (test isolation for deliberately-bad schedules).
    pub fn install(reg: Arc<Registry>) {
        OVERRIDE.with(|o| *o.borrow_mut() = Some(reg));
    }

    /// Revert this thread to the global registry.
    pub fn uninstall() {
        OVERRIDE.with(|o| *o.borrow_mut() = None);
    }

    /// Report from the process-global registry.
    #[must_use]
    pub fn global_report() -> Report {
        global().report()
    }

    fn with_reg(f: impl FnOnce(&Registry)) {
        OVERRIDE.with(|o| match &*o.borrow() {
            Some(r) => f(r),
            None => f(global()),
        });
    }

    /// About to block on lock `id`: record an edge from every lock this
    /// thread already holds. Recording at *attempt* (not success) means a
    /// schedule that actually deadlocks still left its edge behind.
    pub(super) fn on_attempt(id: u64, site: &Arc<str>) {
        HELD.with(|h| {
            for (hid, hsite) in h.borrow().iter() {
                if *hid != id {
                    with_reg(|r| r.edge(hsite, site));
                }
            }
        });
    }

    /// Lock `id` acquired: push onto the held stack.
    pub(super) fn on_acquired(id: u64, site: &Arc<str>) {
        HELD.with(|h| h.borrow_mut().push((id, Arc::clone(site))));
    }

    /// Lock `id` released: pop its most recent entry (guards may drop
    /// out of acquisition order).
    pub(super) fn on_release(id: u64) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|(hid, _)| *hid == id) {
                h.remove(pos);
            }
        });
    }

    /// A blocking operation is about to run; any held lock other than
    /// `exempt` (a condvar wait's own mutex) is a violation.
    pub(super) fn on_blocking(label: &str, exempt: Option<u64>) {
        HELD.with(|h| {
            let held: Vec<String> = h
                .borrow()
                .iter()
                .filter(|(id, _)| Some(*id) != exempt)
                .map(|(_, s)| s.to_string())
                .collect();
            if !held.is_empty() {
                with_reg(|r| {
                    r.violation(format!(
                        "blocking op `{label}` while holding [{}]",
                        held.join(", ")
                    ));
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let m = Arc::new(Mutex::new(0u64));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 7;
            drop(g);
            cv2.notify_all();
        });
        let mut g = m.lock();
        while *g != 7 {
            g = cv.wait(g);
        }
        assert_eq!(*g, 7);
        drop(g);
        h.join().expect("writer thread");
    }

    #[cfg(feature = "sync-audit")]
    mod audited {
        use super::super::{audit, blocking, Condvar, Mutex};
        use std::sync::Arc;

        /// Run `f` with recordings isolated into a private registry,
        /// restoring the global route afterwards even on panic.
        fn isolated(f: impl FnOnce()) -> audit::Report {
            struct Uninstall;
            impl Drop for Uninstall {
                fn drop(&mut self) {
                    audit::uninstall();
                }
            }
            let reg = Arc::new(audit::Registry::new());
            audit::install(Arc::clone(&reg));
            let _guard = Uninstall;
            f();
            reg.report()
        }

        #[test]
        fn consistent_nesting_is_clean() {
            let report = isolated(|| {
                let a = Mutex::new(1);
                let b = Mutex::new(2);
                for _ in 0..3 {
                    let ga = a.lock();
                    let gb = b.lock();
                    drop(gb);
                    drop(ga);
                }
            });
            assert!(!report.edges.is_empty(), "edges recorded");
            report.assert_clean();
        }

        #[test]
        fn inversion_fires_cycle_detector() {
            let report = isolated(|| {
                let a = Mutex::new(1);
                let b = Mutex::new(2);
                {
                    let _ga = a.lock();
                    let _gb = b.lock();
                }
                {
                    let _gb = b.lock();
                    let _ga = a.lock();
                }
            });
            assert!(
                !report.cycles.is_empty(),
                "opposite nesting orders must produce a cycle: {report:?}"
            );
        }

        #[test]
        fn blocking_while_locked_is_a_violation() {
            let report = isolated(|| {
                let a = Mutex::new(1);
                let g = a.lock();
                blocking("fake fsync");
                drop(g);
                blocking("fake fsync after release");
            });
            assert_eq!(report.violations.len(), 1, "{report:?}");
            assert!(report.violations[0].contains("fake fsync"));
        }

        #[test]
        fn condvar_wait_own_lock_is_clean() {
            let report = isolated(|| {
                let m = Arc::new(Mutex::new(false));
                let cv = Arc::new(Condvar::new());
                let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
                // Note: the helper thread records into the *global*
                // registry (overrides are per-thread); only the waiting
                // side below matters for this test.
                let h = std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    *m2.lock() = true;
                    cv2.notify_all();
                });
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
                drop(g);
                h.join().expect("notifier");
            });
            assert!(report.violations.is_empty(), "{report:?}");
        }

        #[test]
        fn condvar_wait_holding_other_lock_is_a_violation() {
            let report = isolated(|| {
                let other = Mutex::new(0);
                let m = Arc::new(Mutex::new(true));
                let cv = Arc::new(Condvar::new());
                let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
                let h = std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    *m2.lock() = false;
                    cv2.notify_all();
                });
                let _held = other.lock();
                let mut g = m.lock();
                while *g {
                    g = cv.wait(g);
                }
                drop(g);
                h.join().expect("notifier");
            });
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.contains("Condvar::wait")),
                "{report:?}"
            );
        }

        #[test]
        fn guards_dropped_out_of_order_release_correctly() {
            let report = isolated(|| {
                let a = Mutex::new(1);
                let b = Mutex::new(2);
                let ga = a.lock();
                let gb = b.lock();
                drop(ga); // release the *older* guard first
                blocking("op"); // still holding b: one violation
                drop(gb);
                blocking("op2"); // holding nothing: clean
            });
            assert_eq!(report.violations.len(), 1, "{report:?}");
            assert!(report.violations[0].contains("`op`"));
        }
    }
}
