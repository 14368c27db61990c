//! Repo-specific lint pass: the one protocol coding rule neither the
//! compiler nor clippy can hold.
//!
//! Seven rules keep the consensus code honest. Clippy holds three of
//! them, `gridpaxos-core` three more, and this pass the last:
//!
//! 1. **Exhaustive enum dispatch** — clippy's `wildcard_enum_match_arm`
//!    and `match_wildcard_for_single_variants`, denied in the `core` and
//!    `transport` crate roots: a `match` over any enum, `Msg` included,
//!    names its variants instead of a bare `_ =>` arm, so a new variant
//!    (a new message, say) fails compilation where it is dispatched,
//!    never silently swallowed. A catch-all that is the meaning (a bare
//!    message outside its group envelope) carries an `allow` with its
//!    reason.
//! 2. **No non-test `unwrap`/`expect`** — clippy's `unwrap_used` and
//!    `expect_used`, denied in the `transport` and `services` crate roots
//!    and on `mod replica` in core; the root `clippy.toml` allows both in
//!    tests. Replica, transport and service code — the services decode
//!    client bytes inside the replica process — use typed errors or
//!    documented invariant panics (`panic!`/`unreachable!` with
//!    rationale), not ad-hoc unwraps.
//! 3. **Persist-before-send** — an assertion in core's `Outbox::push`,
//!    live on every build: every `Prepare`, `Promise`, `Accept` and
//!    `Accepted` is checked against what its sender's stable storage
//!    wrote (`replica/stable.rs` keeps the record, and is the only door
//!    to the storage: an accept record that raises no barrier cannot be
//!    written). Every test, simulated run and model-checked state runs
//!    through it.
//! 4. **Flush-before-transmit** — visibility and unit tests in core: the
//!    barrier (`Replica::barrier`, `Replica::barrier_due`) and its
//!    classifier (`Msg::precedes_barrier`) are crate-private, and so are
//!    `Outbox` and the release steps, so `Node::release` is their one
//!    caller and every host — reactor, simulator, this checker, the test
//!    shuttles — drives a `Node` (`compile_fail` doctests in
//!    `outbox.rs`); `outbox::tests::the_one_release` pins the order —
//!    ahead list, barrier, behind list — and
//!    `msg::tests::only_accept_precedes_the_barrier` the class over every
//!    `Msg` variant.
//! 5. **No blocking calls on an epoll loop's thread** — clippy's
//!    `disallowed_methods`, listed in the root `clippy.toml`
//!    (`thread::sleep`, `write_all`, `read_exact`, `read_to_end`),
//!    allowed workspace-wide and denied at the top of the epoll-loop
//!    modules `transport/src/{reactor,client,conn,sys,backpressure}.rs`,
//!    their test modules excepted: the reactor runs every connection of
//!    a node on one thread, and the client loop every client core of its
//!    caller, so one blocking call stalls them all. That code uses plain
//!    `read`/`write` loops that surface `EWOULDBLOCK` and yield back to
//!    the readiness loop.
//! 6. **Read policy has one owner** — privacy in core: the mode, the
//!    confirm-batching knob and the lease are `ReadPolicy`'s private
//!    fields in `replica/reads.rs` (a `compile_fail` doctest there); a
//!    host asks `ReadPolicy::follower_reads` and nothing else.
//! 7. **One guard at a time** (this pass, every `crates/*/src`): while a
//!    `let`-bound lock guard is live, nothing in its scope takes another
//!    lock, blocks (fsync, sleep, channel receive, thread join) or sends
//!    on a channel. No code nests locks, so no lock order exists to get
//!    wrong, and no thread waits on the platter or a peer while others
//!    wait on it (DESIGN.md §6.3). The rule reads one body and follows no
//!    call: a helper that blocks under its caller's guard must say why
//!    in its doc (`fstorage`'s `truncate_upto`).
//!
//! The pass is a hand-rolled token scan, not a full parse: comments,
//! strings and char literals are blanked first, `#[cfg(test)]` items are
//! masked out, and the rule runs on the remainder. That is precise enough
//! for this rule and keeps the checker dependency-free. The rule function
//! takes source text, so the self-tests can feed known-bad snippets (see
//! `tests/lint_self.rs`).

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in (repo-relative label).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Blank comments, string literals and char literals with spaces,
/// preserving line structure (newlines survive) so byte offsets map to
/// the original line numbers. Lifetimes (`'a`) are distinguished from
/// char literals.
#[must_use]
pub fn strip_noise(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Regular string (raw strings handled below via 'r').
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            out.extend_from_slice(b"  ");
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        c => {
                            out.push(if c == b'\n' { b'\n' } else { b' ' });
                            i += 1;
                        }
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."#.
                let start = i;
                i += 1;
                let mut hashes = 0;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                if i < b.len() && b[i] == b'"' {
                    i += 1;
                    loop {
                        if i >= b.len() {
                            break;
                        }
                        if b[i] == b'"' {
                            let mut ok = true;
                            for k in 0..hashes {
                                if b.get(i + 1 + k) != Some(&b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                i += 1 + hashes;
                                break;
                            }
                        }
                        i += 1;
                    }
                    for &c in &b[start..i] {
                        out.push(if c == b'\n' { b'\n' } else { b' ' });
                    }
                } else {
                    // `r#ident` raw identifier, not a string.
                    out.extend_from_slice(&b[start..i]);
                }
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is ' followed by an
                // identifier NOT closed by a ' right after.
                let is_char = matches!(
                    (b.get(i + 1), b.get(i + 2)),
                    (Some(b'\\'), _) | (Some(_), Some(b'\''))
                );
                if is_char {
                    out.push(b' ');
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' if i + 1 < b.len() => {
                                out.extend_from_slice(b"  ");
                                i += 2;
                            }
                            b'\'' => {
                                out.push(b' ');
                                i += 1;
                                break;
                            }
                            c => {
                                out.push(if c == b'\n' { b'\n' } else { b' ' });
                                i += 1;
                            }
                        }
                    }
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Additionally blank every item annotated `#[cfg(test)]` (attribute plus
/// the following item's braces or terminating `;`). Input must already be
/// noise-stripped.
#[must_use]
pub fn mask_test_items(cleaned: &str) -> String {
    let b = cleaned.as_bytes();
    let mut out = cleaned.as_bytes().to_vec();
    let pat = b"#[cfg(test)]";
    let mut i = 0;
    while i + pat.len() <= b.len() {
        if &b[i..i + pat.len()] != pat {
            i += 1;
            continue;
        }
        // Find the end of the annotated item: the matching close of the
        // first `{` after the attribute (covers `mod`, `fn`, `impl`), or
        // the next `;` for brace-less items.
        let mut j = i + pat.len();
        let mut end = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    let mut depth = 1;
                    j += 1;
                    while j < b.len() && depth > 0 {
                        match b[j] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    end = Some(j);
                    break;
                }
                b';' => {
                    end = Some(j + 1);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = end.unwrap_or(b.len());
        for item in out.iter_mut().take(end).skip(i) {
            if *item != b'\n' {
                *item = b' ';
            }
        }
        i = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// A lock acquisition: `.lock()`, or a file's `lock(&m)` helper around it.
const ACQUIRE: &str = "lock(";

/// What may not run under a guard, and why: a second acquisition, a call
/// that parks the thread, a channel send.
const UNDER_A_GUARD: &[(&str, &str)] = &[
    (ACQUIRE, "takes a second lock"),
    ("sync_data(", "fsyncs"),
    ("sync_all(", "fsyncs"),
    ("sync_dir(", "fsyncs"),
    ("sleep(", "sleeps"),
    (".recv(", "waits on a channel"),
    (".recv_timeout(", "waits on a channel"),
    (".join()", "joins a thread"),
    (".send(", "sends on a channel"),
    (".try_send(", "sends on a channel"),
];

/// Offsets of `token` in `src` that start a name: not the tail of a longer
/// one (`try_lock(`), not a definition (`fn lock(`).
fn calls<'a>(src: &'a str, token: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    src.match_indices(token)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let before = &src[..at];
            token.starts_with('.') || !(before.ends_with(ident) || before.ends_with("fn "))
        })
}

/// The offset just past the bracket that closes the one at `open`.
fn close_of(src: &str, open: usize) -> usize {
    let mut depth = 0i32;
    for (o, c) in src[open..].char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return open + o + 1;
        }
    }
    src.len()
}

/// Whether a `let` initializer is a guard: an acquisition, at most
/// unwrapped (`.unwrap()`, `.expect(…)`, `.unwrap_or_else(…)`), and not a
/// value read through one (`lock(&m).appends`).
fn binds_guard(init: &str) -> bool {
    let Some(at) = calls(init, ACQUIRE).next() else {
        return false;
    };
    let rest = &init[close_of(init, at + ACQUIRE.len() - 1)..];
    rest.is_empty()
        || [".unwrap(", ".expect(", ".unwrap_or_else("]
            .iter()
            .any(|u| rest.starts_with(u) && close_of(rest, u.len() - 1) == rest.len())
}

/// Rule 7: one guard at a time. For every `let NAME = <acquisition>;`
/// the guard is live to `drop(NAME)` or the end of its block, and each
/// `UNDER_A_GUARD` token in that span is a finding. Runs on
/// noise-stripped, test-masked source.
#[must_use]
pub fn check_one_guard(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (at, _) in masked.match_indices("let ") {
        if masked[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let stmt = &masked[at + 4..];
        let pattern = stmt.trim_start().trim_start_matches("mut ").trim_start();
        let name: String = pattern
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let Some(eq) = pattern[name.len()..].trim_start().strip_prefix('=') else {
            continue; // a pattern, a type ascription or `==`: no guard
        };
        // The initializer runs to the `;` outside any bracket.
        let mut depth = 0i32;
        let Some(semi) = eq.char_indices().find_map(|(o, c)| {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                ';' if depth == 0 => return Some(o),
                _ => {}
            }
            None
        }) else {
            continue;
        };
        if name.is_empty() || name == "_" || !binds_guard(eq[..semi].trim()) {
            continue;
        }
        // Live from the `;` to the end of the enclosing block, or to the
        // guard's `drop`, whichever comes first.
        let live_from = masked.len() - eq.len() + semi + 1;
        let mut depth = 0i32;
        let block_end = masked[live_from..]
            .char_indices()
            .find_map(|(o, c)| {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 0 => return Some(live_from + o),
                    '}' => depth -= 1,
                    _ => {}
                }
                None
            })
            .unwrap_or(masked.len());
        let dropped = masked[live_from..block_end]
            .find(&format!("drop({name})"))
            .map_or(block_end, |o| live_from + o);
        let live = &masked[live_from..dropped];
        for &(token, what) in UNDER_A_GUARD {
            for o in calls(live, token) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: line_of(masked, live_from + o),
                    rule: "one-guard",
                    msg: format!(
                        "`{}` {what} while the guard `{name}` (line {}) is live; drop \
                         it first — no code holds a lock across another lock, a \
                         blocking call or a send",
                        token.trim_matches('.'),
                        line_of(masked, at)
                    ),
                });
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Lint every `crates/*/src` under the repository rooted at `root`
/// (`#[cfg(test)]` items excluded).
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))?.collect::<Result<_, _>>()?;
    crates.sort_by_key(std::fs::DirEntry::path);
    for krate in crates {
        collect_rs(&krate.path().join("src"), &mut |p| {
            files.push(p.to_path_buf())
        })?;
    }
    let mut findings = Vec::new();
    for path in files {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let masked = mask_test_items(&strip_noise(&std::fs::read_to_string(&path)?));
        findings.extend(check_one_guard(&label, &masked));
    }
    Ok(findings)
}

fn collect_rs(dir: &Path, f: &mut impl FnMut(&Path)) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, f)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            f(&p);
        }
    }
    Ok(())
}
