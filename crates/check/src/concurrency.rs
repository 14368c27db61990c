//! Cross-file concurrency analysis: the static third of the audit plane
//! (the dynamic thirds are `gridpaxos_core::sync`'s instrumented shim and
//! the interleaving checker in [`crate::interleave`]).
//!
//! The pass grows the per-file token lint into a whole-repo analysis.
//! Every `crates/**` source is parsed (same noise-stripping tokenizer as
//! [`crate::lint`]) into per-function summaries:
//!
//! * **guard scopes** — each `.lock()` with its
//!   lock *class* (`file_stem.receiver`, e.g. `fstorage.wal`) and the
//!   byte range the guard lives: until `drop(guard)`, the end of the
//!   enclosing block for `let`-bound guards, or the end of the statement
//!   (including a trailing `match`/`if let` block) for temporaries;
//! * **blocking operations** — fsync (`sync_data`/`sync_all`), blocking
//!   socket I/O (`write_all`/`read_exact`/`read_to_end`), sleeps, thread
//!   joins, blocking channel receives, and condvar waits;
//! * **channel sends** — `.send(` / `.try_send(`;
//! * **calls** — resolved by bare name against every function the repo
//!   defines, then closed transitively (a fixpoint), so an fsync three
//!   calls deep still counts against a guard held at the top.
//!
//! Three rules run over the summaries:
//!
//! 1. **`lock-order`** — the global class-level acquisition graph (edges
//!    recorded whenever one class is acquired — directly or via a callee
//!    — while another is held) must be acyclic. A cycle is the classic
//!    ABBA deadlock; a same-class re-acquisition inside its own scope is
//!    reported too (self-deadlock with `std::sync` locks).
//! 2. **`guard-across-blocking`** — no blocking operation may run while
//!    any guard is held. A condvar `wait(g)` is exempt for the guard `g`
//!    it atomically releases, but flags every *other* held guard.
//! 3. **`send-while-locked`** — a channel send while holding a guard can
//!    deadlock against a bounded queue whose consumer needs the same
//!    lock, and at best extends the critical section by the send's
//!    backpressure; stage messages under the lock, send after.
//!
//! **Waivers.** A finding whose design is deliberate (e.g. the WAL
//! rewrite in `truncate_upto`, which *must* exclude appends for the whole
//! file swap) is suppressed by a comment on the finding's line or up to
//! two lines above it: `lint: allow(rule-name): reason`. Waivers are read
//! from the *raw* source (comments are blanked before analysis) and
//! require a reason after the colon.
//!
//! Like the base lint this is a token scan, not a parse; class names
//! conflate same-named receivers across instances and calls resolve by
//! bare name, both deliberately *conservative* directions (they can
//! invent edges, not hide them). Findings the heuristics cannot prove
//! are left to the dynamic shim, which sees real acquisition orders.

use crate::lint::{line_of, mask_attr_items, mask_test_items, strip_noise, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::Path;

/// Tokens that park the calling thread. `.wait(` (condvar) is handled
/// separately so the guard being waited on can be exempted. Socket I/O
/// tokens (`write_all`/`read_exact`) are deliberately absent: the
/// per-file no-blocking rule already bans them in reactor-path modules,
/// and buffered WAL frame writes under the lock are this repo's design
/// (only fsync is the expensive op — see `fstorage.rs`).
const BLOCKING_OPS: &[&str] = &[
    "sync_data(",
    "sync_all(",
    "thread::sleep",
    ".recv()",
    ".recv_timeout(",
    ".join()",
];

/// Channel-send tokens for the `send-while-locked` rule.
const SEND_OPS: &[&str] = &[".send(", ".try_send("];

/// Method names never resolved as repo-defined calls: they collide with
/// ubiquitous std/derived names, and the ones that matter are already
/// modeled directly (acquisitions, sends, receives, waits).
const CALL_DENYLIST: &[&str] = &[
    "lock",
    "read",
    "write",
    "wait",
    "send",
    "try_send",
    "recv",
    "recv_timeout",
    "drop",
    "clone",
    "new",
    "default",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "take",
    "len",
    "next",
    "min",
    "max",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "expect",
    "unwrap",
    "iter",
    "into_iter",
    "collect",
    "extend",
    "clear",
    "contains",
    "fmt",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_vec",
    "to_string",
    "load",
    "store",
    "fetch_add",
    "spawn",
    "notify_one",
    "notify_all",
    "is_empty",
    "is_some",
    "is_none",
    "ok",
    "err",
    "sort",
    "sort_by",
    "retain",
    "split_off",
    "entry",
    "keys",
    "values",
    "rev",
    "enumerate",
    "filter",
    "find",
    "position",
    "count",
    "sum",
    "any",
    "all",
    "zip",
    "chain",
    "flush",
    "join",
];

/// One guard scope: a lock acquisition and the byte range it is held.
#[derive(Clone, Debug)]
struct Guard {
    /// Lock class, `file_stem.receiver_tail`.
    class: String,
    /// Byte offset of the acquisition (in the file's masked text).
    at: usize,
    /// Byte offset past which the guard is released.
    until: usize,
    /// The `let` binding name, if any (temporaries have none).
    binding: Option<String>,
}

/// Everything the analysis needs to know about one function.
#[derive(Clone, Debug)]
struct FnSummary {
    name: String,
    file: String,
    file_idx: usize,
    /// Guard scopes, in acquisition order.
    guards: Vec<Guard>,
    /// Blocking operations: (token, byte offset).
    blocking: Vec<(String, usize)>,
    /// Condvar waits: (argument identifier, byte offset).
    waits: Vec<(String, usize)>,
    /// Channel sends: byte offsets.
    sends: Vec<usize>,
    /// Call sites: (callee name, byte offset).
    calls: Vec<(String, usize)>,
    /// Whether the signature returns a guard type (`-> ... MutexGuard`),
    /// making call sites of this function acquisition sites themselves.
    returns_guard: bool,
    /// Byte range of the function body in the masked file.
    body: Range<usize>,
}

/// Transitive closure of one function's effects, after the fixpoint.
#[derive(Clone, Debug, Default)]
struct FnClosure {
    /// Lock classes acquired by this function or anything it calls.
    acquires: BTreeSet<String>,
    /// A blocking op reachable from this function, with a via-chain.
    blocking: Option<String>,
    /// A send reachable from this function, with a via-chain.
    sends: Option<String>,
}

/// A directed class-level edge in the lock-order graph.
#[derive(Clone, Debug)]
struct Edge {
    from: String,
    to: String,
    /// Where the inner acquisition happened.
    file: String,
    line: usize,
}

/// Per-file waiver map: rule name → set of source lines carrying a
/// `lint: allow(rule): reason` comment.
type Waivers = BTreeMap<String, BTreeSet<usize>>;

fn parse_waivers(raw: &str) -> Waivers {
    let mut w: Waivers = BTreeMap::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(pos) = line.find("lint: allow(") else {
            continue;
        };
        let rest = &line[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        // Require a reason after the closing paren: `): because ...`.
        if !rest[close..].starts_with("):") {
            continue;
        }
        w.entry(rest[..close].trim().to_string())
            .or_default()
            .insert(idx + 1);
    }
    w
}

/// Is the finding at `line` covered by a waiver on the same line or up to
/// two lines above (a comment directly above the flagged statement)?
fn waived(waivers: &Waivers, rule: &str, line: usize) -> bool {
    waivers
        .get(rule)
        .is_some_and(|lines| (line.saturating_sub(2)..=line).any(|l| lines.contains(&l)))
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The identifier ending at byte `end` (exclusive), or `None`.
fn ident_before(b: &[u8], end: usize) -> Option<String> {
    let mut s = end;
    while s > 0 && is_ident(b[s - 1]) {
        s -= 1;
    }
    (s < end && !b[s].is_ascii_digit()).then(|| String::from_utf8_lossy(&b[s..end]).into_owned())
}

/// End offset (exclusive) of the statement containing `from`: the first
/// `;` at paren/brace depth 0, or the close of a trailing block opened at
/// paren depth 0 (`match g.lock() { ... }`, `if let Some(x) = m.lock()...
/// { ... } else { ... }`), or the close of the enclosing block.
fn statement_end(b: &[u8], from: usize) -> usize {
    let mut paren = 0i32;
    let mut brace = 0i32;
    let mut j = from;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b';' if paren <= 0 && brace == 0 => return j + 1,
            b'{' if paren <= 0 => brace += 1,
            b'}' => {
                brace -= 1;
                if brace < 0 {
                    return j; // enclosing block closed first
                }
                if brace == 0 {
                    // Trailing block of the statement closed; an `else`
                    // keeps the statement going.
                    let mut k = j + 1;
                    while k < b.len() && (b[k] as char).is_whitespace() {
                        k += 1;
                    }
                    if b[k..].starts_with(b"else") {
                        j = k + 3;
                    } else {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    b.len()
}

/// End offset of the block enclosing `from` (the `}` that closes it), or
/// the end of the slice.
fn enclosing_block_end(b: &[u8], from: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < b.len() {
        match b[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    b.len()
}

/// Start offset of the statement containing `at`: one past the nearest
/// preceding `;`, `{` or `}`.
fn statement_start(b: &[u8], at: usize) -> usize {
    let mut s = at;
    while s > 0 {
        match b[s - 1] {
            b';' | b'{' | b'}' => return s,
            _ => s -= 1,
        }
    }
    0
}

/// Does the statement end immediately after `j` (modulo whitespace)? A
/// `let` binding receives the guard itself only then; in a longer chain
/// (`let v = m.lock().get(k).cloned();`) the binding holds a value
/// derived from the guard and the guard dies with the statement.
fn binds_directly(b: &[u8], mut j: usize) -> bool {
    while j < b.len() && (b[j] as char).is_whitespace() {
        j += 1;
    }
    j < b.len() && b[j] == b';'
}

/// Offset one past the `)` matching the `(` at `open`.
fn matching_close(b: &[u8], open: usize) -> usize {
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < b.len() && depth > 0 {
        match b[j] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The `let` binding (or plain reassignment target) of the statement
/// whose text precedes the acquisition, if it is a simple identifier.
fn binding_of(stmt: &str) -> Option<String> {
    let t = stmt.trim_start();
    let t = t.strip_prefix("let ").unwrap_or(t);
    let t = t.trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t);
    let name: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    let rest = t[name.len()..].trim_start();
    (rest.starts_with('=') && !rest.starts_with("==")).then_some(name)
}

/// Scope of a guard acquired at `acq_end` (the offset just past the
/// acquisition token), bound as `binding`: until `drop(binding)`, else
/// the enclosing block for `let` bindings, else the statement end.
fn guard_scope(body: &[u8], acq_end: usize, binding: Option<&str>) -> usize {
    if let Some(name) = binding {
        let needle = format!("drop({name})");
        let hay = String::from_utf8_lossy(body);
        let mut i = acq_end;
        while let Some(pos) = hay[i..].find(&needle) {
            let off = i + pos;
            // Word boundary on the left ("drop" not "airdrop").
            if off == 0 || !is_ident(body[off - 1]) {
                return off;
            }
            i = off + needle.len();
        }
        enclosing_block_end(body, acq_end)
    } else {
        statement_end(body, acq_end)
    }
}

/// All functions in a masked file: `(name, sig_start, body_range)`.
fn functions_in(masked: &str) -> Vec<(String, usize, Range<usize>)> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = masked[i..].find("fn ") {
        let start = i + pos;
        i = start + 3;
        if start > 0 && is_ident(b[start - 1]) {
            continue; // "often " etc.
        }
        let mut j = start + 3;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < b.len() && is_ident(b[j]) {
            j += 1;
        }
        if j == name_start {
            continue; // `fn(` pointer type
        }
        let name = masked[name_start..j].to_string();
        if let Some(body) = crate::lint::fn_body(masked, start) {
            out.push((name, start, body));
        }
    }
    out
}

/// Find every occurrence of `pat` in `text`, returning start offsets.
fn occurrences(text: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find(pat) {
        out.push(i + pos);
        i = i + pos + pat.len();
    }
    out
}

/// Summarize one file's functions. `file_stem` anchors lock class names.
fn summarize_file(file_idx: usize, label: &str, masked: &str) -> Vec<FnSummary> {
    let stem = Path::new(label)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| label.to_string());
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for (name, sig_start, body) in functions_in(masked) {
        let sig = &masked[sig_start..body.start];
        let returns_guard = sig.contains("->") && sig.contains("MutexGuard");
        let text = &masked[body.clone()];
        let base = body.start;

        let mut guards = Vec::new();
        for off in occurrences(text, ".lock()") {
            let at = base + off;
            let tail = ident_before(b, at).unwrap_or_else(|| "expr".to_string());
            let stmt_start = statement_start(b, at);
            let acq_end = at + ".lock()".len();
            let binding =
                binding_of(&masked[stmt_start..at]).filter(|_| binds_directly(b, acq_end));
            // Scope scanning runs on the body slice so a guard cannot
            // leak past its function.
            let until = base + guard_scope(text.as_bytes(), acq_end - base, binding.as_deref());
            guards.push(Guard {
                class: format!("{stem}.{tail}"),
                at,
                until,
                binding,
            });
        }

        let mut blocking = Vec::new();
        for pat in BLOCKING_OPS {
            for off in occurrences(text, pat) {
                blocking.push(((*pat).to_string(), base + off));
            }
        }

        let mut waits = Vec::new();
        for off in occurrences(text, ".wait(") {
            let at = base + off;
            let arg_start = at + ".wait(".len();
            let arg_end = masked[arg_start..]
                .find([',', ')'])
                .map_or(arg_start, |p| arg_start + p);
            let arg: String = masked[arg_start..arg_end]
                .trim()
                .trim_start_matches("&mut ")
                .trim()
                .to_string();
            waits.push((arg, at));
        }

        let mut sends = Vec::new();
        for pat in SEND_OPS {
            sends.extend(occurrences(text, pat).into_iter().map(|o| base + o));
        }

        // Call sites: `ident(` where ident isn't denylisted. Resolution
        // against repo-defined names happens later.
        let mut calls = Vec::new();
        let tb = text.as_bytes();
        let mut k = 0;
        while k < tb.len() {
            if !is_ident(tb[k]) || tb[k].is_ascii_digit() {
                k += 1;
                continue;
            }
            let start = k;
            while k < tb.len() && is_ident(tb[k]) {
                k += 1;
            }
            if k < tb.len() && tb[k] == b'(' {
                let callee = &text[start..k];
                if !CALL_DENYLIST.contains(&callee)
                    && callee != name
                    && callee.chars().next().is_some_and(char::is_lowercase)
                {
                    calls.push((callee.to_string(), base + start));
                }
            }
        }

        out.push(FnSummary {
            name,
            file: label.to_string(),
            file_idx,
            guards,
            blocking,
            waits,
            sends,
            calls,
            returns_guard,
            body,
        });
    }
    out
}

/// Fixpoint transitive closure over the (name-resolved) call graph.
fn close_over_calls(fns: &[FnSummary]) -> Vec<FnClosure> {
    // Bare-name resolution: every function sharing a callee's name
    // contributes (conservative conflation).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }
    let mut closures: Vec<FnClosure> = fns
        .iter()
        .map(|f| FnClosure {
            acquires: f.guards.iter().map(|g| g.class.clone()).collect(),
            blocking: f
                .blocking
                .first()
                .map(|(t, _)| format!("`{}`", t.trim_matches(['.', '('])))
                .or_else(|| f.waits.first().map(|_| "`Condvar::wait`".to_string())),
            sends: f.sends.first().map(|_| "a channel send".to_string()),
        })
        .collect();
    // Iterate to fixpoint; the graph is small (hundreds of nodes).
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for (callee, _) in &fns[i].calls {
                let Some(targets) = by_name.get(callee.as_str()) else {
                    continue;
                };
                for &t in targets {
                    if t == i {
                        continue;
                    }
                    let (acq, blk, snd) = {
                        let c = &closures[t];
                        (c.acquires.clone(), c.blocking.clone(), c.sends.clone())
                    };
                    let me = &mut closures[i];
                    for a in acq {
                        changed |= me.acquires.insert(a);
                    }
                    if me.blocking.is_none() {
                        if let Some(b) = blk {
                            me.blocking = Some(format!("{b} (via `{callee}`)"));
                            changed = true;
                        }
                    }
                    if me.sends.is_none() {
                        if let Some(s) = snd {
                            me.sends = Some(format!("{s} (via `{callee}`)"));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    closures
}

/// All elementary cycles in the class graph, deduplicated by node set.
fn find_cycles(edges: &[Edge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in &nodes {
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<Vec<&str>> = vec![adj
            .get(start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()];
        while let Some(frame) = stack.last_mut() {
            let Some(next) = frame.pop() else {
                stack.pop();
                path.pop();
                continue;
            };
            if next == start {
                let mut key: Vec<String> = path.iter().map(|s| (*s).to_string()).collect();
                key.sort();
                if seen.insert(key) {
                    cycles.push(path.iter().map(|s| (*s).to_string()).collect());
                }
                continue;
            }
            // Only expand to nodes > start to canonicalize, and avoid
            // revisiting nodes already on the path.
            if next < start || path.contains(&next) {
                continue;
            }
            if path.len() >= nodes.len() {
                continue;
            }
            path.push(next);
            stack.push(
                adj.get(next)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
            );
        }
    }
    cycles
}

/// Analyze in-memory sources: `(label, raw_source)` pairs. Labels behave
/// like paths (the file stem anchors lock class names). This is the
/// entry the seeded-mutation self-tests feed synthetic repos through.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut fns: Vec<FnSummary> = Vec::new();
    let mut masked_files: Vec<String> = Vec::new();
    let mut waivers: Vec<Waivers> = Vec::new();
    for (idx, (label, raw)) in files.iter().enumerate() {
        let cleaned = strip_noise(raw);
        // The attr must be noise-stripped the same way as the source:
        // strip_noise blanks string literals, so the `"check-hooks"`
        // inside the attribute is spaces in the text being masked.
        let masked = mask_attr_items(
            &mask_test_items(&cleaned),
            &strip_noise("#[cfg(feature = \"check-hooks\")]"),
        );
        fns.extend(summarize_file(idx, label, &masked));
        masked_files.push(masked);
        waivers.push(parse_waivers(raw));
    }
    // Calls to guard-returning functions are acquisition sites in the
    // caller: the returned guard lives (and must be scope-tracked) there.
    let guard_classes: BTreeMap<String, BTreeSet<String>> = {
        let mut m: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &fns {
            if f.returns_guard {
                m.entry(f.name.clone())
                    .or_default()
                    .extend(f.guards.iter().map(|g| g.class.clone()));
            }
        }
        m
    };
    for f in &mut fns {
        let masked = &masked_files[f.file_idx];
        let b = masked.as_bytes();
        let body = f.body.clone();
        let mut extra = Vec::new();
        for (callee, off) in &f.calls {
            let Some(classes) = guard_classes.get(callee) else {
                continue;
            };
            let stmt_start = statement_start(b, *off);
            let open = off + callee.len();
            let binding = binding_of(&masked[stmt_start..*off])
                .filter(|_| binds_directly(b, matching_close(b, open)));
            let acq_end = open + 1;
            let until = body.start
                + guard_scope(
                    masked[body.clone()].as_bytes(),
                    acq_end - body.start,
                    binding.as_deref(),
                );
            for class in classes {
                extra.push(Guard {
                    class: class.clone(),
                    at: *off,
                    until,
                    binding: binding.clone(),
                });
            }
        }
        f.guards.extend(extra);
        f.guards.sort_by_key(|g| g.at);
    }

    let closures = close_over_calls(&fns);
    let by_name: BTreeMap<&str, Vec<usize>> = {
        let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            m.entry(&f.name).or_default().push(i);
        }
        m
    };

    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();

    for f in &fns {
        let masked = &masked_files[f.file_idx];
        let w = &waivers[f.file_idx];
        let line = |off: usize| line_of(masked, off);

        for (gi, g) in f.guards.iter().enumerate() {
            // Nested direct acquisitions: order edges / self-deadlock.
            for inner in &f.guards[gi + 1..] {
                if inner.at >= g.until {
                    break;
                }
                let l = line(inner.at);
                if inner.class == g.class {
                    if !waived(w, "lock-order", l) {
                        findings.push(Finding {
                            file: f.file.clone(),
                            line: l,
                            rule: "lock-order",
                            msg: format!(
                                "`{}` re-acquires lock class `{}` while a guard on it is \
                                 still held (self-deadlock with std locks)",
                                f.name, g.class
                            ),
                        });
                    }
                } else if !waived(w, "lock-order", l) {
                    edges.push(Edge {
                        from: g.class.clone(),
                        to: inner.class.clone(),
                        file: f.file.clone(),
                        line: l,
                    });
                }
            }
            // Guard-returning callees act as acquisitions at the call
            // site; calls with reachable acquisitions add order edges.
            for (callee, off) in &f.calls {
                if *off < g.at || *off >= g.until {
                    continue;
                }
                // A guard produced *by* this call is not held across it.
                if *off == g.at {
                    continue;
                }
                let l = line(*off);
                if let Some(targets) = by_name.get(callee.as_str()) {
                    for &t in targets {
                        for acq in &closures[t].acquires {
                            if *acq != g.class && !waived(w, "lock-order", l) {
                                edges.push(Edge {
                                    from: g.class.clone(),
                                    to: acq.clone(),
                                    file: f.file.clone(),
                                    line: l,
                                });
                            }
                        }
                        if let Some(b) = &closures[t].blocking {
                            if !waived(w, "guard-across-blocking", l) {
                                findings.push(Finding {
                                    file: f.file.clone(),
                                    line: l,
                                    rule: "guard-across-blocking",
                                    msg: format!(
                                        "`{}` holds `{}` across a call to `{}`, which \
                                         reaches {b}; release the guard (or stage the \
                                         work) before blocking",
                                        f.name, g.class, callee
                                    ),
                                });
                            }
                        }
                        if let Some(s) = &closures[t].sends {
                            if !waived(w, "send-while-locked", l) {
                                findings.push(Finding {
                                    file: f.file.clone(),
                                    line: l,
                                    rule: "send-while-locked",
                                    msg: format!(
                                        "`{}` holds `{}` across a call to `{}`, which \
                                         reaches {s}; a bounded peer can deadlock — \
                                         stage messages under the lock, send after",
                                        f.name, g.class, callee
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            // Direct blocking ops inside the scope.
            for (tok, off) in &f.blocking {
                if *off < g.at || *off >= g.until {
                    continue;
                }
                let l = line(*off);
                if !waived(w, "guard-across-blocking", l) {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: l,
                        rule: "guard-across-blocking",
                        msg: format!(
                            "`{}` holds `{}` across blocking op `{}`; the lock is \
                             unavailable for the full latency of the operation",
                            f.name,
                            g.class,
                            tok.trim_matches(['.', '(', ')'])
                        ),
                    });
                }
            }
            // Condvar waits: exempt the guard being waited on.
            for (arg, off) in &f.waits {
                if *off < g.at || *off >= g.until {
                    continue;
                }
                if g.binding.as_deref() == Some(arg.as_str()) {
                    continue; // wait releases exactly this guard
                }
                let l = line(*off);
                if !waived(w, "guard-across-blocking", l) {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: l,
                        rule: "guard-across-blocking",
                        msg: format!(
                            "`{}` holds `{}` across `Condvar::wait({arg})`, which only \
                             releases `{arg}` — the held guard deadlocks the waker",
                            f.name, g.class
                        ),
                    });
                }
            }
            // Direct sends inside the scope.
            for off in &f.sends {
                if *off < g.at || *off >= g.until {
                    continue;
                }
                let l = line(*off);
                if !waived(w, "send-while-locked", l) {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: l,
                        rule: "send-while-locked",
                        msg: format!(
                            "`{}` sends on a channel while holding `{}`; a bounded \
                             peer whose consumer needs the lock deadlocks — stage \
                             messages under the lock, send after",
                            f.name, g.class
                        ),
                    });
                }
            }
        }
    }

    // Lock-order cycles over the global class graph.
    for cycle in find_cycles(&edges) {
        let mut locs = Vec::new();
        for (i, from) in cycle.iter().enumerate() {
            let to = &cycle[(i + 1) % cycle.len()];
            if let Some(e) = edges.iter().find(|e| &e.from == from && &e.to == to) {
                locs.push(format!("{}→{} at {}:{}", from, to, e.file, e.line));
            }
        }
        let first = edges
            .iter()
            .find(|e| Some(&e.from) == cycle.first())
            .cloned();
        findings.push(Finding {
            file: first.as_ref().map_or_else(String::new, |e| e.file.clone()),
            line: first.as_ref().map_or(0, |e| e.line),
            rule: "lock-order",
            msg: format!(
                "lock-order cycle {} — two threads taking these classes in \
                 opposing order deadlock ({})",
                cycle.join(" → "),
                locs.join("; ")
            ),
        });
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    findings
}

/// Analyze every `crates/*/src/**.rs` under `root`, except the sync shim
/// itself (`core/src/sync.rs` wraps raw `std::sync` by definition — it is
/// the instrument, not a subject).
pub fn analyze_repo(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<(String, String)> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        collect_rs(&src, &mut |p: &Path| {
            let label = p.strip_prefix(root).unwrap_or(p).display().to_string();
            if label.ends_with("core/src/sync.rs") {
                return;
            }
            if let Ok(text) = std::fs::read_to_string(p) {
                files.push((label, text));
            }
        })?;
    }
    files.sort();
    Ok(analyze_sources(&files))
}

fn collect_rs(dir: &Path, f: &mut impl FnMut(&Path)) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(l, s)| ((*l).to_string(), (*s).to_string()))
            .collect();
        analyze_sources(&owned)
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- scope tracking ------------------------------------------------

    #[test]
    fn named_guard_lives_to_block_end() {
        let bad = r#"
            fn f(&self) {
                let g = self.inner.lock();
                self.file.sync_data();
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert_eq!(rules(&f), ["guard-across-blocking"], "{f:?}");
    }

    #[test]
    fn early_drop_ends_scope() {
        let good = r#"
            fn f(&self) {
                let g = self.inner.lock();
                drop(g);
                self.file.sync_data();
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn inner_block_ends_scope() {
        let good = r#"
            fn f(&self) {
                {
                    let g = self.inner.lock();
                    g.touch();
                }
                self.file.sync_data();
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn chained_temporary_dies_at_statement_end() {
        let good = r#"
            fn f(&self) {
                let v = self.inner.lock().value.clone();
                self.tx.send(v);
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn derived_binding_is_not_the_guard() {
        // `let v = m.lock().get()...` binds a value, not the guard; a
        // later `drop(v)` must not be treated as releasing a lock, and
        // the guard must die at the statement end.
        let good = r#"
            fn f(&self) {
                let v = std::mem::take(&mut *self.inner.lock());
                for h in v {
                    h.join();
                }
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn match_scrutinee_guard_spans_arms() {
        let bad = r#"
            fn f(&self) {
                match self.inner.lock().state {
                    State::A => self.tx.send(1),
                    State::B => {}
                }
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert_eq!(rules(&f), ["send-while-locked"], "{f:?}");
        // ...but a send in the next statement is fine.
        let good = r#"
            fn f(&self) {
                let go = match self.inner.lock().state {
                    State::A => true,
                    State::B => false,
                };
                if go { self.tx.send(1); }
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn if_let_guard_spans_else_branch() {
        let bad = r#"
            fn f(&self) {
                if let Some(v) = self.inner.lock().peek() {
                    v.touch();
                } else {
                    self.tx.send(0);
                }
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert_eq!(rules(&f), ["send-while-locked"], "{f:?}");
    }

    #[test]
    fn loop_body_guard_does_not_leak_across_iterations() {
        let good = r#"
            fn f(&self) {
                loop {
                    let step = {
                        let q = self.queue.lock();
                        q.pop_front()
                    };
                    self.file.sync_data();
                }
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
    }

    #[test]
    fn reassigned_guard_tracks_new_scope() {
        // `g = self.other.lock()` (plain reassignment) is an acquisition
        // with its own scope running to the block end.
        let bad = r#"
            fn f(&self) {
                let mut g = self.a.lock();
                drop(g);
                g = self.a.lock();
                self.file.sync_data();
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert_eq!(rules(&f), ["guard-across-blocking"], "{f:?}");
    }

    // ---- rule: lock-order ---------------------------------------------

    #[test]
    fn seeded_lock_order_inversion_same_file() {
        let a = r#"
            fn forward(&self) {
                let g = self.alpha.lock();
                let h = self.beta.lock();
            }
        "#;
        let b = r#"
            fn backward(&self) {
                let h = self.beta.lock();
                let g = self.alpha.lock();
            }
        "#;
        // Two functions, opposing order => cycle.
        let both = format!("{a}\n{b}");
        let f = run(&[("x.rs", &both)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "lock-order" && f.msg.contains("cycle")),
            "{f:?}"
        );
        // Fixed: both take alpha then beta => clean.
        let fixed = format!("{a}\n{}", a.replace("forward", "forward2"));
        assert!(run(&[("x.rs", &fixed)]).is_empty());
    }

    #[test]
    fn seeded_lock_order_inversion_cross_file() {
        // Lock classes are qualified by the file that acquires them, so a
        // cross-file inversion surfaces through the call graph: each file
        // locks its own lock, then calls into the other file.
        let x = r#"
            fn forward(&self) {
                let g = self.alpha.lock();
                y_helper(self);
            }
            fn x_helper(&self) {
                let g = self.alpha.lock();
            }
        "#;
        let y = r#"
            fn backward(&self) {
                let h = self.beta.lock();
                x_helper(self);
            }
            fn y_helper(&self) {
                let h = self.beta.lock();
            }
        "#;
        let f = run(&[("x.rs", x), ("y.rs", y)]);
        assert!(
            f.iter().any(|f| f.rule == "lock-order"
                && f.msg.contains("cycle")
                && f.msg.contains("x.alpha")
                && f.msg.contains("y.beta")),
            "{f:?}"
        );
        // Fixed: both files call in the same direction => clean.
        let y_fixed = r#"
            fn backward(&self) {
                let h = self.beta.lock();
            }
            fn y_helper(&self) {
                let h = self.beta.lock();
            }
        "#;
        assert!(run(&[("x.rs", x), ("y.rs", y_fixed)]).is_empty());
    }

    #[test]
    fn seeded_lock_order_inversion_via_call() {
        let bad = r#"
            fn outer(&self) {
                let g = self.alpha.lock();
                helper(self);
            }
            fn helper(&self) {
                let h = self.beta.lock();
            }
            fn opposite(&self) {
                let h = self.beta.lock();
                let g = self.alpha.lock();
            }
        "#;
        let f = run(&[("x.rs", bad)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "lock-order" && f.msg.contains("cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn self_deadlock_same_class() {
        let bad = r#"
            fn f(&self) {
                let g = self.inner.lock();
                let h = self.inner.lock();
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "lock-order" && f.msg.contains("re-acquires")),
            "{f:?}"
        );
    }

    // ---- rule: guard-across-blocking ----------------------------------

    #[test]
    fn seeded_guard_across_fsync_direct_and_fixed() {
        let bad = r#"
            fn flush(&self) {
                let mut inner = self.inner.lock();
                inner.wal.sync_data();
            }
        "#;
        let f = run(&[("w.rs", bad)]);
        assert_eq!(rules(&f), ["guard-across-blocking"], "{f:?}");
        let fixed = r#"
            fn flush(&self) {
                let wal = self.inner.lock().wal.try_clone();
                wal.sync_data();
            }
        "#;
        assert!(run(&[("w.rs", fixed)]).is_empty());
    }

    #[test]
    fn seeded_guard_across_blocking_transitive() {
        // outer -> mid -> leaf, fsync three calls deep.
        let bad = r#"
            fn outer(&self) {
                let g = self.inner.lock();
                mid(self);
            }
            fn mid(&self) { leaf(self); }
            fn leaf(&self) { self.file.sync_data(); }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "guard-across-blocking" && f.msg.contains("via")),
            "{f:?}"
        );
        let fixed = r#"
            fn outer(&self) {
                {
                    let g = self.inner.lock();
                }
                mid(self);
            }
            fn mid(&self) { leaf(self); }
            fn leaf(&self) { self.file.sync_data(); }
        "#;
        assert!(run(&[("a.rs", fixed)]).is_empty());
    }

    #[test]
    fn condvar_wait_exempts_own_guard_only() {
        let good = r#"
            fn f(&self) {
                let mut inner = self.inner.lock();
                inner = self.cv.wait(inner);
            }
        "#;
        assert!(run(&[("a.rs", good)]).is_empty());
        let bad = r#"
            fn f(&self) {
                let other = self.other.lock();
                let mut inner = self.inner.lock();
                inner = self.cv.wait(inner);
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "guard-across-blocking" && f.msg.contains("wait")),
            "{f:?}"
        );
    }

    // ---- rule: send-while-locked --------------------------------------

    #[test]
    fn seeded_send_while_locked_and_staged_fix() {
        let bad = r#"
            fn burst(&self) {
                let mut c = self.core.lock();
                for v in &mut c.vclients {
                    self.tx.send(v.id);
                }
            }
        "#;
        let f = run(&[("m.rs", bad)]);
        assert_eq!(rules(&f), ["send-while-locked"], "{f:?}");
        let fixed = r#"
            fn burst(&self) {
                let mut staged = Vec::new();
                {
                    let mut c = self.core.lock();
                    for v in &mut c.vclients {
                        staged.push(v.id);
                    }
                }
                for id in staged {
                    self.tx.send(id);
                }
            }
        "#;
        assert!(run(&[("m.rs", fixed)]).is_empty());
    }

    #[test]
    fn seeded_send_while_locked_transitive() {
        let bad = r#"
            fn outer(&self) {
                let g = self.inner.lock();
                notify(self);
            }
            fn notify(&self) { self.tx.try_send(1); }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert!(
            f.iter()
                .any(|f| f.rule == "send-while-locked" && f.msg.contains("`notify`")),
            "{f:?}"
        );
    }

    // ---- guard-returning helpers --------------------------------------

    #[test]
    fn guard_returning_call_is_an_acquisition() {
        let bad = r#"
            fn locked(&self) -> MutexGuard<'_, Inner> {
                self.inner.lock()
            }
            fn f(&self) {
                let g = locked(self);
                self.file.sync_data();
            }
        "#;
        let f = run(&[("a.rs", bad)]);
        assert!(f.iter().any(|f| f.rule == "guard-across-blocking"), "{f:?}");
        let fixed = r#"
            fn locked(&self) -> MutexGuard<'_, Inner> {
                self.inner.lock()
            }
            fn f(&self) {
                {
                    let g = locked(self);
                }
                self.file.sync_data();
            }
        "#;
        assert!(run(&[("a.rs", fixed)]).is_empty());
    }

    // ---- waivers & masking --------------------------------------------

    #[test]
    fn waiver_with_reason_suppresses() {
        let waived_src = r#"
            fn f(&self) {
                let g = self.inner.lock();
                // lint: allow(guard-across-blocking): rewrite excludes appends
                self.file.sync_data();
            }
        "#;
        assert!(run(&[("a.rs", waived_src)]).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_ignored() {
        let src = r#"
            fn f(&self) {
                let g = self.inner.lock();
                // lint: allow(guard-across-blocking)
                self.file.sync_data();
            }
        "#;
        assert_eq!(rules(&run(&[("a.rs", src)])), ["guard-across-blocking"]);
    }

    #[test]
    fn waiver_for_other_rule_does_not_suppress() {
        let src = r#"
            fn f(&self) {
                let g = self.inner.lock();
                // lint: allow(send-while-locked): wrong rule
                self.file.sync_data();
            }
        "#;
        assert_eq!(rules(&run(&[("a.rs", src)])), ["guard-across-blocking"]);
    }

    #[test]
    fn test_and_chaos_hook_items_are_masked() {
        let src = r#"
            #[cfg(test)]
            fn in_tests(&self) {
                let g = self.a.lock();
                let h = self.b.lock();
                let g2 = self.b.lock();
                let h2 = self.a.lock();
            }
            #[cfg(feature = "check-hooks")]
            fn chaos(&self) {
                let g = self.a.lock();
                self.file.sync_data();
            }
        "#;
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    // ---- repo gate -----------------------------------------------------

    #[test]
    fn repo_is_clean() {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .map(std::path::Path::to_path_buf)
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        let findings = analyze_repo(&root).expect("walk repo");
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
