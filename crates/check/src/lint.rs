//! Repo-specific lint pass: protocol coding rules clippy cannot express.
//!
//! Seven rules, the first six scoped to the consensus-critical crates:
//!
//! 1. **Exhaustive `Msg` dispatch** (`crates/core`, `crates/transport`):
//!    a `match` whose arms pattern-match `Msg::` variants must not have a
//!    bare `_ =>` arm — a new message variant (like PR 2's `ConfirmReq`)
//!    must fail compilation where it is dispatched, never be silently
//!    swallowed.
//! 2. **No non-test `unwrap`/`expect`** (`crates/core/src/replica`,
//!    `crates/transport/src`, `crates/services/src`): replica, transport
//!    and service code — the services decode client bytes inside the
//!    replica process — must use typed errors or documented invariant
//!    panics (`panic!`/`unreachable!` with rationale), not ad-hoc unwraps.
//! 3. **Persist-before-send** (`crates/core/src/replica`): the functions
//!    that acknowledge protocol steps must call the corresponding
//!    `Storage` persist *before* constructing the acknowledgment message,
//!    and must contain the persist call at all — the paper's §3.1
//!    recovery model is sound only if promises and acceptances hit stable
//!    storage before they are announced.
//! 4. **Flush-before-transmit** (`crates/core/src/outbox.rs`, the
//!    classifier in `crates/core/src/msg.rs`, and every caller under
//!    `crates/{core,transport,simnet,check,bench}/src`): under group
//!    commit the `Storage` persist calls only *buffer* WAL records; the
//!    drive loops' `outbox::release` is where durability actually
//!    happens. Its body (shared with the power cut the checking planes
//!    take inside it) must call the `flush_storage` barrier, and
//!    the only list it may hand to the network before the barrier is the
//!    *ahead* list — otherwise the batched mode re-introduces the
//!    acknowledge-before-durable bug that rule 3 guards against, one
//!    level up. What may be on the ahead list is `Msg::precedes_barrier`'s
//!    answer, and the only variant it may say `true` for is `Accept`. And
//!    the barrier has one caller: outside the outbox module (and
//!    `Replica::stop`, the flush on the way out) no non-test code calls
//!    `flush_storage` or asks `precedes_barrier` — a drive loop that did
//!    would be a second copy of the order, which this rule could not see.
//! 5. **No blocking calls on the reactor thread** (`transport/src/reactor.rs`,
//!    `transport/src/sys.rs`, `transport/src/backpressure.rs`): the epoll
//!    reactor runs every connection on one thread, so a single blocking
//!    primitive (`thread::sleep`, `write_all`, `read_exact`,
//!    `read_to_end`) stalls the whole node. Reactor-path code must use
//!    plain `read`/`write` loops that surface `EWOULDBLOCK` and yield
//!    back to the readiness loop. (The `mux` load driver is deliberately
//!    thread-per-connection and is *not* in this scope.)
//!
//! 6. **Read policy has one owner** (`crates/core/src/replica`): §3.4's
//!    rule — what validates a read in which mode — is written once, in
//!    `replica/reads.rs`. Non-test code elsewhere under `replica/` that
//!    names `read_mode`, `ReadMode::` or `confirm_batching` is deciding
//!    read policy a second time.
//! 7. **One guard at a time** (`crates/*/src`): while a `let`-bound lock
//!    guard is live, nothing in its scope takes another lock, blocks
//!    (fsync, sleep, channel receive, thread join) or sends on a channel.
//!    No code nests locks, so no lock order exists to get wrong, and no
//!    thread waits on the platter or a peer while others wait on it
//!    (DESIGN.md §6.3). The rule reads one body and follows no call: a
//!    helper that blocks under its caller's guard must say why in its doc
//!    (`fstorage`'s `truncate_upto`).
//!
//! The pass is a hand-rolled token scan, not a full parse: comments,
//! strings and char literals are blanked first, `#[cfg(test)]` items are
//! masked out, and the rules run on the remainder. That is precise enough
//! for these rules and keeps the checker dependency-free. The rule
//! functions take source text, so the self-tests can feed known-bad
//! snippets (see `tests/lint_self.rs`).

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
/// the following item's braces). Input must already be noise-stripped.
#[must_use]
pub fn mask_test_items(cleaned: &str) -> String {
    mask_attr_items(cleaned, "#[cfg(test)]")
}

/// Blank every item annotated with the exact attribute text `attr`
/// (attribute plus the following item's braces or terminating `;`).
/// Input must already be noise-stripped.
#[must_use]
pub fn mask_attr_items(cleaned: &str, attr: &str) -> String {
    let b = cleaned.as_bytes();
    let mut out = cleaned.as_bytes().to_vec();
    let pat = attr.as_bytes();
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

pub(crate) fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Rule 1: no bare `_ =>` arm in a `match` whose arms match `Msg::`
/// patterns. Runs on noise-stripped source.
#[must_use]
pub fn check_msg_wildcards(file: &str, cleaned: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let b = cleaned.as_bytes();
    let mut i = 0;
    while let Some(pos) = cleaned[i..].find("match ") {
        let start = i + pos;
        i = start + 6;
        // Word-boundary check on the left.
        if start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            continue;
        }
        // Find the match body: first `{` at paren/bracket depth 0.
        let mut j = start + 6;
        let mut depth = 0i32;
        let body_start = loop {
            if j >= b.len() {
                break None;
            }
            match b[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => break Some(j + 1),
                // A `{` inside parens (struct expr in the scrutinee).
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b';' if depth == 0 => break None, // not a match expr after all
                _ => {}
            }
            j += 1;
        };
        let Some(body_start) = body_start else {
            continue;
        };
        // Walk the arms at depth 0 within the body.
        let mut k = body_start;
        let mut depth = 0i32;
        let mut arm_start = body_start;
        let mut has_msg_pattern = false;
        let mut wildcard_at: Option<usize> = None;
        let mut in_pattern = true;
        while k < b.len() {
            match b[k] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => {
                    if b[k] == b'}' && depth == 0 {
                        break; // end of match body
                    }
                    depth -= 1;
                }
                b'=' if depth == 0 && in_pattern && k + 1 < b.len() && b[k + 1] == b'>' => {
                    let pat = cleaned[arm_start..k].trim();
                    // Strip a guard for classification.
                    let head = pat.split(" if ").next().unwrap_or(pat).trim();
                    // Only *top-level* `Msg::` patterns make this a Msg
                    // dispatch: a match over Action with a nested
                    // `msg: Msg::X` pattern is a filter, not dispatch.
                    if head.starts_with("Msg::") {
                        has_msg_pattern = true;
                    }
                    if head == "_" {
                        wildcard_at = Some(arm_start);
                    }
                    in_pattern = false;
                    k += 1;
                }
                b',' if depth == 0 && !in_pattern => {
                    arm_start = k + 1;
                    in_pattern = true;
                }
                _ => {}
            }
            // A block-bodied arm returns to pattern position after its
            // braces close back to depth 0; detect via `}` + lookahead is
            // overkill — the `,` rule plus brace tracking covers idiomatic
            // rustfmt output, where block arms are followed by no comma
            // but a newline then the next pattern. Handle that: if we are
            // past a block close at depth 0, treat the next non-space
            // char as a new pattern start.
            if !in_pattern && depth == 0 && b[k] == b'}' {
                arm_start = k + 1;
                in_pattern = true;
            }
            k += 1;
        }
        if has_msg_pattern {
            if let Some(off) = wildcard_at {
                findings.push(Finding {
                    file: file.to_string(),
                    line: line_of(cleaned, off),
                    rule: "msg-wildcard",
                    msg: "match over Msg variants has a bare `_ =>` arm; list every \
                          variant so new messages cannot be silently dropped"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Rule 2: no `.unwrap()` / `.expect(` outside test code. Runs on
/// noise-stripped, test-masked source.
#[must_use]
pub fn check_unwraps(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pat in [".unwrap()", ".expect("] {
        let mut i = 0;
        while let Some(pos) = masked[i..].find(pat) {
            let off = i + pos;
            i = off + pat.len();
            findings.push(Finding {
                file: file.to_string(),
                line: line_of(masked, off),
                rule: "no-unwrap",
                msg: format!(
                    "`{}` in non-test replica/transport/services code; use typed errors or a \
                     documented invariant panic",
                    pat.trim_matches(|c| c == '.' || c == '(' || c == ')')
                ),
            });
        }
    }
    findings
}

/// (function name, persist call that must appear, message it must precede).
/// The call is spelled with its `Stable::acked` door: the same record
/// written through `unacked()` would raise no flush barrier, and the
/// message would leave before it is durable. The promise is persisted by
/// the preamble every handler of a leader's message runs (`defer_to`), so
/// "persisted before `Msg::Promise`" is two rows: the preamble writes it,
/// and `handle_prepare` runs the preamble before it builds the message.
const PERSIST_RULES: &[(&str, &str, &str)] = &[
    ("handle_accept", ".acked().save_accepted", "Msg::Accepted"),
    ("defer_to", ".acked().save_promised", "Msg::Promise"),
    ("handle_prepare", "self.defer_to(", "Msg::Promise"),
    (
        "execute_and_propose",
        ".acked().save_accepted",
        "Msg::Accept",
    ),
    (
        "install_recovery_batch",
        ".acked().save_accepted",
        "Msg::Accept",
    ),
];

/// Rule 3: persist-before-send. For each protocol-acknowledging function,
/// the persist call must be present and must textually dominate (precede)
/// the construction of the message it covers. Additionally, any function
/// containing both a persist call and its covered message construction
/// must order them persist-first. Runs on noise-stripped, test-masked
/// source.
#[must_use]
pub fn check_persist_before_send(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(fn_name, persist, msg) in PERSIST_RULES {
        for (start, body) in fns_named(masked, fn_name) {
            let text = &masked[body.clone()];
            let p = text.find(persist);
            let m = text.find(msg);
            match (p, m) {
                (None, _) => findings.push(Finding {
                    file: file.to_string(),
                    line: line_of(masked, start),
                    rule: "persist-before-send",
                    msg: format!(
                        "`{fn_name}` must persist via `{persist}` before acknowledging \
                         (no persist call found)"
                    ),
                }),
                (Some(p_off), Some(m_off)) if m_off < p_off => findings.push(Finding {
                    file: file.to_string(),
                    line: line_of(masked, body.start + m_off),
                    rule: "persist-before-send",
                    msg: format!(
                        "`{fn_name}` constructs `{msg}` before calling `{persist}`; \
                         stable storage must precede the acknowledgment (§3.1)"
                    ),
                }),
                _ => {}
            }
        }
    }
    findings
}

/// (function name, flush barrier that must appear, the call that hands a
/// list to the network, what the argument of such a call must name if it
/// comes before the barrier). The rule-3 table covers the sans-io core,
/// where persists are synchronous; this one covers the drive loops, where
/// persists are *buffered* and the flush barrier is the durable point.
const FLUSH_RULES: &[(&str, &str, &str, &str)] =
    &[("release_or_cut", "flush_storage", "transmit(", "ahead")];

/// Rule 4, the order: flush-before-transmit. The drive loops' release
/// function must contain the `flush_storage` barrier, and a list handed
/// to the network textually before the barrier must be the ahead list.
/// Runs on noise-stripped, test-masked source.
#[must_use]
pub fn check_flush_barrier(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(fn_name, barrier, transmit, ahead) in FLUSH_RULES {
        for (start, body) in fns_named(masked, fn_name) {
            let text = &masked[body.clone()];
            let Some(p_off) = text.find(barrier) else {
                findings.push(Finding {
                    file: file.to_string(),
                    line: line_of(masked, start),
                    rule: "flush-before-transmit",
                    msg: format!(
                        "`{fn_name}` must run the `{barrier}` barrier before handing \
                         buffered messages to the network (no barrier found)"
                    ),
                });
                continue;
            };
            for (m_off, _) in text[..p_off].match_indices(transmit) {
                let arg = &text[m_off + transmit.len()..];
                let arg = &arg[..arg.find(')').unwrap_or(arg.len())];
                if !arg.contains(ahead) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: line_of(masked, body.start + m_off),
                        rule: "flush-before-transmit",
                        msg: format!(
                            "`{fn_name}` hands `{}` to the network before the `{barrier}` \
                             barrier; under group commit buffered WAL records are not \
                             durable until the flush, so only the `{ahead}` list may \
                             precede it (§3.1 at batch granularity)",
                            arg.trim()
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// The calls that spell the order of sends and barrier, and the files
/// that may make them: the outbox module, and the classifier's own
/// recursion into a `Grouped` envelope.
const BARRIER_CALLS: &[&str] = &["flush_storage(", "precedes_barrier("];
const BARRIER_CALLERS: &[&str] = &["crates/core/src/outbox.rs", "crates/core/src/msg.rs"];
/// `Replica::stop`, the one other caller of `flush_storage`.
const BARRIER_ON_THE_WAY_OUT: (&str, &str) = ("crates/core/src/replica/mod.rs", "fn stop(");

/// Rule 4, the caller: the barrier has one. A call of `flush_storage` or
/// `precedes_barrier` outside [`BARRIER_CALLERS`] and `Replica::stop` is a
/// drive loop keeping its own copy of the order. Runs on noise-stripped,
/// test-masked source.
#[must_use]
pub fn check_barrier_callers(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if BARRIER_CALLERS.iter().any(|f| file.ends_with(f)) {
        return findings;
    }
    let (stop_file, stop_fn) = BARRIER_ON_THE_WAY_OUT;
    let stop = file
        .ends_with(stop_file)
        .then(|| masked.find(stop_fn).and_then(|at| fn_body(masked, at)))
        .flatten();
    for &call in BARRIER_CALLS {
        for (off, _) in masked.match_indices(call) {
            let before = &masked[..off];
            let longer_name = before.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            let definition = before.ends_with("fn ");
            if longer_name || definition || stop.as_ref().is_some_and(|body| body.contains(&off)) {
                continue;
            }
            findings.push(Finding {
                file: file.to_string(),
                line: line_of(masked, off),
                rule: "flush-before-transmit",
                msg: format!(
                    "`{}` called outside `outbox::release`: the order of sends and \
                     barrier is written once, and a drive loop buffers its sends in \
                     an `Outbox` and releases it",
                    call.trim_end_matches('(')
                ),
            });
        }
    }
    findings
}

/// What spells a read-policy decision, where such decisions live, and the
/// one file there that makes them.
const READ_POLICY: &[&str] = &["read_mode", "ReadMode::", "confirm_batching"];
const READ_POLICY_SCOPE: &str = "crates/core/src/replica/";
const READ_POLICY_OWNER: &str = "reads.rs";

/// Rule 6: read policy has one owner. Under `replica/`, only `reads.rs`
/// (and `tests.rs`) may name the read mode or the confirm-batching knob.
/// Runs on noise-stripped, test-masked source.
#[must_use]
pub fn check_read_mode_owner(file: &str, masked: &str) -> Vec<Finding> {
    let name = file.rsplit('/').next().unwrap_or(file);
    if !file.contains(READ_POLICY_SCOPE) || name == READ_POLICY_OWNER || name == "tests.rs" {
        return Vec::new();
    }
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let spelled = |token| {
        masked
            .match_indices(token)
            .map(move |(off, _)| (token, off))
    };
    let hits = READ_POLICY.iter().copied().flat_map(spelled);
    // Not the tail of a longer name (`with_read_mode`).
    let hits = hits.filter(|(_, off)| !masked[..*off].ends_with(ident));
    let finding = |(token, off): (&str, usize)| Finding {
        file: file.to_string(),
        line: line_of(masked, off),
        rule: "read-policy-owner",
        msg: format!(
            "`{}` outside `replica/reads.rs`: what validates a read, per mode, is \
             decided there and nowhere else (§3.4)",
            token.trim_end_matches("::")
        ),
    };
    hits.map(finding).collect()
}

/// The one message that may leave ahead of the flush barrier.
const AHEAD_OF_BARRIER: &str = "Accept";

/// Rule 4, the class: in `Msg::precedes_barrier`, an arm that answers
/// `true` may name no variant but `Accept` — one finding per other
/// variant. (`Promise` and `Accepted` acknowledge records, `Prepare`
/// announces a ballot that must survive a crash, `Reply` and `Chosen` a
/// commit: DESIGN.md §5.) Runs on noise-stripped, test-masked source.
#[must_use]
pub fn check_barrier_class(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(start) = masked.find("fn precedes_barrier") else {
        return findings;
    };
    let Some(body) = fn_body(masked, start) else {
        return findings;
    };
    let Some(arms) = masked[body.clone()].find('{').map(|o| body.start + o + 1) else {
        return findings;
    };
    let text = &masked[arms..body.end];
    let mut arm_start = 0;
    while let Some(arrow) = text[arm_start..].find("=>").map(|o| arm_start + o) {
        // The arm's result runs to the next comma outside any bracket.
        let mut depth = 0i32;
        let mut end = text.len();
        for (o, c) in text[arrow..].char_indices() {
            match c {
                '(' | '{' | '[' => depth += 1,
                ')' | '}' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    end = arrow + o;
                    break;
                }
                _ => {}
            }
            if depth < 0 {
                end = arrow + o;
                break;
            }
        }
        if text[arrow + 2..end].trim() == "true" {
            let pattern = &text[arm_start..arrow];
            for (o, _) in pattern.match_indices("Msg::") {
                let variant: String = pattern[o + 5..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if variant != AHEAD_OF_BARRIER {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: line_of(masked, arms + arm_start + o),
                        rule: "flush-before-transmit",
                        msg: format!(
                            "`Msg::precedes_barrier` lets `{variant}` leave before the \
                             flush barrier; only `{AHEAD_OF_BARRIER}` acknowledges nothing \
                             on its sender's disk"
                        ),
                    });
                }
            }
        }
        arm_start = (end + 1).min(text.len());
    }
    findings
}

/// Blocking primitives forbidden on the reactor thread. Each entry is a
/// token the masked source must not contain. `.write_all(`/`.read_exact(`
/// keep the leading dot so free functions named e.g. `try_read_exact`
/// don't false-positive; `thread::sleep` and `read_to_end` are distinctive
/// enough bare.
const BLOCKING_TOKENS: &[&str] = &[
    "thread::sleep",
    ".write_all(",
    ".read_exact(",
    "read_to_end",
];

/// Rule 5: no blocking calls in reactor-path modules. The reactor drives
/// every connection from one thread; any call that parks that thread
/// (sleeping, or looping internally until a full buffer is transferred)
/// freezes the whole node. Runs on noise-stripped, test-masked source.
#[must_use]
pub fn check_no_blocking(file: &str, masked: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &pat in BLOCKING_TOKENS {
        let mut i = 0;
        while let Some(pos) = masked[i..].find(pat) {
            let off = i + pos;
            i = off + pat.len();
            findings.push(Finding {
                file: file.to_string(),
                line: line_of(masked, off),
                rule: "no-blocking-call",
                msg: format!(
                    "`{}` in reactor-path code; the reactor thread must never \
                     block — use nonblocking `read`/`write` loops that yield \
                     on `EWOULDBLOCK`",
                    pat.trim_matches(|c| c == '.' || c == '(')
                ),
            });
        }
    }
    findings
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
/// [`UNDER_A_GUARD`] token in that span is a finding. Runs on
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

/// Every function called exactly `name` that has a body: where its `fn`
/// keyword starts, and its body's range.
fn fns_named<'a>(
    src: &'a str,
    name: &str,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + 'a {
    let needle = format!("fn {name}");
    let ident = |c: &u8| c.is_ascii_alphanumeric() || *c == b'_';
    let starts: Vec<usize> = src.match_indices(&needle).map(|(at, _)| at).collect();
    let whole_name = move |at: &usize| !src.as_bytes().get(at + needle.len()).is_some_and(ident);
    let with_body = |at: usize| fn_body(src, at).map(|body| (at, body));
    starts.into_iter().filter(whole_name).filter_map(with_body)
}

/// Byte range of the body (inside the outermost braces) of the function
/// whose `fn` keyword starts at `fn_start`.
pub(crate) fn fn_body(src: &str, fn_start: usize) -> Option<std::ops::Range<usize>> {
    let b = src.as_bytes();
    let mut j = fn_start;
    let mut depth = 0i32;
    // Find the opening brace of the body (skip generic/where/params).
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => break,
            b';' if depth == 0 => return None, // trait method without body
            _ => {}
        }
        j += 1;
    }
    if j >= b.len() {
        return None;
    }
    let body_start = j + 1;
    let mut depth = 1i32;
    j += 1;
    while j < b.len() && depth > 0 {
        match b[j] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    Some(body_start..j.saturating_sub(1))
}

/// Lint one source file's text under the rule scopes that apply to it.
#[must_use]
pub fn lint_source(label: &str, src: &str, scope: Scope) -> Vec<Finding> {
    let cleaned = strip_noise(src);
    let masked = mask_test_items(&cleaned);
    let mut findings = check_msg_wildcards(label, &masked);
    findings.extend(check_barrier_class(label, &masked));
    findings.extend(check_barrier_callers(label, &masked));
    findings.extend(check_read_mode_owner(label, &masked));
    findings.extend(check_one_guard(label, &masked));
    if scope.no_unwrap {
        findings.extend(check_unwraps(label, &masked));
    }
    if scope.persist {
        findings.extend(check_persist_before_send(label, &masked));
    }
    if scope.flush {
        findings.extend(check_flush_barrier(label, &masked));
    }
    if scope.no_blocking {
        findings.extend(check_no_blocking(label, &masked));
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Which rule groups apply to a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// Apply the no-unwrap rule.
    pub no_unwrap: bool,
    /// Apply the persist-before-send rules.
    pub persist: bool,
    /// Apply the flush-before-transmit rule.
    pub flush: bool,
    /// Apply the no-blocking-call rule (reactor-path modules).
    pub no_blocking: bool,
}

/// Lint the repository rooted at `root`. Scopes: the `Msg`-wildcard rule
/// and the barrier's class (wherever `Msg::precedes_barrier` is defined)
/// cover `crates/core/src` and `crates/transport/src`; the barrier's one
/// caller and the one-guard rule cover every `crates/*/src`; the read
/// policy's one owner covers `crates/core/src/replica`;
/// no-unwrap covers `crates/core/src/replica`, `crates/transport/src` and
/// `crates/services/src` (`tests.rs` files and `#[cfg(test)]` items
/// excluded); the persist
/// rules cover `crates/core/src/replica`; the flush-barrier order covers
/// `crates/core/src` (it keys on `release_or_cut`, the body the outbox's
/// `release` and `release_to_barrier` share); the
/// no-blocking-call rule covers the reactor-path modules `reactor.rs`,
/// `sys.rs` and `backpressure.rs` under `crates/transport/src`.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut files: Vec<(PathBuf, Scope)> = Vec::new();
    collect_rs(&root.join("crates/core/src"), &mut |p| {
        let in_replica = p
            .strip_prefix(root)
            .ok()
            .is_some_and(|r| r.starts_with("crates/core/src/replica"));
        let is_test_file = p.file_name().is_some_and(|f| f == "tests.rs");
        files.push((
            p.to_path_buf(),
            Scope {
                no_unwrap: in_replica && !is_test_file,
                persist: in_replica && !is_test_file,
                flush: true,
                no_blocking: false,
            },
        ));
    })?;
    collect_rs(&root.join("crates/transport/src"), &mut |p| {
        let reactor_path = p
            .file_name()
            .is_some_and(|f| f == "reactor.rs" || f == "sys.rs" || f == "backpressure.rs");
        files.push((
            p.to_path_buf(),
            Scope {
                no_unwrap: true,
                persist: false,
                flush: false,
                no_blocking: reactor_path,
            },
        ));
    })?;
    // The services decode client bytes inside the replica process.
    collect_rs(&root.join("crates/services/src"), &mut |p| {
        let scope = Scope {
            no_unwrap: true,
            ..Scope::default()
        };
        files.push((p.to_path_buf(), scope));
    })?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let label = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string()
    };
    for (path, scope) in files {
        let src = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&label(&path), &src, scope));
    }
    // The other drive loops live here: they too leave the barrier to
    // the one release, and hold one guard at a time.
    let mut loops: Vec<PathBuf> = Vec::new();
    for other in ["simnet", "check", "bench"] {
        collect_rs(&root.join("crates").join(other).join("src"), &mut |p| {
            loops.push(p.to_path_buf());
        })?;
    }
    for path in loops {
        let masked = mask_test_items(&strip_noise(&std::fs::read_to_string(&path)?));
        findings.extend(check_barrier_callers(&label(&path), &masked));
        findings.extend(check_one_guard(&label(&path), &masked));
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
