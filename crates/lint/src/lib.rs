//! # typhoon-lint — workspace invariant linter
//!
//! A dependency-free static checker for the concurrency discipline the
//! Typhoon workspace relies on (see `docs/CONCURRENCY.md`). It is not a
//! Rust parser: it tokenizes just enough (comments and string literals
//! stripped, `#[cfg(test)]` regions tracked by brace matching) to make the
//! nine rules below reliable on idiomatic code, and it runs in
//! milliseconds with zero dependencies so CI can gate on it.
//!
//! | Rule  | What it flags | Waiver |
//! |-------|---------------|--------|
//! | TL001 | `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()` in non-test code (poisoning panics propagate) | `// LINT: allow-lock-unwrap(reason)` |
//! | TL002 | raw `std::sync::Mutex`/`RwLock` in hot-path crates instead of `typhoon-diag` wrappers | `// LINT: allow-raw-lock(reason)` |
//! | TL003 | `unsafe` without a `// SAFETY:` comment | the `// SAFETY:` comment itself |
//! | TL004 | unbounded channels (`mpsc::channel()`, `unbounded()`) in non-test code (unbackpressured queues hide overload) | `// LINT: allow-unbounded(reason)` |
//! | TL005 | `std::thread::sleep`, `thread::park` or `thread::park_timeout` in library code (blocks an executor thread; a park is a sleep by another name — wait on a `typhoon_net::Doorbell`) | `// LINT: allow-sleep(reason)` |
//! | TL006 | raw `thread::spawn`/`thread::Builder` in runtime crates instead of `typhoon_diag::spawn_supervised` (a silent thread death is an undetectable fault) | `// LINT: allow-raw-spawn(reason)` |
//! | TL007 | lock-order violations: unranked Diag locks in hot-path crates, acquisition nesting that contradicts the declared ranks, and cycles in the acquisition-order graph (see [`graph`]) | `// LINT: allow-unranked-lock(reason)` |
//! | TL008 | blocking channel `.send()`/`.recv()` while a lock guard is held (couples queue backpressure to the lock) | `// LINT: allow-send-under-lock(reason)` |
//! | TL009 | a `[dependencies]`/`[dev-dependencies]` entry in a workspace member's manifest that no `.rs` file of that package names (see [`manifest`]) | `# LINT: allow-unused-dep(reason)` |
//!
//! Waivers go on the offending line or the line directly above it, and
//! must carry a reason in parentheses.
//!
//! Test code — anything under a `tests/`, `benches/` or `examples/`
//! directory, and `#[cfg(test)]` regions inside `src/` — is exempt from
//! every rule except TL003.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod graph;
pub mod manifest;

/// Crates whose `src/` must use `typhoon-diag` wrappers instead of raw
/// locks (TL002). These sit on the dataplane or control loops where an
/// undetected deadlock or poisoned lock takes the whole pipeline down.
pub const HOT_CRATES: &[&str] = &[
    "crates/net",
    "crates/switch",
    "crates/storm",
    "crates/core",
    "crates/coordinator",
    "crates/controller",
];

/// Crates whose `src/` must spawn threads through
/// `typhoon_diag::spawn_supervised` (TL006). These own the long-lived
/// runtime threads — workers, switch datapaths, manager loops — where an
/// uncaught panic silently kills a thread the rest of the system assumes
/// is alive; the supervised wrapper turns that into a counted, logged
/// fault the recovery machinery can observe.
pub const SUPERVISED_CRATES: &[&str] = &[
    "crates/core",
    "crates/switch",
    "crates/controller",
    "crates/net",
];

/// Directories never scanned (build output, vendored shims, VCS, and the
/// linter's own violation fixtures).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier, `TL001`..`TL009`.
    pub rule: &'static str,
    /// Path relative to the scanned root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Serializes the diagnostic as a JSON object. Includes the rule's
    /// one-line rationale so machine consumers (CI annotations, editor
    /// integrations) can explain a finding without a lookup table.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","path":"{}","line":{},"message":"{}","rationale":"{}"}}"#,
            self.rule,
            json_escape(&self.path),
            self.line,
            json_escape(&self.message),
            json_escape(rationale(self.rule))
        )
    }
}

/// One-line rationale for each rule: *why* the workspace enforces it.
pub fn rationale(rule: &str) -> &'static str {
    match rule {
        "TL001" => "Poisoned locks propagate panics across threads; recover the guard instead.",
        "TL002" => "Hot-path locks need debug-build deadlock and hold-time diagnostics.",
        "TL003" => "Every unsafe block needs a written proof of the invariants it relies on.",
        "TL004" => "Unbounded queues hide overload instead of applying backpressure.",
        "TL005" => "Sleeping or parking blocks an executor thread the scheduler believes is live.",
        "TL006" => "A raw thread dies silently; supervised spawns surface panics to recovery.",
        "TL007" => "A total lock order (strictly increasing ranks) makes deadlock impossible.",
        "TL008" => "Blocking channel ops under a lock couple queue pressure to the lock.",
        "TL009" => "A dependency nothing uses is a build edge and a shim nobody can delete.",
        _ => "Unknown rule.",
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a full diagnostic list as a JSON array (one object per line).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&d.to_json());
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

// --------------------------------------------------------------- scanning

/// A source line after comment/string stripping, plus the comment text
/// that was removed (waivers and SAFETY markers live in comments).
pub(crate) struct Line {
    /// Code with comments replaced by nothing and string/char literal
    /// *contents* blanked (delimiters kept), so pattern matches never fire
    /// inside literals or comments.
    pub(crate) code: String,
    /// Concatenated comment text on this line (line + block comments).
    pub(crate) comment: String,
}

/// Strips comments and blanks string-literal contents, preserving line
/// structure. Handles `//`, `/* */` (nested), `"…"` with escapes, raw
/// strings `r#"…"#`, char literals, and lifetimes (`'a` is not a char).
pub(crate) fn strip(source: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize),  // nesting depth
        Str,           // inside "…"
        RawStr(usize), // inside r##"…"##, hash count
    }
    let mut lines = Vec::new();
    let mut st = St::Code;
    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match st {
                St::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(
                            &raw[raw.char_indices().nth(i).map(|(b, _)| b).unwrap_or(0)..],
                        );
                        i = bytes.len();
                    }
                    '/' if next == Some('*') => {
                        st = St::Block(1);
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        st = St::Str;
                        i += 1;
                    }
                    'r' if next == Some('"') || next == Some('#') => {
                        // Possible raw string: r"…" or r#"…"#
                        let mut j = i + 1;
                        let mut hashes = 0;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            code.push('"');
                            st = St::RawStr(hashes);
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: a char literal closes
                        // with ' within a few chars; a lifetime does not.
                        let close = if bytes.get(i + 1) == Some(&'\\') {
                            // escaped char: find the next '
                            (i + 2..bytes.len().min(i + 8)).find(|&j| bytes[j] == '\'')
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            Some(i + 2)
                        } else {
                            None
                        };
                        match close {
                            Some(j) => {
                                code.push_str("' '");
                                i = j + 1;
                            }
                            None => {
                                code.push('\'');
                                i += 1;
                            }
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
                St::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        st = St::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                St::Str => {
                    if c == '\\' {
                        i += 2; // skip escaped char
                    } else if c == '"' {
                        code.push('"');
                        st = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if bytes.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            code.push('"');
                            st = St::Code;
                            i += 1 + hashes;
                            continue;
                        }
                    }
                    i += 1;
                }
            }
        }
        lines.push(Line { code, comment });
    }
    lines
}

/// Marks lines inside `#[cfg(test)]`-gated brace regions. Handles the
/// idiomatic `#[cfg(test)] mod tests { … }` (attribute and item on the
/// same or following lines) by matching braces on stripped code.
pub(crate) fn cfg_test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the gated item.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            'scan: while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'scan;
                            }
                        }
                        ';' if !opened && depth == 0 => break 'scan, // `#[cfg(test)] use …;`
                        _ => {}
                    }
                }
                j += 1;
            }
            let end = j.min(lines.len() - 1);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// True when `rel` (a /-separated relative path) lies in a test-only tree.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

pub(crate) fn waived(lines: &[Line], idx: usize, tag: &str) -> bool {
    let here = &lines[idx].comment;
    let above = idx.checked_sub(1).map(|p| lines[p].comment.as_str());
    let hit = |c: &str| {
        let Some(rest) = c.split("LINT:").nth(1) else {
            return false;
        };
        // A waiver must carry a non-empty reason: `allow-x()` waives nothing.
        let needle = format!("{tag}(");
        rest.match_indices(&needle).any(|(i, _)| {
            let tail = &rest[i + needle.len()..];
            let reason = tail.split(')').next().unwrap_or("");
            !reason.trim().is_empty()
        })
    };
    hit(here) || above.map(hit).unwrap_or(false)
}

/// Lints one file's source. `rel` is the /-separated path relative to the
/// workspace root (used for hot-crate and test-tree classification).
pub fn check_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    let lines = strip(source);
    let test_file = is_test_path(rel);
    let test_mask = if test_file {
        vec![true; lines.len()]
    } else {
        cfg_test_mask(&lines)
    };
    let hot = HOT_CRATES.iter().any(|c| rel.starts_with(&format!("{c}/")));
    let supervised = SUPERVISED_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("{c}/")));
    let in_bin_dir = rel.contains("/bin/");

    let mut diags = Vec::new();
    let mut push = |rule: &'static str, line: usize, message: String| {
        diags.push(Diagnostic {
            rule,
            path: rel.to_owned(),
            line: line + 1,
            message,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let in_test = test_mask[i];

        // TL003 applies everywhere, tests included: unsafe is unsafe.
        if let Some(col) = find_unsafe(code) {
            let _ = col;
            let documented = line.comment.contains("SAFETY:")
                || preceding_comment_block(&lines, i).contains("SAFETY:");
            if !documented {
                push(
                    "TL003",
                    i,
                    "`unsafe` without a `// SAFETY:` comment explaining why the \
                     invariants hold"
                        .into(),
                );
            }
        }

        if in_test {
            continue;
        }

        // TL001: poisoning unwraps on lock acquisition.
        if has_lock_unwrap(&lines, i) && !waived(&lines, i, "allow-lock-unwrap") {
            push(
                "TL001",
                i,
                "lock acquisition followed by `.unwrap()` propagates poisoning; \
                 use a typhoon-diag wrapper or `unwrap_or_else(PoisonError::into_inner)` \
                 (waive: `// LINT: allow-lock-unwrap(reason)`)"
                    .into(),
            );
        }

        // TL002: raw locks in hot crates.
        if hot && has_raw_lock(code) && !waived(&lines, i, "allow-raw-lock") {
            push(
                "TL002",
                i,
                "hot-path crate uses a raw std::sync lock; use \
                 typhoon_diag::{DiagMutex, DiagRwLock} so debug builds check \
                 lock discipline (waive: `// LINT: allow-raw-lock(reason)`)"
                    .into(),
            );
        }

        // TL004: unbounded channels.
        if has_unbounded(code) && !waived(&lines, i, "allow-unbounded") {
            push(
                "TL004",
                i,
                "unbounded channel in non-test code hides overload instead of \
                 applying backpressure; use the ring or `sync_channel(n)`, or \
                 waive with `// LINT: allow-unbounded(reason)`"
                    .into(),
            );
        }

        // TL005: sleeps in library code (bin targets are driver programs,
        // not library code, so they may pace themselves).
        if !in_bin_dir && has_sleep(code) && !waived(&lines, i, "allow-sleep") {
            push(
                "TL005",
                i,
                "`thread::sleep`/`thread::park` in library code blocks an executor \
                 thread; wait on a `Doorbell`, a condvar or a channel timeout, or \
                 waive with `// LINT: allow-sleep(reason)`"
                    .into(),
            );
        }

        // TL006: raw thread spawns in runtime crates. A panic in a raw
        // thread dies silently; the supervised wrapper logs it, counts it
        // and lets recovery observe it.
        if supervised && has_raw_spawn(code) && !waived(&lines, i, "allow-raw-spawn") {
            push(
                "TL006",
                i,
                "runtime crate spawns a raw thread; use \
                 `typhoon_diag::spawn_supervised` so a panic is captured, \
                 counted and visible to crash recovery (waive: \
                 `// LINT: allow-raw-spawn(reason)`)"
                    .into(),
            );
        }
    }
    diags
}

/// Comment text of the contiguous comment-only lines directly above `idx`.
fn preceding_comment_block(lines: &[Line], idx: usize) -> String {
    let mut text = String::new();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.code.trim().is_empty() && !l.comment.is_empty() {
            text.push_str(&l.comment);
            text.push('\n');
        } else {
            break;
        }
    }
    text
}

fn find_unsafe(code: &str) -> Option<usize> {
    // Token match: `unsafe` as a whole word (strip() already removed
    // comments/strings, so any remaining occurrence is the keyword).
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[abs + 6..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(abs);
        }
        start = abs + 6;
    }
    None
}

fn has_lock_unwrap(lines: &[Line], i: usize) -> bool {
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let code = squash(&lines[i].code);
    const ACQ: &[&str] = &[".lock()", ".read()", ".write()", ".try_lock()"];
    if ACQ.iter().any(|a| code.contains(&format!("{a}.unwrap()"))) {
        return true;
    }
    // Formatted chains: `.unwrap()` leading a line whose previous
    // non-empty line ends with an acquisition call.
    if code.starts_with(".unwrap()") {
        if let Some(prev) = lines[..i]
            .iter()
            .rev()
            .map(|l| squash(&l.code))
            .find(|c| !c.is_empty())
        {
            return ACQ.iter().any(|a| prev.ends_with(a));
        }
    }
    false
}

/// `std::sync` and a lock type on one line — the type by its own name, not
/// as the tail of a wrapper's (`DiagMutex` beside `std::sync::atomic`).
fn has_raw_lock(code: &str) -> bool {
    let names = |ty: &str| {
        code.match_indices(ty).any(|(at, _)| {
            !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    };
    code.contains("std::sync") && (names("Mutex") || names("RwLock"))
}

/// A call of an unbounded-channel constructor: `std`'s `mpsc::channel` (by
/// path or imported) or anything named `unbounded`. `sync_channel(n)` is
/// bounded and a `.channel()` method is not a constructor; neither matches.
fn has_unbounded(code: &str) -> bool {
    ["channel", "unbounded"].iter().any(|ctor| {
        code.match_indices(ctor).any(|(at, _)| {
            let free_path = !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
            // `ctor(…)` or `ctor::<T>(…)` — a call, not a mention.
            let rest = code[at + ctor.len()..].trim_start();
            free_path && (rest.starts_with('(') || rest.starts_with("::<"))
        })
    })
}

/// A sleep, or the same thing spelled as a park (`thread::park` also
/// matches `thread::park_timeout`; `Thread::unpark` is a method, not a
/// path, and never matches).
fn has_sleep(code: &str) -> bool {
    code.contains("thread::sleep") || code.contains("thread::park")
}

fn has_raw_spawn(code: &str) -> bool {
    code.contains("thread::spawn") || code.contains("thread::Builder")
}

// ----------------------------------------------------------------- walking

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file in the workspace rooted at `root` — the
/// per-file rules plus the whole-tree lock-order analysis (TL007/TL008) —
/// and the workspace members' manifests (TL009).
/// Diagnostics are stable-sorted by (path, line, rule).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        diags.extend(check_source(&rel, &source));
    }
    diags.extend(graph::analyze(root)?.diagnostics);
    diags.extend(manifest::check_manifests(root)?);
    diags.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = r##"
fn main() {
    let s = "thread::sleep inside a string";
    // thread::sleep inside a comment
    /* std::sync::Mutex in a block comment */
    let r = r#"unbounded( in a raw string"#;
}
"##;
        assert!(check_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn sleep_flagged_and_waivable() {
        let bad = "fn f() { std::thread::sleep(d); }\n";
        let d = check_source("crates/core/src/f.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "TL005");
        assert_eq!(d[0].line, 1);
        let ok = "fn f() { std::thread::sleep(d); } // LINT: allow-sleep(pacing loop)\n";
        assert!(check_source("crates/core/src/f.rs", ok).is_empty());
        let ok2 = "// LINT: allow-sleep(pacing loop)\nfn f() { std::thread::sleep(d); }\n";
        assert!(check_source("crates/core/src/f.rs", ok2).is_empty());
    }

    #[test]
    fn a_park_is_a_sleep_by_another_name() {
        for call in ["std::thread::park()", "thread::park_timeout(d)"] {
            let bad = format!("fn f() {{ {call}; }}\n");
            let d = check_source("crates/core/src/f.rs", &bad);
            assert_eq!(d.len(), 1, "{call}");
            assert_eq!(d[0].rule, "TL005");
            let ok = format!("// LINT: allow-sleep(the doorbell's park)\n{bad}");
            assert!(check_source("crates/core/src/f.rs", &ok).is_empty());
        }
        // Waking is not blocking.
        let wake = "fn f(t: &std::thread::Thread) { t.unpark(); }\n";
        assert!(check_source("crates/core/src/f.rs", wake).is_empty());
    }

    #[test]
    fn lock_unwrap_across_lines() {
        let bad = "fn f() {\n    let g = m\n        .lock()\n        .unwrap();\n}\n";
        let d = check_source("crates/kv/src/f.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "TL001");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn raw_lock_only_flagged_in_hot_crates() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(check_source("crates/storm/src/x.rs", src).len(), 1);
        assert!(check_source("crates/metrics/src/x.rs", src).is_empty());
        // The wrapper's name beside a `std::sync` path is not a raw lock.
        let seam = "use {std::sync::atomic, std::thread, typhoon_diag::DiagMutex};\n";
        assert!(check_source("crates/net/src/x.rs", seam).is_empty());
        let braced = "use std::sync::{Arc, RwLock};\n";
        assert_eq!(check_source("crates/net/src/x.rs", braced).len(), 1);
    }

    #[test]
    fn waiver_requires_a_nonempty_reason() {
        let empty = "// LINT: allow-sleep()\nstd::thread::sleep(d);\n";
        assert_eq!(
            check_source("crates/storm/src/x.rs", empty)[0].rule,
            "TL005"
        );
        let blank = "// LINT: allow-sleep(  )\nstd::thread::sleep(d);\n";
        assert_eq!(
            check_source("crates/storm/src/x.rs", blank)[0].rule,
            "TL005"
        );
        let ok = "// LINT: allow-sleep(pacing loop)\nstd::thread::sleep(d);\n";
        assert!(check_source("crates/storm/src/x.rs", ok).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    fn t() { std::thread::sleep(d); }
}
";
        assert!(check_source("crates/storm/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment_even_in_tests() {
        let bad = "fn f() { unsafe { x() } }\n";
        let d = check_source("crates/net/tests/t.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "TL003");
        let ok = "// SAFETY: x has no preconditions\nfn f() { unsafe { x() } }\n";
        assert!(check_source("crates/net/tests/t.rs", ok).is_empty());
    }

    #[test]
    fn unbounded_call_flagged_mention_not() {
        for bad in [
            "let (tx, rx) = unbounded();\n",
            "let (tx, rx) = std::sync::mpsc::channel();\n",
            "let (tx, rx) = mpsc::channel::<u8>();\n",
            "let (tx, rx) = channel();\n",
        ] {
            assert_eq!(check_source("crates/mq/src/x.rs", bad)[0].rule, "TL004");
        }
        for fine in [
            "/// unbounded channels are discouraged\nfn f(unbounded_ok: u8) {}\n",
            "use std::sync::mpsc::{channel, Receiver};\n",
            "let (tx, rx) = mpsc::sync_channel(8);\n",
            "let ch = link.channel();\n",
        ] {
            assert_eq!(check_source("crates/mq/src/x.rs", fine), vec![], "{fine}");
        }
    }

    #[test]
    fn raw_spawn_flagged_in_runtime_crates_only() {
        let spawn = "let h = std::thread::spawn(move || work());\n";
        let builder = "let h = std::thread::Builder::new().name(n).spawn(f);\n";
        assert_eq!(check_source("crates/core/src/x.rs", spawn)[0].rule, "TL006");
        assert_eq!(
            check_source("crates/switch/src/x.rs", builder)[0].rule,
            "TL006"
        );
        // Outside the supervised crates, raw spawns are fine.
        assert!(check_source("crates/bench/src/x.rs", spawn).is_empty());
        // Test trees are exempt.
        assert!(check_source("crates/core/tests/t.rs", spawn).is_empty());
        // The supervised wrapper itself is not a raw spawn.
        let ok = "let h = typhoon_diag::spawn_supervised(name, cb, body);\n";
        assert!(check_source("crates/core/src/x.rs", ok).is_empty());
        // Waivers work like every other rule's.
        let waived =
            "// LINT: allow-raw-spawn(scoped thread joined two lines down)\nstd::thread::spawn(f);\n";
        assert!(check_source("crates/core/src/x.rs", waived).is_empty());
    }

    #[test]
    fn json_escapes() {
        let d = Diagnostic {
            rule: "TL001",
            path: "a\"b.rs".into(),
            line: 3,
            message: "x\ny".into(),
        };
        assert_eq!(
            d.to_json(),
            r#"{"rule":"TL001","path":"a\"b.rs","line":3,"message":"x\ny","rationale":"Poisoned locks propagate panics across threads; recover the guard instead."}"#
        );
    }
}
