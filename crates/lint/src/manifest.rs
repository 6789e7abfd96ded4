//! Manifest hygiene (rule TL009, `unused-manifest-dep`).
//!
//! A key under `[dependencies]` or `[dev-dependencies]` whose crate name
//! (hyphens → underscores) no `.rs` file of that package names — as a path
//! root (`name::`), a macro (`name!`) or a bare import (`use name as x;`) —
//! is an error: a stale entry is a build edge nobody needs and keeps a
//! vendored shim alive after its last user is gone.
//!
//! Textual like the rest of the linter: it reads section headers and
//! `key = …` / `key.workspace = true` lines, the only manifest style the
//! workspace uses, for the root package and `crates/*` (the standalone
//! `perf` package keeps its own manifest; its sources count as
//! `typhoon-bench`'s, which auto-discovers the same `main.rs`). Waiver:
//! `# LINT: allow-unused-dep(reason)` on the entry's line or the one above.

use crate::{collect_rs, strip, waived, Diagnostic, Line};
use std::path::{Path, PathBuf};

/// Top-level directories holding the root package's own sources.
const ROOT_PACKAGE_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Checks the root manifest and every `crates/*/Cargo.toml` under `root`.
pub fn check_manifests(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let root_dirs = ROOT_PACKAGE_DIRS.iter().map(|d| root.join(d)).collect();
    let mut packages: Vec<(String, Vec<PathBuf>)> = vec![("Cargo.toml".into(), root_dirs)];
    if let Ok(members) = std::fs::read_dir(root.join("crates")) {
        for dir in members.flatten().map(|e| e.path()) {
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            packages.push((format!("crates/{name}/Cargo.toml"), vec![dir.clone()]));
        }
    }
    let mut diags = Vec::new();
    for (rel, dirs) in packages {
        // A directory without a manifest is not a package.
        let Ok(manifest) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let mut files = Vec::new();
        for dir in dirs.iter().filter(|d| d.is_dir()) {
            collect_rs(dir, &mut files)?;
        }
        let mut code = String::new();
        for file in files {
            for line in strip(&std::fs::read_to_string(file)?) {
                code.push_str(&line.code);
                code.push('\n');
            }
        }
        diags.extend(unused_deps(&rel, &manifest, &code));
    }
    Ok(diags)
}

/// The TL009 findings for one manifest, given the package's concatenated
/// (comment- and string-stripped) source.
fn unused_deps(rel: &str, manifest: &str, code: &str) -> Vec<Diagnostic> {
    // `#` starts a TOML comment; no dependency line here has one in a string.
    let lines: Vec<Line> = manifest
        .lines()
        .map(|raw| {
            let (code, comment) = raw.split_once('#').unwrap_or((raw, ""));
            Line {
                code: code.to_owned(),
                comment: comment.to_owned(),
            }
        })
        .collect();
    let mut diags = Vec::new();
    let mut in_deps = false;
    for (i, line) in lines.iter().enumerate() {
        let entry = line.code.trim();
        if entry.starts_with('[') {
            in_deps = entry == "[dependencies]" || entry == "[dev-dependencies]";
            continue;
        }
        let key = entry
            .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if !in_deps
            || key.is_empty()
            || uses_crate(code, &key.replace('-', "_"))
            || waived(&lines, i, "allow-unused-dep")
        {
            continue;
        }
        diags.push(Diagnostic {
            rule: "TL009",
            path: rel.to_owned(),
            line: i + 1,
            message: format!(
                "`{key}` is listed as a dependency but no source file of this \
                 package names it; delete the entry (waive: \
                 `# LINT: allow-unused-dep(reason)`)"
            ),
        });
    }
    diags
}

/// True when `code` names `krate` as a whole identifier: a path root
/// (`krate::`), a macro (`krate!`), or a bare import (`use krate as x;`,
/// `extern crate krate;`).
fn uses_crate(code: &str, krate: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(krate).any(|(at, _)| {
        let (before, rest) = (&code[..at], &code[at + krate.len()..]);
        if before.ends_with(ident) || rest.starts_with(ident) {
            return false;
        }
        let imported = before.ends_with(char::is_whitespace)
            && matches!(
                before.trim_end().rsplit(|c| !ident(c)).next(),
                Some("use" | "crate")
            );
        rest.starts_with("::") || rest.starts_with('!') || imported
    })
}
