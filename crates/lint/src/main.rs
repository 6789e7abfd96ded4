//! CLI for the workspace invariant linter.
//!
//! ```text
//! typhoon-lint check [--json] [--root <dir>]
//! typhoon-lint graph [--root <dir>] [--out <file>]
//! ```
//!
//! `check` runs every rule (TL001–TL009) and exits 0 clean, 1 on
//! violations, 2 on usage or I/O error. `graph` renders the lock
//! acquisition-order graph as Graphviz DOT (stdout, or `--out` — CI
//! diffs it against the committed `docs/lock-order.dot`).
//! `cargo lint` is aliased to `cargo run -p typhoon-lint -- check` in
//! `.cargo/config.toml`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: typhoon-lint check [--json] [--root <dir>]\n       \
         typhoon-lint graph [--root <dir>] [--out <file>]"
    );
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // `cargo run`/`cargo lint` executes from the invocation directory;
    // default to the workspace root that owns this binary so the whole
    // tree is scanned regardless of the caller's cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    match cmd.as_str() {
        "check" => {
            let mut json = false;
            let mut root: Option<PathBuf> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--root" => match args.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => return usage(),
                    },
                    other => {
                        eprintln!("unknown argument: {other}");
                        return usage();
                    }
                }
            }
            let root = root.unwrap_or_else(default_root);
            let diags = match typhoon_lint::check_workspace(&root) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("typhoon-lint: failed to scan {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            if json {
                println!("{}", typhoon_lint::to_json(&diags));
            } else {
                for d in &diags {
                    println!("{d}");
                }
                if diags.is_empty() {
                    println!("typhoon-lint: clean");
                } else {
                    println!("typhoon-lint: {} violation(s)", diags.len());
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "graph" => {
            let mut root: Option<PathBuf> = None;
            let mut out: Option<PathBuf> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => match args.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => return usage(),
                    },
                    "--out" => match args.next() {
                        Some(file) => out = Some(PathBuf::from(file)),
                        None => return usage(),
                    },
                    other => {
                        eprintln!("unknown argument: {other}");
                        return usage();
                    }
                }
            }
            let root = root.unwrap_or_else(default_root);
            let graph = match typhoon_lint::graph::analyze(&root) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("typhoon-lint: failed to scan {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
            let dot = graph.to_dot();
            match out {
                Some(file) => {
                    if let Err(e) = std::fs::write(&file, dot) {
                        eprintln!("typhoon-lint: failed to write {}: {e}", file.display());
                        return ExitCode::from(2);
                    }
                    eprintln!(
                        "typhoon-lint: wrote {} ({} lock(s), {} edge(s))",
                        file.display(),
                        graph.sites.len(),
                        graph.edges.len()
                    );
                }
                None => print!("{dot}"),
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage()
        }
    }
}
