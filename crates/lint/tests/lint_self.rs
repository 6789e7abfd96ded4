//! Self-tests: the linter must report the exact rules and line numbers
//! for the violation fixtures, and nothing for the clean fixture — both
//! through the library API and through the installed binary (`--json`).

use std::path::PathBuf;
use std::process::Command;

fn fixtures(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

#[test]
fn lib_reports_exact_rules_and_lines_for_bad_fixture() {
    let diags = typhoon_lint::check_workspace(&fixtures("bad")).expect("scan");
    let got: Vec<(&str, &str, usize)> = diags
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("TL006", "crates/core/src/raw_spawn.rs", 4),
            ("TL006", "crates/core/src/raw_spawn.rs", 8),
            ("TL009", "crates/kv/Cargo.toml", 7),
            ("TL009", "crates/kv/Cargo.toml", 10),
            ("TL009", "crates/kv/Cargo.toml", 12),
            ("TL007", "crates/storm/src/lock_order.rs", 15),
            ("TL007", "crates/storm/src/lock_order.rs", 21),
            ("TL002", "crates/storm/src/raw_lock.rs", 3),
            ("TL002", "crates/storm/src/raw_lock.rs", 5),
            ("TL008", "crates/storm/src/send_under_lock.rs", 11),
            ("TL007", "cycle.rs", 18),
            ("TL005", "parked.rs", 5),
            ("TL005", "parked.rs", 9),
            ("TL001", "violations.rs", 5),
            ("TL005", "violations.rs", 9),
            ("TL004", "violations.rs", 13),
            ("TL003", "violations.rs", 16),
            ("TL003", "violations.rs", 20),
            ("TL004", "violations.rs", 27),
        ],
    );
}

#[test]
fn lib_reports_nothing_for_clean_fixture() {
    let diags = typhoon_lint::check_workspace(&fixtures("clean")).expect("scan");
    assert_eq!(diags, vec![], "clean fixture must produce no diagnostics");
}

#[test]
fn binary_json_output_and_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_typhoon-lint");

    let bad = Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(fixtures("bad"))
        .output()
        .expect("run typhoon-lint");
    assert_eq!(bad.status.code(), Some(1), "violations must exit 1");
    let json = String::from_utf8(bad.stdout).expect("utf8");
    for expected in [
        r#""rule":"TL001","path":"violations.rs","line":5"#,
        r#""rule":"TL005","path":"violations.rs","line":9"#,
        r#""rule":"TL004","path":"violations.rs","line":13"#,
        r#""rule":"TL003","path":"violations.rs","line":16"#,
        r#""rule":"TL003","path":"violations.rs","line":20"#,
        r#""rule":"TL004","path":"violations.rs","line":27"#,
        r#""rule":"TL002","path":"crates/storm/src/raw_lock.rs","line":3"#,
        r#""rule":"TL002","path":"crates/storm/src/raw_lock.rs","line":5"#,
        r#""rule":"TL006","path":"crates/core/src/raw_spawn.rs","line":4"#,
        r#""rule":"TL006","path":"crates/core/src/raw_spawn.rs","line":8"#,
        r#""rule":"TL007","path":"crates/storm/src/lock_order.rs","line":15"#,
        r#""rule":"TL007","path":"crates/storm/src/lock_order.rs","line":21"#,
        r#""rule":"TL008","path":"crates/storm/src/send_under_lock.rs","line":11"#,
        r#""rule":"TL007","path":"cycle.rs","line":18"#,
        r#""rule":"TL005","path":"parked.rs","line":5"#,
        r#""rule":"TL005","path":"parked.rs","line":9"#,
        r#""rule":"TL009","path":"crates/kv/Cargo.toml","line":7"#,
        r#""rule":"TL009","path":"crates/kv/Cargo.toml","line":10"#,
        r#""rule":"TL009","path":"crates/kv/Cargo.toml","line":12"#,
    ] {
        assert!(json.contains(expected), "missing {expected} in:\n{json}");
    }
    assert_eq!(json.matches(r#""rule":"#).count(), 19, "no extras:\n{json}");
    // Every diagnostic carries a one-line rationale for its rule.
    assert_eq!(
        json.matches(r#""rationale":""#).count(),
        19,
        "every finding needs a rationale:\n{json}"
    );
    assert!(
        json.contains("A total lock order (strictly increasing ranks) makes deadlock impossible."),
        "TL007 rationale missing:\n{json}"
    );

    let clean = Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(fixtures("clean"))
        .output()
        .expect("run typhoon-lint");
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");
    assert_eq!(String::from_utf8(clean.stdout).expect("utf8").trim(), "[]");
}

#[test]
fn binary_graph_emits_deterministic_dot() {
    let bin = env!("CARGO_BIN_EXE_typhoon-lint");
    let run = || {
        let out = Command::new(bin)
            .args(["graph", "--root"])
            .arg(fixtures("clean"))
            .output()
            .expect("run typhoon-lint graph");
        assert_eq!(out.status.code(), Some(0), "graph must exit 0");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "DOT output must be deterministic");
    assert!(
        first.contains(r#""fixture.outer""#),
        "ranked node missing:\n{first}"
    );
    assert!(
        first.contains(r#""fixture.outer" -> "fixture.inner""#),
        "nesting edge missing:\n{first}"
    );
}

#[test]
fn binary_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_typhoon-lint");
    for args in [&[][..], &["frobnicate"][..], &["check", "--root"][..]] {
        let out = Command::new(bin).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    }
}

#[test]
fn real_workspace_is_clean() {
    // The tree this linter ships in must satisfy its own rules.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let diags = typhoon_lint::check_workspace(&root).expect("scan");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `(file, line)` of every line of library code (`crates/*/src`) that
/// contains `tag`: a waiver, or a shape that must not come back.
fn library_lines(tag: &str) -> Vec<(String, String)> {
    fn walk(dir: &std::path::Path, tag: &str, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                // `perf` builds into a `target` of its own under `src`.
                if !path.ends_with("target") {
                    walk(&path, tag, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).expect("read source");
                let file = path.display().to_string();
                let hits = source.lines().filter(|l| l.contains(tag));
                out.extend(hits.map(|l| (file.clone(), l.trim().to_owned())));
            }
        }
    }
    let mut library = Vec::new();
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    walk(&crates, tag, &mut library);
    library.retain(|(file, _)| file.contains("/src/"));
    library
}

/// The unbounded-queue census, pinned: a queue is the ring (bounded,
/// overflow counted) or a `std::sync::mpsc` channel, and TL004 accepts any
/// reasoned waiver — so the unbounded ones are counted here: tunnel ×3,
/// Storm inbox ×2. (Coordinator watches hand each event to a callback, so
/// they queue nothing.)
#[test]
fn the_unbounded_queues_are_the_five_we_know() {
    let mut waived = library_lines("LINT: allow-unbounded(");
    waived.retain(|(file, _)| !file.contains("/lint/src/")); // the rule's own text
    let in_file = |suffix: &str| waived.iter().filter(|(f, _)| f.ends_with(suffix)).count();
    assert_eq!(in_file("net/src/tunnel.rs"), 3, "{waived:?}");
    assert_eq!(in_file("storm/src/transport.rs"), 2, "{waived:?}");
    assert_eq!(waived.len(), 5, "{waived:?}");
}

/// TL009 only says a declared dependency must be used; this says the
/// channel shim may not be declared again, and what `vendor/` holds.
#[test]
fn no_manifest_names_crossbeam_and_vendor_is_three_shims() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut vendored = Vec::new();
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir))
            .expect("read_dir")
            .flatten()
        {
            manifests.push(entry.path().join("Cargo.toml"));
            if dir == "vendor" {
                vendored.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        assert!(!text.contains("crossbeam"), "{}", manifest.display());
    }
    vendored.sort();
    assert_eq!(vendored, ["bytes", "proptest", "rand"]);
}

/// The sleep-waiver census, pinned: TL005 accepts any reasoned waiver, so a
/// blind sleep could return to a worker loop under one. Every Typhoon
/// worker role waits on its doorbell; the one idle backoff left in library
/// code is the Storm baseline's spout executor. The HA control plane waits
/// on the leader watch and rung bells, with no retry helper to hide a sleep.
#[test]
fn no_idle_sleep_returns_under_a_waiver() {
    let library = library_lines("allow-sleep");
    let in_worker: Vec<_> = library
        .iter()
        .filter(|(file, _)| file.contains("core/src/worker/"))
        .collect();
    assert!(in_worker.is_empty(), "a worker loop sleeps: {in_worker:?}");
    // Readiness and barriers are rung (PR 21): the launcher and the fence
    // park on a bell, so neither file has a sleep left to waive.
    let rung: Vec<_> = library
        .iter()
        .filter(|(file, _)| {
            file.ends_with("core/src/agent.rs") || file.ends_with("controller/src/controller.rs")
        })
        .collect();
    assert!(rung.is_empty(), "a deploy or fence wait sleeps: {rung:?}");
    // What `typhoon-core` still sleeps on: `reconfigure`'s three quiesce /
    // drain waits — ROADMAP item 2's open half (acknowledged SIGNAL /
    // Deactivate, the end-of-route marker), which should take this to 0.
    // The chaos killer waits on a coordinator watch.
    let in_core: Vec<_> = library
        .iter()
        .filter(|(file, _)| file.contains("/core/src/"))
        .collect();
    assert_eq!(in_core.len(), 3, "{in_core:?}");
    let in_reconfigure = in_core
        .iter()
        .filter(|(file, line)| file.ends_with("manager.rs") && line.contains("_WAIT)"))
        .count();
    assert_eq!(in_reconfigure, 3, "{in_core:?}");
    let backoffs: Vec<_> = library
        .iter()
        .filter(|(_, line)| line.contains("allow-sleep(idle backoff"))
        .collect();
    assert_eq!(backoffs.len(), 1, "{backoffs:?}");
    assert!(
        backoffs[0].0.ends_with("storm/src/executor.rs"),
        "{backoffs:?}"
    );
    // The controller and the coordinator sleep nowhere (the REST listener
    // blocks in `accept`); `typhoon-net`'s one park is the doorbell's.
    for dir in ["/controller/src/", "/coordinator/src/"] {
        let waived: Vec<_> = library.iter().filter(|(f, _)| f.contains(dir)).collect();
        assert!(waived.is_empty(), "{waived:?}");
    }
    let in_net: Vec<_> = library
        .iter()
        .filter(|(file, _)| file.contains("/net/src/"))
        .collect();
    assert_eq!(in_net.len(), 1, "{in_net:?}");
    assert!(in_net[0].0.ends_with("net/src/doorbell.rs"), "{in_net:?}");
    for retry in ["BackoffPolicy", "typhoon_net::retry"] {
        let named = library_lines(retry);
        assert!(named.is_empty(), "{named:?}");
    }
}

/// Every long-lived thread of the runtime is spawned supervised (TL006),
/// so its panic is logged and counted: the workers, the manager and the
/// datapaths, and since the doorbell's park lost its cap, the controller
/// pump, the REST listener and the TCP tunnel reader too — a pump that died
/// silently would leave every fencer parked until its deadline.
#[test]
fn the_runtime_crates_spawn_supervised() {
    for dir in [
        "crates/core",
        "crates/switch",
        "crates/controller",
        "crates/net",
    ] {
        assert!(typhoon_lint::SUPERVISED_CRATES.contains(&dir), "{dir}");
    }
}

/// One stats surface: a component counts into a `Registry`, and
/// `TyphoonCluster::snapshot()` reads them all. A hand-written
/// `named() -> Vec<(&'static str, u64)>` list beside the registry — what
/// the tunnels and the fault injectors had — cannot come back.
#[test]
fn no_hand_written_name_list_beside_the_registry() {
    let lists: Vec<_> = library_lines("fn named(")
        .into_iter()
        .filter(|(_, line)| line.contains("(&'static str, u64)"))
        .collect();
    assert!(lists.is_empty(), "{lists:?}");
}

/// The code lines of `crates/<path>` outside its `mod tests` and comments.
fn shipped_code(path: &str) -> Vec<String> {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(crates.join(path)).expect("read");
    let shipped = text
        .split("\n#[cfg(test)]\nmod tests")
        .next()
        .expect("non-test part");
    shipped
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(str::to_owned)
        .collect()
}

/// `ring.rs` and `doorbell.rs` are model-checked as shipped
/// (`crates/net/tests/model.rs`) only as long as every primitive their
/// protocols run on comes from `crate::sync`: a lock, atomic flag, fence,
/// park or unpark taken from `std` or `typhoon-diag` directly is one the
/// model scheduler cannot see, and the next edit would leave the model
/// without a test noticing. And the checker has no build-time switch of its
/// own: the one option is `typhoon-net/model`.
#[test]
fn the_checked_files_take_their_primitives_from_the_sync_seam() {
    // `thread` covers `park_timeout` / `unpark`: both are reached through it.
    const PRIMITIVES: [&str; 7] = [
        "AtomicBool",
        "fence",
        "thread",
        "Thread",
        "Mutex",
        "RwLock",
        "Condvar",
    ];
    for file in ["ring.rs", "doorbell.rs", "round.rs"] {
        let code = shipped_code(&format!("net/src/{file}"));
        let mut from_seam = 0;
        for line in &code {
            if line.starts_with("use ") && PRIMITIVES.iter().any(|p| line.contains(p)) {
                assert!(line.starts_with("use crate::sync::"), "{file}: `{line}`");
                from_seam += 1;
            }
            // No path around the imports either.
            let qualified = PRIMITIVES
                .iter()
                .any(|p| line.contains(&format!("::{p}::")))
                || ["AtomicBool", "fence", "Mutex", "RwLock", "Condvar"]
                    .iter()
                    .any(|p| line.contains(&format!("::{p}")));
            assert!(
                !qualified || line.starts_with("use crate::sync::"),
                "{file}: `{line}`"
            );
        }
        assert!(from_seam > 0, "{file} imports nothing from `crate::sync`");
    }
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let manifest = std::fs::read_to_string(crates.join("check/Cargo.toml")).expect("read");
    assert!(
        !manifest.contains("[features]"),
        "typhoon-check is always the checker: no feature of its own"
    );
}

/// A worker's emission is encoded straight into its destination's frame
/// (`route_each` → `enqueue_with`): the worker loop and the I/O layer call
/// neither the blob-returning `route`, nor a per-tuple `Vec` encoder, nor
/// `BatchEncoder`, and key no map by destination address — each of those is
/// an allocation or a hash per tuple coming back.
#[test]
fn the_worker_emit_path_encodes_into_the_frame() {
    for file in ["mod.rs", "io.rs"] {
        for line in shipped_code(&format!("core/src/worker/{file}")) {
            for banned in [
                ".route(",
                "encode_tuple_vec",
                "BatchEncoder",
                "HashMap<MacAddr",
            ] {
                assert!(!line.contains(banned), "{file}: `{line}`");
            }
        }
    }
}

/// The worker holds one tuple at a time: ingress records are decoded and
/// executed one by one as `Ingress::walk` hands them over in place, and a
/// spout's emissions are routed as `next_batch` makes them. So non-test
/// `worker/mod.rs` collects neither a round's tuples nor a batch's
/// emissions, and does not call the collecting `poll_ingress` wrapper.
#[test]
fn a_worker_holds_one_tuple_at_a_time() {
    for line in shipped_code("core/src/worker/mod.rs") {
        for banned in ["drain_ingress", "Vec<Tuple>", "poll_ingress(", "VecEmitter"] {
            assert!(!line.contains(banned), "mod.rs: `{line}`");
        }
    }
}

/// A worker round reads the clock once, at its head, and hands that `now`
/// to every step; every role timer is a deadline held in state. The head
/// read is the round runner's: `net/src/round.rs` names `Instant::now()`
/// exactly twice, for the set-up instant its `build` gets and once per
/// round, and measures nothing. Non-test `worker/` code names it only for
/// the empty poll's stamp (a poll clocked from the round's head could come
/// early) and the two ends of the `recovery.restore_ms` stopwatch; the I/O
/// layer and the ack buffer take `now` as an argument; and nothing measures
/// `.elapsed()`.
#[test]
fn a_worker_round_reads_the_clock_once() {
    let mut reads = Vec::new();
    for file in [
        "core/src/worker/mod.rs",
        "core/src/worker/io.rs",
        "core/src/worker/acks.rs",
        "core/src/worker/framework.rs",
        "net/src/round.rs",
    ] {
        for line in shipped_code(file) {
            assert!(!line.contains(".elapsed()"), "{file}: `{line}`");
            if line.contains("Instant::now()") {
                reads.push(format!("{file}: {}", line.trim()));
            }
        }
    }
    let expected = [
        "core/src/worker/mod.rs: self.next_poll = Instant::now() + SPOUT_IDLE_POLL;",
        "core/src/worker/mod.rs: let restore_started = Instant::now();",
        "core/src/worker/mod.rs: let restore_ms = (Instant::now() - restore_started).as_millis() as u64;",
        "net/src/round.rs: let mut round = build(Instant::now());", // the set-up read
        "net/src/round.rs: let now = Instant::now();",               // the round head
    ];
    assert_eq!(reads, expected);
}

/// Outside the worker and the round runner, the runtime reads the clock at
/// exactly these sites: stopwatches of set-up phases and failovers, the
/// deadlines of calls that block their caller (a fence, `wait_ready`,
/// `wait_leader`), the switch's hand-driven `process_round` and its expiry
/// and headless clocks, the fault injector's held frames, and the
/// doorbell's park. A loop's timer is a deadline against the runner's
/// `now`, so a new site here is a loop reading a clock of its own.
#[test]
fn the_clock_is_read_at_these_sites_outside_the_runner() {
    let mut sites = Vec::new();
    for dir in ["controller", "coordinator", "core", "net", "switch"] {
        let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../{dir}/src"));
        let mut files = Vec::new();
        let mut stack = vec![src];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("read_dir").flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        files.sort();
        for path in files {
            let file = path.to_string_lossy().into_owned();
            let file = file
                .split("/../")
                .nth(1)
                .expect("crate-relative")
                .to_owned();
            if file.contains("/worker/") || file.ends_with("net/src/round.rs") {
                continue;
            }
            for line in shipped_code(&file) {
                if line.contains("Instant::now()") || line.contains(".elapsed()") {
                    sites.push(format!("{file}: {}", line.trim()));
                }
            }
        }
    }
    let expected = [
        "controller/src/controller.rs: let deadline = Instant::now() + timeout;",
        "controller/src/controller.rs: while sent && unanswered() && Instant::now() <= deadline {",
        "controller/src/ha.rs: let t0 = Instant::now();",
        "controller/src/ha.rs: let failover_ms = t0.elapsed().as_millis() as u64;",
        "controller/src/ha.rs: let deadline = Instant::now() + timeout;",
        "controller/src/ha.rs: while leader.is_none() && Instant::now() < deadline {",
        "controller/src/ha.rs: slot.session_deadline = Some(Instant::now() + self.inner.session_timeout);",
        "core/src/agent.rs: let deadline = Instant::now() + timeout;",
        "core/src/agent.rs: _ if Instant::now() > deadline => return Err(late),",
        "core/src/manager.rs: let mut mark = Instant::now();",
        "core/src/manager.rs: let us = mark.elapsed().as_micros() as u64;",
        "core/src/manager.rs: mark = Instant::now();",
        "core/src/manager.rs: let t0 = Instant::now();",
        "core/src/manager.rs: let reschedule = t0.elapsed();",
        "core/src/manager.rs: let t1 = Instant::now();",
        "core/src/manager.rs: let restart = t1.elapsed();",
        "core/src/manager.rs: let t2 = Instant::now();",
        "core/src/manager.rs: let replay = t2.elapsed();",
        "core/src/manager.rs: total: t0.elapsed(),",
        "net/src/doorbell.rs: let timeout = deadline.map(|t| t.saturating_duration_since(Instant::now()));",
        "net/src/fault.rs: .map_or(!spec.stall, |due| due <= Instant::now());",
        "net/src/fault.rs: hold(Some(Instant::now() + d), frame);",
        "net/src/fault.rs: hold(Some(Instant::now()), frame.clone());",
        "net/src/fault.rs: due: Some(Instant::now() + d),",
        "switch/src/cache.rs: epoch: Instant::now(),",
        "switch/src/datapath.rs: Instant::now(),",
        "switch/src/datapath.rs: self.round_at(Instant::now())",
        "switch/src/link.rs: link.headless_since = Some(Instant::now());",
        "switch/src/link.rs: .map_or(Duration::ZERO, |since| since.elapsed());",
        "switch/src/link.rs: Instant::now()",
        "switch/src/link.rs: let now = Instant::now();",
        "switch/src/link.rs: let now = Instant::now();",
    ];
    assert_eq!(sites, expected);
}

/// Sleeps in test code, counted: a sleep in a test is a wall-clock window
/// or a poll, and the suites are moving to counts and events. The ceilings
/// only fall: lower them when a sleep goes, never raise them.
#[test]
fn test_sleeps_only_fall() {
    let count = |dir: &std::path::Path| -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let sources = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"));
        sources
            .map(|p| std::fs::read_to_string(p).expect("read test"))
            .map(|text| text.matches(concat!("thread::", "sleep")).count())
            .sum()
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    const ROOT_CEILING: usize = 27;
    const CRATES_CEILING: usize = 41;
    let in_root = count(&root.join("tests"));
    let in_crates: usize = std::fs::read_dir(root.join("crates"))
        .expect("read_dir")
        .flatten()
        .map(|krate| count(&krate.path().join("tests")))
        .sum();
    assert!(in_root <= ROOT_CEILING, "{in_root} in tests/*.rs");
    assert!(
        in_crates <= CRATES_CEILING,
        "{in_crates} in crates/*/tests/*.rs"
    );
}

/// Frames are forwarded on the thread that holds them, with no datapath
/// lock held: no non-test switch code sends under a lock by waiver, and
/// the port registry keeps no worker → switch ring for a datapath thread
/// to drain — a worker's egress is a call.
#[test]
fn the_switch_forwards_on_the_thread_that_holds_the_frame() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../switch/src");
    let mut files = 0;
    for entry in std::fs::read_dir(&src).expect("read_dir").flatten() {
        let text = std::fs::read_to_string(entry.path()).expect("read");
        let shipped = text
            .split("\n#[cfg(test)]\nmod tests")
            .next()
            .expect("non-test part");
        let file = entry.file_name().to_string_lossy().into_owned();
        assert!(!shipped.contains("allow-send-under-lock"), "{file}");
        if file == "port.rs" {
            assert!(!shipped.contains("from_worker"), "{file}");
        }
        files += 1;
    }
    assert!(files > 5, "scanned {}", src.display());
}
