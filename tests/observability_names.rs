//! `docs/OBSERVABILITY.md` against the registries. For the families the
//! switch, its flow cache, the tunnels and the fault injectors count —
//! `switch.*` (with `switch.cache.*`), `net.tunnel.*` and `chaos.*` —
//! every name the naming table documents is registered in a fresh
//! cluster's [`TyphoonCluster::snapshot`], and every name registered there
//! is documented. All of them are registered at construction, so the
//! snapshot is taken before any traffic. The same goes for the round
//! runner's `loop.rounds`, `loop.parks` and `loop.rung`: every source that
//! owns a long-lived loop registers all three.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use typhoon::net::{FaultPlan, KillSpec};
use typhoon::prelude::*;
use typhoon_model::ComponentRegistry;

const FAMILIES: [&str; 3] = ["switch.", "net.tunnel.", "chaos."];

fn in_families(name: &str) -> bool {
    FAMILIES.iter().any(|f| name.starts_with(f))
}

/// The `code` spans of `text`.
fn code_spans(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// The metric names of the doc's naming table in `FAMILIES`. A
/// placeholder (`net.tunnel.teardown.<cause>`) stands for every name the
/// rest of the doc spells out with a word in its place.
fn documented(doc: &str) -> BTreeSet<String> {
    let table = doc
        .split("### Naming scheme")
        .nth(1)
        .expect("the naming table")
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    let mut names = BTreeSet::new();
    for name in table.flat_map(code_spans) {
        // `switch.cache.` in the prefix column is a family, not a name.
        if !in_families(name) || name.ends_with('.') {
            continue;
        }
        let Some((head, rest)) = name.split_once('<') else {
            names.insert(name.to_owned());
            continue;
        };
        let tail = rest.split_once('>').expect("closed placeholder").1;
        let expanded: Vec<&str> = code_spans(doc)
            .filter(|n| {
                n.strip_prefix(head)
                    .and_then(|n| n.strip_suffix(tail))
                    .is_some_and(|word| {
                        !word.is_empty() && word.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                    })
            })
            .collect();
        assert!(!expanded.is_empty(), "{name}: the doc spells out none");
        names.extend(expanded.into_iter().map(str::to_owned));
    }
    names
}

#[test]
fn the_documented_names_are_the_registered_ones() {
    let t0 = Instant::now();
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(doc_path).expect("read the doc");
    let documented = documented(&doc);

    // A kill armed an hour out: the chaos killer's loop exists and waits.
    let plan = FaultPlan::clean(1).with_kill(KillSpec::worker(Duration::from_secs(3600)));
    let config = TyphoonConfig::new(2).with_tcp_tunnels().with_chaos(plan);
    let cluster = TyphoonCluster::new(config, ComponentRegistry::new()).expect("cluster");
    let snapshot = cluster.snapshot();
    cluster.shutdown();
    for source in ["switch/0", "switch/1", "tunnel/0-1", "tunnel/1-0"] {
        assert!(snapshot.contains_key(source), "no {source} source");
    }
    for source in ["chaos/0-1", "chaos/1-0", "chaos/cluster"] {
        assert!(snapshot.contains_key(source), "no {source} source");
    }
    // Each loop's counters, in the source that owns it: the two datapaths,
    // the one controller replica's pump, the HA monitor, the manager and
    // the chaos killer.
    let loops = [
        "switch/0",
        "switch/1",
        "controller/0",
        "control_plane",
        "manager",
        "chaos/cluster",
    ];
    for source in loops {
        let counters = &snapshot[source].counters;
        for name in ["loop.rounds", "loop.parks", "loop.rung"] {
            assert!(counters.contains_key(name), "{source} has no {name}");
        }
    }
    let registered: BTreeSet<String> = snapshot
        .values()
        .flat_map(|s| {
            s.counters
                .keys()
                .chain(s.gauges.keys())
                .chain(s.histograms.keys())
        })
        .filter(|name| in_families(name))
        .cloned()
        .collect();

    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered, not in the doc: {undocumented:?}"
    );
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "in the doc, not registered: {unregistered:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "took {:?}",
        t0.elapsed()
    );
}
