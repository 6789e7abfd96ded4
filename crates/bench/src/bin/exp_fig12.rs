//! Experiment: Fig. 12 + Table 5 — live debugging overhead.
//!
//! A source→sink topology runs for 30 s; live debugging is enabled from
//! t=10 s to t=20 s, mirroring the source's tuples to a debug worker.
//!
//! * **Storm**: mirroring happens at the application level — one extra
//!   serialization and send per tuple — so throughput drops significantly
//!   while debugging is active.
//! * **Typhoon**: the live-debugger app installs a switch-level mirror
//!   rule; the copy is a refcounted `Bytes` clone, so throughput is
//!   unaffected.
//!
//! `exp_fig12 table5` prints the qualitative comparison of Table 5.

use std::time::Duration;
use typhoon_bench::harness::{print_timeline, timeline_points, window_mean, BenchOpts};
use typhoon_bench::report::{Direction, Report};
use typhoon_bench::workloads::register_standard;
use typhoon_controller::apps::LiveDebugger;
use typhoon_core::{TyphoonCluster, TyphoonConfig};
use typhoon_metrics::RateMeter;
use typhoon_model::{ComponentRegistry, Fields, Grouping, LogicalTopology};
use typhoon_openflow::PortNo;
use typhoon_storm::{StormCluster, StormConfig};

const PAYLOAD: usize = 100;

/// Timeline parameters, compressed by `--short`: the before / during /
/// after phases shrink from 10 s each to 3 s each.
struct Cfg {
    total_secs: usize,
    debug_on: u64,
    debug_off: u64,
}

impl Cfg {
    fn new(opts: &BenchOpts) -> Self {
        Cfg {
            total_secs: opts.pick(30, 9),
            debug_on: opts.pick(10, 3),
            debug_off: opts.pick(20, 6),
        }
    }
}

/// Source → sink, plus a pre-provisioned debug worker (required by Storm;
/// Typhoon could add it dynamically but shares the topology for fairness).
fn debug_topology() -> LogicalTopology {
    LogicalTopology::builder("debuggable")
        .spout("source", "seq-spout", 1, Fields::new(["seq", "payload"]))
        .bolt("sink", "seq-sink", 1, Fields::new(["seq"]))
        .bolt("debug", "null-sink", 1, Fields::new(["seq"]))
        .edge("source", "sink", Grouping::Global)
        .build()
        .expect("valid")
}

/// Serializations per delivered tuple in the (before, during) phases —
/// the framework-attributable cost, independent of CPU sharing.
fn run_storm(cfg: &Cfg) -> (RateMeter, f64, f64) {
    let mut reg = ComponentRegistry::new();
    let _ = register_standard(&mut reg, PAYLOAD, 64);
    let cluster = StormCluster::new(StormConfig::local(1), reg);
    let handle = cluster.submit(debug_topology()).expect("submit");
    let src = handle.tasks_of("source")[0];
    let dbg = handle.tasks_of("debug")[0];
    let sink_meter = handle.meter(handle.tasks_of("sink")[0]).expect("meter");
    std::thread::sleep(Duration::from_secs(cfg.debug_on));
    let (ser0, _) = cluster.ser_stats().counts();
    let n0 = sink_meter.total();
    handle.enable_debug(src, dbg); // app-level mirroring starts
    std::thread::sleep(Duration::from_secs(cfg.debug_off - cfg.debug_on));
    let (ser1, _) = cluster.ser_stats().counts();
    let n1 = sink_meter.total();
    handle.disable_debug(src);
    std::thread::sleep(Duration::from_secs(cfg.total_secs as u64 - cfg.debug_off));
    cluster.shutdown();
    let before = ser0 as f64 / n0.max(1) as f64;
    let during = (ser1 - ser0) as f64 / (n1 - n0).max(1) as f64;
    (sink_meter, before, during)
}

/// Serializations per tuple the source emitted in the (before, during)
/// phases: the claim is one per emission, mirror or not. Dividing by what
/// the sink executed instead counted every tuple still queued toward it,
/// or shed at its full port, as an extra serialization.
fn run_typhoon(cfg: &Cfg) -> (RateMeter, f64, f64) {
    let mut reg = ComponentRegistry::new();
    let _ = register_standard(&mut reg, PAYLOAD, 64);
    let cluster =
        TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(100), reg).expect("cluster");
    let handle = cluster.submit(debug_topology()).expect("submit");
    let physical = handle.physical().expect("physical");
    let src = handle.tasks_of("source")[0];
    let sink = handle.tasks_of("sink")[0];
    let dbg = handle.tasks_of("debug")[0];
    let sink_meter = handle.worker(sink).expect("worker").meter;
    let port_of = |t| PortNo(physical.assignment(t).expect("task is placed").switch_port);
    let emitted = || {
        let source = handle.worker(src).expect("source worker");
        source.registry.snapshot().counter("tuples.emitted")
    };
    std::thread::sleep(Duration::from_secs(cfg.debug_on));
    let (ser0, _) = cluster.ser_stats().counts();
    let e0 = emitted();
    // Switch-level mirroring: a data-plane rule copy, no app involvement.
    let mut debugger = LiveDebugger::new();
    debugger.mirror_task(
        &cluster.controller(),
        handle.app(),
        physical.assignment(src).expect("task is placed").host,
        src,
        port_of(src),
        &[(sink, port_of(sink))],
        port_of(dbg),
    );
    std::thread::sleep(Duration::from_secs(cfg.debug_off - cfg.debug_on));
    let (ser1, _) = cluster.ser_stats().counts();
    let e1 = emitted();
    debugger.unmirror(&cluster.controller());
    std::thread::sleep(Duration::from_secs(cfg.total_secs as u64 - cfg.debug_off));
    cluster.shutdown();
    let before = ser0 as f64 / e0.max(1) as f64;
    let during = (ser1 - ser0) as f64 / (e1 - e0).max(1) as f64;
    (sink_meter, before, during)
}

fn print_table5() {
    println!("== Table 5: Storm vs Typhoon live debugger ==");
    println!("{:<22} | {:<34} | {:<30}", "Property", "Storm", "Typhoon");
    println!("{}", "-".repeat(92));
    println!(
        "{:<22} | {:<34} | {:<30}",
        "Debug granularity", "entire topology / set of workers", "each worker"
    );
    println!(
        "{:<22} | {:<34} | {:<30}",
        "Resource requirement", "pre-provisioned memory + TCP conns", "memory allocated on demand"
    );
    println!(
        "{:<22} | {:<34} | {:<30}",
        "Dynamic provisioning", "no (predefined via config/API)", "yes (runtime flow rules)"
    );
    println!(
        "{:<22} | {:<34} | {:<30}",
        "Multiple serialization", "yes", "no"
    );
}

fn main() {
    let opts = BenchOpts::from_env();
    let cfg = Cfg::new(&opts);
    if opts.rest.first().map(String::as_str) == Some("table5") {
        print_table5();
        return;
    }
    println!(
        "== Fig. 12: live debugging overhead (debug ON t={}s..{}s) ==",
        cfg.debug_on, cfg.debug_off
    );
    let mut report = Report::new("fig12", "live debugging overhead", opts.mode());
    // Per-phase throughput windows, skipping the first window of each
    // phase (ramp-up / mirror-rule installation transient).
    let before_win = (1, cfg.debug_on as usize);
    let during_win = (cfg.debug_on as usize + 1, cfg.debug_off as usize);
    let phase_ratio = |points: &[f64]| {
        let before = window_mean(points, before_win.0, before_win.1);
        let during = window_mean(points, during_win.0, during_win.1);
        if before > 0.0 {
            during / before
        } else {
            0.0
        }
    };

    let (storm, storm_before, storm_during) = run_storm(&cfg);
    print_timeline("fig12/storm-sink", &storm, 0, cfg.total_secs);
    println!(
        "# storm source serializations/tuple: before={storm_before:.2} during-debug={storm_during:.2}"
    );
    let storm_points = timeline_points(&storm, 0, cfg.total_secs);
    let storm_ratio = phase_ratio(&storm_points);
    report.push_series("fig12/storm-sink", "tuples/sec", storm_points);
    report.metric(
        "ser_per_tuple.storm.before",
        storm_before,
        "count",
        Direction::LowerIsBetter,
        0.25,
    );
    report.metric(
        "ser_per_tuple.storm.during_debug",
        storm_during,
        "count",
        Direction::LowerIsBetter,
        0.25,
    );
    // Informational: Storm's during/before ratio documents the drop; it
    // is not a property this repo defends, so the tolerance is loose.
    report.metric(
        "debug_overhead_ratio.storm",
        storm_ratio,
        "ratio",
        Direction::HigherIsBetter,
        0.9,
    );

    let (typhoon, ty_before, ty_during) = run_typhoon(&cfg);
    print_timeline("fig12/typhoon-sink", &typhoon, 0, cfg.total_secs);
    println!(
        "# typhoon serializations/emitted tuple: before={ty_before:.2} during-debug={ty_during:.2}"
    );
    let ty_points = timeline_points(&typhoon, 0, cfg.total_secs);
    let ty_ratio = phase_ratio(&ty_points);
    report.push_series("fig12/typhoon-sink", "tuples/sec", ty_points);
    // The mechanism claim: switch-level mirroring adds no serialization,
    // so the per-tuple counter stays ~1 while debugging.
    report.metric(
        "ser_per_tuple.typhoon.before",
        ty_before,
        "count",
        Direction::LowerIsBetter,
        0.25,
    );
    report.metric(
        "ser_per_tuple.typhoon.during_debug",
        ty_during,
        "count",
        Direction::LowerIsBetter,
        0.25,
    );
    // And throughput while debugging must hold near the before level.
    report.metric(
        "debug_overhead_ratio.typhoon",
        ty_ratio,
        "ratio",
        Direction::HigherIsBetter,
        0.4,
    );
    println!("# expected shape: storm throughput drops while debugging is on");
    println!("# (extra app-level serialization); typhoon is unaffected.");
    print_table5();
    opts.emit(&report);
}
