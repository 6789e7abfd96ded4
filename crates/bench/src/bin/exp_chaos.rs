//! Experiment: chaos — the word-count shape under injected tunnel faults.
//!
//! Runs the Fig. 2 word-count shape (replaying sequence source → 2 relay
//! workers → 2 field-grouped sinks) on two hosts with every inter-host
//! tunnel wrapped in a seeded [`typhoon_net::FaultInjector`], and measures how long
//! full completion (every root acked) takes under each fault class
//! compared to the clean baseline. This is the quantitative companion of
//! the chaos test suite: recovery is not just *possible*, it is *cheap*
//! relative to the heartbeat timeout the paper's Fig. 10 baseline pays.
//!
//! ```text
//! exp_chaos [--roots N] [--seed S] [--class drop|delay|dup|corrupt|all]
//! ```

use std::time::{Duration, Instant};
use typhoon_bench::harness::BenchOpts;
use typhoon_bench::report::{Direction, Report};
use typhoon_controller::apps::FaultDetector;
use typhoon_core::{TyphoonCluster, TyphoonConfig};
use typhoon_metrics::MetricSnapshot;
use typhoon_model::{ComponentRegistry, Fields, Grouping, LogicalTopology};
use typhoon_net::{FaultPlan, FaultSpec, KillClass, KillSpec};

const DEFAULT_SEED: u64 = 0xc4a0_5eed;

fn word_count_shape() -> LogicalTopology {
    LogicalTopology::builder("chaos-word-count")
        .spout("input", "seq-spout", 1, Fields::new(["seq", "payload"]))
        .bolt("split", "relay", 2, Fields::new(["seq", "payload"]))
        .bolt("count", "seq-sink", 2, Fields::new(["seq"]))
        .edge("input", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["seq".into()]))
        .build()
        .expect("valid topology")
}

struct Outcome {
    completed: u64,
    delivered: u64,
    elapsed: Duration,
    injected: MetricSnapshot,
    /// Leader-failover latency (elect + rule re-sync), 0 when no
    /// controller kill was armed.
    failover_ms: u64,
}

fn run_class(name: &str, plan: FaultPlan, roots: i64) -> Outcome {
    // A controller kill needs a standby replica to fail over to.
    let controller_kill = plan
        .kill
        .map(|k| k.class == KillClass::Controller)
        .unwrap_or(false);
    let mut reg = ComponentRegistry::new();
    let (sink, _agg) = typhoon_bench::workloads::register_standard(&mut reg, 16, 8);
    let mut config = TyphoonConfig::new(2)
        .with_batch_size(8)
        .with_acking(Duration::from_secs(2), 256)
        .with_chaos(plan);
    if controller_kill {
        config = config.with_controller_replicas(2);
    }
    config.slots_per_host = 3;
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    // Registered per replica, so a successor leader detects faults too.
    cluster.add_control_app(|| Box::new(FaultDetector::new()));
    cluster.register_spout("seq-spout", move || {
        typhoon_bench::workloads::SeqSpout::new(16, 8).with_limit(roots)
    });
    let start = Instant::now();
    let handle = cluster.submit(word_count_shape()).expect("submit");
    let spout_task = handle.tasks_of("input")[0];
    let completed = || {
        handle
            .worker(spout_task)
            .map(|w| w.registry.snapshot().counter("acks.completed"))
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(300);
    while completed() < roots as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = start.elapsed();
    // Injected-fault counters over every directed edge, and the kill.
    let injected = MetricSnapshot::total(&cluster.snapshot(), "chaos/");
    let mut failover_ms = 0;
    if controller_kill {
        // The kill is armed on a delay; make sure the failover actually
        // landed (and its latency was recorded) before reading it out.
        let plane = cluster.control_plane();
        let wait = Instant::now() + Duration::from_secs(10);
        while plane
            .registry()
            .snapshot()
            .counter("controller.ha.failovers")
            == 0
            && Instant::now() < wait
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        failover_ms = plane
            .registry()
            .snapshot()
            .gauge("controller.ha.failover_ms") as u64;
    }
    let out = Outcome {
        completed: completed(),
        delivered: sink.count(),
        elapsed,
        injected,
        failover_ms,
    };
    cluster.shutdown();
    let _ = name;
    out
}

fn main() {
    let opts = BenchOpts::from_env();
    let args = &opts.rest;
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let roots: i64 = get("--roots")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| opts.pick(2_000, 300));
    let seed: u64 = get("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let class = get("--class").unwrap_or_else(|| "all".into());
    let mut report = Report::new(
        "chaos",
        "completion time under injected tunnel faults",
        opts.mode(),
    )
    .with_seed(seed);

    // `key` is the dotted-metric-safe class name.
    let classes: Vec<(&str, &str, FaultPlan)> = vec![
        ("baseline", "baseline", FaultPlan::clean(seed)),
        (
            "drop-5%",
            "drop",
            FaultPlan::symmetric(seed, FaultSpec::CLEAN.dropping(0.05)),
        ),
        (
            "delay-25ms",
            "delay",
            FaultPlan::symmetric(seed, FaultSpec::CLEAN.delaying(Duration::from_millis(25))),
        ),
        (
            "dup-10%",
            "dup",
            FaultPlan::symmetric(seed, FaultSpec::CLEAN.duplicating(0.10)),
        ),
        (
            "corrupt-5%",
            "corrupt",
            FaultPlan::symmetric(seed, FaultSpec::CLEAN.corrupting(0.05)),
        ),
        (
            "ctl-kill",
            "ctl_kill",
            FaultPlan::clean(seed).with_kill(KillSpec::controller(Duration::from_millis(10))),
        ),
    ];
    println!("# exp_chaos: word-count on 2 hosts, {roots} roots, seed {seed}");
    println!(
        "# {:<12} {:>10} {:>10} {:>10}  injected",
        "class", "completed", "delivered", "secs"
    );
    for (name, key, plan) in classes {
        if class != "all" && !name.starts_with(class.as_str()) {
            continue;
        }
        let o = run_class(name, plan, roots);
        let injected: Vec<String> = o
            .injected
            .counters
            .iter()
            .filter(|(k, v)| **v > 0 && *k != "chaos.forwarded")
            .map(|(k, v)| format!("{}={v}", k.trim_start_matches("chaos.")))
            .collect();
        println!(
            "  {:<12} {:>10} {:>10} {:>10.2}  {}",
            name,
            o.completed,
            o.delivered,
            o.elapsed.as_secs_f64(),
            injected.join(" ")
        );
        // Every root must complete under every fault class — exactness.
        report.exact(
            format!("completion_ratio.{key}"),
            o.completed as f64 / roots.max(1) as f64,
            "ratio",
        );
        // Completion time: recovery must stay cheap. Wide tolerance —
        // retransmit timing under drop/corrupt is scheduling-sensitive.
        report.time_ms(
            format!("completion_ms.{key}"),
            o.elapsed.as_secs_f64() * 1e3,
            1.5,
        );
        report.metric(
            format!("delivered_ratio.{key}"),
            o.delivered as f64 / roots.max(1) as f64,
            "ratio",
            Direction::HigherIsBetter,
            0.5,
        );
        if key == "ctl_kill" {
            // Leader failover (election + rule re-sync) must stay cheap;
            // the gate holds the budget. Sub-millisecond failovers floor
            // at 1ms so the baseline is never zero (a zero baseline makes
            // every relative comparison degenerate); the wide tolerance
            // is the actual budget: ~tens of ms, not hundreds.
            report.time_ms("failover_ms.ctl_kill", o.failover_ms.max(1) as f64, 20.0);
        }
    }
    opts.emit(&report);
}
