//! Experiment: Fig. 8 — baseline performance, Storm vs Typhoon.
//!
//! * `exp_fig8 a`  — Fig. 8(a): tuple-forwarding throughput, LOCAL and
//!   REMOTE, Storm vs Typhoon with I/O batch sizes {100, 250, 500, 1000}.
//! * `exp_fig8 b`  — Fig. 8(b): the same with guaranteed processing (one
//!   acker), plus
//! * `exp_fig8 cd` — Figs. 8(c)/(d): end-to-end latency CDFs measured at
//!   the source on ack completion.
//! * `exp_fig8 all` (default) — everything.
//! * `exp_fig8 --trace [rate]` — per-hop latency breakdown from the
//!   end-to-end tuple tracer (sampling 1 in `rate`, default 16), LOCAL
//!   and REMOTE, closing with the hop-sum vs e2e-mean cross-check.
//!
//! Expected shape (per the paper): throughput is comparable between the
//! two systems in both placements; acking costs roughly half the
//! throughput on both; Typhoon's latency falls below Storm's at small
//! batch sizes and above it at large ones.

use std::time::Duration;
use typhoon_bench::harness::{
    measure_rate, print_cdf, print_hop_table, print_rate_row, quantile_from_cdf, BenchOpts,
};
use typhoon_bench::report::{Direction, Report, LATENCY_TOL};
use typhoon_bench::workloads::{forwarding_topology, register_standard};
use typhoon_core::{TyphoonCluster, TyphoonConfig};
use typhoon_model::ComponentRegistry;
use typhoon_storm::{StormCluster, StormConfig};

const PAYLOAD: usize = 100;
const SPOUT_BATCH: usize = 64;

/// Run parameters, compressed by `--short` (CI / baseline generation).
struct Cfg {
    warmup: Duration,
    measure: Duration,
    batches: &'static [usize],
}

impl Cfg {
    fn new(opts: &BenchOpts) -> Self {
        Cfg {
            warmup: opts.pick(Duration::from_secs(1), Duration::from_millis(200)),
            measure: opts.pick(Duration::from_secs(3), Duration::from_millis(600)),
            batches: opts.pick(&[100, 250, 500, 1000][..], &[100, 1000][..]),
        }
    }
}

/// `(system label, remote placement, latency CDF points)`.
type LabeledCdf = (String, bool, Vec<(u64, f64)>);

fn storm_forwarding(
    cfg: &Cfg,
    remote: bool,
    acking: bool,
    rate_cap: Option<u32>,
) -> (f64, Vec<(u64, f64)>) {
    let mut reg = ComponentRegistry::new();
    let (sink, _) = register_standard(&mut reg, PAYLOAD, SPOUT_BATCH);
    let mut config = if remote {
        StormConfig::tcp(2)
    } else {
        StormConfig::local(1)
    };
    if acking {
        config = config.with_acking(Duration::from_secs(10), 2048);
    }
    let cluster = StormCluster::new(config, reg);
    let handle = cluster.submit(forwarding_topology()).expect("submit");
    if rate_cap.is_some() {
        handle.set_input_rate(handle.tasks_of("source")[0], rate_cap);
    }
    let rate = measure_rate(|| sink.count(), cfg.warmup, cfg.measure);
    let cdf = handle
        .registry(handle.tasks_of("source")[0])
        .map(|r| r.histogram("latency").cdf())
        .unwrap_or_default();
    cluster.shutdown();
    (rate, cdf)
}

/// What one Typhoon forwarding run measured.
struct TyphoonRun {
    rate: f64,
    cdf: Vec<(u64, f64)>,
    hit_ratio: f64,
    /// Tuple serializations, cluster-wide, per tuple the sink received
    /// over the whole run: an exact count, not a timing.
    ser_per_tuple: f64,
}

fn typhoon_forwarding(
    cfg: &Cfg,
    remote: bool,
    acking: bool,
    batch: usize,
    rate_cap: Option<u32>,
) -> TyphoonRun {
    let mut reg = ComponentRegistry::new();
    let (sink, _) = register_standard(&mut reg, PAYLOAD, SPOUT_BATCH);
    let mut config = if remote {
        // One slot per host forces source and sink onto different hosts
        // (plus a third host for the acker when enabled).
        let mut c = TyphoonConfig::new(3).with_tcp_tunnels();
        c.slots_per_host = 1;
        c
    } else {
        TyphoonConfig::new(1)
    };
    config = config.with_batch_size(batch);
    if rate_cap.is_some() {
        // The latency run: batch fill time, not the flush deadline, should
        // dominate, so widen the deadline (the paper's I/O layer trades
        // latency for throughput purely via batch size).
        config.io.batch_delay = Duration::from_millis(50);
    }
    if acking {
        config = config.with_acking(Duration::from_secs(10), 2048);
    }
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    let handle = cluster.submit(forwarding_topology()).expect("submit");
    if let Some(cap) = rate_cap {
        cluster.controller().send_control(
            handle.app(),
            handle.tasks_of("source")[0],
            &typhoon_controller::ControlTuple::InputRate {
                tuples_per_sec: cap,
            },
        );
    }
    let rate = measure_rate(|| sink.count(), cfg.warmup, cfg.measure);
    let cdf = handle
        .worker(handle.tasks_of("source")[0])
        .map(|w| w.registry.histogram("latency").cdf())
        .unwrap_or_default();
    let hit_ratio = cluster.cache_stats().hit_ratio();
    let ser_per_tuple = cluster.ser_stats().counts().0 as f64 / sink.count().max(1) as f64;
    cluster.shutdown();
    TyphoonRun {
        rate,
        cdf,
        hit_ratio,
        ser_per_tuple,
    }
}

fn fig8a(cfg: &Cfg, report: &mut Report) {
    println!("== Fig. 8(a): tuple forwarding throughput (no acking) ==");
    for remote in [false, true] {
        let place = if remote { "REMOTE" } else { "LOCAL" };
        let tag = if remote { "remote" } else { "local" };
        let (storm, _) = storm_forwarding(cfg, remote, false, None);
        print_rate_row(&format!("STORM          ({place})"), storm);
        report.throughput(format!("throughput.{tag}.storm"), storm);
        for &batch in cfg.batches {
            let run = typhoon_forwarding(cfg, remote, false, batch, None);
            print_rate_row(&format!("TYPHOON({batch:<4})  ({place})"), run.rate);
            println!("    flow-cache hit ratio: {:.4}", run.hit_ratio);
            report.throughput(format!("throughput.{tag}.typhoon.b{batch}"), run.rate);
            // The megaflow fast path: steady state must resolve the vast
            // majority of frames without the flow-table lock.
            report.metric(
                format!("cache.hit_ratio.{tag}.typhoon.b{batch}"),
                run.hit_ratio,
                "ratio",
                Direction::HigherIsBetter,
                0.1,
            );
        }
    }
}

fn fig8b_cd(cfg: &Cfg, report: &mut Report, print_throughput: bool, print_latency: bool) {
    if print_throughput {
        println!("== Fig. 8(b): tuple forwarding with ACK (guaranteed processing) ==");
    }
    // Latency runs are input-capped below either system's capacity so the
    // CDF measures pipeline residence (batching), not queueing delay.
    let rate_cap = if print_latency { Some(50_000) } else { None };
    let mut cdfs: Vec<LabeledCdf> = Vec::new();
    for remote in [false, true] {
        let place = if remote { "REMOTE" } else { "LOCAL" };
        let tag = if remote { "remote" } else { "local" };
        let (storm, storm_cdf) = storm_forwarding(cfg, remote, true, rate_cap);
        if print_throughput {
            print_rate_row(&format!("STORM+ACK      ({place})"), storm);
            report.throughput(format!("throughput_ack.{tag}.storm"), storm);
        }
        cdfs.push(("STORM".into(), remote, storm_cdf));
        for &batch in cfg.batches {
            let run = typhoon_forwarding(cfg, remote, true, batch, rate_cap);
            if print_throughput {
                print_rate_row(&format!("TYPHOON({batch:<4})+ACK ({place})"), run.rate);
                report.throughput(format!("throughput_ack.{tag}.typhoon.b{batch}"), run.rate);
                if !remote && batch == cfg.batches[0] {
                    // Reliability must not multiply serializations: acks
                    // are packed records, so the acked path stays near one
                    // per tuple (a tuple per ack would make it 4).
                    println!("    serializations per tuple: {:.3}", run.ser_per_tuple);
                    report.metric(
                        "ser_per_tuple.ack.local.typhoon",
                        run.ser_per_tuple,
                        "count",
                        Direction::LowerIsBetter,
                        0.1,
                    );
                }
            }
            cdfs.push((format!("TYPHOON({batch})"), remote, run.cdf));
        }
    }
    if print_latency {
        println!("== Fig. 8(c): end-to-end tuple latency CDF (LOCAL) ==");
        for (label, remote, cdf) in &cdfs {
            if !remote {
                print_cdf(&format!("local/{label}"), cdf);
            }
        }
        println!("== Fig. 8(d): end-to-end tuple latency CDF (REMOTE) ==");
        for (label, remote, cdf) in &cdfs {
            if *remote {
                print_cdf(&format!("remote/{label}"), cdf);
            }
        }
        for (label, remote, cdf) in &cdfs {
            let tag = if *remote { "remote" } else { "local" };
            let system = label
                .to_lowercase()
                .replace("typhoon(", "typhoon.b")
                .replace(')', "");
            for (q, qname) in [(0.5, "p50_ms"), (0.99, "p99_ms")] {
                if let Some(nanos) = quantile_from_cdf(cdf, q) {
                    report.metric(
                        format!("latency.{tag}.{system}.{qname}"),
                        nanos as f64 / 1e6,
                        "ms",
                        Direction::LowerIsBetter,
                        LATENCY_TOL,
                    );
                }
            }
        }
    }
}

fn fig8_trace(cfg: &Cfg, rate: u32) {
    println!("== exp_fig8 --trace: per-hop latency breakdown (Typhoon, ACK, 1/{rate} sampled) ==");
    for remote in [false, true] {
        let place = if remote { "REMOTE" } else { "LOCAL" };
        let mut reg = ComponentRegistry::new();
        let (sink, _) = register_standard(&mut reg, PAYLOAD, SPOUT_BATCH);
        let mut config = if remote {
            let mut c = TyphoonConfig::new(3).with_tcp_tunnels();
            c.slots_per_host = 1;
            c
        } else {
            TyphoonConfig::new(1)
        };
        config = config
            .with_batch_size(100)
            .with_acking(Duration::from_secs(10), 2048)
            .with_trace(rate);
        let cluster = TyphoonCluster::new(config, reg).expect("cluster");
        let _handle = cluster.submit(forwarding_topology()).expect("submit");
        let _ = measure_rate(|| sink.count(), cfg.warmup, cfg.measure);
        if let Some(tracer) = cluster.tracer() {
            print_hop_table(&format!("fig8/{place}"), tracer);
        }
        cluster.shutdown();
    }
}

fn main() {
    let opts = BenchOpts::from_env();
    let cfg = Cfg::new(&opts);
    if let Some(pos) = opts.rest.iter().position(|a| a == "--trace") {
        let rate = opts
            .rest
            .get(pos + 1)
            .and_then(|r| r.parse::<u32>().ok())
            .unwrap_or(16);
        fig8_trace(&cfg, rate);
        return;
    }
    let mode = opts.rest.first().cloned().unwrap_or_else(|| "all".into());
    let mut report = Report::new(
        "fig8",
        "baseline performance, Storm vs Typhoon",
        opts.mode(),
    );
    match mode.as_str() {
        "a" => fig8a(&cfg, &mut report),
        "b" => fig8b_cd(&cfg, &mut report, true, false),
        "cd" => fig8b_cd(&cfg, &mut report, false, true),
        "all" => {
            fig8a(&cfg, &mut report);
            fig8b_cd(&cfg, &mut report, true, false);
            fig8b_cd(&cfg, &mut report, false, true);
        }
        other => {
            eprintln!(
                "usage: exp_fig8 [a|b|cd|all] [--trace [rate]] [--json PATH] [--short] (got {other:?})"
            );
            std::process::exit(2);
        }
    }
    opts.emit(&report);
}
