//! Running one workload: the timed pass, the traced pass, the oracle.
//!
//! Method (the same on every commit): deploy → release the generator →
//! warm up → measure in 0.5 s windows → let the generator run out → drain →
//! check the outputs. Goodput is the median over windows; every latency is
//! the lower quartile over windows of the per-window exact percentile, so
//! neither a scheduler hiccup nor a noisy stretch of the host moves it.

use crate::clock::{now_ns, secs_between};
use crate::gen::Sample;
use crate::procstat;
use crate::stats::{
    highest_supported_percentile, percentile, window_lower_quartile, window_median,
};
use crate::workloads::{unrelated_rule, Rig, Shape, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use typhoon_model::{HostId, TaskId};

/// Warm-up between releasing the generator and the first window.
pub const WARMUP_S: f64 = 2.0;
/// Length of one measurement window.
pub const WINDOW_S: f64 = 0.5;
/// How long the deployed topology idles, generator held, for
/// `core.idle_cpu_cores`.
pub const IDLE_S: f64 = 2.0;
/// Clusters deployed per timed run; `setup_s` is the median over them.
pub const SETUP_REPEATS: usize = 7;
/// Longest wait for the tail of the stream after the generator ran out.
const DRAIN: Duration = Duration::from_secs(2);
/// Longest wait for a deployed topology to deliver its first tuple.
const FIRST_DELIVERY: Duration = Duration::from_secs(20);
/// The generator keeps going this long past the last window, so the last
/// window sees the same offered load as the others.
const TAIL_S: f64 = 0.25;
/// Sampling rate of the tuple tracer in `ack_remote`'s traced pass (1 in 16).
pub const TRACE_SAMPLE: u32 = 16;

fn sleep_until(at_ns: u64) {
    loop {
        let now = now_ns();
        if now >= at_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(at_ns - now)); // LINT: allow-sleep(the harness main thread waits out a measurement window)
    }
}

/// Tuples a generator at `rate` needs for a warm-up plus `windows` windows.
fn limit_for(rate: u64, windows: usize) -> u64 {
    ((WARMUP_S + windows as f64 * WINDOW_S + TAIL_S) * rate as f64) as u64
}

/// Whole windows that fit in `seconds` (at least one).
pub fn windows_in(seconds: u64) -> usize {
    ((seconds as f64 / WINDOW_S) as usize).max(1)
}

/// One window of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Final-operator executions per second.
    pub goodput_tps: f64,
    /// Exact median latency of the window's samples.
    pub p50_ms: f64,
    /// Exact 99th percentile of the window's samples.
    pub p99_ms: f64,
    /// Latency samples in the window.
    pub samples: usize,
}

/// What a measured pass yields.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The windows, in order.
    pub windows: Vec<Window>,
    /// Process CPU seconds over the pass.
    pub cpu_s: f64,
    /// Final-operator executions over the pass.
    pub delivered: u64,
    /// Lower quartile over windows of the per-window p99 of how late the
    /// generator emitted (emit time − due time), ms.
    pub gen_late_p99_ms: f64,
    /// Pass bounds, ns since the process epoch.
    pub span_ns: (u64, u64),
    /// Executions owed for tuples already emitted when the pass ended.
    pub backlog_end: u64,
}

impl Pass {
    fn per_window(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// Median over windows of the per-window goodput.
    pub fn goodput_tps(&self) -> f64 {
        window_median(&self.per_window(|w| w.goodput_tps)).unwrap_or(0.0)
    }

    /// Lower quartile over windows of the per-window median latency.
    pub fn p50_ms(&self) -> f64 {
        window_lower_quartile(&self.per_window(|w| w.p50_ms)).unwrap_or(0.0)
    }

    /// Lower quartile over windows of the per-window 99th percentile.
    pub fn p99_ms(&self) -> f64 {
        window_lower_quartile(&self.per_window(|w| w.p99_ms)).unwrap_or(0.0)
    }

    /// Process CPU microseconds per final-operator execution.
    pub fn cpu_us_per_tuple(&self) -> f64 {
        self.cpu_s * 1e6 / self.delivered.max(1) as f64
    }
}

/// The samples the workload's latency is defined on: due → spout `ack`
/// callback when acked, due → final operator `execute` otherwise.
fn latency_samples(rig: &Rig) -> Vec<Sample> {
    if rig.spec.acked {
        rig.gen
            .acks
            .lock()
            .expect("ack log poisoned")
            .samples
            .clone()
    } else {
        rig.board.each(|s| s.samples.clone()).concat()
    }
}

/// Splits `samples` over the windows bounded by `edges_ns` (by observation
/// time) and reduces each window. `delivered` is the cumulative count read
/// at each edge.
pub fn reduce_windows(samples: &[Sample], edges_ns: &[u64], delivered: &[u64]) -> Vec<Window> {
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); edges_ns.len().saturating_sub(1)];
    for s in samples {
        // Windows are contiguous: the window is the last edge at or before
        // the observation.
        let k = edges_ns.partition_point(|&e| e <= s.at_ns);
        if k >= 1 && k < edges_ns.len() {
            lat[k - 1].push(s.at_ns.saturating_sub(s.due_ns));
        }
    }
    lat.iter_mut()
        .enumerate()
        .map(|(k, l)| Window {
            goodput_tps: (delivered[k + 1] - delivered[k]) as f64
                / secs_between(edges_ns[k], edges_ns[k + 1]),
            p50_ms: percentile(l, 0.5).unwrap_or(0) as f64 / 1e6,
            p99_ms: percentile(l, 0.99).unwrap_or(0) as f64 / 1e6,
            samples: l.len(),
        })
        .collect()
}

/// Measures `windows` windows starting at `start_ns`.
fn measure(rig: &Rig, start_ns: u64, windows: usize) -> Pass {
    let window_ns = (WINDOW_S * 1e9) as u64;
    let mut edges_ns = Vec::with_capacity(windows + 1);
    let mut delivered = Vec::with_capacity(windows + 1);
    sleep_until(start_ns);
    let cpu0 = procstat::process_cpu_secs();
    for k in 0..=windows {
        sleep_until(start_ns + k as u64 * window_ns);
        edges_ns.push(now_ns());
        delivered.push(rig.board.delivered());
    }
    let cpu_s = procstat::process_cpu_secs() - cpu0;
    let owed = rig.gen.emitted.load(Ordering::Acquire) * rig.spec.fanout();
    let late = rig.gen.late.lock().expect("lateness log poisoned").clone();
    let late_p99: Vec<f64> = reduce_windows(&late, &edges_ns, &delivered)
        .iter()
        .map(|w| w.p99_ms)
        .collect();
    Pass {
        backlog_end: owed.saturating_sub(rig.board.delivered()),
        gen_late_p99_ms: window_lower_quartile(&late_p99).unwrap_or(0.0),
        windows: reduce_windows(&latency_samples(rig), &edges_ns, &delivered),
        cpu_s,
        delivered: delivered[windows] - delivered[0],
        span_ns: (edges_ns[0], edges_ns[windows]),
    }
}

/// The oracle's verdict on one rig.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted: final-operator executions owed, or roots owed
    /// an ack on an acked workload.
    pub attempted: u64,
    /// Missing, surplus, misordered or failed operations.
    pub failed: u64,
}

impl Verdict {
    /// Share of attempted operations that succeeded.
    pub fn delivered_ratio(&self) -> f64 {
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// Counts what the word-count tasks got wrong against the reference
/// recomputed from `(seed, sentences emitted)`.
fn word_count_errors(rig: &Rig, seed: u64) -> u64 {
    let mut got: BTreeMap<String, u64> = BTreeMap::new();
    for words in rig.board.each(|s| s.words.clone()) {
        for (w, n) in words {
            *got.entry(w).or_default() += n;
        }
    }
    let want = typhoon_bench::workloads::expected_word_counts(seed, rig.limit as i64);
    let mut errors = 0;
    for (w, &n) in &want {
        errors += got.remove(w).unwrap_or(0).abs_diff(n as u64);
    }
    errors + got.values().sum::<u64>()
}

/// Waits for the tail of the stream, then checks every output.
fn drain_and_check(rig: &Rig, seed: u64) -> Verdict {
    let expected = rig.expected();
    rig.wait_delivered(expected, DRAIN);
    if rig.spec.acked {
        let deadline = now_ns() + DRAIN.as_nanos() as u64;
        while now_ns() < deadline
            && rig.gen.acks.lock().expect("ack log poisoned").acked < rig.limit
        {
            std::thread::sleep(Duration::from_millis(1)); // LINT: allow-sleep(harness drain poll, bounded by the deadline)
        }
    }
    let mut failed = match rig.spec.shape {
        // Every sink saw each sequence number exactly once, in order.
        Shape::Forward | Shape::Fanout => rig
            .board
            .each(|s| s.delivered.abs_diff(rig.limit) + s.misordered)
            .into_iter()
            .sum(),
        Shape::WordCount => word_count_errors(rig, seed),
    };
    let mut attempted = expected;
    if rig.spec.acked {
        // Every emitted root acked exactly once, zero `fail` callbacks.
        let log = rig.gen.acks.lock().expect("ack log poisoned");
        attempted = rig.limit;
        failed += rig.limit.saturating_sub(log.acked) + log.failed + log.unknown;
    }
    Verdict { attempted, failed }
}

/// Releases the generator of a deployed rig and waits for the first
/// delivery. Returns `t0` and when that delivery was seen.
fn release(rig: &mut Rig) -> (u64, u64) {
    let t0 = rig.release();
    let first = rig
        .wait_delivered(1, FIRST_DELIVERY)
        .expect("the deployed topology delivers a tuple");
    (t0, first)
}

/// Deploys with tracing off and releases at once. Returns the rig, `t0`,
/// and the set-up time in seconds.
fn deploy_released(spec: &'static Workload, seed: u64, limit: u64) -> (Rig, u64, f64) {
    let mut rig = Rig::deploy(spec, seed, limit, 0);
    let (t0, first) = release(&mut rig);
    let setup_s = secs_between(rig.deploy_started_ns, first);
    (rig, t0, setup_s)
}

/// What a timed (tracing off) run reports.
pub struct TimedRun {
    /// The measured pass.
    pub pass: Pass,
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// Median set-up time over [`SETUP_REPEATS`] deployments.
    pub setup_s: f64,
}

/// The end-to-end run: `windows` windows with tracing off.
pub fn timed(spec: &'static Workload, seed: u64, windows: usize) -> TimedRun {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    // Set-up alone, on throwaway deployments fed a twentieth of a second.
    for _ in 1..SETUP_REPEATS {
        let (rig, _, setup_s) = deploy_released(spec, seed, (spec.rate / 20).max(1));
        setups.push(setup_s);
        rig.shutdown();
    }
    let (rig, t0, setup_s) = deploy_released(spec, seed, limit_for(spec.rate, windows));
    setups.push(setup_s);
    let pass = measure(&rig, t0 + (WARMUP_S * 1e9) as u64, windows);
    let verdict = drain_and_check(&rig, seed);
    rig.shutdown();
    TimedRun {
        pass,
        verdict,
        setup_s: window_median(&setups).unwrap_or(0.0),
    }
}

/// Cumulative counters of the live system, read through public API.
#[derive(Debug, Clone, Default)]
struct Counters {
    groups: BTreeMap<&'static str, f64>,
    ser: u64,
    deser: u64,
    cache_hits: u64,
    cache_probes: u64,
    switch_misses: u64,
    routed: u64,
    frames_tx: BTreeMap<u32, u64>,
    tx_dropped: u64,
    batches: u64,
    batched_blobs: f64,
}

fn counters(rig: &Rig) -> Counters {
    let (ser, deser) = rig.cluster.ser_stats().counts();
    let cache = rig.cluster.cache_stats();
    let mut c = Counters {
        groups: procstat::group_cpu_secs(),
        ser,
        deser,
        cache_hits: cache.hits,
        cache_probes: cache.hits + cache.negative_hits + cache.misses,
        switch_misses: rig
            .spec
            .host_ids()
            .filter_map(|h| rig.cluster.switch(h))
            .map(|s| s.miss_count())
            .sum(),
        ..Counters::default()
    };
    for (_, task, _) in rig.placement() {
        let Some(worker) = rig.handle.worker(task) else {
            continue;
        };
        let snap = worker.registry.snapshot();
        c.routed += snap.counter("tuples.emitted");
        c.frames_tx.insert(task.0, snap.counter("io.frames_tx"));
        c.tx_dropped += snap.counter("io.tx_dropped");
        let occupancy = worker.registry.histogram("io.batch_occupancy");
        c.batches += occupancy.count();
        c.batched_blobs += occupancy.mean() * occupancy.count() as f64;
    }
    c
}

/// Multiplicities of the traced pass, per final-operator execution.
#[derive(Debug, Clone, Default)]
pub struct Multiplicity {
    /// Tuple serializations.
    pub ser: f64,
    /// Tuple deserializations.
    pub deser: f64,
    /// Emissions routed by a framework layer.
    pub routed: f64,
    /// Frames workers pushed to their switch port.
    pub frames: f64,
    /// Of those, expected crossings of a host tunnel (from the placement).
    pub tunnel_frames: f64,
    /// Share of probes that missed.
    pub miss_share: f64,
}

/// Expected host-tunnel crossings per frame each task pushes, from where
/// its destinations were placed: a unicast frame crosses when its
/// destination is on another host (destinations taken as equally likely); a
/// broadcast frame is sent once to every remote host that has a member.
pub fn tunnel_sends_per_frame(
    spec: &Workload,
    placement: &[(String, TaskId, HostId)],
) -> BTreeMap<u32, f64> {
    let tasks_of = |node: &str| -> Vec<(TaskId, HostId)> {
        placement
            .iter()
            .filter(|(n, _, _)| n == node)
            .map(|&(_, t, h)| (t, h))
            .collect()
    };
    let acker = typhoon_core::ACKER_NODE;
    placement
        .iter()
        .map(|(node, task, host)| {
            let mut dests = match (spec.shape, node.as_str()) {
                (Shape::Forward | Shape::Fanout, "source") => tasks_of("sink"),
                (Shape::WordCount, "source") => tasks_of("split"),
                (Shape::WordCount, "split") => tasks_of("count"),
                _ => Vec::new(),
            };
            if node == acker {
                dests = tasks_of("source");
            } else if spec.acked {
                dests.extend(tasks_of(acker));
            }
            let remote: Vec<HostId> = dests
                .iter()
                .filter(|(_, h)| h != host)
                .map(|&(_, h)| h)
                .collect();
            let sends = if spec.shape == Shape::Fanout && node == "source" {
                let mut hosts = remote;
                hosts.sort();
                hosts.dedup();
                hosts.len() as f64
            } else {
                remote.len() as f64 / dests.len().max(1) as f64
            };
            (task.0, sends)
        })
        .collect()
}

/// What a traced run reports beyond the layer probes.
pub struct TracedRun {
    /// Live per-layer readings, by metric name.
    pub readings: BTreeMap<String, f64>,
    /// Multiplicities for the budget.
    pub per_tuple: Multiplicity,
    /// `cpu_us_per_tuple` of the traced pass.
    pub cpu_us_per_tuple: f64,
    /// Final-operator executions per second in the traced pass.
    pub goodput_tps: f64,
    /// Verdicts of the reference and the traced deployment.
    pub verdicts: [Verdict; 2],
    /// Where the scheduler put each task.
    pub placement: Vec<(String, TaskId, HostId)>,
}

/// Samples the final operators' `queue.depth` every 100 ms until stopped.
fn spawn_depth_sampler(rig: &Rig) -> (Arc<AtomicBool>, std::thread::JoinHandle<i64>) {
    let gauges: Vec<_> = rig
        .handle
        .tasks_of(rig.spec.final_node())
        .into_iter()
        .filter_map(|t| rig.handle.worker(t))
        .map(|w| w.registry.gauge("queue.depth"))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let max = AtomicI64::new(0);
    let thread = std::thread::Builder::new()
        .name("perf-sampler".into())
        .spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                for g in &gauges {
                    max.fetch_max(g.get(), Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(100)); // LINT: allow-sleep(100 ms sampling period on the bench's own thread)
            }
            max.into_inner()
        })
        .expect("spawn sampler thread");
    (stop, thread)
}

/// `send_flow_mod` + `sync_switch` round trips on the live cluster: median
/// microseconds over 21 toggles of an unrelated rule.
fn flowmod_barrier_us(rig: &Rig) -> f64 {
    let controller = rig.cluster.controller();
    let (add, del) = unrelated_rule(0x7ffe);
    let mut us: Vec<u64> = (0..21)
        .filter_map(|i| {
            let fm = if i % 2 == 0 { add.clone() } else { del.clone() };
            let t = now_ns();
            let ok = controller.send_flow_mod(HostId(0), fm)
                && controller.sync_switch(HostId(0), Duration::from_secs(2));
            ok.then(|| (now_ns() - t) / 1_000)
        })
        .collect();
    percentile(&mut us, 0.5).unwrap_or(0) as f64
}

fn port_tx_dropped(rig: &Rig) -> u64 {
    let controller = rig.cluster.controller();
    for h in rig.spec.host_ids() {
        controller.request_stats(h);
    }
    // Replies are pumped by the controller's own loop.
    std::thread::sleep(Duration::from_millis(150)); // LINT: allow-sleep(waits for the asynchronous port-stats replies)
    rig.spec
        .host_ids()
        .flat_map(|h| controller.port_stats(h))
        .map(|p| p.tx_dropped)
        .sum()
}

/// p50 of a sample set's latency, ms.
fn p50_ms(mut lat: Vec<u64>) -> f64 {
    percentile(&mut lat, 0.5).unwrap_or(0) as f64 / 1e6
}

/// The per-layer run: a short untraced reference pass, then the traced pass
/// on a fresh deployment with the tuple tracer on and every counter read
/// before and after.
pub fn traced(spec: &'static Workload, seed: u64, seconds: u64) -> TracedRun {
    let ref_windows = windows_in(seconds / 4);
    let windows = windows_in(seconds / 2);

    let (rig, t0, _) = deploy_released(spec, seed, limit_for(spec.rate, ref_windows));
    let reference = measure(&rig, t0 + (WARMUP_S * 1e9) as u64, ref_windows);
    let ref_verdict = drain_and_check(&rig, seed);
    rig.shutdown();

    // The tracer completes a trace at its `ack` hop, so it only yields hop
    // statistics on the acked workload; the others run with it off.
    let trace_sample = if spec.acked { TRACE_SAMPLE } else { 0 };
    let mut rig = Rig::deploy(spec, seed, limit_for(spec.rate, windows), trace_sample);
    // Topology deployed, generator held: what the idle system burns.
    let (idle_from, idle_cpu) = (now_ns(), procstat::process_cpu_secs());
    sleep_until(idle_from + (IDLE_S * 1e9) as u64);
    let idle_cores = (procstat::process_cpu_secs() - idle_cpu) / secs_between(idle_from, now_ns());
    let (t0, _) = release(&mut rig);
    let start_ns = t0 + (WARMUP_S * 1e9) as u64;
    sleep_until(start_ns);
    let before = counters(&rig);
    let (stop, sampler) = spawn_depth_sampler(&rig);
    let pass = measure(&rig, start_ns, windows);
    let after = counters(&rig);
    stop.store(true, Ordering::Release);
    let depth_max = sampler.join().expect("sampler thread panicked");
    let rss_mb = procstat::rss_mb();
    let barrier_us = flowmod_barrier_us(&rig);
    let churn_sent = rig.stop_churn();
    let verdict = drain_and_check(&rig, seed);

    let n = pass.delivered.max(1) as f64;
    let mut r: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        r.insert(name.to_owned(), v);
    };
    let mut group_total = 0.0;
    for g in procstat::GROUPS {
        let us = (after.groups[g] - before.groups[g]) * 1e6 / n;
        group_total += us;
        put(&format!("proc.cpu_us.{g}"), us);
    }
    put("proc.cpu_us.total", pass.cpu_us_per_tuple());
    put("core.idle_cpu_cores", idle_cores);
    let placement = rig.placement();
    let crossings = tunnel_sends_per_frame(spec, &placement);
    let frames_of = |task: u32| {
        (after.frames_tx.get(&task).copied().unwrap_or(0)
            - before.frames_tx.get(&task).copied().unwrap_or(0)) as f64
    };
    let per_tuple = Multiplicity {
        ser: (after.ser - before.ser) as f64 / n,
        deser: (after.deser - before.deser) as f64 / n,
        routed: (after.routed - before.routed) as f64 / n,
        frames: after.frames_tx.keys().map(|&t| frames_of(t)).sum::<f64>() / n,
        tunnel_frames: crossings
            .iter()
            .map(|(&t, x)| frames_of(t) * x)
            .sum::<f64>()
            / n,
        miss_share: 1.0
            - (after.cache_hits - before.cache_hits) as f64
                / (after.cache_probes - before.cache_probes).max(1) as f64,
    };
    put("tuple.ser_per_tuple", per_tuple.ser);
    put(
        "core.io.batch_occupancy_mean",
        (after.batched_blobs - before.batched_blobs)
            / (after.batches - before.batches).max(1) as f64,
    );
    put("core.io.frames_per_tuple", per_tuple.frames);
    put("core.io.tx_dropped", after.tx_dropped as f64);
    put("switch.port_tx_dropped", port_tx_dropped(&rig) as f64);
    put("switch.cache_hit_ratio", 1.0 - per_tuple.miss_share);
    put(
        "switch.cache_probes_per_tuple",
        (after.cache_probes - before.cache_probes) as f64 / n,
    );
    put(
        "switch.miss_count",
        (after.switch_misses - before.switch_misses) as f64,
    );
    put("core.queue_depth_max", depth_max as f64);
    put("bench.backlog_end", pass.backlog_end as f64);
    put("bench.gen_late_p99_ms", pass.gen_late_p99_ms);
    put("proc.rss_mb", rss_mb);
    put(
        "trace.overhead_ratio",
        pass.cpu_us_per_tuple() / reference.cpu_us_per_tuple(),
    );
    put("controller.flowmod_barrier_us", barrier_us);

    // Bench-side spans over the traced pass: generator due time → final
    // operator, and (acked) final operator → spout ack, matched by seq.
    let in_pass = |s: &Sample| s.at_ns >= pass.span_ns.0 && s.at_ns < pass.span_ns.1;
    let at_sink: Vec<Sample> = rig
        .board
        .each(|s| s.samples.clone())
        .concat()
        .into_iter()
        .filter(in_pass)
        .collect();
    put(
        "span.due_to_sink.p50_ms",
        p50_ms(
            at_sink
                .iter()
                .map(|s| s.at_ns - s.due_ns.min(s.at_ns))
                .collect(),
        ),
    );
    let sink_at: BTreeMap<u64, u64> = at_sink.iter().map(|s| (s.seq, s.at_ns)).collect();
    let acks = rig
        .gen
        .acks
        .lock()
        .expect("ack log poisoned")
        .samples
        .clone();
    put(
        "span.sink_to_ack.p50_ms",
        p50_ms(
            acks.iter()
                .filter_map(|a| sink_at.get(&a.seq).map(|&t| a.at_ns.saturating_sub(t)))
                .collect(),
        ),
    );

    if let Some(tracer) = rig.cluster.tracer() {
        tracer.collect();
        for hop in crate::metrics::TRACE_HOPS {
            let h = tracer.registry().histogram(&format!("trace.hop.{hop}"));
            for (q, name) in [(0.5, "p50_us"), (0.99, "p99_us")] {
                put(
                    &format!("trace.hop.{hop}.{name}"),
                    h.quantile(q).unwrap_or(0) as f64 / 1e3,
                );
            }
        }
    }
    rig.shutdown();

    println!(
        "# {}: traced pass {} windows, {} deliveries, {:.0} t/s; thread groups sum to {:.3} us/tuple \
         vs process {:.3} us/tuple ({:+.1} %); {} FlowMods churned; untraced reference {:.3} us/tuple",
        spec.name,
        windows,
        pass.delivered,
        pass.goodput_tps(),
        group_total,
        pass.cpu_us_per_tuple(),
        (group_total / pass.cpu_us_per_tuple() - 1.0) * 100.0,
        churn_sent,
        reference.cpu_us_per_tuple(),
    );
    TracedRun {
        readings: r,
        per_tuple,
        cpu_us_per_tuple: pass.cpu_us_per_tuple(),
        goodput_tps: pass.goodput_tps(),
        verdicts: [ref_verdict, verdict],
        placement,
    }
}

/// Prints the per-window table of a timed pass.
pub fn print_windows(spec: &Workload, pass: &Pass) {
    println!("# {}: window goodput_tps p50_ms p99_ms samples", spec.name);
    for (k, w) in pass.windows.iter().enumerate() {
        println!(
            "# {} {k:>2} {:>12.1} {:>9.4} {:>9.4} {:>7}",
            spec.name, w.goodput_tps, w.p50_ms, w.p99_ms, w.samples
        );
    }
    let n: usize = pass.windows.iter().map(|w| w.samples).sum();
    let per_window = n / pass.windows.len().max(1);
    println!(
        "# {}: {n} latency samples; a window of {per_window} supports up to p{} (>= 10 samples beyond it)",
        spec.name,
        highest_supported_percentile(per_window).map_or(0.0, |q| q * 100.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(seq: u64, due: u64, at: u64) -> Sample {
        Sample {
            seq,
            due_ns: due,
            at_ns: at,
        }
    }

    #[test]
    fn samples_land_in_the_window_they_were_observed_in() {
        let edges = [1_000_000_000, 3_000_000_000, 5_000_000_000];
        let delivered = [100, 2_100, 6_100];
        let samples = [
            s(0, 0, 999_999_999),                // before the pass
            s(8, 1_000_000_000, 1_002_000_000),  // window 0, 2 ms
            s(16, 2_000_000_000, 2_004_000_000), // window 0, 4 ms
            s(24, 2_999_000_000, 3_000_000_000), // window 1 (edge belongs to the later window)
            s(32, 4_000_000_000, 5_000_000_000), // after the pass
        ];
        let w = reduce_windows(&samples, &edges, &delivered);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].samples, w[1].samples), (2, 1));
        assert_eq!(w[0].goodput_tps, 1_000.0);
        assert_eq!(w[1].goodput_tps, 2_000.0);
        assert_eq!(w[0].p50_ms, 2.0);
        assert_eq!(w[0].p99_ms, 4.0);
        assert_eq!(w[1].p50_ms, 1.0);
    }

    #[test]
    fn tunnel_crossings_follow_the_placement() {
        let place = |v: &[(&str, u32, u32)]| -> Vec<(String, TaskId, HostId)> {
            v.iter()
                .map(|&(n, t, h)| (n.to_owned(), TaskId(t), HostId(h)))
                .collect()
        };
        let spec = |name| Workload::by_name(name).unwrap();
        // One host: nothing crosses.
        let x = tunnel_sends_per_frame(
            spec("fwd_tput"),
            &place(&[("source", 0, 0), ("sink", 1, 0)]),
        );
        assert_eq!(x[&0], 0.0);
        // Acked, acker beside the source: half the source's destinations
        // and the sink's only destination are remote.
        let x = tunnel_sends_per_frame(
            spec("ack_remote"),
            &place(&[("source", 0, 0), ("sink", 1, 1), ("__acker", 2, 0)]),
        );
        assert_eq!((x[&0], x[&1], x[&2]), (0.5, 1.0, 0.0));
        // Broadcast: one send per remote host with a member.
        let x = tunnel_sends_per_frame(
            spec("fanout_big"),
            &place(&[
                ("source", 0, 0),
                ("sink", 1, 0),
                ("sink", 2, 1),
                ("sink", 3, 1),
                ("sink", 4, 2),
            ]),
        );
        assert_eq!(x[&0], 2.0);
        assert_eq!(x[&1], 0.0);
        // Word count: splits beside the source, counts on the other host.
        let x = tunnel_sends_per_frame(
            spec("wc_churn"),
            &place(&[
                ("source", 0, 0),
                ("split", 1, 0),
                ("split", 2, 0),
                ("count", 3, 1),
                ("count", 4, 1),
            ]),
        );
        assert_eq!((x[&0], x[&1], x[&3]), (0.0, 1.0, 0.0));
    }

    #[test]
    fn plan_sizes_follow_the_arguments() {
        assert_eq!(windows_in(16), 32);
        assert_eq!(windows_in(5), 10);
        assert_eq!(windows_in(0), 1);
        assert_eq!(limit_for(1000, 2), 3_250);
    }

    #[test]
    fn delivered_ratio_counts_failures_against_attempts() {
        let v = Verdict {
            attempted: 1000,
            failed: 1,
        };
        assert_eq!(v.delivered_ratio(), 0.999);
        let all = Verdict {
            attempted: 10,
            failed: 50,
        };
        assert_eq!(all.delivered_ratio(), 0.0);
    }
}
