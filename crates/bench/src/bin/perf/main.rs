//! `perf` — the repo's benchmark: five paced open-loop workloads on
//! `TyphoonCluster`, six end-to-end metrics each, and a per-layer cost
//! budget. It claims no gain; it is the instrument later changes are
//! judged by. README.md is the glossary and the method.
//!
//! One workload, one pass (what `BENCHMARK.json`'s command runs):
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints `#`-prefixed tables and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when an oracle fails.
//!
//! Without `--workload` it runs every workload in a fresh child process
//! each (timed, then traced unless `--no-trace`); `--selfcheck` runs the
//! timed passes twice and prints each metric's relative difference against
//! its bound.

mod affinity;
mod budget;
mod clock;
mod gen;
mod json;
mod metrics;
mod probes;
mod procstat;
mod run;
mod sinks;
mod stats;
mod workloads;

use json::{ParsedResult, Reading, RunResult};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

/// Default `--seconds`: 32 windows of 0.5 s (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 16;
/// `--quick`: 4 s; a smoke test, not comparable with full runs.
const QUICK_SECONDS: u64 = 4;

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--no-trace] [--quick] [--selfcheck] [--json <path>]";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    no_trace: bool,
    quick: bool,
    selfcheck: bool,
    json: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        no_trace: false,
        quick: false,
        selfcheck: false,
        json: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if Workload::by_name(&name).is_none() {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--no-trace" => a.no_trace = true,
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--json" => a.json = Some(value("a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.quick {
        a.seconds = QUICK_SECONDS;
    }
    if a.no_trace {
        a.trace = false;
    }
    Ok(a)
}

/// The end-to-end run of one workload.
fn run_timed(spec: &'static Workload, args: &Args) -> RunResult {
    let t = run::timed(spec, args.seed, run::windows_in(args.seconds));
    run::print_windows(spec, &t.pass);
    println!(
        "# {}: offered {} t/s x{} fan-out, generator lateness p99 {:.4} ms, backlog at end of pass {}",
        spec.name,
        spec.rate,
        spec.fanout(),
        t.pass.gen_late_p99_ms,
        t.pass.backlog_end
    );
    let value = |name: &str| match name {
        "goodput_tps" => t.pass.goodput_tps(),
        "delivered_ratio" => t.verdict.delivered_ratio(),
        "latency_p50_ms" => t.pass.p50_ms(),
        "latency_p99_ms" => t.pass.p99_ms(),
        "cpu_us_per_tuple" => t.pass.cpu_us_per_tuple(),
        "setup_s" => t.setup_s,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    RunResult {
        correct: t.verdict.failed == 0,
        attempted: t.verdict.attempted,
        failed: t.verdict.failed,
        metrics: metrics::END_TO_END
            .iter()
            .map(|m| Reading {
                name: m.name.to_owned(),
                value: value(m.name),
                unit: m.unit,
            })
            .collect(),
    }
}

/// The per-layer run of one workload: traced pass, probes, budget.
fn run_traced(spec: &'static Workload, args: &Args) -> RunResult {
    let t = run::traced(spec, args.seed, args.seconds);
    let placed: Vec<String> = t
        .placement
        .iter()
        .map(|(node, task, host)| format!("{node}#{}@host{}", task.0, host.0))
        .collect();
    println!("# {}: placement {}", spec.name, placed.join(" "));
    let probes = probes::run_all();
    let budget = budget::reconcile(
        spec,
        &probes,
        &t.per_tuple,
        t.cpu_us_per_tuple,
        t.readings["core.idle_cpu_cores"],
        t.goodput_tps,
    );
    budget::print(spec, &budget);
    let mut values: BTreeMap<String, f64> = t.readings;
    values.extend(probes.iter().map(|(&k, &v)| (k.to_owned(), v)));
    values.insert("budget.explained_us".into(), budget.explained_us());
    values.insert(
        "budget.unexplained_ratio".into(),
        budget.unexplained_ratio(),
    );
    let attempted = t.verdicts.iter().map(|v| v.attempted).sum();
    let failed: u64 = t.verdicts.iter().map(|v| v.failed).sum();
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: metrics::per_layer()
            .into_iter()
            .map(|(name, unit, _)| Reading {
                // A hop the workload does not have (no `ack` hop without
                // acking) reads 0.
                value: values.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect(),
    }
}

/// Runs `perf` again as a child for one workload and pass; echoes its
/// tables and returns its result line, parsed and verbatim.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(ParsedResult, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    match RunResult::parse(last) {
        Some(parsed) => Ok((parsed, last.to_owned())),
        None => Err(format!(
            "{workload}: child exited with {} and no result line",
            out.status
        )),
    }
}

/// Every workload, each pass in a fresh process. Returns whether every
/// oracle passed.
fn run_all(args: &Args) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut ok = true;
    // name → pass → the child's result line, verbatim.
    let mut report = Vec::new();
    for w in &WORKLOADS {
        let mut passes = vec![("timed", child(w.name, args.seed, args.seconds, false)?)];
        if !args.no_trace {
            passes.push(("traced", child(w.name, args.seed, args.seconds, true)?));
        }
        let mut lines = Vec::new();
        for (pass, (r, line)) in &passes {
            ok &= r.correct;
            println!(
                "== {} {pass}: correct {} attempted {} failed {}",
                w.name, r.correct, r.attempted, r.failed
            );
            for (name, (value, unit)) in &r.metrics {
                println!("{:<12} {name:<34} {value:>16.6} {unit}", w.name);
            }
            lines.push(format!("\"{pass}\": {line}"));
        }
        report.push(format!("\"{}\": {{{}}}", w.name, lines.join(", ")));
    }
    if args.quick {
        println!("== --quick: 4 s per pass, a smoke test; NOT comparable with full runs");
    }
    println!(
        "== total wall time {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{{{}}}\n", report.join(", ")))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(ok)
}

/// Two sets of timed passes on different seeds; prints how far apart they
/// are relative to each metric's bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!("== selfcheck: workload metric first second worse_by bound verdict");
    for w in &WORKLOADS {
        let (first, _) = child(w.name, args.seed, args.seconds, false)?;
        let (second, _) = child(w.name, args.seed + 1, args.seconds, false)?;
        ok &= first.correct && second.correct;
        for m in &metrics::END_TO_END {
            let (a, b) = (first.metrics[m.name].0, second.metrics[m.name].0);
            // How much worse the second set is, as a share of the first.
            let worse_by = if m.better == "lower" { b - a } else { a - b } / a.abs();
            let within = worse_by.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<12} {:<18} {a:>14.5} {b:>14.5} {:>+8.2} % {:>6.1} % {}",
                w.name,
                m.name,
                worse_by * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clock::now_ns(); // fix the process epoch before any thread reads it
    let outcome = match &args.workload {
        Some(name) => {
            let spec = Workload::by_name(name).expect("validated by parse_args");
            println!("# {}: {}", spec.name, spec.why);
            match affinity::pin_to_one_cpu() {
                Some(cpu) => println!("# {}: pinned to CPU {cpu}", spec.name),
                None => println!("# {}: NOT pinned (sched_setaffinity refused)", spec.name),
            }
            let result = if args.trace {
                run_traced(spec, &args)
            } else {
                run_timed(spec, &args)
            };
            let line = result.to_json();
            let written = match &args.json {
                Some(path) => std::fs::write(path, format!("{line}\n"))
                    .map_err(|e| format!("write {path}: {e}")),
                None => Ok(()),
            };
            if args.quick {
                println!("# --quick: 4 s, a smoke test; NOT comparable with full runs");
            }
            println!("{line}");
            written.map(|()| result.correct)
        }
        None if args.selfcheck => selfcheck(&args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload fwd_lat --seed 7 --seconds 16 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fwd_lat"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 16, true));
    }

    #[test]
    fn run_control_flags() {
        let a = parse("--quick --no-trace --trace 1 --json out.json").unwrap();
        assert_eq!(a.seconds, QUICK_SECONDS);
        assert!(!a.trace, "--no-trace wins");
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert!(parse("--selfcheck").unwrap().selfcheck);
        assert_eq!(parse("").unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
