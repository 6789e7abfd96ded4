//! # typhoon-bench — the §6 evaluation harness
//!
//! Workload generators, shared stream components and measurement helpers
//! used by the per-figure experiment binaries (`src/bin/exp_*.rs`) and
//! the `perf` suite (`src/bin/perf/`). Each `exp_*` binary regenerates one
//! table or figure of the paper, printing the same rows/series the paper
//! reports; EXPERIMENTS.md records paper-reported vs measured values.
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_fig8`  | Fig. 8(a) forwarding, 8(b) +acker, 8(c)/(d) latency CDFs |
//! | `exp_fig9`  | Fig. 9 one-to-many throughput, 2–6 sinks |
//! | `exp_fig10` | Fig. 10 fault-recovery timelines |
//! | `exp_fig11` | Fig. 11 auto-scaling timelines |
//! | `exp_fig12` | Fig. 12 live-debugging overhead + Table 5 |
//! | `exp_fig14` | Figs. 13/14 Yahoo analytics + runtime logic swap |
//!
//! Every experiment binary also understands `--json <path>` (write the
//! figure's machine-readable [`report::Report`] as `BENCH_<figure>.json`)
//! and `--short` (compressed timelines for CI and baseline generation).
//! The `bench-gate` binary compares a fresh matrix against the committed
//! baselines with direction-aware tolerances (see [`gate`]).

#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod report;
pub mod workloads;
pub mod yahoo;
