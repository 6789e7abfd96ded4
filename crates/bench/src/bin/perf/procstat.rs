//! CPU and memory accounting read from `/proc`, from outside the system.
//!
//! Process CPU is `utime + stime` of `/proc/self/stat`; the per-layer split
//! groups `/proc/self/task/*/stat` by thread name. Linux keeps 15 bytes of
//! a thread's name, so groups are matched by prefix.

use std::collections::BTreeMap;
use std::fs;

/// The thread groups of the per-layer CPU split, in report order.
pub const GROUPS: [&str; 7] = [
    "source",
    "operators",
    "acker",
    "switch",
    "tunnel",
    "control",
    "bench",
];

/// Kernel clock ticks per second (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// `(comm, utime + stime in ticks)` parsed from one `/proc/.../stat` line.
///
/// The comm field is wrapped in parentheses and may itself contain spaces
/// and parentheses, so it ends at the *last* `)` of the line.
pub fn parse_stat_line(line: &str) -> Option<(&str, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = &line[open + 1..close];
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Maps a (possibly truncated) thread name to its group.
pub fn group_of(comm: &str) -> &'static str {
    // Order matters: the acker and the source are `typhoon-*` workers too.
    if comm.starts_with("typhoon-__acker") {
        "acker"
    } else if comm.starts_with("typhoon-source") {
        "source"
    } else if comm.starts_with("typhoon-manager")
        || comm.starts_with("typhoon-rest")
        || comm.starts_with("sdn-controller")
        || comm.starts_with("ctl-")
    {
        "control"
    } else if comm.starts_with("typhoon-") {
        "operators"
    } else if comm.starts_with("datapath-") {
        "switch"
    } else if comm.starts_with("tcp-tunnel-") {
        "tunnel"
    } else {
        "bench"
    }
}

/// CPU seconds used so far by the whole process (all threads, dead ones
/// included).
pub fn process_cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_line)
        .map_or(0.0, |(_, ticks)| ticks as f64 / TICKS_PER_SEC)
}

/// CPU seconds used so far by the live threads of each group.
pub fn group_cpu_secs() -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = GROUPS.iter().map(|g| (*g, 0.0)).collect();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(line) = fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        if let Some((comm, ticks)) = parse_stat_line(&line) {
            *out.entry(group_of(comm)).or_default() += ticks as f64 / TICKS_PER_SEC;
        }
    }
    out
}

/// Resident set size in MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_rss_kb)
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_rss_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: &str = "4242 (typhoon-sink-1) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
        37 5 0 0 20 0 9 0 1000 123456 789 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    const NASTY: &str = "7 (a b) c) (d) R 1 7 7 0 -1 64 0 0 0 0 \
        1000 234 0 0 20 0 1 0 5 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";

    #[test]
    fn parses_utime_plus_stime() {
        assert_eq!(parse_stat_line(PLAIN), Some(("typhoon-sink-1", 42)));
    }

    #[test]
    fn comm_may_contain_spaces_and_parentheses() {
        assert_eq!(parse_stat_line(NASTY), Some(("a b) c) (d", 1234)));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_stat_line(""), None);
        assert_eq!(parse_stat_line("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_line(") ("), None);
    }

    #[test]
    fn truncated_names_group_by_prefix() {
        // `typhoon-source-0` and `typhoon-__acker-2` lose their tails to
        // the 15-byte comm limit.
        assert_eq!(group_of("typhoon-source-"), "source");
        assert_eq!(group_of("typhoon-__acker"), "acker");
        assert_eq!(group_of("typhoon-sink-1"), "operators");
        assert_eq!(group_of("typhoon-split-2"), "operators");
        assert_eq!(group_of("typhoon-manager"), "control");
        assert_eq!(group_of("sdn-controller"), "control");
        assert_eq!(group_of("ctl-ha-monitor"), "control");
        assert_eq!(group_of("datapath-0"), "switch");
        assert_eq!(group_of("tcp-tunnel-read"), "tunnel");
        assert_eq!(group_of("perf-churn"), "bench");
        assert_eq!(group_of("perf"), "bench");
    }

    #[test]
    fn every_group_name_is_reported() {
        let cpu = group_cpu_secs();
        for g in GROUPS {
            assert!(cpu.contains_key(g), "{g}");
        }
    }

    #[test]
    fn vm_rss_is_parsed_in_kb() {
        let status = "Name:\tperf\nVmPeak:\t  100 kB\nVmRSS:\t   20480 kB\nThreads:\t3\n";
        assert_eq!(parse_vm_rss_kb(status), Some(20480));
        assert_eq!(parse_vm_rss_kb("Name:\tperf\n"), None);
    }
}
