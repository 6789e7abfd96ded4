//! Pins the benchmark, and with it every thread the cluster spawns, to one
//! CPU.
//!
//! On the two-vCPU reference box the vCPUs are SMT siblings: a thread runs
//! up to twice as fast while its sibling idles. With two to six busy
//! threads the kernel settles, run by run, into placements that overlap the
//! siblings more or less, and the same workload then costs 1.5 or 2.3 µs of
//! CPU per tuple (README.md, "Steadiness"). On one CPU threads never
//! overlap, so CPU time counts work, not placement. Threads inherit the
//! mask of the thread that creates them; `main` pins itself first.

use std::mem::size_of_val;

/// The kernel's `cpu_set_t` for up to 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread to the lowest-numbered CPU it may run on.
/// Returns that CPU, or `None` when the kernel refused (the run continues
/// unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), &mut allowed) } != 0 {
        return None;
    }
    let cpu = lowest_cpu(&allowed)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size_of_val(&one), &one) } == 0).then_some(cpu)
}

fn lowest_cpu(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_cpu_scans_words_in_order() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(lowest_cpu(&set), None);
        set[1] = 0b1000;
        assert_eq!(lowest_cpu(&set), Some(67));
        set[0] = 0b0110;
        assert_eq!(lowest_cpu(&set), Some(1));
    }

    #[test]
    fn pinning_a_thread_leaves_it_one_allowed_cpu() {
        // On its own thread, so the test harness's threads stay unpinned.
        let cpu = std::thread::spawn(pin_to_one_cpu)
            .join()
            .expect("pinning thread");
        assert!(
            cpu.is_some(),
            "the kernel lets a thread narrow its own mask"
        );
    }
}
