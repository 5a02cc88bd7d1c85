//! Host facts read from `/proc`, and the one foreign call that pins the
//! process to a CPU.
//!
//! The simulator runs each simulated process on its own OS thread but
//! lets exactly one run at a time, so a second CPU buys nothing and the
//! kernel's choice of where to wake the next thread is pure noise: on a
//! shared 2-CPU host the same binary swings 3-4x run to run unpinned and
//! agrees within a few percent pinned.

use std::fs;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = status_field("/proc/self/status", "Cpus_allowed_list:") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi.min(CPU_SET_WORDS * 64 - 1));
        }
    }
    cpus
}

/// Pin the calling thread to the highest CPU it is allowed on and return
/// that CPU. Call before any thread is spawned: threads inherit the mask
/// of the thread that creates them, so one call covers every simulated
/// process. The highest CPU is the one least likely to field the host's
/// interrupts.
pub fn pin_to_highest_allowed_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .last()
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of
    // `size_of_val(&mask)` bytes that the kernel only reads; pid 0 names
    // the calling thread. `cpu` is below `CPU_SET_WORDS * 64` by
    // `allowed_cpus`, so the index above is in bounds.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Voluntary context switches summed over the threads alive right now.
/// Simulated-process threads have exited by the time `Simulation::run`
/// returns, so a before/after difference counts the scheduler thread's
/// half of every hand-off: one per forced process resume.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let path = t.path().join("status");
            status_field(path.to_str()?, "voluntary_ctxt_switches:")?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

fn status_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert!(loadavg() >= 0.0);
    }
}
