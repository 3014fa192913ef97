//! What the kernel says about this process, read from `/proc/self`, and
//! the machine fingerprint each run prints.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// 100 on every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmRSS:",
    ) * 1024
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Context switches (voluntary + involuntary) summed over every thread
/// of this process alive now.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// CPU time this process has used: `(user, system)` in microseconds.
pub fn cpu_micros() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_times(&stat)
}

/// `(utime, stime)` of a `/proc/<pid>/stat` line, in microseconds. The
/// command name (field 2) may contain spaces, so fields are counted
/// from its closing parenthesis.
fn parse_stat_times(stat: &str) -> (f64, f64) {
    let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After ")": state is field 3, so utime (14) and stime (15) sit at 11, 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) * 1e6 / USER_HZ, tick(12) * 1e6 / USER_HZ)
}

/// CPUs this process may run on.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ticks the hypervisor has stolen from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`): time other guests ran while this
/// one wanted a CPU.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// The share of the machine's CPU time over `secs` seconds that `ticks`
/// stolen ticks (as [`steal_ticks`] counts them) took, at most 1.
pub fn stolen_share(ticks: u64, secs: f64) -> f64 {
    (ticks as f64 / USER_HZ / (secs * cpus() as f64)).min(1.0)
}

/// Process counters at one instant, diffed over a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// Context switches over all threads.
    pub ctxsw: u64,
    /// User CPU, µs.
    pub user_us: f64,
    /// System CPU, µs.
    pub sys_us: f64,
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> Self {
        let (user_us, sys_us) = cpu_micros();
        ProcSample {
            ctxsw: context_switches(),
            user_us,
            sys_us,
        }
    }
}

/// The machine-shape half of a run fingerprint: core count, CPU model,
/// L3 size, kernel and the commit the program was built from.
pub fn machine_fingerprint() -> BTreeMap<String, String> {
    let mut fp = BTreeMap::new();
    fp.insert("nproc".into(), cpus().to_string());
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']))
        })
        .unwrap_or("unknown");
    fp.insert("cpu_model".into(), model.trim().to_string());
    let l3 = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    fp.insert("l3".into(), l3);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    fp.insert("kernel".into(), kernel);
    fp.insert("git_commit".into(), git_commit());
    fp
}

/// The commit the checkout came from: `PERFBENCH_COMMIT` if set, else
/// `git rev-parse HEAD` where the checkout is a repository, else
/// `unknown`.
fn git_commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_survive_spaces_in_the_command() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0";
        assert_eq!(parse_stat_times(line), (2_500_000.0, 750_000.0));
    }

    #[test]
    fn stolen_share_is_a_share_of_every_cpu() {
        let n = cpus() as f64;
        assert_eq!(stolen_share(0, 1.0), 0.0);
        assert!((stolen_share(25, 0.25) - 1.0 / n).abs() < 1e-12);
        assert_eq!(stolen_share(u64::MAX, 1.0), 1.0);
    }

    #[test]
    fn live_counters_are_plausible() {
        assert!(rss_bytes() > 0);
        assert!(context_switches() > 0);
        let fp = machine_fingerprint();
        assert!(fp["nproc"].parse::<usize>().unwrap() >= 1);
    }
}
