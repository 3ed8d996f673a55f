//! What the benchmark reads about its own process and machine: CPU time
//! and peak resident memory from `/proc/self`, and the header facts.

use std::process::Command;

/// User plus system CPU time of the whole process (every thread), in
/// milliseconds, from `/proc/self/stat`. Resolution is one clock tick
/// (10 ms on the usual `CLK_TCK` of 100), so callers average it over
/// many calls. `None` where `/proc` is unavailable.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being fields 14 and
    // 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target the benchmark runs on.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Clock ticks the hypervisor took from this machine's virtual CPUs
/// (the `steal` column of `/proc/stat`), summed over all of them.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout's commit, or `"unknown"` outside a git checkout.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built the benchmark, recorded by the build script.
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// The build profile and optimisation level, recorded by the build script.
pub const BUILD_PROFILE: &str = env!("PERFBENCH_BUILD_PROFILE");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let busy: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(busy > 0);
        let cpu = process_cpu_ms().expect("/proc/self/stat is readable");
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb().expect("/proc/self/status is readable") > 0.0);
        assert!(steal_ticks().is_some());
        assert!(nproc() >= 1);
    }
}
