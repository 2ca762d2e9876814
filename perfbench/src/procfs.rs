//! Process facts read from `/proc`: peak resident set sizes and the
//! fleet front-end's worker processes.

/// `VmHWM` (peak resident set) of `pid`, in KiB; `None` once the process
/// is gone.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Direct children of `pid`, found by scanning `/proc/*/stat`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| parent_of(p) == Some(pid))
        .collect();
    out.sort_unstable();
    out
}

fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // `pid (comm) state ppid ...`; comm may contain spaces, so split
    // after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Sum of `VmHWM` over `pid` and its direct children, in MiB.
pub fn tree_peak_rss_mb(pid: u32) -> f64 {
    let kib: u64 = std::iter::once(pid)
        .chain(children(pid))
        .filter_map(vm_hwm_kib)
        .sum();
    kib as f64 / 1024.0
}

/// The machine-wide `cpu` line of `/proc/stat`: jiffies spent in each
/// state (user, nice, system, idle, iowait, irq, softirq, steal, …).
pub fn cpu_jiffies() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().skip(1).map(|v| v.parse().ok()).collect()
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings: how much other tenants of the machine
/// interfered with a run.
pub fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).take(8).collect();
    let total: u64 = delta.iter().sum();
    (delta.len() == 8 && total > 0).then(|| delta[7] as f64 / total as f64)
}

/// Peak resident set of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_the_steal_column_over_all_time() {
        let before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0];
        let after = [200, 0, 100, 1600, 0, 0, 0, 100, 0, 0];
        assert_eq!(steal_share(&before, &after), Some(0.05));
        assert_eq!(steal_share(&before, &before), None);
        assert!(cpu_jiffies().is_some_and(|j| j.len() >= 8));
    }

    #[test]
    fn reads_own_peak_and_finds_a_child() {
        assert!(self_peak_rss_mb() > 0.0);
        let mut child = std::process::Command::new("sleep").arg("5").spawn().expect("sleep");
        let found = children(std::process::id()).contains(&child.id());
        let _ = child.kill();
        let _ = child.wait();
        assert!(found);
    }
}
