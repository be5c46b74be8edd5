//! Process and host facts read from `/proc` and the checkout.

use std::path::Path;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux ABI on every architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the command name, which is parenthesised and may hold
    // spaces: state is field 3, utime 14 and stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// A reading of the machine's CPU ticks and this process's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    steal_ticks: u64,
    total_ticks: u64,
    cpu_s: f64,
}

/// What happened between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostUse {
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests while this one wanted it (steal).
    pub steal: f64,
    /// This process's user plus system CPU time, seconds.
    pub cpu_s: f64,
}

impl HostSample {
    /// Reads `/proc/stat` and `/proc/self/stat` now.
    pub fn read() -> Result<HostSample, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .ok_or("malformed /proc/stat")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| format!("/proc/stat: {e}")))
            .collect::<Result<_, _>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        Ok(HostSample {
            steal_ticks: ticks.get(7).copied().unwrap_or(0),
            total_ticks: ticks.iter().take(8).sum(),
            cpu_s: cpu_seconds()?,
        })
    }

    /// Use of the machine and the process since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> HostUse {
        let total = self.total_ticks.saturating_sub(earlier.total_ticks).max(1);
        HostUse {
            steal: self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 / total as f64,
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The revision under test: the commit `.git/HEAD` of the repository
/// above this package names, else `unknown` (a checkout exported without
/// git).
pub fn revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read() {
        let busy = std::time::Instant::now();
        while busy.elapsed().as_millis() < 30 {
            std::hint::black_box(busy.elapsed());
        }
        assert!(cpu_seconds().expect("cpu") >= 0.0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
        assert!(host_cpus() >= 1);
    }
}
