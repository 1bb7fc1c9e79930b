//! Host-side diagnostics read from `/proc`: on-CPU time and runqueue
//! wait of the simulation thread, steal time of the machine, and the
//! process's peak resident set.
//!
//! These explain noise; they are not performance results. On a host
//! without `/proc` every reader returns `None` and the benchmark reports
//! the diagnostic as 0.

use std::fs;

/// Snapshot of the counters that advance while the benchmark runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// Seconds this thread has run on a CPU.
    pub oncpu_s: f64,
    /// Seconds this thread has waited on a runqueue.
    pub rq_wait_s: f64,
    /// Seconds of steal time summed over the machine's CPUs.
    pub steal_s: f64,
}

impl HostSample {
    /// Reads the counters now.
    pub fn now() -> HostSample {
        let (oncpu_s, rq_wait_s) = thread_schedstat().unwrap_or((0.0, 0.0));
        HostSample {
            oncpu_s,
            rq_wait_s,
            steal_s: steal_seconds().unwrap_or(0.0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            oncpu_s: self.oncpu_s - earlier.oncpu_s,
            rq_wait_s: self.rq_wait_s - earlier.rq_wait_s,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }
}

/// `(on-CPU seconds, runqueue-wait seconds)` of the calling thread.
fn thread_schedstat() -> Option<(f64, f64)> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<f64>().ok());
    let run_ns = it.next()??;
    let wait_ns = it.next()??;
    Some((run_ns / 1e9, wait_ns / 1e9))
}

/// Steal time of all CPUs, from the aggregate `cpu` line of `/proc/stat`
/// (eighth value, in clock ticks of 1/100 s).
fn steal_seconds() -> Option<f64> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    let line = s.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak resident set to the current one, so a later
/// [`peak_rss_mb`] covers only what ran after this call. Returns false
/// when the kernel refused the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
