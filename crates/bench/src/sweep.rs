//! A dependency-free parallel sweep engine.
//!
//! The experiments in this crate are embarrassingly parallel: every
//! `(benchmark × barrier kind × core count)` point is an independent
//! simulation. [`sweep`] fans a slice of such jobs across scoped
//! `std::thread` workers pulling from a shared atomic queue, and places
//! each result back at its job's index — so the output order (and
//! therefore every rendered table, figure, and JSON file) is
//! **bit-identical** to the serial run regardless of worker count or
//! scheduling. Each simulation itself stays single-threaded and
//! deterministic; only the fan-out is concurrent.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the host's available parallelism (1 if
/// unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A malformed `--jobs` flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobsError {
    /// `--jobs` was the last argument.
    Missing,
    /// The value is not a positive integer (`0` included).
    Invalid(String),
}

impl std::fmt::Display for JobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobsError::Missing => write!(f, "--jobs needs a value (a positive integer)"),
            JobsError::Invalid(v) => {
                write!(f, "--jobs needs a positive integer, got `{v}`")
            }
        }
    }
}

impl std::error::Error for JobsError {}

/// Parses a `--jobs N` flag out of `args`, defaulting to
/// [`default_workers`] when the flag is absent. `--jobs 1` forces the
/// serial path.
///
/// # Errors
/// [`JobsError`] when the flag has no value or the value is not a
/// positive integer.
pub fn workers_from_args(args: &[String]) -> Result<usize, JobsError> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(default_workers());
    };
    let v = args.get(i + 1).ok_or(JobsError::Missing)?;
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(JobsError::Invalid(v.clone())),
    }
}

/// Host-parallelism provenance for `BENCH_*.json` outputs: how many
/// cores the host advertised and how many workers the producing process
/// actually used. Benchmark JSON is meaningless for cross-host
/// comparison without this, so every writer embeds it under a `host`
/// key.
pub fn host_json(workers_used: usize) -> sim_base::json::Json {
    sim_base::json::Json::obj([
        (
            "available_cores",
            sim_base::json::Json::from(default_workers() as u64),
        ),
        (
            "workers_used",
            sim_base::json::Json::from(workers_used as u64),
        ),
    ])
}

/// Runs `run` over every job and returns the results **in job order**.
///
/// With `workers <= 1` (or a single job) this is a plain serial map —
/// the parallel path produces the same `Vec` element for element, it
/// just computes them concurrently. Worker threads claim job indices
/// from a shared atomic counter (dynamic load balancing: a slow
/// simulation does not hold up the queue) and write each result into
/// its job's dedicated slot. A panicking job propagates the panic to
/// the caller when the scope joins.
pub fn sweep<J, R, F>(jobs: &[J], workers: usize, run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    // At least one worker, never more than there are jobs to divide.
    let workers = workers.clamp(1, jobs.len().max(1));
    if workers == 1 {
        return jobs.iter().map(&run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = run(&jobs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        // Skew the per-job cost so late jobs finish first under
        // parallelism; order must still match.
        let out = sweep(&jobs, 8, |&j| {
            if j < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            j * j
        });
        assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u32> = (0..37).collect();
        let serial = sweep(&jobs, 1, |&j| j.wrapping_mul(2654435761));
        let parallel = sweep(&jobs, 5, |&j| j.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_jobs() {
        let jobs = [1u8, 2, 3];
        assert_eq!(sweep(&jobs, 64, |&j| j + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_job_list() {
        let jobs: [u8; 0] = [];
        assert_eq!(sweep(&jobs, 4, |&j| j), Vec::<u8>::new());
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workers_flag_parsing() {
        assert_eq!(workers_from_args(&args(&["--jobs", "3"])), Ok(3));
        assert_eq!(workers_from_args(&[]), Ok(default_workers()));
        assert_eq!(
            workers_from_args(&args(&["--all", "--full"])),
            Ok(default_workers())
        );
    }

    #[test]
    fn malformed_jobs_flag_is_a_named_error() {
        assert_eq!(
            workers_from_args(&args(&["--all", "--jobs"])),
            Err(JobsError::Missing)
        );
        for bad in ["x", "0", "-2", "1.5", ""] {
            assert_eq!(
                workers_from_args(&args(&["--jobs", bad])),
                Err(JobsError::Invalid(bad.to_string())),
                "--jobs {bad:?}"
            );
        }
        assert_eq!(
            JobsError::Invalid("x".into()).to_string(),
            "--jobs needs a positive integer, got `x`"
        );
    }
}
