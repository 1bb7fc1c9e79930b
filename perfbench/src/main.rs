//! End-to-end and per-layer benchmark of the G-line CMP simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one simulation thread. `--trace 0` times whole
//! simulations for the end-to-end metrics; `--trace 1` makes the
//! separate traced run that gives the per-layer metrics. The last line
//! of stdout is the JSON result; everything else goes to stderr. See
//! `README.md` beside this file for the workloads and metrics.

mod check;
mod host;
mod jobs;
mod layers;
mod run;

use std::process::ExitCode;
use std::time::Instant;

use sim_base::rng::SplitMix64;

/// Runs `f` and returns its result with the host seconds it took. The
/// benchmark's only clock: it times the simulator from outside.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // simlint: allow(wall-clock) host time measured around public calls.
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(jobs) = jobs::jobs(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            jobs::WORKLOADS
        );
        return ExitCode::from(2);
    };
    // The seed fixes the order in which the jobs run: the simulated
    // inputs are the paper's, so each run's results are pinned, while
    // the host sees a different but reproducible sequence per seed.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    SplitMix64::new(args.seed).shuffle(&mut order);
    let out = run::run(&args.workload, jobs, &order, args.seconds, args.trace);
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
