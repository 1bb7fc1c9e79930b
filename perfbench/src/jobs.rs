//! The benchmark's workloads as lists of simulation jobs, and the
//! machines the jobs build.
//!
//! A job is one simulation: one program set on one machine. Its label
//! (`program/barrier@cores`) keys its pinned fingerprint.

use bench::experiments::{benchmarks, Scale, BENCH_CORES};
use gline_core::ClusteredBarrierNetwork;
use sim_base::config::CmpConfig;
use sim_cmp::runtime::BarrierKind;
use sim_cmp::{CoreSchedStats, SkipStats, System, SystemReport};
use sim_trace::{decode_core, encode_core, TraceSet};
use workloads::{synthetic, Workload};

use crate::timed;

/// Deadlock guard for every simulation (far beyond any job's length).
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// The workload names. `BENCHMARK.json` lists all but `imbalanced`,
/// whose host speed swings too far with the shared host's load for its
/// bound; it stays runnable by name for scheduler studies.
pub const WORKLOADS: [&str; 4] = ["paper-suite", "many-core", "imbalanced", "paper-replay"];

/// Iterations of the many-core barrier loop, per (cores, barrier kind).
/// G-line barriers cost ~10 cycles each and DSW ~10k at 1024 cores, so
/// the GL loops run far more iterations to carry a real share of host
/// time.
const MANY_CORE: [(usize, BarrierKind, u64); 4] = [
    (256, BarrierKind::Gl, 1024),
    (256, BarrierKind::Dsw, 8),
    (1024, BarrierKind::Gl, 512),
    (1024, BarrierKind::Dsw, 2),
];

/// Imbalanced loop shape: iterations and per-core stagger (core `c`
/// computes `c * stagger` cycles before each barrier).
const IMBALANCED_ITERS: u64 = 6;
const IMBALANCED_STAGGER: u32 = 1000;

/// Paper programs replayed by `paper-replay` (indices into
/// [`benchmarks`]). Kernel 6 is left out: recording it takes about four
/// times as long as recording the other five, and its replays would be
/// 70% of every pass.
const REPLAYED: [usize; 5] = [0, 1, 3, 4, 5];

/// A constructed machine: flat G-line hardware up to the transmitter
/// budget, the two-level clustered network beyond it.
pub enum Machine {
    /// Flat G-line network.
    Flat(System),
    /// Two-level clustered G-line network.
    Clustered(System<ClusteredBarrierNetwork>),
}

macro_rules! on_machine {
    ($m:expr, $s:ident => $e:expr) => {
        match $m {
            Machine::Flat($s) => $e,
            Machine::Clustered($s) => $e,
        }
    };
}

/// Scheduler and occupancy counters of one finished simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sched {
    /// Core scheduler: ticks, steps, parks.
    pub core: CoreSchedStats,
    /// Cycle skipping.
    pub skip: SkipStats,
    /// Home banks visited with a transaction in flight.
    pub home_visits: u64,
    /// Routers visited by arbitration.
    pub router_visits: u64,
}

impl std::ops::AddAssign for Sched {
    fn add_assign(&mut self, o: Sched) {
        self.core += o.core;
        self.skip += o.skip;
        self.home_visits += o.home_visits;
        self.router_visits += o.router_visits;
    }
}

impl Machine {
    /// Builds the machine for `w` with the barrier hardware its core
    /// count needs.
    pub fn exec(w: &Workload, cfg: CmpConfig) -> Machine {
        if cfg.needs_clustered_gline() {
            let hw = ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline);
            Machine::Clustered(w.into_system_with_hw(cfg, hw))
        } else {
            Machine::Flat(w.into_system(cfg))
        }
    }

    /// Runs to completion; returns the simulated cycles.
    pub fn run(&mut self) -> u64 {
        on_machine!(self, s => s.run(MAX_CYCLES)).expect("benchmark jobs halt")
    }

    /// The machine's report.
    pub fn report(&self) -> SystemReport {
        on_machine!(self, s => s.report())
    }

    /// The machine's scheduler counters.
    pub fn sched(&self) -> Sched {
        on_machine!(self, s => Sched {
            core: s.core_sched_stats(),
            skip: s.skip_stats(),
            home_visits: s.mem_sched_stats().home_visits,
            router_visits: s.noc_sched_stats().router_visits,
        })
    }
}

/// A recorded exec run, encoded as GLTR, that a replay job decodes.
struct Fixture {
    /// One encoded GLTR stream per core.
    traces: Vec<Vec<u8>>,
    /// Initial memory image of the recorded run.
    pokes: Vec<(u64, u64)>,
    /// Report of the recorded exec run.
    exec: SystemReport,
}

enum Source {
    Exec(Box<dyn Fn() -> Workload>),
    Replay(Fixture),
}

/// One simulation of a workload.
pub struct Job {
    /// `program/barrier@cores`; keys the pinned fingerprint.
    pub label: String,
    /// Core count of the machine.
    pub cores: usize,
    source: Source,
}

/// Host seconds of one set-up, by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Workload generation (`workloads`).
    pub build_s: f64,
    /// Machine construction (`into_system`, `System::replay`).
    pub construct_s: f64,
    /// GLTR decode (`sim-trace`).
    pub decode_s: f64,
}

impl Setup {
    /// Everything before the first simulated cycle.
    pub fn total(&self) -> f64 {
        self.build_s + self.construct_s + self.decode_s
    }
}

impl Job {
    fn exec(label: String, cores: usize, make: impl Fn() -> Workload + 'static) -> Job {
        Job {
            label,
            cores,
            source: Source::Exec(Box::new(make)),
        }
    }

    /// The machine configuration of this job.
    pub fn cfg(&self) -> CmpConfig {
        CmpConfig::icpp2010_with_cores(self.cores)
    }

    /// True for a replay job.
    pub fn is_replay(&self) -> bool {
        matches!(self.source, Source::Replay(_))
    }

    /// The recorded exec report a replay job must reproduce.
    pub fn exec_report(&self) -> Option<&SystemReport> {
        match &self.source {
            Source::Replay(f) => Some(&f.exec),
            Source::Exec(_) => None,
        }
    }

    /// Encoded GLTR bytes a replay job decodes (0 for exec jobs).
    pub fn trace_bytes(&self) -> usize {
        match &self.source {
            Source::Replay(f) => f.traces.iter().map(Vec::len).sum(),
            Source::Exec(_) => 0,
        }
    }

    /// Generates the workload of an exec job.
    pub fn workload(&self) -> Option<Workload> {
        match &self.source {
            Source::Exec(make) => Some(make()),
            Source::Replay(_) => None,
        }
    }

    /// Decodes the trace set of a replay job.
    pub fn trace_set(&self) -> Option<TraceSet> {
        let Source::Replay(f) = &self.source else {
            return None;
        };
        let cores = f
            .traces
            .iter()
            .map(|b| decode_core(b).expect("fixture traces decode"))
            .collect();
        Some(TraceSet {
            cores,
            pokes: f.pokes.clone(),
            workload: self.label.clone(),
        })
    }

    /// Everything before the first simulated cycle, timed by layer.
    pub fn setup(&self) -> (Machine, Setup) {
        let cfg = self.cfg();
        match &self.source {
            Source::Exec(make) => {
                let (w, build_s) = timed(make);
                let (m, construct_s) = timed(|| Machine::exec(&w, cfg));
                let t = Setup {
                    build_s,
                    construct_s,
                    decode_s: 0.0,
                };
                (m, t)
            }
            Source::Replay(_) => {
                let (set, decode_s) = timed(|| self.trace_set().expect("replay job"));
                assert!(!cfg.needs_clustered_gline(), "replay jobs use flat G-lines");
                let (m, construct_s) = timed(|| Machine::Flat(System::replay(cfg, &set)));
                let t = Setup {
                    build_s: 0.0,
                    construct_s,
                    decode_s,
                };
                (m, t)
            }
        }
    }

    /// Records this exec job once, densely, and returns the replay job
    /// that decodes and replays the recording.
    ///
    /// # Panics
    /// Panics on a replay job or a clustered machine.
    pub fn recorded(&self) -> Job {
        let w = self.workload().expect("only exec jobs are recorded");
        let cfg = self.cfg();
        assert!(!cfg.needs_clustered_gline(), "replay jobs use flat G-lines");
        let mut sys = w.into_system(cfg);
        let (_, traces) = sys.run_recorded(MAX_CYCLES).expect("benchmark jobs halt");
        Job {
            label: self.label.clone(),
            cores: self.cores,
            source: Source::Replay(Fixture {
                traces: traces.iter().map(encode_core).collect(),
                pokes: w.pokes.clone(),
                exec: sys.report(),
            }),
        }
    }
}

fn label(program: &str, kind: BarrierKind, cores: usize) -> String {
    format!("{program}/{}@{cores}", kind.label())
}

/// The jobs of the paper suite: the six Table-2 programs under DSW and
/// GL on the 32-core Table-1 machine (`figures`' Fig. 6/7 runs).
fn paper_suite() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (name, build) in benchmarks(Scale::Quick) {
        let build = std::rc::Rc::new(build);
        for kind in [BarrierKind::Dsw, BarrierKind::Gl] {
            let b = build.clone();
            jobs.push(Job::exec(
                label(name, kind, BENCH_CORES),
                BENCH_CORES,
                move || b(BENCH_CORES, kind),
            ));
        }
    }
    jobs
}

/// The exec jobs of a workload. `paper-replay` returns the exec jobs it
/// records; turn them into replay jobs with [`Job::recorded`].
pub fn jobs(workload: &str) -> Option<Vec<Job>> {
    Some(match workload {
        "paper-suite" => paper_suite(),
        // Jobs come in (DSW, GL) pairs per program.
        "paper-replay" => paper_suite()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| REPLAYED.contains(&(i / 2)))
            .map(|(_, job)| job)
            .collect(),
        "many-core" => MANY_CORE
            .iter()
            .map(|&(n, kind, iters)| {
                Job::exec(label("Synthetic", kind, n), n, move || {
                    synthetic::build(n, kind, iters)
                })
            })
            .collect(),
        "imbalanced" => BarrierKind::ALL
            .iter()
            .map(|&kind| {
                Job::exec(
                    label("Imbalanced", kind, BENCH_CORES),
                    BENCH_CORES,
                    move || {
                        synthetic::build_imbalanced(
                            BENCH_CORES,
                            kind,
                            IMBALANCED_ITERS,
                            IMBALANCED_STAGGER,
                        )
                    },
                )
            })
            .collect(),
        _ => return None,
    })
}
