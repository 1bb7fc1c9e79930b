//! Correctness of every simulated result: pinned fingerprints and the
//! replay-against-exec comparison, tallied into `success_rate`.

use bench::validate::compare_reports;
use sim_base::stats::MsgClass;
use sim_cmp::SystemReport;

/// The simulated quantities a run must reproduce exactly. The simulator
/// is deterministic, so any change to them is a change to the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired by all cores.
    pub instructions: u64,
    /// NoC messages by class: request, reply, coherence.
    pub msgs: [u64; 3],
    /// Flit × link-hop products.
    pub flit_hops: u64,
    /// G-line barrier episodes completed (context 0).
    pub gl_barriers: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished run.
    pub fn of(r: &SystemReport) -> Fingerprint {
        Fingerprint {
            cycles: r.cycles,
            instructions: r.instructions,
            msgs: MsgClass::ALL.map(|c| r.traffic[c]),
            flit_hops: r.flit_hops,
            gl_barriers: r.gl_barriers,
        }
    }

    /// The fingerprint as a row of [`PINNED`], for re-pinning after an
    /// intended model change.
    pub fn pin_row(&self, label: &str) -> String {
        format!(
            "(\"{label}\", fp({}, {}, {:?}, {}, {})),",
            self.cycles, self.instructions, self.msgs, self.flit_hops, self.gl_barriers
        )
    }
}

const fn fp(
    cycles: u64,
    instructions: u64,
    msgs: [u64; 3],
    flit_hops: u64,
    gl_barriers: u64,
) -> Fingerprint {
    Fingerprint {
        cycles,
        instructions,
        msgs,
        flit_hops,
        gl_barriers,
    }
}

/// Expected fingerprint of every simulation the benchmark runs, keyed by
/// job label (`program/barrier@cores`). Replay jobs share the label of
/// the exec job they were recorded from: replay must reproduce it.
pub const PINNED: &[(&str, Fingerprint)] = &[
    (
        "EM3D/DSW@32",
        fp(92824, 2410640, [19849, 21007, 39656], 302198, 0),
    ),
    (
        "EM3D/GL@32",
        fp(59002, 1410004, [16111, 16391, 31412], 252919, 40),
    ),
    (
        "Imbalanced/CSW@32",
        fp(756985, 17907535, [3006, 3078, 5948], 51951, 0),
    ),
    (
        "Imbalanced/DSW@32",
        fp(757307, 18291040, [2214, 2622, 4306], 23885, 0),
    ),
    ("Imbalanced/GL@32", fp(744156, 23818408, [0, 0, 0], 0, 24)),
    (
        "Kernel 2/DSW@32",
        fp(51262, 1841680, [4249, 4956, 8798], 51670, 0),
    ),
    ("Kernel 2/GL@32", fp(15032, 497600, [372, 372, 0], 2784, 40)),
    (
        "Kernel 3/DSW@32",
        fp(47464, 1720544, [4125, 4832, 8798], 50742, 0),
    ),
    ("Kernel 3/GL@32", fp(11020, 366802, [248, 248, 0], 1856, 40)),
    (
        "Kernel 6/DSW@32",
        fp(785544, 14019646, [266558, 271604, 533826], 4157236, 0),
    ),
    (
        "Kernel 6/GL@32",
        fp(577989, 7501924, [248381, 248381, 492762], 3955720, 254),
    ),
    (
        "OCEAN/DSW@32",
        fp(71984, 1184062, [13846, 14295, 26582], 196922, 0),
    ),
    (
        "OCEAN/GL@32",
        fp(62360, 1022778, [12717, 12903, 24380], 183306, 12),
    ),
    (
        "Synthetic/DSW@1024",
        fp(82711, 115115363, [27076, 31700, 58242], 1434924, 0),
    ),
    (
        "Synthetic/DSW@256",
        fp(129295, 44762306, [26493, 30783, 60098], 768490, 0),
    ),
    ("Synthetic/GL@1024", fp(19456, 38799360, [0, 0, 0], 0, 2048)),
    ("Synthetic/GL@256", fp(38912, 19399168, [0, 0, 0], 0, 4096)),
    (
        "UNSTRUCTURED/DSW@32",
        fp(120983, 1306580, [38279, 39242, 75652], 611064, 0),
    ),
    (
        "UNSTRUCTURED/GL@32",
        fp(113995, 1332388, [37510, 38302, 74172], 601527, 8),
    ),
];

/// Looks up the pinned fingerprint of a job.
pub fn pinned(label: &str) -> Option<&'static Fingerprint> {
    PINNED.iter().find(|(l, _)| *l == label).map(|(_, f)| f)
}

/// Tally of checked simulations.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
}

/// What is wrong with one finished simulation: its fingerprint against
/// the pinned one and, for a replay, its report against the report of
/// the exec run it was recorded from. Empty when it is correct.
pub fn problems(
    label: &str,
    report: &SystemReport,
    expected: Option<&Fingerprint>,
    exec: Option<&SystemReport>,
) -> Vec<String> {
    let actual = Fingerprint::of(report);
    let mut out = Vec::new();
    match expected {
        Some(e) if *e == actual => {}
        Some(e) => out.push(format!(
            "fingerprint mismatch: expected {e:?}, got {actual:?}; re-pin with {}",
            actual.pin_row(label)
        )),
        None => out.push(format!(
            "no pinned fingerprint; pin with {}",
            actual.pin_row(label)
        )),
    }
    if let Some(exec) = exec {
        if let Err(d) = compare_reports(exec, report) {
            out.push(format!("replay diverges from exec: {d}"));
        }
    }
    out
}

impl Checker {
    /// Tallies one simulation with the [`problems`] found in it, and
    /// describes each on stderr. Returns whether it passed.
    pub fn record(&mut self, label: &str, problems: &[String]) -> bool {
        self.attempted += 1;
        for p in problems {
            eprintln!("[check] {label}: {p}");
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
        problems.is_empty()
    }

    /// Checks one finished simulation (see [`problems`]) and tallies it.
    pub fn check(
        &mut self,
        label: &str,
        report: &SystemReport,
        expected: Option<&Fingerprint>,
        exec: Option<&SystemReport>,
    ) -> bool {
        self.record(label, &problems(label, report, expected, exec))
    }

    /// Simulations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Simulations that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of checked simulations that passed (1.0 before any check).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{jobs, WORKLOADS};
    use sim_base::config::CmpConfig;
    use sim_cmp::runtime::BarrierKind;
    use sim_cmp::System;
    use sim_trace::TraceSet;
    use workloads::synthetic;

    /// A small GL barrier loop: its exec report, and the report of a
    /// replay of its recording.
    fn exec_and_replay() -> (SystemReport, SystemReport) {
        let cfg = CmpConfig::icpp2010_with_cores(4);
        let w = synthetic::build_imbalanced(4, BarrierKind::Gl, 3, 50);
        let mut exec = w.into_system(cfg);
        let (_, cores) = exec.run_recorded(1_000_000).expect("halts");
        let set = TraceSet {
            cores,
            pokes: w.pokes.clone(),
            workload: w.name.clone(),
        };
        let mut replay = System::replay(cfg, &set);
        replay.run(1_000_000).expect("halts");
        (exec.report(), replay.report())
    }

    #[test]
    fn matching_fingerprint_and_replay_pass() {
        let (exec, replay) = exec_and_replay();
        let mut c = Checker::default();
        assert!(c.check("loop", &exec, Some(&Fingerprint::of(&exec)), None));
        assert!(c.check("loop", &replay, Some(&Fingerprint::of(&exec)), Some(&exec)));
        assert_eq!((c.attempted(), c.failed()), (2, 0));
        assert_eq!(c.success_rate(), 1.0);
    }

    #[test]
    fn wrong_fingerprint_lowers_success_rate() {
        let (exec, _) = exec_and_replay();
        let mut wrong = Fingerprint::of(&exec);
        wrong.flit_hops += 1;
        let mut c = Checker::default();
        assert!(c.check("right", &exec, Some(&Fingerprint::of(&exec)), None));
        assert!(!c.check("wrong", &exec, Some(&wrong), None));
        assert!(!c.check("unpinned", &exec, None, None));
        assert_eq!(c.failed(), 2);
        assert!((c.success_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replay_exec_divergence_lowers_success_rate() {
        let (exec, replay) = exec_and_replay();
        // The exec run the replay is checked against charged core 0 one
        // more busy cycle: the reports diverge although the replay still
        // matches its pinned fingerprint.
        let mut diverged = exec.clone();
        diverged.per_core[0].add(sim_base::stats::TimeCat::Busy, 1);
        let pin = Fingerprint::of(&exec);
        let mut c = Checker::default();
        assert!(!c.check("replay", &replay, Some(&pin), Some(&diverged)));
        assert!(c.check("replay", &replay, Some(&pin), Some(&exec)));
        assert_eq!(c.success_rate(), 0.5);
    }

    #[test]
    fn every_job_of_every_workload_is_pinned() {
        for w in WORKLOADS {
            for job in jobs(w).expect("known workload") {
                assert!(pinned(&job.label).is_some(), "{w}: {} unpinned", job.label);
            }
        }
        assert!(jobs("no-such-workload").is_none());
    }
}
