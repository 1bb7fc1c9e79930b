//! Lockstep cross-engine validation: the replay engine's bit-identity
//! contract (DESIGN.md §12), driven across the full workload-family ×
//! scheduler-toggle matrix.
//!
//! Each workload is run once in exec mode (the reference), recorded via
//! [`run_recorded`], and then replayed under every combination of
//! quiescence skipping (on/off) and active-set scheduling (on/off).
//! Every replay must reproduce the reference [`SystemReport`] **and**
//! the final architectural memory exactly; on mismatch,
//! [`bench::validate`] reports the first divergence as a structured
//! `(cycle, core, field)` triple. A traced exec run and a traced replay
//! must also emit identical event streams.
//!
//! [`run_recorded`]: gline_cmp::cmp::System::run_recorded

use bench::validate::{compare_events, compare_memory, compare_reports};
use gline_cmp::base::config::CmpConfig;
use gline_cmp::base::trace::{ChromeTraceSink, Tracer};
use gline_cmp::bench_workloads::common::{Workload, BARRIER_BASE, DATA_BASE};
use gline_cmp::bench_workloads::synthetic;
use gline_cmp::cmp::{System, SystemReport};
use gline_cmp::trace::TraceSet;

const CORES: usize = 8;
const MAX_CYCLES: u64 = 10_000_000;

/// The synthetic barrier matrix: every barrier family (GL, CSW, DSW) in
/// both contention shapes.
fn matrix() -> Vec<(&'static str, Workload)> {
    synthetic::barrier_matrix(CORES, 2, 37)
}

fn cfg() -> CmpConfig {
    CmpConfig::icpp2010_with_cores(CORES)
}

/// Every word either side could have touched: the barrier environment
/// plus the workload data region (pokes all land in these windows; the
/// generators allocate from `DATA_BASE` upward).
fn addrs(w: &Workload) -> impl Iterator<Item = u64> + '_ {
    let barrier = (BARRIER_BASE..BARRIER_BASE + 0x1000).step_by(8);
    let data = (DATA_BASE..DATA_BASE + 0x1_0000).step_by(8);
    let pokes = w.pokes.iter().map(|&(a, _)| a);
    barrier.chain(data).chain(pokes)
}

/// Runs `w` in exec mode and returns the reference observables.
fn exec_reference(w: &Workload) -> (SystemReport, System) {
    let mut sys = w.into_system(cfg());
    sys.run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (sys.report(), sys)
}

/// Records `w` and returns the trace set plus the recording run's own
/// report (recording must be an observer, not a participant).
fn record(w: &Workload) -> (TraceSet, SystemReport) {
    let mut sys = w.into_system(cfg());
    let (_, traces) = sys
        .run_recorded(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let set = TraceSet {
        cores: traces,
        pokes: w.pokes.clone(),
        workload: w.name.clone(),
    };
    (set, sys.report())
}

#[test]
fn replay_is_bit_identical_across_toggles() {
    for (name, w) in &matrix() {
        let (exec_report, exec_sys) = exec_reference(w);
        let (set, rec_report) = record(w);
        compare_reports(&exec_report, &rec_report)
            .unwrap_or_else(|d| panic!("{name}: recording perturbed the run: {d}"));

        for skip in [true, false] {
            for active in [true, false] {
                let label = format!("{name} skip={skip} active_set={active}");
                let mut sys = System::replay(cfg(), &set);
                sys.set_skip_enabled(skip);
                sys.set_active_set_enabled(active);
                sys.run(MAX_CYCLES)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                compare_reports(&exec_report, &sys.report())
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
                compare_memory(&exec_sys, &sys, addrs(w))
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
            }
        }
    }
}

#[test]
fn replay_event_trace_matches_exec_serially() {
    for (name, w) in &matrix() {
        let (set, _) = record(w);

        let exec_tracer = Tracer::new(ChromeTraceSink::new());
        let mut exec_sys = System::traced(cfg(), w.progs.clone(), exec_tracer.clone());
        for &(addr, val) in &w.pokes {
            exec_sys.poke_word(addr, val);
        }
        exec_sys
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        let replay_tracer = Tracer::new(ChromeTraceSink::new());
        let mut replay_sys = System::replay_traced(cfg(), &set, replay_tracer.clone());
        replay_sys
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{name} (replay): {e}"));

        let exec_events = exec_tracer.with_sink(|s| s.events().to_vec());
        let replay_events = replay_tracer.with_sink(|s| s.events().to_vec());
        assert!(
            !exec_events.is_empty(),
            "{name}: traced exec run recorded no events"
        );
        compare_events(&exec_events, &replay_events)
            .unwrap_or_else(|d| panic!("{name}: event traces diverged: {d}"));
        compare_reports(&exec_sys.report(), &replay_sys.report())
            .unwrap_or_else(|d| panic!("{name} (traced): {d}"));
    }
}
