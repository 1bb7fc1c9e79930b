//! Lockstep cross-engine validation (DESIGN.md §12).
//!
//! The replay engine's contract is *bit-identity*: replaying a recorded
//! run on any engine configuration — quiescence skipping on or off,
//! active-set scheduling on or off — must reproduce
//! the exec-mode run exactly. This module turns "exactly" into
//! comparators that, on mismatch, pinpoint the **first divergence** as
//! a structured `(cycle, core, field)` report instead of dumping two
//! multi-kilobyte structs and leaving the diff to the reader:
//!
//! * [`compare_reports`] — field-by-field [`SystemReport`] comparison
//!   (per-core time breakdowns, traffic classes, cache counters, ...).
//! * [`compare_memory`] — architectural memory comparison over a caller
//!   -chosen address set (a report can collide while memory diverges,
//!   and vice versa).
//! * [`compare_events`] — full event-trace comparison for traced runs.
//!
//! `tests/replay_lockstep.rs` drives these across the workload-family ×
//! scheduler-toggle matrix. The design follows the
//! validation harness of gpucachesim (`validate/` crate): run the
//! reference and the candidate through the same observable extraction,
//! then compare structurally rather than textually.

use gline_core::BarrierHw;
use sim_base::stats::{MsgClass, TimeCat};
use sim_base::trace::{Event, TraceSink};
use sim_base::Cycle;
use sim_cmp::{System, SystemReport};
use std::fmt;

/// The first point where two runs disagree.
///
/// `cycle`/`core` are filled when the diverging observable is anchored
/// to one (an event's timestamp, a per-core counter); whole-run scalars
/// leave them `None`.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Cycle of the diverging observable, when it has one.
    pub cycle: Option<Cycle>,
    /// Core (or tile) the diverging observable belongs to, when any.
    pub core: Option<usize>,
    /// Which observable diverged, e.g. `per_core[3].time[Barrier]`.
    pub field: String,
    /// The reference run's value.
    pub expected: String,
    /// The candidate run's value.
    pub actual: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence")?;
        if let Some(c) = self.cycle {
            write!(f, " at cycle {c}")?;
        }
        if let Some(c) = self.core {
            write!(f, " on core {c}")?;
        }
        write!(
            f,
            ": {} — expected {}, got {}",
            self.field, self.expected, self.actual
        )
    }
}

/// Builds a [`Divergence`] from any pair of displayable values.
fn diverge<T: fmt::Debug>(
    cycle: Option<Cycle>,
    core: Option<usize>,
    field: impl Into<String>,
    expected: &T,
    actual: &T,
) -> Divergence {
    Divergence {
        cycle,
        core,
        field: field.into(),
        expected: format!("{expected:?}"),
        actual: format!("{actual:?}"),
    }
}

/// Compares two values, producing the structured divergence on mismatch.
macro_rules! check {
    ($cycle:expr, $core:expr, $field:expr, $exp:expr, $act:expr) => {
        if $exp != $act {
            return Err(diverge($cycle, $core, $field, &$exp, &$act));
        }
    };
}

/// Field-by-field [`SystemReport`] comparison with first-divergence
/// reporting. Scalar totals are checked *after* the per-core fields so
/// a per-core mismatch is attributed to its core, not to the aggregate
/// it rolls up into.
pub fn compare_reports(expected: &SystemReport, actual: &SystemReport) -> Result<(), Divergence> {
    check!(None, None, "cycles", expected.cycles, actual.cycles);
    check!(
        None,
        None,
        "per_core.len",
        expected.per_core.len(),
        actual.per_core.len()
    );
    for (i, (e, a)) in expected.per_core.iter().zip(&actual.per_core).enumerate() {
        for cat in TimeCat::ALL {
            check!(
                None,
                Some(i),
                format!("per_core[{i}].time[{}]", cat.label()),
                e[cat],
                a[cat]
            );
        }
    }
    for cat in TimeCat::ALL {
        check!(
            None,
            None,
            format!("total_time[{}]", cat.label()),
            expected.total_time[cat],
            actual.total_time[cat]
        );
    }
    for class in MsgClass::ALL {
        check!(
            None,
            None,
            format!("traffic[{}]", class.label()),
            expected.traffic[class],
            actual.traffic[class]
        );
    }
    check!(
        None,
        None,
        "flit_hops",
        expected.flit_hops,
        actual.flit_hops
    );
    check!(
        None,
        None,
        "gl_barriers",
        expected.gl_barriers,
        actual.gl_barriers
    );
    check!(
        None,
        None,
        "gl_mean_latency",
        expected.gl_mean_latency,
        actual.gl_mean_latency
    );
    check!(
        None,
        None,
        "gl_signals",
        expected.gl_signals,
        actual.gl_signals
    );
    check!(
        None,
        None,
        "instructions",
        expected.instructions,
        actual.instructions
    );
    check!(None, None, "l1_hits", expected.l1_hits, actual.l1_hits);
    check!(
        None,
        None,
        "l1_misses",
        expected.l1_misses,
        actual.l1_misses
    );
    check!(None, None, "l2_hits", expected.l2_hits, actual.l2_hits);
    check!(
        None,
        None,
        "l2_misses",
        expected.l2_misses,
        actual.l2_misses
    );
    // Backstop: `SystemReport` is `PartialEq`, so a field added later
    // without a check above still fails loudly (just less precisely).
    check!(None, None, "report (full struct)", expected, actual);
    Ok(())
}

/// Compares architectural memory word-by-word over `addrs`.
///
/// The address set is the caller's contract: for the synthetic
/// workloads, the barrier environment plus the data region (pokes and
/// everything a program can reach). Engines are compared *after* both
/// runs complete, so only final state matters.
pub fn compare_memory<B1, S1, B2, S2>(
    expected: &System<B1, S1>,
    actual: &System<B2, S2>,
    addrs: impl IntoIterator<Item = u64>,
) -> Result<(), Divergence>
where
    B1: BarrierHw,
    S1: TraceSink,
    B2: BarrierHw,
    S2: TraceSink,
{
    for addr in addrs {
        check!(
            None,
            None,
            format!("mem[{addr:#x}]"),
            expected.peek_word(addr),
            actual.peek_word(addr)
        );
    }
    Ok(())
}

/// The core (or tile) an event is anchored to, for divergence reports.
fn event_core(ev: &Event) -> Option<usize> {
    match ev {
        Event::CtrlTransition { core, .. }
        | Event::BarrierArrive { core, .. }
        | Event::BarrierRelease { core, .. }
        | Event::L1Access { core, .. }
        | Event::L1Transition { core, .. }
        | Event::Retire { core, .. }
        | Event::Stall { core, .. }
        | Event::Region { core, .. } => Some(core.0 as usize),
        Event::DirTransition { home, .. } | Event::L2Access { home, .. } => Some(home.0 as usize),
        Event::NocSend { src, .. } => Some(src.0 as usize),
        Event::NocDeliver { dst, .. } | Event::NocFlitHop { at: dst, .. } => Some(dst.0 as usize),
        Event::GlineAssert { .. }
        | Event::GlineSense { .. }
        | Event::BarrierComplete { .. }
        | Event::SwArrive { .. }
        | Event::SwRelease { .. } => None,
    }
}

/// Compares two full event traces in emission order, reporting the
/// first index where they disagree (or the first missing/extra event).
pub fn compare_events(
    expected: &[(Cycle, Event)],
    actual: &[(Cycle, Event)],
) -> Result<(), Divergence> {
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            return Err(Divergence {
                cycle: Some(e.0),
                core: event_core(&e.1).or_else(|| event_core(&a.1)),
                field: format!("event[{i}]"),
                expected: format!("@{} {:?}", e.0, e.1),
                actual: format!("@{} {:?}", a.0, a.1),
            });
        }
    }
    check!(
        expected.last().map(|(c, _)| *c),
        None,
        "event count",
        expected.len(),
        actual.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_reports_pass() {
        let r = SystemReport {
            cycles: 10,
            per_core: vec![Default::default(); 2],
            total_time: Default::default(),
            traffic: Default::default(),
            flit_hops: 0,
            gl_barriers: 1,
            gl_mean_latency: 4.0,
            gl_signals: 8,
            instructions: 100,
            l1_hits: 5,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 0,
        };
        compare_reports(&r, &r.clone()).unwrap();
    }

    #[test]
    fn per_core_mismatch_names_the_core_and_category() {
        let mut a = SystemReport {
            cycles: 10,
            per_core: vec![Default::default(); 4],
            total_time: Default::default(),
            traffic: Default::default(),
            flit_hops: 0,
            gl_barriers: 0,
            gl_mean_latency: 0.0,
            gl_signals: 0,
            instructions: 0,
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
        };
        let mut b = a.clone();
        a.per_core[2].add(TimeCat::Barrier, 7);
        b.per_core[2].add(TimeCat::Barrier, 9);
        let d = compare_reports(&a, &b).unwrap_err();
        assert_eq!(d.core, Some(2));
        assert!(d.field.contains("per_core[2]"), "field: {}", d.field);
        assert!(d.field.contains("Barrier"), "field: {}", d.field);
        assert_eq!(d.expected, "7");
        assert_eq!(d.actual, "9");
    }

    #[test]
    fn event_mismatch_reports_cycle_and_core() {
        use sim_base::CoreId;
        let e1 = vec![
            (
                3,
                Event::BarrierArrive {
                    ctx: 0,
                    core: CoreId(1),
                },
            ),
            (
                5,
                Event::BarrierRelease {
                    ctx: 0,
                    core: CoreId(1),
                },
            ),
        ];
        let mut e2 = e1.clone();
        e2[1] = (
            6,
            Event::BarrierRelease {
                ctx: 0,
                core: CoreId(1),
            },
        );
        let d = compare_events(&e1, &e2).unwrap_err();
        assert_eq!(d.cycle, Some(5));
        assert_eq!(d.core, Some(1));
        assert_eq!(d.field, "event[1]");
        compare_events(&e1, &e1.clone()).unwrap();
    }

    #[test]
    fn length_mismatch_is_reported() {
        let e1 = vec![(3, Event::BarrierComplete { ctx: 0, latency: 4 })];
        let d = compare_events(&e1, &[]).unwrap_err();
        assert_eq!(d.field, "event count");
    }
}
