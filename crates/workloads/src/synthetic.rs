//! The synthetic barrier-latency benchmark of §4.2 / Figure 5.
//!
//! Following the methodology the paper borrows from Culler, Singh &
//! Gupta: *"performance is measured as average time per barrier over a
//! loop of four consecutive barriers with no work or delays between
//! them"*. The paper executes the loop 100 000 times; tests and the
//! figure harness use fewer iterations — the per-barrier average
//! converges within a handful.

use crate::common::{barrier_env, Workload};
use sim_cmp::runtime::BarrierKind;
use sim_isa::{ProgBuilder, Reg};

/// Barriers per loop iteration (fixed by the methodology).
pub const BARRIERS_PER_ITER: u64 = 4;

/// Builds the synthetic benchmark: `iters` × 4 back-to-back barriers.
pub fn build(n_cores: usize, kind: BarrierKind, iters: u64) -> Workload {
    assert!(iters >= 1);
    let env = barrier_env(kind, n_cores);
    let progs = (0..n_cores)
        .map(|c| {
            let mut b = ProgBuilder::new();
            let iter_reg = Reg(10);
            b.li(iter_reg, iters as i64);
            b.label("loop");
            for k in 0..BARRIERS_PER_ITER {
                env.emit(&mut b, c, &format!("k{k}"));
            }
            b.addi(iter_reg, iter_reg, -1);
            b.bne(iter_reg, Reg::ZERO, "loop");
            b.halt();
            b.build()
        })
        .collect();
    Workload {
        name: "Synthetic".into(),
        progs,
        pokes: Vec::new(),
        barriers_per_core: iters * BARRIERS_PER_ITER,
        kind,
    }
}

/// Average cycles per barrier for a finished run of `build(...)`.
pub fn cycles_per_barrier(total_cycles: u64, iters: u64) -> f64 {
    total_cycles as f64 / (iters * BARRIERS_PER_ITER) as f64
}

/// The imbalanced variant: before each barrier, core `c` computes for
/// `c * stagger` cycles, so the cores arrive spread out in time and the
/// early arrivals sit in the barrier's wait loop. This is the shape of a
/// real barrier-period — compute with load imbalance, then
/// synchronization — and makes the run's cost be dominated by barrier
/// *waiting* rather than by arrival contention, the regime the
/// quiescence-skipping scheduler targets (and the one Figure 6's
/// application runs live in).
pub fn build_imbalanced(n_cores: usize, kind: BarrierKind, iters: u64, stagger: u32) -> Workload {
    assert!(iters >= 1);
    let env = barrier_env(kind, n_cores);
    let progs = (0..n_cores)
        .map(|c| {
            let mut b = ProgBuilder::new();
            let iter_reg = Reg(10);
            b.li(iter_reg, iters as i64);
            b.label("loop");
            for k in 0..BARRIERS_PER_ITER {
                if c > 0 {
                    b.busy(c as u32 * stagger);
                }
                env.emit(&mut b, c, &format!("k{k}"));
            }
            b.addi(iter_reg, iter_reg, -1);
            b.bne(iter_reg, Reg::ZERO, "loop");
            b.halt();
            b.build()
        })
        .collect();
    Workload {
        name: "Synthetic-imbalanced".into(),
        progs,
        pokes: Vec::new(),
        barriers_per_core: iters * BARRIERS_PER_ITER,
        kind,
    }
}

/// The scheduler-bench matrix: for every barrier implementation
/// (GL, CSW, DSW), the contended variant (back-to-back barriers, all
/// cores arriving together — the coherence-bound regime) and the
/// imbalanced variant (staggered arrivals — the wait-bound regime).
/// Each entry is `(label, workload)`; labels are stable and unique, so
/// benches and sweep jobs can key results by them.
pub fn barrier_matrix(n_cores: usize, iters: u64, stagger: u32) -> Vec<(&'static str, Workload)> {
    let mut out = Vec::new();
    for kind in BarrierKind::ALL {
        let (contended, imbalanced) = match kind {
            BarrierKind::Gl => ("contended GL", "imbalanced GL"),
            BarrierKind::Csw => ("contended CSW", "imbalanced CSW"),
            BarrierKind::Dsw => ("contended DSW", "imbalanced DSW"),
        };
        out.push((contended, build(n_cores, kind, iters)));
        out.push((imbalanced, build_imbalanced(n_cores, kind, iters, stagger)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::CmpConfig;

    fn run(kind: BarrierKind, n: usize, iters: u64) -> f64 {
        let w = build(n, kind, iters);
        let mut sys = w.into_system(CmpConfig::icpp2010_with_cores(n));
        let cycles = sys.run(100_000_000).expect("run completes");
        if kind == BarrierKind::Gl {
            assert_eq!(sys.report().gl_barriers, iters * BARRIERS_PER_ITER);
        }
        cycles_per_barrier(cycles, iters)
    }

    #[test]
    fn barrier_matrix_covers_every_kind_and_shape() {
        let m = barrier_matrix(4, 2, 100);
        assert_eq!(m.len(), 6);
        let labels: Vec<_> = m.iter().map(|(l, _)| *l).collect();
        for l in [
            "contended GL",
            "imbalanced GL",
            "contended CSW",
            "imbalanced CSW",
            "contended DSW",
            "imbalanced DSW",
        ] {
            assert!(labels.contains(&l), "missing {l}");
        }
        for (_, w) in &m {
            assert_eq!(w.progs.len(), 4);
        }
    }

    #[test]
    fn gl_latency_is_small_and_flat() {
        let at4 = run(BarrierKind::Gl, 4, 20);
        let at16 = run(BarrierKind::Gl, 16, 20);
        // Per barrier: ~4 network cycles + the spin/exit instructions.
        assert!(at4 < 20.0, "GL at 4 cores: {at4}");
        assert!(at16 < 20.0, "GL at 16 cores: {at16}");
        assert!(
            (at16 - at4).abs() < 4.0,
            "GL must be ~flat in core count: {at4} vs {at16}"
        );
    }

    #[test]
    fn software_barriers_grow_with_cores() {
        let csw4 = run(BarrierKind::Csw, 4, 5);
        let csw16 = run(BarrierKind::Csw, 16, 5);
        assert!(
            csw16 > 2.0 * csw4,
            "CSW must blow up with cores: {csw4} → {csw16}"
        );
        let dsw4 = run(BarrierKind::Dsw, 4, 5);
        let dsw16 = run(BarrierKind::Dsw, 16, 5);
        assert!(
            dsw16 > dsw4,
            "DSW grows too (logarithmically): {dsw4} → {dsw16}"
        );
        // The Figure-5 ordering at 16 cores.
        let gl16 = run(BarrierKind::Gl, 16, 5);
        assert!(
            gl16 < dsw16 && dsw16 < csw16,
            "GL {gl16} < DSW {dsw16} < CSW {csw16}"
        );
    }
}
