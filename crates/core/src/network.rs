//! The complete G-line barrier network for an `R × C` mesh.
//!
//! Wiring (Figure 1 of the paper), per barrier context:
//!
//! * each row has a **gather** G-line (slaves → row master) and a
//!   **release** G-line (row master → slaves);
//! * the first column has a **gather** G-line (row masters of rows ≥ 1,
//!   through their vertical-slave controllers → the vertical master at
//!   tile (0,0)) and a **release** G-line (vertical master → vertical
//!   slaves);
//! * total: `2 × (rows + 1)` G-lines per context.
//!
//! Cores interact with the network only through their `bar_reg` register:
//! writing a nonzero value announces arrival, and the register reads 0
//! once every core has arrived (the release resets it in hardware). This
//! matches the paper's programming idiom:
//!
//! ```text
//! mov 1, bar_reg        # arrival
//! loop: bnz bar_reg, loop   # wait
//! ```
//!
//! # Tracing
//!
//! The network is generic over a [`TraceSink`]; the default [`NullSink`]
//! monomorphizes every trace site away, so untraced simulation pays
//! nothing. A traced network (see [`BarrierNetwork::traced`]) emits the
//! full cycle-level story of Figure 2: G-line asserts and senses,
//! Figure-4 controller transitions, per-core arrivals/releases and the
//! episode-completion event.

use crate::controller::{MasterH, MasterV, SlaveH, SlaveV};
use crate::line::GLine;
use crate::stats::GlineStats;
use sim_base::config::GlineConfig;
use sim_base::trace::{CtrlKind, Event, GlineKind, NullSink, TraceSink, Tracer};
use sim_base::{Coord, CoreId, Cycle, Mesh2D};

/// Identifier of a barrier context (0-based). The baseline design of the
/// paper has a single context; the future-work extension multiplexes
/// several in space.
pub type CtxId = usize;

/// The pair of G-lines serving one row.
#[derive(Clone, Debug)]
struct RowNet {
    gather: GLine,
    release: GLine,
}

/// One independent barrier context: its own G-lines, controllers and
/// `bar_reg` bank.
#[derive(Clone, Debug)]
struct Context<S: TraceSink> {
    /// Index of this context within the network (for trace events).
    ctx_id: u32,
    /// Participation mask (the §5 "several barrier executions coexist"
    /// extension: a context may synchronize only a subset of cores).
    members: Vec<bool>,
    /// Rows containing at least one member (only their controllers run).
    row_active: Vec<bool>,
    num_members: u32,
    bar_reg: Vec<u64>,
    /// Horizontal slaves, indexed by core; `None` in column 0.
    slave_h: Vec<Option<SlaveH>>,
    /// One horizontal master per row.
    master_h: Vec<MasterH>,
    /// Vertical slaves for rows `1..R` (index `row - 1`).
    slave_v: Vec<SlaveV>,
    master_v: MasterV,
    rows: Vec<RowNet>,
    v_gather: GLine,
    v_release: GLine,
    // Episode bookkeeping for statistics.
    arrived: u32,
    outstanding: u32,
    first_arrival: Cycle,
    last_arrival: Cycle,
    stats: GlineStats,
    tracer: Tracer<S>,
    /// Memoized [`is_quiescent`](Self::is_quiescent), recomputed at
    /// every mutation point (end of tick, arrival, gated release) so it
    /// is always *exact* — `next_event` through the memo answers
    /// identically to the direct computation, and a quiescent tick can
    /// early-return (a provable state- and trace-no-op).
    quiescent: bool,
}

impl<S: TraceSink> Context<S> {
    fn new(
        mesh: Mesh2D,
        cfg: GlineConfig,
        root_gated: bool,
        members: Vec<bool>,
        ctx_id: u32,
        tracer: Tracer<S>,
    ) -> Context<S> {
        assert_eq!(
            members.len(),
            mesh.num_tiles(),
            "one membership bit per core"
        );
        let num_members = members.iter().filter(|&&m| m).count() as u32;
        assert!(
            num_members >= 1,
            "a barrier context needs at least one member"
        );
        let row_active: Vec<bool> = (0..mesh.rows)
            .map(|r| (0..mesh.cols).any(|c| members[mesh.id_of(Coord::new(r, c)).index()]))
            .collect();
        let member_slaves_in_row = |r: u16| -> u32 {
            (1..mesh.cols)
                .filter(|&c| members[mesh.id_of(Coord::new(r, c)).index()])
                .count() as u32
        };
        let (rows, cols) = (mesh.rows as u32, mesh.cols as u32);
        let budget = |transmitters: u32| -> u32 {
            if transmitters <= cfg.max_transmitters {
                cfg.max_transmitters.max(1)
            } else {
                assert!(
                    cfg.line_latency > 1,
                    "{}×{} mesh exceeds the {}-transmitter G-line budget; use \
                     ClusteredBarrierNetwork or line_latency > 1 (repeatered lines)",
                    mesh.rows,
                    mesh.cols,
                    cfg.max_transmitters
                );
                transmitters
            }
        };
        let row_nets = (0..rows)
            .map(|_| RowNet {
                gather: GLine::new(budget(cols.saturating_sub(1)), cfg.line_latency),
                release: GLine::new(budget(1), cfg.line_latency),
            })
            .collect();
        let num_cores = mesh.num_tiles();
        let active_upper_rows = (1..mesh.rows).filter(|&r| row_active[r as usize]).count() as u32;
        let mut ctx = Context {
            ctx_id,
            bar_reg: vec![0; num_cores],
            slave_h: mesh
                .coords()
                .map(|c| (c.col > 0 && members[mesh.id_of(c).index()]).then(SlaveH::new))
                .collect(),
            master_h: (0..mesh.rows)
                .map(|r| {
                    MasterH::new(
                        member_slaves_in_row(r),
                        members[mesh.id_of(Coord::new(r, 0)).index()],
                    )
                })
                .collect(),
            slave_v: (1..rows).map(|_| SlaveV::new()).collect(),
            master_v: MasterV::new(active_upper_rows, root_gated, row_active[0]),
            rows: row_nets,
            members,
            row_active,
            num_members,
            v_gather: GLine::new(budget(rows.saturating_sub(1)), cfg.line_latency),
            v_release: GLine::new(budget(1), cfg.line_latency),
            arrived: 0,
            outstanding: 0,
            first_arrival: 0,
            last_arrival: 0,
            stats: GlineStats::default(),
            tracer,
            quiescent: false,
        };
        ctx.quiescent = ctx.is_quiescent(mesh);
        ctx
    }

    fn write_bar_reg(&mut self, core: CoreId, value: u64, now: Cycle) {
        assert!(
            value != 0,
            "bar_reg arrival writes must be nonzero (paper §3.3)"
        );
        assert!(
            self.members[core.index()],
            "{core:?} is not a member of this barrier context"
        );
        let ctx = self.ctx_id;
        let slot = &mut self.bar_reg[core.index()];
        if *slot == 0 {
            if self.arrived == 0 {
                self.first_arrival = now;
            }
            self.arrived += 1;
            self.outstanding += 1;
            self.last_arrival = now;
            self.tracer.emit(now, || Event::BarrierArrive { ctx, core });
        }
        *slot = value;
    }

    fn tick(&mut self, mesh: Mesh2D, now: Cycle) {
        if self.quiescent {
            // A quiescent tick is a provable no-op: every G-line is
            // idle, every controller is stable under held inputs (so
            // latch/transmit/receive change nothing and emit nothing)
            // and the episode guard below cannot fire. The memo is
            // exact, so skipping the scan is bit- and trace-identical.
            debug_assert!(self.is_quiescent(mesh));
            return;
        }
        let nrows = mesh.rows as usize;
        let ctx = self.ctx_id;

        // --- latch: registered cross-controller commands become visible.
        for mh in &mut self.master_h {
            mh.latch();
        }
        self.master_v.latch();
        // Snapshot MasterH flags: values produced up to the end of the
        // previous cycle, as seen by co-located vertical controllers.
        let mh_flags: Vec<bool> = self.master_h.iter().map(MasterH::flag).collect();

        // --- transmit.
        for core in mesh.tiles() {
            let Coord { row, col } = mesh.coord_of(core);
            if col > 0 {
                if let Some(sh) = self.slave_h[core.index()].as_mut() {
                    let arrived = self.bar_reg[core.index()] != 0;
                    let before = sh.state();
                    if sh.transmit(arrived) {
                        let count = self.rows[row as usize].gather.assert_tx();
                        self.tracer.emit(now, || Event::GlineAssert {
                            ctx,
                            kind: GlineKind::RowGather,
                            row,
                            count,
                        });
                    }
                    let after = sh.state();
                    if S::ENABLED && after != before {
                        self.tracer.emit(now, || Event::CtrlTransition {
                            ctx,
                            core,
                            ctrl: CtrlKind::SlaveH,
                            from: before.label(),
                            to: after.label(),
                        });
                    }
                }
            }
        }
        for r in 0..nrows {
            if !self.row_active[r] {
                continue;
            }
            let before = self.master_h[r].state();
            if self.master_h[r].transmit() {
                let count = self.rows[r].release.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::RowRelease,
                    row: r as u16,
                    count,
                });
                // The row master's own core is released by the master itself
                // (if it participates).
                let own = mesh.id_of(Coord::new(r as u16, 0));
                if self.members[own.index()] {
                    self.clear_bar_reg(own, now);
                }
            }
            let after = self.master_h[r].state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterH,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        for (r, &mh_flag) in mh_flags.iter().enumerate().skip(1) {
            if !self.row_active[r] {
                continue;
            }
            let before = self.slave_v[r - 1].state();
            if self.slave_v[r - 1].transmit(mh_flag) {
                let count = self.v_gather.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::ColGather,
                    row: 0,
                    count,
                });
            }
            let after = self.slave_v[r - 1].state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::SlaveV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        {
            let before = self.master_v.state();
            if self.master_v.transmit() {
                let count = self.v_release.assert_tx();
                self.tracer.emit(now, || Event::GlineAssert {
                    ctx,
                    kind: GlineKind::ColRelease,
                    row: 0,
                    count,
                });
                // Row 0's master is co-located with the vertical master: it is
                // commanded through a register, not through a G-line.
                if self.row_active[0] {
                    self.master_h[0].command_release();
                }
            }
            let after = self.master_v.state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(0, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }

        // --- propagate.
        for rn in &mut self.rows {
            rn.gather.propagate();
            rn.release.propagate();
        }
        self.v_gather.propagate();
        self.v_release.propagate();

        // What each receiver observes this cycle, before the controllers
        // consume it.
        if S::ENABLED {
            for (r, rn) in self.rows.iter().enumerate() {
                let g = rn.gather.sensed();
                if g.value {
                    self.tracer.emit(now, || Event::GlineSense {
                        ctx,
                        kind: GlineKind::RowGather,
                        row: r as u16,
                        count: g.count,
                    });
                }
                let rel = rn.release.sensed();
                if rel.value {
                    self.tracer.emit(now, || Event::GlineSense {
                        ctx,
                        kind: GlineKind::RowRelease,
                        row: r as u16,
                        count: rel.count,
                    });
                }
            }
            let vg = self.v_gather.sensed();
            if vg.value {
                self.tracer.emit(now, || Event::GlineSense {
                    ctx,
                    kind: GlineKind::ColGather,
                    row: 0,
                    count: vg.count,
                });
            }
            let vr = self.v_release.sensed();
            if vr.value {
                self.tracer.emit(now, || Event::GlineSense {
                    ctx,
                    kind: GlineKind::ColRelease,
                    row: 0,
                    count: vr.count,
                });
            }
        }

        // --- receive.
        for core in mesh.tiles() {
            let Coord { row, col } = mesh.coord_of(core);
            if col > 0 {
                let sensed = self.rows[row as usize].release.sensed();
                if let Some(sh) = self.slave_h[core.index()].as_mut() {
                    let before = sh.state();
                    let clear = sh.receive(sensed);
                    let after = sh.state();
                    if clear {
                        self.clear_bar_reg(core, now);
                    }
                    if S::ENABLED && after != before {
                        self.tracer.emit(now, || Event::CtrlTransition {
                            ctx,
                            core,
                            ctrl: CtrlKind::SlaveH,
                            from: before.label(),
                            to: after.label(),
                        });
                    }
                }
            }
        }
        for r in 0..nrows {
            if !self.row_active[r] {
                continue;
            }
            let own = mesh.id_of(Coord::new(r as u16, 0));
            let arrived = self.members[own.index()] && self.bar_reg[own.index()] != 0;
            let sensed = self.rows[r].gather.sensed();
            let before = self.master_h[r].state();
            self.master_h[r].receive(sensed, arrived);
            let after = self.master_h[r].state();
            if S::ENABLED && after != before {
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core: own,
                    ctrl: CtrlKind::MasterH,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        for r in 1..nrows {
            if !self.row_active[r] {
                continue;
            }
            let before = self.slave_v[r - 1].state();
            let fire = self.slave_v[r - 1].receive(self.v_release.sensed());
            let after = self.slave_v[r - 1].state();
            if fire {
                self.master_h[r].command_release();
            }
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(r as u16, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::SlaveV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }
        {
            let before = self.master_v.state();
            self.master_v.receive(self.v_gather.sensed(), mh_flags[0]);
            let after = self.master_v.state();
            if S::ENABLED && after != before {
                let core = mesh.id_of(Coord::new(0, 0));
                self.tracer.emit(now, || Event::CtrlTransition {
                    ctx,
                    core,
                    ctrl: CtrlKind::MasterV,
                    from: before.label(),
                    to: after.label(),
                });
            }
        }

        // --- episode accounting.
        if self.arrived == self.num_members && self.outstanding == 0 {
            let latency = now.saturating_sub(self.last_arrival).saturating_add(1);
            self.tracer
                .emit(now, || Event::BarrierComplete { ctx, latency });
            self.stats
                .record(self.first_arrival, self.last_arrival, now);
            self.arrived = 0;
        }

        self.quiescent = self.is_quiescent(mesh);
    }

    /// True when a tick of this context is a provable no-op: every
    /// G-line is electrically quiet and every controller is stable
    /// under its current (held) inputs. This is exactly the state of a
    /// partially-arrived barrier between events — waiters parked in
    /// `Waiting`, masters mid-count — where nothing moves until another
    /// core writes its `bar_reg` (or a gated root is triggered).
    fn is_quiescent(&self, mesh: Mesh2D) -> bool {
        let lines_idle = self
            .rows
            .iter()
            .all(|rn| rn.gather.is_idle() && rn.release.is_idle())
            && self.v_gather.is_idle()
            && self.v_release.is_idle();
        if !lines_idle {
            return false;
        }
        // Episode accounting resets in the same tick it fires, so it can
        // never be pending between ticks; keep the guard anyway.
        if self.arrived == self.num_members && self.outstanding == 0 {
            return false;
        }
        for core in mesh.tiles() {
            if let Some(sh) = &self.slave_h[core.index()] {
                if !sh.is_stable(self.bar_reg[core.index()] != 0) {
                    return false;
                }
            }
        }
        for r in 0..mesh.rows as usize {
            if !self.row_active[r] {
                continue;
            }
            let own = mesh.id_of(Coord::new(r as u16, 0));
            let arrived = self.members[own.index()] && self.bar_reg[own.index()] != 0;
            if !self.master_h[r].is_stable(arrived) {
                return false;
            }
            if r >= 1 && !self.slave_v[r - 1].is_stable(self.master_h[r].flag()) {
                return false;
            }
        }
        self.master_v.is_stable(self.master_h[0].flag())
    }

    fn clear_bar_reg(&mut self, core: CoreId, now: Cycle) {
        if self.bar_reg[core.index()] != 0 {
            self.bar_reg[core.index()] = 0;
            debug_assert!(self.outstanding > 0);
            self.outstanding -= 1;
            let ctx = self.ctx_id;
            self.tracer
                .emit(now, || Event::BarrierRelease { ctx, core });
        }
    }

    fn energy(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.gather.energy_signals() + r.release.energy_signals())
            .sum::<u64>()
            + self.v_gather.energy_signals()
            + self.v_release.energy_signals()
    }
}

/// A G-line barrier network for a mesh of cores, with one or more
/// independent barrier contexts.
///
/// Integration contract with a cycle-level simulator:
///
/// 1. during a cycle, cores may call [`write_bar_reg`](Self::write_bar_reg)
///    (arrival) and read [`bar_reg`](Self::bar_reg) (spin);
/// 2. at the end of every cycle the simulator calls [`tick`](Self::tick)
///    exactly once.
///
/// The `S` parameter selects the trace sink; the default [`NullSink`]
/// compiles all tracing away.
#[derive(Clone, Debug)]
pub struct BarrierNetwork<S: TraceSink = NullSink> {
    mesh: Mesh2D,
    cfg: GlineConfig,
    contexts: Vec<Context<S>>,
    now: Cycle,
    tracer: Tracer<S>,
}

impl BarrierNetwork {
    /// Builds the network. Panics if the mesh exceeds the G-line
    /// transmitter budget at 1-cycle latency (8×8 at the default budget) — use
    /// [`crate::ClusteredBarrierNetwork`] or a higher `line_latency`.
    pub fn new(mesh: Mesh2D, cfg: GlineConfig) -> BarrierNetwork {
        BarrierNetwork::with_gated_root(mesh, cfg, false)
    }

    /// Like [`BarrierNetwork::new`], but the release is gated at the root:
    /// once all cores arrive the network parks in *root-ready* and waits
    /// for [`trigger_release`](Self::trigger_release). Building block for
    /// hierarchical composition.
    pub fn with_gated_root(mesh: Mesh2D, cfg: GlineConfig, gated: bool) -> BarrierNetwork {
        BarrierNetwork::traced_with_gated_root(mesh, cfg, gated, Tracer::default())
    }

    /// Builds the network with an explicit participation mask per
    /// context (the paper's §5 coexisting-barriers extension: each
    /// context synchronizes only its member cores). `masks.len()` must
    /// equal `cfg.contexts`; every mask needs at least one member.
    pub fn with_members(mesh: Mesh2D, cfg: GlineConfig, masks: Vec<Vec<bool>>) -> BarrierNetwork {
        BarrierNetwork::traced_with_members(mesh, cfg, masks, Tracer::default())
    }
}

impl<S: TraceSink> BarrierNetwork<S> {
    /// Builds a traced network: every G-line assert/sense, controller
    /// transition and barrier event is emitted into `tracer`.
    pub fn traced(mesh: Mesh2D, cfg: GlineConfig, tracer: Tracer<S>) -> BarrierNetwork<S> {
        BarrierNetwork::traced_with_gated_root(mesh, cfg, false, tracer)
    }

    /// [`BarrierNetwork::with_gated_root`] with an explicit tracer.
    pub fn traced_with_gated_root(
        mesh: Mesh2D,
        cfg: GlineConfig,
        gated: bool,
        tracer: Tracer<S>,
    ) -> BarrierNetwork<S> {
        assert!(cfg.contexts >= 1, "at least one barrier context");
        let contexts = (0..cfg.contexts)
            .map(|i| {
                Context::new(
                    mesh,
                    cfg,
                    gated,
                    vec![true; mesh.num_tiles()],
                    i,
                    tracer.clone(),
                )
            })
            .collect();
        BarrierNetwork {
            mesh,
            cfg,
            contexts,
            now: 0,
            tracer,
        }
    }

    /// [`BarrierNetwork::with_members`] with an explicit tracer.
    pub fn traced_with_members(
        mesh: Mesh2D,
        cfg: GlineConfig,
        masks: Vec<Vec<bool>>,
        tracer: Tracer<S>,
    ) -> BarrierNetwork<S> {
        assert_eq!(masks.len(), cfg.contexts as usize, "one mask per context");
        let contexts = masks
            .into_iter()
            .enumerate()
            .map(|(i, m)| Context::new(mesh, cfg, false, m, i as u32, tracer.clone()))
            .collect();
        BarrierNetwork {
            mesh,
            cfg,
            contexts,
            now: 0,
            tracer,
        }
    }

    /// The tracer shared by every context of this network.
    pub fn tracer(&self) -> &Tracer<S> {
        &self.tracer
    }

    /// The participation mask of a context.
    pub fn members(&self, ctx: CtxId) -> &[bool] {
        &self.contexts[ctx].members
    }

    /// Mesh this network spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Configuration used to build the network.
    pub fn config(&self) -> GlineConfig {
        self.cfg
    }

    /// Number of independent barrier contexts.
    pub fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Total G-lines in the network: `2 × (rows + 1)` per context.
    pub fn num_glines(&self) -> u32 {
        self.contexts.len() as u32 * 2 * (self.mesh.rows as u32 + 1)
    }

    /// The current cycle (number of [`tick`](Self::tick)s performed).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Core `core` announces arrival at barrier context `ctx` by writing a
    /// nonzero value into its `bar_reg`.
    pub fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        let now = self.now;
        let c = &mut self.contexts[ctx];
        c.write_bar_reg(core, value, now);
        c.quiescent = c.is_quiescent(self.mesh);
    }

    /// Reads core `core`'s `bar_reg` for context `ctx`. Cores spin on this
    /// until it returns 0.
    pub fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        self.contexts[ctx].bar_reg[core.index()]
    }

    /// True iff every core has a cleared `bar_reg` in context `ctx`.
    /// O(1): the episode accounting counts set registers exactly (a
    /// register is set only through [`write_bar_reg`](Self::write_bar_reg)
    /// and cleared only through the release wave, both of which maintain
    /// the counter).
    pub fn all_released(&self, ctx: CtxId) -> bool {
        self.contexts[ctx].outstanding == 0
    }

    /// Number of currently set `bar_reg`s in context `ctx` (cores that
    /// arrived and are not yet released).
    pub fn outstanding(&self, ctx: CtxId) -> u32 {
        self.contexts[ctx].outstanding
    }

    /// True iff a gated-root context has gathered every core and is
    /// waiting for [`trigger_release`](Self::trigger_release).
    pub fn root_ready(&self, ctx: CtxId) -> bool {
        self.contexts[ctx].master_v.root_ready()
    }

    /// Starts the release wave of a gated-root context (effective next
    /// cycle). Panics if the context is not root-ready.
    pub fn trigger_release(&mut self, ctx: CtxId) {
        let now = self.now;
        let root = self.mesh.id_of(Coord::new(0, 0));
        let c = &mut self.contexts[ctx];
        let before = c.master_v.state();
        c.master_v.trigger_release();
        let after = c.master_v.state();
        if S::ENABLED && after != before {
            let ctx_id = c.ctx_id;
            c.tracer.emit(now, || Event::CtrlTransition {
                ctx: ctx_id,
                core: root,
                ctrl: CtrlKind::MasterV,
                from: before.label(),
                to: after.label(),
            });
        }
        c.quiescent = c.is_quiescent(self.mesh);
    }

    /// Advances the network by one clock cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        for ctx in &mut self.contexts {
            ctx.tick(self.mesh, now);
        }
        self.now += 1;
    }

    /// Statistics of context `ctx` (energy refreshed on read).
    pub fn stats(&self, ctx: CtxId) -> GlineStats {
        let c = &self.contexts[ctx];
        let mut s = c.stats.clone();
        s.signals = c.energy();
        s
    }

    /// Earliest cycle at which the network can change state on its own.
    ///
    /// `None` means every context is quiescent: all G-lines are idle and
    /// every controller is stable under its held inputs, so ticking is a
    /// no-op until some core writes a `bar_reg` (or triggers a gated
    /// release). Otherwise a barrier episode is in flight and every cycle
    /// matters, so the answer is the very next one.
    pub fn next_event(&self) -> Option<Cycle> {
        if self.contexts.iter().all(|c| c.quiescent) {
            None
        } else {
            Some(self.now + 1)
        }
    }

    /// Jumps the clock to cycle `t` without ticking. Only legal while
    /// [`next_event`](Self::next_event) is `None` — every skipped tick is
    /// then provably a state no-op, so all observable state (controller
    /// states, `bar_reg`s, stats, energy) is bit-identical to having
    /// ticked `t - now` times.
    pub fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now, "cannot skip backwards");
        debug_assert!(
            self.next_event().is_none(),
            "barrier-network skip while an episode is in flight"
        );
        self.now = t;
    }
}

/// Common interface of barrier hardware: the flat [`BarrierNetwork`] and
/// the two-level [`crate::ClusteredBarrierNetwork`] both implement it, so
/// simulators and benchmarks can swap one for the other.
pub trait BarrierHw {
    /// Number of cores the hardware synchronizes.
    fn num_cores(&self) -> usize;
    /// Core announces arrival at context `ctx` (nonzero `value`).
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64);
    /// Reads a core's `bar_reg` for context `ctx` (0 = released).
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64;
    /// True iff every core's `bar_reg` is clear in context `ctx`.
    fn all_released(&self, ctx: CtxId) -> bool;
    /// Advances one clock cycle.
    fn tick(&mut self);
    /// Cycles ticked so far.
    fn now(&self) -> Cycle;
    /// Number of independent barrier contexts this hardware offers.
    fn num_contexts(&self) -> usize;
    /// Statistics of one context.
    fn stats(&self, ctx: CtxId) -> GlineStats;

    /// Earliest future cycle at which this hardware can change state
    /// without further external input, or `None` if it is quiescent and
    /// will stay frozen until a `write_bar_reg`. The conservative default
    /// — "something may happen next cycle" — is always correct; it simply
    /// never lets a simulator skip over this hardware.
    fn next_event(&self) -> Option<Cycle> {
        Some(self.now() + 1)
    }

    /// Advances the clock to cycle `t`. Implementations whose
    /// [`next_event`](Self::next_event) reports quiescence may jump
    /// directly; the default just ticks, which is always equivalent.
    fn skip_to(&mut self, t: Cycle) {
        while self.now() < t {
            self.tick();
        }
    }

    /// Minimum number of cycles between a `write_bar_reg` and the
    /// earliest cycle at which another core can observe any effect of
    /// it. The simulator does not read this; it stays, with only this
    /// conservative default, because `BarrierHw` wrappers outside the
    /// workspace (perfbench's recording wrapper) forward it and must
    /// keep compiling.
    fn min_notify_latency(&self) -> u64 {
        1
    }

    /// Lower bound on the number of cycles before any core's set
    /// `bar_reg` can clear. Unused by the simulator and kept with only
    /// this conservative default for the same reason as
    /// [`min_notify_latency`](Self::min_notify_latency).
    fn release_bound(&self) -> u64 {
        1
    }

    /// Convenience driver for tests and benchmarks: runs one complete
    /// barrier on context 0 where core `i` arrives at `arrivals[i]`
    /// (relative to the current cycle), and returns the cycle count from
    /// the last arrival to the release (inclusive) — the paper's barrier
    /// latency, ideally 4 for the flat network.
    ///
    /// Panics if the barrier does not complete within a generous deadline
    /// (wiring-bug guard).
    fn run_single_barrier(&mut self, arrivals: &[Cycle]) -> u64 {
        assert_eq!(
            arrivals.len(),
            self.num_cores(),
            "one arrival time per core"
        );
        let last = *arrivals.iter().max().expect("at least one core");
        let base = self.now();
        let deadline = base + last + 1024;
        loop {
            for (i, &a) in arrivals.iter().enumerate() {
                if base + a == self.now() && self.bar_reg(CoreId::from(i), 0) == 0 {
                    self.write_bar_reg(CoreId::from(i), 0, 1);
                }
            }
            self.tick();
            if self.now() > base + last && self.all_released(0) {
                return self.now() - (base + last);
            }
            assert!(
                self.now() < deadline,
                "barrier did not complete before the deadline"
            );
        }
    }
}

impl<S: TraceSink> BarrierHw for BarrierNetwork<S> {
    fn num_cores(&self) -> usize {
        self.mesh.num_tiles()
    }
    fn num_contexts(&self) -> usize {
        BarrierNetwork::num_contexts(self)
    }
    fn stats(&self, ctx: CtxId) -> GlineStats {
        BarrierNetwork::stats(self, ctx)
    }
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        BarrierNetwork::write_bar_reg(self, core, ctx, value);
    }
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        BarrierNetwork::bar_reg(self, core, ctx)
    }
    fn all_released(&self, ctx: CtxId) -> bool {
        BarrierNetwork::all_released(self, ctx)
    }
    fn tick(&mut self) {
        BarrierNetwork::tick(self);
    }
    fn now(&self) -> Cycle {
        BarrierNetwork::now(self)
    }
    fn next_event(&self) -> Option<Cycle> {
        BarrierNetwork::next_event(self)
    }
    fn skip_to(&mut self, t: Cycle) {
        BarrierNetwork::skip_to(self, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::trace::RingSink;

    fn cfg() -> GlineConfig {
        GlineConfig::default()
    }

    fn all_zero(n: usize) -> Vec<Cycle> {
        vec![0; n]
    }

    #[test]
    fn four_cycles_on_2x2_matches_figure_2() {
        let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), cfg());
        assert_eq!(net.run_single_barrier(&all_zero(4)), 4);
    }

    #[test]
    fn fresh_network_is_quiescent_and_skippable() {
        let mut net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.next_event(), None);
        net.skip_to(10_000);
        assert_eq!(net.now(), 10_000);
        // A barrier run after the jump behaves exactly like one from cold.
        assert_eq!(net.run_single_barrier(&all_zero(32)), 4);
        // The release wave leaves the controllers draining for a few
        // cycles; once that settles the network parks again.
        for _ in 0..16 {
            net.tick();
        }
        assert_eq!(net.next_event(), None, "released network parks again");
    }

    #[test]
    fn partial_arrival_settles_back_to_quiescence() {
        let mut net = BarrierNetwork::new(Mesh2D::new(2, 2), cfg());
        net.write_bar_reg(CoreId::from(1usize), 0, 1);
        assert_eq!(
            net.next_event(),
            Some(net.now() + 1),
            "an arrival puts the network in motion"
        );
        for _ in 0..16 {
            net.tick();
        }
        assert_eq!(net.next_event(), None, "partially-arrived barrier parks");
        // Skipping while parked must not perturb the eventual barrier.
        net.skip_to(net.now() + 1_000_000);
        for i in [0usize, 2, 3] {
            net.write_bar_reg(CoreId::from(i), 0, 1);
        }
        let start = net.now();
        while !net.all_released(0) {
            net.tick();
            assert!(net.now() - start < 64, "barrier must still complete");
        }
        assert_eq!(net.stats(0).barriers_completed, 1);
    }

    #[test]
    fn four_cycles_on_paper_32_core_mesh() {
        let mut net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.run_single_barrier(&all_zero(32)), 4);
    }

    #[test]
    fn four_cycles_on_every_mesh_up_to_8x8() {
        for r in 1..=8u16 {
            for c in 1..=8u16 {
                let mesh = Mesh2D::new(r, c);
                let mut net = BarrierNetwork::new(mesh, cfg());
                assert_eq!(
                    net.run_single_barrier(&all_zero(mesh.num_tiles())),
                    4,
                    "latency wrong on {r}×{c}"
                );
            }
        }
    }

    #[test]
    fn staggered_arrivals_release_after_last() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        // Core 3 is 100 cycles late.
        let lat = net.run_single_barrier(&[0, 5, 2, 100]);
        assert_eq!(lat, 4);
        let s = net.stats(0);
        assert_eq!(s.barriers_completed, 1);
        assert_eq!(s.episode.max(), Some(104)); // first at 0, release at 103
    }

    #[test]
    fn no_core_released_before_all_arrive() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        for i in 0..3 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..50 {
            net.tick();
            for i in 0..3 {
                assert_ne!(net.bar_reg(CoreId(i), 0), 0, "core {i} escaped early");
            }
        }
        net.write_bar_reg(CoreId(3), 0, 1);
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn back_to_back_barriers() {
        let mesh = Mesh2D::new(2, 4);
        let n = mesh.num_tiles();
        let mut net = BarrierNetwork::new(mesh, cfg());
        for episode in 0..10 {
            assert_eq!(net.run_single_barrier(&all_zero(n)), 4, "episode {episode}");
        }
        assert_eq!(net.stats(0).barriers_completed, 10);
        assert_eq!(net.stats(0).mean_latency(), 4.0);
    }

    #[test]
    fn contexts_are_independent() {
        let mesh = Mesh2D::new(2, 2);
        let mut gcfg = cfg();
        gcfg.contexts = 2;
        let mut net = BarrierNetwork::new(mesh, gcfg);
        // All cores arrive in ctx 0; only some in ctx 1.
        for i in 0..4 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        net.write_bar_reg(CoreId(0), 1, 1);
        for _ in 0..8 {
            net.tick();
        }
        assert!(net.all_released(0), "ctx 0 must complete");
        assert_ne!(net.bar_reg(CoreId(0), 1), 0, "ctx 1 must still hold core 0");
        // Finish ctx 1.
        for i in 1..4 {
            net.write_bar_reg(CoreId(i), 1, 1);
        }
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(1));
    }

    #[test]
    fn masked_context_synchronizes_only_members() {
        // 2×4 mesh: context 0 = left half, context 1 = right half.
        let mesh = Mesh2D::new(2, 4);
        let gcfg = GlineConfig {
            contexts: 2,
            ..cfg()
        };
        let left: Vec<bool> = mesh.coords().map(|c| c.col < 2).collect();
        let right: Vec<bool> = mesh.coords().map(|c| c.col >= 2).collect();
        let mut net = BarrierNetwork::with_members(mesh, gcfg, vec![left.clone(), right]);
        // All left members arrive in ctx 0; ctx 1 untouched.
        for (i, &m) in left.iter().enumerate() {
            if m {
                net.write_bar_reg(CoreId::from(i), 0, 1);
            }
        }
        for _ in 0..4 {
            net.tick();
        }
        assert!(
            net.all_released(0),
            "left-half barrier must complete in 4 cycles"
        );
        assert_eq!(net.stats(0).barriers_completed, 1);
        assert_eq!(net.stats(0).latency.max(), Some(4));
        assert_eq!(net.stats(1).barriers_completed, 0);
    }

    #[test]
    fn masked_context_with_empty_rows() {
        // Members only in the bottom row: row 0 is inactive, the
        // vertical master must complete without it.
        let mesh = Mesh2D::new(3, 3);
        let gcfg = GlineConfig {
            contexts: 1,
            ..cfg()
        };
        let mask: Vec<bool> = mesh.coords().map(|c| c.row == 2).collect();
        let mut net = BarrierNetwork::with_members(mesh, gcfg, vec![mask.clone()]);
        for (i, &m) in mask.iter().enumerate() {
            if m {
                net.write_bar_reg(CoreId::from(i), 0, 1);
            }
        }
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(0));
        assert_eq!(net.stats(0).barriers_completed, 1);
    }

    #[test]
    fn masked_single_member_context() {
        let mesh = Mesh2D::new(2, 2);
        let mut mask = vec![false; 4];
        mask[3] = true;
        let mut net = BarrierNetwork::with_members(mesh, cfg(), vec![mask]);
        net.write_bar_reg(CoreId(3), 0, 1);
        for _ in 0..4 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_arrival_rejected() {
        let mesh = Mesh2D::new(2, 2);
        let mut mask = vec![true; 4];
        mask[2] = false;
        let mut net = BarrierNetwork::with_members(mesh, cfg(), vec![mask]);
        net.write_bar_reg(CoreId(2), 0, 1);
    }

    #[test]
    fn masked_back_to_back_episodes() {
        let mesh = Mesh2D::new(2, 4);
        let mask: Vec<bool> = mesh.coords().map(|c| (c.row + c.col) % 2 == 0).collect();
        let mut net = BarrierNetwork::with_members(mesh, cfg(), vec![mask.clone()]);
        for _ in 0..5 {
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    net.write_bar_reg(CoreId::from(i), 0, 1);
                }
            }
            let mut guard = 0;
            while !net.all_released(0) {
                net.tick();
                guard += 1;
                assert!(guard < 10);
            }
        }
        assert_eq!(net.stats(0).barriers_completed, 5);
        assert_eq!(net.stats(0).mean_latency(), 4.0);
    }

    #[test]
    fn gline_count_formula() {
        let net = BarrierNetwork::new(Mesh2D::new(4, 4), cfg());
        assert_eq!(net.num_glines(), 10); // paper: 10 for a 16-core CMP
        let net = BarrierNetwork::new(Mesh2D::new(4, 8), cfg());
        assert_eq!(net.num_glines(), 10);
    }

    #[test]
    #[should_panic(expected = "G-line budget")]
    fn oversized_mesh_rejected_at_unit_latency() {
        let _ = BarrierNetwork::new(Mesh2D::new(9, 9), cfg());
    }

    #[test]
    #[should_panic(expected = "G-line budget")]
    fn strict_paper_budget_rejects_4x8() {
        // With the paper's literal 6-transmitter budget, its own 32-core
        // 4×8 evaluation mesh does not fit (see GlineConfig docs).
        let gcfg = GlineConfig {
            max_transmitters: 6,
            ..cfg()
        };
        let _ = BarrierNetwork::new(Mesh2D::new(4, 8), gcfg);
    }

    #[test]
    fn oversized_mesh_allowed_with_slow_lines() {
        let mesh = Mesh2D::new(10, 10);
        let gcfg = GlineConfig {
            line_latency: 2,
            ..cfg()
        };
        let mut net = BarrierNetwork::new(mesh, gcfg);
        let lat = net.run_single_barrier(&all_zero(100));
        // Two-cycle lines double each of the 4 line traversals.
        assert_eq!(lat, 8);
    }

    #[test]
    fn gated_root_holds_until_triggered() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::with_gated_root(mesh, cfg(), true);
        for i in 0..4 {
            net.write_bar_reg(CoreId(i), 0, 1);
        }
        for _ in 0..20 {
            net.tick();
        }
        assert!(net.root_ready(0));
        assert!(!net.all_released(0), "gated root must hold the release");
        net.trigger_release(0);
        for _ in 0..3 {
            net.tick();
        }
        assert!(net.all_released(0));
    }

    #[test]
    fn energy_counts_signals() {
        let mesh = Mesh2D::new(2, 2);
        let mut net = BarrierNetwork::new(mesh, cfg());
        net.run_single_barrier(&all_zero(4));
        // 2 SlaveH pulses + 1 SlaveV pulse + 1 MglineV + 2 MglineH = 6.
        assert_eq!(net.stats(0).signals, 6);
    }

    #[test]
    fn single_core_mesh_still_synchronizes() {
        let mut net = BarrierNetwork::new(Mesh2D::new(1, 1), cfg());
        assert_eq!(net.run_single_barrier(&[0]), 4);
    }

    #[test]
    fn traced_network_reports_figure_2_story() {
        // All four cores of a 2×2 arrive at cycle 0; the trace must tell
        // the complete Figure-2 story: 4 arrivals, the gather and release
        // waves on the G-lines, 4 releases, completion at latency 4.
        let tracer = Tracer::new(RingSink::new(256));
        let mut net = BarrierNetwork::traced(Mesh2D::new(2, 2), cfg(), tracer.clone());
        assert_eq!(net.run_single_barrier(&all_zero(4)), 4);
        let events: Vec<(Cycle, Event)> = tracer.with_sink(|s| s.events().cloned().collect());
        let count = |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
        assert_eq!(count(&|e| matches!(e, Event::BarrierArrive { .. })), 4);
        assert_eq!(count(&|e| matches!(e, Event::BarrierRelease { .. })), 4);
        assert_eq!(
            count(&|e| matches!(
                e,
                Event::GlineAssert {
                    kind: GlineKind::RowGather,
                    ..
                }
            )),
            2,
            "one slave per row pulses the gather line"
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                Event::GlineAssert {
                    kind: GlineKind::ColRelease,
                    ..
                }
            )),
            1
        );
        let complete: Vec<&(Cycle, Event)> = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::BarrierComplete { .. }))
            .collect();
        assert_eq!(complete.len(), 1);
        assert!(matches!(
            complete[0].1,
            Event::BarrierComplete { latency: 4, .. }
        ));
        // Cycle stamps are monotonic.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn traced_and_untraced_networks_agree() {
        // The tracer must be observation-only: identical latency, stats
        // and energy with and without it.
        let mesh = Mesh2D::new(2, 4);
        let arrivals: Vec<Cycle> = (0..mesh.num_tiles() as u64).map(|i| i * 3 % 7).collect();
        let mut plain = BarrierNetwork::new(mesh, cfg());
        let mut traced = BarrierNetwork::traced(mesh, cfg(), Tracer::new(RingSink::new(64)));
        assert_eq!(
            plain.run_single_barrier(&arrivals),
            traced.run_single_barrier(&arrivals)
        );
        let (ps, ts) = (plain.stats(0), traced.stats(0));
        assert_eq!(ps.barriers_completed, ts.barriers_completed);
        assert_eq!(ps.latency.sum(), ts.latency.sum());
        assert_eq!(ps.signals, ts.signals);
    }
}
