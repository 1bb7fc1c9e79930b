//! The assembled machine.

use crate::core::{Core, FfClass, SpinPlan};
use crate::replay::{CoreProg, Pre, RecGline, RecMem, Recorder};
use crate::stats::SystemReport;
use gline_core::{BarrierHw, BarrierNetwork};
use sim_base::config::CmpConfig;
use sim_base::stats::TimeBreakdown;
use sim_base::trace::{NullSink, TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_isa::Program;
use sim_mem::MemorySystem;
use sim_trace::{CoreTrace, TraceSet};

/// The full CMP: cores + memory hierarchy + NoC + G-line barrier
/// hardware. Generic over the barrier network flavour (flat by default;
/// also [`gline_core::TdmBarrierNetwork`] or
/// [`gline_core::ClusteredBarrierNetwork`]) and over the trace sink
/// (disabled by default; see [`sim_base::trace`]).
#[derive(Debug)]
pub struct System<B: BarrierHw = BarrierNetwork, S: TraceSink = NullSink> {
    cfg: CmpConfig,
    cores: Vec<Core>,
    progs: Vec<CoreProg>,
    mem: MemorySystem<S>,
    gline: B,
    tracer: Tracer<S>,
    now: Cycle,
    /// Quiescence-aware cycle skipping (see [`Self::set_skip_enabled`]).
    skip_enabled: bool,
    /// Per-core spin plans, reused across skip decisions (no per-cycle
    /// allocation on the hot path).
    ff_plans: Vec<Option<SpinPlan>>,
    /// Fast-forward effectiveness counters (diagnostics only; not part
    /// of [`SystemReport`], so skip-on and skip-off reports stay
    /// bit-identical).
    skip_stats: SkipStats,
    /// Active-set micro-scheduling (see
    /// [`Self::set_active_set_enabled`]).
    active_set_enabled: bool,
    /// Per-core park state: `Some((wake, anchor))` while the core's
    /// steps are pure stall charges. The span `[anchor, wake)` is
    /// charged lazily at wake-up; [`Self::report`] folds the pending
    /// part in so mid-run reports stay bit-identical.
    parked: Vec<Option<(Cycle, Cycle)>>,
    /// Per-core spin park state: `Some((plan, anchor))` while the core
    /// sits in a recognized memory-probing spin loop whose probed line
    /// provably cannot change (no protocol message is queued for its
    /// tile). The elided span `[anchor, now)` is replayed in closed
    /// form at wake-up — the cycle a message is about to reach the
    /// tile — and [`Self::report`] folds the pending part in purely.
    /// Disjoint from `parked` (a core is `Ready`/mid-spin here, stalled
    /// there).
    spin_parked: Vec<Option<(SpinPlan, Cycle)>>,
    /// Per-core miss park state: `Some(anchor)` while the core waits on
    /// a memory access whose response is still in flight (not yet
    /// scheduled by its L1). Every elided step is a pure breakdown
    /// charge; the wake trigger is the same delivery predicate as
    /// `spin_parked`'s, because only a message reaching the tile can
    /// install the response. Disjoint from both other park states.
    miss_parked: Vec<Option<Cycle>>,
    /// Current fast-forward failure backoff (0 = none): after a failed
    /// attempt, skip attempts are suppressed for this many cycles,
    /// doubling per consecutive failure up to [`MAX_FF_BACKOFF`].
    ff_backoff: u64,
    /// First cycle at which fast-forward attempts resume.
    ff_resume_at: Cycle,
    /// Core-scheduler occupancy counters (diagnostics only).
    sched: CoreSchedStats,
}

/// Cap on the fast-forward failure backoff. In coherence-bound phases
/// the machine is never quiescent, so attempts settle at one per
/// `MAX_FF_BACKOFF` cycles and the attempt overhead vanishes; in
/// bursty phases a successful skip resets the backoff to zero, and at
/// most this many skippable cycles are ticked densely before the next
/// attempt notices a quiescent span. The cap can sit this high because
/// densely ticked cycles are cheap once the cores park (§10): a
/// backed-off cycle with everything parked touches only the empty
/// active sets, so the transition latency it buys costs microseconds.
const MAX_FF_BACKOFF: u64 = 512;

/// How well the cycle-skipping scheduler is doing on a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Fast-forward attempts (one per `advance` with skipping live).
    pub attempts: u64,
    /// Attempts that jumped the clock.
    pub skips: u64,
    /// Total cycles elided across all jumps.
    pub cycles_skipped: u64,
    /// Attempts aborted because a core was actively executing.
    pub fail_blocked: u64,
    /// Attempts aborted because the earliest event was within a cycle.
    pub fail_near: u64,
    /// Cycles on which an attempt was suppressed by the failure
    /// backoff (the machine ticked densely instead).
    pub backed_off: u64,
}

/// Core-scheduler occupancy counters (diagnostics only; not part of
/// [`SystemReport`], so sparse and dense runs stay bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreSchedStats {
    /// Ticks performed.
    pub ticks: u64,
    /// Core steps actually executed.
    pub core_steps: u64,
    /// Core steps elided because the core was parked on a stall (pure
    /// breakdown charges applied lazily at wake-up).
    pub parked_steps: u64,
    /// Core steps elided because the core was parked in a recognized
    /// memory-probing spin loop (replayed in closed form at wake-up).
    pub spin_parked_steps: u64,
}

impl CoreSchedStats {
    /// Mean number of cores stepped per tick.
    pub fn mean_active_cores(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.core_steps as f64 / self.ticks as f64
        }
    }
}

// Merges across runs (e.g. a benchmark summing a job's scheduler
// counters): every field is an independent event count, so the merge is
// fieldwise addition — associative, commutative, with `default()` as
// identity (property-tested below).
impl std::ops::AddAssign for CoreSchedStats {
    fn add_assign(&mut self, o: CoreSchedStats) {
        self.ticks += o.ticks;
        self.core_steps += o.core_steps;
        self.parked_steps += o.parked_steps;
        self.spin_parked_steps += o.spin_parked_steps;
    }
}

impl std::ops::AddAssign for SkipStats {
    fn add_assign(&mut self, o: SkipStats) {
        self.attempts += o.attempts;
        self.skips += o.skips;
        self.cycles_skipped += o.cycles_skipped;
        self.fail_blocked += o.fail_blocked;
        self.fail_near += o.fail_near;
        self.backed_off += o.backed_off;
    }
}

impl<B: BarrierHw> System<B> {
    /// Builds the machine around explicit barrier hardware.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores() == hw.num_cores()`.
    pub fn with_barrier_hw(cfg: CmpConfig, progs: Vec<Program>, hw: B) -> System<B> {
        System::traced_with_barrier_hw(cfg, progs, hw, Tracer::default())
    }

    /// Builds a replay-mode machine around explicit barrier hardware:
    /// every core is driven by its recorded trace from `set`, and the
    /// initial memory image is `set.pokes`.
    ///
    /// # Panics
    /// Panics unless `set` holds one valid trace per core (see
    /// [`sim_trace::CoreTrace::validate`]) and the core counts agree.
    pub fn replay_with_barrier_hw(cfg: CmpConfig, set: &TraceSet, hw: B) -> System<B> {
        System::replay_traced_with_barrier_hw(cfg, set, hw, Tracer::default())
    }
}

impl<B: BarrierHw, S: TraceSink> System<B, S> {
    /// Builds the machine around explicit barrier hardware, with the
    /// cores, memory hierarchy and NoC all emitting into `tracer`. The
    /// barrier hardware traces only if it was itself built over the same
    /// sink (see [`gline_core::BarrierNetwork::traced`]).
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores() == hw.num_cores()`.
    pub fn traced_with_barrier_hw(
        cfg: CmpConfig,
        progs: Vec<Program>,
        hw: B,
        tracer: Tracer<S>,
    ) -> System<B, S> {
        System::assemble(
            cfg,
            progs.into_iter().map(CoreProg::Exec).collect(),
            hw,
            tracer,
        )
    }

    /// Replay-mode [`traced_with_barrier_hw`](Self::traced_with_barrier_hw).
    ///
    /// # Panics
    /// Panics unless `set` holds one valid trace per core and the core
    /// counts agree.
    pub fn replay_traced_with_barrier_hw(
        cfg: CmpConfig,
        set: &TraceSet,
        hw: B,
        tracer: Tracer<S>,
    ) -> System<B, S> {
        for t in &set.cores {
            t.validate()
                .unwrap_or_else(|e| panic!("core {}: invalid trace: {e}", t.core));
        }
        let progs = set.cores.iter().cloned().map(CoreProg::Replay).collect();
        let mut sys = System::assemble(cfg, progs, hw, tracer);
        for &(addr, value) in &set.pokes {
            sys.mem.poke_word(addr, value);
        }
        sys
    }

    fn assemble(cfg: CmpConfig, progs: Vec<CoreProg>, hw: B, tracer: Tracer<S>) -> System<B, S> {
        assert_eq!(progs.len(), cfg.num_cores(), "one program per core");
        assert_eq!(
            hw.num_cores(),
            cfg.num_cores(),
            "barrier hardware core count mismatch"
        );
        let mut cores: Vec<Core> = (0..cfg.num_cores())
            .map(|i| Core::new(CoreId::from(i), cfg.core.issue_width))
            .collect();
        for (core, prog) in cores.iter_mut().zip(&progs) {
            if let CoreProg::Replay(t) = prog {
                core.prime_replay(t);
            }
        }
        System {
            cfg,
            cores,
            progs,
            mem: MemorySystem::traced(&cfg, tracer.clone()),
            gline: hw,
            tracer,
            now: 0,
            skip_enabled: true,
            ff_plans: vec![None; cfg.num_cores()],
            skip_stats: SkipStats::default(),
            active_set_enabled: true,
            parked: vec![None; cfg.num_cores()],
            spin_parked: vec![None; cfg.num_cores()],
            miss_parked: vec![None; cfg.num_cores()],
            ff_backoff: 0,
            ff_resume_at: 0,
            sched: CoreSchedStats::default(),
        }
    }
}

impl System {
    /// Builds the machine with one program per core.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores()`.
    pub fn new(cfg: CmpConfig, progs: Vec<Program>) -> System {
        System::traced(cfg, progs, Tracer::default())
    }

    /// Convenience: every core runs the same program.
    pub fn homogeneous(cfg: CmpConfig, prog: Program) -> System {
        let progs = vec![prog; cfg.num_cores()];
        System::new(cfg, progs)
    }

    /// Builds a replay-mode machine: every core is driven by its
    /// recorded trace from `set` (see [`Self::run_recorded`]), and the
    /// initial memory image is `set.pokes`.
    ///
    /// # Panics
    /// Panics unless `set` holds one valid trace per core (see
    /// [`sim_trace::CoreTrace::validate`]) and the core counts agree.
    pub fn replay(cfg: CmpConfig, set: &TraceSet) -> System {
        System::replay_traced(cfg, set, Tracer::default())
    }

    /// Builds the machine with per-context barrier participation masks
    /// (see [`gline_core::BarrierNetwork::with_members`]); programs
    /// select contexts with the `barctx` instruction.
    pub fn with_barrier_masks(
        cfg: CmpConfig,
        progs: Vec<Program>,
        masks: Vec<Vec<bool>>,
    ) -> System {
        let hw = BarrierNetwork::with_members(cfg.mesh, cfg.gline, masks);
        System::with_barrier_hw(cfg, progs, hw)
    }
}

impl<S: TraceSink> System<BarrierNetwork<S>, S> {
    /// Builds the fully traced machine: every layer — cores, caches,
    /// directory, NoC and the G-line barrier network — emits into
    /// (clones of) `tracer`.
    ///
    /// # Panics
    /// Panics unless `progs.len() == cfg.num_cores()`.
    pub fn traced(
        cfg: CmpConfig,
        progs: Vec<Program>,
        tracer: Tracer<S>,
    ) -> System<BarrierNetwork<S>, S> {
        let hw = BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer.clone());
        System::traced_with_barrier_hw(cfg, progs, hw, tracer)
    }

    /// Replay-mode [`traced`](Self::traced): every layer emits into
    /// `tracer` while the cores are driven by recorded traces.
    ///
    /// # Panics
    /// Panics unless `set` holds one valid trace per core and the core
    /// counts agree.
    pub fn replay_traced(
        cfg: CmpConfig,
        set: &TraceSet,
        tracer: Tracer<S>,
    ) -> System<BarrierNetwork<S>, S> {
        let hw = BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer.clone());
        System::replay_traced_with_barrier_hw(cfg, set, hw, tracer)
    }
}

impl<B: BarrierHw, S: TraceSink> System<B, S> {
    /// The tracer shared by the machine's components.
    pub fn tracer(&self) -> &Tracer<S> {
        &self.tracer
    }

    /// The configuration in use.
    pub fn config(&self) -> &CmpConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Pre-loads a data word (before any core touches its line).
    pub fn poke_word(&mut self, addr: u64, value: u64) {
        self.mem.poke_word(addr, value);
    }

    /// Architectural value of a data word, wherever its current copy is.
    pub fn peek_word(&self, addr: u64) -> u64 {
        self.mem.peek_word(addr)
    }

    /// Access to a core (registers, breakdown, …).
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// True when every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(Core::halted)
    }

    /// Advances the whole machine one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.sched.ticks += 1;
        if self.active_set_enabled {
            for i in 0..self.cores.len() {
                if let Some((wake, _)) = self.parked[i] {
                    if now < wake {
                        self.sched.parked_steps += 1;
                        continue;
                    }
                    let (_, anchor) = self.parked[i].take().expect("checked above");
                    self.cores[i].ff_stall(now - anchor);
                }
                if let Some((plan, anchor)) = self.spin_parked[i] {
                    // The probed line can only change when a protocol
                    // message reaches this tile, and deliveries for this
                    // cycle were queued by the previous cycle's NoC tick
                    // — so the check is exact and runs one cycle ahead
                    // of the mutation.
                    if !self.mem.has_delivery_for(CoreId::from(i)) {
                        self.sched.spin_parked_steps += 1;
                        continue;
                    }
                    // A message lands this cycle (during `mem.tick`,
                    // after the cores step, exactly as it would have in
                    // a dense run): replay the elided span against the
                    // still-frozen line, then step this cycle live.
                    self.spin_parked[i] = None;
                    self.cores[i].ff_replay(plan, now, anchor, &mut self.mem);
                }
                if let Some(anchor) = self.miss_parked[i] {
                    if !self.mem.has_delivery_for(CoreId::from(i)) {
                        self.sched.parked_steps += 1;
                        continue;
                    }
                    // The inbound message may carry (or unblock) the
                    // response; settle the elided charge-only span and
                    // step live from here on.
                    self.miss_parked[i] = None;
                    self.cores[i].ff_stall(now - anchor);
                }
                let core = &mut self.cores[i];
                if core.halted() {
                    continue;
                }
                // Park a core whose miss is still in flight: its L1
                // cannot schedule the response (and the core cannot do
                // anything but charge its stall category) until a
                // protocol message reaches this tile.
                if core.waiting_on_unscheduled_resp(&self.mem)
                    && !self.mem.has_delivery_for(CoreId::from(i))
                {
                    debug_assert!(self.parked[i].is_none() && self.spin_parked[i].is_none());
                    self.miss_parked[i] = Some(now);
                    self.sched.parked_steps += 1;
                    continue;
                }
                // Park instead of stepping when the core sits at a
                // recognized memory-probing spin and no message is
                // inbound: every elided step is a closed-form replay at
                // wake-up. G-line spins are left to the whole-machine
                // skip — `bar_reg` changes without L1 traffic, so they
                // have no per-core wake trigger (which is why the park
                // decision uses the memory-only matcher instead of the
                // full classifier: a G-line plan would be discarded
                // here, so computing it per tick is pure overhead).
                if !S::ENABLED && !self.mem.has_delivery_for(CoreId::from(i)) {
                    if let Some(plan) = core.park_spin(&self.progs[i], &self.mem, now) {
                        debug_assert!(self.parked[i].is_none());
                        self.spin_parked[i] = Some((plan, now));
                        self.sched.spin_parked_steps += 1;
                        continue;
                    }
                }
                self.sched.core_steps += 1;
                core.step(
                    &self.progs[i],
                    &mut self.mem,
                    &mut self.gline,
                    now,
                    &self.tracer,
                );
                // Park the core if its next state change is provably
                // more than one cycle out; its skipped steps are pure
                // stall charges, applied at wake-up.
                if let Some(wake) = core.park_until(&self.mem) {
                    if wake > now + 1 {
                        self.parked[i] = Some((wake, now + 1));
                    }
                }
            }
        } else {
            for (core, prog) in self.cores.iter_mut().zip(&self.progs) {
                if !core.halted() {
                    self.sched.core_steps += 1;
                }
                core.step(prog, &mut self.mem, &mut self.gline, now, &self.tracer);
            }
        }
        self.mem.tick();
        self.gline.tick();
        self.now += 1;
    }

    /// Charges every parked core's pending stall span and unparks it.
    /// Called before a whole-machine fast-forward (whose closed-form
    /// replay charges from `now` onward) and when active-set scheduling
    /// is turned off mid-run.
    fn flush_parks(&mut self) {
        for i in 0..self.cores.len() {
            if let Some((_, anchor)) = self.parked[i].take() {
                self.cores[i].ff_stall(self.now - anchor);
            }
            if let Some(anchor) = self.miss_parked[i].take() {
                self.cores[i].ff_stall(self.now - anchor);
            }
        }
    }

    /// Replays every spin-parked core's elided span up to `now` and
    /// unparks it. Legal between ticks: every elided cycle provably saw
    /// the frozen probed line (a pending delivery unparks the core
    /// before the line can change), so the closed-form replay is exact.
    /// Called when active-set scheduling is turned off mid-run (the
    /// dense loop steps every core). Whole-machine fast-forward does
    /// NOT flush: it replays each spin-parked core from its own anchor
    /// straight to the jump target, so failed attempts never disturb
    /// the parks.
    fn flush_spin_parks(&mut self) {
        for i in 0..self.cores.len() {
            if let Some((plan, anchor)) = self.spin_parked[i].take() {
                self.cores[i].ff_replay(plan, self.now, anchor, &mut self.mem);
            }
        }
    }

    /// Enables or disables quiescence-aware cycle skipping (on by
    /// default). When every core is provably parked — stalled on the
    /// memory hierarchy, inside a `busy` block, or spinning in a
    /// recognized wait loop — [`run`](Self::run) jumps the clock to the
    /// next event instead of ticking cycle by cycle, replaying the
    /// skipped span's statistics in closed form. Reports are
    /// bit-identical either way; disabling is an escape hatch for
    /// debugging (`--no-skip` in the CLI). Traced systems always take
    /// the cycle-exact path regardless of this flag, so event streams
    /// are never elided.
    pub fn set_skip_enabled(&mut self, on: bool) {
        self.skip_enabled = on;
    }

    /// Whether quiescence-aware cycle skipping is enabled.
    pub fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    /// Fast-forward effectiveness counters for this run so far.
    pub fn skip_stats(&self) -> SkipStats {
        self.skip_stats
    }

    /// Enables or disables active-set micro-scheduling across the whole
    /// machine — core parking here, busy-bank work lists in the memory
    /// hierarchy, router/injection/delivery work lists in the NoC (on
    /// by default). A component outside its subsystem's active set
    /// provably cannot transition this cycle, so reports, architectural
    /// memory and event traces are bit-identical either way; disabling
    /// is an escape hatch for debugging (`--no-active-set` in the CLI)
    /// and the reference path for `tests/active_set_determinism.rs`.
    pub fn set_active_set_enabled(&mut self, on: bool) {
        if !on {
            // The dense loop steps every core; settle pending park
            // charges and spin replays first.
            self.flush_parks();
            self.flush_spin_parks();
        }
        self.active_set_enabled = on;
        self.mem.set_active_set_enabled(on);
    }

    /// Whether active-set micro-scheduling is enabled.
    pub fn active_set_enabled(&self) -> bool {
        self.active_set_enabled
    }

    /// Core-scheduler occupancy counters for this run so far.
    pub fn core_sched_stats(&self) -> CoreSchedStats {
        self.sched
    }

    /// Memory-hierarchy occupancy counters for this run so far.
    pub fn mem_sched_stats(&self) -> sim_mem::MemSchedStats {
        self.mem.sched_stats()
    }

    /// NoC occupancy counters for this run so far.
    pub fn noc_sched_stats(&self) -> sim_noc::NocSchedStats {
        self.mem.noc_sched_stats()
    }

    /// Advances one cycle — or, if skipping is permitted and the whole
    /// machine is quiescent, jumps to the next event (clamped to
    /// `horizon`, which callers use for deadline and progress-boundary
    /// alignment). Failed skip attempts are throttled with an
    /// exponential backoff so coherence-bound phases do not pay the
    /// attempt cost every cycle.
    fn advance(&mut self, horizon: Cycle) {
        if S::ENABLED || !self.skip_enabled || horizon <= self.now + 1 {
            self.tick();
            return;
        }
        if self.now < self.ff_resume_at {
            self.skip_stats.backed_off += 1;
            self.tick();
            return;
        }
        if self.try_fast_forward(horizon) {
            self.ff_backoff = 0;
        } else {
            self.ff_backoff = (self.ff_backoff * 2).clamp(1, MAX_FF_BACKOFF);
            self.ff_resume_at = self.now + self.ff_backoff;
            self.tick();
        }
    }

    /// Attempts a fast-forward jump. Returns `false` (machine untouched)
    /// when any component may change state within the next cycle; on
    /// `true` the clock has jumped to the earliest next event and every
    /// component has been advanced in closed form.
    fn try_fast_forward(&mut self, horizon: Cycle) -> bool {
        let mut target = horizon;
        if target <= self.now + 1 {
            return false;
        }
        self.skip_stats.attempts += 1;
        // Clamp on the component clocks first: while protocol traffic is
        // in flight the hierarchy reports an event within a cycle or two,
        // and bailing here skips the per-core classification entirely —
        // the common case on coherence-bound phases.
        if let Some(t) = self.mem.next_event() {
            target = target.min(t);
        }
        if let Some(t) = self.gline.next_event() {
            target = target.min(t);
        }
        if target <= self.now + 1 {
            self.skip_stats.fail_near += 1;
            return false;
        }
        for (i, core) in self.cores.iter().enumerate() {
            self.ff_plans[i] = None;
            if let Some((plan, anchor)) = &self.spin_parked[i] {
                // Already a recognized spin, frozen since its anchor:
                // no delivery has reached its tile (the park's wake
                // trigger), and none will before `target` (the clamp on
                // `mem.next_event` above). Replayed from its own anchor
                // on success; a replay-mode plan additionally bounds the
                // jump by its recorded iteration budget.
                if let Some(t) = plan.max_target(*anchor) {
                    target = target.min(t);
                }
                continue;
            }
            match core.ff_classify(&self.progs[i], &self.mem, &self.gline, self.now) {
                FfClass::Blocked => {
                    self.skip_stats.fail_blocked += 1;
                    return false;
                }
                FfClass::NoConstraint => {}
                FfClass::WakeAt(t) => target = target.min(t),
                FfClass::Spin(plan) => {
                    // A replay-mode spin cannot be skipped past its
                    // recorded iteration budget: clamp the jump so the
                    // closed-form replay never overruns the op (for
                    // genuine recordings an external wake always lands
                    // first, so the clamp is a hand-built-trace guard).
                    if let Some(t) = plan.max_target(self.now) {
                        target = target.min(t);
                    }
                    self.ff_plans[i] = Some(plan);
                }
            }
        }
        if target <= self.now + 1 {
            self.skip_stats.fail_near += 1;
            return false;
        }
        let k = target - self.now;
        self.skip_stats.skips += 1;
        self.skip_stats.cycles_skipped += k;
        // Parked spans are charged lazily; settle stall and miss parks
        // up to `now` before the closed-form replay charges
        // `now..target`. Spin parks replay their whole `[anchor,
        // target)` span in one step instead.
        self.flush_parks();
        for i in 0..self.cores.len() {
            if let Some((plan, anchor)) = self.spin_parked[i].take() {
                self.cores[i].ff_replay(plan, target, anchor, &mut self.mem);
            } else if let Some(plan) = self.ff_plans[i] {
                self.cores[i].ff_replay(plan, target, self.now, &mut self.mem);
            } else if !self.cores[i].halted() {
                self.cores[i].ff_stall(k);
            }
        }
        self.mem.skip_to(target);
        self.gline.skip_to(target);
        self.now = target;
        true
    }

    /// Runs until every core halts. Returns the cycle count.
    ///
    /// # Errors
    /// Returns an error naming the stuck cores if `max_cycles` elapses
    /// first (deadlock / livelock guard).
    pub fn run(&mut self, max_cycles: u64) -> Result<Cycle, String> {
        let start = self.now;
        while !self.all_halted() {
            self.advance(start + max_cycles + 1);
            if self.now - start > max_cycles {
                let stuck: Vec<String> = self
                    .cores
                    .iter()
                    .filter(|c| !c.halted())
                    .map(|c| format!("{:?}", c.id()))
                    .collect();
                return Err(format!(
                    "system did not halt within {max_cycles} cycles; still running: {}",
                    stuck.join(", ")
                ));
            }
        }
        Ok(self.now - start)
    }

    /// Like [`run`](Self::run), but invokes `observer` with a fresh
    /// [`SystemReport`] every `every` cycles — progress reporting for
    /// long simulations (the report is cumulative, not a delta).
    ///
    /// # Errors
    /// Same deadlock guard as [`run`](Self::run).
    pub fn run_with_progress(
        &mut self,
        max_cycles: u64,
        every: u64,
        mut observer: impl FnMut(&SystemReport),
    ) -> Result<Cycle, String> {
        assert!(every > 0);
        let start = self.now;
        let mut next = self.now + every;
        while !self.all_halted() {
            // Clamp skips to the observer boundary so the observer fires
            // at every `every`-cycle mark with the report as of exactly
            // that cycle, even when a jump would have crossed it.
            self.advance(next.min(start + max_cycles + 1));
            if self.now >= next {
                observer(&self.report());
                next += every;
            }
            if self.now - start > max_cycles {
                return Err(format!(
                    "system did not halt within {max_cycles} cycles; still running: {}",
                    self.cores
                        .iter()
                        .filter(|c| !c.halted())
                        .map(|c| format!("{:?}", c.id()))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(self.now - start)
    }

    /// Like [`run`](Self::run), but records every core's executed issue
    /// groups into a [`CoreTrace`] stream as it goes, returning the
    /// cycle count and one trace per core. The run is cycle-exact and
    /// dense (no skipping, no parking): the recorder must observe every
    /// executing cycle, and elided spans would hide them. A machine
    /// replaying those traces (see [`System::replay`]) reproduces this
    /// run's [`SystemReport`], architectural memory and event stream
    /// bit-identically.
    ///
    /// # Errors
    /// Same deadlock guard as [`run`](Self::run).
    ///
    /// # Panics
    /// Panics if the machine has already advanced (`now() != 0`) or if
    /// any core is itself replay-driven.
    pub fn run_recorded(&mut self, max_cycles: u64) -> Result<(Cycle, Vec<CoreTrace>), String> {
        assert_eq!(self.now, 0, "recording must start from a fresh machine");
        let mut rec = Recorder::new(self.cores.len());
        let mut writes: Vec<(u8, u64)> = Vec::new();
        while !self.all_halted() {
            let now = self.now;
            self.sched.ticks += 1;
            for i in 0..self.cores.len() {
                let CoreProg::Exec(prog) = &self.progs[i] else {
                    panic!("cannot re-record a replay-mode system");
                };
                let core = &mut self.cores[i];
                if !core.halted() {
                    self.sched.core_steps += 1;
                }
                let pre = Pre {
                    pc: core.pc() as u32,
                    retired: core.retired(),
                    region: core.cur_region(),
                    halted: core.halted(),
                };
                let mut rmem = RecMem::new(&mut self.mem);
                {
                    let mut rgl = RecGline::new(&mut self.gline, &mut writes);
                    core.step(&self.progs[i], &mut rmem, &mut rgl, now, &self.tracer);
                }
                rec.record_step(i, prog, pre, core, &rmem, &mut writes, now);
            }
            self.mem.tick();
            self.gline.tick();
            self.now += 1;
            if self.now > max_cycles {
                let stuck: Vec<String> = self
                    .cores
                    .iter()
                    .filter(|c| !c.halted())
                    .map(|c| format!("{:?}", c.id()))
                    .collect();
                return Err(format!(
                    "system did not halt within {max_cycles} cycles; still running: {}",
                    stuck.join(", ")
                ));
            }
        }
        Ok((self.now, rec.finish()))
    }

    /// Gathers the run's statistics.
    pub fn report(&self) -> SystemReport {
        let mut per_core: Vec<TimeBreakdown> = self.cores.iter().map(Core::breakdown).collect();
        // Parked cores' stall spans are charged lazily at wake-up; fold
        // the pending `[anchor, now)` span in so a mid-run report is
        // bit-identical to the dense path's (the charged category is
        // frozen while parked).
        for (i, p) in self.parked.iter().enumerate() {
            if let Some((_, anchor)) = *p {
                per_core[i].add(self.cores[i].category(), self.now - anchor);
            }
        }
        for (i, p) in self.miss_parked.iter().enumerate() {
            if let Some(anchor) = *p {
                per_core[i].add(self.cores[i].category(), self.now - anchor);
            }
        }
        // Same for spin-parked cores, whose pending spans also carry
        // retires and L1 hits; `spin_pending_stats` previews exactly
        // what the eventual replay will charge.
        let mut pending_retired = 0;
        let mut pending_l1_hits = 0;
        for (i, p) in self.spin_parked.iter().enumerate() {
            if let Some((plan, anchor)) = p {
                let (cat_a, a, cat_b, b, retired, hits) =
                    self.cores[i].spin_pending_stats(plan, self.now - anchor);
                per_core[i].add(cat_a, a);
                per_core[i].add(cat_b, b);
                pending_retired += retired;
                pending_l1_hits += hits;
            }
        }
        let mut total_time = TimeBreakdown::new();
        for b in &per_core {
            total_time += *b;
        }
        let noc = self.mem.noc_stats();
        let gl = self.gline.stats(0);
        let mut l1_hits = 0;
        let mut l1_misses = 0;
        for i in 0..self.cores.len() {
            let s = self.mem.l1_stats(CoreId::from(i));
            l1_hits += s.hits;
            l1_misses += s.misses;
        }
        let home = self.mem.home_stats();
        SystemReport {
            cycles: self.now,
            per_core,
            total_time,
            traffic: noc.sent,
            flit_hops: noc.flit_hops,
            gl_barriers: gl.barriers_completed,
            gl_mean_latency: gl.mean_latency(),
            gl_signals: gl.signals,
            instructions: self.cores.iter().map(Core::retired).sum::<u64>() + pending_retired,
            l1_hits: l1_hits + pending_l1_hits,
            l1_misses,
            l2_hits: home.l2_hits,
            l2_misses: home.l2_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{emit_lock, emit_unlock, BarrierEnv, BarrierKind};
    use sim_base::stats::TimeCat;
    use sim_isa::interp::RefCmp;
    use sim_isa::{assemble, ProgBuilder, Reg};

    fn cfg(n: usize) -> CmpConfig {
        CmpConfig::icpp2010_with_cores(n)
    }

    #[test]
    fn single_core_computation_matches_reference() {
        let src = "
            li r1, 0x800      # base
            li r2, 20         # n
            li r3, 0          # i
            li r4, 0          # acc
        loop:
            mul r5, r3, r3
            st r5, 0(r1)
            ld r6, 0(r1)
            add r4, r4, r6
            addi r1, r1, 64
            addi r3, r3, 1
            bne r3, r2, loop
            st r4, 0(r1)
            halt
        ";
        let prog = assemble(src).unwrap();
        // Reference result.
        let mut rc = RefCmp::new(1, 4096);
        rc.run(&[&prog], 1_000_000).unwrap();
        // Cycle-accurate result.
        let mut sys = System::homogeneous(cfg(1), prog);
        sys.run(1_000_000).unwrap();
        let final_addr = 0x800 + 20 * 64;
        assert_eq!(sys.peek_word(final_addr), rc.word(final_addr));
        assert_eq!(
            sys.peek_word(final_addr),
            (0..20u64).map(|i| i * i).sum::<u64>()
        );
    }

    #[test]
    fn four_cores_gl_barrier_round() {
        // Each core stores its id, hits the GL barrier, then sums all
        // stored ids — the barrier must make every store visible.
        let n = 4;
        let env = BarrierEnv::new(BarrierKind::Gl, n, 4096);
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                b.li(Reg(1), c as i64 + 1)
                    .li(Reg(2), (0x1000 + c * 64) as i64)
                    .st(Reg(1), 0, Reg(2));
                env.emit(&mut b, c, "x");
                b.li(Reg(4), 0);
                for p in 0..n {
                    b.li(Reg(2), (0x1000 + p * 64) as i64)
                        .ld(Reg(3), 0, Reg(2))
                        .add(Reg(4), Reg(4), Reg(3));
                }
                b.li(Reg(2), (0x2000 + c * 64) as i64)
                    .st(Reg(4), 0, Reg(2))
                    .halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(1_000_000).unwrap();
        for c in 0..n {
            assert_eq!(
                sys.peek_word(0x2000 + c as u64 * 64),
                10,
                "core {c} missed a store"
            );
        }
        let rep = sys.report();
        assert_eq!(rep.gl_barriers, 1);
        assert!(
            (rep.gl_mean_latency - 4.0).abs() < 1e-9,
            "{}",
            rep.gl_mean_latency
        );
        assert!(rep.total_time[TimeCat::Barrier] > 0);
    }

    /// All three barrier kinds agree architecturally with the reference
    /// machine on a multi-barrier producer/consumer pattern.
    fn barrier_agreement(kind: BarrierKind, n: usize, iters: usize) {
        let env = BarrierEnv::new(kind, n, 4096);
        let slot = |c: usize| 0x4000 + c as u64 * 64;
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                // r10 = running checksum of neighbour values.
                for it in 0..iters {
                    // Phase 1: write it+1 to my slot.
                    b.li(Reg(1), it as i64 + 1)
                        .li(Reg(2), slot(c) as i64)
                        .st(Reg(1), 0, Reg(2));
                    env.emit(&mut b, c, &format!("a{it}"));
                    // Phase 2: read my right neighbour's slot; it must be
                    // exactly it+1.
                    let nb = (c + 1) % n;
                    b.li(Reg(2), slot(nb) as i64).ld(Reg(3), 0, Reg(2)).add(
                        Reg(10),
                        Reg(10),
                        Reg(3),
                    );
                    env.emit(&mut b, c, &format!("b{it}"));
                }
                b.li(Reg(2), (0x8000 + c * 64) as i64)
                    .st(Reg(10), 0, Reg(2))
                    .halt();
                b.build()
            })
            .collect();
        let expected: u64 = (1..=iters as u64).sum();
        let mut sys = System::new(cfg(n), progs);
        sys.run(20_000_000).unwrap();
        for c in 0..n {
            assert_eq!(
                sys.peek_word(0x8000 + c as u64 * 64),
                expected,
                "{kind:?} n={n} core {c}: barrier failed to order the phases"
            );
        }
    }

    #[test]
    fn gl_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Gl, 8, 4);
    }

    #[test]
    fn csw_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Csw, 8, 4);
    }

    #[test]
    fn dsw_barrier_orders_phases() {
        barrier_agreement(BarrierKind::Dsw, 8, 4);
    }

    #[test]
    fn dsw_barrier_odd_core_count() {
        barrier_agreement(BarrierKind::Dsw, 6, 3);
    }

    #[test]
    fn locks_are_mutually_exclusive_under_real_timing() {
        let n = 4;
        let lock = 4096u64;
        let counter = 8192u64;
        let per_core = 10;
        let progs: Vec<Program> = (0..n)
            .map(|_| {
                let mut b = ProgBuilder::new();
                b.li(Reg(10), per_core);
                b.label("loop");
                emit_lock(&mut b, lock, "l");
                b.li(Reg(3), counter as i64)
                    .ld(Reg(4), 0, Reg(3))
                    .addi(Reg(4), Reg(4), 1)
                    .st(Reg(4), 0, Reg(3));
                emit_unlock(&mut b, lock);
                b.addi(Reg(10), Reg(10), -1)
                    .bne(Reg(10), Reg::ZERO, "loop")
                    .halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(10_000_000).unwrap();
        assert_eq!(sys.peek_word(counter), n as u64 * per_core as u64);
        let rep = sys.report();
        assert!(
            rep.total_time[TimeCat::Lock] > 0,
            "lock time must be attributed"
        );
    }

    #[test]
    fn gl_beats_software_barriers_in_cycles() {
        // The headline claim, miniaturized: a pure barrier loop completes
        // fastest with GL, and DSW beats CSW at 16 cores.
        let n = 16;
        let iters = 10;
        let mut cycles = Vec::new();
        for kind in BarrierKind::ALL {
            let env = BarrierEnv::new(kind, n, 4096);
            let progs: Vec<Program> = (0..n)
                .map(|c| {
                    let mut b = ProgBuilder::new();
                    for it in 0..iters {
                        env.emit(&mut b, c, &format!("i{it}"));
                    }
                    b.halt();
                    b.build()
                })
                .collect();
            let mut sys = System::new(cfg(n), progs);
            let t = sys.run(50_000_000).unwrap();
            cycles.push((kind, t));
        }
        let gl = cycles[0].1;
        let csw = cycles[1].1;
        let dsw = cycles[2].1;
        assert!(
            gl < dsw && dsw < csw,
            "expected GL < DSW < CSW, got {cycles:?}"
        );
        assert!(
            gl * 5 < csw,
            "GL should dominate CSW by a wide margin: {cycles:?}"
        );
    }

    #[test]
    fn gl_barrier_generates_no_network_traffic() {
        let n = 8;
        let env = BarrierEnv::new(BarrierKind::Gl, n, 4096);
        let progs: Vec<Program> = (0..n)
            .map(|c| {
                let mut b = ProgBuilder::new();
                for it in 0..5 {
                    env.emit(&mut b, c, &format!("i{it}"));
                }
                b.halt();
                b.build()
            })
            .collect();
        let mut sys = System::new(cfg(n), progs);
        sys.run(1_000_000).unwrap();
        let rep = sys.report();
        assert_eq!(
            rep.traffic.total(),
            0,
            "the GL barrier must not touch the NoC"
        );
        assert_eq!(rep.gl_barriers, 5);
        assert!(rep.gl_signals > 0);
    }

    #[test]
    fn group_barriers_via_contexts() {
        // Two independent 4-core groups on an 8-core machine, each
        // synchronizing through its own barrier context: group 0 runs
        // many short episodes while group 1 runs few long ones — neither
        // may block the other.
        let n = 8;
        let mut c = cfg(n);
        c.gline.contexts = 2;
        let progs: Vec<Program> = (0..n)
            .map(|core| {
                let group = core / 4;
                let mut b = ProgBuilder::new();
                b.barctx(group as u8);
                let (episodes, work) = if group == 0 { (20, 5) } else { (2, 400) };
                for ep in 0..episodes {
                    b.busy(work);
                    // Arrive and spin, group-local.
                    let lbl = format!("w{ep}");
                    b.li(Reg(1), 1).barw(Reg(1)).label(&lbl).barr(Reg(2)).bne(
                        Reg(2),
                        Reg::ZERO,
                        &lbl,
                    );
                }
                b.halt();
                b.build()
            })
            .collect();
        let masks: Vec<Vec<bool>> = vec![
            (0..n).map(|i| i < 4).collect(),
            (0..n).map(|i| i >= 4).collect(),
        ];
        let mut sys = System::with_barrier_masks(c, progs, masks);
        sys.run(1_000_000).unwrap();
        // 20 episodes in ctx 0 (by 4 cores) + 2 in ctx 1: the gl_barriers
        // counter counts per-core arrivals-episodes entered.
        assert_eq!(sys.core(CoreId(0)).gl_barriers(), 20);
        assert_eq!(sys.core(CoreId(7)).gl_barriers(), 2);
    }

    #[test]
    #[should_panic(expected = "barctx")]
    fn out_of_range_barctx_panics() {
        let prog = sim_isa::assemble(
            "barctx 3
halt",
        )
        .unwrap();
        let mut sys = System::homogeneous(cfg(2), prog);
        let _ = sys.run(100);
    }

    #[test]
    fn system_runs_on_tdm_barrier_hardware() {
        use gline_core::TdmBarrierNetwork;
        // The same 5-episode barrier loop on flat vs TDM hardware (four
        // logical barriers sharing one wire set; the program uses slot 0):
        // TDM must be correct and strictly slower.
        let n = 8;
        let barrier_loop = || -> Vec<Program> {
            (0..n)
                .map(|_| {
                    let mut b = ProgBuilder::new();
                    for ep in 0..5 {
                        let lbl = format!("w{ep}");
                        b.li(Reg(1), 1).barw(Reg(1)).label(&lbl).barr(Reg(2)).bne(
                            Reg(2),
                            Reg::ZERO,
                            &lbl,
                        );
                    }
                    b.halt();
                    b.build()
                })
                .collect()
        };
        let c = cfg(n);
        let hw = TdmBarrierNetwork::new(c.mesh, c.gline, 4);
        let mut tdm = System::with_barrier_hw(c, barrier_loop(), hw);
        let tdm_cycles = tdm.run(1_000_000).unwrap();
        let mut flat = System::new(cfg(n), barrier_loop());
        let flat_cycles = flat.run(1_000_000).unwrap();
        assert!(
            tdm_cycles > flat_cycles,
            "TDM slots must cost latency: {tdm_cycles} vs {flat_cycles}"
        );
        assert_eq!(tdm.report().gl_barriers, 5);
        assert_eq!(flat.report().gl_barriers, 5);
    }

    #[test]
    fn progress_observer_fires_periodically() {
        let prog = sim_isa::assemble("busy 1000\nhalt").unwrap();
        let mut sys = System::homogeneous(cfg(2), prog);
        let mut samples = Vec::new();
        sys.run_with_progress(10_000, 100, |rep| samples.push(rep.cycles))
            .unwrap();
        assert!(
            samples.len() >= 9,
            "expected ~10 samples, got {}",
            samples.len()
        );
        assert!(samples.windows(2).all(|w| w[1] - w[0] == 100));
    }

    #[test]
    fn report_serializes() {
        let mut sys = System::homogeneous(cfg(1), assemble("busy 5\nhalt").unwrap());
        sys.run(100).unwrap();
        let rep = sys.report();
        let json = sim_base::json::ToJson::to_json(&rep).dump();
        assert!(json.contains("\"cycles\""));
    }

    #[test]
    fn deadlock_guard_reports_stuck_cores() {
        // A core spinning forever on its own flag never halts.
        let prog = assemble("l: ld r1, 0(r0)\nbeq r0, r0, l").unwrap();
        let mut sys = System::homogeneous(cfg(2), prog);
        let err = sys.run(10_000).unwrap_err();
        assert!(err.contains("core0") && err.contains("core1"), "{err}");
    }

    #[test]
    fn record_then_replay_is_bit_identical() {
        // In-crate smoke across all three barrier kinds; the exhaustive
        // workload × toggle sweep lives in tests/replay_lockstep.rs.
        for kind in BarrierKind::ALL {
            let n = 8;
            let build = || {
                let env = BarrierEnv::new(kind, n, 4096);
                let progs: Vec<Program> = (0..n)
                    .map(|c| {
                        let mut b = ProgBuilder::new();
                        for it in 0..3 {
                            b.li(Reg(1), (0x4000 + c * 64) as i64)
                                .li(Reg(2), it as i64 + 1)
                                .st(Reg(2), 0, Reg(1));
                            env.emit(&mut b, c, &format!("i{it}"));
                        }
                        b.halt();
                        b.build()
                    })
                    .collect();
                System::new(cfg(n), progs)
            };
            let mut exec = build();
            let t0 = exec.run(10_000_000).unwrap();
            let (rec_cycles, traces) = build().run_recorded(10_000_000).unwrap();
            assert_eq!(t0, rec_cycles, "{kind:?}: recording run diverged");
            let set = TraceSet {
                cores: traces,
                pokes: vec![],
                workload: format!("{kind:?}"),
            };
            let mut rp = System::replay(cfg(n), &set);
            let t1 = rp.run(10_000_000).unwrap();
            assert_eq!(t0, t1, "{kind:?}: replay cycle count diverged");
            assert_eq!(exec.report(), rp.report(), "{kind:?}: reports diverged");
            for c in 0..n as u64 {
                assert_eq!(
                    exec.peek_word(0x4000 + c * 64),
                    rp.peek_word(0x4000 + c * 64),
                    "{kind:?}: memory diverged at core {c}'s slot"
                );
            }
            // Compressed spins must actually appear (the traces would be
            // huge otherwise) and replay must also hold with the
            // schedulers off.
            let compressed = set.cores.iter().any(|t| {
                t.ops.iter().any(|op| {
                    matches!(
                        op,
                        sim_trace::TraceOp::GlineSpin { .. } | sim_trace::TraceOp::MemSpin { .. }
                    )
                })
            });
            assert!(compressed, "{kind:?}: no spin was run-length compressed");
            let mut dense = System::replay(cfg(n), &set);
            dense.set_skip_enabled(false);
            dense.set_active_set_enabled(false);
            let t2 = dense.run(10_000_000).unwrap();
            assert_eq!(t0, t2, "{kind:?}: dense replay diverged");
            assert_eq!(
                exec.report(),
                dense.report(),
                "{kind:?}: dense replay report"
            );
        }
    }

    #[test]
    fn sched_stat_merges_are_associative_and_commutative() {
        let sk = |s: u64| SkipStats {
            attempts: s,
            skips: s.wrapping_mul(3) % 7,
            cycles_skipped: s * 11,
            fail_blocked: s % 2,
            fail_near: s % 5,
            backed_off: s * 2,
        };
        let cs = |s: u64| CoreSchedStats {
            ticks: s,
            core_steps: s * 13,
            parked_steps: s % 3,
            spin_parked_steps: s * 7 % 11,
        };
        for (a, b, c) in [(1u64, 2, 3), (0, 9, 4), (17, 0, 0), (5, 5, 5)] {
            // Commutative.
            let (mut ab, mut ba) = (sk(a), sk(b));
            ab += sk(b);
            ba += sk(a);
            assert_eq!(ab, ba);
            let (mut cab, mut cba) = (cs(a), cs(b));
            cab += cs(b);
            cba += cs(a);
            assert_eq!(cab, cba);
            // Associative.
            let mut left = sk(a);
            left += sk(b);
            left += sk(c);
            let mut bc = sk(b);
            bc += sk(c);
            let mut right = sk(a);
            right += bc;
            assert_eq!(left, right);
            let mut cleft = cs(a);
            cleft += cs(b);
            cleft += cs(c);
            let mut cbc = cs(b);
            cbc += cs(c);
            let mut cright = cs(a);
            cright += cbc;
            assert_eq!(cleft, cright);
            // Default is the identity.
            let mut id = sk(a);
            id += SkipStats::default();
            assert_eq!(id, sk(a));
            let mut cid = cs(a);
            cid += CoreSchedStats::default();
            assert_eq!(cid, cs(a));
        }
    }
}
