//! The in-order core pipeline model.
//!
//! Issue model (Table 1: "in-order 2-way"): up to `issue_width` simple
//! instructions retire per cycle; a data-memory instruction issues its
//! request and blocks the core until the hierarchy answers; `busy n`
//! occupies the pipeline for `n` cycles.
//!
//! Every non-halted core charges exactly one cycle per cycle to a
//! Figure-6 category, decided by its architectural *region* (set by the
//! runtime library's `region` markers) and its activity:
//!
//! * region `barrier` → `Barrier`, region `lock` → `Lock`;
//! * otherwise: stalled on a load → `Read`, on a store/atomic → `Write`,
//!   else `Busy`.

use crate::replay::CoreProg;
use gline_core::BarrierHw;
use sim_base::stats::{TimeBreakdown, TimeCat};
use sim_base::trace::{Event, TraceSink, Tracer};
use sim_base::{CoreId, Cycle};
use sim_isa::inst::{Inst, Region};
use sim_isa::reg::{Reg, NUM_REGS};
use sim_isa::Program;
use sim_mem::{CoreMem, CoreReq, CoreResp};
use sim_trace::{CoreTrace, Effect, TraceOp};

/// The Figure-6 category a region's cycles default to when not stalled.
fn region_cat(r: Region) -> TimeCat {
    match r {
        Region::Barrier => TimeCat::Barrier,
        Region::Lock => TimeCat::Lock,
        Region::Normal => TimeCat::Busy,
    }
}

/// What the core is doing this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Can issue instructions.
    Ready,
    /// Waiting for the memory hierarchy; `rd` receives the result.
    WaitMem {
        /// Destination register for the response (r0 for stores).
        rd: Reg,
        /// Stall category while waiting.
        cat: TimeCat,
    },
    /// Executing a `busy` block until the given cycle.
    BusyUntil {
        /// First cycle at which issue resumes.
        until: Cycle,
    },
    /// `halt` executed.
    Halted,
}

/// How a core constrains a fast-forward (cycle-skip) decision. See
/// [`Core::ff_classify`].
#[derive(Clone, Copy, Debug)]
pub enum FfClass {
    /// The core imposes no wake-up of its own: it is halted, or it waits
    /// on a miss whose completion the memory system already schedules.
    NoConstraint,
    /// The core's state changes at this cycle (busy block expires, or a
    /// memory response becomes ready).
    WakeAt(Cycle),
    /// The core is inside a recognized spin loop and can be replayed in
    /// closed form over any skipped span.
    Spin(SpinPlan),
    /// The core does real work this cycle — no skipping.
    Blocked,
}

/// A recognized spin loop, captured at a skip decision point. All of the
/// loop's per-cycle effects (retires, breakdown charges, L1 hits) are
/// closed-form, so [`Core::ff_replay`] applies `k` cycles of it in O(1).
#[derive(Clone, Copy, Debug)]
pub struct SpinPlan {
    /// Program counter of the first loop-body instruction.
    top: usize,
    kind: SpinKind,
}

impl SpinPlan {
    /// The latest cycle a whole-machine skip may jump to under this
    /// plan. Exec-mode spins impose no bound of their own (their probed
    /// value is frozen until an external event the skip clamps on);
    /// replay-mode spins carry a recorded iteration budget, after which
    /// the exit group must execute densely. For genuine recordings the
    /// budget outlasts every delivery-free span, so the clamp never
    /// binds — it exists so a hand-built trace file cannot drive the
    /// replay cursor past its op.
    pub(crate) fn max_target(&self, now: Cycle) -> Option<Cycle> {
        match self.kind {
            SpinKind::Gline { .. } | SpinKind::Mem { .. } => None,
            SpinKind::RGline { left } => Some(now + left),
            SpinKind::RMem { phase_b, left, .. } => Some(now + 2 * left - phase_b as u64),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum SpinKind {
    /// `top: barr rd ; b<cond> …, top` — one iteration per cycle, no
    /// memory interaction; `value` is the (frozen) `bar_reg` contents.
    Gline { rd: Reg, value: u64 },
    /// A two-cycle load/branch spin: `top: [li a, imm ;] ld rd ;
    /// b<cond> …, top`, hitting the L1 on `addr` every iteration.
    Mem {
        addr: u64,
        rd: Reg,
        /// The `li` overlay of the three-instruction form.
        li: Option<(Reg, u64)>,
        /// Dynamic instructions retired by one full iteration.
        iter_retires: u64,
        /// Captured mid-iteration: the pending response and back-branch
        /// still have to execute before the next full iteration.
        phase_b: bool,
        /// The (frozen) value every iteration loads.
        value: u64,
    },
    /// Replay-mode G-line spin: the core sits on a
    /// [`TraceOp::GlineSpin`] op with `left` iterations remaining at
    /// capture — one cycle and two retires each, no machine
    /// interaction.
    RGline { left: u64 },
    /// Replay-mode memory flag spin: the core sits on a
    /// [`TraceOp::MemSpin`] op — the same two-cycle iteration structure
    /// as `Mem`, with the iteration budget recorded instead of derived
    /// from a frozen value.
    RMem {
        addr: u64,
        /// Dynamic instructions retired by one full iteration.
        iter_retires: u64,
        /// Captured mid-iteration (resolve/branch phase pending).
        phase_b: bool,
        /// Iterations remaining at capture.
        left: u64,
    },
}

/// One simulated core.
#[derive(Clone, Debug)]
pub struct Core {
    id: CoreId,
    regs: [u64; NUM_REGS],
    pc: usize,
    status: Status,
    region: Region,
    issue_width: u8,
    breakdown: TimeBreakdown,
    retired: u64,
    gl_barriers: u64,
    /// Barrier context used by `barw`/`barr` (set by `barctx`).
    bar_ctx: usize,
    /// Cycle the current memory stall began (tracing only).
    wait_since: Cycle,
    /// Replay cursor: index of the current trace op (replay mode only).
    rp_op: usize,
    /// Iterations left on the current compressed spin op.
    rp_spin: u64,
    /// Mid mem-spin iteration: the resolve/branch phase is pending.
    rp_phase_b: bool,
}

impl Core {
    /// A reset core.
    pub fn new(id: CoreId, issue_width: u8) -> Core {
        assert!(issue_width >= 1);
        Core {
            id,
            regs: [0; NUM_REGS],
            pc: 0,
            status: Status::Ready,
            region: Region::Normal,
            issue_width,
            breakdown: TimeBreakdown::new(),
            retired: 0,
            gl_barriers: 0,
            bar_ctx: 0,
            wait_since: 0,
            rp_op: 0,
            rp_spin: 0,
            rp_phase_b: false,
        }
    }

    /// Current program counter (recording snapshot).
    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// Current architectural region (recording snapshot).
    pub(crate) fn cur_region(&self) -> Region {
        self.region
    }

    /// End of the current `busy` block, if the core is inside one.
    pub(crate) fn busy_until(&self) -> Option<Cycle> {
        match self.status {
            Status::BusyUntil { until } => Some(until),
            _ => None,
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// True once `halt` has executed (or the program ran out).
    pub fn halted(&self) -> bool {
        self.status == Status::Halted
    }

    /// Figure-6 cycle breakdown so far.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Dynamic instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// `barw` arrivals executed (G-line barrier episodes entered).
    pub fn gl_barriers(&self) -> u64 {
        self.gl_barriers
    }

    /// Register read (`r0` is zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.index() == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Register write (`r0` ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// The category this core's current cycle belongs to.
    pub(crate) fn category(&self) -> TimeCat {
        match self.region {
            Region::Barrier => TimeCat::Barrier,
            Region::Lock => TimeCat::Lock,
            Region::Normal => match self.status {
                Status::WaitMem { cat, .. } => cat,
                _ => TimeCat::Busy,
            },
        }
    }

    /// Runs one cycle. Interacts with the memory hierarchy (the
    /// [`sim_mem::MemorySystem`], or the trace recorder's wrapper around
    /// it — anything implementing [`CoreMem`]) and the G-line barrier hardware (flat, clustered or
    /// TDM — anything implementing [`BarrierHw`]); must be called
    /// before their `tick`s.
    pub fn step<B: BarrierHw + ?Sized, M: CoreMem, S: TraceSink>(
        &mut self,
        prog: &CoreProg,
        mem: &mut M,
        gline: &mut B,
        now: Cycle,
        tracer: &Tracer<S>,
    ) {
        if self.halted() {
            return;
        }
        let (retired_before, pc_before, region_before) = (self.retired, self.pc, self.region);
        match prog {
            CoreProg::Exec(p) => self.step_inner(p, mem, gline, now, tracer),
            CoreProg::Replay(t) => self.replay_inner(t, mem, gline, now, tracer),
        }
        if S::ENABLED {
            let id = self.id;
            let n = self.retired - retired_before;
            if n > 0 {
                tracer.emit(now, || Event::Retire {
                    core: id,
                    pc: pc_before as u32,
                    count: n.min(u8::MAX as u64) as u8,
                });
            }
            if self.region != region_before {
                let cat = region_cat(self.region);
                tracer.emit(now, || Event::Region { core: id, cat });
            }
        }
    }

    fn step_inner<B: BarrierHw + ?Sized, M: CoreMem, S: TraceSink>(
        &mut self,
        prog: &Program,
        mem: &mut M,
        gline: &mut B,
        now: Cycle,
        tracer: &Tracer<S>,
    ) {
        // Charge this cycle by the status it *enters* with, so a 1-cycle
        // L1 hit still attributes one cycle to Read/Write.
        self.breakdown.add(self.category(), 1);

        // Resolve a completed memory stall; the fill latency was already
        // charged by the hierarchy, so issue resumes this cycle.
        if let Status::WaitMem { rd, cat } = self.status {
            if let Some(resp) = mem.poll(self.id) {
                let v = match resp {
                    CoreResp::LoadValue(v) | CoreResp::AmoOld(v) => v,
                    CoreResp::StoreDone => 0,
                };
                self.set_reg(rd, v);
                self.status = Status::Ready;
                if S::ENABLED {
                    let id = self.id;
                    let since = self.wait_since;
                    tracer.emit(now, || Event::Stall {
                        core: id,
                        cat,
                        cycles: now.saturating_sub(since),
                    });
                }
            }
        }
        if let Status::BusyUntil { until } = self.status {
            if now >= until {
                self.status = Status::Ready;
            }
        }

        if self.status != Status::Ready {
            return;
        }

        let mut slots = self.issue_width;
        while slots > 0 {
            slots -= 1;
            let Some(inst) = prog.fetch(self.pc) else {
                self.status = Status::Halted;
                return;
            };
            match inst {
                Inst::Li { rd, imm } => {
                    self.set_reg(rd, imm as u64);
                    self.pc += 1;
                }
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.apply(self.reg(rs1), self.reg(rs2));
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::AluI { op, rd, rs1, imm } => {
                    let v = op.apply(self.reg(rs1), imm as u64);
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.taken(self.reg(rs1), self.reg(rs2)) {
                        self.pc = target;
                        // A taken branch redirects fetch: end the issue
                        // group (no same-cycle issue past a taken branch).
                        self.retired += 1;
                        self.check_pc(prog);
                        return;
                    }
                    self.pc += 1;
                }
                Inst::Jal { rd, target } => {
                    self.set_reg(rd, (self.pc + 1) as u64);
                    self.pc = target;
                    self.retired += 1;
                    self.check_pc(prog);
                    return;
                }
                Inst::Jalr { rd, rs1 } => {
                    let t = self.reg(rs1) as usize;
                    self.set_reg(rd, (self.pc + 1) as u64);
                    self.pc = t;
                    self.retired += 1;
                    self.check_pc(prog);
                    return;
                }
                Inst::Ld { rd, rs1, off } => {
                    let addr = self.reg(rs1).wrapping_add(off as u64);
                    mem.request(self.id, CoreReq::Load { addr });
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Read,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::St { rs2, rs1, off } => {
                    let addr = self.reg(rs1).wrapping_add(off as u64);
                    let value = self.reg(rs2);
                    mem.request(self.id, CoreReq::Store { addr, value });
                    self.status = Status::WaitMem {
                        rd: Reg::ZERO,
                        cat: TimeCat::Write,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::Amo { op, rd, rs1, rs2 } => {
                    let addr = self.reg(rs1);
                    let operand = self.reg(rs2);
                    mem.request(self.id, CoreReq::Amo { addr, op, operand });
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Write,
                    };
                    self.wait_since = now;
                    self.pc += 1;
                    self.retired += 1;
                    return;
                }
                Inst::Busy { cycles } => {
                    self.pc += 1;
                    self.retired += 1;
                    if cycles > 1 {
                        // This cycle counts as the first of the block.
                        self.status = Status::BusyUntil {
                            until: now + cycles as u64,
                        };
                        return;
                    }
                    // busy 0/1: consumes this issue group only.
                    return;
                }
                Inst::BarWrite { rs1 } => {
                    let v = self.reg(rs1);
                    assert!(v != 0, "core {}: barw with a zero value", self.id);
                    gline.write_bar_reg(self.id, self.bar_ctx, v);
                    self.gl_barriers += 1;
                    self.pc += 1;
                }
                Inst::BarRead { rd } => {
                    let v = gline.bar_reg(self.id, self.bar_ctx);
                    self.set_reg(rd, v);
                    self.pc += 1;
                }
                Inst::BarCtx { ctx } => {
                    assert!(
                        (ctx as usize) < gline.num_contexts(),
                        "core {}: barctx {ctx} but the network has {} context(s)",
                        self.id,
                        gline.num_contexts()
                    );
                    self.bar_ctx = ctx as usize;
                    self.pc += 1;
                }
                Inst::SetRegion { region } => {
                    self.region = region;
                    self.pc += 1;
                }
                Inst::Nop => {
                    self.pc += 1;
                }
                Inst::Halt => {
                    self.status = Status::Halted;
                    self.retired += 1;
                    return;
                }
            }
            self.retired += 1;
        }
    }

    // ------------------------------------------------------------------
    // Trace-driven replay (`DESIGN.md` §12): consume recorded issue
    // groups against the live memory hierarchy and barrier network.
    // The status machine — stall resolution, busy blocks, the
    // one-cycle-one-charge accounting — mirrors `step_inner` exactly;
    // only the "what does this cycle execute" question is answered by
    // the trace cursor instead of fetch/decode.
    // ------------------------------------------------------------------

    /// Points the replay cursor's derived state (pc, spin budget) at
    /// the current op. Called at construction and whenever the cursor
    /// advances with the trace in hand.
    fn set_cursor(&mut self, trace: &CoreTrace) {
        match trace.ops.get(self.rp_op) {
            Some(TraceOp::Step(s)) => {
                self.pc = s.pc as usize;
                self.rp_spin = 0;
            }
            Some(TraceOp::GlineSpin { pc, iters }) => {
                self.pc = *pc as usize;
                self.rp_spin = *iters;
            }
            Some(TraceOp::MemSpin { pc, iters, .. }) => {
                self.pc = *pc as usize;
                self.rp_spin = *iters;
            }
            None => self.rp_spin = 0,
        }
        self.rp_phase_b = false;
    }

    /// Initializes the replay cursor on op 0 (replay-mode construction).
    pub(crate) fn prime_replay(&mut self, trace: &CoreTrace) {
        self.set_cursor(trace);
    }

    fn advance_op(&mut self, trace: &CoreTrace) {
        self.rp_op += 1;
        self.set_cursor(trace);
    }

    /// One replay-mode cycle — the trace-driven mirror of
    /// [`step_inner`](Self::step_inner).
    fn replay_inner<B: BarrierHw + ?Sized, M: CoreMem, S: TraceSink>(
        &mut self,
        trace: &CoreTrace,
        mem: &mut M,
        gline: &mut B,
        now: Cycle,
        tracer: &Tracer<S>,
    ) {
        self.breakdown.add(self.category(), 1);
        if let Status::WaitMem { rd: _, cat } = self.status {
            if mem.poll(self.id).is_some() {
                self.status = Status::Ready;
                if S::ENABLED {
                    let id = self.id;
                    let since = self.wait_since;
                    tracer.emit(now, || Event::Stall {
                        core: id,
                        cat,
                        cycles: now.saturating_sub(since),
                    });
                }
            }
        }
        if let Status::BusyUntil { until } = self.status {
            if now >= until {
                self.status = Status::Ready;
            }
        }
        if self.status != Status::Ready {
            return;
        }

        // Mid mem-spin: the pending resolve/branch phase retires the
        // back-branch and completes the iteration.
        if self.rp_phase_b {
            if let Some(TraceOp::MemSpin { pc, .. }) = trace.ops.get(self.rp_op) {
                self.retired += 1;
                self.pc = *pc as usize;
                self.rp_phase_b = false;
                self.rp_spin = self.rp_spin.saturating_sub(1);
                if self.rp_spin == 0 {
                    self.advance_op(trace);
                }
                return;
            }
            self.rp_phase_b = false;
        }
        let Some(op) = trace.ops.get(self.rp_op) else {
            // Ran off the end without a halt op (hand-built trace):
            // treat as halted rather than livelocking the machine.
            self.status = Status::Halted;
            return;
        };
        match op {
            TraceOp::GlineSpin { pc, .. } => {
                // One full iteration (barr + taken branch) per cycle.
                self.retired += 2;
                self.pc = *pc as usize;
                self.rp_spin = self.rp_spin.saturating_sub(1);
                if self.rp_spin == 0 {
                    self.advance_op(trace);
                }
            }
            TraceOp::MemSpin {
                pc,
                addr,
                iter_retires,
                ..
            } => {
                // Issue phase: the probing load goes to the hierarchy;
                // the resolve phase runs when it answers (next cycle on
                // the L1 hit every recorded iteration was).
                mem.request(self.id, CoreReq::Load { addr: *addr });
                self.status = Status::WaitMem {
                    rd: Reg::ZERO,
                    cat: TimeCat::Read,
                };
                self.wait_since = now;
                self.retired += *iter_retires as u64 - 1;
                self.pc = *pc as usize + *iter_retires as usize - 1;
                self.rp_phase_b = true;
            }
            TraceOp::Step(s) => {
                self.retired += s.retires as u64;
                if let Some(r) = s.region {
                    self.region = r;
                }
                for &(ctx, v) in &s.bar_writes {
                    self.gl_barriers += 1;
                    gline.write_bar_reg(self.id, ctx as usize, v);
                }
                match s.effect {
                    Effect::None => {}
                    Effect::Load { addr } => {
                        mem.request(self.id, CoreReq::Load { addr });
                        self.status = Status::WaitMem {
                            rd: Reg::ZERO,
                            cat: TimeCat::Read,
                        };
                        self.wait_since = now;
                    }
                    Effect::Store { addr, value } => {
                        mem.request(self.id, CoreReq::Store { addr, value });
                        self.status = Status::WaitMem {
                            rd: Reg::ZERO,
                            cat: TimeCat::Write,
                        };
                        self.wait_since = now;
                    }
                    Effect::Amo { addr, op, operand } => {
                        mem.request(self.id, CoreReq::Amo { addr, op, operand });
                        self.status = Status::WaitMem {
                            rd: Reg::ZERO,
                            cat: TimeCat::Write,
                        };
                        self.wait_since = now;
                    }
                    Effect::Busy { cycles } => {
                        self.status = Status::BusyUntil {
                            until: now + cycles as u64,
                        };
                    }
                    Effect::Halt => {
                        self.status = Status::Halted;
                    }
                }
                self.advance_op(trace);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fast-forward support (quiescence-aware cycle skipping).
    //
    // The skip scheduler may only jump over cycles whose effects it can
    // reproduce exactly. For a core that means either (a) it is parked —
    // busy block or memory stall, where each skipped cycle only charges
    // one breakdown category — or (b) it is executing a recognized spin
    // loop whose per-cycle effects are closed-form. Everything else
    // blocks skipping.
    // ------------------------------------------------------------------

    /// How this core constrains a skip decision at cycle `now` (i.e.
    /// immediately before the `step` for cycle `now` would run).
    pub fn ff_classify<B: BarrierHw + ?Sized, M: CoreMem>(
        &self,
        prog: &CoreProg,
        mem: &M,
        gline: &B,
        now: Cycle,
    ) -> FfClass {
        match prog {
            CoreProg::Exec(p) => self.ff_classify_exec(p, mem, gline, now),
            CoreProg::Replay(t) => self.ff_classify_replay(t, mem, now),
        }
    }

    fn ff_classify_exec<B: BarrierHw + ?Sized, M: CoreMem>(
        &self,
        prog: &Program,
        mem: &M,
        gline: &B,
        now: Cycle,
    ) -> FfClass {
        match self.status {
            Status::Halted => FfClass::NoConstraint,
            Status::BusyUntil { until } => {
                if until <= now {
                    // Resumes issue this very cycle.
                    FfClass::Blocked
                } else {
                    FfClass::WakeAt(until)
                }
            }
            Status::WaitMem { rd, cat } => match mem.resp_ready_at(self.id) {
                // Miss in flight: the memory system's own `next_event`
                // (home timers, NoC arrivals) provides the wake-up.
                None => FfClass::NoConstraint,
                Some(r) if r > now => FfClass::WakeAt(r),
                Some(_) => {
                    // The response resolves this cycle. If it is a load
                    // feeding a taken branch back into a recognized spin
                    // loop, the core is mid-iteration of that spin.
                    if cat == TimeCat::Read {
                        if let Some(plan) = self.match_phase_b(prog, mem, rd) {
                            return FfClass::Spin(plan);
                        }
                    }
                    FfClass::Blocked
                }
            },
            Status::Ready => match self.match_phase_a(prog, mem, gline) {
                Some(plan) => FfClass::Spin(plan),
                None => FfClass::Blocked,
            },
        }
    }

    /// Replay-mode skip classification: the trace cursor already says
    /// whether the core is inside a compressed spin, so no program
    /// inspection is needed — only the live-memory preconditions
    /// (L1-resident line, frozen value) that make closed-form replay
    /// sound.
    fn ff_classify_replay<M: CoreMem>(&self, trace: &CoreTrace, mem: &M, now: Cycle) -> FfClass {
        match self.status {
            Status::Halted => FfClass::NoConstraint,
            Status::BusyUntil { until } => {
                if until <= now {
                    FfClass::Blocked
                } else {
                    FfClass::WakeAt(until)
                }
            }
            Status::WaitMem { rd: _, cat } => match mem.resp_ready_at(self.id) {
                None => FfClass::NoConstraint,
                Some(r) if r > now => FfClass::WakeAt(r),
                Some(_) => {
                    if cat == TimeCat::Read {
                        if let Some(plan) = self.replay_spin_b(trace, mem) {
                            return FfClass::Spin(plan);
                        }
                    }
                    FfClass::Blocked
                }
            },
            Status::Ready => match self.replay_spin_a(trace, mem, false) {
                Some(plan) => FfClass::Spin(plan),
                None => FfClass::Blocked,
            },
        }
    }

    /// Replay-mode spin plan with the core `Ready` at a compressed
    /// spin's loop top. With `mem_only`, only memory-probing spins are
    /// reported (the per-core park decision, which discards G-line
    /// plans anyway).
    fn replay_spin_a<M: CoreMem>(
        &self,
        trace: &CoreTrace,
        mem: &M,
        mem_only: bool,
    ) -> Option<SpinPlan> {
        if self.rp_spin == 0 || self.rp_phase_b {
            return None;
        }
        match trace.ops.get(self.rp_op)? {
            TraceOp::GlineSpin { pc, .. } if !mem_only => Some(SpinPlan {
                top: *pc as usize,
                kind: SpinKind::RGline { left: self.rp_spin },
            }),
            TraceOp::MemSpin {
                pc,
                addr,
                iter_retires,
                ..
            } => {
                // Future iterations must hit in the L1, exactly as the
                // recorded ones did.
                mem.spin_probe_load(self.id, *addr)?;
                Some(SpinPlan {
                    top: *pc as usize,
                    kind: SpinKind::RMem {
                        addr: *addr,
                        iter_retires: *iter_retires as u64,
                        phase_b: false,
                        left: self.rp_spin,
                    },
                })
            }
            _ => None,
        }
    }

    /// Replay-mode spin plan captured mid-iteration: the core is in
    /// `WaitMem` on a compressed mem-spin's probing load, with the
    /// response pending.
    fn replay_spin_b<M: CoreMem>(&self, trace: &CoreTrace, mem: &M) -> Option<SpinPlan> {
        if !self.rp_phase_b || self.rp_spin == 0 || mem.l1_busy(self.id) {
            return None;
        }
        let TraceOp::MemSpin {
            pc,
            addr,
            iter_retires,
            ..
        } = trace.ops.get(self.rp_op)?
        else {
            return None;
        };
        mem.peek_resp_load(self.id)?;
        mem.spin_line_value(self.id, *addr)?;
        Some(SpinPlan {
            top: *pc as usize,
            kind: SpinKind::RMem {
                addr: *addr,
                iter_retires: *iter_retires as u64,
                phase_b: true,
                left: self.rp_spin,
            },
        })
    }

    /// The per-tick park decision of the active-set scheduler: is this
    /// core inside a *memory-probing* spin it can be parked on?
    ///
    /// This is [`ff_classify`](Self::ff_classify) restricted to the
    /// plans the caller would keep — G-line spins are never parked
    /// per-core (the barrier release that ends them is not an L1
    /// delivery), so the full classifier wasted a barrier-register
    /// read and a branch evaluation per spinning core per tick just to
    /// produce a plan the caller discarded. Matching only the
    /// memory-probing shapes is bit-identical and much cheaper on
    /// G-line-bound workloads.
    pub(crate) fn park_spin<M: CoreMem>(
        &self,
        prog: &CoreProg,
        mem: &M,
        now: Cycle,
    ) -> Option<SpinPlan> {
        match prog {
            CoreProg::Exec(p) => match self.status {
                Status::Ready => match p.fetch(self.pc)? {
                    Inst::Ld { .. } | Inst::Li { .. } => self.match_phase_a_mem(p, mem),
                    _ => None,
                },
                Status::WaitMem {
                    rd,
                    cat: TimeCat::Read,
                } => {
                    match mem.resp_ready_at(self.id) {
                        Some(r) if r <= now => {}
                        _ => return None,
                    }
                    self.match_phase_b(p, mem, rd)
                }
                _ => None,
            },
            CoreProg::Replay(t) => match self.status {
                Status::Ready => self.replay_spin_a(t, mem, true),
                Status::WaitMem {
                    rd: _,
                    cat: TimeCat::Read,
                } => {
                    match mem.resp_ready_at(self.id) {
                        Some(r) if r <= now => {}
                        _ => return None,
                    }
                    self.replay_spin_b(t, mem)
                }
                _ => None,
            },
        }
    }

    /// Recognizes a spin loop with the core `Ready` at the loop top.
    fn match_phase_a<B: BarrierHw + ?Sized, M: CoreMem>(
        &self,
        prog: &Program,
        mem: &M,
        gline: &B,
    ) -> Option<SpinPlan> {
        let top = self.pc;
        match prog.fetch(top)? {
            // `top: barr rd ; b<cond> …, top` — one iteration per cycle
            // on a 2-wide core, no memory interaction.
            Inst::BarRead { rd } if self.issue_width >= 2 => {
                let Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } = prog.fetch(top + 1)?
                else {
                    return None;
                };
                if target != top {
                    return None;
                }
                let v = gline.bar_reg(self.id, self.bar_ctx);
                let rv = |r: Reg| {
                    if r.index() == 0 {
                        0
                    } else if r == rd {
                        v
                    } else {
                        self.reg(r)
                    }
                };
                cond.taken(rv(rs1), rv(rs2)).then_some(SpinPlan {
                    top,
                    kind: SpinKind::Gline { rd, value: v },
                })
            }
            _ => self.match_phase_a_mem(prog, mem),
        }
    }

    /// The memory-probing subset of [`match_phase_a`](Self::match_phase_a):
    /// flag-wait loops whose every iteration hits in the L1. Split out so
    /// the per-core park decision can match these shapes without touching
    /// the barrier network.
    fn match_phase_a_mem<M: CoreMem>(&self, prog: &Program, mem: &M) -> Option<SpinPlan> {
        let top = self.pc;
        match prog.fetch(top)? {
            // `top: ld rd, off(ra) ; b<cond> …, top` — two cycles per
            // iteration (issue the L1 hit, then resolve + branch).
            Inst::Ld { rd, rs1, off } => {
                let Inst::Branch {
                    cond,
                    rs1: b1,
                    rs2: b2,
                    target,
                } = prog.fetch(top + 1)?
                else {
                    return None;
                };
                if target != top {
                    return None;
                }
                let addr = self.reg(rs1).wrapping_add(off as u64);
                let v = mem.spin_probe_load(self.id, addr)?;
                let rv = |r: Reg| {
                    if r.index() == 0 {
                        0
                    } else if r == rd {
                        v
                    } else {
                        self.reg(r)
                    }
                };
                cond.taken(rv(b1), rv(b2)).then_some(SpinPlan {
                    top,
                    kind: SpinKind::Mem {
                        addr,
                        rd,
                        li: None,
                        iter_retires: 2,
                        phase_b: false,
                        value: v,
                    },
                })
            }
            // `top: li a, imm ; ld rd, off(a) ; b<cond> …, top` — the
            // CSW/DSW flag wait. Dual issue pairs the li with the ld, so
            // this is also a two-cycle iteration.
            Inst::Li { rd: a, imm } if self.issue_width >= 2 => {
                let Inst::Ld { rd, rs1, off } = prog.fetch(top + 1)? else {
                    return None;
                };
                let Inst::Branch {
                    cond,
                    rs1: b1,
                    rs2: b2,
                    target,
                } = prog.fetch(top + 2)?
                else {
                    return None;
                };
                if target != top {
                    return None;
                }
                // Address as seen after `li a, imm`.
                let base = if rs1 == a { imm as u64 } else { self.reg(rs1) };
                let addr = base.wrapping_add(off as u64);
                let v = mem.spin_probe_load(self.id, addr)?;
                // Branch registers as seen after the load (`rd` shadows
                // `a` if they alias).
                let rv = |r: Reg| {
                    if r.index() == 0 {
                        0
                    } else if r == rd {
                        v
                    } else if r == a {
                        imm as u64
                    } else {
                        self.reg(r)
                    }
                };
                cond.taken(rv(b1), rv(b2)).then_some(SpinPlan {
                    top,
                    kind: SpinKind::Mem {
                        addr,
                        rd,
                        li: Some((a, imm as u64)),
                        iter_retires: 3,
                        phase_b: false,
                        value: v,
                    },
                })
            }
            _ => None,
        }
    }

    /// Recognizes a spin loop captured mid-iteration: the core is in
    /// `WaitMem` with a load response pending, `pc` points at the loop's
    /// back-branch, and the branch (with the pending value) jumps back to
    /// a loop body this core would keep spinning in.
    fn match_phase_b<M: CoreMem>(&self, prog: &Program, mem: &M, rd: Reg) -> Option<SpinPlan> {
        if mem.l1_busy(self.id) {
            return None;
        }
        let (_, v) = mem.peek_resp_load(self.id)?;
        let Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } = prog.fetch(self.pc)?
        else {
            return None;
        };
        let rv = |r: Reg| {
            if r.index() == 0 {
                0
            } else if r == rd {
                v
            } else {
                self.reg(r)
            }
        };
        if !cond.taken(rv(rs1), rv(rs2)) {
            return None;
        }
        let top = target;
        let (addr, li, iter_retires) = match prog.fetch(top)? {
            Inst::Ld {
                rd: lrd,
                rs1: lr,
                off,
            } if self.pc == top + 1 && lrd == rd => {
                (self.reg(lr).wrapping_add(off as u64), None, 2)
            }
            Inst::Li { rd: a, imm } if self.pc == top + 2 && self.issue_width >= 2 => {
                let Inst::Ld {
                    rd: lrd,
                    rs1: lr,
                    off,
                } = prog.fetch(top + 1)?
                else {
                    return None;
                };
                if lrd != rd {
                    return None;
                }
                let base = if lr == a { imm as u64 } else { self.reg(lr) };
                (base.wrapping_add(off as u64), Some((a, imm as u64)), 3)
            }
            _ => return None,
        };
        // Future iterations must hit in the L1 and keep observing the
        // same (frozen) value; bail if the line is not resident or the
        // pending response somehow disagrees with it.
        if mem.spin_line_value(self.id, addr)? != v {
            return None;
        }
        Some(SpinPlan {
            top,
            kind: SpinKind::Mem {
                addr,
                rd,
                li,
                iter_retires,
                phase_b: true,
                value: v,
            },
        })
    }

    /// The first cycle at which this core can possibly do more than
    /// charge its current stall category, or `None` when it cannot be
    /// parked (it is ready, halted, or waiting on a miss whose
    /// completion cycle the memory system has not scheduled yet).
    ///
    /// Until that cycle, every `step` is provably a pure breakdown
    /// charge: a `WaitMem` step polls (getting `None` before the
    /// response's ready cycle) and returns; a `BusyUntil` step checks
    /// the expiry and returns. The active-set scheduler uses this to
    /// skip the core's steps entirely and charge the span lazily at
    /// wake-up (via [`ff_stall`](Self::ff_stall)), which is
    /// bit-identical because the status — and with it the charged
    /// category — cannot change while the core is parked.
    pub(crate) fn park_until<M: CoreMem>(&self, mem: &M) -> Option<Cycle> {
        match self.status {
            Status::BusyUntil { until } => Some(until),
            Status::WaitMem { .. } => mem.resp_ready_at(self.id),
            Status::Ready | Status::Halted => None,
        }
    }

    /// True when the core is stalled on a memory access whose response
    /// the L1 has not scheduled yet (the miss is still in flight in the
    /// protocol). Until a message reaches this tile, every `step` is
    /// provably a pure breakdown charge — `poll` keeps returning `None`
    /// because only a delivery can install the response (or service a
    /// deferred coherence message) — so the active-set scheduler parks
    /// the core on the delivery trigger instead of a wake cycle.
    pub(crate) fn waiting_on_unscheduled_resp<M: CoreMem>(&self, mem: &M) -> bool {
        matches!(self.status, Status::WaitMem { .. }) && mem.resp_ready_at(self.id).is_none()
    }

    /// Applies `k = target - now` skipped cycles of a parked core: each
    /// cycle only charges one breakdown category, exactly as `step`
    /// would.
    pub fn ff_stall(&mut self, k: u64) {
        debug_assert!(
            matches!(
                self.status,
                Status::WaitMem { .. } | Status::BusyUntil { .. }
            ),
            "only a parked core can fast-forward a stall"
        );
        self.breakdown.add(self.category(), k);
    }

    /// Replays `k = target - now` cycles of a recognized spin loop in
    /// O(1), leaving the core (and its L1, via `mem`) in exactly the
    /// state `k` normal `step`s would have produced.
    /// Callers guarantee the run is untraced (traced runs disable both
    /// cycle skipping and spin parking, the only routes here).
    pub fn ff_replay<M: CoreMem>(
        &mut self,
        plan: SpinPlan,
        target: Cycle,
        now: Cycle,
        mem: &mut M,
    ) {
        let k = target - now;
        // Whole-machine skips always have k >= 2 (a 1-cycle skip is
        // just a tick), but a per-core spin park may be woken by an L1
        // delivery after a single elided cycle; the arithmetic below is
        // exact for k = 1 too (one phase-A or phase-B cycle).
        debug_assert!(k >= 1, "replay of an empty span");
        match plan.kind {
            SpinKind::Gline { rd, value } => {
                // One full iteration (barr + taken branch) per cycle.
                self.breakdown.add(self.category(), k);
                self.retired += 2 * k;
                self.set_reg(rd, value);
                debug_assert_eq!(self.pc, plan.top);
            }
            SpinKind::Mem {
                addr,
                rd,
                li,
                iter_retires,
                phase_b,
                value,
            } => {
                // Cycles alternate between the issue phase (A: entered
                // `Ready`, performs the L1 hit) and the resolve phase
                // (B: entered `WaitMem`, retires the back-branch).
                let (a_cycles, b_cycles) = if phase_b {
                    (k / 2, k.div_ceil(2))
                } else {
                    (k.div_ceil(2), k / 2)
                };
                let ends_waiting = if phase_b {
                    k.is_multiple_of(2)
                } else {
                    !k.is_multiple_of(2)
                };
                let cat_a = region_cat(self.region);
                let cat_b = match self.region {
                    Region::Normal => TimeCat::Read,
                    r => region_cat(r),
                };
                self.breakdown.add(cat_a, a_cycles);
                self.breakdown.add(cat_b, b_cycles);
                self.retired += a_cycles * (iter_retires - 1) + b_cycles;
                if phase_b {
                    // Consume the response that was pending at capture.
                    let _ = mem.take_resp_for_replay(self.id);
                }
                if ends_waiting {
                    // Last skipped cycle issued the load; the branch is
                    // next, with the response arriving at `target`.
                    self.set_reg(rd, value);
                    if let Some((a, imm)) = li {
                        self.set_reg(a, imm);
                    }
                    self.status = Status::WaitMem {
                        rd,
                        cat: TimeCat::Read,
                    };
                    self.wait_since = target - 1;
                    self.pc = plan.top + iter_retires as usize - 1;
                    mem.spin_replay(self.id, addr, a_cycles, Some(target));
                } else {
                    // Last skipped cycle retired the back-branch.
                    if let Some((a, imm)) = li {
                        self.set_reg(a, imm);
                    }
                    self.set_reg(rd, value);
                    self.status = Status::Ready;
                    if a_cycles > 0 {
                        self.wait_since = target - 2;
                    }
                    self.pc = plan.top;
                    mem.spin_replay(self.id, addr, a_cycles, None);
                }
            }
            SpinKind::RGline { left } => {
                // Replay-mode G-line spin: one compressed iteration per
                // cycle, no registers to update — the trace's exit step
                // carries everything the machine observes afterwards.
                debug_assert_eq!(self.pc, plan.top);
                debug_assert!(k <= left, "skip past a replay spin's budget");
                let _ = left;
                self.breakdown.add(self.category(), k);
                self.retired += 2 * k;
                self.rp_spin = self.rp_spin.saturating_sub(k);
                if self.rp_spin == 0 {
                    // `CoreTrace::validate` guarantees the op after a
                    // spin is a plain `Step` at this same pc, so the
                    // cursor can advance without the trace in hand.
                    self.rp_op += 1;
                }
            }
            SpinKind::RMem {
                addr,
                iter_retires,
                phase_b,
                left,
            } => {
                // Same phase alternation as the exec-mode `Mem` arm,
                // with the iteration budget bounding the skip instead
                // of a frozen register value.
                let (a_cycles, b_cycles) = if phase_b {
                    (k / 2, k.div_ceil(2))
                } else {
                    (k.div_ceil(2), k / 2)
                };
                let ends_waiting = if phase_b {
                    k.is_multiple_of(2)
                } else {
                    !k.is_multiple_of(2)
                };
                debug_assert!(b_cycles <= left, "skip past a replay spin's budget");
                let _ = left;
                let cat_a = region_cat(self.region);
                let cat_b = match self.region {
                    Region::Normal => TimeCat::Read,
                    r => region_cat(r),
                };
                self.breakdown.add(cat_a, a_cycles);
                self.breakdown.add(cat_b, b_cycles);
                self.retired += a_cycles * (iter_retires - 1) + b_cycles;
                if phase_b {
                    let _ = mem.take_resp_for_replay(self.id);
                }
                self.rp_spin = self.rp_spin.saturating_sub(b_cycles);
                if ends_waiting {
                    self.status = Status::WaitMem {
                        rd: Reg::ZERO,
                        cat: TimeCat::Read,
                    };
                    self.wait_since = target - 1;
                    self.pc = plan.top + iter_retires as usize - 1;
                    self.rp_phase_b = true;
                    mem.spin_replay(self.id, addr, a_cycles, Some(target));
                } else {
                    self.status = Status::Ready;
                    if a_cycles > 0 {
                        self.wait_since = target - 2;
                    }
                    self.pc = plan.top;
                    self.rp_phase_b = false;
                    mem.spin_replay(self.id, addr, a_cycles, None);
                    if self.rp_spin == 0 {
                        self.rp_op += 1;
                    }
                }
            }
        }
    }

    /// Pure preview of what [`ff_replay`](Self::ff_replay) would charge
    /// for `k` elided cycles of a memory-probing `plan`: `(category_a,
    /// a_cycles, category_b, b_cycles, retired, l1_hits)`. Used by
    /// `System::report` to fold a spin-parked core's pending span into
    /// a mid-run report without mutating anything; the numbers match
    /// the eventual replay exactly because the core's region and the
    /// plan are frozen while parked.
    pub(crate) fn spin_pending_stats(
        &self,
        plan: &SpinPlan,
        k: u64,
    ) -> (TimeCat, u64, TimeCat, u64, u64, u64) {
        let (iter_retires, phase_b) = match plan.kind {
            SpinKind::Mem {
                iter_retires,
                phase_b,
                ..
            } => (iter_retires, phase_b),
            SpinKind::RMem {
                iter_retires,
                phase_b,
                ..
            } => (iter_retires, phase_b),
            SpinKind::Gline { .. } | SpinKind::RGline { .. } => {
                unreachable!("only memory-probing spins are parked per-core")
            }
        };
        let (a_cycles, b_cycles) = if phase_b {
            (k / 2, k.div_ceil(2))
        } else {
            (k.div_ceil(2), k / 2)
        };
        let cat_a = region_cat(self.region);
        let cat_b = match self.region {
            Region::Normal => TimeCat::Read,
            r => region_cat(r),
        };
        (
            cat_a,
            a_cycles,
            cat_b,
            b_cycles,
            a_cycles * (iter_retires - 1) + b_cycles,
            a_cycles,
        )
    }

    fn check_pc(&mut self, prog: &Program) {
        assert!(
            self.pc <= prog.len(),
            "core {}: control transfer to bad pc {}",
            self.id,
            self.pc
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::config::{CmpConfig, GlineConfig};
    use sim_isa::assemble;
    use sim_mem::MemorySystem;

    fn machine() -> (MemorySystem, gline_core::BarrierNetwork) {
        let cfg = CmpConfig::icpp2010_with_cores(4);
        (
            MemorySystem::new(&cfg),
            gline_core::BarrierNetwork::new(cfg.mesh, GlineConfig::default()),
        )
    }

    fn run_one(src: &str, max: u64) -> (Core, MemorySystem) {
        let prog = CoreProg::Exec(assemble(src).unwrap());
        let (mut mem, mut gl) = machine();
        let mut core = Core::new(CoreId(0), 2);
        let tracer = Tracer::default();
        let mut now = 0;
        while !core.halted() {
            core.step(&prog, &mut mem, &mut gl, now, &tracer);
            mem.tick();
            gl.tick();
            now += 1;
            assert!(now < max, "program did not halt in {max} cycles");
        }
        (core, mem)
    }

    #[test]
    fn dual_issue_retires_two_alu_per_cycle() {
        // 10 ALU ops + halt on a 2-wide core: ~6 cycles, not 11.
        let src = "li r1, 1\n".repeat(10) + "halt";
        let (core, _) = run_one(&src, 100);
        assert!(
            core.breakdown().total() <= 7,
            "took {} cycles",
            core.breakdown().total()
        );
        assert_eq!(core.retired(), 11);
    }

    #[test]
    fn busy_occupies_exact_cycles() {
        let (core, _) = run_one("busy 50\nhalt", 100);
        // busy 50 = 50 cycles + 1 for halt (±1 for issue alignment).
        let total = core.breakdown().total();
        assert!((50..=52).contains(&total), "busy 50 took {total}");
        assert_eq!(core.breakdown()[TimeCat::Busy], total);
    }

    #[test]
    fn store_then_load_round_trips_through_memory() {
        let (core, mem) = run_one(
            "
            li r1, 0x100
            li r2, 99
            st r2, 0(r1)
            ld r3, 0(r1)
            beq r3, r2, ok
            busy 10000   # wrong value: hang so the test fails
        ok: halt
            ",
            100_000,
        );
        assert_eq!(mem.peek_word(0x100), 99);
        assert!(
            core.breakdown()[TimeCat::Write] > 0,
            "store stall must be charged"
        );
        assert!(
            core.breakdown()[TimeCat::Read] > 0,
            "load stall must be charged"
        );
    }

    #[test]
    fn region_markers_redirect_attribution() {
        let (core, _) = run_one(
            "
            region barrier
            busy 20
            region lock
            busy 30
            region normal
            busy 10
            halt
            ",
            1000,
        );
        let b = core.breakdown();
        assert!((19..=22).contains(&b[TimeCat::Barrier]), "{b:?}");
        assert!((29..=32).contains(&b[TimeCat::Lock]), "{b:?}");
        assert!(b[TimeCat::Busy] >= 10, "{b:?}");
    }

    #[test]
    fn gl_barrier_single_core() {
        // On a 4-core machine a single core cannot pass the barrier; on a
        // 1-core machine it takes ~4 cycles. Build a 1-core machine.
        let cfg = CmpConfig::icpp2010_with_cores(1);
        let mut mem = MemorySystem::new(&cfg);
        let mut gl = gline_core::BarrierNetwork::new(cfg.mesh, GlineConfig::default());
        let prog = CoreProg::Exec(
            assemble(
                "
            region barrier
            li r1, 1
            barw r1
        w:  barr r2
            bne r2, r0, w
            region normal
            halt
            ",
            )
            .unwrap(),
        );
        let mut core = Core::new(CoreId(0), 2);
        let tracer = Tracer::default();
        let mut now = 0;
        while !core.halted() {
            core.step(&prog, &mut mem, &mut gl, now, &tracer);
            mem.tick();
            gl.tick();
            now += 1;
            assert!(now < 100);
        }
        assert_eq!(core.gl_barriers(), 1);
        assert!(core.breakdown()[TimeCat::Barrier] >= 4);
    }

    #[test]
    fn taken_branch_ends_issue_group() {
        // A tight 100-iteration decrement loop: 2 instructions per
        // iteration with the branch ending the group → ~100+ cycles.
        let (core, _) = run_one(
            "
            li r1, 100
        l:  addi r1, r1, -1
            bne r1, r0, l
            halt
            ",
            10_000,
        );
        assert!(core.breakdown().total() >= 100);
        assert_eq!(core.retired(), 202);
    }

    #[test]
    #[should_panic(expected = "barw with a zero value")]
    fn zero_barw_rejected() {
        let _ = run_one("barw r0\nhalt", 100);
    }
}
