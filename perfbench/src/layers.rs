//! Per-layer measurement from outside the simulator.
//!
//! A traced simulation runs with [`Counting`] as its trace sink and its
//! barrier hardware wrapped in [`Recording`]. The sink counts each
//! layer's events and keeps the inputs that enter the NoC and the L1s;
//! the wrapper keeps every `bar_reg` write. The `replay_*` functions
//! then feed those inputs into one layer alone, through its public
//! API, and time only that layer.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use gline_core::{BarrierHw, CtxId, GlineStats};
use sim_base::config::CmpConfig;
use sim_base::stats::MsgClass;
use sim_base::trace::{Event, TraceSink};
use sim_base::{CoreId, Cycle};
use sim_mem::{CoreReq, MemorySystem};
use sim_noc::{Message, Noc};

use crate::timed;

/// Captured inputs kept per layer and simulation. Longer streams are
/// truncated: the replays time a prefix, and the per-event cost is
/// taken over what was replayed.
pub const CAPTURE_CAP: usize = 1 << 21;

/// A message as it entered the NoC.
#[derive(Clone, Copy, Debug)]
pub struct NocInput {
    /// Send cycle.
    pub cycle: Cycle,
    /// Source tile.
    pub src: CoreId,
    /// Destination tile.
    pub dst: CoreId,
    /// Virtual network.
    pub class: MsgClass,
    /// Flits of the message.
    pub flits: u32,
}

/// A data access as it reached an L1.
#[derive(Clone, Copy, Debug)]
pub struct MemInput {
    /// Access cycle.
    pub cycle: Cycle,
    /// Accessing core.
    pub core: CoreId,
    /// Byte address.
    pub addr: u64,
    /// Store or atomic.
    pub write: bool,
}

/// A `bar_reg` write as it reached the barrier hardware.
#[derive(Clone, Copy, Debug)]
pub struct GlineInput {
    /// Write cycle.
    pub cycle: Cycle,
    /// Writing core.
    pub core: CoreId,
    /// Barrier context.
    pub ctx: CtxId,
    /// Value written.
    pub value: u64,
}

/// Trace sink counting each layer's events and keeping NoC and L1
/// inputs (up to [`CAPTURE_CAP`] each).
#[derive(Debug, Default)]
pub struct Counting {
    /// Instructions retired (sum of `Retire` counts).
    pub retired: u64,
    /// `L1Access` events.
    pub l1_accesses: u64,
    /// `L1Access` events that hit.
    pub l1_hits: u64,
    /// `L2Access` events.
    pub l2_accesses: u64,
    /// `L2Access` events that hit.
    pub l2_hits: u64,
    /// `DirTransition` events.
    pub dir_transitions: u64,
    /// `NocSend` events by class.
    pub noc_sends: [u64; 3],
    /// `NocFlitHop` events.
    pub flit_hops: u64,
    /// `GlineAssert` events.
    pub gline_asserts: u64,
    /// `BarrierComplete` events.
    pub barrier_completes: u64,
    /// Captured NoC inputs.
    pub noc_inputs: Vec<NocInput>,
    /// Captured L1 inputs.
    pub mem_inputs: Vec<MemInput>,
}

impl TraceSink for Counting {
    fn emit(&mut self, cycle: Cycle, ev: Event) {
        match ev {
            Event::Retire { count, .. } => self.retired += count as u64,
            Event::L1Access {
                core,
                addr,
                write,
                hit,
            } => {
                self.l1_accesses += 1;
                self.l1_hits += hit as u64;
                if self.mem_inputs.len() < CAPTURE_CAP {
                    self.mem_inputs.push(MemInput {
                        cycle,
                        core,
                        addr,
                        write,
                    });
                }
            }
            Event::L2Access { hit, .. } => {
                self.l2_accesses += 1;
                self.l2_hits += hit as u64;
            }
            Event::DirTransition { .. } => self.dir_transitions += 1,
            Event::NocSend {
                src,
                dst,
                class,
                flits,
                ..
            } => {
                self.noc_sends[class.index()] += 1;
                if self.noc_inputs.len() < CAPTURE_CAP {
                    self.noc_inputs.push(NocInput {
                        cycle,
                        src,
                        dst,
                        class,
                        flits,
                    });
                }
            }
            Event::NocFlitHop { .. } => self.flit_hops += 1,
            Event::GlineAssert { .. } => self.gline_asserts += 1,
            Event::BarrierComplete { .. } => self.barrier_completes += 1,
            _ => {}
        }
    }
}

/// Barrier hardware that forwards every call to `inner` and keeps each
/// `bar_reg` write in a shared log.
#[derive(Debug)]
pub struct Recording<B> {
    inner: B,
    log: Rc<RefCell<Vec<GlineInput>>>,
}

impl<B: BarrierHw> Recording<B> {
    /// Wraps `inner`; the returned log fills as the machine runs.
    pub fn new(inner: B) -> (Recording<B>, Rc<RefCell<Vec<GlineInput>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            Recording {
                inner,
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl<B: BarrierHw> BarrierHw for Recording<B> {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }
    fn write_bar_reg(&mut self, core: CoreId, ctx: CtxId, value: u64) {
        self.log.borrow_mut().push(GlineInput {
            cycle: self.inner.now(),
            core,
            ctx,
            value,
        });
        self.inner.write_bar_reg(core, ctx, value);
    }
    fn bar_reg(&self, core: CoreId, ctx: CtxId) -> u64 {
        self.inner.bar_reg(core, ctx)
    }
    fn all_released(&self, ctx: CtxId) -> bool {
        self.inner.all_released(ctx)
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn num_contexts(&self) -> usize {
        self.inner.num_contexts()
    }
    fn stats(&self, ctx: CtxId) -> GlineStats {
        self.inner.stats(ctx)
    }
    fn next_event(&self) -> Option<Cycle> {
        self.inner.next_event()
    }
    fn skip_to(&mut self, t: Cycle) {
        self.inner.skip_to(t);
    }
    fn min_notify_latency(&self) -> u64 {
        self.inner.min_notify_latency()
    }
    fn release_bound(&self) -> u64 {
        self.inner.release_bound()
    }
}

/// Result of replaying one layer's inputs into the layer alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerRun {
    /// Host seconds inside the layer's calls (and the replay loop).
    pub host_s: f64,
    /// Work units the layer did: accesses, flit hops or episodes.
    pub work: u64,
}

/// Sends `inputs` into a standalone NoC at their recorded cycles and
/// drains every delivery. Work is the NoC's own flit-hop count.
pub fn replay_noc(cfg: &CmpConfig, inputs: &[NocInput]) -> LayerRun {
    let mut noc: Noc<()> = Noc::new(cfg.mesh, cfg.noc);
    let mut tiles = Vec::new();
    let mut next = 0;
    let ((), host_s) = timed(|| loop {
        let due = inputs.get(next).map(|m| m.cycle);
        let t = match (noc.next_event(), due) {
            (None, None) => break,
            (a, b) => a.unwrap_or(Cycle::MAX).min(b.unwrap_or(Cycle::MAX)),
        };
        if t > noc.now() {
            noc.skip_to(t);
        }
        if noc.has_deliveries() {
            noc.collect_delivery_tiles(&mut tiles);
            for &tile in &tiles {
                while noc.recv(CoreId::from(tile as usize)).is_some() {}
            }
        }
        while let Some(m) = inputs.get(next).filter(|m| m.cycle <= noc.now()) {
            noc.send(Message {
                src: m.src,
                dst: m.dst,
                class: m.class,
                // Any payload that needs more than the header flit
                // spans `flits` link widths.
                payload_bytes: m.flits.saturating_sub(1) * cfg.noc.link_bytes,
                payload: (),
            });
            next += 1;
        }
        noc.tick();
    });
    LayerRun {
        host_s,
        work: noc.stats().flit_hops,
    }
}

/// Issues `inputs` to a standalone memory hierarchy, each core's in
/// order, no earlier than its recorded cycle and one outstanding per
/// core. Work is the number of accesses completed.
pub fn replay_mem(cfg: &CmpConfig, inputs: &[MemInput]) -> LayerRun {
    let n = cfg.num_cores();
    let mut mem = MemorySystem::new(cfg);
    let mut queues: Vec<VecDeque<MemInput>> = vec![VecDeque::new(); n];
    for m in inputs {
        queues[m.core.index()].push_back(*m);
    }
    let mut live: Vec<usize> = (0..n).filter(|&c| !queues[c].is_empty()).collect();
    let mut waiting = vec![false; n];
    let mut in_flight = 0usize;
    let mut done = 0u64;
    let ((), host_s) = timed(|| {
        while !live.is_empty() || in_flight > 0 {
            if in_flight == 0 && mem.next_event().is_none() {
                let due = live.iter().map(|&c| queues[c][0].cycle).min();
                if let Some(t) = due.filter(|&t| t > mem.now()) {
                    mem.skip_to(t);
                }
            }
            let now = mem.now();
            live.retain(|&c| {
                let core = CoreId::from(c);
                if waiting[c] && mem.poll(core).is_some() {
                    waiting[c] = false;
                    in_flight -= 1;
                    done += 1;
                }
                if !waiting[c]
                    && queues[c].front().is_some_and(|m| m.cycle <= now)
                    && mem.ready(core)
                {
                    let m = queues[c].pop_front().expect("checked non-empty");
                    let req = if m.write {
                        CoreReq::Store {
                            addr: m.addr,
                            value: m.cycle,
                        }
                    } else {
                        CoreReq::Load { addr: m.addr }
                    };
                    mem.request(core, req);
                    waiting[c] = true;
                    in_flight += 1;
                }
                waiting[c] || !queues[c].is_empty()
            });
            mem.tick();
        }
    });
    LayerRun { host_s, work: done }
}

/// Applies `inputs` to barrier hardware `hw` at their recorded cycles
/// and runs it until it settles. Returns the run (work = episodes
/// completed over all contexts) and context 0's statistics.
pub fn replay_gline<B: BarrierHw>(mut hw: B, inputs: &[GlineInput]) -> (LayerRun, GlineStats) {
    let mut next = 0;
    let ((), host_s) = timed(|| loop {
        // Quiescent hardware stays frozen until the next write.
        if hw.next_event().is_none() {
            match inputs.get(next) {
                None => break,
                Some(w) if w.cycle > hw.now() => hw.skip_to(w.cycle),
                Some(_) => {}
            }
        }
        while let Some(w) = inputs.get(next).filter(|w| w.cycle <= hw.now()) {
            hw.write_bar_reg(w.core, w.ctx, w.value);
            next += 1;
        }
        hw.tick();
    });
    let episodes = (0..hw.num_contexts())
        .map(|c| hw.stats(c).barriers_completed)
        .sum();
    (
        LayerRun {
            host_s,
            work: episodes,
        },
        hw.stats(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gline_core::BarrierNetwork;
    use sim_cmp::runtime::BarrierKind;
    use sim_cmp::System;
    use workloads::synthetic;

    /// Traces a small barrier loop and replays each layer's inputs into
    /// that layer alone (in debug builds the layers' own skip and
    /// ordering assertions are live).
    fn traced_and_replayed(kind: BarrierKind) {
        let cfg = CmpConfig::icpp2010_with_cores(16);
        let w = synthetic::build(16, kind, 3);
        let tracer = sim_base::Tracer::new(Counting::default());
        let (hw, log) = Recording::new(BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer.clone()));
        let mut sys = System::traced_with_barrier_hw(cfg, w.progs.clone(), hw, tracer.clone());
        sys.run(10_000_000).expect("halts");
        let report = sys.report();
        drop(sys);
        let counts = tracer.with_sink(std::mem::take);
        assert_eq!(counts.retired, report.instructions);
        assert_eq!(counts.l1_accesses, report.l1_hits + report.l1_misses);
        assert_eq!(counts.barrier_completes, report.gl_barriers);

        let (run, stats) = replay_gline(BarrierNetwork::new(cfg.mesh, cfg.gline), &log.take());
        assert_eq!(stats.barriers_completed, report.gl_barriers);
        assert_eq!(stats.signals, report.gl_signals);
        assert_eq!(run.work, report.gl_barriers);

        let noc = replay_noc(&cfg, &counts.noc_inputs);
        assert_eq!(counts.noc_inputs.len() as u64, report.traffic.total());
        // Messages still in flight when the cores halt finish here.
        assert!(noc.work >= report.flit_hops);
        let mem = replay_mem(&cfg, &counts.mem_inputs);
        assert_eq!(mem.work, counts.mem_inputs.len() as u64);
    }

    #[test]
    fn gline_loop_replays_layer_by_layer() {
        traced_and_replayed(BarrierKind::Gl);
    }

    #[test]
    fn software_barrier_loop_replays_layer_by_layer() {
        traced_and_replayed(BarrierKind::Dsw);
    }
}
