//! The mesh network: injection, routing, arbitration, delivery.

use crate::msg::{flits_for, Flit, Message, PacketInfo};
use crate::router::{Router, WormLock, NUM_PORTS, NUM_VCS};
use crate::stats::NocStats;
use sim_base::active::ActiveSet;
use sim_base::config::NocConfig;
use sim_base::fxmap::FxHashMap;
use sim_base::geom::Dir;
use sim_base::trace::{Event, NullSink, TraceSink, Tracer};
use sim_base::{CoreId, Cycle, Mesh2D};
use std::collections::VecDeque;

/// A flit in flight on a link (plus the upstream router pipeline).
#[derive(Clone, Copy, Debug)]
struct WireEntry {
    arrive: Cycle,
    router: usize,
    in_port: usize,
    vc: usize,
    flit: Flit,
}

/// A flit crossing the destination router toward the network interface.
#[derive(Clone, Copy, Debug)]
struct EjectEntry {
    arrive: Cycle,
    flit: Flit,
}

/// Default number of cycles a packet may live before the deadlock
/// watchdog trips.
const DEFAULT_WATCHDOG: u64 = 1_000_000;

/// Active-set occupancy counters (diagnostics only — never part of a
/// report, so sparse and dense runs stay bit-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocSchedStats {
    /// Ticks performed.
    pub ticks: u64,
    /// Routers visited by phase-3 arbitration (routers with buffered
    /// flits; the dense scan visits the same ones after its guard).
    pub router_visits: u64,
    /// Tiles visited by phase-2 injection (tiles with queued flits).
    pub inject_visits: u64,
}

impl NocSchedStats {
    /// Mean number of routers arbitrated per tick.
    pub fn mean_active_routers(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.router_visits as f64 / self.ticks as f64
        }
    }
}

/// The cycle-level mesh NoC, generic over the payload type `T` and a
/// [`TraceSink`] (the default [`NullSink`] compiles tracing away).
///
/// Driving contract (same as the other hardware models in this project):
/// during a cycle, clients may [`send`](Noc::send) and
/// [`recv`](Noc::recv); the simulator then calls [`tick`](Noc::tick)
/// exactly once per cycle.
#[derive(Debug)]
pub struct Noc<T, S: TraceSink = NullSink> {
    mesh: Mesh2D,
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Unbounded per-tile, per-VC network-interface injection queues.
    inject_q: Vec<[VecDeque<Flit>; NUM_VCS]>,
    /// Flits in flight between routers, FIFO in arrival order (the per-hop
    /// delay is a constant, so push order == arrival order).
    wire: VecDeque<WireEntry>,
    /// Flits crossing the final router toward delivery.
    eject: VecDeque<EjectEntry>,
    /// Per-packet routing/bookkeeping state.
    packets: FxHashMap<u64, PacketInfo>,
    /// Payloads parked while their flits traverse the mesh.
    payloads: FxHashMap<u64, Message<T>>,
    /// Same-tile messages bypassing the mesh: (deliver_at, message).
    bypass: VecDeque<(Cycle, Message<T>)>,
    /// Delivered messages per tile.
    delivered: Vec<VecDeque<Message<T>>>,
    next_pkt: u64,
    now: Cycle,
    /// Flits anywhere in the system (fast-path check).
    active_flits: usize,
    /// Flits buffered in each router's input VCs (mirrors
    /// [`Router::buffered`], maintained on enqueue/dequeue edges).
    router_flits: Vec<u32>,
    /// Routers with buffered flits — the phase-3 arbitration work list.
    active_routers: ActiveSet,
    /// Tiles with a non-empty NI injection queue — the phase-2 work list.
    inject_tiles: ActiveSet,
    /// Tiles with undelivered messages (exact: maintained by
    /// delivery-queue push/pop edges).
    delivery_tiles: ActiveSet,
    /// Total undelivered messages across all tiles.
    delivered_count: usize,
    /// Scratch for snapshotting an active set during a tick.
    sched_scratch: Vec<u32>,
    /// Gate for the sparse tick paths (`--no-active-set` escape hatch).
    active_set_enabled: bool,
    sched: NocSchedStats,
    watchdog: u64,
    stats: NocStats,
    tracer: Tracer<S>,
}

impl<T> Noc<T> {
    /// Builds the NoC for a mesh.
    pub fn new(mesh: Mesh2D, cfg: NocConfig) -> Noc<T> {
        Noc::traced(mesh, cfg, Tracer::default())
    }
}

impl<T, S: TraceSink> Noc<T, S> {
    /// Builds a traced NoC: sends, per-flit link hops and deliveries are
    /// emitted into `tracer`.
    pub fn traced(mesh: Mesh2D, cfg: NocConfig, tracer: Tracer<S>) -> Noc<T, S> {
        assert!(
            cfg.vc_buffer_flits >= 1,
            "VC buffers need at least one flit"
        );
        assert!(cfg.link_bytes >= 1);
        let n = mesh.num_tiles();
        Noc {
            mesh,
            cfg,
            routers: (0..n).map(|_| Router::new(cfg.vc_buffer_flits)).collect(),
            inject_q: (0..n).map(|_| Default::default()).collect(),
            wire: VecDeque::new(),
            eject: VecDeque::new(),
            packets: FxHashMap::default(),
            payloads: FxHashMap::default(),
            bypass: VecDeque::new(),
            delivered: (0..n).map(|_| VecDeque::new()).collect(),
            next_pkt: 0,
            now: 0,
            active_flits: 0,
            router_flits: vec![0; n],
            active_routers: ActiveSet::new(n),
            inject_tiles: ActiveSet::new(n),
            delivery_tiles: ActiveSet::new(n),
            delivered_count: 0,
            sched_scratch: Vec::new(),
            active_set_enabled: true,
            sched: NocSchedStats::default(),
            watchdog: DEFAULT_WATCHDOG,
            stats: NocStats::default(),
            tracer,
        }
    }

    /// The tracer this NoC emits into.
    pub fn tracer(&self) -> &Tracer<S> {
        &self.tracer
    }

    /// The mesh this network spans.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Configuration in use.
    pub fn config(&self) -> NocConfig {
        self.cfg
    }

    /// Current cycle (ticks performed).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Sets the deadlock watchdog: panic when a packet has been in the
    /// network longer than `cycles`.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog = cycles;
    }

    /// Enables or disables active-set micro-scheduling (on by default).
    /// When disabled, [`tick`](Self::tick) falls back to the dense
    /// every-router/every-tile scan; results are bit-identical either
    /// way (the work lists merely skip components the dense scan would
    /// also skip with its own guards).
    pub fn set_active_set_enabled(&mut self, on: bool) {
        self.active_set_enabled = on;
    }

    /// Whether active-set micro-scheduling is enabled.
    pub fn active_set_enabled(&self) -> bool {
        self.active_set_enabled
    }

    /// Active-set occupancy counters for this run so far.
    pub fn sched_stats(&self) -> NocSchedStats {
        self.sched
    }

    /// True when no message is anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.active_flits == 0 && self.bypass.is_empty()
    }

    /// Messages currently in flight (including bypass).
    pub fn in_flight(&self) -> usize {
        self.packets.len() + self.bypass.len()
    }

    /// Injects a message. Same-tile messages bypass the mesh and arrive
    /// next cycle; all others are flit-ized and compete for links.
    pub fn send(&mut self, msg: Message<T>) {
        assert!(
            msg.src.index() < self.mesh.num_tiles(),
            "bad src {:?}",
            msg.src
        );
        assert!(
            msg.dst.index() < self.mesh.num_tiles(),
            "bad dst {:?}",
            msg.dst
        );
        if msg.src == msg.dst {
            self.stats.local_bypass += 1;
            // Delivered by this cycle's tick, i.e. visible to the
            // receiver on the next cycle — one cycle of NI latency.
            self.bypass.push_back((self.now, msg));
            return;
        }
        self.stats.sent.add(msg.class, 1);
        let nflits = flits_for(
            msg.payload_bytes,
            self.cfg.header_bytes,
            self.cfg.link_bytes,
        );
        let pkt = self.next_pkt;
        self.next_pkt += 1;
        self.packets.insert(
            pkt,
            PacketInfo {
                dst: msg.dst,
                class: msg.class,
                injected_at: self.now,
                flits_total: nflits,
                flits_arrived: 0,
            },
        );
        self.tracer.emit(self.now, || Event::NocSend {
            pkt,
            src: msg.src,
            dst: msg.dst,
            class: msg.class,
            flits: nflits,
        });
        let vc = msg.class.index();
        let q = &mut self.inject_q[msg.src.index()][vc];
        for i in 0..nflits {
            q.push_back(Flit {
                pkt,
                is_head: i == 0,
                is_tail: i == nflits - 1,
            });
        }
        self.active_flits += nflits as usize;
        self.inject_tiles.insert(msg.src.index());
        self.payloads.insert(pkt, msg);
    }

    /// Pops one delivered message for `tile`, if any.
    pub fn recv(&mut self, tile: CoreId) -> Option<Message<T>> {
        let q = &mut self.delivered[tile.index()];
        let msg = q.pop_front();
        if msg.is_some() {
            self.delivered_count -= 1;
            if q.is_empty() {
                self.delivery_tiles.remove(tile.index());
            }
        }
        msg
    }

    /// True when any delivered message is waiting to be received.
    pub fn has_deliveries(&self) -> bool {
        self.delivered_count > 0
    }

    /// True when `tile` has at least one delivered message waiting.
    /// Exact and one tick ahead of the receiver: messages become
    /// deliverable during the previous cycle's [`tick`](Self::tick), so
    /// at the top of a cycle this predicate names precisely the tiles
    /// whose controllers will be handed a message this cycle.
    pub fn has_delivery_for(&self, tile: CoreId) -> bool {
        !self.delivered[tile.index()].is_empty()
    }

    /// Snapshots the tiles with undelivered messages into `out`, in
    /// ascending tile order (the order a dense `for tile in 0..n` recv
    /// scan would find them).
    pub fn collect_delivery_tiles(&mut self, out: &mut Vec<u32>) {
        self.delivery_tiles.collect_sorted(out);
    }

    /// Records a message delivery to `tile`'s queue bookkeeping.
    #[inline]
    fn note_delivery(&mut self, tile: usize) {
        self.delivered_count += 1;
        self.delivery_tiles.insert(tile);
    }

    /// The earliest cycle at which the network can change observable
    /// state, or `None` when it is completely empty.
    ///
    /// Returns `Some(now)` when receivers already have work (delivered
    /// or matured-bypass messages) or an in-transit arrival matures this
    /// very cycle, `Some(now + 1)` while flits are buffered in routers
    /// or injection queues (arbitration makes progress every cycle), and
    /// the earliest in-transit arrival when every flit is on a wire or
    /// crossing the ejection pipeline — all ticks strictly before the
    /// reported cycle are provable no-ops.
    pub fn next_event(&self) -> Option<Cycle> {
        if self.has_deliveries() || !self.bypass.is_empty() {
            // Bypass entries are stamped with their send cycle, so a
            // non-empty bypass queue always matures by the next tick.
            return Some(self.now);
        }
        if self.active_flits == 0 {
            return None;
        }
        // Earliest scheduled arrival. Both queues are FIFO in arrival
        // order (each adds a constant latency to its push cycle), so the
        // fronts are the minima.
        let w = self.wire.front().map(|e| e.arrive);
        let e = self.eject.front().map(|e| e.arrive);
        let front = match (w, e) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        debug_assert!(front.is_none_or(|f| f >= self.now), "stale arrival");
        if self.wire.len() + self.eject.len() < self.active_flits {
            // Something is buffered in a router or injection queue;
            // arbitration may move it on the very next tick — unless an
            // already-matured arrival changes state even sooner.
            return Some(front.map_or(self.now + 1, |f| f.min(self.now + 1)));
        }
        front
    }

    /// Jumps the network clock to `t` without ticking the cycles in
    /// between. Only legal when [`next_event`](Self::next_event)
    /// reports no observable state change strictly before `t` — every
    /// skipped tick would have been a no-op.
    pub fn skip_to(&mut self, t: Cycle) {
        debug_assert!(t >= self.now);
        debug_assert!(
            self.next_event().is_none_or(|e| e >= t),
            "NoC skip over a live event"
        );
        self.now = t;
    }

    /// Next output direction for a packet at router `r`.
    fn route(&self, r: usize, pkt: u64) -> Dir {
        let dst = self.packets[&pkt].dst;
        self.mesh
            .xy_next(self.mesh.coord_of(CoreId::from(r)), self.mesh.coord_of(dst))
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.sched.ticks += 1;

        // Phase 1: bypass + wire + ejection arrivals scheduled for `now`.
        while self.bypass.front().is_some_and(|(t, _)| *t <= now) {
            let (_, msg) = self.bypass.pop_front().expect("checked non-empty");
            let dst = msg.dst.index();
            self.delivered[dst].push_back(msg);
            self.note_delivery(dst);
        }
        while self.wire.front().is_some_and(|w| w.arrive <= now) {
            let w = self.wire.pop_front().expect("checked non-empty");
            self.routers[w.router].in_buf[w.in_port][w.vc].push_back(w.flit);
            self.router_flits[w.router] += 1;
            self.active_routers.insert(w.router);
        }
        while self.eject.front().is_some_and(|e| e.arrive <= now) {
            let e = self.eject.pop_front().expect("checked non-empty");
            self.finish_flit(e.flit, now);
        }

        // Fast path: nothing anywhere.
        if self.active_flits == 0 {
            self.now += 1;
            return;
        }

        if self.active_set_enabled {
            self.tick_sparse(now);
        } else {
            self.tick_dense(now);
        }

        // Deadlock watchdog (amortized).
        if now.is_multiple_of(4096) {
            for (pkt, info) in &self.packets {
                assert!(
                    now - info.injected_at <= self.watchdog,
                    "NoC watchdog: packet {pkt} ({:?} → {:?}, class {:?}) stuck for {} cycles",
                    self.payloads.get(pkt).map(|m| m.src),
                    info.dst,
                    info.class,
                    now - info.injected_at
                );
            }
        }

        self.now += 1;
    }

    /// Phases 2 and 3 over the active-set work lists: only tiles with
    /// queued flits and routers with buffered flits are visited. These
    /// are exactly the components the dense scan does work on (its
    /// guards skip the rest), and both work lists iterate in ascending
    /// index order, so the two paths are bit-identical.
    fn tick_sparse(&mut self, now: Cycle) {
        // Phase 2: NI injection into the local input VCs.
        if !self.inject_tiles.is_empty() {
            let mut tiles = std::mem::take(&mut self.sched_scratch);
            self.inject_tiles.collect_sorted(&mut tiles);
            for &tile in &tiles {
                self.sched.inject_visits += 1;
                if self.inject_tile(tile as usize) {
                    self.inject_tiles.remove(tile as usize);
                }
            }
            self.sched_scratch = tiles;
        }
        // Phase 3: per-router, per-output-port arbitration. Arbitration
        // moves flits onto wires and ejection pipelines — never directly
        // into another router's input buffer — so membership cannot grow
        // mid-iteration and the snapshot is exact.
        let mut routers = std::mem::take(&mut self.sched_scratch);
        self.active_routers.collect_sorted(&mut routers);
        for &r in &routers {
            let r = r as usize;
            if self.router_flits[r] == 0 {
                self.active_routers.remove(r);
                continue;
            }
            self.sched.router_visits += 1;
            for out in Dir::ALL {
                self.arbitrate(r, out, now);
            }
            if self.router_flits[r] == 0 {
                self.active_routers.remove(r);
            }
        }
        self.sched_scratch = routers;
    }

    /// Phases 2 and 3 as a dense every-tile/every-router scan (the
    /// `--no-active-set` reference path). Work-list membership is still
    /// maintained so the sparse path can be re-enabled mid-run.
    fn tick_dense(&mut self, now: Cycle) {
        // Phase 2: NI injection into the local input VCs.
        for tile in 0..self.inject_q.len() {
            if self.inject_tiles.contains(tile) {
                self.sched.inject_visits += 1;
            }
            if self.inject_tile(tile) {
                self.inject_tiles.remove(tile);
            }
        }
        // Phase 3: per-router, per-output-port arbitration.
        for r in 0..self.routers.len() {
            debug_assert_eq!(self.router_flits[r] as usize, self.routers[r].buffered());
            if self.router_flits[r] == 0 {
                self.active_routers.remove(r);
                continue;
            }
            self.sched.router_visits += 1;
            for out in Dir::ALL {
                self.arbitrate(r, out, now);
            }
            if self.router_flits[r] == 0 {
                self.active_routers.remove(r);
            }
        }
    }

    /// Phase-2 NI injection for one tile: moves queued flits into the
    /// local input VCs while they have space. Returns true when every
    /// injection queue of the tile is now empty.
    fn inject_tile(&mut self, tile: usize) -> bool {
        let mut moved = 0u32;
        let mut empty = true;
        let q3 = &mut self.inject_q[tile];
        let bufs = &mut self.routers[tile].in_buf[Dir::Local.index()];
        for (vc, q) in q3.iter_mut().enumerate() {
            let buf = &mut bufs[vc];
            while !q.is_empty() && (buf.len() as u32) < self.cfg.vc_buffer_flits {
                buf.push_back(q.pop_front().expect("checked non-empty"));
                moved += 1;
            }
            empty &= q.is_empty();
        }
        if moved > 0 {
            self.router_flits[tile] += moved;
            self.active_routers.insert(tile);
        }
        empty
    }

    /// Picks and forwards at most one flit through output `out` of router
    /// `r` this cycle.
    fn arbitrate(&mut self, r: usize, out: Dir, now: Cycle) {
        let out_i = out.index();
        // Build the candidate list lazily in round-robin order over the
        // 15 (input port, vc) pairs.
        let start = self.routers[r].rr[out_i];
        for k in 0..(NUM_PORTS * NUM_VCS) {
            let slot = (start + k) % (NUM_PORTS * NUM_VCS);
            let (p, vc) = (slot / NUM_VCS, slot % NUM_VCS);
            let Some(&flit) = self.routers[r].in_buf[p][vc].front() else {
                continue;
            };
            // Eligibility: continuation flits must match the wormhole
            // lock; head flits need the lock free and the route to match.
            match self.routers[r].out_lock[out_i][vc] {
                Some(lock) => {
                    if !(lock.in_port == p && lock.pkt == flit.pkt) {
                        continue;
                    }
                    debug_assert!(!flit.is_head, "head flit under an existing lock");
                }
                None => {
                    if !flit.is_head || self.route(r, flit.pkt) != out {
                        continue;
                    }
                }
            }
            // Flow control: downstream space (mesh ports only).
            if out != Dir::Local && self.routers[r].credits[out_i][vc] == 0 {
                continue;
            }
            // Grant.
            let flit = self.routers[r].in_buf[p][vc]
                .pop_front()
                .expect("head exists");
            self.router_flits[r] -= 1;
            self.routers[r].rr[out_i] = (slot + 1) % (NUM_PORTS * NUM_VCS);
            // Wormhole lock maintenance.
            self.routers[r].out_lock[out_i][vc] = if flit.is_tail {
                None
            } else {
                Some(WormLock {
                    pkt: flit.pkt,
                    in_port: p,
                })
            };
            // Credit return to the upstream router this flit came from.
            if p != Dir::Local.index() {
                let dir = Dir::ALL[p];
                let up = self
                    .mesh
                    .neighbor(self.mesh.coord_of(CoreId::from(r)), dir)
                    .expect("flit arrived from a real neighbor");
                let up_r = self.mesh.id_of(up).index();
                self.routers[up_r].credits[dir.opposite().index()][vc] += 1;
            }
            if out == Dir::Local {
                self.eject.push_back(EjectEntry {
                    arrive: now + self.cfg.router_latency as u64,
                    flit,
                });
            } else {
                self.routers[r].credits[out_i][vc] -= 1;
                self.stats.flit_hops += 1;
                self.tracer.emit(now, || Event::NocFlitHop {
                    pkt: flit.pkt,
                    at: CoreId::from(r),
                    port: out,
                });
                let nb = self
                    .mesh
                    .neighbor(self.mesh.coord_of(CoreId::from(r)), out)
                    .expect("XY routing never routes off the mesh");
                self.wire.push_back(WireEntry {
                    arrive: now + (self.cfg.router_latency + self.cfg.link_latency) as u64,
                    router: self.mesh.id_of(nb).index(),
                    in_port: out.opposite().index(),
                    vc,
                    flit,
                });
            }
            return; // one flit per output port per cycle
        }
    }

    /// Accounts an ejected flit; on the tail, reassembles and delivers.
    fn finish_flit(&mut self, flit: Flit, now: Cycle) {
        self.active_flits -= 1;
        let info = self
            .packets
            .get_mut(&flit.pkt)
            .expect("packet state exists");
        info.flits_arrived += 1;
        if flit.is_tail {
            debug_assert_eq!(
                info.flits_arrived, info.flits_total,
                "tail arrived before body"
            );
            let info = self.packets.remove(&flit.pkt).expect("present");
            let msg = self.payloads.remove(&flit.pkt).expect("payload parked");
            self.stats.delivered.add(info.class, 1);
            self.stats.latency[info.class.index()].record(now - info.injected_at);
            self.tracer.emit(now, || Event::NocDeliver {
                pkt: flit.pkt,
                dst: info.dst,
                class: info.class,
                latency: now - info.injected_at,
            });
            self.delivered[info.dst.index()].push_back(msg);
            self.note_delivery(info.dst.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_base::stats::MsgClass::{self, Coherence, Reply, Request};

    fn noc(rows: u16, cols: u16) -> Noc<u32> {
        Noc::new(Mesh2D::new(rows, cols), NocConfig::default())
    }

    fn msg(src: usize, dst: usize, class: MsgClass, bytes: u32, tag: u32) -> Message<u32> {
        Message {
            src: CoreId::from(src),
            dst: CoreId::from(dst),
            class,
            payload_bytes: bytes,
            payload: tag,
        }
    }

    fn run_until_idle<S: TraceSink>(n: &mut Noc<u32, S>, max: u64) {
        let mut c = 0;
        while !n.is_idle() {
            n.tick();
            c += 1;
            assert!(c < max, "network did not drain in {max} cycles");
        }
    }

    #[test]
    fn single_hop_latency_formula() {
        let mut n = noc(1, 2);
        n.send(msg(0, 1, Request, 0, 7));
        run_until_idle(&mut n, 100);
        let got = n.recv(CoreId(1)).expect("delivered");
        assert_eq!(got.payload, 7);
        // hops × (router 3 + link 1) + ejection router 3 = 7.
        assert_eq!(n.stats().latency_of(Request).max(), Some(7));
    }

    #[test]
    fn multi_hop_latency_scales_with_distance() {
        let mut n = noc(4, 8);
        n.send(msg(0, 31, Reply, 64, 1)); // corner to corner: 10 hops
        run_until_idle(&mut n, 200);
        assert!(n.recv(CoreId(31)).is_some());
        assert_eq!(n.stats().latency_of(Reply).max(), Some(10 * 4 + 3));
        assert_eq!(n.stats().flit_hops, 10);
    }

    #[test]
    fn local_message_bypasses_network() {
        let mut n = noc(2, 2);
        n.send(msg(2, 2, Request, 0, 9));
        n.tick();
        assert_eq!(n.recv(CoreId(2)).map(|m| m.payload), Some(9));
        assert_eq!(
            n.stats().total_messages(),
            0,
            "bypass is not network traffic"
        );
        assert_eq!(n.stats().local_bypass, 1);
    }

    #[test]
    fn classes_are_counted_separately() {
        let mut n = noc(2, 2);
        n.send(msg(0, 1, Request, 0, 0));
        n.send(msg(0, 1, Reply, 64, 1));
        n.send(msg(1, 0, Coherence, 0, 2));
        run_until_idle(&mut n, 200);
        assert_eq!(n.stats().sent[Request], 1);
        assert_eq!(n.stats().sent[Reply], 1);
        assert_eq!(n.stats().sent[Coherence], 1);
        assert_eq!(n.stats().delivered.total(), 3);
    }

    #[test]
    fn per_pair_per_class_ordering() {
        let mut n = noc(4, 4);
        for i in 0..20 {
            n.send(msg(0, 15, Request, 0, i));
        }
        run_until_idle(&mut n, 2000);
        let mut got = Vec::new();
        while let Some(m) = n.recv(CoreId(15)) {
            got.push(m.payload);
        }
        assert_eq!(
            got,
            (0..20).collect::<Vec<_>>(),
            "same src/dst/class must stay FIFO"
        );
    }

    #[test]
    fn multiflit_packets_do_not_interleave_within_a_vc() {
        // Narrow links force multi-flit packets; two senders share the
        // east-bound path through the middle column.
        let cfg = NocConfig {
            link_bytes: 16,
            ..NocConfig::default()
        }; // 5 flits/packet
        let mut n: Noc<u32> = Noc::new(Mesh2D::new(1, 3), cfg);
        n.send(Message {
            src: CoreId(0),
            dst: CoreId(2),
            class: Request,
            payload_bytes: 64,
            payload: 0,
        });
        n.send(Message {
            src: CoreId(1),
            dst: CoreId(2),
            class: Request,
            payload_bytes: 64,
            payload: 1,
        });
        run_until_idle(&mut n, 2000);
        assert_eq!(n.stats().delivered[Request], 2);
        // 5 flits over 2 hops + 5 flits over 1 hop.
        assert_eq!(n.stats().flit_hops, 15);
    }

    #[test]
    fn link_serializes_one_flit_per_cycle() {
        // 8 single-flit messages must cross the same final link; the last
        // one is delayed ≥ 7 cycles behind the first.
        let mut n = noc(1, 2);
        for i in 0..8 {
            n.send(msg(0, 1, Request, 0, i));
        }
        run_until_idle(&mut n, 200);
        let lat = n.stats().latency_of(Request);
        assert_eq!(lat.count(), 8);
        assert_eq!(lat.min(), Some(7));
        assert!(
            lat.max().unwrap() >= 7 + 7,
            "serialization must delay the tail"
        );
    }

    #[test]
    fn tiny_buffers_still_deliver_everything() {
        let cfg = NocConfig {
            vc_buffer_flits: 1,
            ..NocConfig::default()
        };
        let mut n: Noc<u32> = Noc::new(Mesh2D::new(4, 4), cfg);
        let mut expect = [0u32; 16];
        let mut tag = 0;
        for s in 0..16 {
            #[allow(clippy::needless_range_loop)] // d is also the message dst
            for d in 0..16 {
                if s != d {
                    n.send(msg(s, d, Coherence, 0, tag));
                    expect[d] += 1;
                    tag += 1;
                }
            }
        }
        run_until_idle(&mut n, 50_000);
        for (d, &want) in expect.iter().enumerate() {
            let mut got = 0;
            while n.recv(CoreId::from(d)).is_some() {
                got += 1;
            }
            assert_eq!(got, want, "tile {d}");
        }
    }

    #[test]
    fn all_to_all_across_classes_drains() {
        let mut n = noc(4, 8);
        let classes = [Request, Reply, Coherence];
        for s in 0..32 {
            for d in 0..32 {
                if s != d {
                    n.send(msg(
                        s,
                        d,
                        classes[(s + d) % 3],
                        ((s * d) % 2 * 64) as u32,
                        0,
                    ));
                }
            }
        }
        run_until_idle(&mut n, 100_000);
        assert_eq!(n.stats().delivered.total(), 32 * 31);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_trips_on_stuck_traffic() {
        // A watchdog of 0 means any packet alive at the next check trips
        // it; flood enough traffic to still be draining then.
        let mut n = noc(1, 2);
        n.set_watchdog(0);
        for _ in 0..10_000 {
            n.send(msg(0, 1, Request, 64, 0));
        }
        for _ in 0..5000 {
            n.tick();
        }
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut n = noc(2, 2);
        assert!(n.is_idle());
        n.send(msg(0, 3, Request, 0, 0));
        assert!(!n.is_idle());
        run_until_idle(&mut n, 100);
        assert!(n.is_idle());
        assert!(n.now() > 0);
    }

    #[test]
    fn fast_path_advances_time() {
        let mut n = noc(2, 2);
        for _ in 0..100 {
            n.tick();
        }
        assert_eq!(n.now(), 100);
    }

    #[test]
    fn traced_noc_reports_send_hops_and_delivery() {
        use sim_base::trace::{Event, RingSink, Tracer};
        let tracer = Tracer::new(RingSink::new(128));
        let mut n: Noc<u32, RingSink> =
            Noc::traced(Mesh2D::new(1, 3), NocConfig::default(), tracer.clone());
        n.send(msg(0, 2, Request, 0, 5));
        run_until_idle(&mut n, 100);
        let events: Vec<Event> = tracer.with_sink(|s| s.events().map(|(_, e)| e.clone()).collect());
        let sends: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::NocSend { .. }))
            .collect();
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0],
            Event::NocSend {
                pkt: 0,
                flits: 1,
                class: Request,
                ..
            }
        ));
        // Two link hops (0→1, 1→2), then the delivery with the measured latency.
        let hops = events
            .iter()
            .filter(|e| matches!(e, Event::NocFlitHop { .. }))
            .count();
        assert_eq!(hops as u64, n.stats().flit_hops);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::NocDeliver {
                pkt: 0,
                latency: 11,
                ..
            }
        )));
        // Wormhole locks all cleared once drained.
        assert!(n.routers.iter().all(|r| r.locked_outputs() == 0));
    }
}
