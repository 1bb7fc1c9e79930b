//! The two kinds of run: the timed end-to-end run and the traced
//! per-layer run.

use std::cell::RefCell;
use std::rc::Rc;

use bench::experiments::{benchmarks, Scale, FIRST_APP};
use gline_core::{BarrierHw, BarrierNetwork, ClusteredBarrierNetwork};
use sim_base::json::Json;
use sim_base::stats::MsgClass;
use sim_base::trace::Tracer;
use sim_cmp::{System, SystemReport};

use crate::check::{pinned, problems, Checker};
use crate::host::{self, HostSample};
use crate::jobs::{Job, Sched, Setup, MAX_CYCLES};
use crate::layers::{self, Counting, GlineInput, LayerRun, Recording};
use crate::timed;

/// Set-up samples taken per job in an end-to-end run (the first, in a
/// warm-up pass, is not among them).
const SETUP_REPS: usize = 5;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .dump()
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `workload` (its exec jobs in `jobs`) in the order `order`.
pub fn run(workload: &str, jobs: Vec<Job>, order: &[usize], seconds: f64, trace: bool) -> Outcome {
    let host0 = HostSample::now();
    let jobs: Vec<Job> = if workload == "paper-replay" {
        // The GLTR fixture: recorded once per run, outside every timed
        // window and before the peak-RSS reset.
        let (replays, secs) = timed(|| jobs.iter().map(Job::recorded).collect());
        eprintln!("[fixture] recorded in {secs:.3} s");
        replays
    } else {
        jobs
    };
    if !host::reset_peak_rss() {
        eprintln!("[host] could not reset peak RSS; it includes the fixture");
    }
    let mut checker = Checker::default();
    let mut metrics = if trace {
        per_layer(&jobs, order, &mut checker)
    } else {
        end_to_end(workload, &jobs, order, seconds, &mut checker)
    };
    let h = HostSample::now().since(&host0);
    eprintln!(
        "[host] on-cpu {:.3} s, runqueue wait {:.3} s, steal {:.2} s",
        h.oncpu_s, h.rq_wait_s, h.steal_s
    );
    if trace {
        metrics.push(metric("host.oncpu_s", h.oncpu_s, "s"));
        metrics.push(metric("host.rq_wait_s", h.rq_wait_s, "s"));
        metrics.push(metric("host.steal_s", h.steal_s, "s"));
    }
    Outcome {
        attempted: checker.attempted(),
        failed: checker.failed(),
        metrics,
    }
}

/// Times whole simulations, pass after pass over every job, until the
/// next pass would end past `seconds`.
fn end_to_end(
    workload: &str,
    jobs: &[Job],
    order: &[usize],
    seconds: f64,
    checker: &mut Checker,
) -> Vec<Metric> {
    // Warm-up: the first set-up of a machine in a process pays page
    // faults that later ones do not, so one untimed set-up of every job
    // puts each timed set-up in the same process state.
    let warm_up_s: f64 = order.iter().map(|&i| jobs[i].setup().1.total()).sum();
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut core_cycles = 0.0;
    let mut reports: Vec<Option<SystemReport>> = vec![None; jobs.len()];
    let mut pass_run_s: Vec<f64> = Vec::new();
    let mut elapsed = 0.0;
    let mut longest_pass: f64 = 0.0;
    loop {
        let mut run_s = 0.0;
        let ((), pass_s) = timed(|| {
            for &i in order {
                let job = &jobs[i];
                let (mut machine, setup) = job.setup();
                setups[i].push(setup.total());
                let (cycles, secs) = timed(|| machine.run());
                run_s += secs;
                core_cycles += cycles as f64 * job.cores as f64;
                if pass_run_s.is_empty() {
                    eprintln!(
                        "[job] {:<24} set-up {:.4} s, run {secs:.3} s, {cycles} cycles",
                        job.label,
                        setup.total()
                    );
                }
                let report = machine.report();
                checker.check(&job.label, &report, pinned(&job.label), job.exec_report());
                reports[i] = Some(report);
            }
        });
        pass_run_s.push(run_s);
        elapsed += pass_s;
        longest_pass = longest_pass.max(pass_s);
        if elapsed + longest_pass > seconds {
            break;
        }
    }
    while setups.iter().any(|s| s.len() < SETUP_REPS) {
        for &i in order {
            if setups[i].len() < SETUP_REPS {
                setups[i].push(jobs[i].setup().1.total());
            }
        }
    }
    let setup_s: f64 = setups.iter().map(|s| median(s)).sum();
    eprintln!("[setup] untimed warm-up {warm_up_s:.4} s, timed median {setup_s:.4} s");
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let run_s: f64 = pass_run_s.iter().sum();
    eprintln!(
        "[e2e] {workload}: {} passes, {run_s:.3} s in System::run ({pass_run_s:.3?}), \
         set-up {setup_s:.4} s, peak RSS {peak_rss_mb:.1} MB",
        pass_run_s.len()
    );
    let reports: Vec<(&str, SystemReport)> = jobs
        .iter()
        .zip(reports)
        .map(|(j, r)| (j.label.as_str(), r.expect("every job ran")))
        .collect();
    for (name, value) in accuracy(&reports) {
        eprintln!("[accuracy] {name} = {value}");
    }
    vec![
        metric("core_cycles_per_s", core_cycles / run_s, "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("success_rate", checker.success_rate(), "ratio"),
    ]
}

/// The paper-reproduction figures a workload's reports support: the
/// Fig. 6/7 errors against the paper when every Table-2 program ran
/// under DSW and GL, and the Fig. 5 G-line cycles per barrier of the
/// 1024-core barrier loop.
fn accuracy(reports: &[(&str, SystemReport)]) -> Vec<(&'static str, f64)> {
    let find = |label: String| reports.iter().find(|(l, _)| *l == label).map(|(_, r)| r);
    let mut out = Vec::new();
    let pairs: Option<Vec<(&SystemReport, &SystemReport)>> = benchmarks(Scale::Quick)
        .iter()
        .map(|(name, _)| {
            Some((
                find(format!("{name}/DSW@32"))?,
                find(format!("{name}/GL@32"))?,
            ))
        })
        .collect();
    if let Some(pairs) = pairs {
        let mean = |range: std::ops::Range<usize>,
                    f: &dyn Fn(&SystemReport, &SystemReport) -> f64| {
            let n = range.len() as f64;
            range.map(|i| f(pairs[i].1, pairs[i].0)).sum::<f64>() / n
        };
        let time = |gl: &SystemReport, dsw: &SystemReport| gl.normalized_time(dsw);
        let traffic = |gl: &SystemReport, dsw: &SystemReport| gl.normalized_traffic(dsw);
        let (k, a) = (0..FIRST_APP, FIRST_APP..pairs.len());
        // The paper's AVG_K / AVG_A: Fig. 6 time 0.32 / 0.79, Fig. 7
        // traffic 0.26 / 0.82 of DSW.
        out.push(("fig6_k_err", (mean(k.clone(), &time) - 0.32).abs()));
        out.push(("fig6_a_err", (mean(a.clone(), &time) - 0.79).abs()));
        out.push(("fig7_k_err", (mean(k, &traffic) - 0.26).abs()));
        out.push(("fig7_a_err", (mean(a, &traffic) - 0.82).abs()));
    }
    if let Some(r) = find("Synthetic/GL@1024".into()) {
        out.push((
            "gl_cycles_per_barrier",
            ratio(r.cycles as f64, r.gl_barriers as f64),
        ));
    }
    out
}

/// A traced simulation's outputs.
struct Traced {
    host_s: f64,
    report: SystemReport,
    counts: Counting,
    gline: Vec<GlineInput>,
}

fn finish<B: BarrierHw>(
    mut sys: System<B, Counting>,
    tracer: &Tracer<Counting>,
    log: Rc<RefCell<Vec<GlineInput>>>,
) -> Traced {
    let (halted, host_s) = timed(|| sys.run(MAX_CYCLES));
    halted.expect("benchmark jobs halt");
    let report = sys.report();
    drop(sys);
    Traced {
        host_s,
        report,
        counts: tracer.with_sink(std::mem::take),
        gline: log.take(),
    }
}

/// Runs `job` with every layer emitting into a [`Counting`] sink and its
/// barrier hardware recorded.
fn traced(job: &Job) -> Traced {
    let cfg = job.cfg();
    let tracer = Tracer::new(Counting::default());
    if let Some(set) = job.trace_set() {
        let (hw, log) = Recording::new(BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer.clone()));
        let sys = System::replay_traced_with_barrier_hw(cfg, &set, hw, tracer.clone());
        return finish(sys, &tracer, log);
    }
    let w = job.workload().expect("exec job");
    if cfg.needs_clustered_gline() {
        let (hw, log) = Recording::new(ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline));
        let mut sys = System::traced_with_barrier_hw(cfg, w.progs, hw, tracer.clone());
        for &(addr, value) in &w.pokes {
            sys.poke_word(addr, value);
        }
        finish(sys, &tracer, log)
    } else {
        let (hw, log) = Recording::new(BarrierNetwork::traced(cfg.mesh, cfg.gline, tracer.clone()));
        let mut sys = System::traced_with_barrier_hw(cfg, w.progs, hw, tracer.clone());
        for &(addr, value) in &w.pokes {
            sys.poke_word(addr, value);
        }
        finish(sys, &tracer, log)
    }
}

/// Where the traced run's event counts disagree with the report.
fn count_problems(c: &Counting, r: &SystemReport, flat_gline: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut eq = |what: &str, events: u64, report: u64| {
        if events != report {
            out.push(format!("{what}: {events} events, {report} in the report"));
        }
    };
    eq("Retire", c.retired, r.instructions);
    eq("L1Access", c.l1_accesses, r.l1_hits + r.l1_misses);
    eq("L1Access hits", c.l1_hits, r.l1_hits);
    eq("L2Access", c.l2_accesses, r.l2_hits + r.l2_misses);
    eq("L2Access hits", c.l2_hits, r.l2_hits);
    for class in MsgClass::ALL {
        eq("NocSend", c.noc_sends[class.index()], r.traffic[class]);
    }
    eq("NocFlitHop", c.flit_hops, r.flit_hops);
    if flat_gline {
        // The clustered network emits no events of its own.
        eq("BarrierComplete", c.barrier_completes, r.gl_barriers);
        eq("GlineAssert", c.gline_asserts, r.gl_signals);
    }
    out
}

/// The traced run: one untimed-trace pass for scheduler counters and
/// set-up split, one traced pass for event counts, and the captured
/// inputs replayed into each layer alone.
fn per_layer(jobs: &[Job], order: &[usize], checker: &mut Checker) -> Vec<Metric> {
    let mut sched = Sched::default();
    let mut setup = Setup::default();
    let mut run_s = 0.0;
    let mut replay_run_s = 0.0;
    let mut instructions = 0u64;
    let mut replay_instructions = 0u64;
    let mut trace_bytes = 0usize;
    for &i in order {
        let job = &jobs[i];
        let (mut machine, s) = job.setup();
        setup.build_s += s.build_s;
        setup.construct_s += s.construct_s;
        setup.decode_s += s.decode_s;
        let (_, secs) = timed(|| machine.run());
        run_s += secs;
        sched += machine.sched();
        let report = machine.report();
        instructions += report.instructions;
        if job.is_replay() {
            replay_run_s += secs;
            replay_instructions += report.instructions;
            trace_bytes += job.trace_bytes();
        }
        checker.check(&job.label, &report, pinned(&job.label), job.exec_report());
    }

    let mut counts = Counting::default();
    let mut traced_s = 0.0;
    let (mut noc, mut mem, mut gl) = (
        LayerRun::default(),
        LayerRun::default(),
        LayerRun::default(),
    );
    let mut gl_signals = 0u64;
    for &i in order {
        let job = &jobs[i];
        let cfg = job.cfg();
        let t = traced(job);
        traced_s += t.host_s;
        let flat = !cfg.needs_clustered_gline();
        let mut found = problems(&job.label, &t.report, pinned(&job.label), job.exec_report());
        found.extend(count_problems(&t.counts, &t.report, flat));
        let (g, stats) = if flat {
            layers::replay_gline(BarrierNetwork::new(cfg.mesh, cfg.gline), &t.gline)
        } else {
            layers::replay_gline(ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline), &t.gline)
        };
        if stats.barriers_completed != t.report.gl_barriers || stats.signals != t.report.gl_signals
        {
            found.push(format!(
                "G-line replay: {} episodes / {} signals, report {} / {}",
                stats.barriers_completed, stats.signals, t.report.gl_barriers, t.report.gl_signals
            ));
        }
        checker.record(&format!("{} (traced)", job.label), &found);
        gl_signals += t.report.gl_signals;
        add_run(&mut gl, g);
        add_run(&mut noc, layers::replay_noc(&cfg, &t.counts.noc_inputs));
        add_run(&mut mem, layers::replay_mem(&cfg, &t.counts.mem_inputs));
        add_counts(&mut counts, &t.counts);
    }
    eprintln!(
        "[trace] untraced {run_s:.3} s, traced {traced_s:.3} s; layer replays: \
         mem {:.3} s / {} accesses, noc {:.3} s / {} flit hops, gline {:.3} s / {} episodes",
        mem.host_s, mem.work, noc.host_s, noc.work, gl.host_s, gl.work
    );
    let ns_per = |r: LayerRun| ratio(r.host_s * 1e9, r.work as f64);
    vec![
        metric("workloads.build_s", setup.build_s, "s"),
        metric("sim-cmp.construct_s", setup.construct_s, "s"),
        metric("sim-cmp.run_s", run_s, "s"),
        metric("sim-cmp.instructions", instructions as f64, "count"),
        metric("sim-cmp.core_steps", sched.core.core_steps as f64, "count"),
        metric(
            "sim-cmp.host_ns_per_core_step",
            ratio(run_s * 1e9, sched.core.core_steps as f64),
            "ns",
        ),
        metric("sim-cmp.ticks", sched.core.ticks as f64, "count"),
        metric(
            "sim-cmp.parked_steps",
            sched.core.parked_steps as f64,
            "count",
        ),
        metric(
            "sim-cmp.spin_parked_steps",
            sched.core.spin_parked_steps as f64,
            "count",
        ),
        metric(
            "sim-cmp.skip.cycles_skipped",
            sched.skip.cycles_skipped as f64,
            "count",
        ),
        metric(
            "sim-cmp.skip.hit_ratio",
            ratio(sched.skip.skips as f64, sched.skip.attempts as f64),
            "ratio",
        ),
        metric("sim-mem.l1_accesses", counts.l1_accesses as f64, "count"),
        metric(
            "sim-mem.l1_hit_ratio",
            ratio(counts.l1_hits as f64, counts.l1_accesses as f64),
            "ratio",
        ),
        metric("sim-mem.l2_accesses", counts.l2_accesses as f64, "count"),
        metric(
            "sim-mem.dir_transitions",
            counts.dir_transitions as f64,
            "count",
        ),
        metric("sim-mem.home_visits", sched.home_visits as f64, "count"),
        metric("sim-mem.host_ns_per_access", ns_per(mem), "ns"),
        metric("sim-noc.msgs.req", counts.noc_sends[0] as f64, "count"),
        metric("sim-noc.msgs.rep", counts.noc_sends[1] as f64, "count"),
        metric("sim-noc.msgs.coh", counts.noc_sends[2] as f64, "count"),
        metric("sim-noc.flit_hops", counts.flit_hops as f64, "count"),
        metric("sim-noc.router_visits", sched.router_visits as f64, "count"),
        metric("sim-noc.host_ns_per_flit_hop", ns_per(noc), "ns"),
        metric("gline-core.barriers", gl.work as f64, "count"),
        metric("gline-core.signals", gl_signals as f64, "count"),
        metric("gline-core.host_ns_per_episode", ns_per(gl), "ns"),
        metric("sim-trace.decode_s", setup.decode_s, "s"),
        metric(
            "sim-trace.bytes_per_inst",
            ratio(trace_bytes as f64, replay_instructions as f64),
            "B/inst",
        ),
        metric("sim-cmp.replay_run_s", replay_run_s, "s"),
        metric("trace.overhead_ratio", ratio(traced_s, run_s), "ratio"),
    ]
}

fn add_run(acc: &mut LayerRun, r: LayerRun) {
    acc.host_s += r.host_s;
    acc.work += r.work;
}

fn add_counts(acc: &mut Counting, c: &Counting) {
    acc.retired += c.retired;
    acc.l1_accesses += c.l1_accesses;
    acc.l1_hits += c.l1_hits;
    acc.l2_accesses += c.l2_accesses;
    acc.l2_hits += c.l2_hits;
    acc.dir_transitions += c.dir_transitions;
    for k in 0..3 {
        acc.noc_sends[k] += c.noc_sends[k];
    }
    acc.flit_hops += c.flit_hops;
    acc.gline_asserts += c.gline_asserts;
    acc.barrier_completes += c.barrier_completes;
}
