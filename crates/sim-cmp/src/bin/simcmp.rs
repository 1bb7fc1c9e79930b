//! `simcmp` — assemble and run programs on the simulated CMP.
//!
//! ```text
//! simcmp PROGRAM.s [PROGRAM2.s …] [options]
//!
//!   One program file: every core runs it (SPMD).
//!   N program files:  core i runs the i-th file; N must equal --cores.
//!
//! Options:
//!   --cores N          number of cores (default 4; mesh is the squarest
//!                      factorization)
//!   --mesh RxC         explicit mesh geometry, e.g. --mesh 16x16 (the
//!                      core count is R*C; combined with --cores the two
//!                      must agree). Meshes beyond the flat G-line budget
//!                      automatically use the two-level clustered barrier
//!                      network
//!   --gl-transmitters N  transmitters per G-line (default 7; sets the
//!                      flat-network limit and the clustered network's
//!                      cluster dimension N+1)
//!   --max-cycles N     deadlock guard (default 100_000_000)
//!   --poke ADDR=VAL    pre-load a memory word (repeatable; hex or dec)
//!   --peek ADDR        print a memory word after the run (repeatable)
//!   --json             print the full report as JSON
//!   --breakdown        print the per-category cycle breakdown
//!   --progress N       print a status line every N cycles
//!   --no-skip          disable quiescence-aware cycle skipping and
//!                      tick every cycle (debugging escape hatch; the
//!                      report is bit-identical either way, traced runs
//!                      always tick every cycle)
//!   --no-active-set    disable active-set micro-scheduling and visit
//!                      every router/home/core each ticked cycle
//!                      (debugging escape hatch; the report is
//!                      bit-identical either way)
//!   --sched-stats      print scheduler diagnostics after the run:
//!                      skip attempt/success/backoff counters and the
//!                      mean active-set occupancy per subsystem
//!   --trace FILE       record every event and write a Chrome
//!                      trace_event JSON file (open in about://tracing
//!                      or Perfetto)
//!   --trace-last N     keep the last N events in a ring and print them
//!                      to stderr after the run
//!   --record-trace DIR run dense and cycle-exact, recording every
//!                      core's issue groups; write the trace set
//!                      (manifest.json + core<i>.trace) into DIR
//!   --replay DIR       drive the cores from the trace set in DIR
//!                      instead of program files (no PROGRAM.s
//!                      arguments; --cores, if given, must match the
//!                      set). The replayed run's report, memory and
//!                      events are bit-identical to the recorded one
//! ```
//!
//! Exit code 0 on success, 1 on assembly/trace errors, 2 on a run that
//! does not halt.

use gline_core::{BarrierHw, ClusteredBarrierNetwork};
use sim_base::config::CmpConfig;
use sim_base::json::ToJson;
use sim_base::stats::TimeCat;
use sim_base::trace::{ChromeTraceSink, RingSink, TraceSink, Tracer};
use sim_base::Mesh2D;
use sim_cmp::System;
use sim_isa::{assemble, Program};
use sim_trace::TraceSet;
use std::path::Path;

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn die(msg: &str) -> ! {
    eprintln!("simcmp: {msg}");
    std::process::exit(1);
}

/// Parses `RxC` (e.g. `16x16`) into nonzero mesh dimensions.
fn parse_mesh(s: &str) -> Option<(u16, u16)> {
    let (r, c) = s.split_once(['x', 'X'])?;
    let (r, c) = (r.parse().ok()?, c.parse().ok()?);
    (r > 0 && c > 0).then_some((r, c))
}

/// Builds the run configuration from the geometry flags, exiting with a
/// named-field diagnostic instead of a panic on an inconsistent request.
fn build_config(
    cores: usize,
    cores_explicit: bool,
    mesh: Option<(u16, u16)>,
    gl_transmitters: Option<u32>,
) -> CmpConfig {
    let mut cfg = match mesh {
        Some((r, c)) => {
            let n = r as usize * c as usize;
            if cores_explicit && n != cores {
                die(&format!(
                    "--mesh {r}x{c} is {n} cores but the run has {cores} cores"
                ));
            }
            let mut cfg = CmpConfig::icpp2010();
            cfg.mesh = Mesh2D::new(r, c);
            cfg
        }
        None => CmpConfig::icpp2010_with_cores(cores),
    };
    if let Some(t) = gl_transmitters {
        cfg.gline.max_transmitters = t;
    }
    cfg.validate().unwrap_or_else(|e| die(&e));
    cfg
}

/// Exit for trace requests on meshes that need the clustered network,
/// which has no traced variant.
fn clustered_trace_unsupported(cfg: &CmpConfig) -> ! {
    let dim = cfg.gline.max_transmitters + 1;
    die(&format!(
        "{}x{} mesh exceeds the flat G-line budget (gline.max_transmitters = {}, \
         max {dim}x{dim} flat) and event tracing supports only the flat network; \
         drop --trace/--trace-last, raise --gl-transmitters, or shrink the mesh",
        cfg.mesh.rows, cfg.mesh.cols, cfg.gline.max_transmitters
    ));
}

/// Everything main() parsed that the run loop needs.
struct Opts {
    max_cycles: u64,
    pokes: Vec<(u64, u64)>,
    peeks: Vec<u64>,
    json: bool,
    breakdown: bool,
    progress: Option<u64>,
    cores: usize,
    no_skip: bool,
    no_active_set: bool,
    sched_stats: bool,
}

/// Runs the system to completion and prints the report. Monomorphized
/// per barrier hardware and trace sink so the untraced path stays
/// zero-cost.
fn run_system<B: BarrierHw, S: TraceSink>(mut sys: System<B, S>, opts: &Opts) {
    sys.set_skip_enabled(!opts.no_skip);
    sys.set_active_set_enabled(!opts.no_active_set);
    for &(a, v) in &opts.pokes {
        sys.poke_word(a, v);
    }
    let outcome = match opts.progress {
        Some(every) => sys.run_with_progress(opts.max_cycles, every, |rep| {
            eprintln!(
                "[cycle {:>10}] {} instructions, {} NoC messages, {} GL barriers",
                rep.cycles,
                rep.instructions,
                rep.traffic.total(),
                rep.gl_barriers
            );
        }),
        None => sys.run(opts.max_cycles),
    };
    finish(&sys, outcome, opts);
}

/// Runs the system dense and cycle-exact while recording every core's
/// issue groups, prints the usual report, and writes the trace set into
/// `dir`.
fn record_system<B: BarrierHw>(mut sys: System<B>, opts: &Opts, dir: &str, workload: String) {
    if opts.progress.is_some() {
        eprintln!("simcmp: --record-trace ignores --progress");
    }
    for &(a, v) in &opts.pokes {
        sys.poke_word(a, v);
    }
    let (outcome, traces) = match sys.run_recorded(opts.max_cycles) {
        Ok((cycles, traces)) => (Ok(cycles), traces),
        Err(e) => (Err(e), Vec::new()),
    };
    finish(&sys, outcome, opts); // exits on a run that did not halt
    let set = TraceSet {
        cores: traces,
        pokes: opts.pokes.clone(),
        workload,
    };
    sim_trace::write_dir(Path::new(dir), &set)
        .unwrap_or_else(|e| die(&format!("--record-trace {dir}: {e}")));
    eprintln!("wrote {} core traces to {dir}", set.cores.len());
}

/// Prints the report (or the deadlock diagnostic) for a finished run.
fn finish<B: BarrierHw, S: TraceSink>(
    sys: &System<B, S>,
    outcome: Result<u64, String>,
    opts: &Opts,
) {
    match outcome {
        Ok(cycles) => {
            let rep = sys.report();
            if opts.json {
                println!("{}", rep.to_json().pretty());
            } else {
                eprintln!(
                    "halted after {cycles} cycles ({} instructions, IPC {:.2})",
                    rep.instructions,
                    rep.instructions as f64 / (cycles.max(1) as f64 * opts.cores as f64)
                );
                eprintln!(
                    "L1: {} hits / {} misses; NoC messages: {}; GL barriers: {}",
                    rep.l1_hits,
                    rep.l1_misses,
                    rep.traffic.total(),
                    rep.gl_barriers
                );
                if opts.breakdown {
                    for cat in TimeCat::ALL {
                        eprintln!(
                            "  {:<8} {:>6.2}%",
                            cat.label(),
                            100.0 * rep.time_fraction(cat)
                        );
                    }
                }
            }
            if opts.sched_stats {
                let skip = sys.skip_stats();
                let core = sys.core_sched_stats();
                let mem = sys.mem_sched_stats();
                let noc = sys.noc_sched_stats();
                eprintln!(
                    "skip: {} attempts, {} skips ({} cycles), {} backed off",
                    skip.attempts, skip.skips, skip.cycles_skipped, skip.backed_off
                );
                eprintln!(
                    "active sets: {:.2} cores, {:.2} homes, {:.2} routers (mean per ticked cycle)",
                    core.mean_active_cores(),
                    mem.mean_busy_homes(),
                    noc.mean_active_routers()
                );
                eprintln!(
                    "core parking: {} stall steps, {} spin steps elided",
                    core.parked_steps, core.spin_parked_steps
                );
            }
            for &a in &opts.peeks {
                println!("[0x{a:x}] = {}", sys.peek_word(a));
            }
        }
        Err(e) => {
            eprintln!("simcmp: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: simcmp PROGRAM.s [PROGRAM2.s …] [--cores N] [--mesh RxC]");
        eprintln!("              [--gl-transmitters N] [--max-cycles N]");
        eprintln!("              [--poke ADDR=VAL]… [--peek ADDR]… [--json] [--breakdown]");
        eprintln!("              [--no-skip] [--no-active-set] [--sched-stats]");
        eprintln!("              [--trace FILE] [--trace-last N]");
        eprintln!("              [--record-trace DIR | --replay DIR]");
        std::process::exit(if args.is_empty() { 1 } else { 0 });
    }

    let mut files = Vec::new();
    let mut cores = 4usize;
    let mut cores_explicit = false;
    let mut max_cycles = 100_000_000u64;
    let mut pokes: Vec<(u64, u64)> = Vec::new();
    let mut peeks: Vec<u64> = Vec::new();
    let mut json = false;
    let mut breakdown = false;
    let mut progress: Option<u64> = None;
    let mut no_skip = false;
    let mut no_active_set = false;
    let mut sched_stats = false;
    let mut mesh: Option<(u16, u16)> = None;
    let mut gl_transmitters: Option<u32> = None;
    let mut trace_file: Option<String> = None;
    let mut trace_last: Option<usize> = None;
    let mut record_dir: Option<String> = None;
    let mut replay_dir: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cores needs a number"));
                cores_explicit = true;
            }
            "--mesh" => {
                mesh = Some(
                    it.next()
                        .as_deref()
                        .and_then(parse_mesh)
                        .unwrap_or_else(|| die("--mesh needs RxC with nonzero dimensions")),
                );
            }
            "--gl-transmitters" => {
                gl_transmitters = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--gl-transmitters needs a number")),
                );
            }
            "--max-cycles" => {
                max_cycles = it
                    .next()
                    .and_then(|v| parse_num(&v))
                    .unwrap_or_else(|| die("--max-cycles needs a number"));
            }
            "--poke" => {
                let spec = it.next().unwrap_or_else(|| die("--poke needs ADDR=VAL"));
                let (a, v) = spec
                    .split_once('=')
                    .unwrap_or_else(|| die("--poke needs ADDR=VAL"));
                pokes.push((
                    parse_num(a).unwrap_or_else(|| die("bad poke address")),
                    parse_num(v).unwrap_or_else(|| die("bad poke value")),
                ));
            }
            "--peek" => {
                let a = it.next().unwrap_or_else(|| die("--peek needs ADDR"));
                peeks.push(parse_num(&a).unwrap_or_else(|| die("bad peek address")));
            }
            "--json" => json = true,
            "--breakdown" => breakdown = true,
            "--no-skip" => no_skip = true,
            "--no-active-set" => no_active_set = true,
            "--sched-stats" => sched_stats = true,
            "--progress" => {
                progress = Some(
                    it.next()
                        .and_then(|v| parse_num(&v))
                        .unwrap_or_else(|| die("--progress needs a cycle count")),
                );
            }
            "--trace" => {
                trace_file = Some(
                    it.next()
                        .unwrap_or_else(|| die("--trace needs a file name")),
                );
            }
            "--trace-last" => {
                trace_last = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--trace-last needs an event count")),
                );
            }
            "--record-trace" => {
                record_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--record-trace needs a directory")),
                );
            }
            "--replay" => {
                replay_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--replay needs a directory")),
                );
            }
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => die(&format!("unknown option {other}")),
        }
    }
    if record_dir.is_some() && replay_dir.is_some() {
        die("--record-trace and --replay are mutually exclusive");
    }
    if trace_file.is_some() && trace_last.is_some() {
        die("--trace and --trace-last are mutually exclusive");
    }
    if record_dir.is_some() && (trace_file.is_some() || trace_last.is_some()) {
        die("--record-trace cannot be combined with --trace/--trace-last");
    }

    if let Some(dir) = replay_dir {
        if !files.is_empty() {
            die("--replay takes no program files");
        }
        let set = sim_trace::read_dir(Path::new(&dir))
            .unwrap_or_else(|e| die(&format!("--replay {dir}: {e}")));
        let n = set.cores.len();
        if cores_explicit && cores != n {
            die(&format!(
                "--cores {cores} but the trace set holds {n} cores"
            ));
        }
        let cfg = build_config(n, true, mesh, gl_transmitters);
        let opts = Opts {
            max_cycles,
            pokes,
            peeks,
            json,
            breakdown,
            progress,
            cores: n,
            no_skip,
            no_active_set,
            sched_stats,
        };
        if cfg.needs_clustered_gline() {
            if trace_file.is_some() || trace_last.is_some() {
                clustered_trace_unsupported(&cfg);
            }
            let hw = ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline);
            run_system(System::replay_with_barrier_hw(cfg, &set, hw), &opts);
        } else if let Some(path) = trace_file {
            let tracer = Tracer::new(ChromeTraceSink::new());
            run_system(System::replay_traced(cfg, &set, tracer.clone()), &opts);
            let (count, out) = tracer.with_sink(|s| (s.events().len(), s.to_json_string()));
            std::fs::write(&path, out).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            eprintln!("wrote {count} events to {path}");
        } else if let Some(last) = trace_last {
            let tracer = Tracer::new(RingSink::new(last));
            run_system(System::replay_traced(cfg, &set, tracer.clone()), &opts);
            tracer.with_sink(|s| {
                eprintln!(
                    "--- last {} of {} events ---\n{}",
                    s.len(),
                    s.total_seen(),
                    s.dump()
                );
            });
        } else {
            run_system(System::replay(cfg, &set), &opts);
        }
        return;
    }

    if files.is_empty() {
        die("no program files given");
    }

    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| die(&format!("{f}: {e}"))))
        .collect();
    let progs: Vec<Program> = sources
        .iter()
        .zip(&files)
        .map(|(src, f)| match assemble(src) {
            Ok(p) => p,
            Err(e) => die(&format!("{f}: {e}")),
        })
        .collect();

    let cfg = build_config(cores, cores_explicit, mesh, gl_transmitters);
    let cores = cfg.num_cores();
    let progs = if progs.len() == 1 {
        vec![progs[0].clone(); cores]
    } else if progs.len() == cores {
        progs
    } else {
        die(&format!(
            "{} program files but the run has {cores} cores",
            progs.len()
        ));
    };

    let opts = Opts {
        max_cycles,
        pokes,
        peeks,
        json,
        breakdown,
        progress,
        cores,
        no_skip,
        no_active_set,
        sched_stats,
    };

    if cfg.needs_clustered_gline() {
        if trace_file.is_some() || trace_last.is_some() {
            clustered_trace_unsupported(&cfg);
        }
        let hw = ClusteredBarrierNetwork::new(cfg.mesh, cfg.gline);
        if let Some(dir) = record_dir {
            record_system(
                System::with_barrier_hw(cfg, progs, hw),
                &opts,
                &dir,
                files.join(" "),
            );
        } else {
            run_system(System::with_barrier_hw(cfg, progs, hw), &opts);
        }
    } else if let Some(dir) = record_dir {
        record_system(System::new(cfg, progs), &opts, &dir, files.join(" "));
    } else if let Some(path) = trace_file {
        let tracer = Tracer::new(ChromeTraceSink::new());
        run_system(System::traced(cfg, progs, tracer.clone()), &opts);
        let (count, out) = tracer.with_sink(|s| (s.events().len(), s.to_json_string()));
        std::fs::write(&path, out).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote {count} events to {path}");
    } else if let Some(n) = trace_last {
        let tracer = Tracer::new(RingSink::new(n));
        run_system(System::traced(cfg, progs, tracer.clone()), &opts);
        tracer.with_sink(|s| {
            eprintln!(
                "--- last {} of {} events ---\n{}",
                s.len(),
                s.total_seen(),
                s.dump()
            );
        });
    } else {
        run_system(System::new(cfg, progs), &opts);
    }
}
