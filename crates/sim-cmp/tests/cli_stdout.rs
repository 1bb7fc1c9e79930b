//! Regression: machine-readable stdout must stay machine-readable.
//! `--json` pipelines (`simcmp … --json | jq`) break if any diagnostic
//! — in particular `--sched-stats` — leaks onto stdout, so everything
//! except the report JSON and `--peek` lines goes to stderr.

use sim_base::json::parse;
use std::process::Command;

const PROGRAM: &str = "\
    li r1, 0x8000\n\
    li r2, 7\n\
    st r2, 0(r1)\n\
    ld r3, 0(r1)\n\
    li r1, 1\n\
    barw r1\n\
spin:\n\
    barr r2\n\
    bne r2, r0, spin\n\
    halt\n";

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("simcmp_cli_stdout_{}_{name}", std::process::id()));
    p
}

fn simcmp(name: &str, args: &[&str]) -> std::process::Output {
    let prog = tmp(name);
    std::fs::write(&prog, PROGRAM).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simcmp"))
        .arg(&prog)
        .args(args)
        .output()
        .expect("simcmp runs");
    let _ = std::fs::remove_file(&prog);
    out
}

#[test]
fn json_with_sched_stats_keeps_stdout_pure() {
    let out = simcmp("pure.s", &["--cores", "4", "--json", "--sched-stats"]);
    assert!(out.status.success(), "simcmp exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The whole of stdout must be one valid JSON document — no
    // diagnostics interleaved before, after, or inside it.
    let rep = parse(stdout.trim()).unwrap_or_else(|e| {
        panic!("stdout is not pure JSON ({e}):\n{stdout}");
    });
    assert!(rep.get("cycles").is_some(), "report JSON has cycles");
    // The diagnostics still appear — on stderr.
    assert!(
        stderr.contains("skip:") && stderr.contains("active sets:"),
        "sched-stats diagnostics missing from stderr:\n{stderr}"
    );
}

/// The intra-simulation parallel engine and its flags are gone; scripts
/// that still pass them must fail loudly instead of silently running
/// something else.
#[test]
fn removed_parallel_engine_flags_are_rejected() {
    for (name, flags) in [
        ("workers.s", &["--workers", "2"][..]),
        ("per_cycle.s", &["--per-cycle-sync"][..]),
    ] {
        let out = simcmp(name, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flags:?} was accepted");
        assert!(
            stderr.contains("unknown option"),
            "{flags:?}: expected an unknown-option error, got:\n{stderr}"
        );
    }
}
