//! `figures` — regenerates the paper's tables and figures.
//!
//! Usage:
//! ```text
//! figures [--table1] [--table2] [--fig2] [--fig5] [--fig6] [--fig7]
//!         [--all] [--full] [--json FILE] [--jobs N]
//! ```
//!
//! With no selection flags, `--all` is implied. `--full` runs the larger
//! workload sizes; the default quick sizes finish in minutes. `--json`
//! additionally writes the raw experiment data as JSON. `--jobs N` sets
//! the worker-thread count for the simulation sweeps (default: all host
//! cores; the output is bit-identical for any N). A missing or
//! non-positive `--jobs` value exits with status 1.

use bench::experiments as exp;
use bench::sweep::workers_from_args;
use bench::Scale;
use sim_base::json::{Json, ToJson};
use std::io::Write;

#[derive(Default)]
struct JsonOut {
    table2: Option<Vec<exp::Table2Row>>,
    fig5: Option<Vec<exp::Fig5Row>>,
    fig6_fig7: Option<Vec<exp::Fig67Row>>,
}

impl ToJson for JsonOut {
    fn to_json(&self) -> Json {
        fn rows<T: ToJson>(rows: &[T]) -> Json {
            Json::arr(rows.iter().map(ToJson::to_json))
        }
        let mut fields = Vec::new();
        if let Some(t) = &self.table2 {
            fields.push(("table2", rows(t)));
        }
        if let Some(f) = &self.fig5 {
            fields.push(("fig5", rows(f)));
        }
        if let Some(f) = &self.fig6_fig7 {
            fields.push(("fig6_fig7", rows(f)));
        }
        Json::obj(fields)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = has("--all")
        || ![
            "--table1", "--table2", "--fig2", "--fig5", "--fig6", "--fig7",
        ]
        .iter()
        .any(|f| has(f));
    let scale = if has("--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let workers = workers_from_args(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(1);
    });
    let mut json = JsonOut::default();

    println!(
        "gline-cmp evaluation harness — scale: {scale:?}, {workers} worker thread(s) \
         (use --full for larger runs, --jobs N to set workers)\n"
    );

    if all || has("--table1") {
        println!("{}", exp::table1());
    }
    if all || has("--fig2") {
        println!("{}", exp::figure2());
    }
    if all || has("--table2") {
        eprintln!("[table2] running the benchmark suite under DSW…");
        let rows = exp::table2(scale, workers);
        println!("{}", exp::render_table2(&rows));
        json.table2 = Some(rows);
    }
    if all || has("--fig5") {
        eprintln!("[fig5] sweeping core counts × barrier implementations…");
        let rows = exp::fig5(scale, workers);
        println!("{}", exp::render_fig5(&rows));
        json.fig5 = Some(rows);
    }
    if all || has("--fig6") || has("--fig7") {
        eprintln!("[fig6/fig7] running the benchmark suite under DSW and GL…");
        let rows = exp::fig6_fig7(scale, workers);
        if all || has("--fig6") {
            println!("{}", exp::render_fig6(&rows));
        }
        if all || has("--fig7") {
            println!("{}", exp::render_fig7(&rows));
        }
        json.fig6_fig7 = Some(rows);
    }

    if let Some(path) = json_path {
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(json.to_json().pretty().as_bytes())
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
