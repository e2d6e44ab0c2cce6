//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p mfc-bench --bin repro -- all
//! cargo run --release -p mfc-bench --bin repro -- fig5 table1 --full
//! cargo run --release -p mfc-bench --bin repro -- table3 --json out/
//! MFC_THREADS=1 cargo run --release -p mfc-bench --bin repro -- all --timing
//! ```
//!
//! Without `--full` each experiment runs at [`Scale::Quick`] (small
//! populations, finishes in seconds); with `--full` the paper's sample
//! sizes are used.  With `--json DIR` a machine-readable copy of each
//! result is written to `DIR/<experiment>.json`.  With `--timing` a
//! wall-clock table is printed after the run (and written to
//! `DIR/timing.json` when `--json` is also given) — the numbers the
//! `BENCH_*.json` perf trajectory records.
//!
//! Survey-style experiments fan their independent trials across
//! `MFC_THREADS` worker threads (default: all cores); the output is
//! bit-identical for any thread count.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use mfc_bench::experiments::{
    ablation, dynamics_matrix, fig3, fig4, fig5, fig6, rank_figs, special_tables, table1, table2,
    table3, topology_matrix, workload_matrix,
};
use mfc_bench::Scale;
use mfc_core::types::Stage;

const SEED: u64 = 20080622;

const EXPERIMENTS: &[&str] = &[
    "fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3", "fig7", "fig8", "fig9", "table4",
    "table5", "ablation", "dynamics", "topology", "workload",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--full] [--json DIR] [--timing] <experiment|all> [<experiment> ...]\n\
         experiments: {}\n\
         MFC_THREADS=N limits the trial-runner worker threads (default: all cores)",
        EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn write_json(dir: &Option<PathBuf>, name: &str, value: &impl serde::Serialize) {
    let Some(dir) = dir else { return };
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut file) => {
            if let Ok(json) = serde_json::to_string_pretty(value) {
                let _ = file.write_all(json.as_bytes());
                println!("  [wrote {}]", path.display());
            }
        }
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

/// Runs one experiment, returning its wall-clock time.
fn run_one(name: &str, scale: Scale, json_dir: &Option<PathBuf>) -> std::time::Duration {
    println!("==> {name}");
    let started = Instant::now();
    // Prints one experiment's result and writes its JSON copy.
    macro_rules! emit {
        ($result:expr) => {{
            let result = $result;
            print!("{}", result.render_text());
            write_json(json_dir, name, &result);
        }};
    }
    match name {
        "fig3" => emit!(fig3::run(scale, SEED)),
        "fig4" => emit!(fig4::run(scale, SEED)),
        "fig5" => emit!(fig5::run(scale, SEED)),
        "fig6" => emit!(fig6::run(scale, SEED)),
        "table1" => emit!(table1::run(scale, SEED)),
        "table2" => emit!(table2::run(scale, SEED)),
        "table3" => emit!(table3::run(scale, SEED)),
        "dynamics" => emit!(dynamics_matrix::run(scale, SEED)),
        "topology" => emit!(topology_matrix::run(scale, SEED)),
        "workload" => emit!(workload_matrix::run(scale, SEED)),
        "fig7" => emit!(rank_figs::run(Stage::Base, scale, SEED)),
        "fig8" => emit!(rank_figs::run(Stage::SmallQuery, scale, SEED)),
        "fig9" => emit!(rank_figs::run(Stage::LargeObject, scale, SEED)),
        "table4" => emit!(special_tables::run_table4(scale, SEED)),
        "table5" => emit!(special_tables::run_table5(scale, SEED)),
        "ablation" => emit!(ablation::run(scale, SEED)),
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
    println!();
    started.elapsed()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Quick;
    let mut json_dir: Option<PathBuf> = None;
    let mut timing = false;
    let mut selected: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Paper,
            "--json" => match iter.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--timing" => timing = true,
            "all" => selected.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        usage();
    }
    let threads = mfc_core::runner::TrialRunner::from_env().threads();
    println!("MFC reproduction — scale: {scale:?}, seed: {SEED}, trial threads: {threads}\n");
    let overall = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for name in selected {
        let elapsed = run_one(&name, scale, &json_dir);
        timings.push((name, elapsed.as_secs_f64() * 1e3));
    }
    let total_ms = overall.elapsed().as_secs_f64() * 1e3;
    if timing {
        println!("==> timing (threads: {threads})");
        println!("  {:<12} {:>12}", "experiment", "wall (ms)");
        for (name, ms) in &timings {
            println!("  {name:<12} {ms:>12.1}");
        }
        println!("  {:<12} {total_ms:>12.1}", "total");
        write_json(
            &json_dir,
            "timing",
            &TimingReport {
                scale: format!("{scale:?}"),
                seed: SEED,
                threads,
                total_ms,
                per_experiment_ms: timings,
            },
        );
    }
}

/// Machine-readable copy of the `--timing` table.
#[derive(serde::Serialize, serde::Deserialize)]
struct TimingReport {
    scale: String,
    seed: u64,
    threads: usize,
    total_ms: f64,
    per_experiment_ms: Vec<(String, f64)>,
}
