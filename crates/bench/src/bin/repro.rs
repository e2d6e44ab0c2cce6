//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p mfc-bench --bin repro -- all
//! cargo run --release -p mfc-bench --bin repro -- fig5 table1 --full
//! cargo run --release -p mfc-bench --bin repro -- table3 --json out/
//! MFC_THREADS=1 cargo run --release -p mfc-bench --bin repro -- all --timing
//! ```
//!
//! Without `--full` each experiment runs at [`Scale::Quick`]: the §5
//! surveys probe only the first 8 sites of each sample, and every other
//! experiment is the same as at `--full`, which uses the paper's sample
//! sizes.  With `--json DIR` a machine-readable copy of each
//! result is written to `DIR/<experiment>.json`.  With `--timing` a
//! wall-clock table is printed after the run (and written to
//! `DIR/timing.json` when `--json` is also given) — the numbers the
//! `BENCH_*.json` perf trajectory records.
//!
//! Survey-style experiments fan their independent trials across
//! `MFC_THREADS` worker threads (default: all cores); the output is
//! bit-identical for any thread count.

use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::time::Instant;

use mfc_bench::experiments::{Experiment, EXPERIMENTS};
use mfc_bench::Scale;

const SEED: u64 = 20080622;

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: repro [--full] [--json DIR] [--timing] <experiment|all> [<experiment> ...]\n\
         experiments: {}\n\
         MFC_THREADS=N limits the trial-runner worker threads (default: all cores)",
        names.join(", ")
    );
    std::process::exit(2);
}

/// Writes to stdout.  A reader that closes early (`repro all | head`) ends
/// the run quietly with status 0.
fn emit(args: std::fmt::Arguments) {
    if let Err(err) = std::io::stdout().write_fmt(args) {
        if err.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {err}");
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn write_json(dir: &Option<PathBuf>, name: &str, json: &str) {
    let Some(dir) = dir else { return };
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut file) => {
            let _ = file.write_all(json.as_bytes());
            out!("  [wrote {}]\n", path.display());
        }
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Quick;
    let mut json_dir: Option<PathBuf> = None;
    let mut timing = false;
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Paper,
            "--json" => match iter.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--timing" => timing = true,
            "all" => selected.extend(EXPERIMENTS),
            other if other.starts_with('-') => usage(),
            other => match EXPERIMENTS.iter().find(|e| e.name == other) {
                Some(experiment) => selected.push(experiment),
                None => {
                    eprintln!("unknown experiment: {other}");
                    usage();
                }
            },
        }
    }
    if selected.is_empty() {
        usage();
    }
    let threads = mfc_core::runner::TrialRunner::from_env().threads();
    out!("MFC reproduction — scale: {scale:?}, seed: {SEED}, trial threads: {threads}\n\n");
    let overall = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for experiment in selected {
        out!("==> {}\n", experiment.name);
        let started = Instant::now();
        let rendered = (experiment.run)(scale, SEED);
        out!("{}", rendered.text);
        write_json(&json_dir, experiment.name, &rendered.json);
        out!("\n");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        timings.push((experiment.name.to_string(), ms));
    }
    let total_ms = overall.elapsed().as_secs_f64() * 1e3;
    if timing {
        out!("==> timing (threads: {threads})\n");
        out!("  {:<12} {:>12}\n", "experiment", "wall (ms)");
        for (name, ms) in &timings {
            out!("  {name:<12} {ms:>12.1}\n");
        }
        out!("  {:<12} {total_ms:>12.1}\n", "total");
        let report = TimingReport {
            scale: format!("{scale:?}"),
            seed: SEED,
            threads,
            total_ms,
            per_experiment_ms: timings,
        };
        let json = serde_json::to_string_pretty(&report).expect("timing serializes");
        write_json(&json_dir, "timing", &json);
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
