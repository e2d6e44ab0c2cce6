//! `mfc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload at paper scale, prints every metric by name
//! with its unit, writes the same record as JSON under `results/` in this
//! package, and prints it as the last line of standard output.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mfc_bench::Scale;
use mfc_perfbench::workload::{Plan, Workload};
use mfc_perfbench::Outcome;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: mfc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let separator = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{separator}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("{reason}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, Scale::Paper, args.seed);
    let outcome = mfc_perfbench::run(&plan, Duration::from_secs(args.seconds), args.trace);

    let trace = u8::from(args.trace);
    println!(
        "{} seed={} seconds={} trace={trace} digest={:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        outcome.digest
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let line = result_json(&outcome);

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{trace}.json",
        args.workload.name(),
        args.seed
    ));
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {trace}, \
         \"digest\": \"{:016x}\", \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        outcome.digest
    );
    if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("warning: could not write {}: {err}", file.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
