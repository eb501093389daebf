//! The CasCN benchmark: one command, three workloads, every metric by name
//! and unit, output checks included.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve_cold|serve_live --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` runs the workload's traced replay and reports the per-layer
//! metrics instead; its spans are written to `perfbench/out/`. The last
//! line of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `WORKLOADS.md` for what each workload measures and
//! why.

mod common;
mod load;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::trace::Trace;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    for a in raw.iter().filter(|a| a.starts_with("--")) {
        if !matches!(
            a.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown flag {a}"));
        }
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "invalid --seconds".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "invalid --seed".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Where runs leave their spans and scratch checkpoints.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a traced run's spans; a failure to write is reported, not fatal.
pub fn write_trace(workload: &str, trace: &Trace) {
    let written = out_dir().and_then(|dir| {
        let path = dir.join(format!("trace-{workload}.jsonl"));
        trace.write_jsonl(&path).map(|()| path)
    });
    match written {
        Ok(path) => eprintln!(
            "{workload}: {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: could not write spans: {e}"),
    }
    let mut by_name = trace.self_time_by_name();
    by_name.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in by_name {
        eprintln!("  self time {name:<22} {:>10.1} ms", ns as f64 / 1e6);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "train" => Ok(train::run(args.seed, args.seconds, args.trace)),
        "serve_cold" => serve::run(serve::Workload::Cold, args.seed, args.seconds, args.trace),
        "serve_live" => serve::run(serve::Workload::Live, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other} (train, serve_cold, serve_live)");
            return ExitCode::from(2);
        }
    };
    match report {
        Ok(report) => {
            eprintln!(
                "{}: correct {} attempted {} failed {}",
                args.workload, report.correct, report.attempted, report.failed
            );
            report.print_table();
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
