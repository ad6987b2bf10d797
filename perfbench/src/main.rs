//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host, per-op detail and every metric by name with its unit,
//! then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. Exits
//! 1 when a correctness check failed, 2 on bad arguments.

use ssmdst_perfbench::judge::{self, JudgeParams};
use ssmdst_perfbench::{host, replay, work_units, Run, WORKLOADS};
use std::process::ExitCode;

/// Node count of the `replay` scenarios (the G(n, p) kinds take 3/4 of it).
const REPLAY_N: usize = 48;
/// Node count of the `flood-scale` instance.
const FLOOD_N: usize = 100_000;

// Seconds one unit of each workload's work takes on a 2-vCPU host. A run
// of `--seconds S` makes about `S / unit` units, fixed before it starts.
/// One `replay` pass (four scenarios).
const REPLAY_PASS_S: f64 = 10.0;
/// One `flood-scale` pass (about 40 rounds).
const FLOOD_PASS_S: f64 = 9.0;
/// One `judge-scale` graph visit (a cold judgment and its churn chain).
const JUDGE_VISIT_S: f64 = 4.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} ({WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args) -> Run {
    let units = |unit_s: f64| work_units(a.seconds, unit_s);
    match a.workload.as_str() {
        "replay" => {
            let p = replay::replay_params(a.seed, REPLAY_N, units(REPLAY_PASS_S));
            replay::run(&p, a.trace)
        }
        "flood-scale" => replay::flood(a.seed, FLOOD_N, units(FLOOD_PASS_S), a.trace),
        "judge-scale" => {
            let visits = units(JUDGE_VISIT_S) as usize;
            judge::run(&JudgeParams::standard(), a.seed, visits, a.trace)
        }
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = run(&args);
    println!("host: {}", host::describe(&args.workload, run.workers));
    for note in &run.notes {
        println!("  {note}");
    }
    let mut setup = run.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (setup.first(), setup.last()) {
        println!("  set-up: {} repetitions, {lo} s to {hi} s", setup.len());
    }
    if let Some(tracer) = &run.tracer {
        let path = std::path::PathBuf::from("perfbench-out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("  spans: {} in {}", tracer.spans().len(), path.display()),
            Err(e) => println!("  spans: not written ({e})"),
        }
    }
    let t = run.tally;
    let end_to_end = run.end_to_end();
    let metrics: Vec<(&str, f64, &str)> = match &run.layers {
        Some(layers) => layers.entries().collect(),
        None => end_to_end.clone(),
    };
    // Every metric is printed, traced or not; the JSON carries the set the
    // mode reports.
    let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "  {:<28} {} (failed {} of {} ops)",
        "failed_frac", failed_frac, t.failed, t.attempted
    );
    let mut all = end_to_end.clone();
    all.extend(run.printed_only());
    if let Some(layers) = &run.layers {
        all.extend(layers.entries());
    }
    for (name, value, unit) in all {
        println!("  {name:<28} {value} {unit}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("  a metric is not a finite number");
    }
    let correct = t.incorrect == 0 && t.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
