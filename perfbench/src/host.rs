//! The host and build every result was measured on, so a number from one
//! machine or thread count can never pass for another's.

use std::process::Command;

/// Host and build facts, rendered as one JSON object.
pub fn describe(workload: &str, workers: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"available_parallelism\": {parallelism}, \"nproc\": \"{}\", \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"profile\": \"{profile}\", \"workload\": \"{workload}\", \
         \"workers\": {workers}}}",
        escape(&nproc),
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC"))
    )
}

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
