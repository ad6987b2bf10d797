//! The ssmdst benchmark: three workloads over the simulator, scenario
//! engine, storm steps and judge, each measured end to end with tracing off,
//! plus a separate traced run that splits the same work across the
//! layers by timing the benchmark's own calls into each layer's public
//! functions. See `perfbench/README.md` for the layer → metric →
//! workload map and why each workload was chosen.

pub mod host;
pub mod judge;
pub mod layers;
pub mod replay;
mod stats;

use layers::Layers;

/// End-to-end metrics, with units, in the order they are reported. Every
/// workload reports all of them; what an op is on each workload is fixed
/// per workload (README, "End-to-end metrics").
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")];

/// Metrics printed by name beside the end-to-end ones but left out of the
/// result line: on a shared host their run-to-run spread is wider than
/// any bound they could be held to (README, "End-to-end metrics").
pub const PRINTED_ONLY: &[(&str, &str)] = &[("work_per_s", "1/s"), ("op_ms_p50", "ms")];

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["replay", "flood-scale", "judge-scale"];

/// Units of fixed work for a run of `seconds`, when one unit takes about
/// `unit_s` seconds on a 2-vCPU host: at least 1. The work depends on
/// `--seconds` only, never on the clock, so every run of a seed makes the
/// same ops whatever the host's speed.
pub fn work_units(seconds: f64, unit_s: f64) -> u64 {
    ((seconds / unit_s).round() as u64).max(1)
}

/// Pass/fail tally of one run's ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a protocol outcome outside its guarantee (not
    /// converged, judged outside deg ≤ Δ*+1) or a failed correctness
    /// check.
    pub failed: u64,
    /// Failed correctness checks among them (digest mismatch, bad
    /// witness, interval disagreement). Any makes the run incorrect.
    pub incorrect: u64,
}

impl Tally {
    /// Count one op: `ok` is its protocol outcome, `sound` whether its
    /// correctness checks passed.
    pub fn op(&mut self, ok: bool, sound: bool) {
        self.attempted += 1;
        if !(ok && sound) {
            self.failed += 1;
        }
        if !sound {
            self.incorrect += 1;
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Ops and their failures.
    pub tally: Tally,
    /// Each set-up repetition's duration.
    pub setup_s: Vec<f64>,
    /// Duration of the timed region.
    pub wall_s: f64,
    /// Units of work per second of the timed region.
    pub work_per_s: f64,
    /// Median op latency.
    pub op_ms_p50: f64,
    /// 90th-percentile op latency.
    pub op_ms_p90: f64,
    /// Peak resident memory over the timed region.
    pub peak_rss_mb: f64,
    /// Worker threads or shards the workload ran on.
    pub workers: usize,
    /// Per-layer metrics of the traced run, when one was made.
    pub layers: Option<Layers>,
    /// The traced run's spans.
    pub tracer: Option<layers::Tracer>,
    /// Human-readable per-op detail.
    pub notes: Vec<String>,
}

impl Run {
    /// Set the op-latency percentiles from a sample.
    pub fn latencies(&mut self, op_ms: &[f64]) {
        self.op_ms_p50 = stats::quantile(op_ms, 0.5);
        self.op_ms_p90 = stats::quantile(op_ms, 0.9);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            stats::median(&self.setup_s),
            self.op_ms_p90,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The [`PRINTED_ONLY`] metrics, in order.
    pub fn printed_only(&self) -> Vec<(&'static str, f64, &'static str)> {
        PRINTED_ONLY
            .iter()
            .zip([self.work_per_s, self.op_ms_p50])
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }
}
