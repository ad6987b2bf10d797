//! Per-layer metrics of the traced run: the registry of every metric
//! name with its unit, and the span recorder that measures them from the
//! benchmark's own calls into each layer.
//!
//! Spans hold a name, start, end, parent and op id; they stay in memory
//! and are written out once the run ends. A layer's self time is its
//! spans' duration minus what their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// MDST message kinds (`ssmdst_core`) and flood/echo kinds
/// (`ssmdst_sim::protocols`), in the order they are reported.
pub const MSG_KINDS: [&str; 9] = [
    "InfoMsg",
    "Search",
    "Remove",
    "Flip",
    "DistChain",
    "DistFlood",
    "Deblock",
    "Flood",
    "Echo",
];

/// Every per-layer metric with its unit. Each traced run reports all of
/// them; a layer the workload does not enter reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.step_s", "s"),
    ("sim.rounds", "count"),
    ("sim.events", "count"),
    ("sim.msgs", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.peak_in_flight", "count"),
    ("core.msgs.InfoMsg", "count"),
    ("core.msgs.Search", "count"),
    ("core.msgs.Remove", "count"),
    ("core.msgs.Flip", "count"),
    ("core.msgs.DistChain", "count"),
    ("core.msgs.DistFlood", "count"),
    ("core.msgs.Deblock", "count"),
    ("core.msgs.Flood", "count"),
    ("core.msgs.Echo", "count"),
    ("core.max_msg_bits", "bits"),
    ("engine.project_s", "s"),
    ("engine.fold_s", "s"),
    ("engine.gate_s", "s"),
    ("engine.confirm_rounds_frac", "frac"),
    ("judge.new_s", "s"),
    ("judge.check_s", "s"),
    ("judge.observe_churn_s", "s"),
    ("exact.solve_s", "s"),
    ("exact.verify_s", "s"),
    ("exact.pivots", "count"),
    ("exact.cold_starts", "count"),
    ("exact.warm_starts", "count"),
    ("exact.cache_hits", "count"),
    ("exact.settled", "count"),
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("fuzz.mutate_s", "s"),
    ("fuzz.coverage_s", "s"),
    ("fuzz.admit_frac", "frac"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The per-layer values of one traced run, every registered name present.
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Add `v` to metric `name`.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn add(&mut self, name: &str, v: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unregistered per-layer metric {name}")) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.add(name, v - self.get(name));
    }

    /// Raise metric `name` to at least `v`.
    pub fn max(&mut self, name: &str, v: f64) {
        if v > self.get(name) {
            self.set(name, v);
        }
    }

    /// Current value of metric `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric with its unit, in registry order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
    }

    /// Fold a tracer's span self times into the `_s` metric of the same
    /// name, and count its spans.
    pub fn add_spans(&mut self, tracer: &Tracer) {
        for (name, self_s) in tracer.self_seconds() {
            // `op.*` spans delimit whole ops; their self time is the
            // benchmark's own glue, not a layer.
            if name.starts_with("op.") {
                continue;
            }
            self.add(&format!("{name}_s"), self_s);
        }
        self.add("trace.spans", tracer.spans.len() as f64);
    }
}

/// No parent: a top-level span of its op.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Metric stem the span feeds (`engine.project` feeds
    /// `engine.project_s`).
    pub name: &'static str,
    /// The op (scenario run, exec, judgment) the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The tracer's time origin (for spans measured on other threads).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let i = self.push(name, start_ns, start_ns);
        self.open.push(i);
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Record an already measured interval, nested in the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns) as f64 - c as f64;
            *out.entry(s.name).or_default() += own / 1e9;
        }
        out
    }

    /// Write every span as a tab-separated line
    /// `id parent op name start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                write!(w, "{i}\t-\t")?;
            } else {
                write!(w, "{i}\t{}\t", s.parent)?;
            }
            writeln!(w, "{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        t.record("op.scenario", 0, 100);
        t.enter("sim.step");
        let i = t.spans.len() - 1;
        t.record("engine.project", 10, 30);
        t.record("engine.fold", 30, 35);
        t.exit();
        t.spans[i].start_ns = 0;
        t.spans[i].end_ns = 50;
        let s = t.self_seconds();
        assert!((s["sim.step"] - 25e-9).abs() < 1e-15);
        assert!((s["engine.project"] - 20e-9).abs() < 1e-15);
        assert!((s["op.scenario"] - 100e-9).abs() < 1e-15);
        let mut l = Layers::default();
        l.add_spans(&t);
        assert_eq!(l.get("trace.spans"), 4.0);
        assert!(l.get("sim.step_s") > 0.0);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_metric_names_are_refused() {
        Layers::default().add("sim.nope", 1.0);
    }
}
