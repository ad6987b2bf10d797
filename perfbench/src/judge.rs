//! The `judge-scale` workload: the certified-Δ* judge at n = 10k on sparse
//! G(n, 8/n), called directly through `ssmdst_exact::IncrementalSolver`.
//!
//! Per graph: one cold judgment (mirror the graph, solve from a BFS
//! start), then a chain of edge removals and re-insertions, each followed
//! by a warm re-judge. Only non-bridge edges are removed, so every
//! judgment covers one connected component. Checks: every witness passes
//! `Witness::verify` against the graph as it is at that moment; every
//! interval is well-formed; a re-judge after a removal keeps its upper
//! bound at or above the cold lower bound (removing an edge cannot lower
//! Δ*); a re-judge after a re-insertion overlaps the cold interval (both
//! bound the same Δ*).

use crate::layers::{Layers, Tracer};
use crate::stats::{mix, peak_rss_mb, repeat_setup, reset_peak_rss, secs};
use crate::{Run, Tally};
use ssmdst_core::churn::SETTLE_MAX_N;
use ssmdst_exact::{CompSolution, IncrementalSolver, Solver};
use ssmdst_graph::generators::random::gnp_connected_sparse;
use ssmdst_graph::graph::graph_from_edges;
use ssmdst_graph::{biconnectivity, Graph, NodeId};
use std::time::Instant;

/// Mean degree of the G(n, p) graphs: `p = AVG_DEG / n`.
const AVG_DEG: f64 = 8.0;

/// Settings of one `judge-scale` run.
#[derive(Debug, Clone, Copy)]
pub struct JudgeParams {
    /// Nodes per graph.
    pub n: usize,
    /// Graphs generated in set-up (and cycled through).
    pub graphs: usize,
    /// Remove/re-insert pairs per cold judgment.
    pub pairs: usize,
}

impl JudgeParams {
    /// The workload as benchmarked.
    pub fn standard() -> Self {
        JudgeParams {
            n: 10_000,
            graphs: 3,
            pairs: 64,
        }
    }
}

/// The judge's solver, configured as `ssmdst_core::churn::DeltaJudge`
/// configures it under the engine's default budget.
pub fn solver() -> Solver {
    Solver::builder()
        .settle_budget(500_000)
        .settle_max_n(SETTLE_MAX_N)
        .build()
}

/// One set-up instance: the graph and its removable (non-bridge) edges.
struct Instance {
    /// The graph.
    pub graph: Graph,
    /// Edges whose removal keeps the graph connected.
    pub removable: Vec<(NodeId, NodeId)>,
}

/// Generate graph `i` of `seed`.
fn graph(p: &JudgeParams, seed: u64, i: usize) -> Graph {
    gnp_connected_sparse(p.n, AVG_DEG / p.n as f64, mix(seed, i as u64))
}

/// Generate instance `i` of `seed`.
fn instance(p: &JudgeParams, seed: u64, i: usize) -> Instance {
    let graph = graph(p, seed, i);
    let bridges = biconnectivity(&graph).bridges;
    let removable = graph
        .edges()
        .iter()
        .copied()
        .filter(|e| bridges.binary_search(e).is_err())
        .collect();
    Instance { graph, removable }
}

/// A judgment's certified interval.
type Interval = (u32, u32);

/// How a judgment must relate to the cold interval of its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The cold judgment itself.
    Cold,
    /// After removing an edge: `upper ≥ cold lower`.
    Removed(Interval),
    /// After re-inserting it: overlaps the cold interval.
    Restored(Interval),
}

/// Check one judgment of a connected graph `g`; returns its interval when
/// every check passes.
pub fn check(sols: &[CompSolution], g: &Graph, expect: Expect) -> Option<Interval> {
    let [sol] = sols else { return None };
    let (lo, up) = (sol.lower, sol.upper);
    let sound = sol.members.len() == g.n()
        && lo <= up
        && sol.witness_original().verify(g)
        && match expect {
            Expect::Cold => true,
            Expect::Removed((cold_lo, _)) => up >= cold_lo,
            Expect::Restored((cold_lo, cold_up)) => lo.max(cold_lo) <= up.min(cold_up),
        };
    sound.then_some((lo, up))
}

/// What a chain over the set-up graphs did.
#[derive(Debug, Default)]
struct Chain {
    tally: Tally,
    /// Judgments and their total time (the timed region).
    judgments: u64,
    judge_s: f64,
    cold_s: Vec<f64>,
    rejudge_ms: Vec<f64>,
    /// Graph visits made.
    visits: usize,
}

/// Optional tracing sinks of a chain.
struct Sinks<'a> {
    tracer: Option<&'a mut Tracer>,
    layers: Option<&'a mut Layers>,
}

impl Sinks<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }
}

impl Chain {
    /// One judgment of `inc`, checked against `g`.
    fn judge(
        &mut self,
        inc: &mut IncrementalSolver,
        sinks: &mut Sinks,
        g: &Graph,
        expect: Expect,
    ) -> Option<Interval> {
        let t = Instant::now();
        let sols = sinks.span("exact.solve", || inc.solve_all());
        let dt = secs(t);
        self.judgments += 1;
        self.judge_s += dt;
        match expect {
            Expect::Cold => self.cold_s.push(dt),
            _ => self.rejudge_ms.push(dt * 1e3),
        }
        if let Some(l) = sinks.layers.as_deref_mut() {
            let settled = sols.iter().filter(|s| s.settled).count();
            l.add("exact.settled", settled as f64);
        }
        let verdict = sinks.span("exact.verify", || check(&sols, g, expect));
        self.tally.op(true, verdict.is_some());
        verdict
    }

    /// Mirror one edge change, timed as judging work.
    fn churn(&mut self, sinks: &mut Sinks, f: impl FnOnce() -> bool) {
        let t = Instant::now();
        sinks.span("judge.observe_churn", f);
        self.judge_s += secs(t);
    }
}

/// Judge the set-up graphs in turn, `visits` whole visits (cold judgment
/// plus its churn chain). Traced: `judge.new` (mirroring the graph),
/// `exact.solve`, `judge.observe_churn` (mirroring an edge change) and
/// `exact.verify` spans, and the engine's work counters.
fn chain(p: &JudgeParams, insts: &[Instance], seed: u64, visits: usize, mut sinks: Sinks) -> Chain {
    let mut c = Chain::default();
    for visit in 0..visits {
        let inst = &insts[visit % insts.len()];
        let g = &inst.graph;
        c.visits += 1;
        let t = Instant::now();
        let mut inc = sinks.span("judge.new", || IncrementalSolver::from_graph(g, solver()));
        // Mirroring the graph is part of the cold judgment's cost.
        let mirror_s = secs(t);
        c.judge_s += mirror_s;
        let cold = c.judge(&mut inc, &mut sinks, g, Expect::Cold);
        if let Some(last) = c.cold_s.last_mut() {
            *last += mirror_s;
        }
        if let Some(cold) = cold {
            for j in 0..p.pairs {
                let pick = mix(seed, ((visit as u64) << 32) | j as u64);
                let (u, v) = inst.removable[(pick % inst.removable.len() as u64) as usize];
                c.churn(&mut sinks, || inc.remove_edge(u, v));
                let without: Vec<(NodeId, NodeId)> =
                    g.edges().iter().copied().filter(|&e| e != (u, v)).collect();
                let g_minus = graph_from_edges(g.n(), &without);
                c.judge(&mut inc, &mut sinks, &g_minus, Expect::Removed(cold));
                c.churn(&mut sinks, || inc.insert_edge(u, v));
                c.judge(&mut inc, &mut sinks, g, Expect::Restored(cold));
            }
        }
        if let Some(l) = sinks.layers.as_deref_mut() {
            let s = inc.stats();
            l.add("exact.pivots", s.pivots as f64);
            l.add("exact.cold_starts", s.cold_starts as f64);
            l.add("exact.warm_starts", s.warm_starts as f64);
            l.add("exact.cache_hits", s.cache_hits as f64);
        }
    }
    c
}

/// Run `judge-scale` for `visits` graph visits (at least 1). Ops are
/// judgments (cold and warm); the work rate is judgments per second of
/// judging time, op latency the re-judge time.
pub fn run(p: &JudgeParams, seed: u64, visits: usize, trace: bool) -> Run {
    let mut run = Run {
        workers: 1,
        ..Run::default()
    };
    let setup = || {
        (0..p.graphs.max(1))
            .map(|i| instance(p, seed, i))
            .collect::<Vec<_>>()
    };
    let (setup_s, insts) = repeat_setup(setup);
    run.setup_s = setup_s;
    reset_peak_rss();
    let t0 = Instant::now();
    let untraced = Sinks {
        tracer: None,
        layers: None,
    };
    let c = chain(p, &insts, seed, visits.max(1), untraced);
    let loop_s = secs(t0);
    run.peak_rss_mb = peak_rss_mb();
    run.setup_s.extend(repeat_setup(setup).0);
    run.wall_s = c.judge_s;
    run.work_per_s = c.judgments as f64 / c.judge_s;
    run.latencies(&c.rejudge_ms);
    let mut tally = c.tally;
    run.notes.push(format!(
        "judge: n={} m={} cold solves {:?} s, {} re-judges, {} graph visits",
        p.n,
        insts[0].graph.m(),
        c.cold_s,
        c.rejudge_ms.len(),
        c.visits
    ));

    if trace {
        let mut layers = Layers::default();
        let mut tracer = Tracer::default();
        for i in 0..insts.len() {
            let g = tracer.time("graph.build", || graph(p, seed, i));
            layers.add("graph.edges", g.m() as f64);
        }
        let t = Instant::now();
        let again = chain(
            p,
            &insts,
            seed,
            c.visits,
            Sinks {
                tracer: Some(&mut tracer),
                layers: Some(&mut layers),
            },
        );
        let traced = secs(t);
        tally.attempted += again.tally.attempted;
        tally.failed += again.tally.failed;
        tally.incorrect += again.tally.incorrect;
        layers.add_spans(&tracer);
        layers.set("trace.untraced_s", loop_s);
        layers.set("trace.traced_s", traced);
        layers.set("trace.overhead_s", traced - loop_s);
        run.layers = Some(layers);
        run.tracer = Some(tracer);
    }
    run.tally = tally;
    run
}
