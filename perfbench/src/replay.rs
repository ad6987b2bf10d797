//! The engine-driven workloads: `replay` (MDST scenarios as users replay
//! them) and `flood-scale` (flood/echo at n = 100k on the sharded
//! backend).
//!
//! Untraced, every scenario goes through the engine's generic entry point
//! [`engine::run_protocol`] (what `engine::run_traced_any` calls), with a
//! per-round hook that only reads the clock. Traced, the same scenario is
//! re-driven round by round with [`Session::step`] under [`Recorder`], a
//! copy of the engine's private recorder that makes the same
//! `fold_event` / `project` / `fold_projection` / `QuiescenceGate::observe`
//! calls with a span around each, plus spans around the judge calls. The
//! traced run's final digest must equal the engine's, which proves it
//! replayed the same execution. On `replay` the traced run also takes the
//! storm's per-exec steps on each scenario: it mutates it
//! ([`mutate`]) and folds its outcome's [`Signature`] into a
//! [`CoverageMap`].
//!
//! Every run does a fixed amount of work (a number of passes), so the
//! same seed always makes the same ops.

use crate::layers::{Layers, Tracer, MSG_KINDS};
use crate::stats::{geomean, mix, peak_rss_mb, quantile, repeat_setup, reset_peak_rss, secs};
use crate::{Run, Tally};
use ssmdst_core::churn::DeltaJudge;
use ssmdst_graph::generators::GraphFamily::{self, *};
use ssmdst_graph::Graph;
use ssmdst_scenario::engine::{self, EngineOpts};
use ssmdst_scenario::{
    mutate, scn, CoverageMap, EventAction, Flood, Mdst, Protocol, ProtocolSpec, Scenario,
    ScenarioOutcome, Signature, Timing, TopologySpec,
};
use ssmdst_sim::observer::{fold_event, Observer, Stop};
use ssmdst_sim::{quiet_window, Action, Backend, Digest, Network, QuiescenceGate, Session};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Shards of the `flood-scale` run.
pub const FLOOD_SHARDS: usize = 2;

/// Pick a seeded element of a non-empty slice.
fn pick<T: Copy>(xs: &[T], seed: u64) -> T {
    xs[(seed % xs.len() as u64) as usize]
}

/// One generated scenario's text. The topology is built first, so churn
/// events can name edges and nodes the generated graph really has.
fn scenario(
    name: &str,
    family: GraphFamily,
    n: usize,
    seed: u64,
    rest: impl FnOnce(&Graph) -> String,
) -> String {
    let g = TopologySpec::family(family, n, seed).build();
    let label = family.label();
    format!(
        "name = {name}\ntopology = family:{label} n={n} seed={seed}\n{}",
        rest(&g)
    )
}

/// The `replay` set's scenario texts for `seed`, at node count `n`: the
/// three daemons, a corrupt-at-birth start, each churn kind and a fault
/// burst. Every instance converges and passes its judgments; one that
/// does not counts as a failed op.
pub fn replay_texts(seed: u64, n: usize) -> Vec<String> {
    let s = |salt: u64| mix(seed, salt) % 100_000;
    // A 20 000-round cap per phase: ample for these instances (they settle
    // within a few thousand rounds) and it bounds what a non-converging
    // instance would cost the run.
    let stop = "stop = max-rounds=20000 quiet=auto\n";
    vec![
        // Synchronous, corrupt at birth, then one edge removed and
        // re-inserted (at 3n/4 nodes, which keeps its length near the
        // other kinds').
        scenario("gnp-sync-corrupt-edge", GnpSparse, n * 3 / 4, s(1), |g| {
            let (u, v) = pick(g.edges(), s(2));
            format!(
                "scheduler = sync\ninit = fraction=1 drop=1 seed={}\n{stop}\
                 event = stable churn -edge({u},{v})\nevent = stable churn +edge({u},{v})\n",
                s(3)
            )
        }),
        // Random asynchronous daemon, a two-edge partition, then the heal.
        scenario(
            "hamchords-async-partition",
            HamiltonianChords,
            n,
            s(4),
            |g| {
                let (a, b) = pick(g.edges(), s(5));
                let (c, d) = pick(g.edges(), s(6));
                let cut = if (a, b) == (c, d) {
                    format!("{a}-{b}")
                } else {
                    format!("{a}-{b},{c}-{d}")
                };
                format!(
                    "scheduler = async:{}\n{stop}\
                 event = stable churn partition({cut})\nevent = stable churn heal({cut})\n",
                    s(7)
                )
            },
        ),
        // Adversarial daemon, a node crash, then its rejoin (at 3n/4
        // nodes, like the first).
        scenario("gnp-adversarial-crash", GnpSparse, n * 3 / 4, s(8), |g| {
            let v = 1 + s(9) % (g.n() as u64 - 1);
            format!(
                "scheduler = adversarial:{}\n{stop}\
                 event = stable churn crash({v})\nevent = stable churn rejoin({v})\n",
                s(10)
            )
        }),
        // Synchronous, a mid-flight fault burst, then a stable-time one.
        scenario("hypercube-sync-fault", Hypercube, n, s(11), |_| {
            format!(
                "scheduler = sync\n{stop}\
                 event = round:{} fault fraction=0.5 drop=0.5 seed={}\n\
                 event = stable fault fraction=0.25 drop=1 seed={}\n",
                20 + s(12) % 40,
                s(13),
                s(14)
            )
        }),
    ]
}

/// The `flood-scale` scenario text for `seed` at node count `n`.
fn flood_text(seed: u64, n: usize) -> String {
    format!(
        "name = flood-scale\nprotocol = flood-echo\nbackend = sharded:{FLOOD_SHARDS}\n\
         topology = family:scale-free n={n} seed={}\nscheduler = sync\n\
         stop = max-rounds=2000 quiet=32\n",
        mix(seed, 1) % 100_000
    )
}

/// Parse scenario texts (the set-up both engine workloads share).
///
/// # Panics
/// Panics on a text the benchmark generated wrongly.
fn parse_all(texts: &[String]) -> Vec<Scenario> {
    texts
        .iter()
        .map(|t| scn::parse(t).unwrap_or_else(|e| panic!("benchmark scenario: {e}\n{t}")))
        .collect()
}

/// What one scenario run produced, as the checks see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunResult {
    /// Every phase converged and passed its judgment.
    pub ok: bool,
    /// Final chained replay digest.
    pub digest: u64,
    /// Messages sent.
    pub msgs: u64,
}

/// Messages per op of the engine workloads: op latency is the time to
/// simulate this many messages.
pub const CHUNK_MSGS: u64 = 1000;

/// Messages one latency sample spans at least. A sample covers many
/// rounds of a small instance, so it averages over the protocol's
/// phases, whose messages differ in cost: per-round samples are bimodal,
/// and their median jumps between the modes from one instance to the
/// next.
pub const SAMPLE_MSGS: u64 = 20_000;

/// Run one scenario through the engine, pushing onto `chunk_ms` the time
/// each run of consecutive rounds carrying at least [`SAMPLE_MSGS`]
/// messages took, per [`CHUNK_MSGS`] messages.
fn run_engine(scn: &Scenario, chunk_ms: &mut Vec<f64>) -> (RunResult, ScenarioOutcome) {
    fn go<P: Protocol>(
        p: &P,
        scn: &Scenario,
        chunk_ms: &mut Vec<f64>,
    ) -> (RunResult, ScenarioOutcome) {
        let mut start: Option<(Instant, u64)> = None;
        let (out, _, _) = engine::run_protocol(p, scn, EngineOpts::default(), |net, _| {
            let now = Instant::now();
            let sent = net.metrics.total_sent;
            match start {
                Some((t, from)) if sent - from >= SAMPLE_MSGS => {
                    let per = (now - t).as_secs_f64() * 1e3 * CHUNK_MSGS as f64;
                    chunk_ms.push(per / (sent - from) as f64);
                    start = Some((now, sent));
                }
                Some(_) => {}
                None => start = Some((now, sent)),
            }
        });
        let r = RunResult {
            ok: out.all_ok(),
            digest: out.digest,
            msgs: out.total_msgs,
        };
        (r, out)
    }
    match scn.protocol {
        ProtocolSpec::Mdst => go(&Mdst, scn, chunk_ms),
        ProtocolSpec::FloodEcho => go(&Flood, scn, chunk_ms),
    }
}

/// Work counters a protocol's judging state exposes to the trace.
trait JudgeCounters {
    /// Add the judge's counters to `layers`.
    fn report(&self, layers: &mut Layers);
}

impl JudgeCounters for DeltaJudge {
    fn report(&self, layers: &mut Layers) {
        let s = self.stats();
        layers.add("exact.pivots", s.pivots as f64);
        layers.add("exact.cold_starts", s.cold_starts as f64);
        layers.add("exact.warm_starts", s.warm_starts as f64);
        layers.add("exact.cache_hits", s.cache_hits as f64);
    }
}

impl JudgeCounters for () {
    fn report(&self, _: &mut Layers) {}
}

/// The engine's recorder, re-built from public parts with spans around
/// each engine call.
struct Recorder<P: Protocol> {
    chain: Digest,
    gate: Option<QuiescenceGate<P::Proj>>,
    until: Option<u64>,
    tracer: Tracer,
    events: u64,
    confirm_rounds: u64,
}

impl<P: Protocol> Observer<P::Node> for Recorder<P> {
    fn on_event(&mut self, key: u128, idx: u32, action: Action) {
        fold_event(&mut self.chain, key, idx, action);
        self.events += 1;
    }

    fn on_round_end(&mut self, net: &Network<P::Node>, round: u64) -> Stop {
        let proj = self.tracer.time("engine.project", || P::project(net));
        let chain = &mut self.chain;
        self.tracer
            .time("engine.fold", || P::fold_projection(&proj, chain));
        if let Some(target) = self.until {
            if round >= target {
                return Stop::Done;
            }
        } else if let Some(gate) = &mut self.gate {
            let done = self.tracer.time("engine.gate", || gate.observe(proj));
            if gate.stable_for() > 0 {
                self.confirm_rounds += 1;
            }
            if done {
                return Stop::Done;
            }
        }
        Stop::Continue
    }
}

/// Re-drive one scenario with spans; returns its result and adds its
/// per-layer counts to `layers`. Mirrors `engine::run_protocol` call for
/// call, so the digest chain comes out identical.
fn drive<P: Protocol>(
    proto: &P,
    scn: &Scenario,
    tracer: Tracer,
    layers: &mut Layers,
) -> (RunResult, Tracer)
where
    P::Judge: JudgeCounters,
{
    let mut tracer = tracer;
    let opts = EngineOpts::default();
    let g = tracer.time("graph.build", || scn.topology.build());
    layers.add("graph.edges", g.m() as f64);
    let quiet = scn.stop.quiet.unwrap_or_else(|| quiet_window(g.n()));
    let mut session = Session::from_network(proto.build(&g, &scn.config))
        .scheduler(scn.scheduler.scheduler())
        .backend(scn.backend)
        .observe(Recorder::<P> {
            chain: Digest::new(),
            gate: None,
            until: None,
            tracer,
            events: 0,
            confirm_rounds: 0,
        });
    if let Some(c) = &scn.init_corrupt {
        let victims = session.inject(c.plan());
        let chain = &mut session.observer_mut().chain;
        chain.write_str("init-fault");
        chain.write_u64(victims.len() as u64);
    }
    let mut judge = {
        let (rec, net) = session.observer_and_network();
        rec.tracer.time("judge.new", || proto.new_judge(net, &opts))
    };
    let mut ok = true;
    let mut label = "initial".to_string();
    let max_rounds = scn.stop.max_rounds;
    for ev in &scn.events {
        let until = match ev.timing {
            Timing::Stable => None,
            Timing::Round(r) => Some(r),
        };
        ok &= phase(
            proto,
            &mut session,
            &mut judge,
            max_rounds,
            quiet,
            &label,
            until,
        );
        label = ev.action.label();
        match &ev.action {
            EventAction::Fault(c) => {
                let victims = session.inject(c.plan());
                let chain = &mut session.observer_mut().chain;
                chain.write_str("fault");
                chain.write_u64(victims.len() as u64);
            }
            EventAction::Churn(c) => {
                let _ = session.churn(c);
                let (rec, net) = session.observer_and_network();
                rec.chain.write_str("churn");
                rec.chain.write_str(&label);
                rec.tracer.time("judge.observe_churn", || {
                    P::observe_churn(&mut judge, net, c)
                });
            }
        }
    }
    ok &= phase(
        proto,
        &mut session,
        &mut judge,
        max_rounds,
        quiet,
        &label,
        None,
    );

    judge.report(layers);
    let rounds = session.round();
    let metrics = &session.network().metrics;
    layers.add("sim.rounds", rounds as f64);
    layers.add("sim.msgs", metrics.total_sent as f64);
    layers.max("sim.peak_in_flight", metrics.peak_in_flight as f64);
    layers.max("core.max_msg_bits", metrics.max_message_bits() as f64);
    for (kind, stats) in metrics.kinds() {
        if let Some(k) = MSG_KINDS.iter().find(|&&k| k == kind) {
            layers.add(&format!("core.msgs.{k}"), stats.sent as f64);
        }
    }
    let msgs = metrics.total_sent;
    let (_, rec) = session.into_parts();
    layers.add("sim.events", rec.events as f64);
    // Accumulated as a round count here; `finish_layers` divides.
    layers.add("engine.confirm_rounds_frac", rec.confirm_rounds as f64);
    let result = RunResult {
        ok,
        digest: rec.chain.value(),
        msgs,
    };
    (result, rec.tracer)
}

/// One phase, exactly as the engine's `run_phase` drives it; returns
/// whether it converged and passed its judgment.
fn phase<P: Protocol>(
    proto: &P,
    session: &mut Session<P::Node, Recorder<P>>,
    judge: &mut P::Judge,
    max_rounds: u64,
    quiet: u64,
    label: &str,
    until: Option<u64>,
) -> bool {
    let start = session.round();
    session.phase(label);
    let converged = if until.is_some_and(|target| start >= target) {
        true
    } else {
        let (rec, net) = session.observer_and_network();
        let initial = rec.tracer.time("engine.project", || P::project(net));
        rec.until = until;
        rec.gate = match until {
            None => Some(QuiescenceGate::primed(quiet, initial)),
            Some(_) => None,
        };
        let mut converged = false;
        while session.round() - start < max_rounds {
            session.observer_mut().tracer.enter("sim.step");
            let stop = session.step();
            session.observer_mut().tracer.exit();
            if stop.is_done() {
                converged = true;
                break;
            }
        }
        converged
    };
    let judged_ok = until.is_some() || {
        let opts = EngineOpts::default();
        let (rec, net) = session.observer_and_network();
        rec.tracer
            .time("judge.check", || proto.judge(judge, net, &opts))
            .ok
    };
    converged && judged_ok
}

/// Re-drive `scn` traced (op id `op`), dispatching on its protocol.
fn run_traced(scn: &Scenario, op: u32, tracer: Tracer, layers: &mut Layers) -> (RunResult, Tracer) {
    let mut tracer = tracer;
    tracer.set_op(op);
    tracer.enter("op.scenario");
    let (r, mut tracer) = match scn.protocol {
        ProtocolSpec::Mdst => drive(&Mdst, scn, tracer, layers),
        ProtocolSpec::FloodEcho => drive(&Flood, scn, tracer, layers),
    };
    tracer.exit();
    (r, tracer)
}

/// Ratios that need the whole run's totals.
fn finish_layers(layers: &mut Layers) {
    let rounds = layers.get("sim.rounds");
    if rounds > 0.0 {
        let confirm = layers.get("engine.confirm_rounds_frac");
        layers.set("engine.confirm_rounds_frac", confirm / rounds);
    }
    let events = layers.get("sim.events");
    if events > 0.0 {
        layers.set("sim.ns_per_event", layers.get("sim.step_s") * 1e9 / events);
    }
}

/// The digest a scenario must have.
pub type DigestOf = Box<dyn Fn(&Scenario) -> u64>;

/// Settings of one engine-workload run.
pub struct EngineParams {
    /// The scenario texts of pass `p` (set-up generates and parses pass 0).
    pub texts: Box<dyn Fn(u64) -> Vec<String>>,
    /// Passes per run (at least 1). The work is fixed, so every run of a
    /// seed makes the same ops.
    pub passes: u64,
    /// The digest a scenario must have, computed after the timed region.
    pub reference: DigestOf,
    /// Check every distinct scenario of the run against `reference`, or
    /// only the one that sent the fewest messages.
    pub recheck_all: bool,
    /// When set, the traced run also takes the storm's per-exec steps on
    /// every scenario (mutation, signature, coverage), with mutation
    /// seeds drawn from this seed.
    pub storm_seed: Option<u64>,
    /// Worker threads or shards, for the record.
    pub workers: usize,
}

/// One scenario kind's measurements, pooled over its runs.
#[derive(Default)]
struct Pooled {
    runs: u32,
    msgs: f64,
    secs: f64,
    chunk_ms: Vec<f64>,
}

/// Run an engine workload: set-up, then `p.passes` passes over a scenario
/// set (pass `q` runs `texts(q)`), then the reference checks, then
/// (traced) the same scenarios again under the recorder. A scenario fails
/// when a phase does not converge or is judged outside its guarantee; it
/// is incorrect when its digest differs from an earlier run of the same
/// scenario, from the reference digest, or from its traced re-drive.
///
/// Work is messages sent; an op is simulating [`CHUNK_MSGS`] messages.
/// Both are pooled per scenario kind (name) and combined as a geometric
/// mean over kinds, so every kind weighs the same whatever its instances'
/// length or count: a seed changes the instances' lengths far more than
/// their cost per message.
pub fn run(p: &EngineParams, trace: bool) -> Run {
    let mut run = Run {
        workers: p.workers,
        ..Run::default()
    };
    let setup = || {
        let scns = parse_all(&(p.texts)(0));
        // The instances are built once outside the engine as well: their
        // generation cost is part of set-up.
        for s in &scns {
            std::hint::black_box(s.topology.build());
        }
    };
    run.setup_s = repeat_setup(setup).0;

    let mut tally = Tally::default();
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    let mut pooled: BTreeMap<String, Pooled> = BTreeMap::new();
    let mut ran: Vec<(Scenario, ScenarioOutcome)> = Vec::new();
    reset_peak_rss();
    let t0 = Instant::now();
    for pass in 0..p.passes.max(1) {
        for s in parse_all(&(p.texts)(pass)) {
            let agg = pooled.entry(s.name.clone()).or_default();
            let t = Instant::now();
            let (r, out) = run_engine(&s, &mut agg.chunk_ms);
            let dt = secs(t);
            agg.runs += 1;
            agg.msgs += r.msgs as f64;
            agg.secs += dt;
            let sound = *digests.entry(s.canonical()).or_insert(r.digest) == r.digest;
            tally.op(r.ok, sound);
            run.notes.push(format!(
                "pass {pass}: {}: {dt:.3} s, {} msgs, ok={}, digest={:016x}{}",
                s.name,
                r.msgs,
                r.ok,
                r.digest,
                if sound { "" } else { " DIGEST MISMATCH" }
            ));
            ran.push((s, out));
        }
    }
    run.wall_s = secs(t0);
    run.peak_rss_mb = peak_rss_mb();
    run.setup_s.extend(repeat_setup(setup).0);
    let each = |f: &dyn Fn(&Pooled) -> f64| geomean(&pooled.values().map(f).collect::<Vec<_>>());
    run.work_per_s = each(&|a| a.msgs / a.secs);
    run.op_ms_p50 = each(&|a| quantile(&a.chunk_ms, 0.5));
    run.op_ms_p90 = each(&|a| quantile(&a.chunk_ms, 0.9));

    let shortest = ran.iter().min_by_key(|(_, out)| out.total_msgs);
    let to_check: Vec<&Scenario> = if p.recheck_all {
        ran.iter().map(|(s, _)| s).collect()
    } else {
        shortest.map(|(s, _)| s).into_iter().collect()
    };
    let mut checked = BTreeSet::new();
    for s in to_check {
        let key = s.canonical();
        if checked.insert(key.clone()) {
            let want = (p.reference)(s);
            let sound = digests.get(&key) == Some(&want);
            tally.op(true, sound);
            run.notes.push(format!(
                "{}: reference digest {want:016x}{}",
                s.name,
                if sound { "" } else { " DIFFERS" }
            ));
        }
    }

    if trace {
        let mut layers = Layers::default();
        let mut tracer = Tracer::default();
        let mut coverage = CoverageMap::new();
        let mut admitted = 0u32;
        let t = Instant::now();
        for (op, (s, out)) in ran.iter().enumerate() {
            let (r, back) = run_traced(s, op as u32, tracer, &mut layers);
            tracer = back;
            let sound = digests.get(&s.canonical()) == Some(&r.digest);
            tally.op(r.ok, sound);
            if !sound {
                run.notes.push(format!(
                    "{}: traced digest {:016x} differs",
                    s.name, r.digest
                ));
            }
            if let Some(seed) = p.storm_seed {
                let child = tracer.time("fuzz.mutate", || mutate(s, mix(seed, op as u64)));
                std::hint::black_box(child);
                let new = tracer.time("fuzz.coverage", || coverage.observe(&Signature::of(out)));
                admitted += u32::from(new > 0);
            }
        }
        let traced = secs(t);
        layers.add_spans(&tracer);
        finish_layers(&mut layers);
        if p.storm_seed.is_some() {
            layers.set("fuzz.admit_frac", f64::from(admitted) / ran.len() as f64);
        }
        layers.set("trace.untraced_s", run.wall_s);
        layers.set("trace.traced_s", traced);
        layers.set("trace.overhead_s", traced - run.wall_s);
        run.layers = Some(layers);
        run.tracer = Some(tracer);
    }
    run.tally = tally;
    run
}

/// The digest of `s` from a fresh engine run on its own backend.
fn rerun_digest(s: &Scenario) -> u64 {
    run_engine(s, &mut Vec::new()).0.digest
}

/// The `replay` workload's settings for `seed`: every pass draws a fresh
/// set of instances; the shortest scenario of the run is re-run after the
/// timed region and must reproduce its digest.
pub fn replay_params(seed: u64, n: usize, passes: u64) -> EngineParams {
    EngineParams {
        texts: Box::new(move |pass| replay_texts(mix(seed, pass), n)),
        passes,
        reference: Box::new(rerun_digest),
        recheck_all: false,
        storm_seed: Some(seed),
        workers: 1,
    }
}

/// Run `flood-scale` for `passes` passes (at least 3): every sharded run
/// must reproduce the digest of the same scenario on the reference
/// backend, run once after the timed region.
pub fn flood(seed: u64, n: usize, passes: u64, trace: bool) -> Run {
    let text = flood_text(seed, n);
    let params = EngineParams {
        texts: Box::new(move |_| vec![text.clone()]),
        // About 40 rounds a pass: three give the 1000-message latency
        // over 100 samples, so its 90th percentile has 10 beyond it.
        passes: passes.max(3),
        reference: Box::new(|s: &Scenario| {
            let mut on_reference = s.clone();
            on_reference.backend = Backend::Reference;
            rerun_digest(&on_reference)
        }),
        recheck_all: true,
        storm_seed: None,
        workers: FLOOD_SHARDS,
    };
    self::run(&params, trace)
}
