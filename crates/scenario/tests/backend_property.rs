//! Property test (satellite of the multi-backend round loop): **every**
//! execution backend is bit-exact against the reference loop on **any**
//! scenario the storm can reach.
//!
//! The backend contract is stronger than "same final answer": a backend
//! must request scheduler keys in the canonical order and execute the
//! identical event sequence, so the full [`RunTrace`] — every per-round
//! `ScheduleDigest`, metrics row and judged phase — renders to the same
//! bytes, and the [`ScenarioOutcome`] is field-identical. Here we drive
//! proptest over corpus seeds *and* storm-style mutation chains (the same
//! operator set `ssmdst storm` uses), run each scenario under every
//! backend, and on any divergence report the first divergent trace
//! record plus a delta-debugged minimal `.scn` reproducer.
//!
//! [`RunTrace`]: ssmdst_sim::RunTrace
//! [`ScenarioOutcome`]: ssmdst_scenario::ScenarioOutcome

use proptest::prelude::*;
use ssmdst_scenario::shrink::shrink;
use ssmdst_scenario::{corpus, engine, mutate, Scenario};
use ssmdst_sim::Backend;

/// Does `scn` behave differently under `backend` than under the
/// reference loop? (The shrink predicate: cheap, outcome-only.)
fn diverges(scn: &Scenario, backend: Backend) -> bool {
    let mut reference = scn.clone();
    reference.backend = Backend::Reference;
    let mut candidate = scn.clone();
    candidate.backend = backend;
    engine::run_any(&reference) != engine::run_any(&candidate)
}

/// Run `scn` under every non-reference backend and demand field-identical
/// outcomes and byte-identical traces. On divergence, panic with the
/// first divergent trace record and a shrunk `.scn` reproducer — the
/// debugging artifacts a human needs, not just "assert failed".
fn assert_backends_conform(scn: &Scenario, ctx: &str) {
    let mut reference = scn.clone();
    reference.backend = Backend::Reference;
    let (ref_out, ref_trace) = engine::run_traced_any(&reference);
    for backend in [
        Backend::Sharded { shards: 1 },
        Backend::Sharded { shards: 3 },
    ] {
        let mut candidate = scn.clone();
        candidate.backend = backend;
        let (out, trace) = engine::run_traced_any(&candidate);
        // The backend field is fingerprint-neutral, so traces from
        // different backends of the same scenario are directly comparable.
        let trace_diff = ref_trace.first_divergence(&trace);
        if out == ref_out && trace_diff.is_none() && trace.render() == ref_trace.render() {
            continue;
        }
        let first = trace_diff.unwrap_or_else(|| "outcome diverged with identical trace".into());
        let repro = shrink(&candidate, |s| diverges(s, backend))
            .map(|(minimal, _)| minimal.canonical())
            .unwrap_or_else(|| candidate.canonical());
        panic!(
            "backend {backend} diverged from reference ({ctx})\n\
             first divergence: {first}\n\
             --- minimal .scn reproducer ---\n{repro}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any corpus seed, mutated through a short storm-style chain, runs
    /// bit-identically on every backend. Depth 0 is the seed itself, so
    /// the curated corpus is inside the sampled space.
    #[test]
    fn backends_conform_on_storm_reachable_scenarios(
        parent_idx in 0usize..corpus::corpus().len(),
        seed in 0u64..1_000_000,
        depth in 0usize..4,
    ) {
        let mut scenario = corpus::corpus()[parent_idx].clone();
        let mut ops = Vec::new();
        for step in 0..depth {
            let (kind, child) = mutate(&scenario, seed.wrapping_add(step as u64));
            ops.push(kind.label());
            scenario = child;
        }
        let ctx = format!(
            "parent={} seed={} chain=[{}]",
            corpus::corpus()[parent_idx].name,
            seed,
            ops.join(" -> ")
        );
        assert_backends_conform(&scenario, &ctx);
    }
}

/// Non-vacuous floor under the property test: every committed corpus
/// scenario conforms on every backend, deterministically, every run.
#[test]
fn every_corpus_scenario_conforms_on_every_backend() {
    for scenario in corpus::corpus() {
        assert_backends_conform(&scenario, &format!("corpus seed {}", scenario.name));
    }
}
