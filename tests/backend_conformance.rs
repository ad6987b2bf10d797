//! The multi-backend conformance ladder: every execution backend earns
//! its place by being **bit-exact** against the reference round loop on
//! three rungs of increasing breadth:
//!
//! 1. **Golden traces** — each committed `tests/golden/NAME.trace` must be
//!    reproduced byte-for-byte by every backend. The `backend` field is
//!    fingerprint-neutral (a mechanism, not replay identity), so the
//!    reference-recorded goldens are directly binding on every backend.
//! 2. **Full corpus** — every committed `.scn` scenario yields a
//!    field-identical [`ScenarioOutcome`] (including the chained
//!    `ScheduleDigest`) on every backend.
//! 3. **Storm-mutant sweep** — a fixed-seed batch of storm-style mutants
//!    (default 64, `BACKEND_CONFORMANCE_EXECS` overrides; CI pins 256 in
//!    release) re-checks the digest across the reachable scenario space.
//!
//! A backend that diverges anywhere on the ladder does not ship. The
//! sibling property test (`crates/scenario/tests/backend_property.rs`)
//! adds trace-level divergence location and auto-shrunk reproducers.
//!
//! [`ScenarioOutcome`]: ssmdst::scenario::ScenarioOutcome

use ssmdst::prelude::*;
use ssmdst::scenario::{corpus, engine, mutate};
use ssmdst::sim::RunTrace;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Same pinned set as `tests/golden_traces.rs`.
fn golden_names() -> &'static [&'static str] {
    &[
        "converge-gnp-sync",
        "converge-scalefree-adversarial",
        "corrupt-start-total",
        "corrupt-start-partial-adversarial",
        "edge-churn-async",
        "partition-heal-cycle",
    ]
}

fn non_reference() -> impl Iterator<Item = Backend> {
    // `Backend::ALL`'s sharded entry uses 3 shards — a count that does not
    // divide typical node counts, so ragged boundaries are always hit.
    // Per-shard-count invariance gets its own rung below.
    Backend::ALL
        .into_iter()
        .filter(|&b| b != Backend::Reference)
}

/// Rung 1: every backend reproduces every committed golden trace
/// byte-for-byte.
#[test]
fn golden_traces_replay_bit_for_bit_on_every_backend() {
    let dir = golden_dir();
    for name in golden_names() {
        let trace_path = dir.join(format!("{name}.trace"));
        let golden_text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("{}: {e}", trace_path.display()));
        let golden = RunTrace::parse(&golden_text).expect("committed .trace parses");
        for backend in non_reference() {
            let mut scenario = corpus::by_name(name).expect("golden name is in the corpus");
            scenario.backend = backend;
            let (_, replayed) = engine::run_traced(&scenario);
            if let Some(divergence) = golden.first_divergence(&replayed) {
                panic!("golden trace {name} DIVERGED on backend {backend}: {divergence}");
            }
            assert_eq!(
                replayed.render(),
                golden_text,
                "{name} on {backend}: rendered trace must equal the committed bytes"
            );
        }
    }
}

/// Rung 2: the full committed corpus, field-identical outcomes (digest
/// included) on every backend.
#[test]
fn full_corpus_outcomes_are_identical_on_every_backend() {
    for scenario in corpus::corpus() {
        let reference = engine::run_any(&scenario);
        for backend in non_reference() {
            let mut candidate = scenario.clone();
            candidate.backend = backend;
            let out = engine::run_any(&candidate);
            assert_eq!(
                out.digest, reference.digest,
                "{}: ScheduleDigest diverged on {backend}",
                scenario.name
            );
            assert_eq!(
                out, reference,
                "{}: outcome diverged on {backend}",
                scenario.name
            );
        }
    }
}

/// Shard-count invariance rung: the sharded backend's digest must not
/// depend on the shard count — 1 (inline pipeline), 2, 3 (ragged) and 8
/// (more shards than some scenarios have obligations) all reproduce every
/// committed golden trace byte-for-byte. Together with rung 1 this pins
/// `sharded:K` ≡ `reference` for the whole sweep of K.
#[test]
fn golden_traces_are_shard_count_invariant() {
    let dir = golden_dir();
    for name in golden_names() {
        let trace_path = dir.join(format!("{name}.trace"));
        let golden_text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("{}: {e}", trace_path.display()));
        let golden = RunTrace::parse(&golden_text).expect("committed .trace parses");
        for shards in [1usize, 2, 3, 8] {
            let mut scenario = corpus::by_name(name).expect("golden name is in the corpus");
            scenario.backend = Backend::Sharded { shards };
            let (_, replayed) = engine::run_traced(&scenario);
            if let Some(divergence) = golden.first_divergence(&replayed) {
                panic!("golden trace {name} DIVERGED on sharded:{shards}: {divergence}");
            }
            assert_eq!(
                replayed.render(),
                golden_text,
                "{name} on sharded:{shards}: rendered trace must equal the committed bytes"
            );
        }
    }
}

/// Rung 3: a fixed-seed storm-mutant sweep. Mutants are derived exactly
/// like the storm derives them (corpus parent + seeded operator chains),
/// so the sweep walks the same reachable scenario space the fuzzer does —
/// deterministically, with no admission filtering.
#[test]
fn storm_mutant_sweep_digests_are_identical_on_every_backend() {
    let execs: u64 = std::env::var("BACKEND_CONFORMANCE_EXECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let parents = corpus::corpus();
    let mut checked = 0u64;
    for exec in 0..execs {
        let mut scenario = parents[(exec as usize) % parents.len()].clone();
        // Short chains reach deeper mutants than single steps.
        let depth = 1 + (exec % 3);
        for step in 0..depth {
            let (_, child) = mutate(&scenario, 0xBACC0_u64 ^ (exec * 31 + step));
            scenario = child;
        }
        let reference = engine::run_any(&scenario);
        for backend in non_reference() {
            let mut candidate = scenario.clone();
            candidate.backend = backend;
            let out = engine::run_any(&candidate);
            assert_eq!(
                out.digest,
                reference.digest,
                "mutant exec={exec} ({}): ScheduleDigest diverged on {backend}\n--- .scn ---\n{}",
                scenario.name,
                scenario.canonical()
            );
            assert_eq!(
                out, reference,
                "mutant exec={exec} ({}): outcome diverged on {backend}",
                scenario.name
            );
            checked += 1;
        }
    }
    assert_eq!(checked, execs * non_reference().count() as u64);
}

/// The CLI rejects a retired backend name with the listed-options error
/// (exit 2) on both the flag form and `replay` — it never silently runs
/// the reference loop under a name that no longer exists.
#[test]
fn retired_backend_names_fail_on_the_cli() {
    for args in [
        &["--backend", "soa"][..],
        &["replay", "corrupt-start-total", "--backend", "soa"][..],
        &["replay", "corrupt-start-total", "--backend", "batched"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ssmdst"))
            .args(args)
            .output()
            .expect("ssmdst runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown backend")
                && stderr.contains("reference")
                && stderr.contains("sharded"),
            "{args:?}: listed-options error expected, got {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
