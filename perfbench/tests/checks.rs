//! The benchmark's own checks, at toy sizes: every correctness check
//! fires, a failing scenario counts as failed, and the reported metric
//! names match `BENCHMARK.json`.

use ssmdst_exact::{IncrementalSolver, Witness};
use ssmdst_graph::generators::random::gnp_connected_sparse;
use ssmdst_perfbench::judge::{self, Expect, JudgeParams};
use ssmdst_perfbench::layers::PER_LAYER;
use ssmdst_perfbench::replay::{self, DigestOf, EngineParams};
use ssmdst_perfbench::{END_TO_END, WORKLOADS};

/// The replay set at n = 16, one pass, checked against `reference`: every
/// scenario when `recheck_all`, else the shortest.
fn toy_replay(reference: DigestOf, recheck_all: bool) -> EngineParams {
    EngineParams {
        texts: Box::new(|pass| replay::replay_texts(pass, 16)),
        passes: 1,
        reference,
        recheck_all,
        storm_seed: Some(1),
        workers: 1,
    }
}

/// The digest of a fresh engine run of `s`.
fn engine_digest() -> DigestOf {
    Box::new(|s| ssmdst_scenario::engine::run_any(s).digest)
}

#[test]
fn traced_replay_reproduces_the_engine_digests() {
    let run = replay::run(&toy_replay(engine_digest(), false), true);
    assert_eq!(run.tally.incorrect, 0, "notes: {:?}", run.notes);
    assert_eq!(run.tally.failed, 0, "notes: {:?}", run.notes);
    assert_eq!(
        run.tally.attempted, 9,
        "one pass of 4, the shortest re-run, then the re-drive"
    );
    let layers = run.layers.expect("traced run reports layers");
    for name in [
        "sim.step_s",
        "engine.project_s",
        "judge.check_s",
        "graph.build_s",
        "fuzz.mutate_s",
        "fuzz.coverage_s",
        "fuzz.admit_frac",
    ] {
        assert!(layers.get(name) > 0.0, "{name} was not measured");
    }
    assert!(layers.get("sim.rounds") > 0.0 && layers.get("core.msgs.InfoMsg") > 0.0);
    let frac = layers.get("engine.confirm_rounds_frac");
    assert!(frac > 0.0 && frac < 1.0, "confirm fraction {frac}");
}

#[test]
fn a_tampered_digest_counts_as_failed() {
    let run = replay::run(&toy_replay(Box::new(|_| 0xdead), true), false);
    assert_eq!(
        run.tally.attempted, 8,
        "4 scenarios, then 4 reference checks"
    );
    assert_eq!(
        run.tally.incorrect, 4,
        "every check against the tampered digest"
    );
    assert!(run.tally.failed >= 4);
}

#[test]
fn an_unconverged_scenario_counts_as_failed_but_not_incorrect() {
    let p = EngineParams {
        texts: Box::new(|pass| {
            replay::replay_texts(pass, 16)
                .into_iter()
                .map(|t| t.replace("max-rounds=20000", "max-rounds=3"))
                .collect()
        }),
        ..toy_replay(engine_digest(), false)
    };
    let run = replay::run(&p, false);
    assert_eq!(run.tally.attempted, 5, "notes: {:?}", run.notes);
    assert_eq!(run.tally.failed, 4, "no scenario converges in 3 rounds");
    assert_eq!(
        run.tally.incorrect, 0,
        "a protocol failure is not a bad check"
    );
}

#[test]
fn flood_scale_matches_the_reference_backend() {
    let run = replay::flood(3, 300, 1, false);
    assert_eq!(
        run.tally.attempted, 4,
        "three passes, then the reference check"
    );
    assert_eq!(run.tally.failed, 0, "notes: {:?}", run.notes);
    assert_eq!(run.workers, replay::FLOOD_SHARDS);
}

#[test]
fn judge_checks_accept_sound_judgments_and_catch_corrupted_ones() {
    let g = gnp_connected_sparse(120, 8.0 / 120.0, 5);
    let mut inc = IncrementalSolver::from_graph(&g, judge::solver());
    let sols = inc.solve_all();
    let cold = judge::check(&sols, &g, Expect::Cold).expect("a sound cold judgment");
    assert_eq!(judge::check(&sols, &g, Expect::Restored(cold)), Some(cold));

    let mut bad = sols.clone();
    bad[0].witness = Witness::removal_set(bad[0].witness.set().to_vec(), cold.0 + 5);
    assert_eq!(
        judge::check(&bad, &g, Expect::Cold),
        None,
        "corrupted witness"
    );
    let disjoint = (cold.1 + 1, cold.1 + 2);
    assert_eq!(judge::check(&sols, &g, Expect::Restored(disjoint)), None);
    assert_eq!(judge::check(&sols, &g, Expect::Removed(disjoint)), None);
}

#[test]
fn judge_scale_runs_clean_at_toy_size() {
    let p = JudgeParams {
        n: 150,
        graphs: 2,
        pairs: 4,
    };
    let run = judge::run(&p, 9, 1, true);
    assert_eq!(
        run.tally.attempted,
        2 * (1 + 2 * 4),
        "one visit, traced twice"
    );
    assert_eq!(run.tally.failed, 0, "notes: {:?}", run.notes);
    let layers = run.layers.expect("traced");
    assert_eq!(layers.get("exact.cold_starts"), 1.0);
    assert_eq!(layers.get("exact.warm_starts"), 8.0);
    assert!(layers.get("exact.verify_s") > 0.0);
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "no extra metrics"
    );
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}
