//! Property-based differential for the exact-Δ* engine (`ssmdst::exact`):
//! the certified interval agrees with the independent branch-and-bound
//! oracle and brackets the Fürer–Raghavachari baseline on random and
//! structured small-n families (the 256-case sweep), and the incremental
//! re-solver is outcome-identical to a from-scratch solve after every
//! prefix of a random churn chain. A pinned digest holds every field of
//! every component solution over one fixed churn chain at n = 2000.

use proptest::prelude::*;
use ssmdst::exact::{IncrementalSolver, Solver};
use ssmdst::graph::generators::random::gnp_connected;
use ssmdst::graph::generators::structured;
use ssmdst::graph::{exact_mdst, Graph, SolveBudget};

/// A small instance from a mix of families: connected G(n, p) most of the
/// time, plus the structured shapes whose optima are known stress cases
/// (cycles: Δ* = 2; star-rings: hub vs ring tension; complete bipartite:
/// every improvement is endpoint-blocked).
fn small_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        5 => (4usize..=12, 0.15f64..0.8, 0u64..1000)
            .prop_map(|(n, p, seed)| gnp_connected(n, p, seed)),
        1 => (4usize..=12).prop_map(|n| structured::cycle(n).expect("n >= 3")),
        1 => (5usize..=12).prop_map(|n| structured::star_with_ring(n).expect("n >= 4")),
        1 => (2usize..=4, 2usize..=5)
            .prop_map(|(a, b)| structured::complete_bipartite(a, b).expect("a, b >= 1")),
    ]
}

fn solver() -> Solver {
    Solver::builder().settle_max_n(64).build()
}

/// Rebuild the incremental solver's current topology into a fresh
/// instance — the from-scratch reference the warm path must match.
fn from_scratch(inc: &IncrementalSolver) -> IncrementalSolver {
    let mut fresh = IncrementalSolver::new(inc.n(), solver());
    for v in 0..inc.n() as u32 {
        if !inc.is_alive(v) {
            fresh.crash(v);
        }
    }
    for u in 0..inc.n() as u32 {
        for v in inc.neighbors(u).collect::<Vec<_>>() {
            if u < v {
                fresh.insert_edge(u, v);
            }
        }
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The differential sweep: on every instance the engine settles, its
    /// Δ* equals the branch-and-bound oracle's, its witness re-verifies
    /// independently against the raw graph, and the FR baseline lands in
    /// `[Δ*, Δ* + 1]` (Fürer–Raghavachari's guarantee, checked against
    /// *our* Δ*).
    #[test]
    fn engine_matches_branch_and_bound_and_brackets_fr(g in small_graph()) {
        let sol = solver().solve(&g);
        prop_assert!(sol.exact(), "small instances must settle");
        let oracle = exact_mdst(&g, SolveBudget::default())
            .delta_star()
            .expect("small instances are solvable");
        prop_assert_eq!(sol.lower, oracle, "engine vs branch-and-bound");
        prop_assert!(
            sol.witness.certifies(&g) + 1 >= sol.lower,
            "witness certifies {} but interval claims lower {}",
            sol.witness.certifies(&g),
            sol.lower
        );
        let t0 = ssmdst::baselines::bfs_spanning_tree(&g, 0).expect("connected");
        let (fr, _) = ssmdst::baselines::fr_mdst(&g, t0);
        let deg = fr.max_degree();
        prop_assert!(oracle <= deg && deg <= oracle + 1, "FR degree {deg} vs Δ* {oracle}");
    }

    /// The incremental contract: after every prefix of a random churn
    /// chain (edge remove/insert, crash/rejoin), the warm re-solve's
    /// per-component outcome — membership and certified interval — is
    /// identical to a from-scratch solve of the same topology.
    #[test]
    fn incremental_matches_from_scratch_across_churn_chains(
        g in small_graph(),
        ops in proptest::collection::vec((0u8..4, 0usize..1000, 0usize..1000), 1..10),
    ) {
        let mut inc = IncrementalSolver::from_graph(&g, solver());
        inc.solve_all();
        for (op, a, b) in ops {
            let n = inc.n() as u32;
            let alive: Vec<u32> = (0..n).filter(|&v| inc.is_alive(v)).collect();
            match op {
                0 => {
                    // Remove a present edge (may split the component).
                    let edges: Vec<(u32, u32)> = alive
                        .iter()
                        .flat_map(|&u| {
                            inc.neighbors(u).filter(move |&v| u < v).map(move |v| (u, v))
                        })
                        .collect();
                    if let Some(&(u, v)) = edges.get(a % edges.len().max(1)) {
                        inc.remove_edge(u, v);
                    }
                }
                1 => {
                    // Insert an edge between two live vertices.
                    let u = alive[a % alive.len()];
                    let v = alive[b % alive.len()];
                    if u != v {
                        inc.insert_edge(u.min(v), u.max(v));
                    }
                }
                2 => {
                    // Crash a live vertex, keeping at least one alive.
                    if alive.len() > 1 {
                        inc.crash(alive[a % alive.len()]);
                    }
                }
                _ => {
                    // Rejoin a dead vertex to a nonempty set of live ones.
                    let dead: Vec<u32> = (0..n).filter(|&v| !inc.is_alive(v)).collect();
                    if let (Some(&v), false) = (dead.get(a % dead.len().max(1)), alive.is_empty()) {
                        let mut nbrs: Vec<u32> =
                            (0..=b % alive.len()).map(|i| alive[i]).collect();
                        nbrs.dedup();
                        inc.rejoin(v, &nbrs);
                    }
                }
            }
            let warm = inc.solve_all();
            let cold = from_scratch(&inc).solve_all();
            prop_assert_eq!(warm.len(), cold.len(), "component count diverged");
            for (w, c) in warm.iter().zip(&cold) {
                prop_assert_eq!(&w.members, &c.members, "membership diverged");
                prop_assert_eq!(w.lower, c.lower, "lower bound diverged");
                prop_assert_eq!(w.upper, c.upper, "upper bound diverged");
                prop_assert_eq!(w.exact(), c.exact(), "settledness diverged");
            }
        }
    }
}

/// FNV-1a fold of `words` into `h`.
fn fnv(mut h: u64, words: &[u32]) -> u64 {
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fold every field of every component solution into `h`.
fn fold(h: u64, sols: &[ssmdst::exact::CompSolution]) -> u64 {
    let mut h = fnv(h, &[sols.len() as u32]);
    for s in sols {
        h = fnv(h, &[s.members.len() as u32]);
        h = fnv(h, &s.members);
        h = fnv(h, &[s.lower, s.upper, s.root, u32::from(s.settled)]);
        h = fnv(h, &s.tree);
        h = fnv(h, &[s.witness.set().len() as u32, s.witness.claimed()]);
        h = fnv(h, s.witness.set());
    }
    h
}

/// Pinned outcome digest: every `CompSolution` field over a fixed churn
/// chain on G(2000, 8/n) — cold solve, non-bridge remove/insert pairs, a
/// bridge removal that splits the component, a crash and a rejoin. The
/// constant was recorded before the incremental mirror went flat; any
/// representation change of the engine must keep it.
#[test]
fn pinned_outcome_digest_over_a_churn_chain() {
    use ssmdst::graph::biconnectivity;
    use ssmdst::graph::generators::random::gnp_connected_sparse;

    let n = 2000;
    let g = gnp_connected_sparse(n, 8.0 / n as f64, 20_260_417);
    let bridges = biconnectivity(&g).bridges;
    assert!(!bridges.is_empty(), "the chain needs a bridge to cut");
    let non_bridges: Vec<(u32, u32)> = g
        .edges()
        .iter()
        .copied()
        .filter(|e| bridges.binary_search(e).is_err())
        .collect();
    let solver = Solver::builder()
        .settle_budget(500_000)
        .settle_max_n(256)
        .build();
    let mut inc = IncrementalSolver::from_graph(&g, solver);
    let mut h = fold(0xcbf2_9ce4_8422_2325, &inc.solve_all());
    for k in 0..4 {
        let (u, v) = non_bridges[(k * 997) % non_bridges.len()];
        assert!(inc.remove_edge(u, v));
        h = fold(h, &inc.solve_all());
        assert!(inc.insert_edge(u, v));
        h = fold(h, &inc.solve_all());
    }
    let (bu, bv) = bridges[bridges.len() / 2];
    assert!(inc.remove_edge(bu, bv));
    let split = inc.solve_all();
    assert_eq!(split.len(), 2, "a bridge removal splits the component");
    h = fold(h, &split);
    let hub = (0..n as u32).max_by_key(|&v| g.degree(v)).expect("n > 0");
    let nbrs: Vec<u32> = inc.neighbors(hub).collect();
    assert!(inc.crash(hub));
    h = fold(h, &inc.solve_all());
    assert!(inc.rejoin(hub, &nbrs));
    h = fold(h, &inc.solve_all());
    assert_eq!(
        h, 3_278_606_706_650_506_064,
        "pinned outcome digest changed"
    );
    let stats = inc.stats();
    let pinned = ssmdst::exact::Stats {
        cache_hits: 2,
        warm_starts: 12,
        cold_starts: 1,
        pivots: 1611,
    };
    assert_eq!(stats, pinned, "the chain's work counters changed");
}
