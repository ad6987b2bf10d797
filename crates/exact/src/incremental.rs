//! Incremental re-solve: keep a basis (spanning forest) alive across
//! churn and warm-start the solver from it instead of solving from
//! scratch after every event.
//!
//! The [`IncrementalSolver`] mirrors the live topology as flat adjacency
//! rows (one strictly ascending `Vec` per vertex) plus a global parent
//! forest — the last solved basis. Churn events
//! ([`IncrementalSolver::insert_edge`],
//! [`IncrementalSolver::remove_edge`], [`IncrementalSolver::crash`],
//! [`IncrementalSolver::rejoin`]) update the rows in `O(deg)` (binary
//! search plus shift), clear only the forest links the event invalidated,
//! and mark the touched vertices dirty. [`IncrementalSolver::solve_all`]
//! then labels the live components in one pass over the rows: untouched
//! components are served from the per-component cache; dirty ones get
//! their graph built straight from the rows ([`Graph::from_sorted_rows`],
//! relabelled through a reusable vertex → local-index table, no hashing
//! or sorting), have their forest repaired on that graph (re-root + link
//! through the lexicographically smallest crossing edges) and are
//! re-solved from that warm basis, falling back to a cold BFS start only
//! when churn shredded the component's forest entirely. Solved trees are
//! written back as the next basis, so long churn chains stay incremental
//! throughout.
//!
//! A warm re-judge after one edge change makes only a handful of pivots,
//! so its cost is mostly this bookkeeping. Milliseconds per re-judge on
//! G(10⁴, 8/n), 256 re-judges after single-edge changes (two graphs of
//! seed 1, release build, 2-vCPU Xeon), before and after the flat rows:
//!
//! | stage                                   | B-tree rows | flat rows |
//! |-----------------------------------------|------------:|----------:|
//! | component grouping                      |        1.45 |      1.17 |
//! | component graph build                   |        7.99 |      0.80 |
//! | basis repair                            |        2.04 |      0.68 |
//! | articulation bound (`best_cut_bound`)   |        1.64 |      1.63 |
//! | improvement phases                      |        0.62 |      0.65 |
//! | tree build + removal-bound BFS          |        0.36 |      0.38 |
//! | write-back and cache                    |        0.21 |      0.07 |
//! | total                                   |       14.30 |      5.38 |
//!
//! Everything is keyed and iterated in ascending vertex order (sorted
//! rows, components labelled from ascending seeds, sorted member lists,
//! a `BTreeMap` cache), so replays are bit-deterministic regardless of
//! event history representation.

use std::collections::BTreeMap;

use crate::solve::{Solution, Solver};
use crate::structure::NONE;
use crate::witness::Witness;
use ssmdst_graph::{Graph, NodeId, UnionFind};

/// The certified solve of one live component, in **component-local**
/// vertex ids (indices into [`CompSolution::members`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompSolution {
    /// Original vertex ids of the component, ascending.
    pub members: Vec<NodeId>,
    /// Certified lower bound on the component's `Δ*`.
    pub lower: u32,
    /// Achieved tree degree (upper bound on `Δ*`).
    pub upper: u32,
    /// Component-local parent vector of the solved tree.
    pub tree: Vec<NodeId>,
    /// Component-local root of the solved tree.
    pub root: NodeId,
    /// Component-local lower-bound certificate (use
    /// [`Witness::relabeled`] with `members` for original ids).
    pub witness: Witness,
    /// Whether the final lower-bound step came from the branch-and-bound
    /// settling oracle (the witness then certifies one less than `lower`).
    pub settled: bool,
}

impl CompSolution {
    /// Whether the component's `Δ*` is known exactly.
    pub fn exact(&self) -> bool {
        self.lower == self.upper
    }

    /// `Δ*` when the interval is closed.
    pub fn delta_star(&self) -> Option<u32> {
        self.exact().then_some(self.lower)
    }

    /// The certificate translated to original vertex ids.
    pub fn witness_original(&self) -> Witness {
        self.witness.relabeled(&self.members)
    }
}

/// Work counters — how much of the last [`IncrementalSolver::solve_all`]
/// run was served incrementally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Components answered straight from the cache.
    pub cache_hits: u64,
    /// Components re-solved from a repaired prior basis.
    pub warm_starts: u64,
    /// Components re-solved from a fresh BFS tree.
    pub cold_starts: u64,
    /// Improvement pivots performed across all solves.
    pub pivots: u64,
}

/// Incremental certified-`Δ*` engine over a churning topology.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    solver: Solver,
    alive: Vec<bool>,
    /// Mirror adjacency: one strictly ascending neighbor row per vertex.
    adj: Vec<Vec<NodeId>>,
    /// Last solved basis: global parent forest (`NONE` = root or dead).
    basis: Vec<NodeId>,
    /// Vertices touched by churn since the last `solve_all`.
    dirty: Vec<bool>,
    /// Per-component cache, keyed by smallest member id.
    cache: BTreeMap<NodeId, CompSolution>,
    /// Scratch relabelling: each live vertex's index within its component,
    /// as of the last grouping pass (stale entries for dead vertices).
    local_of: Vec<u32>,
    stats: Stats,
}

impl IncrementalSolver {
    /// An engine over `n` vertices with no edges, all alive.
    pub fn new(n: usize, solver: Solver) -> Self {
        IncrementalSolver {
            solver,
            alive: vec![true; n],
            adj: vec![Vec::new(); n],
            basis: vec![NONE; n],
            dirty: vec![true; n],
            cache: BTreeMap::new(),
            local_of: vec![NONE; n],
            stats: Stats::default(),
        }
    }

    /// An engine seeded from a static graph (all vertices alive).
    pub fn from_graph(g: &Graph, solver: Solver) -> Self {
        let mut inc = IncrementalSolver::new(g.n(), solver);
        inc.adj = g.nodes().map(|v| g.neighbors(v).to_vec()).collect();
        inc
    }

    /// Universe size (including crashed vertices).
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Whether `v` is currently live.
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Current neighbor set of `v` in the mirror (ascending).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v as usize].iter().copied()
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.alive.len() && (v as usize) < self.alive.len() && u != v
    }

    /// Mirror an edge insertion. Returns whether the mirror changed
    /// (`false` for self-loops, out-of-range ids, crashed endpoints or
    /// already-present edges — matching the simulator's semantics).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u, v) || !self.alive[u as usize] || !self.alive[v as usize] {
            return false;
        }
        if !row_insert(&mut self.adj[u as usize], v) {
            return false;
        }
        row_insert(&mut self.adj[v as usize], u);
        // The forest is linked lazily at solve time; just mark dirty.
        self.dirty[u as usize] = true;
        self.dirty[v as usize] = true;
        true
    }

    /// Mirror an edge removal. Returns whether the mirror changed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.in_range(u, v) || !row_remove(&mut self.adj[u as usize], v) {
            return false;
        }
        row_remove(&mut self.adj[v as usize], u);
        if self.basis[u as usize] == v {
            self.basis[u as usize] = NONE;
        }
        if self.basis[v as usize] == u {
            self.basis[v as usize] = NONE;
        }
        self.dirty[u as usize] = true;
        self.dirty[v as usize] = true;
        true
    }

    /// Sync one edge of the mirror to an externally observed presence —
    /// the convenient driver when following a network's ground truth.
    pub fn set_edge(&mut self, u: NodeId, v: NodeId, present: bool) -> bool {
        if present {
            self.insert_edge(u, v)
        } else {
            self.remove_edge(u, v)
        }
    }

    /// Mirror a crash: the vertex leaves the topology with all incident
    /// edges. Returns whether the mirror changed.
    pub fn crash(&mut self, v: NodeId) -> bool {
        if (v as usize) >= self.alive.len() || !self.alive[v as usize] {
            return false;
        }
        for w in std::mem::take(&mut self.adj[v as usize]) {
            row_remove(&mut self.adj[w as usize], v);
            if self.basis[w as usize] == v {
                self.basis[w as usize] = NONE;
            }
            self.dirty[w as usize] = true;
        }
        self.basis[v as usize] = NONE;
        self.alive[v as usize] = false;
        self.dirty[v as usize] = true;
        true
    }

    /// Mirror a rejoin: the vertex comes back with edges to the given
    /// still-live neighbors. Returns whether the mirror changed.
    pub fn rejoin(&mut self, v: NodeId, neighbors: &[NodeId]) -> bool {
        if (v as usize) >= self.alive.len() || self.alive[v as usize] {
            return false;
        }
        self.alive[v as usize] = true;
        self.basis[v as usize] = NONE;
        self.dirty[v as usize] = true;
        for &w in neighbors {
            self.insert_edge(v, w);
        }
        true
    }

    /// Solve every live component, incrementally: cached where untouched,
    /// warm-started from the repaired basis where dirty. Results come in
    /// ascending order of smallest member id; the solved trees become the
    /// next basis.
    pub fn solve_all(&mut self) -> Vec<CompSolution> {
        let (order, starts) = self.group_components();
        let mut out = Vec::with_capacity(starts.len() - 1);
        let mut next_cache = BTreeMap::new();
        for span in starts.windows(2) {
            let members = &order[span[0]..span[1]];
            let key = members[0]; // ascending by construction
            let clean = !members.iter().any(|&v| self.dirty[v as usize]);
            if clean {
                if let Some(cached) = self.cache.remove(&key) {
                    if cached.members == members {
                        self.stats.cache_hits += 1;
                        out.push(cached.clone());
                        next_cache.insert(key, cached);
                        continue;
                    }
                }
            }
            let sol = self.solve_component(members);
            // Write the solved tree back as the new basis; the root's
            // self-parent becomes `NONE`.
            for (i, &v) in sol.members.iter().enumerate() {
                let p = sol.tree[i];
                self.basis[v as usize] = if p == NONE || p as usize == i {
                    NONE
                } else {
                    sol.members[p as usize]
                };
            }
            out.push(sol.clone());
            next_cache.insert(key, sol);
        }
        self.cache = next_cache;
        self.dirty.fill(false);
        out
    }

    /// Label the live components of the mirror, seeding each search at
    /// the smallest unlabelled vertex, then counting-sort the vertices by
    /// label. Returns the members of every component back to back
    /// (`order[starts[c]..starts[c + 1]]`, ascending), components in
    /// ascending order of smallest member — the simulator's
    /// `live_components` order, and a cache key stable across churn —
    /// and records each vertex's index within its component in
    /// `local_of`.
    fn group_components(&mut self) -> (Vec<NodeId>, Vec<usize>) {
        let n = self.alive.len();
        let mut label = vec![NONE; n];
        let mut starts = vec![0usize];
        let mut stack = Vec::new();
        for seed in 0..n {
            if !self.alive[seed] || label[seed] != NONE {
                continue;
            }
            let c = (starts.len() - 1) as u32;
            let mut size = 0;
            label[seed] = c;
            stack.push(seed as NodeId);
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in &self.adj[v as usize] {
                    if label[w as usize] == NONE {
                        label[w as usize] = c;
                        stack.push(w);
                    }
                }
            }
            starts.push(starts[starts.len() - 1] + size);
        }
        let mut cursor = starts.clone();
        let mut order = vec![0; starts[starts.len() - 1]];
        for (v, &c) in label.iter().enumerate() {
            if c != NONE {
                let at = cursor[c as usize];
                order[at] = v as NodeId;
                self.local_of[v] = (at - starts[c as usize]) as u32;
                cursor[c as usize] += 1;
            }
        }
        (order, starts)
    }

    /// Solve one component: build its graph straight from the mirror rows
    /// (relabelled through `local_of`, which keeps them ascending), repair
    /// the prior basis into a spanning tree of it (or fall back to BFS),
    /// run the solver.
    fn solve_component(&mut self, members: &[NodeId]) -> CompSolution {
        let (adj, local_of) = (&self.adj, &self.local_of);
        let sub = Graph::from_sorted_rows(
            members
                .iter()
                .map(|&v| adj[v as usize].iter().map(|&w| local_of[w as usize])),
        );
        let solution = match self.repair_basis(members, &sub) {
            Some((root, parents)) => {
                self.stats.warm_starts += 1;
                self.solver.solve_from(&sub, root, &parents)
            }
            None => {
                self.stats.cold_starts += 1;
                self.solver.solve(&sub)
            }
        };
        self.stats.pivots += solution.pivots;
        let Solution {
            lower,
            upper,
            root,
            tree,
            witness,
            settled,
            ..
        } = solution;
        CompSolution {
            members: members.to_vec(),
            lower,
            upper,
            tree,
            root,
            witness,
            settled,
        }
    }

    /// Try to repair the stored basis into a spanning tree of the
    /// component's graph `sub` (component-local ids). Valid forest links
    /// are kept; fragments are re-rooted and linked through the smallest
    /// crossing edges. Returns `None` when no usable links survive a
    /// cheaper full rebuild.
    fn repair_basis(&self, members: &[NodeId], sub: &Graph) -> Option<(NodeId, Vec<NodeId>)> {
        let k = members.len();
        if k <= 1 {
            return Some((0, vec![NONE; k]));
        }
        // Collect surviving links: parent must be a member and the edge
        // must still exist.
        let mut parents = vec![NONE; k];
        let mut kept = 0usize;
        for (i, &v) in members.iter().enumerate() {
            let p = self.basis[v as usize];
            if p == NONE {
                continue;
            }
            let j = self.local_of[p as usize];
            if members.get(j as usize) == Some(&p) && sub.has_edge(i as u32, j) {
                parents[i] = j;
                kept += 1;
            }
        }
        if kept * 2 < k {
            return None; // mostly shredded — BFS rebuild is cheaper
        }
        // The surviving links form a forest (they were a forest before
        // churn and we only removed links), unless a rejoin recycled ids
        // into a stale cycle; verify acyclicity while grouping fragments.
        let mut uf = UnionFind::new(k);
        for (i, &p) in parents.iter().enumerate() {
            if p != NONE && !uf.union(i as u32, p) {
                return None; // stale cycle — basis unusable
            }
        }
        // Link fragments through the smallest crossing edges, re-rooting
        // the absorbed fragment onto its crossing endpoint.
        if uf.components() > 1 {
            for i in sub.nodes() {
                for &j in sub.neighbors(i) {
                    if j < i {
                        continue;
                    }
                    if uf.find(i) != uf.find(j) {
                        reroot(&mut parents, j);
                        parents[j as usize] = i;
                        uf.union(i, j);
                    }
                }
            }
            if uf.components() > 1 {
                return None; // mirror disagrees with grouping — rebuild
            }
        }
        let root = parents
            .iter()
            .position(|&p| p == NONE)
            .expect("a finite forest has a root") as u32; // lint: allow(no-panic-in-library) — the union above verified acyclicity, so some vertex has no parent
        parents[root as usize] = root; // self-parent, the tree-structure convention
        Some((root, parents))
    }
}

/// Insert `x` into the ascending `row`; `false` when already present.
fn row_insert(row: &mut Vec<NodeId>, x: NodeId) -> bool {
    match row.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, x);
            true
        }
    }
}

/// Remove `x` from the ascending `row`; `false` when absent.
fn row_remove(row: &mut Vec<NodeId>, x: NodeId) -> bool {
    match row.binary_search(&x) {
        Ok(at) => {
            row.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Reverse the parent chain above `v` so that `v` becomes the root of
/// its fragment.
fn reroot(parents: &mut [NodeId], v: NodeId) {
    let mut cur = v;
    let mut prev = NONE;
    while cur != NONE {
        let next = parents[cur as usize];
        parents[cur as usize] = prev;
        prev = cur;
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmdst_graph::generators::{random, structured};
    use ssmdst_graph::graph::graph_from_edges;

    fn engine(g: &ssmdst_graph::Graph) -> IncrementalSolver {
        IncrementalSolver::from_graph(g, Solver::default())
    }

    #[test]
    fn static_solve_matches_direct_solver() {
        let g = random::gnp_connected(20, 0.2, 5);
        let mut inc = engine(&g);
        let sols = inc.solve_all();
        assert_eq!(sols.len(), 1);
        let direct = Solver::default().solve(&g);
        assert_eq!(sols[0].lower, direct.lower);
        assert_eq!(sols[0].upper, direct.upper);
        assert!(sols[0].witness.verify(&g), "local ids == original here");
    }

    #[test]
    fn untouched_components_hit_the_cache() {
        // Two disjoint cycles; churn only the second.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5));
        }
        for i in 0..5u32 {
            edges.push((5 + i, 5 + (i + 1) % 5));
        }
        let g = graph_from_edges(10, &edges);
        let mut inc = engine(&g);
        let first = inc.solve_all();
        assert_eq!(first.len(), 2);
        let before = inc.stats();
        inc.remove_edge(5, 6);
        let second = inc.solve_all();
        let after = inc.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1, "cycle 0 cached");
        assert_eq!(second.len(), 2);
        assert_eq!(second[0], first[0], "untouched component is bit-equal");
        assert_eq!(second[1].upper, 2, "second cycle became a path");
    }

    #[test]
    fn reroot_reverses_a_chain() {
        // 0 ← 1 ← 2 ← 3 (parents point left); re-root at 3.
        let mut parents = vec![NONE, 0, 1, 2];
        reroot(&mut parents, 3);
        assert_eq!(parents, vec![1, 2, 3, NONE]);
    }

    #[test]
    fn crash_and_rejoin_round_trip() {
        let g = structured::star_with_ring(8).unwrap();
        let mut inc = engine(&g);
        let base = inc.solve_all();
        assert_eq!(base.len(), 1);
        let nbrs: Vec<NodeId> = inc.neighbors(0).collect();
        assert!(inc.crash(0));
        assert!(!inc.crash(0), "double crash is a no-op");
        let crashed = inc.solve_all();
        assert!(crashed.iter().all(|c| !c.members.contains(&0)));
        assert!(inc.rejoin(0, &nbrs));
        let back = inc.solve_all();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].members.len(), 8);
        assert_eq!(back[0].lower, base[0].lower);
        assert_eq!(back[0].upper, base[0].upper);
    }

    #[test]
    fn edge_churn_chain_tracks_scratch_solves() {
        let g = random::gnp_connected(16, 0.25, 11);
        let mut inc = engine(&g);
        inc.solve_all();
        // Remove a batch of edges, insert some back, compare each step
        // against a from-scratch engine on the same mirror.
        let edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        for (step, &(u, v)) in edges.iter().take(6).enumerate() {
            if step % 2 == 0 {
                inc.remove_edge(u, v);
            } else {
                inc.insert_edge(u, v);
            }
            let incs = inc.solve_all();
            let mut scratch = IncrementalSolver::new(inc.n(), Solver::default());
            for x in 0..inc.n() as u32 {
                for w in inc.neighbors(x) {
                    scratch.insert_edge(x, w);
                }
            }
            let scr = scratch.solve_all();
            // Both paths settle small components exactly, so the
            // certified outcome must be bit-identical (trees/witnesses
            // may legitimately differ between warm and cold starts).
            assert_eq!(incs.len(), scr.len(), "step {step}");
            for (a, b) in incs.iter().zip(&scr) {
                assert_eq!(a.members, b.members, "step {step}");
                assert_eq!((a.lower, a.upper), (b.lower, b.upper), "step {step}");
                assert!(a.exact() && b.exact(), "step {step}: small n settles");
            }
        }
        assert!(inc.stats().warm_starts > 0, "chain must warm-start");
    }

    /// After `solve_all` the basis marks every root `NONE`: one per live
    /// component, and no vertex is its own parent.
    #[test]
    fn basis_roots_are_none_not_self_parents() {
        let mut edges = vec![(0, 1), (1, 2), (2, 0), (2, 3)];
        edges.extend([(4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]);
        let g = graph_from_edges(10, &edges); // 8 and 9 isolated
        let mut inc = engine(&g);
        let check = |inc: &IncrementalSolver, sols: &[CompSolution]| {
            for sol in sols {
                let roots = sol
                    .members
                    .iter()
                    .filter(|&&v| inc.basis[v as usize] == NONE);
                assert_eq!(roots.count(), 1, "component {:?}", sol.members);
                assert!(sol.members.iter().all(|&v| inc.basis[v as usize] != v));
            }
        };
        let sols = inc.solve_all();
        assert_eq!(sols.len(), 4);
        check(&inc, &sols);
        inc.remove_edge(2, 3);
        inc.crash(5);
        inc.insert_edge(3, 8);
        let sols = inc.solve_all();
        assert_eq!(sols.len(), 4);
        check(&inc, &sols);
    }

    #[test]
    fn out_of_range_and_degenerate_events_are_rejected() {
        let g = structured::path(4).unwrap();
        let mut inc = engine(&g);
        assert!(!inc.insert_edge(0, 0), "self loop");
        assert!(!inc.insert_edge(0, 99), "out of range");
        assert!(!inc.remove_edge(0, 3), "absent edge");
        assert!(!inc.rejoin(1, &[]), "rejoin of a live vertex");
        inc.crash(2);
        assert!(!inc.insert_edge(1, 2), "edge to a crashed vertex");
    }
}
