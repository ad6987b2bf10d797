//! Sharded round execution: the [`crate::Backend::Sharded`] engine.
//!
//! One round runs in three phases around a deterministic barrier:
//!
//! 1. **Stage** (sequential) — every non-empty channel's queue is moved
//!    out of the fabric into the inbox of the shard that owns the
//!    *receiving* node ([`Network::stage_out_channels`]). Queues travel by
//!    `mem::take`, so staging is O(occupied slots) and allocation-free.
//! 2. **Execute** (parallel) — nodes are split into contiguous ranges,
//!    one per shard (`chunks_mut`, so the borrows are disjoint). Each
//!    shard walks *its* slice of the global schedule — the events whose
//!    executing node it owns, in global order — running ticks (with the
//!    same execution-time guard re-check as the sequential executor) and
//!    deliveries (popped from the staged inboxes). Sends are not applied:
//!    they are resolved to a channel slot and banked in a per-shard
//!    outbox, tagged with the global index of the event that produced
//!    them.
//! 3. **Merge** (sequential) — the engine replays the global schedule in
//!    canonical order, applying each event's accounting (in-flight
//!    decrement for deliveries, then that event's banked sends via
//!    [`Network::merge_send`], then the in-flight high-water sample) at
//!    exactly the position the reference backend would.
//!
//! **Why digests are shard-count-invariant.** The schedule itself is
//! derived and keyed sequentially *before* any shard runs, so the digest
//! input never depends on the shard count. State equality follows from
//! three facts: (a) a node's state is only ever touched by its owning
//! shard, and that shard executes the node's events in global-schedule
//! order, (b) within one round, nodes interact only through channel
//! pushes, which the merge applies in the exact global order the
//! reference applies them, and (c) each delivery consumes a message
//! determined at round start (staged queues), so execution order across
//! shards cannot change what anyone receives. The merge then replays
//! metrics accounting in canonical order, which pins `peak_in_flight`
//! byte-for-byte. The conformance ladder (`tests/backend_conformance.rs`)
//! enforces all of this against the reference oracle.

use crate::automaton::{Automaton, Message, Outbox};
use crate::backend::MAX_SHARDS;
use crate::events::PendingSlot;
use crate::network::Network;
use crate::scheduler::Action;
use crate::NodeId;
use std::collections::VecDeque;

/// Outbox slot sentinel for a send that resolved to no live channel
/// (stale neighbor mirror after churn): the merge counts it as dropped.
/// Never collides with a real slot id — the fabric asserts slot ids stay
/// below `u32::MAX`.
const DROPPED: u32 = u32::MAX;

/// Per-shard working state, reused across rounds (buffers keep their
/// capacity; the steady state allocates nothing).
struct ShardState<M> {
    /// This shard's slice of the schedule: `(global event index, action,
    /// carried slot)`, ascending by global index.
    events: Vec<(u32, Action, u32)>,
    /// Staged inbound queues `(slot, queue)`, ascending by slot (staging
    /// visits slots in ascending order, and a subsequence of a sorted
    /// sequence is sorted).
    inbox: Vec<(u32, VecDeque<M>)>,
    /// Banked sends: `(global event index, slot or DROPPED, message)`,
    /// ascending by event index. `Option` lets the merge move each
    /// message out without cloning.
    outbox: Vec<(u32, u32, Option<M>)>,
    /// Global indices of ticks whose guard was false at execution time.
    /// The merge skips the in-flight sample at these positions — the
    /// reference backend samples only inside executed events.
    skipped: Vec<u32>,
    /// Executing nodes to re-mark dirty at the merge.
    dirty: Vec<NodeId>,
    /// Scratch send buffer for one atomic step.
    step_out: Outbox<M>,
    /// Merge cursors into `outbox` / `skipped`.
    out_cursor: usize,
    skip_cursor: usize,
}

impl<M> ShardState<M> {
    fn new() -> Self {
        ShardState {
            events: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            skipped: Vec::new(),
            dirty: Vec::new(),
            step_out: Outbox::new(),
            out_cursor: 0,
            skip_cursor: 0,
        }
    }
}

/// The sharded backend's engine: owns the per-shard states so their
/// buffers survive across rounds. One per [`crate::Runner`].
pub(crate) struct ShardEngine<M> {
    shards: Vec<ShardState<M>>,
}

/// The node whose state an event mutates — ticks execute at the ticking
/// node, deliveries at the receiver. Shard ownership keys off this.
fn executing_node(act: Action) -> NodeId {
    match act {
        Action::Tick(v) => v,
        Action::Deliver(_, to) => to,
    }
}

impl<M: Message> ShardEngine<M> {
    pub(crate) fn new() -> Self {
        ShardEngine { shards: Vec::new() }
    }

    /// Per-shard states allocated so far (the most shards any round ran).
    #[cfg(test)]
    pub(crate) fn shard_states(&self) -> usize {
        self.shards.len()
    }

    /// Execute one round's schedule across `shards` contiguous node
    /// ranges, bit-identically to the sequential executor (see the module
    /// docs for the three-phase structure and the invariance argument).
    /// The effective count is clamped to `1..=min(MAX_SHARDS, n)`: more
    /// shards than nodes would only add empty shards, and the digest is
    /// shard-count-invariant, so the clamp changes nothing observable.
    pub(crate) fn run_round<A: Automaton<Msg = M>>(
        &mut self,
        net: &mut Network<A>,
        events: &[PendingSlot],
        shards: usize,
    ) {
        let n = net.n();
        let shards = shards.min(MAX_SHARDS).min(n).max(1);
        while self.shards.len() < shards {
            self.shards.push(ShardState::new());
        }
        // Contiguous ownership: node v belongs to shard v / chunk. With
        // shards <= n every shard owns at least one node except, on ragged
        // splits, a few trailing ones, which stay empty (harmless).
        let chunk = n.div_ceil(shards).max(1);
        debug_assert!(
            events.len() < u32::MAX as usize,
            "round event count overflows the u32 global event index"
        );

        // Partition the global schedule by executing-node ownership. Each
        // shard sees its events in global order (stable subsequence).
        for st in &mut self.shards[..shards] {
            st.events.clear();
            st.outbox.clear();
            st.skipped.clear();
            st.dirty.clear();
            st.out_cursor = 0;
            st.skip_cursor = 0;
        }
        for (i, &(_, _, act, slot)) in events.iter().enumerate() {
            let owner = executing_node(act) as usize / chunk;
            self.shards[owner].events.push((i as u32, act, slot));
        }

        // Stage: bank every occupied channel's queue in the receiver's
        // shard inbox (ascending slot order — see ShardState::inbox).
        let states = &mut self.shards;
        net.stage_out_channels(|slot, to, q| {
            states[to as usize / chunk].inbox.push((slot, q));
        });

        // Execute: disjoint node ranges, one worker per non-empty shard.
        // A single shard runs inline — same pipeline, no thread spawn —
        // which also keeps the steady state of `sharded:1` allocation-free.
        {
            let parts = net.fabric_parts();
            if shards == 1 {
                execute_shard(
                    &mut self.shards[0],
                    parts.nodes,
                    0,
                    parts.topo,
                    parts.out_slot,
                    parts.alive,
                    parts.dynamic,
                );
            } else {
                let (topo, out_slot, alive, dynamic) =
                    (parts.topo, parts.out_slot, parts.alive, parts.dynamic);
                std::thread::scope(|scope| {
                    let mut chunks = parts.nodes.chunks_mut(chunk);
                    for (k, st) in self.shards[..shards].iter_mut().enumerate() {
                        let Some(nodes) = chunks.next() else { break };
                        if st.events.is_empty() {
                            continue;
                        }
                        let base = (k * chunk) as NodeId;
                        scope.spawn(move || {
                            execute_shard(st, nodes, base, topo, out_slot, alive, dynamic)
                        });
                    }
                });
            }
        }

        // Return the drained queues to their slots *before* the merge
        // pushes into them (preserves each deque's capacity).
        for st in &mut self.shards[..shards] {
            for (slot, q) in st.inbox.drain(..) {
                net.return_channel(slot, q);
            }
        }

        // Merge: replay the global schedule in canonical order, applying
        // each event's accounting and banked sends at its exact position.
        self.merge(net, events, chunk);

        // Re-mark executed nodes dirty (the network dedups via its flag
        // array, so membership — not order — is what matters, and
        // membership is shard-count-independent).
        for st in &mut self.shards[..shards] {
            for &v in &st.dirty {
                net.mark_dirty(v);
            }
        }
    }

    /// The sequential round-barrier merge (see module docs, phase 3).
    // lint: hot-path
    fn merge<A: Automaton<Msg = M>>(
        &mut self,
        net: &mut Network<A>,
        events: &[PendingSlot],
        chunk: usize,
    ) {
        for (i, &(_, _, act, _)) in events.iter().enumerate() {
            let i = i as u32;
            let st = &mut self.shards[executing_node(act) as usize / chunk];
            if matches!(act, Action::Deliver(..)) {
                net.merge_deliver_accounted();
            }
            if st.skip_cursor < st.skipped.len() && st.skipped[st.skip_cursor] == i {
                // Guard-skipped tick: no sends, and the reference samples
                // in-flight only inside executed events — skip both.
                st.skip_cursor += 1;
                continue;
            }
            while st.out_cursor < st.outbox.len() && st.outbox[st.out_cursor].0 == i {
                let (_, slot, msg) = &mut st.outbox[st.out_cursor];
                let m = msg.take().expect("banked send already merged"); // lint: allow(no-panic-in-library) — the cursor visits each outbox entry exactly once
                if *slot == DROPPED {
                    net.merge_dropped_send();
                } else {
                    net.merge_send(*slot, m);
                }
                st.out_cursor += 1;
            }
            net.sample_in_flight();
        }
        for st in &self.shards {
            debug_assert_eq!(st.out_cursor, st.outbox.len(), "unmerged banked sends");
            debug_assert_eq!(st.skip_cursor, st.skipped.len(), "unconsumed skip markers");
        }
    }
}

/// Run one shard's slice of the schedule against its node range.
/// `nodes[local]` is node `base + local`; the shard only ever indexes its
/// own range because it only receives events it owns.
// lint: hot-path
fn execute_shard<A: Automaton>(
    st: &mut ShardState<A::Msg>,
    nodes: &mut [A],
    base: NodeId,
    topo: &[Vec<NodeId>],
    out_slot: &[Vec<u32>],
    alive: &[bool],
    dynamic: bool,
) {
    for i in 0..st.events.len() {
        let (evt, act, slot) = st.events[i];
        match act {
            Action::Tick(v) => {
                // Same execution-time guard re-check as the sequential
                // executor. Exact despite parallelism: only this shard
                // mutates v's state, and it replays v's events in global
                // order, so the guard sees the same history either way.
                let local = (v - base) as usize;
                if alive[v as usize] && nodes[local].enabled() {
                    nodes[local].tick(&mut st.step_out);
                    st.dirty.push(v);
                    route_banked(
                        &mut st.outbox,
                        &mut st.step_out,
                        v,
                        evt,
                        topo,
                        out_slot,
                        dynamic,
                    );
                } else {
                    st.skipped.push(evt);
                }
            }
            Action::Deliver(from, to) => {
                let local = (to - base) as usize;
                let pos = st
                    .inbox
                    .binary_search_by_key(&slot, |e| e.0)
                    .expect("delivery obligation for an unstaged slot"); // lint: allow(no-panic-in-library) — the schedule and the staging pass read the same occupancy index
                let msg = st.inbox[pos]
                    .1
                    .pop_front()
                    .expect("delivery obligation for an over-drained channel"); // lint: allow(no-panic-in-library) — one obligation per message present at round start, FIFO pops in order
                nodes[local].receive(from, msg, &mut st.step_out);
                st.dirty.push(to);
                route_banked(
                    &mut st.outbox,
                    &mut st.step_out,
                    to,
                    evt,
                    topo,
                    out_slot,
                    dynamic,
                );
            }
        }
    }
}

/// Resolve one step's sends to channel slots and bank them for the merge —
/// the address-resolution half of the sequential `route`, with the fabric
/// mutation deferred to the barrier.
// lint: hot-path
fn route_banked<M: Message>(
    outbox: &mut Vec<(u32, u32, Option<M>)>,
    out: &mut Outbox<M>,
    from: NodeId,
    evt: u32,
    topo: &[Vec<NodeId>],
    out_slot: &[Vec<u32>],
    dynamic: bool,
) {
    for (to, msg) in out.drain() {
        match topo[from as usize].binary_search(&to) {
            Ok(ix) => outbox.push((evt, out_slot[from as usize][ix], Some(msg))),
            Err(_) if dynamic => {
                // Stale neighbor mirror after churn: counted at the merge.
                outbox.push((evt, DROPPED, Some(msg)));
            }
            Err(_) => panic!("node {from} sent to non-neighbor {to}"), // lint: allow(no-panic-in-library) — protocol bug trap on static topologies, mirroring the sequential route
        }
    }
}
