//! Steady-state allocation guard for the flat message fabric.
//!
//! The engine's contract (network.rs, events.rs): once its scratch buffers
//! and channel deques have warmed up, the round loop — derive obligations,
//! key them, sort, tick/deliver, route — performs **zero heap
//! allocations**. This binary installs a counting allocator (the
//! `vendor/alloc-counter` shim) and meters the loop directly, so any
//! future regression (a stray `Vec::new` per round, a `BTreeMap` sneaking
//! back onto the path, `take_dirty` reverting to handing out fresh
//! vectors) fails loudly instead of silently taxing every experiment.
//!
//! Scope: the guarantee is about the *fabric*. The messages themselves are
//! `Copy` here; a protocol whose messages own heap data (e.g. a path
//! vector) pays for those clones, which is the protocol's cost, not the
//! fabric's.
//!
//! The counter is per-thread, so the harness's own threads cannot perturb
//! the measurement; this file still holds a single `#[test]` so the
//! metered region never interleaves with a sibling test on the same
//! thread.

use alloc_counter::{allocations_on_this_thread, CountingAllocator};
use ssmdst::sim::{Automaton, Backend, Message, Network, Outbox, Runner, Scheduler, Session};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Debug, Clone, Copy)]
struct Beat(u32);
impl Message for Beat {
    fn kind(&self) -> &'static str {
        "Beat"
    }
    fn size_bits(&self, _n: usize) -> usize {
        32
    }
}

/// Gossips a counter to every neighbor each round — the obligation-dense
/// regime (every node ticks, every channel carries traffic), which
/// exercises the full tick → send → deliver → dirty-mark cycle.
#[derive(Debug)]
struct Gossip {
    neighbors: Vec<u32>,
    beat: u32,
    heard: u64,
}

impl Automaton for Gossip {
    type Msg = Beat;
    fn tick(&mut self, out: &mut Outbox<Beat>) {
        self.beat += 1;
        for &w in &self.neighbors {
            out.send(w, Beat(self.beat));
        }
    }
    fn receive(&mut self, _from: u32, msg: Beat, _out: &mut Outbox<Beat>) {
        self.heard += msg.0 as u64;
    }
}

#[test]
fn steady_state_round_loop_is_allocation_free() {
    // Every execution backend inherits the fabric's zero-allocation
    // contract: the schedule buffer and the derivation's sorted snapshots
    // are steady-state scratch, warmed once and reused forever.
    // The sharded backend is metered at `shards: 1`, which runs the full
    // stage/execute/merge pipeline inline: that measures the engine's own
    // per-round allocations (inboxes, outboxes, skip lists — all reused).
    // With more shards, `std::thread::scope` itself allocates per spawn
    // (thread stacks and join handles, on this thread) — a property of
    // std's threading, not of the per-shard round loop.
    for backend in Backend::ALL.map(|b| match b {
        Backend::Sharded { .. } => Backend::Sharded { shards: 1 },
        other => other,
    }) {
        for sched in [
            Scheduler::Synchronous,
            Scheduler::RandomAsync { seed: 5 },
            Scheduler::Adversarial { seed: 5 },
        ] {
            let g = ssmdst::graph::generators::random::gnp_connected(64, 0.15, 42);
            let net = Network::from_graph(&g, |_, nbrs| Gossip {
                neighbors: nbrs.to_vec(),
                beat: 0,
                heard: 0,
            });
            let mut runner = Runner::new(net, sched);
            runner.set_backend(backend);
            // Warm-up: buffers, channel deques and the metrics kind table
            // grow to their steady-state capacity during the first rounds.
            for _ in 0..50 {
                runner.step_round();
            }
            let before = allocations_on_this_thread();
            for _ in 0..100 {
                runner.step_round();
            }
            let allocs = allocations_on_this_thread() - before;
            assert_eq!(
                allocs, 0,
                "steady-state rounds allocated {allocs} times under {sched:?} on {backend}"
            );
            // The loop really ran: traffic flowed every round.
            assert!(runner.network().metrics.total_delivered > 0);

            // The Session surface with no observers attached is the same
            // machine code: every `()` observer hook is an empty inlineable
            // default, so the redesigned driver keeps the guarantee.
            let g = ssmdst::graph::generators::random::gnp_connected(64, 0.15, 42);
            let net = Network::from_graph(&g, |_, nbrs| Gossip {
                neighbors: nbrs.to_vec(),
                beat: 0,
                heard: 0,
            });
            let mut session = Session::from_network(net)
                .scheduler(sched)
                .backend(backend)
                .build();
            for _ in 0..50 {
                let _ = session.step();
            }
            let before = allocations_on_this_thread();
            for _ in 0..100 {
                let _ = session.step();
            }
            let allocs = allocations_on_this_thread() - before;
            assert_eq!(
                allocs, 0,
                "steady-state session rounds allocated {allocs} times under {sched:?} on {backend}"
            );
            assert!(session.network().metrics.total_delivered > 0);
        }
    }
}
