//! Execution backends: who executes a round's schedule.
//!
//! Every backend runs the **bit-identical execution** — the same
//! obligations, keyed by the same scheduler `KeySource` draws in
//! the same canonical enumeration order (ticks ascending by node id, then
//! deliveries ascending by slot id), executed in the same ascending
//! `(key, enumeration index)` order. The scheduler key stream is stateful
//! (the random daemon draws once per key request), so enumeration order is
//! not a convention but a correctness contract: request keys in a
//! different order and every subsequent draw shifts.
//!
//! Both backends share one derivation (`EventQueue::schedule`: sorted
//! snapshots of the incremental indices, each delivery carrying its
//! channel slot) and differ only in who executes the schedule:
//!
//! * [`Backend::Reference`] — the sequential run-coalesced executor:
//!   ticks re-check their guard, consecutive same-slot deliveries pop
//!   their channel in one `Network::deliver_run`. The oracle the sharded
//!   backend is measured against.
//! * [`Backend::Sharded`] — the round body fans out across worker
//!   threads: nodes are split into contiguous shards, each shard executes
//!   its own events against pre-staged channel contents, and a
//!   deterministic round-barrier merge re-applies every send in canonical
//!   schedule order (see `crate::shard`). Derivation, key draws and the
//!   merge stay sequential, which is what keeps the digest byte-identical
//!   for *any* shard count.
//!
//! Conformance is enforced by a ladder (unit equivalence tests, golden
//! traces, the full `.scn` corpus, and a storm-mutant sweep in
//! `tests/backend_conformance.rs`), with divergence measured by the
//! chained [`crate::ScheduleDigest`] — see `BACKEND_EVALUATION.md` at the
//! workspace root.

use std::fmt;

/// Which round-loop executor a [`crate::Runner`] uses. The choice affects
/// speed only; both backends are required to produce byte-identical
/// schedules and digests (enforced by the conformance ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The sequential executor — the conformance oracle.
    #[default]
    Reference,
    /// Round body sharded across `shards` worker threads with a
    /// deterministic round-barrier merge. `shards == 1` runs the same
    /// stage/execute/merge pipeline inline (no thread spawn).
    Sharded {
        /// Number of contiguous node shards. [`Backend::parse`] accepts
        /// `1..=`[`MAX_SHARDS`]; a round runs at most
        /// `min(shards, MAX_SHARDS, n)` of them (one worker thread per
        /// non-empty shard), which changes nothing observable because the
        /// digest is shard-count-invariant.
        shards: usize,
    },
}

/// Shard count used by the bare `sharded` label (no explicit `:K`). A
/// fixed constant — never derived from the host's core count, which would
/// leak ambient machine state into `.scn` files and CI matrix legs.
pub const DEFAULT_SHARDS: usize = 4;

/// Largest shard count `sharded:K` accepts. Each shard of a round is one
/// worker thread, so an unbounded `K` from a `.scn` file or `--backend`
/// would ask for that many threads every round.
pub const MAX_SHARDS: usize = 256;

impl Backend {
    /// Every registered backend family, reference first — the iteration
    /// order of the conformance ladder. The sharded entry uses a shard
    /// count that does not divide typical node counts evenly, so the
    /// ladder always exercises ragged shard boundaries.
    pub const ALL: [Backend; 2] = [Backend::Reference, Backend::Sharded { shards: 3 }];

    /// Stable lowercase family label, used by `.scn` files, `--backend`
    /// and the CI matrix. The sharded family renders its shard count only
    /// through [`fmt::Display`] (`sharded:3`); the label is the family
    /// name alone.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Sharded { .. } => "sharded",
        }
    }

    /// Parse a label; unknown names are an error that lists the options
    /// (never a silent fall-through to the reference backend). The
    /// sharded family accepts `sharded` (a fixed default of
    /// [`DEFAULT_SHARDS`] shards) or `sharded:K` for an explicit count
    /// `1 <= K <= MAX_SHARDS`.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "reference" => Ok(Backend::Reference),
            "sharded" => Ok(Backend::Sharded {
                shards: DEFAULT_SHARDS,
            }),
            other => {
                if let Some(count) = other.strip_prefix("sharded:") {
                    return match count.parse::<usize>() {
                        Ok(shards) if (1..=MAX_SHARDS).contains(&shards) => {
                            Ok(Backend::Sharded { shards })
                        }
                        _ => Err(format!(
                            "bad shard count {count:?} in backend {other:?} \
                             (sharded:K needs an integer 1 <= K <= {MAX_SHARDS})"
                        )),
                    };
                }
                Err(format!(
                    "unknown backend {other:?} (reference | sharded[:K])"
                ))
            }
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sharded { shards } => write!(f, "sharded:{shards}"),
            Backend::Reference => f.write_str(self.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for b in Backend::ALL {
            // The Display form always parses back to the exact variant
            // (the sharded family carries its count, `sharded:3`)…
            assert_eq!(Backend::parse(&b.to_string()), Ok(b));
            // …and every Display form starts with the family label.
            assert!(b.to_string().starts_with(b.label()), "{b}");
        }
        // The reference backend still prints its bare label.
        assert_eq!(Backend::Reference.to_string(), Backend::Reference.label());
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(Backend::default(), Backend::Reference);
    }

    #[test]
    fn sharded_label_parses_with_and_without_count() {
        assert_eq!(
            Backend::parse("sharded"),
            Ok(Backend::Sharded {
                shards: DEFAULT_SHARDS
            })
        );
        for shards in [1usize, 2, 7, 64, MAX_SHARDS] {
            assert_eq!(
                Backend::parse(&format!("sharded:{shards}")),
                Ok(Backend::Sharded { shards })
            );
        }
        for bad in ["sharded:0", "sharded:", "sharded:-2", "sharded:two"] {
            let err = Backend::parse(bad).unwrap_err();
            assert!(err.contains("shard count"), "{bad}: {err}");
        }
    }

    /// A shard count above the cap is the same listed `bad shard count`
    /// error as a malformed one — never a request for K threads a round.
    #[test]
    fn over_cap_shard_count_is_rejected_with_the_range() {
        let over = MAX_SHARDS + 1;
        for bad in [
            format!("sharded:{over}"),
            format!("sharded:{}", usize::MAX),
            "sharded:99999999999999999999999".to_string(),
        ] {
            let err = Backend::parse(&bad).unwrap_err();
            assert!(err.contains("bad shard count"), "{bad}: {err}");
            assert!(
                err.contains(&format!("1 <= K <= {MAX_SHARDS}")),
                "names the accepted range: {err}"
            );
        }
    }

    /// Unknown names — including the retired `batched` and `soa` — are a
    /// listed-options error, never a silent run on the reference loop.
    #[test]
    fn unknown_label_lists_the_options() {
        for bad in ["warp9", "batched", "soa"] {
            let err = Backend::parse(bad).unwrap_err();
            assert!(
                err.contains(&format!("unknown backend {bad:?}")),
                "names the bad input: {err}"
            );
            for b in Backend::ALL {
                assert!(err.contains(b.label()), "lists {}: {err}", b.label());
            }
        }
    }
}
