#![warn(missing_docs)]

//! Scheduler-as-a-service: a JSONL daemon over the modulo scheduler with
//! a content-addressed schedule cache.
//!
//! Rau's iterative modulo scheduler is fast per loop, but a production
//! fleet re-schedules the same kernels endlessly. This crate turns the
//! repo's scheduling pipeline into a long-running service (`scheduled`
//! binary): loop problems arrive as JSON lines over stdin or a Unix
//! socket ([`wire`]), fan out across the deterministic worker pool
//! ([`pool`], promoted here from the bench harness), and repeats are
//! answered from a cache ([`cache`]) keyed by a canonical hash of
//! *(dependence graph up to isomorphism, machine model, scheduling
//! configuration, backend)* — the canonicalization pass lives in
//! [`ims_graph::canon`] and is reused for corpus dedup ([`corpus`]).
//!
//! The repo-wide byte-determinism contract extends to the service: the
//! same request multiset produces byte-identical responses at any
//! `--threads N`, across batch splits, and cache hot or cold. Cache
//! hit/miss tallies are deliberately kept **out** of the responses (a
//! hit marker would break cold-vs-warm identity) and surface instead
//! through the `ims-prof` phase registry (`serve.*`) and a stderr
//! summary. See `DESIGN.md` §5e for the wire format and the exact
//! inventory of what the cache key does and does not hash.

pub mod cache;
pub mod corpus;
pub mod pool;
pub mod service;
pub mod wire;

/// The service's JSON layer is the workspace's one codec: each request
/// line is parsed once, in linear time, into a [`json::Value`] tree, and
/// responses are formatted with `format!` around [`json::escape`]. They
/// hold only integers and strings, so no float formatting ever reaches
/// the output and byte determinism is trivial to audit.
pub use ims_prof::json;

pub use cache::{key_request, Entry, Keyed, ScheduleCache};
pub use corpus::{dedup_keys, gen_requests, gen_requests_backend};
pub use service::{serve_stream, Engine};
pub use wire::{machine_by_name, parse_request, stats_id, Request, WireEdge};

#[cfg(unix)]
pub use service::serve_socket;
