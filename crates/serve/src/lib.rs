//! # mhla-serve — the batch exploration server behind `mhla serve`
//!
//! Exploration-as-a-service over plain TCP: clients submit serialized
//! programs (and optionally platforms, axes, objectives and budgets) as
//! newline-delimited JSON and get certified exploration frontiers back —
//! the paper's trade-off sweeps as a long-running, cache-backed service
//! instead of a per-invocation CLI run.
//!
//! Layering, bottom up:
//!
//! * [`cache`] — the content-addressed result cache: finished frontier
//!   bodies keyed by (program fingerprint, platform fingerprint,
//!   canonical options), LRU-evicted under a byte budget;
//! * [`protocol`] — the NDJSON wire format: request parsing (total — any
//!   ingress maps to a typed error, never a panic; the one parser of
//!   exploration inputs, which the CLI's `grid`, `sweep` and `submit` run
//!   too), the request → engine-inputs mapping, result-body and
//!   error rendering, client-side result parsing and the exact
//!   `mhla grid` CSV reconstruction;
//! * [`service`] — one request line in, one response line out, no
//!   sockets: the result cache, the per-program analysis cache (reuse
//!   analysis paid once per program, shared across requests via
//!   [`mhla_core::explore::try_sweep_grid_run_in`]), counters, and the
//!   graceful-shutdown flag wired into every in-flight budget;
//! * [`server`] — the [`std::net::TcpListener`] shell: accept loop,
//!   per-connection NDJSON framing, a bounded job queue feeding a worker
//!   pool, and a drain-to-certified-partial-frontiers shutdown;
//! * [`client`] — the minimal blocking client the CLI's `submit`,
//!   `status` and `shutdown` subcommands use.
//!
//! Everything is hand-rolled on `std` — no async runtime, no serde, no
//! new dependencies — matching the workspace's offline-container
//! constraint and its existing [`mhla_ir::serdes::Json`] layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The server faces hostile ingress by design: every byte off a socket
// must end as a typed response, never an `unwrap` panic.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use client::{request_once, Client};
pub use protocol::{ErrorBody, Request, Response, ServedFrontier, ServedStatus};
pub use server::{serve, Server, ServerOptions};
pub use service::{Service, ServiceOptions};
