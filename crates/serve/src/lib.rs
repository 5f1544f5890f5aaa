#![warn(missing_docs)]

//! # fragalign-serve
//!
//! A concurrent alignment service: fragment-alignment queries over
//! HTTP, answered by the solver engine behind a sharded result cache.
//!
//! The ROADMAP's north star is serving heavy query traffic, and the
//! engine layer made that a dispatch problem: every solver is a
//! registry name, every run emits the same telemetry record. This
//! crate adds the serving layer on top — deliberately dependency-free
//! (the build container has no crate registry, see `shims/README.md`),
//! so the whole stack is hand-rolled over `std::net`:
//!
//! * [`server`] — an HTTP/1.1 server with a readiness-polled accept
//!   and read path: a single event-loop thread owns every idle or
//!   half-read connection through a hand-rolled [`poll`]\(2) binding,
//!   and a connection only occupies one of the fixed worker threads
//!   while a fully-parsed request is being solved. Keep-alive and
//!   pipelined connections return to the event loop between requests.
//!   The loop frames requests but decodes no body: it answers a repeat
//!   `/v1/solve` body's cache hit from a memo keyed on the raw body,
//!   which the worker that decoded the body published.
//!   The bounded crossbeam job queue is still the backpressure valve:
//!   when it is full the server answers `503 Service Unavailable`
//!   immediately instead of letting latency grow without bound, and
//!   above a configurable load watermark the [`admission`] policy
//!   degrades big instances to cheap portfolio tiers before it comes
//!   to that.
//! * [`poll`] — the `poll(2)` FFI binding and a tiny `Poller` wrapper
//!   (same no-new-deps discipline as the CLI's signal binding);
//! * [`admission`] — the two-watermark, portfolio-aware admission
//!   policy behind `X-Fragalign-Degraded`;
//! * [`cache`] — a sharded, byte-budgeted LRU over finished response
//!   bodies, keyed by a 128-bit fingerprint of (solver, options,
//!   canonical instance JSON). Repeat queries skip the DP entirely;
//!   per-worker DP workspaces stay shared-nothing beneath it, exactly
//!   as in the batch pipeline.
//! * [`http`] — minimal request parsing and response writing;
//! * [`metrics`] — uptime, per-solver request counts, approximate
//!   p50/p99 latency, queue depth and cache hit rate for `/metrics`;
//! * [`client`] — a tiny blocking HTTP client for the integration
//!   tests and the `exp_service` load generator.
//!
//! ## Endpoints
//!
//! | route | method | body |
//! |-------|--------|------|
//! | `/v1/solve` | POST | `{"instance": …, "solver"?: name, "options"?: {…}}` → score, matches, report |
//! | `/v1/batch` | POST | `{"instances": […], "solver"?, "options"?}` → per-instance results |
//! | `/v1/solvers` | GET | the registry: name, paper artifact, ratio |
//! | `/healthz` | GET | liveness + uptime |
//! | `/metrics` | GET | counters, latency quantiles, queue, cache |
//!
//! Every `/v1/solve` response carries an `X-Fragalign-Cache: hit|miss`
//! header; hit and miss bodies for the same request are byte-identical
//! (the cache stores the serialized body, wall-clock report included),
//! so caching is observable but never changes results.

pub mod admission;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionPolicy};
pub use cache::{CacheStats, ResultCache};
pub use client::{get, post, Connection, Response};
pub use http::Request;
pub use metrics::Telemetry;
pub use server::{ServeConfig, Server, MAX_FRAGMENT_REGIONS, MAX_TABLE_CELLS};
