//! # ascc-serve — HTTP service substrate for the control plane
//!
//! The repo's batch binaries become a resident cache-as-a-service through
//! a deliberately small, dependency-free HTTP layer (deps stay vendored;
//! no async runtime — the workload is a handful of control-plane requests
//! per second, so a thread per connection over blocking sockets is the
//! right amount of machinery):
//!
//! * [`http`] — an HTTP/1.1 listener ([`http::HttpServer`]) with
//!   thread-per-connection dispatch, request parsing ([`http::Request`])
//!   and response building ([`http::Response`]), plus a tiny blocking
//!   client ([`http::request`]) so tests and scripts need no curl;
//! * [`prometheus`] — a text-exposition-format writer
//!   ([`prometheus::MetricsText`]) and a strict format linter
//!   ([`prometheus::lint`]) that CI runs against every `/metrics` scrape.
//!
//! The daemon *application* (job management, journal tailing, `/metrics`
//! assembly) lives in `ascc_bench::serve`; this crate owns only the
//! protocol substrate so lower layers can reuse it without pulling in the
//! experiment harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod http;
pub mod prometheus;
