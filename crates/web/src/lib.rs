//! # odbis-web
//!
//! The web tier of the ODBIS platform — the reproduction's substitute for
//! the Apache Tomcat container and JSF presentation layer of the paper's
//! technical architecture (§3.3), serving the "web browser" access tool of
//! the end-users layer (§3.1).
//!
//! A real HTTP/1.1 server over `std::net`: a hand-rolled epoll **reactor**
//! (edge-triggered event loop; idle keep-alive connections cost a file
//! descriptor, not a thread) hands parsed requests to a bounded worker
//! pool. Per-tenant [`AdmissionControl`] (token-bucket rate + queue-depth
//! backpressure) gates requests at parse time, and every request carries
//! an `X-Request-Id` end to end. Routing supports `:param` segments plus a
//! filter (middleware) chain; a matching minimal client supports tests and
//! the delivery service's web-service channel.
//!
//! Supported targets: Linux on x86_64 and aarch64 — the reactor issues its
//! epoll syscalls directly, and those are the two ABIs it knows.
//!
//! ```
//! use odbis_web::{http_get, HttpResponse, HttpServer, Method, Router};
//!
//! let mut router = Router::new();
//! router.route(Method::Get, "/ping", |_, _| HttpResponse::text("pong"));
//! let server = HttpServer::start(router, 2).unwrap();
//! let (status, body) = http_get(&server.addr().to_string(), "/ping").unwrap();
//! assert_eq!((status, body.as_str()), (200, "pong"));
//! ```

#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("odbis-web serves HTTP from an epoll reactor: supported targets are Linux x86_64 and Linux aarch64");

mod admission;
mod client;
mod http;
mod reactor;
mod router;
mod server;

pub use admission::{Admission, AdmissionControl, TenantLimits, MAX_RETRY_AFTER_SECS};
pub use client::{http_get, http_get_accept, http_post, http_request};
pub use http::{
    generate_request_id, percent_decode, percent_decode_query, HttpRequest, HttpResponse, Method,
    RequestParser, ResponseSlot, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
pub use reactor::HttpServer;
pub use router::{Filter, Finalizer, Handler, PathParams, Router};
pub use server::ServerBuilder;
