//! The platform's HTTP API: Figure 4's UI layer, serving the web-browser
//! access tool of Figure 1 and the web-service delivery channel.
//!
//! The API is versioned: every route lives under the `/api/v1` prefix —
//! there is one route tree, and any other path is a 404 envelope — and
//! the surface is self-describing: `GET /api/v1` answers with the live
//! route index (method, path, auth requirement) generated from the router
//! registrations themselves, so it cannot drift from the code the way a
//! hand-maintained table would.
//!
//! Authenticated routes read the tenant from the `x-tenant` header and the
//! session token from `Authorization: Bearer <token>` — both injected as
//! request attributes by the security filter, the Spring-Security-chain
//! analogue of the paper's architecture.
//!
//! Every response carries an `X-Request-Id` header — adopted from the
//! client's, or minted — and the same id is embedded in error envelopes
//! and recorded on every span and slow-log entry the request produces
//! (the identity filter installs it as the thread's ambient telemetry
//! context for the life of the dispatch).
//!
//! Collection routes (`/datasets`, `/admin/usage`, `/admin/slowlog`)
//! accept `?limit=` and `?cursor=` and then answer with a
//! `{"items":[...],"next_cursor":...}` page (limit defaults to
//! [`DEFAULT_PAGE_LIMIT`], cursors are opaque strings); without either
//! parameter they keep the original bare-array shape for existing
//! clients.
//!
//! `GET /api/v1/datasets/:name` content-negotiates: `Accept: text/csv`
//! streams the result as RFC-4180 CSV serialized straight from the
//! columnar batch (no row pivot); JSON (the default) answers the
//! `{"columns","rows"}` shape; any other type is a 406.
//!
//! Errors are a uniform JSON envelope
//! `{"error":{"kind","message","request_id"}}`; the status code comes
//! from [`PlatformError::http_status`] (missing resources are 404, authz
//! is 403, plan/quota is 402; per-tenant admission control answers 429
//! with `Retry-After` before the router is reached).

use std::sync::Arc;

use odbis_olap::DeltaReport;
use odbis_storage::{push_csv_record, WalStats};
use odbis_web::{HttpRequest, HttpResponse, Method, PathParams, Router};

use crate::cluster::ClusterRoute;
use crate::error::{PlatformError, PlatformResult};
use crate::platform::OdbisPlatform;

/// The current API version prefix.
pub const API_PREFIX: &str = "/api/v1";

/// Page size used when `?cursor=` is given without `?limit=`.
pub const DEFAULT_PAGE_LIMIT: usize = 100;

/// Largest accepted `?limit=`; bigger asks are a 400, not a silent clamp.
pub const MAX_PAGE_LIMIT: usize = 1_000;

/// Longest a `/datasets/:name/watch` or `/deliveries` long-poll may park
/// (`?timeout_ms=`, default 30 000). Bigger asks are a 400, mirroring
/// [`MAX_PAGE_LIMIT`].
pub const MAX_WATCH_TIMEOUT_MS: u64 = 60_000;

/// Route registrar: every registration goes through here so the route
/// table served by `GET /api/v1` is generated from the same calls that
/// populate the router — they cannot disagree.
struct ApiRoutes {
    router: Router,
    /// One `{"method","path","auth"}` entry per registration; `auth` is
    /// `"public"`, `"session"`, or the privilege the handler checks.
    index: Vec<serde_json::Value>,
}

impl ApiRoutes {
    fn new() -> Self {
        ApiRoutes {
            router: Router::new(),
            index: Vec::new(),
        }
    }

    /// Register `path` (given without the prefix) under `/api/v1`.
    fn route(
        &mut self,
        method: Method,
        path: &str,
        auth: &'static str,
        handler: impl Fn(&HttpRequest, &PathParams) -> HttpResponse + Send + Sync + 'static,
    ) {
        let path = format!("{API_PREFIX}{path}");
        self.router.route(method, &path, handler);
        self.index
            .push(serde_json::json!({ "method": method.as_str(), "path": path, "auth": auth }));
    }

    /// Register a tenant route under `/api/v1`: `handler` gets the
    /// caller's tenant and token, as the security filter stored them, and
    /// an error it returns becomes the [`error_response`].
    fn tenant(
        &mut self,
        method: Method,
        path: &str,
        auth: &'static str,
        handler: impl Fn(&str, &str, &HttpRequest, &PathParams) -> PlatformResult<HttpResponse>
            + Send
            + Sync
            + 'static,
    ) {
        self.route(method, path, auth, move |req, params| {
            let (tenant, token) = creds(req);
            handler(tenant, token, req, params).unwrap_or_else(|e| error_response(req, &e))
        });
    }

    /// Mount the index (which lists itself) at `GET /api/v1`, consuming the
    /// registrar into the finished router.
    fn finish(mut self) -> Router {
        self.index
            .push(serde_json::json!({ "method": "GET", "path": API_PREFIX, "auth": "public" }));
        let index = serde_json::json!({ "api": "v1", "routes": self.index }).to_string();
        self.router.route(Method::Get, API_PREFIX, move |_, _| {
            HttpResponse::json(index.clone())
        });
        self.router
    }
}

/// The request's path plus its re-encoded query string — the target a
/// proxy forwards to, or a `Moved` redirect points at, on another node.
fn target_with_query(req: &HttpRequest) -> String {
    let mut target = req.path.clone();
    if !req.query.is_empty() {
        let qs: Vec<String> = req
            .query
            .iter()
            .map(|(k, v)| format!("{}={}", encode_query(k), encode_query(v)))
            .collect();
        target = format!("{target}?{}", qs.join("&"));
    }
    target
}

/// Build the platform router. The returned router can be served with
/// [`odbis_web::HttpServer::start`].
pub fn build_router(platform: Arc<OdbisPlatform>) -> Router {
    let mut api = ApiRoutes::new();
    let router = &mut api.router;

    // identity filter: install the request id (ensured by the router
    // before any filter runs) as the thread's ambient telemetry context,
    // so every span and slow-log entry the request produces carries it
    router.filter(|req| {
        odbis_telemetry::set_ambient_request_id(req.request_id().map(str::to_string));
        None
    });
    // ... and tear it down after every dispatch, even a panicking one
    router.finally(|| odbis_telemetry::set_ambient_request_id(None));

    // security filter: stash tenant/token as request attributes; public
    // paths pass through, and so does anything outside the one route tree
    // (it can only be a 404)
    router.filter(|req| {
        const PUBLIC: [&str; 4] = [
            "/api/v1",
            "/api/v1/health",
            "/api/v1/login",
            "/api/v1/metrics",
        ];
        if PUBLIC.contains(&req.path.as_str()) || !req.path.starts_with(API_PREFIX) {
            return None;
        }
        let token = req
            .header("authorization")
            .and_then(|h| h.strip_prefix("Bearer "))
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_string);
        match (req.header("x-tenant").map(str::to_string), token) {
            (Some(t), Some(tok)) => {
                req.attributes.insert("tenant".into(), t);
                req.attributes.insert("token".into(), tok);
                None
            }
            _ => Some(error_envelope(
                401,
                "unauthorized",
                "x-tenant plus Authorization: Bearer <token> required",
            )),
        }
    });

    // shard-router filter: on a clustered node, requests for tenants
    // another node owns are proxied to their owner.
    // Login bodies are parsed for their tenant so a client can log in
    // against any node and still land on the owner's realm (where the
    // minted session must live); health, metrics, the API index and the
    // failpoint registry (process-global anyway) answer locally.
    // Tenant-authenticated admin routes — cluster status included —
    // follow the tenant to its owner, because that is the only node
    // whose realm can resolve the caller's session.
    let p = Arc::clone(&platform);
    router.filter(move |req| {
        p.cluster_node()?;
        const NODE_LOCAL: [&str; 4] = [
            "/api/v1",
            "/api/v1/health",
            "/api/v1/metrics",
            "/api/v1/admin/failpoints",
        ];
        if NODE_LOCAL.contains(&req.path.as_str()) {
            return None;
        }
        let tenant = match req.attributes.get("tenant") {
            Some(t) => t.clone(),
            None if req.path == "/api/v1/login" => parse_login(&req.body_text())?.0,
            None => return None,
        };
        let ClusterRoute::Remote {
            node_id: owner,
            addr,
        } = p.cluster_route(&tenant)
        else {
            return None;
        };
        let target = target_with_query(req);
        let mut fwd: Vec<(&str, &str)> = Vec::new();
        for h in [
            "x-tenant",
            "authorization",
            "content-type",
            "accept",
            "x-request-id",
        ] {
            if let Some(v) = req.header(h) {
                fwd.push((h, v));
            }
        }
        match odbis_web::http_request(&addr, req.method.as_str(), &target, &fwd, &req.body) {
            Ok((status, headers, body)) => {
                let mut resp = HttpResponse::status(status)
                    .with_header("X-Odbis-Owner", &owner)
                    .with_body(body);
                for h in ["content-type", "x-watch-cursor", "retry-after"] {
                    if let Some(v) = headers.get(h) {
                        resp = resp.with_header(h, v);
                    }
                }
                Some(resp)
            }
            Err(e) => Some(error_envelope(
                502,
                "bad_gateway",
                &format!("proxy to {owner} ({addr}) failed: {e}"),
            )),
        }
    });

    api.route(Method::Get, "/health", "public", |_, _| {
        HttpResponse::json("{\"status\":\"up\",\"platform\":\"ODBIS\",\"api\":\"v1\"}")
    });

    let p = Arc::clone(&platform);
    api.route(Method::Post, "/login", "public", move |req, _| {
        let body = req.body_text();
        let creds = parse_login(&body);
        let Some((tenant, user, password)) = creds else {
            return error_envelope(
                400,
                "bad_request",
                "body must be {\"tenant\",\"user\",\"password\"}",
            );
        };
        match p.login(&tenant, &user, &password) {
            Ok(token) => HttpResponse::json(
                serde_json::json!({ "token": token, "tenant": tenant }).to_string(),
            ),
            Err(e) => error_envelope(401, e.kind(), e.message()),
        }
    });

    let p = Arc::clone(&platform);
    api.route(Method::Get, "/metrics", "public", move |_, _| {
        let mut body = p.admin.telemetry.render_prometheus();
        // live-session gauge per tenant realm (expired sessions are swept
        // on login and excluded from the count either way)
        body.push_str("# TYPE odbis_sessions_active gauge\n");
        for tenant in p.admin.registry().tenant_ids() {
            if let Ok(realm) = p.admin.registry().realm(&tenant) {
                body.push_str(&format!(
                    "odbis_sessions_active{{tenant=\"{tenant}\"}} {}\n",
                    realm.session_count()
                ));
            }
        }
        // WAL volume per attached durable workspace, read from the log
        // that counts it
        push_tenant_counters(
            &mut body,
            &[
                (
                    "odbis_wal_appends_total",
                    "WAL statements appended (one frame each), by tenant.",
                    |s: &WalStats| s.appends,
                ),
                (
                    "odbis_wal_bytes_total",
                    "WAL bytes appended (frames included), by tenant.",
                    |s| s.bytes,
                ),
            ],
            &p.wal_stats(),
        );
        // aggregate maintenance per workspace, summed where publications
        // apply their deltas
        push_tenant_counters(
            &mut body,
            &[
                (
                    "odbis_aggregate_folds_total",
                    "Insert deltas folded into materialized aggregates (once per aggregate), by tenant.",
                    |r: &DeltaReport| r.folded as u64,
                ),
                (
                    "odbis_aggregate_rebuilds_total",
                    "Materialized aggregates rebuilt from the warehouse, by tenant.",
                    |r| r.rebuilt as u64,
                ),
            ],
            &p.aggregate_stats(),
        );
        // admission-control verdicts per tenant, counted at the server edge
        body.push_str(&p.admission.render_prometheus());
        // fault-injection counters ride on the same scrape endpoint
        body.push_str(&odbis_chaos::render_prometheus());
        HttpResponse::status(200)
            .with_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            .with_body(body)
    });

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Post,
        "/sql",
        "ETL_DESIGN",
        move |tenant, token, req, _| {
            let result = p.sql(tenant, token, &req.body_text())?;
            Ok(HttpResponse::json(result_json(&result)))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/datasets",
        "DATASET_RUN",
        move |tenant, token, req, _| {
            let names = p.dataset_names(tenant, token)?;
            Ok(paginate(
                req,
                names.into_iter().map(serde_json::Value::String).collect(),
            ))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/datasets/:name",
        "DATASET_RUN",
        move |tenant, token, req, params| {
            // `.get` rather than indexing: a route-table edit that renames
            // the segment must degrade to a 400, not a worker panic
            let Some(name) = params.get("name") else {
                return Ok(error_envelope(400, "bad_request", "missing dataset name"));
            };
            Ok(match negotiate(req) {
                Negotiated::Json => {
                    HttpResponse::json(result_json(&p.execute_dataset(tenant, token, name)?))
                }
                Negotiated::Csv => {
                    let (columns, batch) = p.execute_dataset_batch(tenant, token, name)?;
                    csv_response(&columns, &batch)
                }
                Negotiated::Unsupported => error_envelope(
                    406,
                    "not_acceptable",
                    "unsupported Accept type; this route serves application/json or text/csv",
                ),
            })
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/datasets/:name/watch",
        "DATASET_RUN",
        move |tenant, token, req, params| {
            let Some(name) = params.get("name") else {
                return Ok(error_envelope(400, "bad_request", "missing dataset name"));
            };
            let (cursor, timeout) = match long_poll_params(req) {
                Ok(params) => params,
                Err(resp) => return Ok(resp),
            };
            let (hub, keys) = p.watch_dataset(tenant, token, name)?;
            let (placeholder, slot) = HttpResponse::deferred();
            let dataset = name.to_string();
            hub.subscribe(
                keys,
                cursor,
                timeout,
                Box::new(move |outcome| {
                    let cursor_text = outcome.cursor.to_string();
                    let response = if outcome.changed {
                        HttpResponse::json(
                            serde_json::json!({
                                "dataset": dataset,
                                "changed": true,
                                "cursor": outcome.cursor,
                            })
                            .to_string(),
                        )
                    } else {
                        // nothing moved before the deadline: 204 with the
                        // caller's cursor echoed so the next poll resumes
                        // from exactly the same point
                        HttpResponse::status(204)
                    };
                    slot.fulfill(response.with_header("X-Watch-Cursor", &cursor_text));
                }),
            );
            Ok(placeholder)
        },
    );

    // the caller's own deliveries after `?cursor=` (an outbox seq): at once
    // when there are any, else parked until the next one or the timeout
    // (204, cursor echoed), on the same contract as the dataset watch
    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/deliveries",
        "REPORT_VIEW",
        move |tenant, token, req, _| {
            let (cursor, timeout) = match long_poll_params(req) {
                Ok(params) => params,
                Err(resp) => return Ok(resp),
            };
            let poll = p.deliveries(tenant, token, cursor)?;
            if poll.is_news() {
                return Ok(deliveries_response(&poll.read));
            }
            let (placeholder, slot) = HttpResponse::deferred();
            poll.park(timeout, move |read| {
                slot.fulfill(match read {
                    Some(read) => deliveries_response(&read),
                    None => {
                        HttpResponse::status(204).with_header("X-Watch-Cursor", &cursor.to_string())
                    }
                })
            });
            Ok(placeholder)
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Post,
        "/mdx",
        "CUBE_QUERY",
        move |tenant, token, req, _| {
            let cells = p.mdx(tenant, token, &req.body_text())?;
            let rows: Vec<serde_json::Value> = cells
                .cells
                .iter()
                .map(|(coords, measures)| {
                    serde_json::json!({
                        "coords": coords.iter().map(|v| v.render()).collect::<Vec<_>>(),
                        "measures": measures.iter().map(|v| v.render()).collect::<Vec<_>>(),
                    })
                })
                .collect();
            Ok(HttpResponse::json(
                serde_json::json!({
                    "axes": cells.axis_names,
                    "measures": cells.measure_names,
                    "cells": rows,
                })
                .to_string(),
            ))
        },
    );

    // the three admin reads answer the caller's own tenant only
    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/admin/usage",
        "ADMIN_USERS",
        move |tenant, token, req, _| {
            let lines = p.tenant_usage(tenant, token)?;
            let lines = lines
                .into_iter()
                .map(|l| {
                    serde_json::json!({
                        "tenant": l.tenant,
                        "service": l.service,
                        "units": l.units,
                    })
                })
                .collect();
            Ok(paginate(req, lines))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/admin/invoice",
        "ADMIN_USERS",
        move |tenant, token, _, _| {
            let lines: Vec<serde_json::Value> = p
                .tenant_invoice(tenant, token)?
                .into_iter()
                .map(|l| {
                    serde_json::json!({
                        "tenant": l.tenant,
                        "service": l.service,
                        "units": l.units,
                        "requests": l.requests,
                        "errors": l.errors,
                        "rows": l.rows,
                        "bytes": l.bytes,
                        "cpuMicros": l.cpu_micros,
                        "millicents": l.millicents,
                    })
                })
                .collect();
            Ok(HttpResponse::json(
                serde_json::Value::Array(lines).to_string(),
            ))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/admin/slowlog",
        "ADMIN_USERS",
        move |tenant, token, req, _| {
            let entries = p.tenant_slowlog(tenant, token)?;
            let entries = entries
                .into_iter()
                .map(|e| {
                    serde_json::json!({
                        "tenant": e.tenant,
                        "service": e.service,
                        "operation": e.operation,
                        "detail": e.detail,
                        "durationMicros": e.duration_micros,
                        "traceId": e.trace_id,
                        "requestId": e.request_id,
                    })
                })
                .collect();
            Ok(paginate(req, entries))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/admin/durability",
        "ADMIN_CONFIG",
        move |tenant, token, _, _| {
            let s = p.durability_status(tenant, token)?;
            Ok(HttpResponse::json(
                serde_json::json!({
                    "tenant": s.tenant,
                    "fsync": s.fsync,
                    "walAppends": s.wal_appends,
                    "walBytes": s.wal_bytes,
                    "walFileLen": s.wal_file_len,
                    "nextLsn": s.next_lsn,
                })
                .to_string(),
            ))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Post,
        "/admin/checkpoint",
        "ADMIN_CONFIG",
        move |tenant, token, _, _| {
            let o = p.checkpoint_tenant(tenant, token)?;
            Ok(HttpResponse::json(
                serde_json::json!({
                    "tenant": o.tenant,
                    "tables": o.tables,
                    "tablesFlushed": o.tables_flushed,
                    "walBytesFolded": o.wal_bytes_folded,
                    "micros": o.micros,
                })
                .to_string(),
            ))
        },
    );

    // The three node-level admin routes authorize bare, outside the gate:
    // failpoints and the cluster map belong to the node, not the tenant,
    // and a migration takes the tenant's fence for writing, which it must
    // not do from inside a read fence.
    let p = Arc::clone(&platform);
    api.tenant(
        Method::Post,
        "/admin/failpoints",
        "ADMIN_CONFIG",
        move |tenant, token, req, _| {
            p.authorize(tenant, token, "ADMIN_CONFIG")?;
            // fault injection is opt-in: the endpoint is inert unless the
            // operator flipped `chaos.enabled` (never on by default)
            if !matches!(
                p.admin.config.get(tenant, "chaos.enabled"),
                Ok(odbis_admin::ConfigValue::Bool(true))
            ) {
                return Ok(error_envelope(
                    403,
                    "security",
                    "fault injection is disabled (set chaos.enabled = true)",
                ));
            }
            let spec = req.body_text();
            let spec = spec.trim();
            let applied = match spec {
                "clear" => {
                    odbis_chaos::clear();
                    0
                }
                "list" => 0,
                _ => match odbis_chaos::apply_spec(spec) {
                    Ok(n) => n,
                    Err(e) => return Ok(error_envelope(400, "config", &e)),
                },
            };
            let sites: Vec<serde_json::Value> = odbis_chaos::snapshot()
                .into_iter()
                .map(|(site, policy, hits, triggered)| {
                    serde_json::json!({
                        "site": site,
                        "policy": policy,
                        "hits": hits,
                        "triggered": triggered,
                    })
                })
                .collect();
            Ok(HttpResponse::json(
                serde_json::json!({ "applied": applied, "sites": sites }).to_string(),
            ))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Get,
        "/admin/cluster",
        "ADMIN_CONFIG",
        move |tenant, token, _, _| {
            p.authorize(tenant, token, "ADMIN_CONFIG")?;
            let Some((node_id, map)) = p.cluster_node() else {
                return Ok(HttpResponse::json(
                    serde_json::json!({
                        "clustered": false,
                        "node": serde_json::Value::Null,
                        "epoch": 0,
                        "nodes": serde_json::Value::Array(Vec::new()),
                        "pins": serde_json::Value::Object(serde_json::Map::new()),
                    })
                    .to_string(),
                ));
            };
            let nodes: Vec<serde_json::Value> = map
                .nodes()
                .into_iter()
                .map(|(id, addr)| {
                    serde_json::json!({ "id": id, "addr": addr, "local": id == node_id })
                })
                .collect();
            let pins = serde_json::Value::Object(
                map.pins()
                    .into_iter()
                    .map(|(t, n)| (t, serde_json::Value::String(n)))
                    .collect(),
            );
            Ok(HttpResponse::json(
                serde_json::json!({
                    "clustered": true,
                    "node": node_id,
                    "epoch": map.epoch(),
                    "nodes": nodes,
                    "pins": pins,
                })
                .to_string(),
            ))
        },
    );

    let p = Arc::clone(&platform);
    api.tenant(
        Method::Post,
        "/admin/migrate",
        "ADMIN_CONFIG",
        move |tenant, token, req, _| {
            p.authorize(tenant, token, "ADMIN_CONFIG")?;
            let body: serde_json::Value = match serde_json::from_str(&req.body_text()) {
                Ok(v) => v,
                Err(_) => {
                    return Ok(error_envelope(
                        400,
                        "bad_request",
                        "body must be JSON {\"target\": \"<node id>\"}",
                    ))
                }
            };
            let Some(target) = body.get("target").and_then(|v| v.as_str()) else {
                return Ok(error_envelope(
                    400,
                    "bad_request",
                    "missing \"target\" node id",
                ));
            };
            // migration is tenant-scoped: the authenticated admin moves
            // their own tenant, so the shard router has already landed
            // this request on the source node
            if body
                .get("tenant")
                .and_then(|v| v.as_str())
                .is_some_and(|t| t != tenant)
            {
                return Ok(error_envelope(
                    403,
                    "security",
                    "a tenant admin can only migrate their own tenant",
                ));
            }
            let Some(fabric) = p.cluster_fabric() else {
                return Ok(error_envelope(
                    503,
                    "unavailable",
                    "this node is not part of a cluster fabric",
                ));
            };
            let r = fabric.migrate(tenant, target)?;
            Ok(HttpResponse::json(
                serde_json::json!({
                    "tenant": r.tenant,
                    "from": r.from,
                    "to": r.to,
                    "checkpointLsn": r.checkpoint_lsn,
                    "tailFrames": r.tail_frames,
                    "tailLastLsn": r.tail_last_lsn,
                    "sessionsAdopted": r.sessions_adopted,
                    "epoch": r.epoch,
                })
                .to_string(),
            ))
        },
    );

    api.finish()
}

/// A Prometheus counter family: name, help text, and how to read a
/// tenant's sample off its stats.
type CounterFamily<S> = (&'static str, &'static str, fn(&S) -> u64);

/// Append one Prometheus counter family per `(name, help, read)`, with
/// one sample per `(tenant, stats)`.
fn push_tenant_counters<S>(
    body: &mut String,
    families: &[CounterFamily<S>],
    per_tenant: &[(String, S)],
) {
    for (name, help, read) in families {
        body.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for (tenant, stats) in per_tenant {
            body.push_str(&format!("{name}{{tenant=\"{tenant}\"}} {}\n", read(stats)));
        }
    }
}

/// Percent-encode a query key/value for the proxy's re-assembled
/// request line (the router stores them decoded).
fn encode_query(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Serve the platform API over HTTP with the platform's per-tenant
/// admission control wired into the server edge: requests carrying an
/// `x-tenant` header are rate-gated against the tenant's `limits.*`
/// settings before a worker picks them up, and over-limit callers get a
/// 429 envelope with `Retry-After`.
pub fn serve_platform(
    platform: &Arc<OdbisPlatform>,
    workers: usize,
) -> std::io::Result<odbis_web::HttpServer> {
    odbis_web::HttpServer::builder(build_router(Arc::clone(platform)))
        .workers(workers)
        .admission(Arc::clone(&platform.admission))
        .start()
}

/// A long-poll's `?cursor=` (where the client's previous poll left off;
/// default 0) and `?timeout_ms=` (how long to park, default 30 000 and at
/// most [`MAX_WATCH_TIMEOUT_MS`] so a watcher cannot hold its slot
/// forever), or the 400 envelope naming the bad one.
fn long_poll_params(req: &HttpRequest) -> Result<(u64, std::time::Duration), HttpResponse> {
    let cursor = match req.query_param("cursor") {
        None => 0,
        Some(s) => s.parse::<u64>().map_err(|_| {
            error_envelope(400, "bad_request", "cursor must be an unsigned integer")
        })?,
    };
    let timeout_ms = match req.query_param("timeout_ms") {
        None => 30_000,
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|n| *n <= MAX_WATCH_TIMEOUT_MS)
            .ok_or_else(|| {
                error_envelope(
                    400,
                    "bad_request",
                    &format!("timeout_ms must be an integer in 0..={MAX_WATCH_TIMEOUT_MS}"),
                )
            })?,
    };
    Ok((cursor, std::time::Duration::from_millis(timeout_ms)))
}

/// `{"entries":[{"seq","report","contentType","body"}],"missed","cursor"}`
/// with the next cursor in `X-Watch-Cursor`.
fn deliveries_response(read: &odbis_delivery::OutboxRead) -> HttpResponse {
    let entries: Vec<serde_json::Value> = read
        .entries
        .iter()
        .map(|e| {
            serde_json::json!({
                "seq": e.seq,
                "report": e.report,
                "contentType": e.delivered.content_type,
                "body": e.delivered.body,
            })
        })
        .collect();
    HttpResponse::json(
        serde_json::json!({ "entries": entries, "missed": read.missed, "cursor": read.cursor })
            .to_string(),
    )
    .with_header("X-Watch-Cursor", &read.cursor.to_string())
}

/// Parse a login body: JSON `{"tenant","user","password"}`.
fn parse_login(body: &str) -> Option<(String, String, String)> {
    let v = serde_json::from_str::<serde_json::Value>(body).ok()?;
    let field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
    Some((field("tenant")?, field("user")?, field("password")?))
}

/// The caller's tenant and session token, as the security filter stored
/// them.
fn creds(req: &HttpRequest) -> (&str, &str) {
    let attribute = |key| req.attributes.get(key).map_or("", String::as_str);
    (attribute("tenant"), attribute("token"))
}

/// Answer a collection route. Without `?limit=` or `?cursor=` the
/// response is the original bare JSON array (existing clients parse
/// that); with either parameter it is a `{"items":[...],"next_cursor"}`
/// page. Cursors are opaque to clients — today they encode the offset of
/// the next page — and `next_cursor` is `null` on the last page. A
/// malformed limit or cursor is a 400 envelope, not an empty page.
fn paginate(req: &HttpRequest, items: Vec<serde_json::Value>) -> HttpResponse {
    let (limit_param, cursor_param) = (req.query_param("limit"), req.query_param("cursor"));
    if limit_param.is_none() && cursor_param.is_none() {
        return HttpResponse::json(serde_json::Value::Array(items).to_string());
    }
    let limit = match limit_param {
        None => DEFAULT_PAGE_LIMIT,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if (1..=MAX_PAGE_LIMIT).contains(&n) => n,
            _ => {
                return error_envelope(
                    400,
                    "bad_request",
                    &format!("limit must be an integer in 1..={MAX_PAGE_LIMIT}"),
                )
            }
        },
    };
    let offset = match cursor_param {
        None => 0,
        Some(s) => match s.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return error_envelope(400, "bad_request", "invalid cursor"),
        },
    };
    let total = items.len();
    let page: Vec<serde_json::Value> = items.into_iter().skip(offset).take(limit).collect();
    let next = offset.saturating_add(page.len());
    let next_cursor = if next < total {
        serde_json::json!(next.to_string())
    } else {
        serde_json::Value::Null
    };
    HttpResponse::json(serde_json::json!({ "items": page, "next_cursor": next_cursor }).to_string())
}

/// What the client's `Accept` header asks a data route to produce.
enum Negotiated {
    Json,
    Csv,
    Unsupported,
}

/// First supported media range wins, in the order the client listed them;
/// a missing or empty `Accept` means JSON. Quality parameters are ignored
/// (order expresses preference in every client this API serves).
fn negotiate(req: &HttpRequest) -> Negotiated {
    let Some(accept) = req.header("accept") else {
        return Negotiated::Json;
    };
    if accept.trim().is_empty() {
        return Negotiated::Json;
    }
    for item in accept.split(',') {
        let media = item
            .split(';')
            .next()
            .unwrap_or("")
            .trim()
            .to_ascii_lowercase();
        match media.as_str() {
            "application/json" | "application/*" | "*/*" => return Negotiated::Json,
            "text/csv" | "text/*" => return Negotiated::Csv,
            _ => {}
        }
    }
    Negotiated::Unsupported
}

/// Serialize a columnar batch as CSV — header row of column names, then
/// one line per row, values rendered column-at-a-time straight from the
/// batch (no intermediate row pivot or JSON tree).
fn csv_response(columns: &[String], batch: &odbis_storage::Batch) -> HttpResponse {
    let mut out = String::new();
    push_csv_record(&mut out, columns, "\r\n");
    for row in 0..batch.num_rows() {
        let fields = batch.columns().iter().map(|c| c.value(row).render());
        push_csv_record(&mut out, fields, "\r\n");
    }
    HttpResponse::status(200)
        .with_header("Content-Type", "text/csv; charset=utf-8")
        .with_body(out)
}

fn result_json(result: &odbis_sql::QueryResult) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect())
        .collect();
    serde_json::json!({
        "columns": result.columns,
        "rows": rows,
        "rowsAffected": result.rows_affected,
    })
    .to_string()
}

/// The single place HTTP error bodies are produced: a JSON envelope
/// `{"error":{"kind":...,"message":...,"request_id":...}}`. The request
/// id comes from the thread's ambient telemetry context, which the
/// identity filter installed for the duration of the dispatch.
fn error_envelope(status: u16, kind: &str, message: &str) -> HttpResponse {
    let request_id = odbis_telemetry::ambient_request_id().unwrap_or_default();
    HttpResponse::status(status)
        .with_header("Content-Type", "application/json")
        .with_body(
            serde_json::json!({
                "error": serde_json::json!({
                    "kind": kind,
                    "message": message,
                    "request_id": request_id,
                }),
            })
            .to_string(),
        )
}

/// The response to a tenant route's error: its envelope, with the
/// request at the owner node as the `Location` of a [`PlatformError::Moved`]
/// 307. The shard-router filter runs *before* dispatch, so a request
/// routed here just before a migration cutover flip reaches its handler
/// with the workspace already detached.
fn error_response(req: &HttpRequest, e: &PlatformError) -> HttpResponse {
    let mut resp = error_envelope(e.http_status(), e.kind(), e.message());
    if let PlatformError::Moved { node_id, addr, .. } = e {
        let location = format!("http://{addr}{}", target_with_query(req));
        resp = resp
            .with_header("X-Odbis-Owner", node_id)
            .with_header("Location", &location);
    }
    if e.is_retryable() {
        // a wedged store is transient: tell well-behaved clients when to
        // come back instead of letting them hammer the 503
        resp.with_header("Retry-After", "1")
    } else {
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbis_metadata::DataSet;
    use odbis_tenancy::SubscriptionPlan;
    use odbis_web::{http_get, http_request, HttpServer};

    fn serve() -> (HttpServer, Arc<OdbisPlatform>, String) {
        let platform = Arc::new(OdbisPlatform::new());
        platform
            .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = platform.login("acme", "root", "pw").unwrap();
        let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
        (server, platform, token)
    }

    #[test]
    fn health_is_public() {
        let (server, _p, _t) = serve();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/api/v1/health").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"up\""));
    }

    fn assert_envelope(status: u16, body: &str, want_status: u16, want_kind: &str) {
        assert_eq!(status, want_status, "{body}");
        let v: serde_json::Value = serde_json::from_str(body)
            .unwrap_or_else(|_| panic!("body is not a JSON envelope: {body}"));
        assert_eq!(v["error"]["kind"], want_kind, "{body}");
        assert!(v["error"]["message"].as_str().is_some(), "{body}");
        assert!(v["error"]["request_id"].as_str().is_some(), "{body}");
    }

    /// The pre-`/api/v1` surface is gone, not redirected: the unprefixed
    /// paths are plain route misses (with or without credentials), the
    /// `x-token` header authenticates nobody, and a whitespace login body
    /// is malformed.
    #[test]
    fn retired_surface_answers_with_error_envelopes() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let bearer = format!("Bearer {token}");
        let authed = [("x-tenant", "acme"), ("Authorization", bearer.as_str())];
        for (method, path, body) in [
            ("POST", "/login", "acme root pw"),
            ("GET", "/datasets", ""),
            ("POST", "/sql", "SELECT 1"),
            ("GET", "/health", ""),
        ] {
            for headers in [&authed[..], &[]] {
                let (status, _, resp) =
                    http_request(&addr, method, path, headers, body.as_bytes()).unwrap();
                assert_envelope(status, &resp, 404, "not_found");
            }
        }
        let (status, _, resp) = http_request(
            &addr,
            "GET",
            "/api/v1/datasets",
            &[("x-tenant", "acme"), ("x-token", token.as_str())],
            b"",
        )
        .unwrap();
        assert_envelope(status, &resp, 401, "unauthorized");
        let (status, resp) = odbis_web::http_post(&addr, "/api/v1/login", "acme root pw").unwrap();
        assert_envelope(status, &resp, 400, "bad_request");
    }

    #[test]
    fn login_accepts_json_bodies_only() {
        let (server, _p, _t) = serve();
        let addr = server.addr().to_string();
        let (status, body) = odbis_web::http_post(
            &addr,
            "/api/v1/login",
            "{\"tenant\":\"acme\",\"user\":\"root\",\"password\":\"pw\"}",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("token"));
        // wrong password → 401 with the error envelope
        let (status, body) = odbis_web::http_post(
            &addr,
            "/api/v1/login",
            "{\"tenant\":\"acme\",\"user\":\"root\",\"password\":\"no\"}",
        )
        .unwrap();
        assert_eq!(status, 401);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "security");
        // malformed body → 400
        let (status, _) = odbis_web::http_post(&addr, "/api/v1/login", "short").unwrap();
        assert_eq!(status, 400);
        let (status, _) =
            odbis_web::http_post(&addr, "/api/v1/login", "{\"tenant\":\"acme\"}").unwrap();
        assert_eq!(status, 400);
    }

    #[test]
    fn protected_routes_require_credentials() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/api/v1/datasets").unwrap();
        assert_eq!(status, 401);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "unauthorized");
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/datasets", &token, "");
        assert_eq!(status, 200);
        assert_eq!(body, "[]");
    }

    #[test]
    fn bearer_token_is_accepted() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let bearer = format!("Bearer {token}");
        let (status, _, body) = http_request(
            &addr,
            "GET",
            "/api/v1/datasets",
            &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
            b"",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "[]");
        // a forged bearer token is authenticated-but-denied: 403
        let (status, _, _) = http_request(
            &addr,
            "GET",
            "/api/v1/datasets",
            &[("x-tenant", "acme"), ("Authorization", "Bearer forged")],
            b"",
        )
        .unwrap();
        assert_eq!(status, 403);
    }

    fn with_auth(
        addr: &str,
        method: &str,
        path: &str,
        token: &str,
        body: &str,
    ) -> (u16, String, ()) {
        let bearer = format!("Bearer {token}");
        let (status, _, resp) = http_request(
            addr,
            method,
            path,
            &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
            body.as_bytes(),
        )
        .unwrap();
        (status, resp, ())
    }

    #[test]
    fn sql_and_dataset_round_trip_over_http() {
        let (server, platform, token) = serve();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(
            &addr,
            "POST",
            "/api/v1/sql",
            &token,
            "CREATE TABLE kpis (name TEXT, v INT)",
        );
        assert_eq!(status, 200);
        let (status, _, _) = with_auth(
            &addr,
            "POST",
            "/api/v1/sql",
            &token,
            "INSERT INTO kpis VALUES ('churn', 7)",
        );
        assert_eq!(status, 200);
        platform
            .define_dataset(
                "acme",
                &token,
                DataSet {
                    name: "kpis".into(),
                    source: "warehouse".into(),
                    sql: "SELECT name, v FROM kpis".into(),
                    description: String::new(),
                },
            )
            .unwrap();
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/datasets/kpis", &token, "");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["rows"][0][0], "churn");
        // missing dataset → 404 with the not_found envelope
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/datasets/ghost", &token, "");
        assert_eq!(status, 404);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "not_found");
        // usage visible to the admin
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/admin/usage", &token, "");
        assert_eq!(status, 200);
        assert!(body.contains("MDS"));
    }

    #[test]
    fn metrics_scrape_reflects_traffic() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(&addr, "POST", "/api/v1/sql", &token, "SELECT 1");
        assert_eq!(status, 200);
        let (status, body) = http_get(&addr, "/api/v1/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE odbis_requests_total counter"));
        assert!(body.contains("tenant=\"acme\""));
        assert!(body.contains("service=\"MDS\""));
        assert!(body.contains("odbis_latency_seconds_bucket"));
    }

    /// Every route family, fed garbage: the answer is always a structured
    /// 4xx JSON envelope, never a 5xx and never a panicked worker.
    #[test]
    fn malformed_requests_get_envelopes_not_panics() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let cases: [(&str, &str, &str); 6] = [
            ("POST", "/api/v1/sql", "SELEKT ) FROM ((("),
            ("POST", "/api/v1/sql", "\u{0}\u{fffd}{{{{"),
            ("POST", "/api/v1/mdx", "not mdx at all ]["),
            ("GET", "/api/v1/datasets/%00%ff", ""),
            ("GET", "/api/v1/datasets/..%2F..%2Fetc", ""),
            ("POST", "/api/v1/admin/failpoints", "no.such.site=???"),
        ];
        for (method, path, body) in cases {
            let (status, resp, _) = with_auth(&addr, method, path, &token, body);
            assert!(
                (400..500).contains(&status),
                "{method} {path} answered {status}: {resp}"
            );
            let v: serde_json::Value = serde_json::from_str(&resp)
                .unwrap_or_else(|_| panic!("{method} {path} body is not JSON: {resp}"));
            assert!(
                v["error"]["kind"].as_str().is_some() && v["error"]["message"].as_str().is_some(),
                "{method} {path} missing envelope: {resp}"
            );
        }
        // the server survived all of it
        let (status, _) = http_get(&addr, "/api/v1/health").unwrap();
        assert_eq!(status, 200);
    }

    /// Raw non-UTF-8 bytes in a body must not take down the connection
    /// handler; the SQL engine sees the lossy decoding and rejects it.
    #[test]
    fn binary_body_is_rejected_cleanly() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let bearer = format!("Bearer {token}");
        let (status, _, body) = http_request(
            &addr,
            "POST",
            "/api/v1/sql",
            &[("x-tenant", "acme"), ("Authorization", bearer.as_str())],
            &[0xff, 0xfe, 0x00, 0x80, 0xc3],
        )
        .unwrap();
        assert!((400..500).contains(&status), "got {status}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(v["error"]["kind"].as_str().is_some());
    }

    #[test]
    fn metrics_exposes_live_session_gauge() {
        let (server, platform, _token) = serve();
        let addr = server.addr().to_string();
        // serve() already logged root in once; a second login adds one more
        let _ = platform.login("acme", "root", "pw").unwrap();
        let (status, body) = http_get(&addr, "/api/v1/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE odbis_sessions_active gauge"));
        assert!(
            body.contains("odbis_sessions_active{tenant=\"acme\"} 2"),
            "gauge line missing or wrong: {body}"
        );
    }

    #[test]
    fn invoice_requires_admin_and_prices_usage() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(&addr, "POST", "/api/v1/sql", &token, "SELECT 1");
        assert_eq!(status, 200);
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/admin/invoice", &token, "");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let lines = v.as_array().unwrap();
        assert!(lines
            .iter()
            .any(|l| l["tenant"] == "acme" && l["service"] == "MDS"));
        // a forged token cannot read invoices
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/admin/invoice", "forged", "");
        assert_eq!(status, 403);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "security");
    }

    #[test]
    fn durability_endpoints_round_trip() {
        let dir = std::env::temp_dir().join(format!("odbis-webapi-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let platform = Arc::new(OdbisPlatform::with_data_dir(&dir));
        platform
            .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = platform.login("acme", "root", "pw").unwrap();
        let server = HttpServer::start(build_router(Arc::clone(&platform)), 2).unwrap();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(
            &addr,
            "POST",
            "/api/v1/sql",
            &token,
            "CREATE TABLE t (x INT)",
        );
        assert_eq!(status, 200);
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/admin/durability", &token, "");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["tenant"], "acme");
        assert!(v["walAppends"].as_i64().unwrap() >= 1);
        let (status, body, _) = with_auth(&addr, "POST", "/api/v1/admin/checkpoint", &token, "");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(v["walBytesFolded"].as_i64().unwrap() > 0);
        // after the checkpoint the log is empty again
        let (status, body, _) = with_auth(&addr, "GET", "/api/v1/admin/durability", &token, "");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["walFileLen"].as_i64().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_endpoints_error_without_a_data_dir() {
        let (server, _p, token) = serve();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(&addr, "GET", "/api/v1/admin/durability", &token, "");
        assert_eq!(status, 500);
        let (status, _, _) = with_auth(&addr, "POST", "/api/v1/admin/checkpoint", &token, "");
        assert_eq!(status, 500);
    }

    #[test]
    fn forged_token_is_forbidden() {
        let (server, _p, _token) = serve();
        let addr = server.addr().to_string();
        let (status, _, _) = with_auth(&addr, "POST", "/api/v1/sql", "forged", "SELECT 1");
        assert_eq!(status, 403);
    }

    #[test]
    fn failpoints_endpoint_is_gated_then_arms_sites() {
        // serialize against other chaos-touching tests; the armed site name
        // is private to this test so parallel tests are unaffected
        let _x = odbis_chaos::exclusive();
        odbis_chaos::clear();
        let (server, p, token) = serve();
        let addr = server.addr().to_string();
        let spec = "webapi.test=err-every-nth(5)";
        // off by default: the endpoint refuses even the admin
        let (status, body, _) = with_auth(&addr, "POST", "/api/v1/admin/failpoints", &token, spec);
        assert_eq!(status, 403);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"], "security");
        // the operator opts in
        p.admin.config.set("chaos.enabled", true.into()).unwrap();
        let (status, body, _) = with_auth(&addr, "POST", "/api/v1/admin/failpoints", &token, spec);
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["applied"], 1);
        assert_eq!(v["sites"][0]["site"], "webapi.test");
        // malformed specs are rejected with the envelope
        let (status, body, _) =
            with_auth(&addr, "POST", "/api/v1/admin/failpoints", &token, "garbage");
        assert_eq!(status, 400);
        assert!(body.contains("\"error\""));
        // list leaves the registry untouched; clear empties it
        let (status, body, _) =
            with_auth(&addr, "POST", "/api/v1/admin/failpoints", &token, "list");
        assert_eq!(status, 200);
        assert!(body.contains("webapi.test"));
        let (status, body, _) =
            with_auth(&addr, "POST", "/api/v1/admin/failpoints", &token, "clear");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(v["sites"].as_array().unwrap().is_empty());
        // non-admin credentials never reach the registry
        let (status, _, _) = with_auth(&addr, "POST", "/api/v1/admin/failpoints", "forged", spec);
        assert_eq!(status, 403);
        odbis_chaos::clear();
    }

    fn cluster_tmp(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "odbis-webapi-cluster-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// The tentpole end to end over real HTTP: a two-node cluster where
    /// the non-owner proxies to the owner, `/api/v1/admin/cluster`
    /// reports the map, `POST /api/v1/admin/migrate` moves the live
    /// tenant, and afterwards the old owner transparently proxies to the
    /// new one — same token, no lost rows.
    #[test]
    fn cluster_routes_proxies_and_migrates_over_http() {
        let root = cluster_tmp("e2e");
        let fabric = crate::Cluster::new();
        let node_a = fabric.add_node("node-a", root.join("a")).unwrap();
        let node_b = fabric.add_node("node-b", root.join("b")).unwrap();
        let srv_a = HttpServer::start(build_router(Arc::clone(&node_a)), 2).unwrap();
        let srv_b = HttpServer::start(build_router(Arc::clone(&node_b)), 2).unwrap();
        fabric.map().set_addr("node-a", &srv_a.addr().to_string());
        fabric.map().set_addr("node-b", &srv_b.addr().to_string());

        let owner = fabric
            .provision_tenant("acme", "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let (owner_addr, other_addr, other_id) = if owner == "node-a" {
            (srv_a.addr().to_string(), srv_b.addr().to_string(), "node-b")
        } else {
            (srv_b.addr().to_string(), srv_a.addr().to_string(), "node-a")
        };

        // login lands on the owner's realm no matter which node takes it
        let (status, body) = odbis_web::http_post(
            &other_addr,
            "/api/v1/login",
            "{\"tenant\":\"acme\",\"user\":\"root\",\"password\":\"pw\"}",
        )
        .unwrap();
        assert_eq!(status, 200, "proxied login: {body}");
        let token = serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
            .as_str()
            .unwrap()
            .to_string();
        let bearer = format!("Bearer {token}");

        // writes through the non-owner are proxied (and marked as such)
        let (status, headers, body) = http_request(
            &other_addr,
            "POST",
            "/api/v1/sql",
            &[("x-tenant", "acme"), ("Authorization", &bearer)],
            b"CREATE TABLE kv (k INT, v TEXT)",
        )
        .unwrap();
        assert_eq!(status, 200, "proxied create: {body}");
        assert_eq!(
            headers.get("x-odbis-owner").map(String::as_str),
            Some(owner.as_str())
        );
        for i in 0..4 {
            let (status, _, _) = http_request(
                &other_addr,
                "POST",
                "/api/v1/sql",
                &[("x-tenant", "acme"), ("Authorization", &bearer)],
                format!("INSERT INTO kv VALUES ({i}, 'v{i}')").as_bytes(),
            )
            .unwrap();
            assert_eq!(status, 200);
        }
        // ... and the same request on the owner is served locally
        let (status, headers, _) = http_request(
            &owner_addr,
            "POST",
            "/api/v1/sql",
            &[("x-tenant", "acme"), ("Authorization", &bearer)],
            b"SELECT COUNT(*) FROM kv",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(!headers.contains_key("x-odbis-owner"));

        // the cluster map is visible from any node
        let (status, _, body) = http_request(
            &other_addr,
            "GET",
            "/api/v1/admin/cluster",
            &[("x-tenant", "acme"), ("Authorization", &bearer)],
            b"",
        )
        .unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["clustered"], true);
        assert_eq!(v["nodes"].as_array().unwrap().len(), 2);

        // live migration to the other node, requested over HTTP
        let (status, _, body) = http_request(
            &owner_addr,
            "POST",
            "/api/v1/admin/migrate",
            &[("x-tenant", "acme"), ("Authorization", &bearer)],
            format!("{{\"target\":\"{other_id}\"}}").as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200, "migrate: {body}");
        let report: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(report["from"], owner.as_str());
        assert_eq!(report["to"], other_id);

        // the old owner now proxies to the new one; the session survived
        let (status, headers, body) = http_request(
            &owner_addr,
            "POST",
            "/api/v1/sql",
            &[("x-tenant", "acme"), ("Authorization", &bearer)],
            b"SELECT COUNT(*) FROM kv",
        )
        .unwrap();
        assert_eq!(status, 200, "post-migration query: {body}");
        assert_eq!(
            headers.get("x-odbis-owner").map(String::as_str),
            Some(other_id)
        );
        assert!(body.contains('4'), "all four rows survived: {body}");

        let _ = std::fs::remove_dir_all(&root);
    }
}
