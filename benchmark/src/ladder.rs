//! The traced run's ladder: each op kind replayed down a ladder of public
//! calls on the live platform — socket round trip, `Router::dispatch`,
//! the `OdbisPlatform` call, the metadata service, the SQL engine, its
//! three stages, the storage calls underneath — with a span around every
//! call. A layer's self time is its rung's median minus the rung below.
//!
//! The rungs of one repetition run back to back, so every rung of an op
//! sees the same cache state, and on two-connection workloads the other
//! connection keeps sending its stream meanwhile, so rungs see the
//! contention the end-to-end numbers saw. Nothing here edits the product:
//! spans live in this file, around calls into each layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odbis::build_router;
use odbis_sql::ast::Statement;
use odbis_sql::optimizer::{self, RuleSet};
use odbis_sql::{planner, Engine};
use odbis_storage::{Database, FsyncPolicy, Value, Wal, WalRecord};
use odbis_tenancy::ServiceKind;
use odbis_web::{HttpRequest, RequestParser};

use crate::bench::Options;
use crate::mart::{Fact, Mart, MDX_QUERY};
use crate::metrics::LADDER_KINDS;
use crate::stats::Samples;
use crate::workload::{Kind, Session, Span, Workload};
use crate::world::{o2p_aggregate_axes, o2p_aggregate_measures, Tenant};

/// Per-layer values by metric name, with the sample count behind each.
pub struct Layers {
    pub values: BTreeMap<String, (f64, usize)>,
    rungs: Samples,
    primary: &'static str,
}

/// Per-layer values the run's crash check measures, not the ladder.
#[derive(Default)]
pub struct Elsewhere {
    /// The incremental checkpoint before the crash tail, from its report.
    pub checkpoint_us: f64,
    pub tables_flushed: f64,
    /// Size of the tenant's directory right after that checkpoint.
    pub checkpoint_bytes: f64,
    pub recover_us: f64,
    pub recover_wal_bytes: f64,
}

/// Wall-clock allowance for one unit's repetitions.
const UNIT_BUDGET: Duration = Duration::from_millis(1_000);
const MAX_REPS: usize = 200;
const MIN_REPS: usize = 5;

/// Records one timed call as a sample and a span.
struct Tracer<'a> {
    rungs: Samples,
    /// Bytes on the wire of each unit's response.
    resp_bytes: BTreeMap<String, usize>,
    spans: &'a mut Vec<Span>,
    epoch: Instant,
    op: u64,
    /// The span of the rung above in the current repetition.
    parent: Option<usize>,
}

impl Tracer<'_> {
    fn begin_op(&mut self) {
        self.op += 1;
        self.parent = None;
    }

    /// Time `call`, record it under `name`, and make it the parent of the
    /// next rung. Returns whatever the call returned.
    fn rung<T>(&mut self, name: &str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(call());
        let end = Instant::now();
        self.rungs
            .record(name, end.duration_since(start).as_nanos() as u64);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: self.parent,
            op: self.op,
        });
        self.parent = Some(self.spans.len() - 1);
        value
    }

    /// A measurement beside the ladder (no parent, not a parent).
    fn side<T>(&mut self, name: &str, call: impl FnOnce() -> T) -> T {
        let keep = self.parent.take();
        let value = self.rung(name, call);
        self.parent = keep;
        value
    }
}

/// Repeat `body` until the unit's budget or repetition cap is reached.
fn repeat(reps: usize, mut body: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    for done in 0..reps {
        if done >= MIN_REPS && started.elapsed() > UNIT_BUDGET {
            break;
        }
        body()?;
    }
    Ok(())
}

fn parse_request(bytes: &[u8]) -> Result<HttpRequest, String> {
    let mut parser = RequestParser::new();
    parser.feed(bytes);
    parser
        .try_next()?
        .ok_or_else(|| "incomplete request".to_string())
}

fn fact_values(f: &Fact) -> Vec<Value> {
    f.cells().iter().map(|&c| Value::Int(c)).collect()
}

fn expect_ok<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("ladder: {what}: {e}"))
}

/// The tenant the ladder's writes go to: the workload's own when its mix
/// writes there anyway, else the probe mart, so a read-only workload's
/// mart (and the model the other connection checks against) stays as loaded.
fn write_tenant(workload: Workload) -> usize {
    if workload.mix().contains(&Kind::Write) {
        0
    } else {
        workload.probe()
    }
}

/// Exact counts, taken while nothing else runs on the platform: telemetry
/// spans opened by one `point` dataset call, and WAL records appended by
/// one single-row INSERT statement.
pub fn quiet_counts(
    workload: Workload,
    session: &mut Session,
) -> Result<BTreeMap<String, (f64, usize)>, String> {
    let world = session.world();
    let (p, t) = (&world.nodes[0].platform, &world.tenants[0]);
    // few enough ops that none of their spans falls off the recent-span ring
    let ops = 20usize;
    let newest =
        |spans: &[odbis_telemetry::SpanRecord]| spans.iter().map(|s| s.span_id).max().unwrap_or(0);
    let before = newest(&p.admin.telemetry.recent_spans());
    for _ in 0..ops {
        expect_ok("point", p.execute_dataset(&t.id, &t.token, "point"))?;
    }
    let opened = p
        .admin
        .telemetry
        .recent_spans()
        .iter()
        .filter(|s| s.span_id > before)
        .count();

    let tenant = write_tenant(workload);
    let t = &world.tenants[tenant];
    let appends = |p: &odbis::OdbisPlatform| {
        expect_ok("durability status", p.durability_status(&t.id, &t.token)).map(|s| s.wal_appends)
    };
    let before = appends(p)?;
    for _ in 0..ops {
        let (rows, sql) = session.next_write(tenant);
        expect_ok("insert", p.sql(&t.id, &t.token, &sql))?;
        session.ack_write(tenant, rows);
    }
    let appended = appends(p)? - before;
    Ok(BTreeMap::from([
        (
            "telemetry.spans_per_op".to_string(),
            (opened as f64 / ops as f64, ops),
        ),
        (
            "storage.wal_appends_per_stmt".to_string(),
            (appended as f64 / ops as f64, ops),
        ),
    ]))
}

/// Climb the ladder for every unit on the workload's first tenant,
/// through `session`'s connection and model.
pub fn climb(
    workload: Workload,
    opts: &Options,
    session: &mut Session,
    spans: &mut Vec<Span>,
) -> Result<Layers, String> {
    let tenant = 0;
    let world = session.world();
    let t: &Tenant = &world.tenants[tenant];
    let p = Arc::clone(&world.nodes[0].platform);
    let ws = expect_ok("workspace", p.workspace(&t.id))?;
    let db = Arc::clone(&ws.warehouse);
    let router = build_router(Arc::clone(&p));
    let engine = Engine::new();
    let rules = RuleSet::all();
    let reps = opts.scaled(MAX_REPS);
    let mut tr = Tracer {
        rungs: Samples::default(),
        resp_bytes: BTreeMap::new(),
        spans,
        epoch: session.epoch(),
        op: 1_000_000_000,
        parent: None,
    };
    let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();

    // ---- read units: one dataset each, JSON or CSV ---------------------------
    let datasets: BTreeMap<&str, String> = Mart::datasets().into_iter().collect();
    let units: [(&str, &str, bool); 6] = [
        ("lead_time_by_month", "lead_time_by_month", false),
        ("ontime_by_channel", "ontime_by_channel", false),
        ("top_customers", "top_customers", false),
        ("export_json", "detail", false),
        ("export_csv", "detail", true),
        ("point", "point", false),
    ];
    for (unit, dataset, csv) in units {
        let sql = datasets[dataset].as_str();
        let accept = if csv { "text/csv" } else { "application/json" };
        let request = t.request(
            "GET",
            &Tenant::dataset_path(dataset),
            &[("Accept", accept)],
            "",
        );
        let n = |rung: &str| format!("{unit}.{rung}");
        repeat(reps, || {
            tr.begin_op();
            let status = tr.rung(&n("socket"), || {
                session.conn().call(&request).map(|r| r.status)
            });
            if !matches!(status, Ok(200)) {
                return Err(format!("ladder: {unit} over the socket: {status:?}"));
            }
            let parsed = tr.side(&n("http_parse"), || parse_request(&request))?;
            let response = tr.rung(&n("dispatch"), || router.dispatch(parsed));
            if response.status != 200 {
                return Err(format!(
                    "ladder: {unit} dispatch: status {}",
                    response.status
                ));
            }
            let wire = tr.side(&n("http_encode"), || response.to_bytes(true));
            tr.resp_bytes.insert(unit.to_string(), wire.len());
            if csv {
                expect_ok(
                    unit,
                    tr.rung(&n("platform"), || {
                        p.execute_dataset_batch(&t.id, &t.token, dataset)
                    }),
                )?;
                expect_ok(
                    unit,
                    tr.rung(&n("mds"), || ws.mds.execute_dataset_batch(dataset)),
                )?;
            } else {
                expect_ok(
                    unit,
                    tr.rung(&n("platform"), || {
                        p.execute_dataset(&t.id, &t.token, dataset)
                    }),
                )?;
                expect_ok(unit, tr.rung(&n("mds"), || ws.mds.execute_dataset(dataset)))?;
                expect_ok(unit, tr.rung(&n("engine"), || engine.execute(&db, sql)))?;
            }
            expect_ok(
                unit,
                tr.rung(&n("select_batch"), || engine.execute_select_batch(&db, sql)),
            )?;
            let stmt = expect_ok(unit, tr.rung(&n("parse"), || odbis_sql::parse(sql)))?;
            let Statement::Select(select) = stmt else {
                return Err(format!("ladder: {dataset} is not a SELECT"));
            };
            let plan = expect_ok(
                unit,
                tr.side(&n("plan"), || planner::plan_select(&db, &select)),
            )?;
            tr.side(&n("optimize"), || {
                optimizer::optimize(plan, &db, true, &rules)
            });
            Ok(())
        })?;
    }

    // ---- MDX -------------------------------------------------------------------
    let mdx_request = t.request("POST", "/api/v1/mdx", &[], MDX_QUERY);
    let mdx = expect_ok("mdx", odbis_olap::parse_mdx(MDX_QUERY))?;
    repeat(reps, || {
        tr.begin_op();
        let status = tr.rung("mdx.socket", || {
            session.conn().call(&mdx_request).map(|r| r.status)
        });
        if !matches!(status, Ok(200)) {
            return Err(format!("ladder: mdx over the socket: {status:?}"));
        }
        let parsed = tr.side("mdx.http_parse", || parse_request(&mdx_request))?;
        let response = tr.rung("mdx.dispatch", || router.dispatch(parsed));
        let wire = tr.side("mdx.http_encode", || response.to_bytes(true));
        tr.resp_bytes.insert("mdx".to_string(), wire.len());
        expect_ok(
            "mdx",
            tr.rung("mdx.platform", || p.mdx(&t.id, &t.token, MDX_QUERY)),
        )?;
        tr.rung("mdx.olap", || {
            ws.agg_cache.read().try_answer(&mdx.cube, &mdx.query)
        })
        .ok_or("ladder: the materialized aggregate does not answer the MDX query")?;
        Ok(())
    })?;

    // ---- from here on the ladder writes ------------------------------------------
    let tenant = write_tenant(workload);
    let t: &Tenant = &world.tenants[tenant];
    let ws = expect_ok("workspace", p.workspace(&t.id))?;
    let db = Arc::clone(&ws.warehouse);

    // ---- single-row INSERT: every rung writes a row of its own -------------------
    let scratch_db = Database::new();
    for sql in Mart::schema_sql() {
        expect_ok("scratch schema", engine.execute(&scratch_db, &sql))?;
    }
    let wal_dir = world.root.join("ladder-wal");
    expect_ok("scratch wal dir", std::fs::create_dir_all(&wal_dir))?;
    let wal_never = expect_ok(
        "scratch wal",
        Wal::open(wal_dir.join("never.log"), FsyncPolicy::Never, 1),
    )?;
    let wal_always = expect_ok(
        "scratch wal",
        Wal::open(wal_dir.join("always.log"), FsyncPolicy::Always, 1),
    )?;
    repeat(reps, || {
        tr.begin_op();
        let (rows, sql) = session.next_write(tenant);
        let request = t.sql_request(&sql);
        let status = tr.rung("write.socket", || {
            session.conn().call(&request).map(|r| r.status)
        });
        if !matches!(status, Ok(200)) {
            return Err(format!("ladder: write over the socket: {status:?}"));
        }
        session.ack_write(tenant, rows);

        let (rows, sql) = session.next_write(tenant);
        let request = t.sql_request(&sql);
        let parsed = tr.side("write.http_parse", || parse_request(&request))?;
        let response = tr.rung("write.dispatch", || router.dispatch(parsed));
        if response.status != 200 {
            return Err(format!(
                "ladder: write dispatch: status {}",
                response.status
            ));
        }
        let wire = tr.side("write.http_encode", || response.to_bytes(true));
        tr.resp_bytes.insert("write".to_string(), wire.len());
        session.ack_write(tenant, rows);

        let (rows, sql) = session.next_write(tenant);
        expect_ok(
            "write",
            tr.rung("write.platform", || p.sql(&t.id, &t.token, &sql)),
        )?;
        session.ack_write(tenant, rows);

        let (rows, sql) = session.next_write(tenant);
        expect_ok(
            "write",
            tr.rung("write.engine", || engine.execute(&db, &sql)),
        )?;
        tr.side("write.publish", || ws.publish_deltas());
        let record = WalRecord::Insert {
            table: "fact_order".into(),
            row: fact_values(&rows[0]),
        };
        expect_ok(
            "write",
            tr.rung("write.insert", || {
                scratch_db.insert("fact_order", fact_values(&rows[0]))
            }),
        )?;
        expect_ok(
            "write",
            tr.rung("write.wal_append", || wal_never.append_record(&record)),
        )?;
        expect_ok(
            "write",
            tr.side("write.wal_append_fsync", || {
                wal_always.append_record(&record)
            }),
        )?;
        session.ack_write(tenant, rows);
        Ok(())
    })?;
    // exact for a seed: the same 500 generated rows on a scratch log
    let fixed = Mart::new(opts.seed, 2_000);
    let wal_fixed = expect_ok(
        "scratch wal",
        Wal::open(wal_dir.join("fixed.log"), FsyncPolicy::Never, 1),
    )?;
    for i in 0..500 {
        let record = WalRecord::Insert {
            table: "fact_order".into(),
            row: fact_values(&fixed.fact_at(i)),
        };
        expect_ok("scratch append", wal_fixed.append_record(&record))?;
    }
    values.insert(
        "storage.wal_bytes_per_row".into(),
        (wal_fixed.stats().bytes as f64 / 500.0, 500),
    );

    // ---- beside the ladder: fixed costs of single calls --------------------------
    let health = crate::client::request("GET", "/api/v1/health", &[], "");
    repeat(reps, || {
        let status = tr.side("rtt_floor", || {
            session.conn().call(&health).map(|r| r.status)
        });
        matches!(status, Ok(200))
            .then_some(())
            .ok_or(format!("ladder: health: {status:?}"))
    })?;
    repeat(reps, || {
        tr.side("admit", || {
            p.admission.admit(&t.id);
            p.admission.complete(&t.id);
        });
        expect_ok(
            "authorize",
            tr.side("authorize", || p.authorize(&t.id, &t.token, "DATASET_RUN")),
        )?;
        tr.side("meter", || {
            p.admin.meter_usage(&t.id, ServiceKind::Metadata, 1)
        });
        tr.side("span_pair", || {
            drop(p.admin.telemetry.span(&t.id, "MDS", "bench.span", 250))
        });
        Ok(())
    })?;
    repeat(opts.scaled(MAX_REPS) / 10, || {
        expect_ok(
            "login",
            tr.side("login", || p.login(&t.id, "root", crate::world::PASSWORD)),
        )
        .map(drop)
    })?;
    // ---- scans: memo valid, then right after one insert --------------------------
    repeat(reps, || {
        expect_ok("scan", tr.side("scan_warm", || db.scan_batch("fact_order"))).map(drop)
    })?;
    repeat(reps / 4, || {
        let (rows, _) = session.next_write(tenant);
        expect_ok("insert", db.insert("fact_order", fact_values(&rows[0])))?;
        ws.publish_deltas();
        session.ack_write(tenant, rows);
        expect_ok("scan", tr.side("scan_cold", || db.scan_batch("fact_order"))).map(drop)
    })?;

    // ---- delta fold: publish with the aggregate registered, then without ---------
    ws.agg_cache.write().clear();
    repeat(reps, || {
        let (rows, sql) = session.next_write(tenant);
        expect_ok("insert", engine.execute(&db, &sql))?;
        tr.side("publish_noagg", || ws.publish_deltas());
        session.ack_write(tenant, rows);
        Ok(())
    })?;
    repeat(3, || {
        ws.agg_cache.write().clear();
        expect_ok(
            "materialize",
            tr.side("rebuild", || {
                p.materialize_aggregate(
                    &t.id,
                    &t.token,
                    "o2p",
                    o2p_aggregate_axes(),
                    o2p_aggregate_measures(),
                )
            }),
        )
        .map(drop)
    })?;

    // ---- what recording the spans costs ------------------------------------------
    let primary = match workload {
        Workload::DashRead => "export_json",
        Workload::IngestDurable => "write",
        Workload::MixedFresh => "lead_time_by_month",
        Workload::TenantSmall => "point",
    };
    let point = t.request("GET", &Tenant::dataset_path("point"), &[], "");
    let mut untraced = Samples::default();
    repeat(reps, || {
        let start = Instant::now();
        let status = session.conn().call(&point).map(|r| r.status);
        untraced.record("point", start.elapsed().as_nanos() as u64);
        matches!(status, Ok(200))
            .then_some(())
            .ok_or(format!("ladder: point: {status:?}"))?;
        let status = tr.side("point.socket_again", || {
            session.conn().call(&point).map(|r| r.status)
        });
        matches!(status, Ok(200))
            .then_some(())
            .ok_or(format!("ladder: point: {status:?}"))
    })?;
    let traced = tr.rungs.p50("point.socket_again").expect("sampled above");
    let plain = untraced.p50("point").expect("sampled above");
    values.insert("trace.overhead_share".into(), (traced / plain - 1.0, reps));

    values.insert("web.resp_bytes".into(), (tr.resp_bytes[primary] as f64, 1));
    Ok(Layers {
        values,
        rungs: tr.rungs,
        primary,
    })
}

impl Layers {
    fn med(&self, rung: &str) -> (f64, usize) {
        let s = self
            .rungs
            .summary(rung)
            .unwrap_or_else(|| panic!("the ladder has no rung {rung}"));
        (s.p50, s.n)
    }

    /// Every rung's summary, for the waterfall table.
    pub fn rung_summaries(&self) -> Vec<(String, crate::stats::Summary)> {
        self.rungs
            .kinds()
            .filter_map(|k| Some((k.to_string(), self.rungs.summary(k)?)))
            .collect()
    }

    /// A kind's rung: a dashboard page is its three tiles in sequence.
    pub fn kind_rung(&self, kind: &str, rung: &str) -> (f64, usize) {
        if kind == "dash" {
            let tiles = crate::mart::DASHBOARD.map(|tile| self.med(&format!("{tile}.{rung}")));
            (tiles.iter().map(|t| t.0).sum(), tiles[0].1)
        } else {
            self.med(&format!("{kind}.{rung}"))
        }
    }

    /// Turn rung medians into the per-layer metrics, folding in what the
    /// run's other phases measured (watch wake-up, proxy hop, checkpoint,
    /// recovery).
    pub fn finish(&mut self, main: &Samples, off_mix: &Samples, elsewhere: &Elsewhere) {
        type V = (f64, usize);
        let diff = |a: V, b: V| (a.0 - b.0, a.1.min(b.1));
        let med = |rung: &str| self.med(rung);
        let of_primary = |rung: &str| self.med(&format!("{}.{rung}", self.primary));
        // a kind's median as the timed slices saw it, else the probe passes
        let seen = |kind: &str| {
            let samples = if main.summary(kind).is_some() {
                main
            } else {
                off_mix
            };
            samples.summary(kind).map_or((0.0, 0), |s| (s.p50, s.n))
        };
        let mut out: Vec<(String, V)> = vec![
            ("web.rtt_floor_us".into(), med("rtt_floor")),
            ("web.parse_us".into(), of_primary("http_parse")),
            ("web.encode_us".into(), of_primary("http_encode")),
            ("web.admit_us".into(), med("admit")),
            (
                "core.gate_us".into(),
                diff(med("point.platform"), med("point.mds")),
            ),
            ("core.publish_us".into(), med("write.publish")),
            ("core.watch_wake_us".into(), seen("watch_wake")),
            ("core.proxy_us".into(), diff(seen("proxy"), seen("point"))),
            ("security.authorize_us".into(), med("authorize")),
            ("security.login_us".into(), med("login")),
            ("tenancy.meter_us".into(), med("meter")),
            (
                "metadata.self_us".into(),
                diff(med("point.mds"), med("point.engine")),
            ),
            ("sql.parse_us".into(), med("point.parse")),
            ("sql.plan_us".into(), med("point.plan")),
            ("sql.optimize_us".into(), med("point.optimize")),
            (
                "sql.pivot_us".into(),
                diff(med("export_json.engine"), med("export_json.select_batch")),
            ),
            ("storage.scan_warm_us".into(), med("scan_warm")),
            ("storage.scan_cold_us".into(), med("scan_cold")),
            ("storage.insert_us".into(), med("write.insert")),
            ("storage.wal_append_us".into(), med("write.wal_append")),
            (
                "storage.wal_fsync_us".into(),
                diff(med("write.wal_append_fsync"), med("write.wal_append")),
            ),
            ("storage.checkpoint_us".into(), (elsewhere.checkpoint_us, 1)),
            (
                "storage.tables_flushed".into(),
                (elsewhere.tables_flushed, 1),
            ),
            (
                "storage.checkpoint_bytes".into(),
                (elsewhere.checkpoint_bytes, 1),
            ),
            ("storage.recover_us".into(), (elsewhere.recover_us, 1)),
            (
                "storage.recover_wal_bytes".into(),
                (elsewhere.recover_wal_bytes, 1),
            ),
            ("olap.mdx_us".into(), med("mdx.platform")),
            (
                "olap.fold_us".into(),
                diff(med("write.publish"), med("publish_noagg")),
            ),
            ("olap.rebuild_us".into(), med("rebuild")),
            ("telemetry.span_pair_us".into(), med("span_pair")),
        ];
        for kind in LADDER_KINDS {
            let [socket, dispatch, platform] =
                ["socket", "dispatch", "platform"].map(|r| self.kind_rung(kind, r));
            out.push((format!("web.self_us.{kind}"), diff(socket, dispatch)));
            out.push((format!("core.self_us.{kind}"), diff(dispatch, platform)));
        }
        // execution proper: the batch-returning call minus the three stages
        for (dataset, unit) in [
            ("lead_time_by_month", "lead_time_by_month"),
            ("ontime_by_channel", "ontime_by_channel"),
            ("top_customers", "top_customers"),
            ("detail", "export_json"),
            ("point", "point"),
        ] {
            let stages: f64 = ["parse", "plan", "optimize"]
                .iter()
                .map(|s| med(&format!("{unit}.{s}")).0)
                .sum();
            let batch = med(&format!("{unit}.select_batch"));
            out.push((
                format!("sql.exec_us.{dataset}"),
                (batch.0 - stages, batch.1),
            ));
        }
        self.values.extend(out);
    }
}

/// Write the spans out as one JSON document.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
