//! The four workloads: which tenants exist, which op comes next on which
//! connection, and the closed-loop session that sends each op, waits for
//! its reply and checks it against the model.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::client::Conn;
use crate::mart::{self, Mart, Rng, DASHBOARD, MDX_QUERY};
use crate::stats::Samples;
use crate::world::{Tenant, TenantSpec, World};

/// What a client asks for in one step. `name()` is the sample key; the
/// end-to-end metrics are `<name>_p50_us` / `<name>_p95_us`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Kind {
    /// One dashboard page: the three tiles fetched back to back.
    Dash,
    ExportJson,
    ExportCsv,
    /// `point` for a tenant the entry node owns.
    Point,
    /// `point` for a tenant the other node owns (crosses the proxy hop).
    Proxy,
    Mdx,
    /// A tiny aggregate tile on a small mart (`tenant_small` only).
    Agg,
    /// Single-row INSERT.
    Write,
    /// 100-row multi-`VALUES` INSERT.
    WriteBatch,
    Checkpoint,
    /// INSERT on one connection, watch wake-up and a verified fresh
    /// dashboard page plus MDX cell on the other.
    Fresh,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dash => "dash",
            Kind::ExportJson => "export_json",
            Kind::ExportCsv => "export_csv",
            Kind::Point => "point",
            Kind::Proxy => "proxy",
            Kind::Mdx => "mdx",
            Kind::Agg => "agg",
            Kind::Write => "write",
            Kind::WriteBatch => "write_batch",
            Kind::Checkpoint => "checkpoint",
            Kind::Fresh => "fresh",
        }
    }
}

/// The kinds behind the end-to-end latency metrics, in ladder order.
pub const GATED_KINDS: [Kind; 8] = [
    Kind::Dash,
    Kind::ExportJson,
    Kind::ExportCsv,
    Kind::Point,
    Kind::Proxy,
    Kind::Mdx,
    Kind::Write,
    Kind::Fresh,
];

pub const BATCH_ROWS: usize = 100;
/// Each connection checkpoints after this many of its own statements
/// (count-triggered, so it repeats): at the seed commit's ~1 ms fsync that
/// is one or two folds per connection per world of a run.
const CHECKPOINT_EVERY: u64 = 500;
const SMALL_TENANTS: usize = 32;
/// Index of a tenant the other node owns, for the `proxy` kind off the
/// mix: `far`, or `t02` among the small tenants.
pub const FAR_TENANT: usize = 2;
/// Sessions that may write to one tenant: two connections and the probe.
const WRITERS: u64 = 3;
/// The probe session's writer id (connections are 0 and 1).
pub const PROBE_WRITER: usize = 2;
/// Rows in the `probe` mart that off-mix kinds are measured on.
pub const PROBE_ROWS: usize = 2_000;
pub const BIG_ROWS: usize = 50_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Index into the world's tenant list.
    pub tenant: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    DashRead,
    IngestDurable,
    MixedFresh,
    TenantSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DashRead,
        Workload::IngestDurable,
        Workload::MixedFresh,
        Workload::TenantSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashRead => "dash_read",
            Workload::IngestDurable => "ingest_durable",
            Workload::MixedFresh => "mixed_fresh",
            Workload::TenantSmall => "tenant_small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads. `mixed_fresh` drives its two sockets from one
    /// thread because each cycle is a hand-off between them.
    pub fn threads(self) -> usize {
        match self {
            Workload::MixedFresh => 1,
            _ => 2,
        }
    }

    /// The kinds this workload's own traffic contains. Every other gated
    /// kind is measured between the timed slices on the `probe` mart.
    pub fn mix(self) -> &'static [Kind] {
        match self {
            Workload::DashRead => &[
                Kind::Dash,
                Kind::ExportJson,
                Kind::ExportCsv,
                Kind::Point,
                Kind::Mdx,
            ],
            Workload::IngestDurable => &[Kind::Write, Kind::WriteBatch, Kind::Checkpoint],
            // a fresh cycle times its write, page and cell separately too
            Workload::MixedFresh => &[Kind::Fresh, Kind::Write, Kind::Dash, Kind::Mdx],
            Workload::TenantSmall => &[Kind::Point, Kind::Proxy, Kind::Agg, Kind::Write],
        }
    }

    /// Ops per connection sent before the first timed slice, so lazy
    /// set-up (plan, memoised batch, page cache, sockets) is paid first.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::DashRead => 30,
            Workload::IngestDurable => 300,
            Workload::MixedFresh => 8,
            Workload::TenantSmall => 600,
        }
    }

    /// Tenants to provision: the workload's own first, then `probe` (entry
    /// node) and, unless the mix already crosses nodes, `far` (other node).
    pub fn tenants(self, seed: u64) -> Vec<TenantSpec> {
        let spec = |id: &str, node, rows, customers, fsync_always, salt: u64| TenantSpec {
            id: id.to_string(),
            node,
            rows,
            customers,
            fsync_always,
            seed: seed.wrapping_mul(1_000).wrapping_add(salt),
        };
        let mut out = match self {
            Workload::DashRead | Workload::MixedFresh => {
                vec![spec("telco", 0, BIG_ROWS, 2_000, false, 0)]
            }
            // at fsync=always every loaded row costs an fsync (~1 ms here), so
            // the empty mart gets the small tenants' 200-customer dimension
            Workload::IngestDurable => vec![spec("telco", 0, 0, 200, true, 0)],
            Workload::TenantSmall => (0..SMALL_TENANTS)
                .map(|i| {
                    spec(
                        &format!("t{i:02}"),
                        small_tenant_node(i),
                        500,
                        200,
                        false,
                        i as u64,
                    )
                })
                .collect(),
        };
        out.push(spec("probe", 0, PROBE_ROWS, 2_000, false, 900));
        if self != Workload::TenantSmall {
            out.push(spec("far", 1, 500, 200, false, 901));
        }
        out
    }

    /// Index of the `probe` tenant in [`Workload::tenants`].
    pub fn probe(self) -> usize {
        match self {
            Workload::TenantSmall => SMALL_TENANTS,
            _ => 1,
        }
    }

    /// The `index`-th op of connection `conn`: a pure function, so the
    /// stream is unbounded, repeatable and identical for equal seeds.
    pub fn op_at(self, seed: u64, conn: usize, index: u64) -> Op {
        let stream = seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut r = Rng::at(stream, index);
        match self {
            Workload::DashRead => {
                // 1 page, the detail listing twice, 10 lookups, 2 cells: the
                // same every cycle, in an order drawn per cycle. In a fixed
                // order the two connections fall into step (both on their
                // 50 ms page, then both on their lookups), and what a lookup
                // costs then depends on how well in step they happen to be.
                let mut cycle = [Kind::Point; 15];
                cycle[0] = Kind::Dash;
                cycle[1] = Kind::ExportJson;
                cycle[2] = Kind::ExportCsv;
                cycle[3] = Kind::Mdx;
                cycle[4] = Kind::Mdx;
                let mut order = Rng::at(stream, index / 15);
                for i in (1..cycle.len()).rev() {
                    cycle.swap(i, order.below(i as u64 + 1) as usize);
                }
                Op {
                    kind: cycle[(index % 15) as usize],
                    tenant: 0,
                }
            }
            Workload::IngestDurable => {
                // one statement in every ten is a batch, at a place drawn per
                // ten: a batch costs forty single writes, so a share left to
                // chance would move ops_per_s with the seed
                let batch_at = Rng::at(stream, index / 10).below(10);
                let kind = if (index + 1).is_multiple_of(CHECKPOINT_EVERY) {
                    Kind::Checkpoint
                } else if index % 10 == batch_at {
                    Kind::WriteBatch
                } else {
                    Kind::Write
                };
                Op { kind, tenant: 0 }
            }
            Workload::MixedFresh => Op {
                kind: Kind::Fresh,
                tenant: 0,
            },
            Workload::TenantSmall => {
                // each connection owns every other tenant, so one tenant's
                // ops are totally ordered and its model never races
                let tenant = 2 * zipf_rank(&mut r, SMALL_TENANTS / 2) + conn;
                let kind = match r.below(100) {
                    0..=84 if small_tenant_node(tenant) == 0 => Kind::Point,
                    0..=84 => Kind::Proxy,
                    85..=94 => Kind::Agg,
                    _ => Kind::Write,
                };
                Op { kind, tenant }
            }
        }
    }
}

/// Small tenants alternate nodes in pairs, so each connection's 16
/// tenants (every other index) split evenly between the two nodes.
fn small_tenant_node(i: usize) -> usize {
    (i / 2) % 2
}

/// A rank in `0..n` drawn Zipf(1.0): rank k with weight 1/(k+1).
fn zipf_rank(r: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = r.unit() * total;
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

/// One client-side span: the socket rung of the ladder.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Serialized requests for one tenant, built once.
struct Requests {
    tiles: Vec<Vec<u8>>,
    detail_json: Vec<u8>,
    detail_csv: Vec<u8>,
    point: Vec<u8>,
    mdx: Vec<u8>,
    checkpoint: Vec<u8>,
}

/// A session's view of one tenant: its requests, its copy of the model and
/// the expected bodies derived from it (dropped on every write).
pub struct Ctx {
    pub mart: Mart,
    loaded: usize,
    written: u64,
    reqs: Requests,
    expected: BTreeMap<&'static str, Vec<u8>>,
    watch_cursor: Option<u64>,
}

impl Ctx {
    fn new(tenant: &Tenant) -> Ctx {
        let get = |name: &str, accept: &str| {
            tenant.request(
                "GET",
                &Tenant::dataset_path(name),
                &[("Accept", accept)],
                "",
            )
        };
        Ctx {
            mart: tenant.mart.clone(),
            loaded: tenant.mart.facts.len(),
            written: 0,
            reqs: Requests {
                tiles: DASHBOARD
                    .iter()
                    .map(|t| get(t, "application/json"))
                    .collect(),
                detail_json: get("detail", "application/json"),
                detail_csv: get("detail", "text/csv"),
                point: get("point", "application/json"),
                mdx: tenant.request("POST", "/api/v1/mdx", &[], MDX_QUERY),
                checkpoint: tenant.request("POST", "/api/v1/admin/checkpoint", &[], ""),
            },
            expected: BTreeMap::new(),
            watch_cursor: None,
        }
    }

    /// Rows this session inserted and the program acknowledged.
    pub fn acked(&self) -> &[mart::Fact] {
        &self.mart.facts[self.loaded..]
    }

    /// The expected body for `what`, computed from the model on first use
    /// after a write.
    fn expect(&mut self, what: &'static str) -> &[u8] {
        let mart = &self.mart;
        self.expected.entry(what).or_insert_with(|| {
            match what {
                "mdx" => mart.mdx_body(),
                "detail_csv" => mart.answer("detail").csv_body(),
                name => mart.answer(name).json_body(),
            }
            .into_bytes()
        })
    }

    /// The next `n` rows this session will insert. Sessions interleave
    /// their indices so several writers on one tenant never collide.
    fn next_rows(&self, conn: usize, n: usize) -> Vec<mart::Fact> {
        (0..n as u64)
            .map(|k| {
                let index = (self.written + k) * WRITERS + conn as u64;
                self.mart.fact_at(self.loaded as u64 + index)
            })
            .collect()
    }

    fn ack(&mut self, rows: Vec<mart::Fact>) {
        self.written += rows.len() as u64;
        rows.into_iter().for_each(|f| self.mart.push(f));
        self.expected.clear();
    }
}

/// `a == b` as bytes, or as JSON documents when the bytes differ (so an
/// encoder that reorders keys is not a wrong answer).
fn same_body(got: &[u8], want: &[u8]) -> bool {
    if got == want {
        return true;
    }
    let parse = |b: &[u8]| {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok())
    };
    matches!((parse(got), parse(want)), (Some(a), Some(b)) if same_json(&a, &b))
}

fn same_json(a: &serde_json::Value, b: &serde_json::Value) -> bool {
    use serde_json::Value::{Array, Object};
    match (a, b) {
        (Object(x), Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .all(|(k, v)| y.get(k).is_some_and(|w| same_json(v, w)))
        }
        (Array(x), Array(y)) => x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same_json(v, w)),
        _ => a == b,
    }
}

/// One closed-loop client: a connection (two for `fresh`), the tenants it
/// touches, and everything it measured.
pub struct Session<'w> {
    world: &'w World,
    conn_id: usize,
    conn: Conn,
    /// The second socket of a `fresh` cycle; reads go out on it while
    /// `reads_on_watcher` is set.
    watcher: Option<Conn>,
    reads_on_watcher: bool,
    /// Whether a `fresh` cycle also records its write, page and cell as
    /// samples of those kinds (it does in `mixed_fresh`, whose mix they are).
    pub fresh_parts: bool,
    pub ctxs: BTreeMap<usize, Ctx>,
    pub samples: Samples,
    /// HTTP responses expected / wrong, refused or missing.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Why the main connection stopped being usable, once it has.
    broken: Option<String>,
    epoch: Instant,
    pub spans: Option<Vec<Span>>,
    ops: u64,
    /// Checkpoint reports as returned by the route: (micros, tables flushed).
    pub checkpoints: Vec<(u64, u64)>,
}

impl<'w> Session<'w> {
    pub fn open(
        world: &'w World,
        conn_id: usize,
        epoch: Instant,
        trace: bool,
    ) -> Result<Session<'w>, String> {
        Ok(Session {
            world,
            conn_id,
            conn: Conn::open(world.entry()).map_err(|e| format!("connect: {e}"))?,
            watcher: None,
            reads_on_watcher: false,
            fresh_parts: true,
            ctxs: BTreeMap::new(),
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            broken: None,
            epoch,
            spans: trace.then(Vec::new),
            ops: 0,
            checkpoints: Vec::new(),
        })
    }

    pub fn world(&self) -> &'w World {
        self.world
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The main connection, for callers that time their own round trips.
    pub fn conn(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// The next row this session would insert into `tenant`, and its SQL.
    pub fn next_write(&mut self, tenant: usize) -> (Vec<mart::Fact>, String) {
        let conn_id = self.conn_id;
        let rows = self.ctx(tenant).next_rows(conn_id, 1);
        let sql = mart::insert_facts_sql(&rows);
        (rows, sql)
    }

    /// Tell the model the program acknowledged `rows`.
    pub fn ack_write(&mut self, tenant: usize, rows: Vec<mart::Fact>) {
        self.ctx(tenant).ack(rows);
    }

    pub fn ctx(&mut self, tenant: usize) -> &mut Ctx {
        let world = self.world;
        self.ctxs
            .entry(tenant)
            .or_insert_with(|| Ctx::new(&world.tenants[tenant]))
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// A request got no reply: it failed, and so will everything after it
    /// on this connection.
    fn lose_connection(&mut self, why: String) {
        self.broken = Some(why.clone());
        self.fail(why);
    }

    fn sample(&mut self, kind: Kind, start: Instant, end: Instant) {
        self.samples
            .record(kind.name(), end.duration_since(start).as_nanos() as u64);
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name: format!("socket.{}", kind.name()),
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                parent: None,
                op: self.ops,
            });
        }
    }

    /// One GET/POST with a known expected body. Returns the wall time of
    /// the round trip; a wrong or missing answer is recorded as a failure.
    fn round_trip(&mut self, tenant: usize, what: &'static str) -> Option<(Instant, Instant)> {
        self.ctx(tenant).expect(what);
        self.attempted += 1;
        let ctx = self.ctxs.get(&tenant).expect("created above");
        let request = match what {
            "detail" => &ctx.reqs.detail_json,
            "detail_csv" => &ctx.reqs.detail_csv,
            "point" => &ctx.reqs.point,
            "mdx" => &ctx.reqs.mdx,
            tile => &ctx.reqs.tiles[DASHBOARD.iter().position(|t| *t == tile).expect("a tile")],
        };
        let conn = match &mut self.watcher {
            Some(w) if self.reads_on_watcher => w,
            _ => &mut self.conn,
        };
        let start = Instant::now();
        let outcome = conn.call(request).map(|r| {
            let end = Instant::now();
            let ok = r.status == 200 && same_body(r.body, &ctx.expected[what]);
            (end, ok, r.status, r.body.len())
        });
        match outcome {
            Ok((end, true, ..)) => Some((start, end)),
            Ok((_, false, status, len)) => {
                let id = &self.world.tenants[tenant].id;
                self.fail(format!(
                    "{id}/{what}: status {status}, {len} body bytes differ from the model"
                ));
                None
            }
            Err(e) => {
                self.lose_connection(format!("{what}: {e}"));
                None
            }
        }
    }

    /// INSERT `n` generated rows; on a 200 with the right count the model
    /// takes them. Returns the round trip's wall time.
    fn insert(&mut self, tenant: usize, n: usize) -> Option<(Instant, Instant)> {
        let conn_id = self.conn_id;
        let rows = self.ctx(tenant).next_rows(conn_id, n);
        let request = self.world.tenants[tenant].sql_request(&mart::insert_facts_sql(&rows));
        let want = format!("\"rowsAffected\":{n}}}");
        self.attempted += 1;
        let start = Instant::now();
        let outcome = self.conn.call(&request).map(|r| {
            (
                r.status,
                r.status == 200 && r.body.ends_with(want.as_bytes()),
            )
        });
        let end = Instant::now();
        match outcome {
            Ok((_, true)) => {
                self.ctx(tenant).ack(rows);
                Some((start, end))
            }
            Ok((status, false)) => {
                self.fail(format!(
                    "insert of {n} rows (first order {}): status {status}",
                    rows[0].order_id
                ));
                None
            }
            Err(e) => {
                self.lose_connection(format!("insert: {e}"));
                None
            }
        }
    }

    fn checkpoint(&mut self, tenant: usize) {
        self.ctx(tenant);
        self.attempted += 1;
        let request = &self.ctxs[&tenant].reqs.checkpoint;
        let start = Instant::now();
        let outcome = self.conn.call(request).map(|r| {
            let report = std::str::from_utf8(r.body)
                .ok()
                .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok());
            (r.status, report)
        });
        let end = Instant::now();
        match outcome {
            Ok((200, Some(v))) => {
                self.checkpoints.push((
                    v["micros"].as_u64().unwrap_or(0),
                    v["tablesFlushed"].as_u64().unwrap_or(0),
                ));
                self.sample(Kind::Checkpoint, start, end);
            }
            Ok((status, _)) => self.fail(format!("checkpoint: status {status}")),
            Err(e) => self.lose_connection(format!("checkpoint: {e}")),
        }
    }

    /// One page: the three tiles in sequence, timed as a whole.
    fn dash(&mut self, tenant: usize) -> Option<(Instant, Instant)> {
        let mut span: Option<(Instant, Instant)> = None;
        for tile in DASHBOARD {
            let (s, e) = self.round_trip(tenant, tile)?;
            span = Some((span.map_or(s, |(first, _)| first), e));
        }
        span
    }

    /// Park the watcher, write on the main connection, wait for the wake,
    /// then read a page and a cell that must count the new row.
    fn fresh(&mut self, tenant: usize) -> Result<(), String> {
        let io = |e: std::io::Error| format!("watch: {e}");
        if self.watcher.is_none() {
            self.watcher = Some(Conn::open(self.world.entry()).map_err(io)?);
        }
        let watch = |cursor: u64| {
            let path = format!(
                "/api/v1/datasets/{}/watch?cursor={cursor}&timeout_ms=20000",
                DASHBOARD[0]
            );
            self.world.tenants[tenant].request("GET", &path, &[], "")
        };
        let cursor_of = |r: &crate::client::Response| {
            r.header("x-watch-cursor")
                .and_then(|c| c.parse::<u64>().ok())
                .ok_or_else(|| format!("watch: status {} without a cursor", r.status))
        };
        let cursor = match self.ctx(tenant).watch_cursor {
            Some(c) => c,
            // cursor 0 is "anything ever": it answers at once with "now"
            None => {
                let request = watch(0);
                let watcher = self.watcher.as_mut().expect("opened above");
                cursor_of(&watcher.call(&request).map_err(io)?)?
            }
        };
        self.attempted += 1;
        let request = watch(cursor);
        let watcher = self.watcher.as_mut().expect("opened above");
        watcher.send(&request).map_err(io)?;

        let Some((sent, acked)) = self.insert(tenant, 1) else {
            // the watcher is still parked: this connection pair is done
            self.failed += 1;
            return Err("fresh: the write failed with a watcher parked".into());
        };
        if self.fresh_parts {
            self.sample(Kind::Write, sent, acked);
        }

        let watcher = self.watcher.as_mut().expect("opened above");
        let woken = watcher.recv().map_err(io).and_then(|r| {
            if r.status == 200 {
                cursor_of(&r)
            } else {
                Err(format!("watch: status {} after an acked write", r.status))
            }
        });
        let wake = Instant::now();
        match woken {
            Ok(c) => self.ctx(tenant).watch_cursor = Some(c),
            Err(e) => {
                self.failed += 1;
                return Err(e);
            }
        }
        self.samples
            .record("watch_wake", wake.duration_since(acked).as_nanos() as u64);

        self.reads_on_watcher = true;
        let page = self.dash(tenant);
        let cell = self.round_trip(tenant, "mdx");
        self.reads_on_watcher = false;
        if let (Some((ps, pe)), Some((ms, me))) = (page, cell) {
            if self.fresh_parts {
                self.sample(Kind::Dash, ps, pe);
                self.sample(Kind::Mdx, ms, me);
            }
            self.sample(Kind::Fresh, sent, me);
        }
        Ok(())
    }

    /// Send one op and wait for its reply. `Err` means the connection is
    /// no longer usable and the session must stop.
    pub fn exec(&mut self, op: Op) -> Result<(), String> {
        self.ops += 1;
        let t = op.tenant;
        let timed = match op.kind {
            Kind::Dash => self.dash(t),
            Kind::ExportJson => self.round_trip(t, "detail"),
            Kind::ExportCsv => self.round_trip(t, "detail_csv"),
            Kind::Point | Kind::Proxy => self.round_trip(t, "point"),
            Kind::Mdx => self.round_trip(t, "mdx"),
            Kind::Agg => self.round_trip(t, DASHBOARD[1]),
            Kind::Write => self.insert(t, 1),
            Kind::WriteBatch => self.insert(t, BATCH_ROWS),
            Kind::Checkpoint => {
                self.checkpoint(t);
                None
            }
            Kind::Fresh => return self.fresh(t),
        };
        if let Some((start, end)) = timed {
            self.sample(op.kind, start, end);
        }
        match &self.broken {
            Some(why) => Err(why.clone()),
            None => Ok(()),
        }
    }

    /// Run the workload's stream from `first` until `deadline`; returns
    /// the index of the next op.
    pub fn run(
        &mut self,
        workload: Workload,
        seed: u64,
        first: u64,
        until: impl Fn(u64) -> bool,
    ) -> u64 {
        let mut index = first;
        while !until(index) {
            let op = workload.op_at(seed, self.conn_id, index);
            index += 1;
            if let Err(e) = self.exec(op) {
                eprintln!("connection {} stops: {e}", self.conn_id);
                break;
            }
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, conn: usize) -> String {
        (0..12_000)
            .map(|i| {
                let op = w.op_at(seed, conn, i);
                format!("{}@{};", op.kind.name(), op.tenant)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 11, 0), stream(w, 11, 0), "{}", w.name());
            assert_eq!(stream(w, 11, 1), stream(w, 11, 1), "{}", w.name());
        }
        for w in [Workload::IngestDurable, Workload::TenantSmall] {
            assert_ne!(stream(w, 11, 0), stream(w, 12, 0), "{}", w.name());
            assert_ne!(stream(w, 11, 0), stream(w, 11, 1), "{}", w.name());
        }
    }

    #[test]
    fn streams_have_the_stated_mix() {
        let count = |s: &str, k: &str| s.matches(&format!("{k}@")).count();
        let dash = stream(Workload::DashRead, 11, 0);
        assert_eq!(count(&dash, "dash"), 800);
        assert_eq!(count(&dash, "point"), 8_000);
        assert_eq!(count(&dash, "mdx"), 1_600);

        let ingest = stream(Workload::IngestDurable, 11, 0);
        assert_eq!(count(&ingest, "checkpoint"), 24);
        let batches = count(&ingest, "write_batch");
        assert!(
            (1_195..=1_200).contains(&batches),
            "one statement in ten is a batch, got {batches}"
        );

        let small = stream(Workload::TenantSmall, 11, 1);
        let reads = count(&small, "point") + count(&small, "proxy");
        assert!(
            (10_000..10_400).contains(&reads),
            "about 85 % lookups, got {reads}"
        );
        assert!(count(&small, "proxy") > 3_000, "both nodes are hit");
        // connection 1 only ever touches odd tenants
        assert!(!small.contains("@0;") && !small.contains("@2;"));
        // Zipf: the top tenant of 16 gets about 1/H16 = 30 % of the ops
        let top = small.matches("@1;").count();
        assert!((3_300..3_900).contains(&top), "top tenant share, got {top}");
    }

    #[test]
    fn every_workload_provisions_probe_and_a_far_tenant() {
        for w in Workload::ALL {
            let specs = w.tenants(11);
            assert_eq!(specs[w.probe()].id, "probe");
            assert_eq!(specs[w.probe()].rows, PROBE_ROWS);
            assert_eq!(specs[FAR_TENANT].node, 1, "{}", w.name());
            assert!(w.mix().iter().all(|k| !k.name().is_empty()));
        }
        assert!(Workload::IngestDurable.tenants(11)[0].fsync_always);
        assert_eq!(Workload::parse("mixed_fresh"), Some(Workload::MixedFresh));
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn bodies_compare_as_bytes_then_as_json() {
        assert!(same_body(b"{\"a\":1,\"b\":2}", b"{\"a\":1,\"b\":2}"));
        assert!(same_body(b"{\"b\":2,\"a\":1}", b"{\"a\":1,\"b\":2}"));
        assert!(!same_body(b"{\"a\":1,\"b\":3}", b"{\"a\":1,\"b\":2}"));
        assert!(!same_body(b"a,b\r\n1,2\r\n", b"a,b\r\n1,3\r\n"));
    }
}
