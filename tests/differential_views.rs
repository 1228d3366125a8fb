//! Differential harness for data set views: seeded random sequences of
//! warehouse writes run through the platform, and after *every* step each
//! data set's platform answer must equal `Engine::execute` of its SQL on
//! the same warehouse, as rows and as the CSV bytes the HTTP export
//! writes. The data sets a view keeps are also read with their views made
//! stale, through the plan, and the JSON and CSV bodies of both reads must
//! be the same bytes. The steps are fact inserts (one row and several),
//! UPDATE and DELETE, dimension inserts and updates, NULL and duplicate
//! join keys, and DROP and re-CREATE of a dimension table — in one batch,
//! so the view's rebuild plans its SQL again over the moved columns, and
//! in two statements, so the first drops the view. The fold and rebuild
//! counters the metrics endpoint serves are checked after every step: a
//! fact insert folds into every view once and rebuilds none.
//!
//! Pinned steps then reach what the random mix reaches only by chance: two
//! groups tie on the sorted measure, a measure that is NULL in some groups
//! is sorted, and a group crosses a `LIMIT 20` boundary in each direction.
//!
//! One data set per clause a view refuses (WHERE, LEFT JOIN, a DISTINCT
//! aggregate, no GROUP BY, an ORDER BY without every GROUP BY column, a
//! source other than the warehouse) rides along: it must have no view and
//! answer what its SQL does.
//!
//! The seeds are the chaos suite's replay constants; a failure prints the
//! seed, sequence and step so it can be replayed exactly.

use std::collections::BTreeSet;
use std::sync::Arc;

use odbis::{build_router, OdbisPlatform};
use odbis_metadata::{DataSet, DataSource};
use odbis_sql::Engine;
use odbis_storage::{push_csv_record, Value};
use odbis_tenancy::SubscriptionPlan;
use odbis_web::{HttpRequest, Method, Router};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
/// Sequences per seed — ≥100 total across both seeds.
const SEQUENCES_PER_SEED: usize = 60;
/// Steps per sequence, each followed by a full differential check.
const STEPS_PER_SEQUENCE: usize = 8;

const TENANT: &str = "acme";

/// The data sets a view keeps: name, SQL, and the dimension tables it
/// joins.
const VIEWS: [(&str, &str, &[&str]); 7] = [
    (
        "by_ga",
        "SELECT d.ga, COUNT(*) AS n, SUM(f.v) AS s, AVG(f.w) AS m \
         FROM f JOIN dim_a d ON f.a = d.ka GROUP BY d.ga ORDER BY d.ga",
        &["dim_a"],
    ),
    (
        "by_ga_gb",
        "SELECT d.ga, e.gb, MIN(f.t) AS lo, MAX(f.v) AS hi, COUNT(f.w) AS c \
         FROM f JOIN dim_a d ON f.a = d.ka JOIN dim_b e ON e.kb = f.b \
         GROUP BY d.ga, e.gb ORDER BY e.gb DESC, d.ga",
        &["dim_a", "dim_b"],
    ),
    (
        "top_a",
        "SELECT a, SUM(v) AS s FROM f GROUP BY a ORDER BY s DESC, a LIMIT 3",
        &[],
    ),
    (
        "having",
        "SELECT d.ha, SUM(f.v) AS s FROM f JOIN dim_a d ON f.a = d.ka \
         GROUP BY d.ha HAVING COUNT(*) > 1 ORDER BY d.ha",
        &["dim_a"],
    ),
    (
        "expr",
        "SELECT f.b, COUNT(*) * 2 AS twice, MAX(d.ha) AS top \
         FROM f JOIN dim_a d ON f.a = d.ka GROUP BY f.b ORDER BY f.b",
        &["dim_a"],
    ),
    (
        "top_20",
        "SELECT a, SUM(v) AS s FROM f GROUP BY a ORDER BY s DESC, a LIMIT 20",
        &[],
    ),
    (
        "null_measure",
        "SELECT b, SUM(w) AS sw, MIN(t) AS lo FROM f GROUP BY b ORDER BY sw DESC, lo, b",
        &[],
    ),
];

/// One data set per clause a view refuses: name, source, SQL.
const REFUSED: [(&str, &str, &str); 6] = [
    (
        "where",
        "warehouse",
        "SELECT a, COUNT(*) AS n FROM f WHERE v > 0 GROUP BY a ORDER BY a",
    ),
    (
        "left_join",
        "warehouse",
        "SELECT d.ga, COUNT(*) AS n FROM f LEFT JOIN dim_a d ON f.a = d.ka \
         GROUP BY d.ga ORDER BY d.ga",
    ),
    (
        "distinct",
        "warehouse",
        "SELECT a, COUNT(DISTINCT v) AS n FROM f GROUP BY a ORDER BY a",
    ),
    (
        "global",
        "warehouse",
        "SELECT COUNT(*) AS n, SUM(v) AS s FROM f",
    ),
    (
        "partial_order",
        "warehouse",
        "SELECT a, b, SUM(v) AS s FROM f GROUP BY a, b ORDER BY a, s",
    ),
    (
        "mirror",
        "mirror",
        "SELECT a, SUM(v) AS s FROM f GROUP BY a ORDER BY a",
    ),
];

struct Harness {
    p: Arc<OdbisPlatform>,
    router: Router,
    token: String,
    /// The views expected fresh: every view, less those a two-statement
    /// DROP of a table they join has dropped.
    live: BTreeSet<&'static str>,
    next_id: i64,
}

impl Harness {
    fn boot() -> Harness {
        let p = Arc::new(OdbisPlatform::new());
        p.provision_tenant(TENANT, "Acme", SubscriptionPlan::standard(), "root", "pw")
            .unwrap();
        let token = p.login(TENANT, "root", "pw").unwrap();
        let h = Harness {
            router: build_router(Arc::clone(&p)),
            p,
            token,
            live: VIEWS.iter().map(|(name, ..)| *name).collect(),
            next_id: 1,
        };
        for sql in [
            "CREATE TABLE dim_a (ka INT, ga TEXT, ha INT)",
            "INSERT INTO dim_a VALUES (1, 'x', 10), (2, 'y', 20), (3, 'x', 30), (NULL, 'n', 40)",
            "CREATE TABLE dim_b (kb INT, gb INT)",
            "INSERT INTO dim_b VALUES (1, 100), (2, 200), (3, 300)",
            "CREATE TABLE f (id INT, a INT, b INT, v INT, w INT, t TEXT)",
        ] {
            h.sql(sql);
        }
        let ws = h.p.workspace(TENANT).unwrap();
        let mirror = DataSource {
            name: "mirror".into(),
            url: "odbis://acme/mirror".into(),
            user: "platform".into(),
            password: String::new(),
            driver: "odbis-storage".into(),
        };
        ws.mds
            .register_source(mirror, Arc::clone(&ws.warehouse))
            .unwrap();
        let sets = VIEWS.iter().map(|&(name, sql, _)| (name, "warehouse", sql));
        for (name, source, sql) in sets.chain(REFUSED) {
            let dataset = DataSet {
                name: name.into(),
                source: source.into(),
                sql: sql.into(),
                description: String::new(),
            };
            h.p.define_dataset(TENANT, &h.token, dataset).unwrap();
        }
        h
    }

    /// Run `sql`; whether it wrote a row, which is when it publishes a
    /// delta.
    fn sql(&self, sql: &str) -> bool {
        self.p.sql(TENANT, &self.token, sql).unwrap().rows_affected > 0
    }

    fn get(&self, path: &str, accept: &str) -> Vec<u8> {
        let mut req = HttpRequest::new(Method::Get, path);
        let bearer = format!("Bearer {}", self.token);
        for (k, v) in [
            ("x-tenant", TENANT),
            ("authorization", bearer.as_str()),
            ("accept", accept),
        ] {
            req.headers.insert(k.into(), v.into());
        }
        let resp = self.router.dispatch(req);
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_text());
        resp.body
    }

    /// The JSON and CSV bodies of `GET /api/v1/datasets/:name`.
    fn bodies(&self, name: &str) -> (Vec<u8>, Vec<u8>) {
        let path = format!("/api/v1/datasets/{name}");
        (
            self.get(&path, "application/json"),
            self.get(&path, "text/csv"),
        )
    }

    /// (folds, rebuilds) the tenant's metrics endpoint counts for it.
    fn counters(&self) -> (u64, u64) {
        let body = String::from_utf8(self.get("/api/v1/admin/metrics", "text/plain")).unwrap();
        let scraped = |family: &str| {
            let prefix = format!("{family}{{tenant=\"{TENANT}\"}} ");
            body.lines()
                .find_map(|line| line.strip_prefix(prefix.as_str()))
                .map_or(0, |n| n.parse().unwrap())
        };
        (
            scraped("odbis_aggregate_folds_total"),
            scraped("odbis_aggregate_rebuilds_total"),
        )
    }

    fn fact(&mut self, rng: &mut StdRng) -> String {
        let id = self.next_id;
        self.next_id += 1;
        let maybe = |rng: &mut StdRng, every: f64, v: String| {
            if rng.random_bool(every) {
                "NULL".to_string()
            } else {
                v
            }
        };
        let a = rng.random_range(0..6i64).to_string();
        let a = maybe(rng, 0.15, a);
        let b = rng.random_range(1..5i64).to_string();
        let b = maybe(rng, 0.15, b);
        let v = rng.random_range(-50..50i64).to_string();
        let w = rng.random_range(0..9i64).to_string();
        let w = maybe(rng, 0.2, w);
        let tag = ["'p'", "'q'", "'r, s'", "'\"t\"'"][rng.random_range(0..4usize)];
        let t = maybe(rng, 0.2, tag.to_string());
        format!("({id}, {a}, {b}, {v}, {w}, {t})")
    }

    /// One random step; returns what it was, and the (folds, rebuilds) it
    /// must add to the counters when that is known exactly.
    fn step(&mut self, rng: &mut StdRng) -> (String, Option<(u64, u64)>) {
        let views_over = |live: &BTreeSet<&str>, table: &str| {
            let joined = |(name, _, dims): &&(&str, &str, &[&str])| {
                live.contains(name) && dims.contains(&table)
            };
            VIEWS.iter().filter(joined).count() as u64
        };
        let live = self.live.len() as u64;
        match rng.random_range(0..100) {
            0..=29 => {
                let row = self.fact(rng);
                let sql = format!("INSERT INTO f VALUES {row}");
                self.sql(&sql);
                (sql, Some((live, 0)))
            }
            30..=44 => {
                let n = rng.random_range(2..7usize);
                let rows: Vec<String> = (0..n).map(|_| self.fact(rng)).collect();
                let sql = format!("INSERT INTO f VALUES {}", rows.join(", "));
                self.sql(&sql);
                (sql, Some((live, 0)))
            }
            45..=54 => {
                let sql = format!(
                    "UPDATE f SET v = v + {}, a = {} WHERE id % 3 = {}",
                    rng.random_range(-5..6i64),
                    rng.random_range(0..6i64),
                    rng.random_range(0..3i64)
                );
                let wrote = self.sql(&sql);
                (sql, Some((0, if wrote { live } else { 0 })))
            }
            55..=62 => {
                let sql = format!(
                    "DELETE FROM f WHERE id = {}",
                    rng.random_range(1..self.next_id.max(2))
                );
                let wrote = self.sql(&sql);
                (sql, Some((0, if wrote { live } else { 0 })))
            }
            63..=72 => {
                // NULL and duplicate keys, and keys no fact row has yet
                let key = match rng.random_range(0..4) {
                    0 => "NULL".to_string(),
                    _ => rng.random_range(0..7i64).to_string(),
                };
                let ga = ["'x'", "'y'", "'z'"][rng.random_range(0..3usize)];
                let sql = format!(
                    "INSERT INTO dim_a VALUES ({key}, {ga}, {})",
                    rng.random_range(0..5i64) * 10
                );
                self.sql(&sql);
                (sql, Some((0, views_over(&self.live, "dim_a"))))
            }
            73..=80 => {
                let sql = format!(
                    "UPDATE dim_a SET ga = '{}' WHERE ka = {}",
                    ["x", "y", "w"][rng.random_range(0..3usize)],
                    rng.random_range(0..7i64)
                );
                let over_a = views_over(&self.live, "dim_a");
                let wrote = self.sql(&sql);
                (sql, Some((0, if wrote { over_a } else { 0 })))
            }
            81..=87 => {
                let sql = format!(
                    "INSERT INTO dim_b VALUES ({}, {})",
                    rng.random_range(0..6i64),
                    rng.random_range(1..4i64) * 100
                );
                self.sql(&sql);
                (sql, Some((0, views_over(&self.live, "dim_b"))))
            }
            88..=94 => {
                // one batch: the view's rebuild binds the moved columns
                let ws = self.p.workspace(TENANT).unwrap();
                let script = "DROP TABLE dim_b; CREATE TABLE dim_b (gb INT, kb INT);
                     INSERT INTO dim_b VALUES (100, 1), (400, 4), (100, 2), (500, NULL);";
                Engine::new().execute_script(&ws.warehouse, script).unwrap();
                ws.publish_deltas();
                (
                    script.to_string(),
                    Some((0, views_over(&self.live, "dim_b"))),
                )
            }
            _ => {
                // two publications: the DROP's rebuild cannot bind, and
                // the view is dropped for good
                self.sql("DROP TABLE dim_b");
                self.sql("CREATE TABLE dim_b (kb INT, gb INT)");
                self.sql("INSERT INTO dim_b VALUES (1, 100), (3, 300)");
                let over_b = views_over(&self.live, "dim_b");
                self.live.retain(|name| {
                    !VIEWS
                        .iter()
                        .any(|(n, _, d)| n == name && d.contains(&"dim_b"))
                });
                ("DROP + CREATE dim_b".to_string(), Some((0, over_b)))
            }
        }
    }

    /// Every data set's platform answer equals its SQL's, as rows and as
    /// CSV bytes; each view is there exactly when expected, and its JSON
    /// and CSV bodies are the bytes its plan produces.
    fn check(&self, at: &str) {
        let ws = self.p.workspace(TENANT).unwrap();
        let engine = Engine::new();
        let sets = VIEWS.iter().map(|&(name, sql, _)| (name, sql));
        for (name, sql) in sets.chain(REFUSED.iter().map(|&(name, _, sql)| (name, sql))) {
            let what = format!("{at}, data set {name}");
            let has_view = ws.agg_cache.read().view(name, sql).is_some();
            assert_eq!(has_view, self.live.contains(name), "{what}");
            let oracle = engine.execute(&ws.warehouse, sql).unwrap();
            let answer = self.p.execute_dataset(TENANT, &self.token, name).unwrap();
            assert_eq!(answer.columns, oracle.columns, "{what}");
            assert_eq!(answer.rows, oracle.rows, "{what}");
            let mut csv = String::new();
            push_csv_record(&mut csv, &oracle.columns, "\r\n");
            for row in &oracle.rows {
                // a NULL is an empty field
                let fields = row.iter().map(|v| match v {
                    Value::Null => String::new(),
                    v => v.render(),
                });
                push_csv_record(&mut csv, fields, "\r\n");
            }
            assert_eq!(self.bodies(name).1, csv.into_bytes(), "{what}: CSV");
        }
        // the same bodies through the plans: views stale, then rebuilt
        let viewed: Vec<_> = (self.live.iter()).map(|name| self.bodies(name)).collect();
        ws.agg_cache.write().mark_stale_over("f");
        for (name, bodies) in self.live.iter().zip(viewed) {
            assert_eq!(
                self.bodies(name),
                bodies,
                "{at}, data set {name}: view vs plan"
            );
        }
        let rebuilt = ws
            .agg_cache
            .write()
            .apply_deltas(&ws.warehouse, vec![], |_| false);
        assert_eq!(rebuilt.rebuilt, self.live.len(), "{at}");
    }
}

fn run_sequence(seed: u64, sequence: usize) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000).wrapping_add(sequence as u64));
    let mut h = Harness::boot();
    for _ in 0..rng.random_range(0..12usize) {
        let row = h.fact(&mut rng);
        h.sql(&format!("INSERT INTO f VALUES {row}"));
    }
    h.check(&format!("seed {seed} sequence {sequence} loaded"));
    for step in 0..STEPS_PER_SEQUENCE {
        let before = h.counters();
        let (what, added) = h.step(&mut rng);
        let at = format!("seed {seed} sequence {sequence} step {step} ({what})");
        if let Some((folds, rebuilds)) = added {
            assert_eq!(
                h.counters(),
                (before.0 + folds, before.1 + rebuilds),
                "{at}"
            );
        }
        h.check(&at);
    }
}

#[test]
fn views_answer_their_sql_after_every_step_on_both_seeds() {
    for seed in SEEDS {
        for sequence in 0..SEQUENCES_PER_SEED {
            run_sequence(seed, sequence);
        }
    }
}

/// The clauses a view refuses leave their data sets on their plans, and
/// the view is registered in the cache for every other data set.
#[test]
fn each_refused_clause_keeps_its_data_set_on_its_plan() {
    let h = Harness::boot();
    let ws = h.p.workspace(TENANT).unwrap();
    let cache = ws.agg_cache.read();
    for (name, _, sql) in REFUSED {
        assert!(cache.view(name, sql).is_none(), "{name}");
    }
    for (name, sql, _) in VIEWS {
        assert!(cache.view(name, sql).is_some(), "{name}");
    }
    assert_eq!(cache.len(), VIEWS.len());
    drop(cache);
    h.check("defined");
}

/// The rows of `top_20` (`a`, `s`) through the platform.
fn top_20(h: &Harness) -> Vec<(Value, Value)> {
    let answer = h.p.execute_dataset(TENANT, &h.token, "top_20").unwrap();
    (answer.rows.into_iter())
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect()
}

/// Ties on the sorted measure, a sorted measure that is NULL in some
/// groups, and a group crossing `top_20`'s `LIMIT 20` in and out: each
/// step is checked as a random one is, and its effect on the order is
/// asserted.
#[test]
fn ties_null_measures_and_the_limit_boundary_answer_their_sql() {
    let mut h = Harness::boot();
    let insert = |h: &mut Harness, rows: &[(i64, &str, i64, &str)]| {
        let values: Vec<String> = (rows.iter())
            .map(|(a, b, v, w)| {
                h.next_id += 1;
                format!("({}, {a}, {b}, {v}, {w}, NULL)", h.next_id)
            })
            .collect();
        h.sql(&format!("INSERT INTO f VALUES {}", values.join(", ")));
    };
    // 25 groups a = 100..=124 with sums 0, 10, ..., 240: a = 104 (40) is
    // the first left out
    let groups: Vec<(i64, &str, i64, &str)> =
        (0..25).map(|i| (100 + i, "1", 10 * i, "1")).collect();
    insert(&mut h, &groups);
    h.check("25 groups");
    let ranked = top_20(&h);
    assert_eq!(ranked.len(), 20);
    assert_eq!(ranked[19], (Value::Int(105), Value::Int(50)));

    // a tie: a = 103 reaches a = 110's 100, and the lower key goes first
    insert(&mut h, &[(103, "1", 70, "1")]);
    h.check("tie on revenue");
    let ranked = top_20(&h);
    let tied: Vec<&Value> = (ranked.iter())
        .filter(|(_, s)| *s == Value::Int(100))
        .map(|(a, _)| a)
        .collect();
    assert_eq!(tied, [&Value::Int(103), &Value::Int(110)]);

    // a tie across the cut: a = 104 reaches a = 106's 60, the twentieth
    // sum, and only the lower key makes the cut
    insert(&mut h, &[(104, "1", 20, "1")]);
    h.check("tie across the LIMIT boundary");
    let ranked = top_20(&h);
    assert_eq!(ranked[19], (Value::Int(104), Value::Int(60)));
    assert!(!ranked.iter().any(|(a, _)| *a == Value::Int(106)));

    // in: the last group jumps to the top
    insert(&mut h, &[(100, "1", 1_000, "1")]);
    h.check("a group crosses into the LIMIT");
    assert_eq!(top_20(&h)[0], (Value::Int(100), Value::Int(1_000)));

    // out: the leader falls below every other group
    insert(&mut h, &[(124, "1", -1_000, "1")]);
    h.check("a group crosses out of the LIMIT");
    assert!(!top_20(&h).iter().any(|(a, _)| *a == Value::Int(124)));

    // NULL measures: b = 7 has only NULL w, so its SUM is NULL and sorts
    // last under DESC; b = 8 has one w
    insert(
        &mut h,
        &[(1, "7", 1, "NULL"), (2, "7", 1, "NULL"), (1, "8", 1, "3")],
    );
    h.check("a NULL measure is sorted");
    let answer = (h.p.execute_dataset(TENANT, &h.token, "null_measure")).unwrap();
    let last = answer.rows.last().unwrap();
    assert_eq!((&last[0], &last[1]), (&Value::Int(7), &Value::Null));
}
