//! Differential harness for the columnar data plane: every query in the
//! corpus runs through the production batch executor and through the
//! row-at-a-time interpreter kept as its oracle, and the results must be
//! identical — same columns, same rows, same order.

use std::sync::Arc;

use odbis_bench::workloads;
use odbis_sql::{Engine, QueryResult};
use odbis_storage::{Database, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A database mixing the generated healthcare star schema with a small
/// hand-built table exercising NULLs, booleans, dates, negative numbers
/// and mixed-case text.
fn corpus_db() -> Arc<Database> {
    let db = workloads::healthcare_db(500, 42);
    Engine::new()
        .execute_script(
            &db,
            "CREATE TABLE edge (id INT PRIMARY KEY, grp TEXT, val INT, score DOUBLE,
                                flag BOOLEAN, label TEXT, d DATE);
             CREATE INDEX idx_edge_val ON edge (val);
             INSERT INTO edge VALUES
               (1, 'a', 10, 1.5, TRUE, 'alpha', DATE '2020-01-01'),
               (2, 'a', NULL, 2.5, FALSE, 'beta', DATE '2020-02-01'),
               (3, 'b', 30, NULL, NULL, NULL, NULL),
               (4, NULL, 40, 4.0, TRUE, 'delta', DATE '2021-01-01'),
               (5, 'b', 0, 0.0, FALSE, 'Epsilon', DATE '2019-06-15'),
               (6, 'c', -7, -1.25, TRUE, 'zeta', DATE '2020-01-01');",
        )
        .expect("corpus DDL");
    Arc::new(db)
}

/// The query corpus: scans, filters with three-valued logic, expression
/// projections, string/date functions, IN/BETWEEN/LIKE/CASE, joins,
/// grouped aggregates with HAVING, DISTINCT, ORDER BY with LIMIT/OFFSET,
/// index-friendly point and range predicates, and FROM-less selects.
const CORPUS: &[&str] = &[
    // plain scans and projections
    "SELECT * FROM edge",
    "SELECT id, label FROM edge",
    "SELECT id, val * 2 AS double_val, score + 1.0 AS bumped FROM edge",
    "SELECT id, -val AS neg, NOT flag AS unflag FROM edge",
    "SELECT * FROM fact_admission",
    "SELECT id, cost, stay_days FROM fact_admission",
    // filters, including 3VL around NULLs
    "SELECT id FROM edge WHERE val > 5",
    "SELECT id FROM edge WHERE val > 5 AND score < 3.0",
    "SELECT id FROM edge WHERE val > 5 OR score IS NULL",
    "SELECT id FROM edge WHERE grp IS NULL",
    "SELECT id FROM edge WHERE grp IS NOT NULL AND flag",
    "SELECT id FROM edge WHERE NOT (val >= 10)",
    "SELECT id FROM edge WHERE val <> 0 AND 100 / val > 5",
    "SELECT id FROM fact_admission WHERE cost > 1500.0 AND stay_days < 10",
    "SELECT id FROM fact_admission WHERE year = 2009 AND month >= 6",
    // arithmetic mixing ints and floats
    "SELECT id, val + score AS mixed, val % 3 AS rem FROM edge WHERE val IS NOT NULL",
    "SELECT id, cost / stay_days AS per_day FROM fact_admission WHERE stay_days > 0",
    // LIKE / IN / BETWEEN / CASE
    "SELECT id FROM edge WHERE label LIKE '%eta'",
    "SELECT id FROM edge WHERE label LIKE '_lpha'",
    "SELECT id FROM edge WHERE grp IN ('a', 'c')",
    "SELECT id FROM edge WHERE val IN (10, NULL, 40)",
    "SELECT id FROM edge WHERE val BETWEEN 0 AND 30",
    "SELECT id, CASE WHEN val > 20 THEN 'big' WHEN val > 0 THEN 'small' ELSE 'other' END AS size FROM edge",
    "SELECT id, CASE WHEN val <> 0 THEN 100 / val ELSE 0 END AS guarded FROM edge WHERE val IS NOT NULL",
    // scalar functions
    "SELECT id, UPPER(label) AS up, LENGTH(label) AS n FROM edge",
    "SELECT id, COALESCE(grp, 'none') AS g FROM edge",
    "SELECT id, ABS(val) AS a, ROUND(score) AS r FROM edge",
    // date handling
    "SELECT id FROM edge WHERE d >= DATE '2020-01-01'",
    "SELECT id, d FROM edge WHERE d IS NOT NULL ORDER BY d, id",
    // joins
    "SELECT f.id, d.name FROM fact_admission f JOIN dim_department d ON f.dept_id = d.dept_id WHERE f.cost > 2000.0 ORDER BY f.id",
    "SELECT e.id, f.id FROM edge e JOIN fact_admission f ON e.id = f.id ORDER BY e.id",
    "SELECT e.id, e2.label FROM edge e LEFT JOIN edge e2 ON e.val = e2.val ORDER BY e.id, e2.id",
    // grouped aggregates
    "SELECT grp, COUNT(*) AS n FROM edge GROUP BY grp",
    "SELECT grp, COUNT(val) AS n, SUM(val) AS s, AVG(score) AS m FROM edge GROUP BY grp",
    "SELECT dept_id, COUNT(*) AS n, SUM(cost) AS total, AVG(cost) AS mean FROM fact_admission GROUP BY dept_id",
    "SELECT year, month, SUM(cost) AS total FROM fact_admission GROUP BY year, month ORDER BY year, month",
    "SELECT dept_id, SUM(cost) AS total FROM fact_admission GROUP BY dept_id HAVING SUM(cost) > 10000.0",
    "SELECT COUNT(*) AS n, MIN(cost) AS lo, MAX(cost) AS hi FROM fact_admission",
    "SELECT COUNT(DISTINCT dept_id) AS depts FROM fact_admission",
    "SELECT COUNT(*) AS n FROM edge WHERE val > 1000",
    // DISTINCT / ORDER BY / LIMIT / OFFSET
    "SELECT DISTINCT grp FROM edge",
    "SELECT DISTINCT year FROM fact_admission ORDER BY year",
    "SELECT id, cost FROM fact_admission ORDER BY cost DESC, id LIMIT 7",
    "SELECT id FROM fact_admission ORDER BY id LIMIT 5 OFFSET 490",
    "SELECT id FROM fact_admission ORDER BY id LIMIT 5 OFFSET 1000",
    // index-friendly predicates (point + range on PK / secondary index)
    "SELECT * FROM edge WHERE id = 3",
    "SELECT id FROM edge WHERE val >= 10 AND val <= 40 ORDER BY id",
    "SELECT id FROM fact_admission WHERE id BETWEEN 100 AND 110",
    // FROM-less
    "SELECT 1 + 2 AS three, UPPER('ok') AS ok",
];

fn assert_same(sql: &str, reference: &QueryResult, candidate: &QueryResult, label: &str) {
    assert_eq!(
        reference.columns, candidate.columns,
        "column mismatch ({label}) for: {sql}"
    );
    assert_eq!(
        reference.rows, candidate.rows,
        "row mismatch ({label}) for: {sql}"
    );
}

/// Like [`assert_same`] but tolerant of row order when the query has no
/// `ORDER BY` — used when reference and candidate run different plan
/// shapes (index scan vs table scan), where unordered results may come
/// back in different but equally valid orders.
fn assert_same_unordered(sql: &str, reference: &QueryResult, candidate: &QueryResult, label: &str) {
    if sql.to_ascii_uppercase().contains("ORDER BY") {
        return assert_same(sql, reference, candidate, label);
    }
    assert_eq!(
        reference.columns, candidate.columns,
        "column mismatch ({label}) for: {sql}"
    );
    let canonical = |r: &QueryResult| {
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    };
    assert_eq!(
        canonical(reference),
        canonical(candidate),
        "row multiset mismatch ({label}) for: {sql}"
    );
}

/// Worker counts every corpus test runs under: inline on the calling
/// thread, and the morsel pool.
const THREADS: [usize; 2] = [1, 4];

#[test]
fn vectorized_path_matches_row_path() {
    let db = corpus_db();
    let row_engine = Engine::with_row_execution();
    for sql in CORPUS {
        let reference = row_engine
            .execute(&db, sql)
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        for threads in THREADS {
            let candidate = Engine::new()
                .with_parallelism(threads)
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("vectorized path failed for {sql}: {e}"));
            assert_same(sql, &reference, &candidate, "vectorized+indexes");
        }
    }
}

#[test]
fn vectorized_path_matches_row_path_without_indexes() {
    // Index selection changes the plan shape (IndexScan vs filtered
    // TableScan); results must not depend on it on either path.
    let db = corpus_db();
    let row_engine = Engine::with_row_execution();
    for sql in CORPUS {
        let reference = row_engine
            .execute(&db, sql)
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        for threads in THREADS {
            let candidate = Engine::without_index_selection()
                .with_parallelism(threads)
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("vectorized (no index) path failed for {sql}: {e}"));
            assert_same_unordered(sql, &reference, &candidate, "vectorized-no-indexes");
        }
    }
}

#[test]
fn both_paths_agree_on_errors() {
    // The vectorized path may surface a *different* failing row than the
    // row-at-a-time path (it evaluates column-wise), so messages are not
    // compared — but whether a query errors must match.
    let db = corpus_db();
    let row_engine = Engine::with_row_execution();
    let failing = [
        "SELECT 1 / 0",
        "SELECT id, 100 / val AS q FROM edge", // val = 0 on one row
        "SELECT -label FROM edge",             // negate text
        "SELECT id, val % 0 AS m FROM edge",   // modulo by zero
        "SELECT ghost FROM edge",              // unknown column
        "SELECT id FROM edge WHERE label + 1 > 0", // text arithmetic
        // a join residual that raises an evaluation error (val = 0) on a key match
        "SELECT e.id FROM edge e JOIN edge e2 ON e.id = e2.id AND 100 / e2.val > 5",
    ];
    assert!(matches!(
        row_engine.execute(&db, failing[6]),
        Err(odbis_sql::SqlError::Eval(_))
    ));
    for sql in &failing {
        let row = row_engine.execute(&db, sql);
        assert!(row.is_err(), "row path unexpectedly succeeded for: {sql}");
        for threads in THREADS {
            let vec = Engine::new().with_parallelism(threads).execute(&db, sql);
            assert!(
                vec.is_err(),
                "vectorized path ({threads} threads) unexpectedly succeeded for: {sql}"
            );
        }
    }
    // The same residual error raised on the worker pool only: `ja` is two
    // morsels, and the rows that divide by zero all sit in the second, which
    // a spawned worker probes while the calling thread's morsel succeeds.
    let db = join_db(GENERATOR_SEEDS[0], 0);
    let pooled = "SELECT a.id FROM ja a JOIN jb b \
                  ON a.ki = b.ki AND 100 / (CASE WHEN a.id >= 4200 THEN 0 ELSE 1 END) > 5";
    let engines = [
        row_engine,
        Engine::new().with_parallelism(1),
        Engine::new().with_parallelism(4),
    ];
    for engine in &engines {
        assert!(matches!(
            engine.execute(&db, pooled),
            Err(odbis_sql::SqlError::Eval(_))
        ));
        let below = pooled.replace("4200", "9000"); // no such row: no error
        assert!(!engine.execute(&db, &below).unwrap().rows.is_empty());
    }
}

/// `IndexScan` and `Values` leaves, which the batch walker executes itself
/// (one fetched morsel, residual evaluated column-wise): every shape of
/// range and residual must match the row oracle exactly — same rows, same
/// index order — inline (1 thread) and on the worker pool (4).
#[test]
fn index_scan_and_values_leaves_match_the_row_oracle() {
    let db = corpus_db();
    let oracle = Engine::with_row_execution();
    let index_queries = [
        // point hit, point miss
        "SELECT * FROM edge WHERE id = 3",
        "SELECT * FROM edge WHERE id = 99",
        // empty ranges: inverted bounds, and bounds past either end
        "SELECT id FROM edge WHERE val BETWEEN 50 AND 40",
        "SELECT id FROM edge WHERE val > 1000",
        "SELECT id FROM edge WHERE val < -1000",
        // unbounded below: the range sweeps the NULL keys, the residual drops them
        "SELECT id, val FROM edge WHERE val < 20",
        "SELECT id, val FROM edge WHERE val <= 10",
        // unbounded above
        "SELECT id, val FROM edge WHERE val >= 10",
        "SELECT id, val FROM edge WHERE 0 < val",
        // residuals: extra conjuncts, 3VL over NULL cells, LIKE, OR, IS NULL
        "SELECT id FROM edge WHERE val >= 0 AND score < 3.0",
        "SELECT id FROM edge WHERE val > 5 AND flag",
        "SELECT id FROM edge WHERE val > -100 AND NOT flag",
        "SELECT id FROM edge WHERE val <= 40 AND (grp = 'a' OR grp IS NULL)",
        "SELECT id FROM edge WHERE val >= 0 AND label LIKE '%eta'",
        "SELECT id FROM edge WHERE val >= -7 AND score IS NULL",
        "SELECT id FROM edge WHERE val BETWEEN -7 AND 40 AND d >= DATE '2020-01-01'",
        // an index leaf under projection, aggregation, sort and limit
        "SELECT id, val * 2 AS twice, UPPER(label) AS up FROM edge WHERE val >= 10",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM edge WHERE val > -100 GROUP BY grp",
        "SELECT id FROM edge WHERE val >= 0 ORDER BY id DESC LIMIT 2",
        // a wider range on the generated fact table, with a float residual
        "SELECT id, cost FROM fact_admission WHERE id BETWEEN 100 AND 160 AND cost > 1500.0",
        "SELECT COUNT(*) AS n FROM fact_admission WHERE id >= 450",
    ];
    let values_queries = [
        "SELECT 1 + 2 AS three, UPPER('ok') AS ok",
        "SELECT NULL AS n, 1.5 AS f, DATE '2020-01-01' AS d, TRUE AS t",
        "SELECT 'a' || 'b'",
    ];
    for sql in index_queries {
        let plan = oracle.explain(&db, sql).unwrap();
        assert!(
            plan.contains("IndexScan"),
            "not an index plan: {sql}\n{plan}"
        );
    }
    for sql in values_queries {
        let plan = oracle.explain(&db, sql).unwrap();
        assert!(plan.contains("Values"), "not a VALUES plan: {sql}\n{plan}");
    }
    for threads in THREADS {
        let engine = Engine::new().with_parallelism(threads);
        for sql in index_queries.iter().chain(&values_queries) {
            let reference = oracle
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("row oracle failed for {sql}: {e}"));
            let candidate = engine.execute(&db, sql).unwrap_or_else(|e| {
                panic!("batch walker ({threads} threads) failed for {sql}: {e}")
            });
            assert_same(sql, &reference, &candidate, &format!("{threads} threads"));
        }
    }
    // a residual that errors on a fetched row errors on both walkers
    let failing = "SELECT id FROM edge WHERE val >= 0 AND 100 / val > 5";
    assert!(oracle.explain(&db, failing).unwrap().contains("IndexScan"));
    assert!(oracle.execute(&db, failing).is_err());
    assert!(Engine::new()
        .with_parallelism(1)
        .execute(&db, failing)
        .is_err());
}

// ---------------------------------------------------------------------------
// Seeded random-query generator: star-schema queries (joins, group-by,
// order/limit) checked across four engine configurations. The seeds are the
// chaos suite's replay constants — rerun a failure by grepping the printed
// query.
// ---------------------------------------------------------------------------

const GENERATOR_SEEDS: [u64; 2] = [3_405_691_582, 195_948_557];
const QUERIES_PER_SEED: usize = 60;

/// One random star-schema SELECT. Joins, filters, grouped aggregates and
/// ORDER BY/LIMIT are all drawn independently; column references are
/// qualified whenever the dimension table is in scope so nothing is
/// ambiguous.
fn gen_query(rng: &mut StdRng) -> String {
    let join = rng.random_bool(0.5);
    let group = rng.random_bool(0.5);

    let mut filters: Vec<String> = Vec::new();
    if rng.random_bool(0.6) {
        filters.push(format!("f.cost > {}.0", rng.random_range(500..2500i64)));
    }
    if rng.random_bool(0.4) {
        filters.push(format!("f.year = {}", rng.random_range(2008..=2010i64)));
    }
    if rng.random_bool(0.3) {
        let lo = rng.random_range(1..=10i64);
        filters.push(format!(
            "f.stay_days BETWEEN {lo} AND {}",
            lo + rng.random_range(0..=11i64)
        ));
    }
    if rng.random_bool(0.25) {
        filters.push(format!("f.dept_id = {}", rng.random_range(0..7i64)));
    }
    if join && rng.random_bool(0.3) {
        filters.push(format!("d.head_count > {}", rng.random_range(20..200i64)));
    }

    let from = if join {
        "fact_admission f JOIN dim_department d ON f.dept_id = d.dept_id"
    } else {
        "fact_admission f"
    };
    let where_clause = if filters.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", filters.join(" AND "))
    };

    if group {
        let keys: &[&str] = if join {
            &["d.name", "f.year", "f.month"]
        } else {
            &["f.dept_id", "f.year", "f.month"]
        };
        let n_keys = rng.random_range(1..=2usize);
        let mut chosen: Vec<&str> = Vec::new();
        while chosen.len() < n_keys {
            let k = keys[rng.random_range(0..keys.len())];
            if !chosen.contains(&k) {
                chosen.push(k);
            }
        }
        let aggs = [
            "COUNT(*) AS n",
            "SUM(f.cost) AS total",
            "AVG(f.cost) AS mean",
            "MIN(f.stay_days) AS lo",
            "MAX(f.stay_days) AS hi",
        ];
        let agg = aggs[rng.random_range(0..aggs.len())];
        let having = if rng.random_bool(0.25) {
            format!(" HAVING COUNT(*) > {}", rng.random_range(1..10i64))
        } else {
            String::new()
        };
        let key_list = chosen.join(", ");
        format!(
            "SELECT {key_list}, {agg} FROM {from}{where_clause} \
             GROUP BY {key_list}{having} ORDER BY {key_list}"
        )
    } else {
        let cols: &[&str] = if join {
            &["f.id", "f.cost", "f.stay_days", "d.name", "f.year"]
        } else {
            &["f.id", "f.cost", "f.stay_days", "f.dept_id", "f.year"]
        };
        let n_cols = rng.random_range(1..=3usize);
        let mut chosen: Vec<&str> = vec!["f.id"];
        while chosen.len() < n_cols {
            let c = cols[rng.random_range(0..cols.len())];
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        let limit = if rng.random_bool(0.5) {
            let mut l = format!(" LIMIT {}", rng.random_range(1..50i64));
            if rng.random_bool(0.4) {
                l.push_str(&format!(" OFFSET {}", rng.random_range(0..100i64)));
            }
            l
        } else {
            String::new()
        };
        format!(
            "SELECT {} FROM {from}{where_clause} ORDER BY f.id{limit}",
            chosen.join(", ")
        )
    }
}

/// Every generated query must agree across all four engine configurations:
/// row-at-a-time oracle, the batch walker on one worker, on four workers,
/// and vectorized with the whole optimizer pipeline disabled.
#[test]
fn random_star_queries_agree_across_engine_configs() {
    let db = corpus_db();
    let row_engine = Engine::with_row_execution();
    let serial = Engine::new().with_parallelism(1);
    let parallel = Engine::new().with_parallelism(4);
    let unoptimized = Engine::new().with_optimizer_rules("none");
    for seed in GENERATOR_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..QUERIES_PER_SEED {
            let sql = gen_query(&mut rng);
            let reference = row_engine
                .execute(&db, &sql)
                .unwrap_or_else(|e| panic!("row path failed (seed {seed}, #{i}) for {sql}: {e}"));
            for (engine, label) in [
                (&serial, "serial-vectorized"),
                (&parallel, "parallel-vectorized"),
                (&unoptimized, "optimizer-disabled"),
            ] {
                let candidate = engine.execute(&db, &sql).unwrap_or_else(|e| {
                    panic!("{label} failed (seed {seed}, #{i}) for {sql}: {e}")
                });
                assert_same_unordered(&sql, &reference, &candidate, label);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded join generator: the columnar hash join against the row oracle's
// kernel, ordered — the join defines its output order, so no ORDER BY.
// ---------------------------------------------------------------------------

/// Tables with the same columns — `ja` spans two 4096-row morsels (one per
/// worker when a probe of it fans out), `jb` is a fraction of one, `je` is
/// empty — so either can be the left side and both build orientations run;
/// `jx` is as long as the caller asks (several morsels per worker). Every
/// key column draws from a small domain (N:M duplicates) and is NULL one
/// time in ten; `kf` and `kts` are `ki` and
/// `kd` in the wider type, off by a fraction half the time; `kn` is NULL
/// throughout, which an index probe's row pivot degrades to `Mixed`.
fn join_db(seed: u64, jx_rows: usize) -> Arc<Database> {
    let db = Database::new();
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for (table, rows) in [("ja", 5_000), ("jb", 60), ("je", 0), ("jx", jx_rows)] {
        engine
            .execute(
                &db,
                &format!(
                    "CREATE TABLE {table} (id INT PRIMARY KEY, ki INT, kt TEXT, kd DATE, \
                     kb BOOLEAN, kf DOUBLE, kts TIMESTAMP, kn INT, k2 INT, v INT)"
                ),
            )
            .expect("join DDL");
        let mut data = Vec::with_capacity(rows);
        for id in 0..rows as i64 {
            let ki = rng.random_range(0..16i64);
            let kd = 18_262 + rng.random_range(0..16i32); // 2020-01-01 ..
            let off = i64::from(rng.random_bool(0.5));
            let mut row = vec![
                Value::Int(id),
                Value::Int(ki),
                Value::Text(format!("t{}", rng.random_range(0..16i64))),
                Value::Date(kd),
                Value::Bool(rng.random_bool(0.5)),
                Value::Float(ki as f64 + 0.5 * off as f64),
                Value::Timestamp(i64::from(kd) * 86_400_000_000 + off),
                Value::Null,
                Value::Int(rng.random_range(0..3i64)),
                Value::Int(rng.random_range(0..12i64)),
            ];
            for key in &mut row[1..7] {
                if rng.random_bool(0.1) {
                    *key = Value::Null;
                }
            }
            data.push(row);
        }
        db.insert_many(table, data).expect("join rows");
    }
    Arc::new(db)
}

/// One random two-table join: key pairing, INNER or LEFT, an optional
/// non-equi conjunct, which table is on the left, and filters that cut a
/// side below a morsel, empty it, or turn its scan into an index probe.
fn gen_join(rng: &mut StdRng) -> String {
    const KEYS: [&str; 12] = [
        "a.ki = b.ki",
        "b.kt = a.kt",
        "a.kd = b.kd",
        "a.kb = b.kb",
        "a.kts = b.kts",
        "a.ki = b.kf",
        "a.kf = b.ki",
        "a.kd = b.kts",
        "b.kd = a.kts",
        "a.ki = b.ki AND a.k2 = b.k2",
        "a.kt = b.kt AND b.kd = a.kd",
        "a.ki = b.kn",
    ];
    let key = KEYS[rng.random_range(0..KEYS.len())];
    let (left, right) = match rng.random_range(0..8u32) {
        0 => ("ja", "je"),
        1 => ("je", "jb"),
        2..=4 => ("ja", "jb"),
        _ => ("jb", "ja"),
    };
    let kind = if rng.random_bool(0.4) {
        "LEFT JOIN"
    } else {
        "JOIN"
    };
    let residual = match rng.random_range(0..10u32) {
        // a.v >= 11 fails against every b.v: LEFT rows whose only
        // candidates the residual rejects
        0..=2 => " AND a.v < b.v",
        3 => " AND a.v + b.v <> 7 AND b.kt IS NOT NULL",
        _ => "",
    };
    let mut filters: Vec<String> = Vec::new();
    if key.contains("kb") {
        // BOOLEAN keys pair half of each side with half of the other
        filters.push("a.id < 400".into());
        filters.push("b.id < 400".into());
    }
    if rng.random_bool(0.3) {
        filters.push(format!("a.id < {}", rng.random_range(0..3000i64)));
    }
    if rng.random_bool(0.2) {
        filters.push(format!("b.id >= {}", rng.random_range(0..70i64)));
    }
    if rng.random_bool(0.2) {
        filters.push(format!("b.v > {}", rng.random_range(3..14i64)));
    }
    let where_clause = if filters.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", filters.join(" AND "))
    };
    format!(
        "SELECT a.id, b.id, a.ki, b.kt, b.kd, a.v, b.v FROM {left} a {kind} {right} b \
         ON {key}{residual}{where_clause}"
    )
}

/// Every generated join, inline and on four workers, equals the row
/// oracle's `join_rows` row for row and in order.
#[test]
fn random_joins_match_the_row_oracle_in_order() {
    let oracle = Engine::with_row_execution();
    let engines = THREADS.map(|t| (t, Engine::new().with_parallelism(t)));
    for seed in GENERATOR_SEEDS {
        let db = join_db(seed, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut matched, mut extended) = (0usize, 0usize);
        for i in 0..QUERIES_PER_SEED {
            let sql = gen_join(&mut rng);
            let reference = oracle
                .execute(&db, &sql)
                .unwrap_or_else(|e| panic!("row oracle failed (seed {seed}, #{i}) for {sql}: {e}"));
            matched += reference.rows.iter().filter(|r| !r[1].is_null()).count();
            extended += reference.rows.iter().filter(|r| r[1].is_null()).count();
            for (threads, engine) in &engines {
                let candidate = engine.execute(&db, &sql).unwrap_or_else(|e| {
                    panic!("hash join ({threads} threads, seed {seed}, #{i}) failed for {sql}: {e}")
                });
                assert_same(&sql, &reference, &candidate, &format!("{threads} threads"));
            }
        }
        // the corpus is not vacuous: pairs were produced and LEFT rows extended
        assert!(
            matched > 10_000 && extended > 1_000,
            "{matched} / {extended}"
        );
    }
}

/// The shapes the generator may not draw every run, pinned: each key
/// pairing on each side of a morsel boundary, the build-left orientation,
/// an index-probed (row-pivoted, `Mixed` where all NULL) side, a LEFT
/// join whose every candidate fails the residual, and probes that give
/// each of four workers several morsels.
#[test]
fn pinned_join_shapes_match_the_row_oracle_in_order() {
    let db = join_db(GENERATOR_SEEDS[0], 70_000);
    let oracle = Engine::with_row_execution();
    let queries = [
        "SELECT a.id, b.id FROM ja a JOIN jb b ON a.ki = b.ki",
        "SELECT a.id, b.id FROM jb a JOIN ja b ON a.ki = b.ki",
        "SELECT a.id, b.id FROM ja a LEFT JOIN jb b ON a.kt = b.kt",
        "SELECT a.id, b.id FROM jb a LEFT JOIN ja b ON a.kd = b.kd",
        "SELECT a.id, b.id FROM ja a JOIN jb b ON a.kb = b.kb WHERE a.id < 300",
        "SELECT a.id, b.id FROM jb a JOIN ja b ON a.ki = b.kf",
        "SELECT a.id, b.id FROM ja a LEFT JOIN jb b ON a.kd = b.kts",
        "SELECT a.id, b.id FROM jb a JOIN ja b ON a.ki = b.ki AND a.k2 = b.k2 AND a.v < b.v",
        "SELECT a.id, b.id FROM ja a LEFT JOIN jb b ON a.ki = b.ki AND a.v < b.v WHERE a.v >= 11",
        "SELECT a.id, a.kn, b.id FROM jb a LEFT JOIN ja b ON a.kn = b.ki WHERE a.id >= 10",
        "SELECT a.id, b.id FROM ja a JOIN jb b ON a.ki = b.ki WHERE b.id >= 10",
        "SELECT a.id, b.id FROM ja a LEFT JOIN je b ON a.ki = b.ki",
        "SELECT a.id, b.id FROM je a JOIN ja b ON a.kt = b.kt",
        "SELECT a.id, b.id, c.id FROM ja a JOIN jb b ON a.ki = b.ki JOIN jb c ON b.kt = c.kt \
         WHERE a.id < 500",
        // eighteen probe morsels: four or five per worker at four threads
        "SELECT a.id, b.id FROM jx a JOIN jb b ON a.ki = b.id",
        "SELECT a.id, b.id FROM jx a LEFT JOIN jb b ON a.ki = b.id AND a.v < b.v",
        "SELECT a.id, b.id FROM jb a JOIN jx b ON a.ki = b.ki",
        "SELECT a.id, b.id FROM jx a JOIN jb b ON a.ki = b.kf",
        "SELECT a.id, b.id FROM jx a JOIN jb b ON a.kt = b.kt AND a.k2 = b.k2",
        "SELECT b.kt, COUNT(*) AS n, SUM(a.v) AS s FROM jx a JOIN jb b ON a.ki = b.id GROUP BY b.kt",
    ];
    for sql in queries {
        let reference = oracle
            .execute(&db, sql)
            .unwrap_or_else(|e| panic!("row oracle failed for {sql}: {e}"));
        for threads in THREADS {
            let candidate = Engine::new()
                .with_parallelism(threads)
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("hash join ({threads} threads) failed for {sql}: {e}"));
            assert_same(sql, &reference, &candidate, &format!("{threads} threads"));
        }
    }
    let all_fail = &queries[8];
    let rows = oracle.execute(&db, all_fail).unwrap().rows;
    assert!(!rows.is_empty() && rows.iter().all(|r| r[1].is_null()));
    let probed = oracle.explain(&db, queries[9]).unwrap();
    assert!(
        probed.contains("IndexScan") && probed.contains("hash keys"),
        "{probed}"
    );
}

/// `Value`'s hash widens like its ordering: a full-range date does not
/// overflow (a debug-build panic before) in DISTINCT, in the oracle's join
/// table, or on the `Date = Timestamp` pairing that hashes through `Value`.
#[test]
fn full_range_dates_hash_in_distinct_and_joins() {
    let db = Database::new();
    Engine::new()
        .execute(
            &db,
            "CREATE TABLE span (id INT PRIMARY KEY, d DATE, ts TIMESTAMP)",
        )
        .unwrap();
    let day = 86_400_000_000i64;
    db.insert_many(
        "span",
        vec![
            vec![Value::Int(0), Value::Date(i32::MAX), Value::Timestamp(day)],
            vec![
                Value::Int(1),
                Value::Date(i32::MIN),
                Value::Timestamp(i64::MAX),
            ],
            vec![Value::Int(2), Value::Date(1), Value::Timestamp(0)],
            vec![Value::Int(3), Value::Date(i32::MAX), Value::Null],
        ],
    )
    .unwrap();
    let engines = [
        Engine::with_row_execution(),
        Engine::new().with_parallelism(1),
        Engine::new().with_parallelism(4),
    ];
    for engine in &engines {
        let distinct = engine.execute(&db, "SELECT DISTINCT d FROM span").unwrap();
        assert_eq!(
            distinct.rows,
            vec![
                vec![Value::Date(i32::MAX)],
                vec![Value::Date(i32::MIN)],
                vec![Value::Date(1)]
            ]
        );
        let same_type = engine
            .execute(
                &db,
                "SELECT a.id, b.id FROM span a JOIN span b ON a.d = b.d",
            )
            .unwrap();
        assert_eq!(same_type.rows.len(), 6); // 2×2 at i32::MAX, plus two singles
        let cross_type = engine
            .execute(
                &db,
                "SELECT a.id, b.id FROM span a JOIN span b ON a.d = b.ts",
            )
            .unwrap();
        assert_eq!(cross_type.rows, vec![vec![Value::Int(2), Value::Int(0)]]);
    }
}

/// Rows equal cell for cell, floats to a relative 1e-9: only aggregates
/// over float *inputs* need the tolerance, because the merge-tree shape
/// changes with the worker count and float addition is not associative.
/// Everything else — every aggregate over INT inputs, a Float AVG or an
/// overflowed SUM included, keys, row order — is exact.
fn assert_rows_close(expected: &QueryResult, got: &QueryResult, label: &str) {
    assert_eq!(expected.columns, got.columns, "{label}");
    assert_eq!(expected.rows.len(), got.rows.len(), "{label}");
    for (e, g) in expected.rows.iter().zip(&got.rows) {
        for (a, b) in e.iter().zip(g) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= 1e-9 * scale, "{label}: {x} vs {y}");
                }
                _ => assert_eq!(a, b, "{label}: {e:?} vs {g:?}"),
            }
        }
    }
}

/// Multi-morsel check: at 70k rows a scan splits into eighteen morsels, so
/// every worker of two, four or eight folds several, exercising the
/// per-worker partial states (which live across a worker's morsels) and
/// the ordered merge. Against the row oracle, at
/// every worker count: aggregates over INT inputs and the first-seen
/// group order — no ORDER BY on the wide cases — must be *exactly* equal;
/// SUM/AVG over float inputs to a relative tolerance. INT values above
/// 2^53, which an f64 cannot hold, must give the same bits on every
/// walker and worker count: the exact sum, rounded once.
#[test]
fn multi_morsel_aggregates_agree_across_parallelism() {
    let db = workloads::healthcare_db(70_000, 11);
    // `wide`: eighteen morsels. `cust` has 8 750 keys whose first sightings
    // spread over every morsel, `seg` × `k2` is a two-column key, `gn` is
    // NULL one time in seven, `gf` is a float key.
    Engine::new()
        .execute(
            &db,
            "CREATE TABLE wide (id INT PRIMARY KEY, cust INT, seg TEXT, k2 INT, gn INT, \
             gf DOUBLE, amount INT, price DOUBLE)",
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(GENERATOR_SEEDS[0]);
    let rows: Vec<Vec<Value>> = (0..70_000i64)
        .map(|id| {
            let cust = if id % 2 == 0 {
                id / 8
            } else {
                rng.random_range(0..=id / 8)
            };
            vec![
                Value::Int(id),
                Value::Int(cust),
                Value::Text(format!("s{}", rng.random_range(0..9i64))),
                Value::Int(rng.random_range(0..5i64)),
                if id % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int(rng.random_range(0..40i64))
                },
                Value::Float(rng.random_range(0..25i64) as f64 / 4.0),
                Value::Int(rng.random_range(-500..5_000i64)),
                Value::Float(rng.random_range(0.0..900.0)),
            ]
        })
        .collect();
    db.insert_many("wide", rows).unwrap();
    // `skew`: 10 000 `c` keys, each with the three `y` values
    Engine::new()
        .execute(&db, "CREATE TABLE skew (c INT, y INT, v INT)")
        .unwrap();
    let skew = (0..30_000i64).map(|i| {
        vec![
            Value::Int(i / 3),
            Value::Int(2020 + i % 3),
            Value::Int(i % 7),
        ]
    });
    db.insert_many("skew", skew.collect()).unwrap();
    // `big`: five morsels of INT values above 2^53 in three groups; every
    // group's SUM and the global one pass i64::MAX
    Engine::new()
        .execute(&db, "CREATE TABLE big (id INT PRIMARY KEY, g INT, x INT)")
        .unwrap();
    let big: Vec<i64> = (0..20_000)
        .map(|_| (1i64 << 53) + rng.random_range(0..1i64 << 20))
        .collect();
    let big_rows = big.iter().enumerate().map(|(id, &x)| {
        let id = id as i64;
        vec![Value::Int(id), Value::Int(id % 3), Value::Int(x)]
    });
    db.insert_many("big", big_rows.collect()).unwrap();
    let db = Arc::new(db);
    let queries = [
        "SELECT dept_id, COUNT(*) AS n, SUM(stay_days) AS days, MIN(id) AS lo, MAX(id) AS hi \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id",
        "SELECT year, COUNT(*) AS n FROM fact_admission WHERE stay_days > 7 \
         GROUP BY year ORDER BY year",
        "SELECT dept_id, SUM(cost) AS total, AVG(cost) AS mean \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id",
        // high cardinality, keys first seen in every morsel
        "SELECT cust, COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, MAX(id) AS hi, \
         AVG(price) AS p FROM wide GROUP BY cust",
        // two-column key, one of them text
        "SELECT seg, k2, COUNT(*) AS n, SUM(amount) AS s, MAX(price) AS hi FROM wide GROUP BY seg, k2",
        // NULLs in the group column form one group, in first-seen position
        "SELECT gn, COUNT(*) AS n, COUNT(gn) AS nn, SUM(amount) AS s FROM wide GROUP BY gn",
        // float and heterogeneous keys stay on the generic path
        "SELECT gf, COUNT(*) AS n, SUM(amount) AS s FROM wide GROUP BY gf",
        "SELECT CASE WHEN id % 2 = 0 THEN k2 ELSE seg END AS k, COUNT(*) AS n, SUM(amount) AS s \
         FROM wide GROUP BY CASE WHEN id % 2 = 0 THEN k2 ELSE seg END",
        // a key whose layout changes between morsels (INT, then mixed,
        // then TEXT): dense runs close and reopen in first-seen order
        "SELECT CASE WHEN id < 5000 THEN k2 ELSE seg END AS k, COUNT(*) AS n, MIN(amount) AS lo \
         FROM wide GROUP BY CASE WHEN id < 5000 THEN k2 ELSE seg END",
        // DISTINCT aggregates bypass the dense path
        "SELECT seg, COUNT(DISTINCT cust) AS custs, SUM(amount) AS s FROM wide GROUP BY seg",
        // three group columns, keyed by their codes as one or two are
        "SELECT seg, k2, gn, COUNT(*) AS n FROM wide GROUP BY seg, k2, gn",
        // a many-valued key beside a three-valued one, in both orders: the
        // pair of codes must not pick its hash bucket by the second alone
        "SELECT c, y, COUNT(*) AS n, SUM(v) AS s FROM skew GROUP BY c, y",
        "SELECT y, c, COUNT(*) AS n, SUM(v) AS s FROM skew GROUP BY y, c",
    ];
    let oracle = Engine::with_row_execution();
    for sql in queries {
        let expected = oracle
            .execute(&db, sql)
            .unwrap_or_else(|e| panic!("row oracle failed for {sql}: {e}"));
        for workers in [1usize, 2, 4, 8] {
            let got = Engine::new()
                .with_parallelism(workers)
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("workers={workers} failed for {sql}: {e}"));
            assert_rows_close(&expected, &got, &format!("workers={workers} for: {sql}"));
        }
    }
    let groups = oracle.execute(&db, queries[3]).unwrap().rows.len();
    assert!(groups >= 2_000, "{groups} cust groups");

    // the exact answers, computed in i128 and rounded once
    let (mut sums, mut counts) = ([0i128; 3], [0i64; 3]);
    for (id, &x) in big.iter().enumerate() {
        sums[id % 3] += i128::from(x);
        counts[id % 3] += 1;
    }
    let per_group: Vec<Vec<Value>> = (0..3)
        .map(|g| {
            let n = counts[g];
            vec![
                Value::Int(g as i64),
                Value::Int(n),
                Value::Float(sums[g] as f64),
                Value::Float(sums[g] as f64 / n as f64),
            ]
        })
        .collect();
    let total = vec![vec![Value::Float(sums.iter().sum::<i128>() as f64)]];
    for (sql, exact) in [
        (
            "SELECT g, COUNT(x) AS n, SUM(x) AS s, AVG(x) AS mean FROM big GROUP BY g ORDER BY g",
            per_group,
        ),
        ("SELECT SUM(x) AS s FROM big", total),
    ] {
        assert_eq!(
            oracle.execute(&db, sql).unwrap().rows,
            exact,
            "row oracle: {sql}"
        );
        for workers in [1usize, 2, 4, 8] {
            let got = Engine::new().with_parallelism(workers).execute(&db, sql);
            assert_eq!(got.unwrap().rows, exact, "workers={workers}: {sql}");
        }
    }
}

#[test]
fn batch_entry_point_matches_row_pivoted_result() {
    let db = corpus_db();
    for threads in THREADS {
        let engine = Engine::new().with_parallelism(threads);
        for sql in CORPUS.iter().filter(|s| s.starts_with("SELECT")) {
            let result = engine.execute(&db, sql).unwrap();
            let (columns, batch) = engine.execute_select_batch(&db, sql).unwrap();
            assert_eq!(result.columns, columns, "columns for: {sql}");
            assert_eq!(result.rows, batch.to_rows(), "rows for: {sql}");
        }
    }
}
