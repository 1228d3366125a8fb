//! Differential harness for the columnar data plane: every query in the
//! corpus runs through the production batch executor and through the
//! row-at-a-time interpreter kept as its oracle, and the results must be
//! identical — same columns, same rows, same order.

use std::sync::Arc;

use odbis_bench::workloads;
use odbis_sql::{Engine, QueryResult};
use odbis_storage::Database;
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
    ];
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
        assert!(plan.contains("IndexScan"), "not an index plan: {sql}\n{plan}");
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
            let candidate = engine
                .execute(&db, sql)
                .unwrap_or_else(|e| panic!("batch walker ({threads} threads) failed for {sql}: {e}"));
            assert_same(sql, &reference, &candidate, &format!("{threads} threads"));
        }
    }
    // a residual that errors on a fetched row errors on both walkers
    let failing = "SELECT id FROM edge WHERE val >= 0 AND 100 / val > 5";
    assert!(oracle.explain(&db, failing).unwrap().contains("IndexScan"));
    assert!(oracle.execute(&db, failing).is_err());
    assert!(Engine::new().with_parallelism(1).execute(&db, failing).is_err());
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

/// Multi-morsel check: at 20k fact rows the scan splits into several
/// morsels, exercising the per-worker partial accumulators and the ordered
/// merge. Integer aggregates (COUNT/SUM-of-INT/MIN/MAX) must be *exactly*
/// equal across every configuration; float SUM/AVG are checked to a
/// relative tolerance because the merge-tree shape changes with the worker
/// count and float addition is not associative.
#[test]
fn multi_morsel_aggregates_agree_across_parallelism() {
    let db = Arc::new(workloads::healthcare_db(20_000, 11));
    let reference = Engine::new().with_parallelism(1);
    let exact_queries = [
        "SELECT dept_id, COUNT(*) AS n, SUM(stay_days) AS days, MIN(id) AS lo, MAX(id) AS hi \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id",
        "SELECT year, COUNT(*) AS n FROM fact_admission WHERE stay_days > 7 \
         GROUP BY year ORDER BY year",
    ];
    let float_queries = ["SELECT dept_id, SUM(cost) AS total, AVG(cost) AS mean \
         FROM fact_admission GROUP BY dept_id ORDER BY dept_id"];
    for workers in [2usize, 4, 8] {
        let engine = Engine::new().with_parallelism(workers);
        for sql in exact_queries {
            let expected = reference.execute(&db, sql).unwrap();
            let got = engine.execute(&db, sql).unwrap();
            assert_eq!(expected.rows, got.rows, "workers={workers} for: {sql}");
        }
        for sql in float_queries {
            let expected = reference.execute(&db, sql).unwrap();
            let got = engine.execute(&db, sql).unwrap();
            assert_eq!(
                expected.rows.len(),
                got.rows.len(),
                "workers={workers} for: {sql}"
            );
            for (e, g) in expected.rows.iter().zip(&got.rows) {
                for (a, b) in e.iter().zip(g) {
                    match (a, b) {
                        (odbis_storage::Value::Float(x), odbis_storage::Value::Float(y)) => {
                            let scale = x.abs().max(y.abs()).max(1.0);
                            assert!(
                                (x - y).abs() <= 1e-9 * scale,
                                "workers={workers}: {x} vs {y} for: {sql}"
                            );
                        }
                        _ => assert_eq!(a, b, "workers={workers} for: {sql}"),
                    }
                }
            }
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
