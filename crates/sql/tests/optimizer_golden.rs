//! Golden-EXPLAIN snapshot tests for the optimizer rule pipeline.
//!
//! One test per rule compares the optimized plan rendering against the same
//! plan with that single rule ablated (`Engine::with_optimizer_rules`),
//! proving both the rewrite itself and that every rule can be disabled
//! independently — the other rules keep firing in the ablated snapshots
//! (e.g. `cols=[..]` pruning stays visible when only pushdown is off).

use odbis_sql::Engine;
use odbis_storage::Database;

/// A small star schema: `fact` (200 rows) is much larger than `dim` (2) and
/// `dim_year` (3), so join reordering and build-side selection have a
/// live `row_count` signal to act on.
fn star_db() -> Database {
    let db = Database::new();
    let engine = Engine::new();
    engine
        .execute_script(
            &db,
            "CREATE TABLE dim (dept_id INT PRIMARY KEY, name TEXT, head_count INT);
             CREATE TABLE dim_year (year INT PRIMARY KEY, label TEXT);
             CREATE TABLE fact (id INT PRIMARY KEY, dept_id INT, year INT, cost DOUBLE);
             CREATE INDEX ix_fact_year ON fact (year);
             INSERT INTO dim VALUES (0, 'er', 40), (1, 'icu', 25);
             INSERT INTO dim_year VALUES (2008, 'y08'), (2009, 'y09'), (2010, 'y10');",
        )
        .expect("DDL");
    let rows: Vec<String> = (0..200)
        .map(|i| format!("({i}, {}, {}, {}.0)", i % 2, 2008 + i % 3, 100 + i))
        .collect();
    engine
        .execute(&db, &format!("INSERT INTO fact VALUES {}", rows.join(", ")))
        .expect("fact rows");
    db
}

fn explain(db: &Database, spec: &str, sql: &str) -> String {
    Engine::new()
        .with_optimizer_rules(spec)
        .explain(db, sql)
        .unwrap_or_else(|e| panic!("EXPLAIN failed for {sql}: {e}"))
}

#[test]
fn pushdown_through_join_golden() {
    let db = star_db();
    let q = "SELECT f.id, d.name FROM fact f JOIN dim d ON f.dept_id = d.dept_id \
             WHERE f.cost > 150.0 AND d.head_count > 30";
    // The conjunction splits by side: each half lands in its own scan.
    assert_eq!(
        explain(&db, "all", q),
        "Project [id, name] (2 exprs)\n\
         \x20 Join Inner hash keys=[f.dept_id = d.dept_id]\n\
         \x20   TableScan fact cols=[id, dept_id, cost] filter=Binary { op: Gt, left: Column(2), right: Literal(Float(150.0)) }\n\
         \x20   TableScan dim filter=Binary { op: Gt, left: Column(2), right: Literal(Int(30)) }\n"
    );
    // Ablated: the whole predicate stays in a Filter above the Join, while
    // projection pruning (still enabled) keeps trimming the fact scan.
    assert_eq!(
        explain(&db, "-pushdown", q),
        "Project [id, name] (2 exprs)\n\
         \x20 Filter Binary { op: And, left: Binary { op: Gt, left: Column(2), right: Literal(Float(150.0)) }, right: Binary { op: Gt, left: Column(5), right: Literal(Int(30)) } }\n\
         \x20   Join Inner hash keys=[f.dept_id = d.dept_id]\n\
         \x20     TableScan fact cols=[id, dept_id, cost]\n\
         \x20     TableScan dim\n"
    );
}

#[test]
fn projection_pruning_golden() {
    let db = star_db();
    let q = "SELECT d.name FROM fact f JOIN dim d ON f.dept_id = d.dept_id";
    // Required-column sets thread down to both scans.
    assert_eq!(
        explain(&db, "all", q),
        "Project [name] (1 exprs)\n\
         \x20 Join Inner hash keys=[f.dept_id = d.dept_id]\n\
         \x20   TableScan fact cols=[dept_id]\n\
         \x20   TableScan dim cols=[dept_id, name]\n"
    );
    assert_eq!(
        explain(&db, "-prune", q),
        "Project [name] (1 exprs)\n\
         \x20 Join Inner hash keys=[f.dept_id = d.dept_id]\n\
         \x20   TableScan fact\n\
         \x20   TableScan dim\n"
    );
}

#[test]
fn join_reorder_golden() {
    let db = star_db();
    let q = "SELECT f.id, d.name, y.label FROM fact f \
             JOIN dim d ON f.dept_id = d.dept_id \
             JOIN dim_year y ON f.year = y.year";
    // Greedy reorder starts from the smallest connected table (dim, 2
    // rows), joins fact next, and restores output order with a Project.
    assert_eq!(
        explain(&db, "all", q),
        "Project [id, name, label] (3 exprs)\n\
         \x20 Project [id, name, label] (3 exprs)\n\
         \x20   Join Inner hash keys=[f.year = y.year]\n\
         \x20     Join Inner hash keys=[d.dept_id = f.dept_id]\n\
         \x20       TableScan dim cols=[dept_id, name]\n\
         \x20       TableScan fact cols=[id, dept_id, year]\n\
         \x20     TableScan dim_year\n"
    );
    // Ablated: the syntactic order (fact first) survives.
    assert_eq!(
        explain(&db, "-reorder", q),
        "Project [id, name, label] (3 exprs)\n\
         \x20 Join Inner hash keys=[f.year = y.year]\n\
         \x20   Join Inner hash keys=[f.dept_id = d.dept_id]\n\
         \x20     TableScan fact cols=[id, dept_id, year]\n\
         \x20     TableScan dim cols=[dept_id, name]\n\
         \x20   TableScan dim_year\n"
    );
}

#[test]
fn join_algorithm_golden() {
    let db = star_db();
    // Equi-conjuncts in either orientation become hash keys; whatever else
    // `ON` holds is the residual evaluated over the key matches.
    assert_eq!(
        explain(
            &db,
            "all",
            "SELECT f.id FROM fact f LEFT JOIN dim_year y \
             ON f.year = y.year AND f.cost > 150.0 AND y.year = f.dept_id"
        ),
        "Project [id] (1 exprs)\n\
         \x20 Join Left hash keys=[f.year = y.year, f.dept_id = y.year] residual=Binary { op: Gt, left: Column(3), right: Literal(Float(150.0)) }\n\
         \x20   TableScan fact\n\
         \x20   TableScan dim_year cols=[year]\n"
    );
    // No column = column conjunct across the sides: nested loop.
    assert_eq!(
        explain(
            &db,
            "all",
            "SELECT f.id FROM fact f JOIN dim d ON f.dept_id < d.dept_id"
        ),
        "Project [id] (1 exprs)\n\
         \x20 Join Inner nested-loop on=Binary { op: Lt, left: Column(1), right: Column(2) }\n\
         \x20   TableScan fact cols=[id, dept_id]\n\
         \x20   TableScan dim cols=[dept_id]\n"
    );
}

#[test]
fn constant_folding_golden() {
    let db = star_db();
    let q = "SELECT id FROM fact WHERE cost > 100.0 + 50.0 AND 1 + 1 = 2";
    assert_eq!(
        explain(&db, "all", q),
        "Project [id] (1 exprs)\n\
         \x20 TableScan fact cols=[id, cost] filter=Binary { op: And, left: Binary { op: Gt, left: Column(1), right: Literal(Float(150.0)) }, right: Literal(Bool(true)) }\n"
    );
    // Ablated: both constant subexpressions survive unevaluated.
    assert_eq!(
        explain(&db, "-fold", q),
        "Project [id] (1 exprs)\n\
         \x20 TableScan fact cols=[id, cost] filter=Binary { op: And, left: Binary { op: Gt, left: Column(1), right: Binary { op: Add, left: Literal(Float(100.0)), right: Literal(Float(50.0)) } }, right: Binary { op: Eq, left: Binary { op: Add, left: Literal(Int(1)), right: Literal(Int(1)) }, right: Literal(Int(2)) } }\n"
    );
}

#[test]
fn index_selection_golden_renders_residual() {
    let db = star_db();
    let q = "SELECT id FROM fact WHERE year = 2009 AND cost > 150.0";
    // The secondary index serves the equality; the full predicate is kept
    // as the rendered residual re-checked after the index probe.
    assert_eq!(
        explain(&db, "all", q),
        "Project [id] (1 exprs)\n\
         \x20 IndexScan fact via ix_fact_year range=[2009, 2009] residual=Binary { op: And, left: Binary { op: Eq, left: Column(2), right: Literal(Int(2009)) }, right: Binary { op: Gt, left: Column(3), right: Literal(Float(150.0)) } }\n"
    );
    assert_eq!(
        explain(&db, "-index", q),
        "Project [id] (1 exprs)\n\
         \x20 TableScan fact cols=[id, year, cost] filter=Binary { op: And, left: Binary { op: Eq, left: Column(1), right: Literal(Int(2009)) }, right: Binary { op: Gt, left: Column(2), right: Literal(Float(150.0)) } }\n"
    );
}
