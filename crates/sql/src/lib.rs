//! # odbis-sql
//!
//! A SQL query engine over [`odbis_storage`] — the reproduction's substitute
//! for the JDBC/SQL access path in the ODBIS paper's technical architecture.
//! The Meta-Data Service's *DataSet* objects ("a SQL query abstraction used
//! by charts, data-tables and dashboards", ODBIS §3.3) execute through this
//! engine, as do ad-hoc reports and ETL extracts.
//!
//! Pipeline: [`parse`] → bind/plan ([`planner`]) → optimize (an ordered
//! rule pipeline — constant folding, filter pushdown, join reordering,
//! index selection, projection pruning; see [`optimizer`]) → execute
//! (vectorized, over morsels, on the calling thread).
//!
//! ```
//! use odbis_sql::Engine;
//! use odbis_storage::Database;
//!
//! let db = Database::new();
//! let engine = Engine::new();
//! engine.execute(&db, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
//! engine.execute(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! let r = engine.execute(&db, "SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(r.rows[0][0], odbis_storage::Value::Int(2));
//! ```

#![warn(missing_docs)]

mod accumulator;
pub mod ast;
mod error;
mod exec;
pub mod expr;
mod functions;
mod lexer;
pub mod optimizer;
mod parser;
pub mod plan;
pub mod planner;

pub use accumulator::Accumulator;
pub use error::{SqlError, SqlResult};
pub use exec::{aggregate_columns, finish_groups, FastHasher, JoinTable};
pub use expr::{like_match, BExpr};
pub use functions::{cast_value, ScalarFunc};
pub use parser::{parse, parse_script};

use odbis_storage::{Batch, Column, Database, DbError, Schema, Value};

use ast::Statement;

/// Result of executing one SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted (0 for queries and DDL).
    pub rows_affected: usize,
}

impl QueryResult {
    fn dml(rows_affected: usize) -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            rows_affected,
        }
    }

    /// Build a result from output column names and a columnar [`Batch`] —
    /// the single row-pivot point at the end of vectorized execution.
    pub fn from_batch(columns: Vec<String>, batch: &Batch) -> Self {
        QueryResult {
            columns,
            rows: batch.to_rows(),
            rows_affected: 0,
        }
    }

    /// Index of an output column by name, via the platform-wide
    /// [`odbis_storage::resolve_column`] rule (ASCII case-insensitive,
    /// first match wins).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        odbis_storage::resolve_column(self.columns.iter().map(String::as_str), name)
    }

    /// Iterate one output column's values down all rows (columnar access
    /// for consumers like reporting that read results column-wise).
    pub fn column(&self, i: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows.iter().map(move |r| &r[i])
    }

    /// Pretty-print the result as an aligned text table (SQL-shell style).
    pub fn to_text_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("| {:<width$} ", c, width = widths[i]));
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("| {:<width$} ", cell, width = widths[i]));
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// Append the tables `stmt` reads or writes to `out`, lower-cased, each
/// once, in first-mention order. The Meta-Data Service keeps a data set's
/// tables from the statement it parses at definition, so a watch on the
/// set wakes when any of them changes without parsing its SQL again.
pub fn statement_tables(stmt: &Statement, out: &mut Vec<String>) {
    let mut push = |name: &str| {
        let lower = name.to_ascii_lowercase();
        if !out.contains(&lower) {
            out.push(lower);
        }
    };
    match stmt {
        Statement::Select(sel) => {
            if let Some(t) = &sel.from {
                push(&t.table);
            }
            for j in &sel.joins {
                push(&j.table.table);
            }
        }
        Statement::CreateTable { name, .. }
        | Statement::DropTable { name, .. }
        | Statement::Insert { table: name, .. }
        | Statement::Update { table: name, .. }
        | Statement::Delete { table: name, .. }
        | Statement::CreateIndex { table: name, .. }
        | Statement::DropIndex { table: name, .. } => push(name),
    }
}

/// The SQL engine. Stateless apart from configuration; cheap to clone.
#[derive(Debug, Clone)]
pub struct Engine {
    use_indexes: bool,
    vectorized: bool,
    rules: optimizer::RuleSet,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine with all optimizations enabled (vectorized columnar
    /// execution, the full optimizer rule pipeline and index selection).
    pub fn new() -> Self {
        Engine {
            use_indexes: true,
            vectorized: true,
            rules: optimizer::RuleSet::all(),
        }
    }

    /// Engine that never selects index scans (ablation A1 baseline; every
    /// query runs as a filtered heap scan).
    pub fn without_index_selection() -> Self {
        Engine {
            use_indexes: false,
            ..Engine::new()
        }
    }

    /// Engine that executes row-at-a-time instead of over columnar batches:
    /// the oracle side of the differential suites. No config key or
    /// environment variable selects it.
    pub fn with_row_execution() -> Self {
        Engine {
            vectorized: false,
            ..Engine::new()
        }
    }

    /// Set the optimizer rule set from a spec string (see
    /// [`optimizer::RuleSet::from_spec`]), e.g. `"all"`, `"none"`, or
    /// `"-reorder,-prune"`.
    pub fn with_optimizer_rules(mut self, spec: &str) -> Self {
        self.rules = optimizer::RuleSet::from_spec(spec);
        self
    }

    /// Parse, plan, optimize and execute one statement.
    pub fn execute(&self, db: &Database, sql: &str) -> SqlResult<QueryResult> {
        let mut span = odbis_telemetry::child_span(
            "sql",
            if self.vectorized {
                "execute.vectorized"
            } else {
                "execute.row"
            },
        );
        span.set_detail(sql);
        let result = parse(sql).and_then(|stmt| self.execute_statement(db, &stmt));
        match &result {
            Ok(r) => span.set_rows((r.rows.len() + r.rows_affected) as u64),
            Err(_) => span.fail(),
        }
        result
    }

    /// Execute a `;`-separated script; returns the result of each statement.
    pub fn execute_script(&self, db: &Database, sql: &str) -> SqlResult<Vec<QueryResult>> {
        let stmts = parse_script(sql)?;
        stmts
            .iter()
            .map(|s| self.execute_statement(db, s))
            .collect()
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&self, db: &Database, stmt: &Statement) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Select(sel) => {
                let plan = planner::plan_select(db, sel)?;
                let plan = optimizer::optimize(plan, db, self.use_indexes, &self.rules);
                let columns: Vec<String> = plan.schema.iter().map(|c| c.name.clone()).collect();
                if self.vectorized {
                    let batch = exec::run_columnar(db, &plan)?;
                    Ok(QueryResult::from_batch(columns, &batch))
                } else {
                    Ok(QueryResult {
                        columns,
                        rows: exec::run(db, &plan)?,
                        rows_affected: 0,
                    })
                }
            }
            Statement::CreateTable {
                name,
                if_not_exists,
                columns,
                primary_key,
            } => {
                if *if_not_exists && db.has_table(name) {
                    return Ok(QueryResult::dml(0));
                }
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| {
                        let mut col = Column::new(c.name.clone(), c.data_type);
                        if c.not_null {
                            col = col.not_null();
                        }
                        if let Some(d) = &c.default {
                            let d = d.coerce_to(c.data_type).ok_or_else(|| {
                                SqlError::Type(format!(
                                    "default for {} is not a {}",
                                    c.name, c.data_type
                                ))
                            })?;
                            col = col.with_default(d);
                        }
                        Ok(col)
                    })
                    .collect::<SqlResult<_>>()?;
                let mut schema = Schema::new(cols)?;
                if !primary_key.is_empty() {
                    let refs: Vec<&str> = primary_key.iter().map(String::as_str).collect();
                    schema = schema.with_primary_key(&refs)?;
                }
                db.create_table(name, schema)?;
                Ok(QueryResult::dml(0))
            }
            Statement::DropTable { name, if_exists } => {
                if *if_exists && !db.has_table(name) {
                    return Ok(QueryResult::dml(0));
                }
                db.drop_table(name)?;
                Ok(QueryResult::dml(0))
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
                db.write_table(table, |t| t.create_index(name, &refs, *unique))?;
                Ok(QueryResult::dml(0))
            }
            Statement::DropIndex { name, table } => {
                db.write_table(table, |t| t.drop_index(name))?;
                Ok(QueryResult::dml(0))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.insert(db, table, columns, rows),
            Statement::Update {
                table,
                sets,
                filter,
            } => self.update(db, table, sets, filter.as_ref()),
            Statement::Delete { table, filter } => self.delete(db, table, filter.as_ref()),
        }
    }

    /// Execute a single `SELECT` and return its output column names plus
    /// the columnar [`Batch`] *without* the final row pivot — the entry
    /// point for columnar consumers (OLAP cube builds, ETL extracts).
    pub fn execute_select_batch(
        &self,
        db: &Database,
        sql: &str,
    ) -> SqlResult<(Vec<String>, Batch)> {
        let stmt = parse(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(SqlError::Bind(
                "execute_select_batch supports only SELECT".into(),
            ));
        };
        let plan = planner::plan_select(db, &sel)?;
        let plan = optimizer::optimize(plan, db, self.use_indexes, &self.rules);
        let columns: Vec<String> = plan.schema.iter().map(|c| c.name.clone()).collect();
        let batch = exec::run_columnar(db, &plan)?;
        Ok((columns, batch))
    }

    /// Execute a plan that is already bound, as it stands: no planning and
    /// no optimizing. Returns its output column names and its columnar
    /// result. A data set served from a view runs the operators above its
    /// aggregation this way, over the view's groups as columns
    /// ([`plan::Plan::with_aggregate_batch`]).
    pub fn execute_plan(
        &self,
        db: &Database,
        plan: &plan::Plan,
    ) -> SqlResult<(Vec<String>, Batch)> {
        let columns = plan.schema.iter().map(|c| c.name.clone()).collect();
        Ok((columns, exec::run_columnar(db, plan)?))
    }

    /// Produce the optimized plan for a `SELECT`, rendered as text.
    pub fn explain(&self, db: &Database, sql: &str) -> SqlResult<String> {
        let stmt = parse(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(SqlError::Bind("EXPLAIN supports only SELECT".into()));
        };
        let plan = planner::plan_select(db, &sel)?;
        let plan = optimizer::optimize(plan, db, self.use_indexes, &self.rules);
        Ok(plan.explain())
    }

    /// `INSERT`: every row is bound before the table is locked, then one
    /// [`Database::write_table`] statement inserts them all with
    /// [`odbis_storage::Table::insert_all`] — validated once, against the
    /// locked table's schema, and journaled as one record — or none.
    fn insert(
        &self,
        db: &Database,
        table: &str,
        columns: &[String],
        rows: &[Vec<ast::Expr>],
    ) -> SqlResult<QueryResult> {
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|exprs| {
                exprs
                    .iter()
                    .map(|e| planner::bind(e, &[])?.eval(&[]))
                    .collect::<SqlResult<_>>()
            })
            .collect::<SqlResult<_>>()?;
        if !columns.is_empty() {
            if let Some(bad) = values.iter().find(|v| v.len() != columns.len()) {
                return Err(SqlError::Bind(format!(
                    "{} columns but {} values",
                    columns.len(),
                    bad.len()
                )));
            }
        }
        let n = values.len();
        db.write_table(table, |t| -> SqlResult<()> {
            let rows = if columns.is_empty() {
                values
            } else {
                spread_over_columns(table, t.schema(), columns, values)?
            };
            Ok(t.insert_all(rows)?)
        })?;
        Ok(QueryResult::dml(n))
    }

    /// `UPDATE`: one [`Database::write_table`] statement. Every new image is
    /// computed before the first row changes, and a row that fails (a
    /// unique or type violation) rolls back the rows already updated.
    fn update(
        &self,
        db: &Database,
        table: &str,
        sets: &[(String, ast::Expr)],
        filter: Option<&ast::Expr>,
    ) -> SqlResult<QueryResult> {
        db.write_table(table, |t| {
            let scope = row_scope(table, t.schema());
            let bound_sets: Vec<(usize, BExpr)> = sets
                .iter()
                .map(|(name, e)| {
                    let i = t
                        .schema()
                        .index_of(name)
                        .ok_or_else(|| SqlError::Bind(format!("unknown column {name}")))?;
                    Ok((i, planner::bind(e, &scope)?))
                })
                .collect::<SqlResult<_>>()?;
            let pred = filter.map(|f| planner::bind(f, &scope)).transpose()?;
            let mut updates = Vec::new();
            for (id, row) in t.scan() {
                if matches_filter(pred.as_ref(), &row)? {
                    let mut new_row = row.clone();
                    for (i, e) in &bound_sets {
                        new_row[*i] = e.eval(&row)?;
                    }
                    updates.push((id, new_row));
                }
            }
            let n = updates.len();
            for (id, new_row) in updates {
                t.update(id, new_row)?;
            }
            Ok(QueryResult::dml(n))
        })
    }

    /// `DELETE`: one [`Database::write_table`] statement.
    fn delete(
        &self,
        db: &Database,
        table: &str,
        filter: Option<&ast::Expr>,
    ) -> SqlResult<QueryResult> {
        db.write_table(table, |t| {
            let scope = row_scope(table, t.schema());
            let pred = filter.map(|f| planner::bind(f, &scope)).transpose()?;
            let mut ids = Vec::new();
            for (id, row) in t.scan() {
                if matches_filter(pred.as_ref(), &row)? {
                    ids.push(id);
                }
            }
            let n = ids.len();
            for id in ids {
                t.delete(id)?;
            }
            Ok(QueryResult::dml(n))
        })
    }
}

/// The columns a DML predicate or `SET` expression binds against: the
/// table's own, qualified by its name.
fn row_scope(table: &str, schema: &Schema) -> Vec<plan::PlanCol> {
    schema
        .columns()
        .iter()
        .map(|c| plan::PlanCol {
            qualifier: Some(table.to_string()),
            name: c.name.clone(),
        })
        .collect()
}

/// Full-width rows for `INSERT INTO t (columns) VALUES ...`: each value
/// goes to its named column, the others get their default (or NULL).
fn spread_over_columns(
    table: &str,
    schema: &Schema,
    columns: &[String],
    values: Vec<Vec<Value>>,
) -> Result<Vec<Vec<Value>>, DbError> {
    let slots: Vec<usize> = columns
        .iter()
        .map(|c| {
            schema.index_of(c).ok_or_else(|| DbError::ColumnNotFound {
                table: table.to_string(),
                column: c.clone(),
            })
        })
        .collect::<Result<_, _>>()?;
    let defaults: Vec<Value> = schema
        .columns()
        .iter()
        .map(|c| c.default.clone().unwrap_or(Value::Null))
        .collect();
    Ok(values
        .into_iter()
        .map(|row| {
            let mut full = defaults.clone();
            for (&slot, v) in slots.iter().zip(row) {
                full[slot] = v;
            }
            full
        })
        .collect())
}

/// Whether `row` passes a DML `WHERE` (no filter passes every row).
fn matches_filter(pred: Option<&BExpr>, row: &[Value]) -> SqlResult<bool> {
    match pred {
        Some(p) => Ok(expr::truth(&p.eval(row)?) == Some(true)),
        None => Ok(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Database, Engine) {
        let db = Database::new();
        let e = Engine::new();
        e.execute_script(
            &db,
            "CREATE TABLE dept (id INT PRIMARY KEY, name TEXT NOT NULL, region TEXT);
             CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, name TEXT, salary DOUBLE, hired DATE);
             INSERT INTO dept VALUES (1, 'Eng', 'EU'), (2, 'Sales', 'US'), (3, 'HR', 'EU');",
        )
        .unwrap();
        e.execute(
            &db,
            "INSERT INTO emp VALUES \
               (1, 1, 'ana', 95000, NULL), \
               (2, 1, 'bob', 85000, NULL), \
               (3, 2, 'carol', 70000, NULL), \
               (4, 2, 'dan', 72000, NULL), \
               (5, NULL, 'eve', 50000, NULL)",
        )
        .unwrap();
        e.execute_script(
            &db,
            "UPDATE emp SET hired = DATE '2009-01-15' WHERE id = 1;
             UPDATE emp SET hired = DATE '2009-06-01' WHERE id = 2;
             UPDATE emp SET hired = DATE '2008-11-20' WHERE id = 3;
             UPDATE emp SET hired = DATE '2010-02-01' WHERE id = 4;
             UPDATE emp SET hired = DATE '2010-03-22' WHERE id = 5;",
        )
        .unwrap();
        (db, e)
    }

    #[test]
    fn select_star_and_where() {
        let (db, e) = setup();
        let r = e
            .execute(&db, "SELECT * FROM emp WHERE salary > 80000")
            .unwrap();
        assert_eq!(r.columns.len(), 5);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn projection_expressions_and_aliases() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT name, salary * 1.1 AS raised, UPPER(name) FROM emp WHERE id = 1",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["name", "raised", "UPPER(name)"]);
        assert_eq!(r.rows[0][1], Value::Float(95000.0 * 1.1));
        assert_eq!(r.rows[0][2], Value::from("ANA"));
    }

    #[test]
    fn inner_and_left_join() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 4); // eve has NULL dept
        let r = e
            .execute(
                &db,
                "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.id",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[4][1], Value::Null);
    }

    #[test]
    fn group_by_having_order() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT d.region, COUNT(*) AS n, AVG(e.salary) AS avg_sal \
                 FROM emp e JOIN dept d ON e.dept_id = d.id \
                 GROUP BY d.region HAVING COUNT(*) >= 2 ORDER BY avg_sal DESC",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["region", "n", "avg_sal"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("EU")); // 90k avg beats 71k
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn global_aggregates_and_empty_input() {
        let (db, e) = setup();
        let r = e
            .execute(&db, "SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
        let r = e
            .execute(&db, "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Null);
    }

    #[test]
    fn sum_overflow_promotes_to_float_instead_of_wrapping() {
        // Two i64::MAX values overflow an i64; the SUM must come back as
        // the exact total rounded once to an f64, never as a wrapped
        // negative integer.
        for engine in [Engine::new(), Engine::with_row_execution()] {
            let db = Database::new();
            engine
                .execute_script(
                    &db,
                    &format!(
                        "CREATE TABLE big (g INT, v INT);
                         INSERT INTO big VALUES (1, {max}), (1, {max}), (2, 7);",
                        max = i64::MAX
                    ),
                )
                .unwrap();
            // global aggregate
            let r = engine.execute(&db, "SELECT SUM(v) FROM big").unwrap();
            assert_eq!(
                r.rows[0][0],
                Value::Float(i64::MAX as f64 + i64::MAX as f64 + 7.0)
            );
            // grouped aggregate: only the overflowing group promotes
            let r = engine
                .execute(&db, "SELECT g, SUM(v) FROM big GROUP BY g ORDER BY g")
                .unwrap();
            assert_eq!(r.rows[0][1], Value::Float(i64::MAX as f64 * 2.0));
            assert_eq!(r.rows[1][1], Value::Int(7));
        }
    }

    #[test]
    fn sum_and_avg_read_bools_as_numbers_on_both_engines() {
        for engine in [Engine::new(), Engine::with_row_execution()] {
            let db = Database::new();
            engine
                .execute_script(
                    &db,
                    "CREATE TABLE flags (b BOOL);
                     INSERT INTO flags VALUES (TRUE), (TRUE), (FALSE), (NULL);",
                )
                .unwrap();
            let r = engine
                .execute(&db, "SELECT SUM(b), AVG(b) FROM flags")
                .unwrap();
            assert_eq!(
                r.rows,
                vec![vec![Value::Float(2.0), Value::Float(2.0 / 3.0)]]
            );
        }
    }

    #[test]
    fn count_distinct_and_null_skipping() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT COUNT(dept_id), COUNT(DISTINCT dept_id) FROM emp",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4)); // NULL skipped
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn distinct_order_limit_offset() {
        let (db, e) = setup();
        let r = e
            .execute(&db, "SELECT DISTINCT region FROM dept ORDER BY region")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = e
            .execute(&db, "SELECT id FROM emp ORDER BY id DESC LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(4)], vec![Value::Int(3)]]);
    }

    #[test]
    fn order_by_expression_not_in_select() {
        let (db, e) = setup();
        let r = e
            .execute(&db, "SELECT name FROM emp ORDER BY salary DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::from("ana"));
        assert_eq!(r.columns, vec!["name"]); // hidden sort column removed
    }

    #[test]
    fn update_and_delete_with_filters() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "UPDATE emp SET salary = salary + 1000 WHERE dept_id = 1",
            )
            .unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = e
            .execute(&db, "SELECT salary FROM emp WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(96000.0));
        let r = e
            .execute(&db, "DELETE FROM emp WHERE salary < 60000")
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(db.row_count("emp").unwrap(), 4);
    }

    #[test]
    fn insert_with_column_list_and_defaults() {
        let (db, e) = setup();
        e.execute(
            &db,
            "CREATE TABLE cfg (k TEXT PRIMARY KEY, v TEXT, n INT DEFAULT 7)",
        )
        .unwrap();
        e.execute(&db, "INSERT INTO cfg (k, v) VALUES ('a', 'x')")
            .unwrap();
        let r = e.execute(&db, "SELECT n FROM cfg").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(7));
        assert!(matches!(
            e.execute(&db, "INSERT INTO cfg (k, ghost) VALUES ('b', 'y')"),
            Err(SqlError::Storage(DbError::ColumnNotFound { .. }))
        ));
        assert!(matches!(
            e.execute(&db, "INSERT INTO cfg (k, v) VALUES ('b')"),
            Err(SqlError::Bind(_))
        ));
        assert_eq!(db.row_count("cfg").unwrap(), 1);
    }

    #[test]
    fn multi_row_insert_is_atomic() {
        let (db, e) = setup();
        let err = e
            .execute(
                &db,
                "INSERT INTO dept VALUES (10, 'X', 'EU'), (1, 'dup', 'EU')",
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
        // first row must have been rolled back
        assert_eq!(db.row_count("dept").unwrap(), 3);
    }

    #[test]
    fn index_scan_selected_and_equivalent() {
        let (db, e) = setup();
        e.execute(&db, "CREATE INDEX ix_sal ON emp (salary)")
            .unwrap();
        let explain = e
            .explain(&db, "SELECT name FROM emp WHERE salary = 70000")
            .unwrap();
        assert!(explain.contains("IndexScan"), "{explain}");
        let naive = Engine::without_index_selection();
        let a = e
            .execute(&db, "SELECT name FROM emp WHERE salary = 70000")
            .unwrap();
        let b = naive
            .execute(&db, "SELECT name FROM emp WHERE salary = 70000")
            .unwrap();
        assert_eq!(a.rows, b.rows);
        // pk lookups use the auto index
        let explain = e.explain(&db, "SELECT name FROM emp WHERE id = 3").unwrap();
        assert!(explain.contains("pk_emp"), "{explain}");
    }

    #[test]
    fn range_predicates_via_index_match_scan() {
        let (db, e) = setup();
        e.execute(&db, "CREATE INDEX ix_sal ON emp (salary)")
            .unwrap();
        let naive = Engine::without_index_selection();
        for q in [
            "SELECT id FROM emp WHERE salary > 70000 ORDER BY id",
            "SELECT id FROM emp WHERE salary >= 70000 ORDER BY id",
            "SELECT id FROM emp WHERE salary < 85000 ORDER BY id",
            "SELECT id FROM emp WHERE salary <= 85000 ORDER BY id",
            "SELECT id FROM emp WHERE salary BETWEEN 60000 AND 90000 ORDER BY id",
        ] {
            assert_eq!(
                e.execute(&db, q).unwrap().rows,
                naive.execute(&db, q).unwrap().rows,
                "query: {q}"
            );
        }
    }

    #[test]
    fn case_like_in_between() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT name, CASE WHEN salary >= 85000 THEN 'high' \
                 WHEN salary >= 60000 THEN 'mid' ELSE 'low' END AS band \
                 FROM emp WHERE name LIKE '%a%' ORDER BY id",
            )
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::from("ana"), Value::from("high")]);
        let r = e
            .execute(&db, "SELECT id FROM emp WHERE id IN (1, 3, 99) ORDER BY id")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn date_functions_and_literals() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT name FROM emp WHERE hired >= DATE '2010-01-01' ORDER BY hired",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = e
            .execute(
                &db,
                "SELECT YEAR(hired), MONTH(hired) FROM emp WHERE id = 5",
            )
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(2010), Value::Int(3)]);
    }

    #[test]
    fn from_less_select() {
        let (db, e) = setup();
        let r = e.execute(&db, "SELECT 1 + 1 AS two, 'x' || 'y'").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(2), Value::from("xy")]);
    }

    #[test]
    fn bind_errors() {
        let (db, e) = setup();
        assert!(matches!(
            e.execute(&db, "SELECT ghost FROM emp"),
            Err(SqlError::Bind(_))
        ));
        assert!(matches!(
            e.execute(
                &db,
                "SELECT name FROM emp e JOIN dept d ON e.dept_id = d.id"
            ),
            Err(SqlError::Bind(_)) // ambiguous `name`
        ));
        assert!(matches!(
            e.execute(&db, "SELECT salary FROM emp GROUP BY dept_id"),
            Err(SqlError::Bind(_))
        ));
        assert!(matches!(
            e.execute(&db, "SELECT NOSUCHFN(1)"),
            Err(SqlError::Bind(_))
        ));
    }

    #[test]
    fn three_valued_where_excludes_nulls() {
        let (db, e) = setup();
        // eve's dept_id is NULL: neither = 1 nor <> 1 matches her
        let a = e
            .execute(&db, "SELECT COUNT(*) FROM emp WHERE dept_id = 1")
            .unwrap();
        let b = e
            .execute(&db, "SELECT COUNT(*) FROM emp WHERE dept_id <> 1")
            .unwrap();
        assert_eq!(a.rows[0][0], Value::Int(2));
        assert_eq!(b.rows[0][0], Value::Int(2));
    }

    #[test]
    fn text_table_rendering() {
        let (db, e) = setup();
        let r = e
            .execute(&db, "SELECT id, name FROM emp WHERE id = 1")
            .unwrap();
        let t = r.to_text_table();
        assert!(t.contains("| id |"));
        assert!(t.contains("| ana"));
    }

    #[test]
    fn group_by_expression() {
        let (db, e) = setup();
        let r = e
            .execute(
                &db,
                "SELECT YEAR(hired) AS y, COUNT(*) FROM emp GROUP BY YEAR(hired) ORDER BY y",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3); // 2008, 2009, 2010
        assert_eq!(r.rows[2], vec![Value::Int(2010), Value::Int(2)]);
    }

    #[test]
    fn tumble_in_group_by() {
        let (db, e) = setup();
        // 2-year tumbling windows over hire dates, expressed on YEAR()
        let r = e
            .execute(
                &db,
                "SELECT TUMBLE(YEAR(hired), 2) AS w, COUNT(*) FROM emp GROUP BY TUMBLE(YEAR(hired), 2) ORDER BY w",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(2008), Value::Int(3)], // 2008 + 2009×2
                vec![Value::Int(2010), Value::Int(2)],
            ]
        );
    }

    /// The TUMBLE overflow guard holds on both executors: aligning a value
    /// at the type minimum onto a non-divisor width is an eval error on the
    /// vectorized and the row engine alike — never a wrap or a panic.
    #[test]
    fn tumble_extreme_values_error_on_both_engines() {
        for engine in [Engine::new(), Engine::with_row_execution()] {
            let db = Database::new();
            engine.execute(&db, "CREATE TABLE ev (t BIGINT)").unwrap();
            // i64::MIN has no positive literal; build it arithmetically
            engine
                .execute(&db, "INSERT INTO ev VALUES (-9223372036854775807 - 1)")
                .unwrap();
            let err = engine
                .execute(&db, "SELECT TUMBLE(t, 3) FROM ev")
                .unwrap_err();
            assert!(
                matches!(err, SqlError::Eval(ref m) if m.contains("overflow")),
                "expected TUMBLE overflow eval error, got {err:?}"
            );
            // a width the minimum divides exactly still evaluates
            let r = engine.execute(&db, "SELECT TUMBLE(t, 2) FROM ev").unwrap();
            assert_eq!(r.rows[0][0], Value::Int(i64::MIN));
        }
    }

    #[test]
    fn statement_tables_walks_statements() {
        let tables = |sql: &str| {
            let mut out = Vec::new();
            for stmt in parse_script(sql).unwrap() {
                statement_tables(&stmt, &mut out);
            }
            out
        };
        assert_eq!(
            tables("SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id"),
            vec!["emp", "dept"]
        );
        assert_eq!(
            tables("INSERT INTO Emp VALUES (1); DELETE FROM emp"),
            vec!["emp"]
        );
        assert_eq!(tables("SELECT 1 + 1"), Vec::<String>::new());
    }

    #[test]
    fn ddl_if_variants() {
        let (db, e) = setup();
        assert!(e
            .execute(&db, "CREATE TABLE IF NOT EXISTS dept (id INT)")
            .is_ok());
        assert!(e.execute(&db, "DROP TABLE IF EXISTS nothere").is_ok());
        assert!(e.execute(&db, "DROP TABLE nothere").is_err());
    }
}
