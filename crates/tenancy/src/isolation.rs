//! Tenant data isolation strategies over the shared storage substrate.
//!
//! The paper's multi-tenant claim (§2): "the physical backend hardware
//! infrastructure is shared among many different customers but logically is
//! unique for each customer... one database is used to store all customers
//! data, so, this makes the overall system scalable at a far lower cost."
//!
//! Two strategies are implemented so the economies-of-scale claim (C1) can
//! be measured:
//!
//! * [`SharedSchema`] — one `Database`, every table carries a `tenant_id`
//!   discriminator column, and all tenant SQL is rewritten to stay inside
//!   the tenant's partition;
//! * [`DedicatedInstances`] — one `Database` per tenant (the traditional
//!   model the paper contrasts against).

use std::collections::BTreeMap;
use std::sync::Arc;

use odbis_sql::{Engine, QueryResult, SqlError};
use odbis_storage::{Column, DataType, Database, Schema, Value};
use parking_lot::Mutex;

use crate::registry::{TenancyError, TenancyResult};

/// Name of the discriminator column injected into shared tables.
pub const TENANT_COLUMN: &str = "tenant_id";

/// Shared-schema multi-tenancy: one database, tenant-discriminated tables.
pub struct SharedSchema {
    db: Arc<Database>,
    engine: Engine,
}

impl SharedSchema {
    /// Wrap a shared database.
    pub fn new(db: Arc<Database>) -> Self {
        SharedSchema {
            db,
            engine: Engine::new(),
        }
    }

    /// The underlying shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Create a shared table: the given schema plus the leading
    /// `tenant_id` discriminator column (indexed for partition pruning).
    pub fn create_shared_table(&self, name: &str, user_schema: Schema) -> TenancyResult<()> {
        let mut cols = vec![Column::new(TENANT_COLUMN, DataType::Text).not_null()];
        cols.extend(user_schema.columns().iter().cloned());
        let schema =
            Schema::new(cols).map_err(|e| TenancyError::PlanLimit(format!("schema error: {e}")))?;
        self.db
            .create_table(name, schema)
            .map_err(|e| TenancyError::PlanLimit(format!("create failed: {e}")))?;
        self.db
            .write_table(name, |t| {
                t.create_index(&format!("ix_{name}_tenant"), &[TENANT_COLUMN], false)
            })
            .map_err(|e| TenancyError::PlanLimit(format!("index failed: {e}")))?;
        Ok(())
    }

    /// Insert a row for a tenant (discriminator prepended automatically).
    pub fn insert(&self, tenant: &str, table: &str, row: Vec<Value>) -> TenancyResult<()> {
        let mut full = Vec::with_capacity(row.len() + 1);
        full.push(Value::Text(tenant.to_string()));
        full.extend(row);
        self.db
            .insert(table, full)
            .map_err(|e| TenancyError::PlanLimit(format!("insert failed: {e}")))?;
        Ok(())
    }

    /// Run a tenant-scoped `SELECT`: the query's `WHERE` is augmented with
    /// the tenant predicate, so a tenant can never read another tenant's
    /// rows through this API.
    pub fn query(&self, tenant: &str, select_sql: &str) -> Result<QueryResult, SqlError> {
        let scoped = scope_select(select_sql, tenant)?;
        self.engine.execute(&self.db, &scoped)
    }

    /// Rows a tenant holds in a shared table.
    pub fn tenant_row_count(&self, tenant: &str, table: &str) -> usize {
        self.query(tenant, &format!("SELECT COUNT(*) AS n FROM {table}"))
            .ok()
            .and_then(|r| r.rows.first().and_then(|row| row[0].as_i64()))
            .unwrap_or(0) as usize
    }
}

/// Inject `tenant_id = '<tenant>'` into a SELECT statement's WHERE clause
/// by rewriting the AST (not by string concatenation, so ORDER BY/GROUP BY
/// placement is always correct).
pub fn scope_select(sql: &str, tenant: &str) -> Result<String, SqlError> {
    use odbis_sql::ast::{BinOp, Expr, Statement};
    let stmt = odbis_sql::parse(sql)?;
    let Statement::Select(mut sel) = stmt else {
        return Err(SqlError::Bind(
            "tenant-scoped execution allows only SELECT".into(),
        ));
    };
    let guard = Expr::Binary {
        op: BinOp::Eq,
        left: Box::new(Expr::col(TENANT_COLUMN)),
        right: Box::new(Expr::lit(tenant)),
    };
    sel.filter = Some(match sel.filter.take() {
        Some(f) => Expr::Binary {
            op: BinOp::And,
            left: Box::new(guard),
            right: Box::new(f),
        },
        None => guard,
    });
    // re-render is unnecessary: execute the mutated AST directly. We return
    // SQL text for observability, reconstructing a canonical form.
    Ok(render_select(&sel))
}

/// Render a (possibly rewritten) SELECT AST back to SQL text.
fn render_select(sel: &odbis_sql::ast::SelectStmt) -> String {
    use odbis_sql::ast::SelectItem;
    let mut out = String::from("SELECT ");
    if sel.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = sel
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
            SelectItem::Expr { expr, alias } => {
                let e = odbis_sql::planner::display_expr_sql(expr);
                match alias {
                    Some(a) => format!("{e} AS {a}"),
                    None => e,
                }
            }
        })
        .collect();
    out.push_str(&items.join(", "));
    if let Some(from) = &sel.from {
        out.push_str(&format!(" FROM {}", from.table));
        if let Some(a) = &from.alias {
            out.push_str(&format!(" {a}"));
        }
    }
    for j in &sel.joins {
        let kw = match j.kind {
            odbis_sql::ast::JoinKind::Inner => "JOIN",
            odbis_sql::ast::JoinKind::Left => "LEFT JOIN",
        };
        out.push_str(&format!(" {kw} {}", j.table.table));
        if let Some(a) = &j.table.alias {
            out.push_str(&format!(" {a}"));
        }
        out.push_str(&format!(
            " ON {}",
            odbis_sql::planner::display_expr_sql(&j.on)
        ));
    }
    if let Some(f) = &sel.filter {
        out.push_str(&format!(
            " WHERE {}",
            odbis_sql::planner::display_expr_sql(f)
        ));
    }
    if !sel.group_by.is_empty() {
        let gs: Vec<String> = sel
            .group_by
            .iter()
            .map(odbis_sql::planner::display_expr_sql)
            .collect();
        out.push_str(&format!(" GROUP BY {}", gs.join(", ")));
    }
    if let Some(h) = &sel.having {
        out.push_str(&format!(
            " HAVING {}",
            odbis_sql::planner::display_expr_sql(h)
        ));
    }
    if !sel.order_by.is_empty() {
        let ks: Vec<String> = sel
            .order_by
            .iter()
            .map(|k| {
                format!(
                    "{}{}",
                    odbis_sql::planner::display_expr_sql(&k.expr),
                    if k.desc { " DESC" } else { "" }
                )
            })
            .collect();
        out.push_str(&format!(" ORDER BY {}", ks.join(", ")));
    }
    if let Some(l) = sel.limit {
        out.push_str(&format!(" LIMIT {l}"));
    }
    if let Some(o) = sel.offset {
        out.push_str(&format!(" OFFSET {o}"));
    }
    out
}

/// Dedicated-instance tenancy: the traditional per-customer deployment the
/// SaaS model replaces. One full `Database` per tenant.
pub struct DedicatedInstances {
    dbs: Mutex<BTreeMap<String, Arc<Database>>>,
    engine: Engine,
}

impl Default for DedicatedInstances {
    fn default() -> Self {
        DedicatedInstances::new()
    }
}

impl DedicatedInstances {
    /// Empty deployment.
    pub fn new() -> Self {
        DedicatedInstances {
            dbs: Mutex::new(BTreeMap::new()),
            engine: Engine::new(),
        }
    }

    /// Provision (or fetch) a tenant's database instance.
    pub fn database_for(&self, tenant: &str) -> Arc<Database> {
        Arc::clone(
            self.dbs
                .lock()
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(Database::new())),
        )
    }

    /// Execute SQL inside one tenant's instance.
    pub fn execute(&self, tenant: &str, sql: &str) -> Result<QueryResult, SqlError> {
        let db = self.database_for(tenant);
        self.engine.execute(&db, sql)
    }

    /// Number of provisioned instances.
    pub fn instance_count(&self) -> usize {
        self.dbs.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with_orders() -> SharedSchema {
        let shared = SharedSchema::new(Arc::new(Database::new()));
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("amount", DataType::Float),
        ])
        .unwrap();
        shared.create_shared_table("orders", schema).unwrap();
        shared
            .insert("t1", "orders", vec![1.into(), 10.0.into()])
            .unwrap();
        shared
            .insert("t1", "orders", vec![2.into(), 20.0.into()])
            .unwrap();
        shared
            .insert("t2", "orders", vec![1.into(), 99.0.into()])
            .unwrap();
        shared
    }

    #[test]
    fn tenants_cannot_see_each_other() {
        let shared = shared_with_orders();
        let r1 = shared
            .query("t1", "SELECT SUM(amount) FROM orders")
            .unwrap();
        assert_eq!(r1.rows[0][0], Value::Float(30.0));
        let r2 = shared
            .query("t2", "SELECT SUM(amount) FROM orders")
            .unwrap();
        assert_eq!(r2.rows[0][0], Value::Float(99.0));
        assert_eq!(shared.tenant_row_count("t1", "orders"), 2);
        assert_eq!(shared.tenant_row_count("t3", "orders"), 0);
    }

    #[test]
    fn scoping_survives_existing_where_and_clauses() {
        let shared = shared_with_orders();
        let r = shared
            .query(
                "t1",
                "SELECT id FROM orders WHERE amount > 15 ORDER BY id DESC LIMIT 5",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn isolation_breach_attempt_is_neutralized() {
        let shared = shared_with_orders();
        // attacker tries to escape the partition via OR — the guard is
        // ANDed around the whole user predicate, so this still returns
        // only t1's rows
        let r = shared
            .query(
                "t1",
                "SELECT COUNT(*) FROM orders WHERE tenant_id = 't2' OR 1 = 1",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        // non-SELECT statements are rejected outright
        assert!(shared.query("t1", "DELETE FROM orders").is_err());
    }

    #[test]
    fn dedicated_instances_are_physically_separate() {
        let ded = DedicatedInstances::new();
        ded.execute("a", "CREATE TABLE t (x INT)").unwrap();
        ded.execute("a", "INSERT INTO t VALUES (1)").unwrap();
        // tenant b has no table `t` at all
        assert!(ded.execute("b", "SELECT * FROM t").is_err());
        assert_eq!(ded.instance_count(), 2);
    }

    #[test]
    fn scope_select_rewrites_ast() {
        let s = scope_select("SELECT a FROM t WHERE b = 1 ORDER BY a", "acme").unwrap();
        assert!(s.contains("tenant_id = 'acme'"), "{s}");
        assert!(s.ends_with("ORDER BY a"), "{s}");
        assert!(scope_select("DROP TABLE t", "acme").is_err());
    }
}
