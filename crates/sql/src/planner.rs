//! Binder + planner + rule-based optimizer: AST → [`Plan`].

use odbis_storage::{Batch, Database};

use crate::ast::{self, AggFunc, BinOp, Expr, SelectItem, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::expr::{typed_literal, BExpr};
use crate::functions::ScalarFunc;
use crate::plan::{AggExpr, Plan, PlanCol, PlanNode, PlanSchema};

/// Plan a `SELECT` statement against the catalog.
pub fn plan_select(db: &Database, sel: &SelectStmt) -> SqlResult<Plan> {
    Planner { db }.select(sel)
}

struct Planner<'a> {
    db: &'a Database,
}

impl<'a> Planner<'a> {
    // ---- base relation -----------------------------------------------------

    fn scan(&self, tref: &ast::TableRef) -> SqlResult<Plan> {
        let schema = self
            .db
            .table_schema(&tref.table)
            .map_err(SqlError::Storage)?;
        let binding = tref.binding().to_string();
        let cols: PlanSchema = schema
            .columns()
            .iter()
            .map(|c| PlanCol {
                qualifier: Some(binding.clone()),
                name: c.name.clone(),
            })
            .collect();
        Ok(Plan {
            node: PlanNode::TableScan {
                table: tref.table.clone(),
                filter: None,
                projection: None,
            },
            schema: cols,
        })
    }

    fn base(&self, sel: &SelectStmt) -> SqlResult<Plan> {
        let Some(from) = &sel.from else {
            // FROM-less select handled by caller
            unreachable!("base() requires FROM");
        };
        let mut plan = self.scan(from)?;
        for join in &sel.joins {
            let right = self.scan(&join.table)?;
            let mut schema = plan.schema.clone();
            schema.extend(right.schema.clone());
            let on = bind(&join.on, &schema)?;
            plan = Plan {
                node: PlanNode::Join {
                    kind: join.kind,
                    left: Box::new(plan),
                    right: Box::new(right),
                    on,
                },
                schema,
            };
        }
        Ok(plan)
    }

    // ---- SELECT ------------------------------------------------------------

    fn select(&self, sel: &SelectStmt) -> SqlResult<Plan> {
        if sel.from.is_none() {
            return self.select_without_from(sel);
        }
        let mut plan = self.base(sel)?;

        if let Some(filter) = &sel.filter {
            if filter.contains_aggregate() {
                return Err(SqlError::Bind("aggregates not allowed in WHERE".into()));
            }
            let predicate = bind(filter, &plan.schema)?;
            let schema = plan.schema.clone();
            plan = Plan {
                node: PlanNode::Filter {
                    input: Box::new(plan),
                    predicate,
                },
                schema,
            };
        }

        let has_agg = !sel.group_by.is_empty()
            || sel.having.is_some()
            || sel.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });

        // Expressions to project, their output names, and (for ORDER BY)
        // the ASTs they came from.
        let mut proj_exprs: Vec<BExpr> = Vec::new();
        let mut out_schema: PlanSchema = Vec::new();
        let mut item_asts: Vec<Option<Expr>> = Vec::new();

        // The schema the projection is bound over (base or aggregate output),
        // plus the rewriting context for aggregated queries.
        let agg_ctx = if has_agg {
            Some(self.build_aggregate(&mut plan, sel)?)
        } else {
            None
        };

        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    if has_agg {
                        return Err(SqlError::Bind(
                            "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                        ));
                    }
                    for (i, c) in plan.schema.iter().enumerate() {
                        proj_exprs.push(BExpr::Column(i));
                        out_schema.push(c.clone());
                        item_asts.push(None);
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    if has_agg {
                        return Err(SqlError::Bind(
                            "qualified * cannot be combined with aggregates".into(),
                        ));
                    }
                    let mut matched = false;
                    for (i, c) in plan.schema.iter().enumerate() {
                        if c.qualifier
                            .as_deref()
                            .is_some_and(|x| x.eq_ignore_ascii_case(q))
                        {
                            proj_exprs.push(BExpr::Column(i));
                            out_schema.push(c.clone());
                            item_asts.push(None);
                            matched = true;
                        }
                    }
                    if !matched {
                        return Err(SqlError::Bind(format!("unknown table alias {q}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bexpr = match &agg_ctx {
                        Some(ctx) => ctx.rewrite_and_bind(expr)?,
                        None => bind(expr, &plan.schema)?,
                    };
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        // a qualified column is named by its bare name
                        Expr::Column { name, .. } => name.clone(),
                        other => display_expr(other),
                    });
                    proj_exprs.push(bexpr);
                    out_schema.push(PlanCol::unqualified(name));
                    item_asts.push(Some(expr.clone()));
                }
            }
        }

        // HAVING applies on the aggregate output, before projection.
        if let Some(having) = &sel.having {
            let ctx = agg_ctx
                .as_ref()
                .ok_or_else(|| SqlError::Bind("HAVING requires GROUP BY or aggregates".into()))?;
            let predicate = ctx.rewrite_and_bind(having)?;
            let schema = plan.schema.clone();
            plan = Plan {
                node: PlanNode::Filter {
                    input: Box::new(plan),
                    predicate,
                },
                schema,
            };
        }

        // ORDER BY: resolve each key to an output ordinal, or append a
        // hidden projection column.
        let mut sort_keys: Vec<(usize, bool)> = Vec::new();
        let mut hidden = 0usize;
        for key in &sel.order_by {
            let ordinal = self.resolve_order_key(&key.expr, &out_schema, &item_asts)?;
            let ord = match ordinal {
                Some(o) => o,
                None => {
                    if sel.distinct {
                        return Err(SqlError::Bind(
                            "ORDER BY expression must appear in SELECT list when DISTINCT is used"
                                .into(),
                        ));
                    }
                    let bexpr = match &agg_ctx {
                        Some(ctx) => ctx.rewrite_and_bind(&key.expr)?,
                        None => bind(&key.expr, &plan.schema)?,
                    };
                    proj_exprs.push(bexpr);
                    hidden += 1;
                    proj_exprs.len() - 1
                }
            };
            sort_keys.push((ord, key.desc));
        }

        // Projection (with hidden sort columns appended).
        let mut proj_schema = out_schema.clone();
        for i in 0..hidden {
            proj_schema.push(PlanCol::unqualified(format!("#sort{i}")));
        }
        plan = Plan {
            node: PlanNode::Project {
                input: Box::new(plan),
                exprs: proj_exprs,
            },
            schema: proj_schema,
        };

        if sel.distinct {
            let schema = plan.schema.clone();
            plan = Plan {
                node: PlanNode::Distinct {
                    input: Box::new(plan),
                },
                schema,
            };
        }

        if !sort_keys.is_empty() {
            let schema = plan.schema.clone();
            plan = Plan {
                node: PlanNode::Sort {
                    input: Box::new(plan),
                    keys: sort_keys,
                },
                schema,
            };
        }

        if hidden > 0 {
            let exprs: Vec<BExpr> = (0..out_schema.len()).map(BExpr::Column).collect();
            plan = Plan {
                node: PlanNode::Project {
                    input: Box::new(plan),
                    exprs,
                },
                schema: out_schema.clone(),
            };
        }

        if sel.limit.is_some() || sel.offset.is_some() {
            let schema = plan.schema.clone();
            plan = Plan {
                node: PlanNode::Limit {
                    input: Box::new(plan),
                    limit: sel.limit,
                    offset: sel.offset.unwrap_or(0),
                },
                schema,
            };
        }

        Ok(plan)
    }

    fn select_without_from(&self, sel: &SelectStmt) -> SqlResult<Plan> {
        let mut row = Vec::new();
        let mut schema = PlanSchema::new();
        for item in &sel.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::Bind("SELECT * requires a FROM clause".into()));
            };
            let bexpr = bind(expr, &[])?;
            let v = bexpr.eval(&[]).map_err(|e| {
                SqlError::Bind(format!("non-constant expression without FROM: {e}"))
            })?;
            row.push(v);
            schema.push(PlanCol::unqualified(
                alias.clone().unwrap_or_else(|| display_expr(expr)),
            ));
        }
        Ok(Plan {
            node: PlanNode::Values {
                batch: Batch::from_rows(schema.len(), vec![row])?,
            },
            schema,
        })
    }

    fn resolve_order_key(
        &self,
        expr: &Expr,
        out_schema: &PlanSchema,
        item_asts: &[Option<Expr>],
    ) -> SqlResult<Option<usize>> {
        // 1-based output ordinal
        if let Expr::Literal(odbis_storage::Value::Int(n)) = expr {
            let n = *n;
            if n < 1 || n as usize > out_schema.len() {
                return Err(SqlError::Bind(format!(
                    "ORDER BY position {n} is out of range (1..={})",
                    out_schema.len()
                )));
            }
            return Ok(Some(n as usize - 1));
        }
        // alias or output-column name
        if let Expr::Column {
            qualifier: None,
            name,
        } = expr
        {
            if let Some(i) = out_schema
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
            {
                return Ok(Some(i));
            }
        }
        // exact AST match against a select item
        if let Some(i) = item_asts
            .iter()
            .position(|a| a.as_ref().is_some_and(|a| loose_expr_eq(a, expr)))
        {
            return Ok(Some(i));
        }
        Ok(None)
    }

    // ---- aggregation ---------------------------------------------------------

    /// Insert an Aggregate node above `plan`; returns the rewrite context for
    /// binding item/having/order expressions against the aggregate output.
    fn build_aggregate(&self, plan: &mut Plan, sel: &SelectStmt) -> SqlResult<AggContext> {
        let input_schema = plan.schema.clone();

        let mut group_asts: Vec<Expr> = Vec::new();
        let mut group_bexprs: Vec<BExpr> = Vec::new();
        for g in &sel.group_by {
            if g.contains_aggregate() {
                return Err(SqlError::Bind("aggregates not allowed in GROUP BY".into()));
            }
            group_bexprs.push(bind(g, &input_schema)?);
            group_asts.push(g.clone());
        }

        // collect unique aggregate calls from items, having and order keys
        let mut agg_asts: Vec<(AggFunc, Option<Expr>, bool)> = Vec::new();
        let mut collect = |e: &Expr| collect_aggs(e, &mut agg_asts);
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &sel.having {
            collect(h);
        }
        for k in &sel.order_by {
            collect(&k.expr);
        }

        let mut aggs = Vec::new();
        for (func, arg, distinct) in &agg_asts {
            let bound_arg = match arg {
                Some(a) => Some(bind(a, &input_schema)?),
                None => None,
            };
            aggs.push(AggExpr {
                func: *func,
                arg: bound_arg,
                distinct: *distinct,
            });
        }

        let mut schema: PlanSchema = Vec::new();
        for (i, g) in group_asts.iter().enumerate() {
            let name = match g {
                Expr::Column { name, .. } => name.clone(),
                _ => format!("#g{i}"),
            };
            schema.push(PlanCol {
                qualifier: Some("#agg".to_string()),
                name,
            });
        }
        for (j, (func, arg, _)) in agg_asts.iter().enumerate() {
            let name = match arg {
                Some(a) => format!("{}({})", func.name(), display_expr(a)),
                None => format!("{}(*)", func.name()),
            };
            let _ = j;
            schema.push(PlanCol {
                qualifier: Some("#agg".to_string()),
                name,
            });
        }

        let old = std::mem::replace(
            plan,
            Plan {
                node: PlanNode::Values {
                    batch: Batch::default(),
                },
                schema: vec![],
            },
        );
        *plan = Plan {
            node: PlanNode::Aggregate {
                input: Box::new(old),
                group_exprs: group_bexprs,
                aggs,
            },
            schema: schema.clone(),
        };

        Ok(AggContext {
            group_asts,
            agg_asts,
        })
    }
}

/// Rewrite context for expressions evaluated above an Aggregate node.
struct AggContext {
    group_asts: Vec<Expr>,
    agg_asts: Vec<(AggFunc, Option<Expr>, bool)>,
}

impl AggContext {
    /// Rewrite `expr` so group expressions and aggregate calls become column
    /// references into the aggregate output, then bind it.
    fn rewrite_and_bind(&self, expr: &Expr) -> SqlResult<BExpr> {
        self.rewrite(expr)
    }

    fn rewrite(&self, expr: &Expr) -> SqlResult<BExpr> {
        // whole expression equals a group expression?
        if let Some(i) = self.group_asts.iter().position(|g| loose_expr_eq(g, expr)) {
            return Ok(BExpr::Column(i));
        }
        match expr {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                let j = self
                    .agg_asts
                    .iter()
                    .position(|(f, a, d)| {
                        f == func
                            && d == distinct
                            && match (a, arg) {
                                (None, None) => true,
                                (Some(x), Some(y)) => loose_expr_eq(x, y),
                                _ => false,
                            }
                    })
                    .ok_or_else(|| SqlError::Bind("unknown aggregate".into()))?;
                Ok(BExpr::Column(self.group_asts.len() + j))
            }
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::TypedLiteral { ty, text } => Ok(BExpr::Literal(typed_literal(*ty, text)?)),
            Expr::Column { name, .. } => Err(SqlError::Bind(format!(
                "column {name} must appear in GROUP BY or inside an aggregate"
            ))),
            Expr::Binary { op, left, right } => Ok(BExpr::Binary {
                op: *op,
                left: Box::new(self.rewrite(left)?),
                right: Box::new(self.rewrite(right)?),
            }),
            Expr::Unary { op, expr } => Ok(BExpr::Unary {
                op: *op,
                expr: Box::new(self.rewrite(expr)?),
            }),
            Expr::IsNull { expr, negated } => Ok(BExpr::IsNull {
                expr: Box::new(self.rewrite(expr)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BExpr::InList {
                expr: Box::new(self.rewrite(expr)?),
                list: list
                    .iter()
                    .map(|e| self.rewrite(e))
                    .collect::<SqlResult<_>>()?,
                negated: *negated,
            }),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => Ok(BExpr::Between {
                expr: Box::new(self.rewrite(expr)?),
                lo: Box::new(self.rewrite(lo)?),
                hi: Box::new(self.rewrite(hi)?),
                negated: *negated,
            }),
            Expr::Function { name, args } => {
                let func = ScalarFunc::resolve(name)
                    .ok_or_else(|| SqlError::Bind(format!("unknown function {name}")))?;
                func.check_arity(args.len()).map_err(SqlError::Bind)?;
                Ok(BExpr::Function {
                    func,
                    args: args
                        .iter()
                        .map(|e| self.rewrite(e))
                        .collect::<SqlResult<_>>()?,
                })
            }
            Expr::Case {
                branches,
                else_expr,
            } => Ok(BExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((self.rewrite(c)?, self.rewrite(r)?)))
                    .collect::<SqlResult<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.rewrite(e)?)),
                    None => None,
                },
            }),
        }
    }
}

fn collect_aggs(expr: &Expr, out: &mut Vec<(AggFunc, Option<Expr>, bool)>) {
    match expr {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let arg_ast = arg.as_ref().map(|a| (**a).clone());
            let exists = out.iter().any(|(f, a, d)| {
                f == func
                    && d == distinct
                    && match (a, &arg_ast) {
                        (None, None) => true,
                        (Some(x), Some(y)) => loose_expr_eq(x, y),
                        _ => false,
                    }
            });
            if !exists {
                out.push((*func, arg_ast, *distinct));
            }
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::TypedLiteral { .. } => {}
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for e in list {
                collect_aggs(e, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                collect_aggs(c, out);
                collect_aggs(r, out);
            }
            if let Some(e) = else_expr {
                collect_aggs(e, out);
            }
        }
    }
}

/// Case-insensitive structural expression equality; a missing column
/// qualifier on either side matches any qualifier on the other.
pub fn loose_expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (
            Expr::Column {
                qualifier: qa,
                name: na,
            },
            Expr::Column {
                qualifier: qb,
                name: nb,
            },
        ) => {
            na.eq_ignore_ascii_case(nb)
                && match (qa, qb) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true,
                }
        }
        (Expr::Literal(x), Expr::Literal(y)) => x == y,
        (Expr::TypedLiteral { ty: ta, text: xa }, Expr::TypedLiteral { ty: tb, text: xb }) => {
            ta == tb && xa == xb
        }
        (
            Expr::Binary {
                op: oa,
                left: la,
                right: ra,
            },
            Expr::Binary {
                op: ob,
                left: lb,
                right: rb,
            },
        ) => oa == ob && loose_expr_eq(la, lb) && loose_expr_eq(ra, rb),
        (Expr::Unary { op: oa, expr: ea }, Expr::Unary { op: ob, expr: eb }) => {
            oa == ob && loose_expr_eq(ea, eb)
        }
        (
            Expr::IsNull {
                expr: ea,
                negated: na,
            },
            Expr::IsNull {
                expr: eb,
                negated: nb,
            },
        ) => na == nb && loose_expr_eq(ea, eb),
        (Expr::Function { name: na, args: aa }, Expr::Function { name: nb, args: ab }) => {
            na.eq_ignore_ascii_case(nb)
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| loose_expr_eq(x, y))
        }
        (
            Expr::Aggregate {
                func: fa,
                arg: aa,
                distinct: da,
            },
            Expr::Aggregate {
                func: fb,
                arg: ab,
                distinct: db,
            },
        ) => {
            fa == fb
                && da == db
                && match (aa, ab) {
                    (None, None) => true,
                    (Some(x), Some(y)) => loose_expr_eq(x, y),
                    _ => false,
                }
        }
        _ => a == b,
    }
}

/// Bind an AST expression against a schema, resolving column names to
/// ordinals. Aggregates are rejected (they only exist above Aggregate nodes).
pub fn bind(expr: &Expr, schema: &[PlanCol]) -> SqlResult<BExpr> {
    Ok(match expr {
        Expr::Literal(v) => BExpr::Literal(v.clone()),
        Expr::TypedLiteral { ty, text } => BExpr::Literal(typed_literal(*ty, text)?),
        Expr::Column { qualifier, name } => {
            let mut matches = schema.iter().enumerate().filter(|(_, c)| {
                c.name.eq_ignore_ascii_case(name)
                    && match (qualifier, &c.qualifier) {
                        (Some(q), Some(cq)) => q.eq_ignore_ascii_case(cq),
                        (Some(_), None) => false,
                        (None, _) => true,
                    }
            });
            let first = matches.next();
            let second = matches.next();
            match (first, second) {
                (Some((i, _)), None) => BExpr::Column(i),
                (Some(_), Some(_)) => {
                    return Err(SqlError::Bind(format!("ambiguous column {name}")))
                }
                (None, _) => {
                    let full = match qualifier {
                        Some(q) => format!("{q}.{name}"),
                        None => name.clone(),
                    };
                    return Err(SqlError::Bind(format!("unknown column {full}")));
                }
            }
        }
        Expr::Binary { op, left, right } => BExpr::Binary {
            op: *op,
            left: Box::new(bind(left, schema)?),
            right: Box::new(bind(right, schema)?),
        },
        Expr::Unary { op, expr } => BExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        },
        Expr::IsNull { expr, negated } => BExpr::IsNull {
            expr: Box::new(bind(expr, schema)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BExpr::InList {
            expr: Box::new(bind(expr, schema)?),
            list: list
                .iter()
                .map(|e| bind(e, schema))
                .collect::<SqlResult<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => BExpr::Between {
            expr: Box::new(bind(expr, schema)?),
            lo: Box::new(bind(lo, schema)?),
            hi: Box::new(bind(hi, schema)?),
            negated: *negated,
        },
        Expr::Function { name, args } => {
            let func = ScalarFunc::resolve(name)
                .ok_or_else(|| SqlError::Bind(format!("unknown function {name}")))?;
            func.check_arity(args.len()).map_err(SqlError::Bind)?;
            BExpr::Function {
                func,
                args: args
                    .iter()
                    .map(|e| bind(e, schema))
                    .collect::<SqlResult<_>>()?,
            }
        }
        Expr::Aggregate { func, .. } => {
            return Err(SqlError::Bind(format!(
                "aggregate {} not allowed here",
                func.name()
            )))
        }
        Expr::Case {
            branches,
            else_expr,
        } => BExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((bind(c, schema)?, bind(r, schema)?)))
                .collect::<SqlResult<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, schema)?)),
                None => None,
            },
        },
    })
}

/// Short human-readable rendering of an AST expression (used for implicit
/// output-column names and for EXPLAIN).
pub fn display_expr(expr: &Expr) -> String {
    match expr {
        Expr::Literal(v) => v.render(),
        Expr::TypedLiteral { ty, text } => format!("{ty} '{text}'"),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Binary { op, left, right } => {
            format!(
                "{} {} {}",
                display_expr(left),
                op_str(*op),
                display_expr(right)
            )
        }
        Expr::Unary { op, expr } => match op {
            ast::UnOp::Neg => format!("-{}", display_expr(expr)),
            ast::UnOp::Not => format!("NOT {}", display_expr(expr)),
        },
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            display_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList { expr, .. } => format!("{} IN (...)", display_expr(expr)),
        Expr::Between { expr, .. } => format!("{} BETWEEN ...", display_expr(expr)),
        Expr::Function { name, args } => {
            let parts: Vec<String> = args.iter().map(display_expr).collect();
            format!("{name}({})", parts.join(", "))
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => format!(
                    "{}{}",
                    if *distinct { "DISTINCT " } else { "" },
                    display_expr(a)
                ),
            };
            format!("{}({inner})", func.name())
        }
        Expr::Case { .. } => "CASE".to_string(),
    }
}

/// Render an AST expression back to *valid SQL* (string literals quoted,
/// every form round-trippable through [`crate::parse`]). Used by layers
/// that rewrite queries (e.g. tenant scoping) and need to re-execute them.
pub fn display_expr_sql(expr: &Expr) -> String {
    use odbis_storage::Value;
    match expr {
        Expr::Literal(v) => match v {
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Date(_) => format!("DATE '{}'", v.render()),
            Value::Timestamp(_) => format!("TIMESTAMP '{}'", v.render()),
            other => other.render(),
        },
        Expr::TypedLiteral { ty, text } => format!("{ty} '{text}'"),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Binary { op, left, right } => format!(
            "({} {} {})",
            display_expr_sql(left),
            op_str(*op),
            display_expr_sql(right)
        ),
        Expr::Unary { op, expr } => match op {
            ast::UnOp::Neg => format!("(-{})", display_expr_sql(expr)),
            ast::UnOp::Not => format!("(NOT {})", display_expr_sql(expr)),
        },
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            display_expr_sql(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(display_expr_sql).collect();
            format!(
                "({} {}IN ({}))",
                display_expr_sql(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => format!(
            "({} {}BETWEEN {} AND {})",
            display_expr_sql(expr),
            if *negated { "NOT " } else { "" },
            display_expr_sql(lo),
            display_expr_sql(hi)
        ),
        Expr::Function { name, args } => {
            let parts: Vec<String> = args.iter().map(display_expr_sql).collect();
            format!("{name}({})", parts.join(", "))
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => format!(
                    "{}{}",
                    if *distinct { "DISTINCT " } else { "" },
                    display_expr_sql(a)
                ),
            };
            format!("{}({inner})", func.name())
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut s = String::from("CASE");
            for (c, r) in branches {
                s.push_str(&format!(
                    " WHEN {} THEN {}",
                    display_expr_sql(c),
                    display_expr_sql(r)
                ));
            }
            if let Some(e) = else_expr {
                s.push_str(&format!(" ELSE {}", display_expr_sql(e)));
            }
            s.push_str(" END");
            s
        }
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "=",
        BinOp::Neq => "<>",
        BinOp::Lt => "<",
        BinOp::Lte => "<=",
        BinOp::Gt => ">",
        BinOp::Gte => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
        BinOp::Concat => "||",
        BinOp::Like => "LIKE",
    }
}
