//! Logical/physical query plans.

use odbis_storage::{Batch, Value};

use crate::ast::{AggFunc, BinOp, JoinKind};
use crate::expr::{and_all, conjuncts, BExpr};

/// One output column of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCol {
    /// Table binding the column came from (`None` for computed columns).
    pub qualifier: Option<String>,
    /// Column (or alias) name.
    pub name: String,
}

impl PlanCol {
    /// A computed/unqualified column.
    pub fn unqualified(name: impl Into<String>) -> Self {
        PlanCol {
            qualifier: None,
            name: name.into(),
        }
    }
}

/// Output schema of a plan node.
pub type PlanSchema = Vec<PlanCol>;

/// An aggregate computation within an [`PlanNode::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // self-documenting
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument (None = `COUNT(*)`), bound over the aggregate's input.
    pub arg: Option<BExpr>,
    /// `DISTINCT` aggregation.
    pub distinct: bool,
}

/// A query plan: node + output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Operator.
    pub node: PlanNode,
    /// Output schema.
    pub schema: PlanSchema,
}

/// Plan operators. Read-only operators are composable; DML operators are
/// always plan roots.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // self-documenting
pub enum PlanNode {
    /// Full scan of a base table, with optional pushed-down filter and
    /// column projection.
    ///
    /// `projection` lists the physical column ordinals the scan
    /// materializes (in output order); `None` scans every column. When a
    /// projection is set, `filter` (and this node's `schema`) are bound
    /// over the *pruned* column space, not the physical table layout.
    TableScan {
        table: String,
        filter: Option<BExpr>,
        projection: Option<Vec<usize>>,
    },
    /// Index-assisted scan: candidate rows from an inclusive key range of
    /// `index`, then `residual` re-checked exactly.
    IndexScan {
        table: String,
        index: String,
        lo: Option<Vec<Value>>,
        hi: Option<Vec<Value>>,
        residual: Option<BExpr>,
    },
    /// Row filter.
    Filter { input: Box<Plan>, predicate: BExpr },
    /// Projection: compute `exprs` over each input row.
    Project { input: Box<Plan>, exprs: Vec<BExpr> },
    /// Join; `on` is bound over `left.schema ++ right.schema`.
    Join {
        kind: JoinKind,
        left: Box<Plan>,
        right: Box<Plan>,
        on: BExpr,
    },
    /// Hash aggregation; output = group values ++ aggregate results.
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<BExpr>,
        aggs: Vec<AggExpr>,
    },
    /// Sort by input-column ordinals.
    Sort {
        input: Box<Plan>,
        keys: Vec<(usize, bool)>,
    },
    /// Deduplicate whole rows, preserving first occurrence.
    Distinct { input: Box<Plan> },
    /// LIMIT/OFFSET.
    Limit {
        input: Box<Plan>,
        limit: Option<usize>,
        offset: usize,
    },
    /// Inline constant rows, as columns: a FROM-less SELECT's one row, or
    /// a view's finished groups ([`Plan::with_aggregate_batch`]).
    Values { batch: Batch },
}

/// What makes a join hash-joinable: the equi-conjuncts of `on` as pairs
/// `(i, j)` — the condition contains `Col(i) = Col(j + l_arity)` with `i`
/// on the left side, in either written orientation — and the residual, the
/// AND of every other conjunct in written order (`None` when `on` is
/// nothing but those equalities). No pairs means a nested-loop join.
pub fn equi_pairs(on: &BExpr, l_arity: usize) -> (Vec<(usize, usize)>, Option<BExpr>) {
    let mut cs = Vec::new();
    conjuncts(on, &mut cs);
    let mut pairs = Vec::new();
    let mut rest = Vec::new();
    for c in cs {
        if let BExpr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = &c
        {
            if let (BExpr::Column(a), BExpr::Column(b)) = (&**a, &**b) {
                let (i, j) = (*a.min(b), *a.max(b));
                if i < l_arity && j >= l_arity {
                    pairs.push((i, j - l_arity));
                    continue;
                }
            }
        }
        rest.push(c);
    }
    (pairs, and_all(rest))
}

impl Plan {
    /// This plan with its aggregation answered by `batch`: the `Aggregate`
    /// node at the bottom of its chain of single-input operators becomes a
    /// `Values` leaf of the aggregate's schema holding `batch`, one row per
    /// group, its key columns then its aggregates. The executor hands the
    /// leaf on as it is, so a view's groups reach the operators above its
    /// aggregation as columns, never as rows. The operators above it are
    /// cloned; nothing below it is. `None` when the chain ends elsewhere.
    pub fn with_aggregate_batch(&self, batch: Batch) -> Option<Plan> {
        let node = match &self.node {
            PlanNode::Aggregate { .. } => PlanNode::Values { batch },
            PlanNode::Filter { input, predicate } => PlanNode::Filter {
                input: Box::new(input.with_aggregate_batch(batch)?),
                predicate: predicate.clone(),
            },
            PlanNode::Project { input, exprs } => PlanNode::Project {
                input: Box::new(input.with_aggregate_batch(batch)?),
                exprs: exprs.clone(),
            },
            PlanNode::Sort { input, keys } => PlanNode::Sort {
                input: Box::new(input.with_aggregate_batch(batch)?),
                keys: keys.clone(),
            },
            PlanNode::Distinct { input } => PlanNode::Distinct {
                input: Box::new(input.with_aggregate_batch(batch)?),
            },
            PlanNode::Limit {
                input,
                limit,
                offset,
            } => PlanNode::Limit {
                input: Box::new(input.with_aggregate_batch(batch)?),
                limit: *limit,
                offset: *offset,
            },
            PlanNode::TableScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::Join { .. }
            | PlanNode::Values { .. } => return None,
        };
        Some(Plan {
            node,
            schema: self.schema.clone(),
        })
    }

    /// Render the plan as an indented tree (the `EXPLAIN` output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.fmt_into(&mut out, 0);
        out
    }

    fn fmt_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match &self.node {
            PlanNode::TableScan {
                table,
                filter,
                projection,
            } => {
                out.push_str(&format!("{pad}TableScan {table}"));
                if projection.is_some() {
                    let names: Vec<&str> = self.schema.iter().map(|c| c.name.as_str()).collect();
                    out.push_str(&format!(" cols=[{}]", names.join(", ")));
                }
                if let Some(f) = filter {
                    out.push_str(&format!(" filter={f:?}"));
                }
                out.push('\n');
            }
            PlanNode::IndexScan {
                table,
                index,
                lo,
                hi,
                residual,
            } => {
                out.push_str(&format!(
                    "{pad}IndexScan {table} via {index} range=[{}, {}]",
                    render_bound(lo),
                    render_bound(hi)
                ));
                if let Some(r) = residual {
                    out.push_str(&format!(" residual={r:?}"));
                }
                out.push('\n');
            }
            PlanNode::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate:?}\n"));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Project { input, exprs } => {
                let names: Vec<&str> = self.schema.iter().map(|c| c.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}Project [{}] ({} exprs)\n",
                    names.join(", "),
                    exprs.len()
                ));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Join {
                kind,
                left,
                right,
                on,
            } => {
                // The build side follows run-time row counts: not rendered.
                let (pairs, residual) = equi_pairs(on, left.schema.len());
                if pairs.is_empty() {
                    out.push_str(&format!("{pad}Join {kind:?} nested-loop on={on:?}"));
                } else {
                    let name = |c: &PlanCol| match &c.qualifier {
                        Some(q) => format!("{q}.{}", c.name),
                        None => c.name.clone(),
                    };
                    let keys: Vec<String> = pairs
                        .iter()
                        .map(|&(i, j)| {
                            format!("{} = {}", name(&left.schema[i]), name(&right.schema[j]))
                        })
                        .collect();
                    out.push_str(&format!(
                        "{pad}Join {kind:?} hash keys=[{}]",
                        keys.join(", ")
                    ));
                    if let Some(r) = residual {
                        out.push_str(&format!(" residual={r:?}"));
                    }
                }
                out.push('\n');
                left.fmt_into(out, depth + 1);
                right.fmt_into(out, depth + 1);
            }
            PlanNode::Aggregate {
                input,
                group_exprs,
                aggs,
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate groups={} aggs={}\n",
                    group_exprs.len(),
                    aggs.len()
                ));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort keys={keys:?}\n"));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Limit {
                input,
                limit,
                offset,
            } => {
                out.push_str(&format!("{pad}Limit limit={limit:?} offset={offset}\n"));
                input.fmt_into(out, depth + 1);
            }
            PlanNode::Values { batch } => {
                out.push_str(&format!("{pad}Values rows={}\n", batch.num_rows()));
            }
        }
    }
}

fn render_bound(b: &Option<Vec<Value>>) -> String {
    match b {
        None => "-inf/+inf".to_string(),
        Some(vs) => {
            let parts: Vec<String> = vs.iter().map(Value::render).collect();
            parts.join(",")
        }
    }
}
