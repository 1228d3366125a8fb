//! Rule-based plan optimizer.
//!
//! The optimizer is an ordered pipeline of rewrite [`Rule`]s driven to a
//! fixpoint under a pass budget, replacing the former monolithic
//! `optimize` function. Each rule is a pure `Plan -> Plan` rewrite:
//!
//! 1. **fold** — constant-fold every expression in the plan.
//! 2. **pushdown** — sink filters toward the scans, splitting conjuncts
//!    at joins by the side they reference (through-join pushdown) and
//!    merging what arrives at a base table into [`PlanNode::TableScan`]'s
//!    `filter`.
//! 3. **reorder** — greedily reorder chains of inner equi-joins smallest
//!    estimated input first, using live `row_count` from the catalog; a
//!    compensating projection restores the original column order.
//! 4. **index** — convert a filtered scan into an
//!    [`PlanNode::IndexScan`] when a sargable conjunct matches an index.
//! 5. **prune** — thread required-column sets from the root down to the
//!    scans so `TableScan` materializes only the columns the query reads.
//!
//! Every rule can be disabled independently through a [`RuleSet`]
//! ([`crate::Engine::with_optimizer_rules`]), which is how the golden
//! tests and ablation benchmarks isolate each rule's
//! contribution. Each rule application runs under a `sql` telemetry
//! child span named `optimize.<rule>`.

use std::collections::BTreeSet;

use odbis_storage::{Database, Value};

use crate::ast::{BinOp, JoinKind};
use crate::expr::{and_all, conjuncts, BExpr};
use crate::plan::{Plan, PlanNode, PlanSchema};

/// Catalog context the rules rewrite against.
pub struct OptContext<'a> {
    /// Catalog (live row counts, index metadata).
    pub db: &'a Database,
    /// Whether index selection is permitted (engine-level ablation
    /// switch; the `index` rule is a no-op when false).
    pub use_indexes: bool,
}

/// One rewrite pass over a plan. Rules must be semantics-preserving and
/// idempotent enough to reach a fixpoint within the pass budget.
pub trait Rule {
    /// Stable name used by [`RuleSet`] specs and telemetry spans.
    fn name(&self) -> &'static str;
    /// Rewrite the plan (identity when the rule does not apply).
    fn apply(&self, plan: Plan, ctx: &OptContext) -> Plan;
}

/// Names of all registered rules, in pipeline order.
pub const RULE_NAMES: [&str; 5] = ["fold", "pushdown", "reorder", "index", "prune"];

/// Which optimizer rules are enabled. Parsed from a comma-separated
/// spec: `all` (default), `none`, a list of rule names to enable
/// (`fold,pushdown`), or `-`-prefixed names subtracted from the full set
/// (`-reorder,-prune`). Unknown names are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    enabled: BTreeSet<&'static str>,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::all()
    }
}

impl RuleSet {
    /// Every rule enabled.
    pub fn all() -> Self {
        RuleSet {
            enabled: RULE_NAMES.iter().copied().collect(),
        }
    }

    /// No rules enabled (plans execute exactly as planned).
    pub fn none() -> Self {
        RuleSet {
            enabled: BTreeSet::new(),
        }
    }

    /// Parse a spec string (see type docs for the grammar).
    pub fn from_spec(spec: &str) -> Self {
        let tokens: Vec<&str> = spec
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if tokens.is_empty() {
            return RuleSet::all();
        }
        // Additive specs start from the empty set; subtractive specs
        // (every token is `-name`, possibly after `all`) start full.
        let additive = tokens
            .iter()
            .any(|t| !t.starts_with('-') && !t.eq_ignore_ascii_case("all"));
        let mut set = if additive {
            RuleSet::none()
        } else {
            RuleSet::all()
        };
        for tok in tokens {
            if tok.eq_ignore_ascii_case("all") {
                set = RuleSet::all();
            } else if tok.eq_ignore_ascii_case("none") || tok.eq_ignore_ascii_case("off") {
                set = RuleSet::none();
            } else if let Some(name) = tok.strip_prefix('-') {
                if let Some(canon) = canonical(name) {
                    set.enabled.remove(canon);
                }
            } else if let Some(canon) = canonical(tok) {
                set.enabled.insert(canon);
            }
        }
        set
    }

    /// Whether a rule is enabled.
    pub fn is_enabled(&self, name: &str) -> bool {
        self.enabled.contains(name)
    }
}

fn canonical(name: &str) -> Option<&'static str> {
    RULE_NAMES
        .iter()
        .copied()
        .find(|r| r.eq_ignore_ascii_case(name))
}

/// Upper bound on full pipeline passes. Rules converge in two passes in
/// practice; the budget guards against a rewrite cycle looping forever.
const MAX_PASSES: usize = 4;

/// Run the rule pipeline to fixpoint (bounded by the pass budget).
pub fn optimize(plan: Plan, db: &Database, use_indexes: bool, rules: &RuleSet) -> Plan {
    let ctx = OptContext { db, use_indexes };
    let pipeline: [&dyn Rule; 5] = [
        &ConstantFolding,
        &FilterPushdown,
        &JoinReorder,
        &IndexSelection,
        &ProjectionPruning,
    ];
    let mut plan = plan;
    for _pass in 0..MAX_PASSES {
        let before = plan.clone();
        for rule in pipeline {
            if !rules.is_enabled(rule.name()) {
                continue;
            }
            // Own service stripe: keeps the engine's `sql` execute span the
            // first `sql`-service record a trace reader sees.
            let _span =
                odbis_telemetry::child_span("sql.optimizer", format!("optimize.{}", rule.name()));
            plan = rule.apply(plan, &ctx);
        }
        if plan == before {
            break;
        }
    }
    plan
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Rebuild a plan with `f` applied to each direct child (leaves pass
/// through unchanged). Schemas are preserved; `f` must not change child
/// schemas.
fn map_children(mut plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    plan.node = match plan.node {
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: Box::new(f(*input)),
            exprs,
        },
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => PlanNode::Join {
            kind,
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            on,
        },
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => PlanNode::Aggregate {
            input: Box::new(f(*input)),
            group_exprs,
            aggs,
        },
        PlanNode::Sort { input, keys } => PlanNode::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        PlanNode::Distinct { input } => PlanNode::Distinct {
            input: Box::new(f(*input)),
        },
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => PlanNode::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        leaf => leaf,
    };
    plan
}

fn filter_over(input: Plan, predicate: Option<BExpr>) -> Plan {
    match predicate {
        None => input,
        Some(predicate) => {
            let schema = input.schema.clone();
            Plan {
                node: PlanNode::Filter {
                    input: Box::new(input),
                    predicate,
                },
                schema,
            }
        }
    }
}

/// Smallest and largest column ordinal referenced by an expression
/// (`None` for constant expressions).
fn column_span(e: &BExpr) -> Option<(usize, usize)> {
    let (mut lo, mut hi, mut any) = (usize::MAX, 0usize, false);
    e.for_each_column(&mut |i| {
        lo = lo.min(i);
        hi = hi.max(i);
        any = true;
    });
    any.then_some((lo, hi))
}

fn columns_of(e: &BExpr) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    e.for_each_column(&mut |i| {
        out.insert(i);
    });
    out
}

// ---------------------------------------------------------------------------
// Rule: fold — constant folding
// ---------------------------------------------------------------------------

/// Fold constant sub-expressions into literals everywhere in the plan.
struct ConstantFolding;

impl Rule for ConstantFolding {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn apply(&self, plan: Plan, _ctx: &OptContext) -> Plan {
        fold_plan(plan)
    }
}

fn fold_plan(mut plan: Plan) -> Plan {
    plan = map_children(plan, &mut fold_plan);
    plan.node = match plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => PlanNode::TableScan {
            table,
            filter: filter.map(BExpr::fold),
            projection,
        },
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input,
            predicate: predicate.fold(),
        },
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input,
            exprs: exprs.into_iter().map(BExpr::fold).collect(),
        },
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => PlanNode::Join {
            kind,
            left,
            right,
            on: on.fold(),
        },
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => PlanNode::Aggregate {
            input,
            group_exprs: group_exprs.into_iter().map(BExpr::fold).collect(),
            aggs,
        },
        other => other,
    };
    plan
}

// ---------------------------------------------------------------------------
// Rule: pushdown — filter pushdown (through joins, into scans)
// ---------------------------------------------------------------------------

/// Sink `Filter` nodes toward the leaves. At a join, the predicate is
/// split into conjuncts: those touching only the left side sink left,
/// those touching only the right side sink right (inner joins only —
/// pushing below the NULL-extending side of a LEFT join would change
/// which rows NULL-extend), and the rest stay above the join. Whatever
/// reaches a base table merges into the scan's own filter.
struct FilterPushdown;

impl Rule for FilterPushdown {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn apply(&self, plan: Plan, _ctx: &OptContext) -> Plan {
        push_filters(plan)
    }
}

fn push_filters(mut plan: Plan) -> Plan {
    plan.node = match plan.node {
        PlanNode::Filter { input, predicate } => {
            let input = push_filters(*input);
            match input.node {
                PlanNode::TableScan {
                    table,
                    filter,
                    projection,
                } => {
                    let merged = match filter {
                        Some(f) => BExpr::Binary {
                            op: BinOp::And,
                            left: Box::new(f),
                            right: Box::new(predicate),
                        },
                        None => predicate,
                    };
                    PlanNode::TableScan {
                        table,
                        filter: Some(merged),
                        projection,
                    }
                }
                PlanNode::Join {
                    kind,
                    left,
                    right,
                    on,
                } => {
                    let left_arity = left.schema.len();
                    let mut cs = Vec::new();
                    conjuncts(&predicate, &mut cs);
                    let mut left_preds = Vec::new();
                    let mut right_preds = Vec::new();
                    let mut keep = Vec::new();
                    for c in cs {
                        match column_span(&c) {
                            Some((_, hi)) if hi < left_arity => left_preds.push(c),
                            Some((lo, _)) if lo >= left_arity && kind == JoinKind::Inner => {
                                let mut c = c;
                                c.map_columns(&|i| i - left_arity);
                                right_preds.push(c);
                            }
                            _ => keep.push(c),
                        }
                    }
                    let new_left = push_filters(filter_over(*left, and_all(left_preds)));
                    let new_right = push_filters(filter_over(*right, and_all(right_preds)));
                    let mut schema = new_left.schema.clone();
                    schema.extend(new_right.schema.clone());
                    let join = Plan {
                        node: PlanNode::Join {
                            kind,
                            left: Box::new(new_left),
                            right: Box::new(new_right),
                            on,
                        },
                        schema,
                    };
                    filter_over(join, and_all(keep)).node
                }
                other => PlanNode::Filter {
                    input: Box::new(Plan {
                        node: other,
                        schema: input.schema,
                    }),
                    predicate,
                },
            }
        }
        other => {
            return map_children(
                Plan {
                    node: other,
                    schema: plan.schema,
                },
                &mut push_filters,
            )
        }
    };
    plan
}

// ---------------------------------------------------------------------------
// Rule: reorder — greedy join reordering
// ---------------------------------------------------------------------------

/// Reorder chains of three or more inner joins greedily: start from the
/// smallest estimated input, then repeatedly join the smallest remaining
/// input connected to the chosen set through some join predicate. Row
/// estimates come from the catalog's live `row_count`, discounted for
/// filtered scans. A compensating `Project` restores the original column
/// order, so the rewrite is invisible to parent nodes.
struct JoinReorder;

impl Rule for JoinReorder {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn apply(&self, plan: Plan, ctx: &OptContext) -> Plan {
        if matches!(
            &plan.node,
            PlanNode::Join {
                kind: JoinKind::Inner,
                ..
            }
        ) && chain_len(&plan) >= 3
        {
            reorder_chain(plan, ctx)
        } else {
            map_children(plan, &mut |p| self.apply(p, ctx))
        }
    }
}

fn chain_len(plan: &Plan) -> usize {
    match &plan.node {
        PlanNode::Join {
            kind: JoinKind::Inner,
            left,
            right,
            ..
        } => chain_len(left) + chain_len(right),
        _ => 1,
    }
}

/// Flatten an inner-join chain into its leaf relations plus every join
/// conjunct, with conjunct ordinals rebased to the concatenation of all
/// leaves in original order. Returns the subtree's arity.
fn flatten_chain(
    plan: Plan,
    offset: usize,
    leaves: &mut Vec<Plan>,
    preds: &mut Vec<BExpr>,
    ctx: &OptContext,
) -> usize {
    match plan.node {
        PlanNode::Join {
            kind: JoinKind::Inner,
            left,
            right,
            on,
        } => {
            let la = flatten_chain(*left, offset, leaves, preds, ctx);
            let ra = flatten_chain(*right, offset + la, leaves, preds, ctx);
            let mut on = on;
            on.shift_columns(offset);
            conjuncts(&on, preds);
            la + ra
        }
        node => {
            // a leaf: reorder any join chains nested deeper (e.g. under
            // a LEFT join or an aggregate)
            let leaf = JoinReorder.apply(
                Plan {
                    node,
                    schema: plan.schema,
                },
                ctx,
            );
            let arity = leaf.schema.len();
            leaves.push(leaf);
            arity
        }
    }
}

/// Estimated output rows of a subplan, from live catalog row counts.
/// Filters discount their input by 3x — a deliberately crude selectivity
/// guess; the estimate only has to rank join inputs, not predict
/// cardinality.
fn estimate_rows(plan: &Plan, db: &Database) -> usize {
    const UNKNOWN: usize = usize::MAX / 8;
    match &plan.node {
        PlanNode::TableScan { table, filter, .. } => {
            let n = db.row_count(table).unwrap_or(UNKNOWN);
            if filter.is_some() {
                n / 3 + 1
            } else {
                n
            }
        }
        PlanNode::IndexScan { table, .. } => db.row_count(table).unwrap_or(UNKNOWN) / 3 + 1,
        PlanNode::Filter { input, .. } => estimate_rows(input, db) / 3 + 1,
        PlanNode::Project { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Distinct { input } => estimate_rows(input, db),
        PlanNode::Limit { input, limit, .. } => {
            let n = estimate_rows(input, db);
            limit.map_or(n, |l| n.min(l))
        }
        PlanNode::Aggregate { input, .. } => estimate_rows(input, db) / 2 + 1,
        PlanNode::Join { left, right, .. } => estimate_rows(left, db).max(estimate_rows(right, db)),
        PlanNode::Values { batch } => batch.num_rows(),
    }
}

fn reorder_chain(plan: Plan, ctx: &OptContext) -> Plan {
    let original_schema = plan.schema.clone();
    let mut leaves = Vec::new();
    let mut preds = Vec::new();
    let total_arity = flatten_chain(plan, 0, &mut leaves, &mut preds, ctx);
    let n = leaves.len();

    // original column offset of each leaf
    let mut offsets = Vec::with_capacity(n);
    let mut acc = 0usize;
    for leaf in &leaves {
        offsets.push(acc);
        acc += leaf.schema.len();
    }
    let leaf_of = |col: usize| -> usize {
        match offsets.binary_search(&col) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    let estimates: Vec<usize> = leaves.iter().map(|l| estimate_rows(l, ctx.db)).collect();
    // which leaves each conjunct touches
    let pred_leaves: Vec<BTreeSet<usize>> = preds
        .iter()
        .map(|p| columns_of(p).into_iter().map(leaf_of).collect())
        .collect();

    // greedy order: smallest first, then smallest connected
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut chosen = vec![false; n];
    let first = (0..n).min_by_key(|&i| (estimates[i], i)).expect("leaves");
    order.push(first);
    chosen[first] = true;
    while order.len() < n {
        let connected = |cand: usize| {
            pred_leaves.iter().any(|ls| {
                ls.contains(&cand) && ls.iter().all(|&l| l == cand || chosen[l]) && ls.len() >= 2
            })
        };
        let next = (0..n)
            .filter(|&i| !chosen[i] && connected(i))
            .min_by_key(|&i| (estimates[i], i))
            .or_else(|| {
                // no equi-connected leaf: fall back to the smallest
                // remaining (degenerates to a cross product, as the
                // original plan would)
                (0..n)
                    .filter(|&i| !chosen[i])
                    .min_by_key(|&i| (estimates[i], i))
            })
            .expect("unchosen leaf");
        order.push(next);
        chosen[next] = true;
    }

    // map original ordinals into the reordered concatenation
    let mut new_offsets = vec![0usize; n];
    let mut acc = 0usize;
    for &leaf in &order {
        new_offsets[leaf] = acc;
        acc += leaves[leaf].schema.len();
    }
    let mut new_pos = vec![0usize; total_arity];
    for (leaf, &off) in offsets.iter().enumerate() {
        for j in 0..leaves[leaf].schema.len() {
            new_pos[off + j] = new_offsets[leaf] + j;
        }
    }
    let rank_of = {
        let mut rank = vec![0usize; n];
        for (r, &leaf) in order.iter().enumerate() {
            rank[leaf] = r;
        }
        rank
    };

    // each conjunct attaches to the first join step where every leaf it
    // references is available
    let mut step_preds: Vec<Vec<BExpr>> = vec![Vec::new(); n];
    for (mut p, ls) in preds.into_iter().zip(pred_leaves) {
        p.map_columns(&|i| new_pos[i]);
        let step = ls.iter().map(|&l| rank_of[l]).max().unwrap_or(1).max(1);
        step_preds[step].push(p);
    }

    // rebuild a left-deep tree in the greedy order
    let mut leaves: Vec<Option<Plan>> = leaves.into_iter().map(Some).collect();
    let mut joined = leaves[order[0]].take().expect("leaf");
    for (step, &leaf) in order.iter().enumerate().skip(1) {
        let right = leaves[leaf].take().expect("leaf");
        let mut schema = joined.schema.clone();
        schema.extend(right.schema.clone());
        let on = and_all(std::mem::take(&mut step_preds[step]))
            .unwrap_or(BExpr::Literal(Value::Bool(true)));
        joined = Plan {
            node: PlanNode::Join {
                kind: JoinKind::Inner,
                left: Box::new(joined),
                right: Box::new(right),
                on,
            },
            schema,
        };
    }

    // restore the original column order for parent nodes
    if new_pos.iter().enumerate().all(|(i, &p)| i == p) {
        joined
    } else {
        Plan {
            node: PlanNode::Project {
                input: Box::new(joined),
                exprs: new_pos.iter().map(|&p| BExpr::Column(p)).collect(),
            },
            schema: original_schema,
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: index — index-scan selection
// ---------------------------------------------------------------------------

/// Convert a filtered table scan into an index scan when the best
/// sargable conjunct (equality preferred over range) matches an index's
/// leading column. The full filter is kept as the `residual` and
/// re-checked exactly. Pruned scans (`projection` set) are left alone:
/// index probes fetch physical rows, so their ordinals live in the
/// physical column space.
struct IndexSelection;

impl Rule for IndexSelection {
    fn name(&self) -> &'static str {
        "index"
    }

    fn apply(&self, mut plan: Plan, ctx: &OptContext) -> Plan {
        if !ctx.use_indexes {
            return plan;
        }
        plan.node = match plan.node {
            PlanNode::TableScan {
                table,
                filter: Some(filter),
                projection: None,
            } => {
                let mut cs = Vec::new();
                conjuncts(&filter, &mut cs);
                // Find the best sargable conjunct: prefer equality, then range.
                let chosen = ctx
                    .db
                    .read_table(&table, |t| {
                        // (index name, lo bound, hi bound, rank)
                        type IndexChoice = (String, Option<Vec<Value>>, Option<Vec<Value>>, u8);
                        let mut best: Option<IndexChoice> = None;
                        for c in &cs {
                            // BETWEEN with literal bounds is a two-sided range
                            if let BExpr::Between {
                                expr,
                                lo,
                                hi,
                                negated: false,
                            } = c
                            {
                                if let (BExpr::Column(col), BExpr::Literal(l), BExpr::Literal(h)) =
                                    (&**expr, &**lo, &**hi)
                                {
                                    if let Some(idx) = t.index_on(*col) {
                                        if best.as_ref().is_none_or(|b| 1 > b.3) {
                                            best = Some((
                                                idx.name.clone(),
                                                Some(vec![l.clone()]),
                                                Some(vec![h.clone()]),
                                                1,
                                            ));
                                        }
                                    }
                                }
                                continue;
                            }
                            let Some((col, op, lit)) = sargable(c) else {
                                continue;
                            };
                            let Some(idx) = t.index_on(col) else {
                                continue;
                            };
                            // only single-column use of the index key
                            let (lo, hi, rank) = match op {
                                BinOp::Eq => {
                                    (Some(vec![lit.clone()]), Some(vec![lit.clone()]), 2u8)
                                }
                                BinOp::Gt | BinOp::Gte => (Some(vec![lit.clone()]), None, 1),
                                BinOp::Lt | BinOp::Lte => (None, Some(vec![lit.clone()]), 1),
                                _ => continue,
                            };
                            if best.as_ref().is_none_or(|b| rank > b.3) {
                                best = Some((idx.name.clone(), lo, hi, rank));
                            }
                        }
                        best
                    })
                    .ok()
                    .flatten();
                match chosen {
                    Some((index, lo, hi, _)) => PlanNode::IndexScan {
                        table,
                        index,
                        lo,
                        hi,
                        residual: Some(filter),
                    },
                    None => PlanNode::TableScan {
                        table,
                        filter: Some(filter),
                        projection: None,
                    },
                }
            }
            other => {
                return map_children(
                    Plan {
                        node: other,
                        schema: plan.schema,
                    },
                    &mut |p| self.apply(p, ctx),
                )
            }
        };
        plan
    }
}

/// Recognize `Column(i) op Literal` (or the mirrored form) with a
/// comparison operator — the sargable shapes the index selector handles.
fn sargable(e: &BExpr) -> Option<(usize, BinOp, Value)> {
    let BExpr::Binary { op, left, right } = e else {
        return None;
    };
    let mirror = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Lte => BinOp::Gte,
        BinOp::Gt => BinOp::Lt,
        BinOp::Gte => BinOp::Lte,
        other => other,
    };
    match (&**left, &**right) {
        (BExpr::Column(i), BExpr::Literal(v)) if !v.is_null() => Some((*i, *op, v.clone())),
        (BExpr::Literal(v), BExpr::Column(i)) if !v.is_null() => Some((*i, mirror(*op), v.clone())),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Rule: prune — projection pruning
// ---------------------------------------------------------------------------

/// Thread required-column sets from the root down to the scans. Each
/// node reports which of its output columns survive (`kept`, a sorted
/// subset of the old ordinals); parents rewrite their expressions into
/// the pruned ordinal space. At a `TableScan` the surviving set becomes
/// the scan's `projection`, so the storage layer materializes only those
/// columns. `IndexScan` (physical-row probes) and `Distinct`
/// (whole-row semantics) block pruning below them.
struct ProjectionPruning;

impl Rule for ProjectionPruning {
    fn name(&self) -> &'static str {
        "prune"
    }

    fn apply(&self, plan: Plan, _ctx: &OptContext) -> Plan {
        let all: BTreeSet<usize> = (0..plan.schema.len()).collect();
        prune(plan, &all).0
    }
}

fn take_schema(schema: &PlanSchema, kept: &[usize]) -> PlanSchema {
    kept.iter().map(|&i| schema[i].clone()).collect()
}

/// Position of old ordinal `i` within the surviving set.
fn pruned_pos(kept: &[usize], i: usize) -> usize {
    kept.binary_search(&i)
        .expect("pruned column is still referenced")
}

/// Rewrite `plan` to produce only (a superset of) the `required` output
/// columns. Returns the new plan and `kept`: the old output ordinals
/// that survive, in order. `kept` always contains `required`.
fn prune(mut plan: Plan, required: &BTreeSet<usize>) -> (Plan, Vec<usize>) {
    let identity: Vec<usize> = (0..plan.schema.len()).collect();
    match plan.node {
        PlanNode::TableScan {
            table,
            filter,
            projection,
        } => {
            let mut need = required.clone();
            if let Some(f) = &filter {
                need.extend(columns_of(f));
            }
            let kept: Vec<usize> = need.into_iter().collect();
            if kept == identity {
                plan.node = PlanNode::TableScan {
                    table,
                    filter,
                    projection,
                };
                return (plan, identity);
            }
            let filter = filter.map(|mut f| {
                f.map_columns(&|i| pruned_pos(&kept, i));
                f
            });
            let new_projection = match projection {
                None => kept.clone(),
                Some(p) => kept.iter().map(|&i| p[i]).collect(),
            };
            let schema = take_schema(&plan.schema, &kept);
            (
                Plan {
                    node: PlanNode::TableScan {
                        table,
                        filter,
                        projection: Some(new_projection),
                    },
                    schema,
                },
                kept,
            )
        }
        PlanNode::Filter { input, predicate } => {
            let mut need = required.clone();
            need.extend(columns_of(&predicate));
            let (input, kept) = prune(*input, &need);
            let mut predicate = predicate;
            predicate.map_columns(&|i| pruned_pos(&kept, i));
            let schema = input.schema.clone();
            (
                Plan {
                    node: PlanNode::Filter {
                        input: Box::new(input),
                        predicate,
                    },
                    schema,
                },
                kept,
            )
        }
        PlanNode::Project { input, exprs } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let mut new_exprs: Vec<BExpr> = kept.iter().map(|&i| exprs[i].clone()).collect();
            let mut need = BTreeSet::new();
            for e in &new_exprs {
                need.extend(columns_of(e));
            }
            let (input, child_kept) = prune(*input, &need);
            for e in &mut new_exprs {
                e.map_columns(&|i| pruned_pos(&child_kept, i));
            }
            let schema = take_schema(&plan.schema, &kept);
            (
                Plan {
                    node: PlanNode::Project {
                        input: Box::new(input),
                        exprs: new_exprs,
                    },
                    schema,
                },
                kept,
            )
        }
        PlanNode::Join {
            kind,
            left,
            right,
            on,
        } => {
            let la = left.schema.len();
            let mut need = required.clone();
            need.extend(columns_of(&on));
            let left_req: BTreeSet<usize> = need.iter().copied().filter(|&i| i < la).collect();
            let right_req: BTreeSet<usize> = need
                .iter()
                .copied()
                .filter(|&i| i >= la)
                .map(|i| i - la)
                .collect();
            let (left, lkept) = prune(*left, &left_req);
            let (right, rkept) = prune(*right, &right_req);
            let new_la = lkept.len();
            let mut on = on;
            on.map_columns(&|i| {
                if i < la {
                    pruned_pos(&lkept, i)
                } else {
                    new_la + pruned_pos(&rkept, i - la)
                }
            });
            let mut kept = lkept;
            kept.extend(rkept.into_iter().map(|i| i + la));
            let mut schema = left.schema.clone();
            schema.extend(right.schema.clone());
            (
                Plan {
                    node: PlanNode::Join {
                        kind,
                        left: Box::new(left),
                        right: Box::new(right),
                        on,
                    },
                    schema,
                },
                kept,
            )
        }
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let mut need = BTreeSet::new();
            for g in &group_exprs {
                need.extend(columns_of(g));
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    need.extend(columns_of(arg));
                }
            }
            let (input, kept) = prune(*input, &need);
            let remap = |mut e: BExpr| {
                e.map_columns(&|i| pruned_pos(&kept, i));
                e
            };
            let group_exprs = group_exprs.into_iter().map(remap).collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(remap);
                    a
                })
                .collect();
            (
                Plan {
                    node: PlanNode::Aggregate {
                        input: Box::new(input),
                        group_exprs,
                        aggs,
                    },
                    schema: plan.schema,
                },
                identity,
            )
        }
        PlanNode::Sort { input, keys } => {
            let mut need = required.clone();
            need.extend(keys.iter().map(|&(k, _)| k));
            let (input, kept) = prune(*input, &need);
            let keys = keys
                .into_iter()
                .map(|(k, desc)| (pruned_pos(&kept, k), desc))
                .collect();
            let schema = input.schema.clone();
            (
                Plan {
                    node: PlanNode::Sort {
                        input: Box::new(input),
                        keys,
                    },
                    schema,
                },
                kept,
            )
        }
        PlanNode::Distinct { input } => {
            // DISTINCT deduplicates whole rows: every input column is
            // semantically significant, so pruning stops here.
            let all: BTreeSet<usize> = (0..input.schema.len()).collect();
            let (input, _) = prune(*input, &all);
            (
                Plan {
                    node: PlanNode::Distinct {
                        input: Box::new(input),
                    },
                    schema: plan.schema,
                },
                identity,
            )
        }
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => {
            let (input, kept) = prune(*input, required);
            let schema = input.schema.clone();
            (
                Plan {
                    node: PlanNode::Limit {
                        input: Box::new(input),
                        limit,
                        offset,
                    },
                    schema,
                },
                kept,
            )
        }
        node @ (PlanNode::IndexScan { .. } | PlanNode::Values { .. }) => {
            plan.node = node;
            (plan, identity)
        }
    }
}
