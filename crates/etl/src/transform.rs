//! ETL transforms: declarative operators, compiled once per run against
//! the extracted header into a chain of steps.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use odbis_sql::ast::AggFunc;
use odbis_sql::plan::PlanCol;
use odbis_sql::{planner, BExpr};
use odbis_storage::{Batch, ColumnVec, DataType, Database, Value};

use crate::frame::Frame;
use crate::EtlError;

/// A declarative transform step — the executable counterparts of the CWM
/// `TransformationStep` operations (FILTER, MAP, JOIN/LOOKUP, AGGREGATE,
/// DEDUPLICATE).
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// Keep rows where the SQL expression is true, e.g. `"amount > 0"`.
    Filter(String),
    /// Add (or replace) a column computed from a SQL expression.
    Derive {
        /// New column name.
        column: String,
        /// SQL expression over existing columns.
        expression: String,
    },
    /// Keep only the listed columns, in order.
    Select(Vec<String>),
    /// Rename a column.
    Rename {
        /// Existing name.
        from: String,
        /// New name.
        to: String,
    },
    /// Cast a column to a type, quarantining rows that cannot convert.
    Cast {
        /// Column to cast.
        column: String,
        /// Target type.
        to: DataType,
    },
    /// Enrich rows from a dimension table: match `key_column` against
    /// `lookup_key` in `table`, appending `lookup_value` as `output`.
    /// Unmatched rows get NULL.
    Lookup {
        /// Input column holding the key.
        key_column: String,
        /// Lookup table name.
        table: String,
        /// Key column in the lookup table.
        lookup_key: String,
        /// Value column in the lookup table.
        lookup_value: String,
        /// Name of the appended column.
        output: String,
    },
    /// Drop duplicate rows, keeping the first occurrence, considering the
    /// listed columns (empty = all columns).
    Deduplicate(Vec<String>),
    /// Group by columns and aggregate: output = group cols + one column per
    /// aggregation `(func, column, output_name)`, groups in first-seen
    /// order. The aggregates are the SQL engine's: `SUM` over INT inputs
    /// is an exact INT, and `SUM`/`AVG` over non-numeric input fails the
    /// job with the SQL error.
    Aggregate {
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregations.
        aggs: Vec<(AggFunc, String, String)>,
    },
}

/// Compile a SQL scalar expression against a header.
pub fn compile_expression(expr: &str, columns: &[String]) -> Result<BExpr, EtlError> {
    let sql = format!("SELECT {expr}");
    let stmt = odbis_sql::parse(&sql).map_err(|e| EtlError::Expression(format!("{expr}: {e}")))?;
    let odbis_sql::ast::Statement::Select(sel) = stmt else {
        return Err(EtlError::Expression(format!("{expr}: not an expression")));
    };
    let odbis_sql::ast::SelectItem::Expr { expr: ast, .. } = &sel.items[0] else {
        return Err(EtlError::Expression(format!("{expr}: not an expression")));
    };
    let schema: Vec<PlanCol> = columns.iter().map(PlanCol::unqualified).collect();
    planner::bind(ast, &schema).map_err(|e| EtlError::Expression(format!("{expr}: {e}")))
}

/// Position of `name` in a header, by the platform-wide
/// [`odbis_storage::resolve_column`] rule.
fn position(columns: &[String], name: &str) -> Result<usize, EtlError> {
    odbis_storage::resolve_column(columns.iter().map(String::as_str), name)
        .ok_or_else(|| EtlError::UnknownColumn(name.to_string()))
}

fn positions(columns: &[String], names: &[String]) -> Result<Vec<usize>, EtlError> {
    names.iter().map(|n| position(columns, n)).collect()
}

/// The `lookup_key` → `lookup_value` map of a lookup table.
fn lookup_map(
    db: &Database,
    table: &str,
    lookup_key: &str,
    lookup_value: &str,
) -> Result<HashMap<Value, Value>, EtlError> {
    db.read_table(table, |t| {
        match (
            t.schema().index_of(lookup_key),
            t.schema().index_of(lookup_value),
        ) {
            (Some(lk), Some(lv)) => Ok(t
                .scan()
                .map(|(_, r)| (r[lk].clone(), r[lv].clone()))
                .collect()),
            _ => Err(EtlError::UnknownColumn(format!(
                "{lookup_key}/{lookup_value} in {table}"
            ))),
        }
    })
    .map_err(|e| EtlError::Storage(e.to_string()))?
}

/// Result of pushing one row through a compiled operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    /// Row continues down the pipeline.
    Keep,
    /// Row was filtered out.
    Drop,
    /// Row must be quarantined.
    Reject,
}

/// A row-local transform compiled against a concrete header: expressions
/// bound, column ordinals resolved, lookup maps materialized. Applied per
/// row with no allocation beyond the row itself.
enum CompiledOp {
    /// Filter predicate.
    Filter(BExpr),
    /// Derivation into an existing column, or appended when `None`.
    Derive { target: Option<usize>, expr: BExpr },
    /// Column selection by ordinal.
    Select(Vec<usize>),
    /// Cast one column.
    Cast { index: usize, to: DataType },
    /// Append the value the key column maps to.
    Lookup {
        key: usize,
        map: HashMap<Value, Value>,
    },
}

impl CompiledOp {
    /// Apply to one row in place.
    fn apply_row(&self, row: &mut Vec<Value>) -> Result<RowOutcome, EtlError> {
        match self {
            CompiledOp::Filter(pred) => {
                let v = pred
                    .eval(row)
                    .map_err(|e| EtlError::Expression(e.to_string()))?;
                if odbis_sql::expr::truth(&v) == Some(true) {
                    Ok(RowOutcome::Keep)
                } else {
                    Ok(RowOutcome::Drop)
                }
            }
            CompiledOp::Derive { target, expr } => {
                let v = expr
                    .eval(row)
                    .map_err(|e| EtlError::Expression(e.to_string()))?;
                match target {
                    Some(i) => row[*i] = v,
                    None => row.push(v),
                }
                Ok(RowOutcome::Keep)
            }
            CompiledOp::Select(idxs) => {
                let new_row: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
                *row = new_row;
                Ok(RowOutcome::Keep)
            }
            CompiledOp::Cast { index, to } => match odbis_sql::cast_value(&row[*index], *to) {
                Ok(v) => {
                    row[*index] = v;
                    Ok(RowOutcome::Keep)
                }
                Err(_) => Ok(RowOutcome::Reject),
            },
            CompiledOp::Lookup { key, map } => {
                row.push(map.get(&row[*key]).cloned().unwrap_or(Value::Null));
                Ok(RowOutcome::Keep)
            }
        }
    }
}

/// One step of a compiled chain.
enum Step {
    /// A run of row-local operators: each row flows through the whole run
    /// before the next row is touched, with no intermediate frame.
    Rows(Vec<CompiledOp>),
    /// Keep the first row per key (the key column positions).
    Deduplicate(Vec<usize>),
    /// GROUP BY the `keys` columns, folding column `args[i]` into a
    /// `funcs[i]` accumulator per group.
    Aggregate {
        keys: Vec<usize>,
        args: Vec<usize>,
        funcs: Vec<AggFunc>,
    },
}

impl Step {
    fn run(
        &self,
        rows: Vec<Vec<Value>>,
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<Vec<Vec<Value>>, EtlError> {
        match self {
            Step::Rows(ops) => {
                let mut out = Vec::with_capacity(rows.len());
                'rows: for mut row in rows {
                    for op in ops {
                        match op.apply_row(&mut row)? {
                            RowOutcome::Keep => {}
                            RowOutcome::Drop => continue 'rows,
                            RowOutcome::Reject => {
                                rejects.push(row);
                                continue 'rows;
                            }
                        }
                    }
                    out.push(row);
                }
                Ok(out)
            }
            Step::Deduplicate(key) => {
                let mut seen = HashSet::new();
                Ok(rows
                    .into_iter()
                    .filter(|row| {
                        seen.insert(key.iter().map(|&i| row[i].clone()).collect::<Vec<_>>())
                    })
                    .collect())
            }
            Step::Aggregate { keys, args, funcs } => {
                // the group and argument columns, packed for the SQL
                // executor's partial GROUP BY
                let column = |&i: &usize| {
                    Arc::new(ColumnVec::from_values(
                        rows.iter().map(|r| r[i].clone()).collect(),
                    ))
                };
                let batch = Batch::new(keys.iter().chain(args).map(column).collect(), rows.len())
                    .map_err(|e| EtlError::Shape(e.to_string()))?;
                let sql_err = |e: odbis_sql::SqlError| EtlError::Expression(e.to_string());
                odbis_sql::aggregate_columns(&[batch], keys.len(), funcs)
                    .map_err(sql_err)?
                    .map(|(mut row, accs)| {
                        for acc in &accs {
                            row.push(acc.finish().map_err(sql_err)?);
                        }
                        Ok(row)
                    })
                    .collect()
            }
        }
    }
}

/// A transform chain compiled against its input header by [`compile`].
pub(crate) struct Pipeline {
    steps: Vec<Step>,
    /// The header of the frame the chain produces.
    columns: Vec<String>,
}

impl Pipeline {
    /// Push the extracted rows through every step. Rows that fail a
    /// `Cast` are moved to `rejects`.
    pub(crate) fn run(
        self,
        mut rows: Vec<Vec<Value>>,
        rejects: &mut Vec<Vec<Value>>,
    ) -> Result<Frame, EtlError> {
        for step in &self.steps {
            rows = step.run(rows, rejects)?;
        }
        Ok(Frame {
            columns: self.columns,
            rows,
        })
    }
}

/// Compile a whole transform chain against the extracted header, once per
/// run: expressions are bound, column positions resolved and lookup maps
/// read from `db`. Consecutive row-local transforms share one
/// [`Step::Rows`]; a `Rename` only changes the header.
pub(crate) fn compile(
    transforms: &[Transform],
    mut columns: Vec<String>,
    db: &Database,
) -> Result<Pipeline, EtlError> {
    let mut steps = Vec::new();
    for t in transforms {
        let op = match t {
            Transform::Filter(expr) => CompiledOp::Filter(compile_expression(expr, &columns)?),
            Transform::Derive { column, expression } => {
                let expr = compile_expression(expression, &columns)?;
                let target = position(&columns, column).ok();
                if target.is_none() {
                    columns.push(column.clone());
                }
                CompiledOp::Derive { target, expr }
            }
            Transform::Select(cols) => {
                let idxs = positions(&columns, cols)?;
                columns = cols.clone();
                CompiledOp::Select(idxs)
            }
            Transform::Rename { from, to } => {
                let i = position(&columns, from)?;
                columns[i] = to.clone();
                continue;
            }
            Transform::Cast { column, to } => CompiledOp::Cast {
                index: position(&columns, column)?,
                to: *to,
            },
            Transform::Lookup {
                key_column,
                table,
                lookup_key,
                lookup_value,
                output,
            } => {
                let key = position(&columns, key_column)?;
                let map = lookup_map(db, table, lookup_key, lookup_value)?;
                columns.push(output.clone());
                CompiledOp::Lookup { key, map }
            }
            Transform::Deduplicate(cols) => {
                let key = if cols.is_empty() {
                    (0..columns.len()).collect()
                } else {
                    positions(&columns, cols)?
                };
                steps.push(Step::Deduplicate(key));
                continue;
            }
            Transform::Aggregate { group_by, aggs } => {
                steps.push(Step::Aggregate {
                    keys: positions(&columns, group_by)?,
                    args: aggs
                        .iter()
                        .map(|(_, column, _)| position(&columns, column))
                        .collect::<Result<_, _>>()?,
                    funcs: aggs.iter().map(|(func, _, _)| *func).collect(),
                });
                columns = group_by.clone();
                columns.extend(aggs.iter().map(|(_, _, name)| name.clone()));
                continue;
            }
        };
        match steps.last_mut() {
            Some(Step::Rows(ops)) => ops.push(op),
            _ => steps.push(Step::Rows(vec![op])),
        }
    }
    Ok(Pipeline { steps, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::parse_csv;
    use odbis_sql::Engine;

    fn orders() -> Frame {
        parse_csv(
            "id,region,amount\n\
             1,EU,100\n\
             2,US,250\n\
             3,EU,50\n\
             4,EU,100\n",
        )
        .unwrap()
    }

    /// Compile `chain` against `f`'s header and run it: the output frame
    /// and the quarantined rows.
    fn run_chain(
        chain: &[Transform],
        f: Frame,
        db: &Database,
    ) -> Result<(Frame, Vec<Vec<Value>>), EtlError> {
        let mut rejects = Vec::new();
        let out = compile(chain, f.columns, db)?.run(f.rows, &mut rejects)?;
        Ok((out, rejects))
    }

    /// One transform as a one-step chain.
    fn apply(t: Transform, f: Frame) -> Frame {
        run_chain(&[t], f, &Database::new()).unwrap().0
    }

    #[test]
    fn compiled_chain_matches_sql() {
        let db = Database::new();
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE regions (code TEXT PRIMARY KEY, label TEXT);
                 INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'United States');
                 CREATE TABLE src (id INT, region TEXT, amount INT);
                 INSERT INTO src VALUES (1, 'EU', 10), (2, 'US', -5), (3, 'XX', 7);",
            )
            .unwrap();
        let chain = vec![
            Transform::Filter("amount > 0".into()),
            Transform::Derive {
                column: "double_amount".into(),
                expression: "amount * 2".into(),
            },
            Transform::Rename {
                from: "region".into(),
                to: "zone".into(),
            },
            Transform::Lookup {
                key_column: "zone".into(),
                table: "regions".into(),
                lookup_key: "code".into(),
                lookup_value: "label".into(),
                output: "zone_label".into(),
            },
            Transform::Select(vec![
                "id".into(),
                "zone_label".into(),
                "double_amount".into(),
            ]),
        ];
        let frame = parse_csv("id,region,amount\n1,EU,10\n2,US,-5\n3,XX,7\n").unwrap();
        let (out, rejects) = run_chain(&chain, frame, &db).unwrap();
        let sql = Engine::new()
            .execute(
                &db,
                "SELECT s.id AS id, r.label AS zone_label, s.amount * 2 AS double_amount
                 FROM src s LEFT JOIN regions r ON s.region = r.code
                 WHERE s.amount > 0 ORDER BY s.id",
            )
            .unwrap();
        assert_eq!(out.columns, sql.columns);
        assert_eq!(out.rows, sql.rows);
        assert!(rejects.is_empty());
    }

    #[test]
    fn filter_and_derive() {
        let f = apply(Transform::Filter("amount >= 100".into()), orders());
        assert_eq!(f.len(), 3);
        let f = apply(
            Transform::Derive {
                column: "vat".into(),
                expression: "amount * 0.2".into(),
            },
            f,
        );
        assert_eq!(f.columns.last().unwrap(), "vat");
        assert_eq!(f.rows[0][3], Value::Float(20.0));
        // derive can replace in place
        let f = apply(
            Transform::Derive {
                column: "vat".into(),
                expression: "vat * 2".into(),
            },
            f,
        );
        assert_eq!(f.rows[0][3], Value::Float(40.0));
    }

    #[test]
    fn select_rename() {
        let f = apply(
            Transform::Select(vec!["region".into(), "amount".into()]),
            orders(),
        );
        assert_eq!(f.columns, vec!["region", "amount"]);
        let f = apply(
            Transform::Rename {
                from: "region".into(),
                to: "zone".into(),
            },
            f,
        );
        assert_eq!(f.columns[0], "zone");
    }

    #[test]
    fn cast_quarantines_bad_rows() {
        let f = parse_csv("id,qty\n1,5\n2,oops\n3,7\n").unwrap();
        let cast = Transform::Cast {
            column: "qty".into(),
            to: DataType::Int,
        };
        let (out, rejects) = run_chain(&[cast], f, &Database::new()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0][0], Value::Int(2));
        // a rejected row leaves the rest of the chain
        let f = parse_csv("v\n12\noops\n").unwrap();
        let chain = [
            Transform::Cast {
                column: "v".into(),
                to: DataType::Int,
            },
            Transform::Derive {
                column: "w".into(),
                expression: "v + 1".into(),
            },
        ];
        let (out, rejects) = run_chain(&chain, f, &Database::new()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(12), Value::Int(13)]]);
        assert_eq!(rejects, vec![vec![Value::from("oops")]]);
    }

    #[test]
    fn lookup_enriches_with_nulls_for_misses() {
        let db = Database::new();
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE regions (code TEXT PRIMARY KEY, label TEXT);
                 INSERT INTO regions VALUES ('EU', 'Europe'), ('US', 'United States');",
            )
            .unwrap();
        let f = parse_csv("id,region\n1,EU\n2,XX\n").unwrap();
        let lookup = Transform::Lookup {
            key_column: "region".into(),
            table: "regions".into(),
            lookup_key: "code".into(),
            lookup_value: "label".into(),
            output: "region_label".into(),
        };
        let (out, _) = run_chain(&[lookup], f, &db).unwrap();
        assert_eq!(out.rows[0][2], Value::from("Europe"));
        assert_eq!(out.rows[1][2], Value::Null);
    }

    #[test]
    fn deduplicate_full_and_by_key() {
        let f = apply(Transform::Deduplicate(vec![]), orders());
        assert_eq!(f.len(), 4); // all rows distinct (ids differ)
        let f = apply(Transform::Deduplicate(vec!["region".into()]), orders());
        assert_eq!(f.len(), 2); // EU, US
    }

    #[test]
    fn aggregate_group_by() {
        let f = apply(
            Transform::Aggregate {
                group_by: vec!["region".into()],
                aggs: vec![
                    (AggFunc::Count, "id".into(), "n".into()),
                    (AggFunc::Sum, "amount".into(), "total".into()),
                    (AggFunc::Max, "amount".into(), "biggest".into()),
                ],
            },
            orders(),
        );
        assert_eq!(f.columns, vec!["region", "n", "total", "biggest"]);
        assert_eq!(
            f.rows[0],
            vec!["EU".into(), Value::Int(3), Value::Int(250), Value::Int(100)]
        );
        assert_eq!(f.rows[1][1], Value::Int(1));
    }

    #[test]
    fn aggregate_answers_and_errors_are_sqls() {
        let big = (1i64 << 53) + 1;
        let f = Frame::from_rows(
            vec!["x".into(), "t".into()],
            vec![vec![big.into(), "a".into()], vec![2.into(), "b".into()]],
        )
        .unwrap();
        let sum = |column: &str| Transform::Aggregate {
            group_by: vec![],
            aggs: vec![(AggFunc::Sum, column.into(), "s".into())],
        };
        let (out, _) = run_chain(&[sum("x")], f.clone(), &Database::new()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(big + 2)]]);
        let err = run_chain(&[sum("t")], f, &Database::new()).unwrap_err();
        assert!(
            matches!(&err, EtlError::Expression(m) if m.contains("SUM over non-numeric")),
            "{err:?}"
        );
    }

    #[test]
    fn expression_errors_are_reported() {
        let db = Database::new();
        assert!(matches!(
            run_chain(
                &[Transform::Filter("nonexistent > 1".into())],
                orders(),
                &db
            ),
            Err(EtlError::Expression(_))
        ));
        assert!(matches!(
            run_chain(&[Transform::Select(vec!["ghost".into()])], orders(), &db),
            Err(EtlError::UnknownColumn(_))
        ));
    }
}
