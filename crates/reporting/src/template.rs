//! Parameterized report templates — the BIRT-reporting slot of the RS
//! ("a BIRT reporting module that allows upload and execute BIRT reports",
//! §3.3): declarative, parameterized report definitions executed against a
//! database and rendered to HTML.

use std::collections::BTreeMap;
use std::sync::Arc;

use odbis_sql::ast::Statement;
use odbis_sql::Engine;
use odbis_storage::{DataType, Database, Value};

use crate::render::{escape_html, render_chart_svg, render_table_html};
use crate::spec::{ChartSpec, ReportError, ReportResult, TableSpec};

/// A template parameter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// Parameter name (referenced as `${name}` in section SQL).
    pub name: String,
    /// Expected type.
    pub data_type: DataType,
    /// Default when the caller omits the parameter.
    pub default: Option<Value>,
}

/// One section of a report template.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// Static heading text.
    Heading(String),
    /// Static paragraph text.
    Paragraph(String),
    /// A query rendered as a table.
    QueryTable {
        /// SQL with `${param}` placeholders.
        sql: String,
        /// Table rendering spec.
        spec: TableSpec,
    },
    /// A query rendered as a chart.
    QueryChart {
        /// SQL with `${param}` placeholders.
        sql: String,
        /// Chart rendering spec.
        spec: ChartSpec,
    },
}

/// A report template: parameters + ordered sections.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTemplate {
    /// Template name.
    pub name: String,
    /// Report title.
    pub title: String,
    /// Declared parameters.
    pub parameters: Vec<ParamDef>,
    /// Sections in render order.
    pub sections: Vec<Section>,
}

/// A fully rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedReport {
    /// Template the report came from.
    pub template: String,
    /// Complete HTML document.
    pub html: String,
    /// Number of queries executed.
    pub queries_run: usize,
}

/// Execute a template with actual parameters.
///
/// Parameter substitution is *typed and literal-quoted*: values are
/// validated against the declared type and rendered as SQL literals (text
/// values quoted and escaped), so template parameters cannot inject SQL.
/// A template only reads: one whose section holds anything but a single
/// `SELECT` is refused before any section runs.
pub fn run_template(
    template: &ReportTemplate,
    params: &BTreeMap<String, Value>,
    db: &Arc<Database>,
) -> ReportResult<RenderedReport> {
    let mut span = odbis_telemetry::child_span("reporting", "template.run");
    span.set_detail(&template.name);
    let result = run_template_inner(template, params, db);
    match &result {
        Ok(r) => span.set_bytes(r.html.len() as u64),
        Err(_) => span.fail(),
    }
    result
}

fn run_template_inner(
    template: &ReportTemplate,
    params: &BTreeMap<String, Value>,
    db: &Arc<Database>,
) -> ReportResult<RenderedReport> {
    // resolve parameters: defaults, presence, type check
    let mut resolved: BTreeMap<&str, Value> = BTreeMap::new();
    for def in &template.parameters {
        let value = match params.get(&def.name) {
            Some(v) => v.clone(),
            None => def.default.clone().ok_or_else(|| {
                ReportError::Parameter(format!("missing required parameter {}", def.name))
            })?,
        };
        let value = value.coerce_to(def.data_type).ok_or_else(|| {
            ReportError::Parameter(format!(
                "parameter {} must be {}, got {}",
                def.name,
                def.data_type,
                value.render()
            ))
        })?;
        resolved.insert(&def.name, value);
    }
    for name in params.keys() {
        if !template.parameters.iter().any(|d| &d.name == name) {
            return Err(ReportError::Parameter(format!("unknown parameter {name}")));
        }
    }

    // A template only reads: refuse it before any section runs when one of
    // its queries is not a single SELECT.
    for section in &template.sections {
        if let Section::QueryTable { sql, .. } | Section::QueryChart { sql, .. } = section {
            let sql = substitute(sql, &resolved)?;
            match odbis_sql::parse(&sql) {
                Ok(Statement::Select(_)) => {}
                Ok(_) => {
                    return Err(ReportError::Execution(format!(
                        "{sql}: a report section runs only a SELECT"
                    )))
                }
                Err(e) => return Err(ReportError::Execution(format!("{sql}: {e}"))),
            }
        }
    }

    let engine = Engine::new();
    let mut html = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>{0}</title></head>\n\
         <body>\n<h1>{0}</h1>\n",
        escape_html(&template.title)
    );
    let mut queries_run = 0;
    for section in &template.sections {
        match section {
            Section::Heading(text) => {
                html.push_str(&format!("<h2>{}</h2>\n", escape_html(text)));
            }
            Section::Paragraph(text) => {
                html.push_str(&format!("<p>{}</p>\n", escape_html(text)));
            }
            Section::QueryTable { sql, spec } => {
                let result = execute(&engine, db, sql, &resolved)?;
                queries_run += 1;
                html.push_str(&render_table_html(spec, &result)?);
            }
            Section::QueryChart { sql, spec } => {
                let result = execute(&engine, db, sql, &resolved)?;
                queries_run += 1;
                html.push_str(&render_chart_svg(spec, &result)?);
            }
        }
    }
    html.push_str("</body></html>\n");
    Ok(RenderedReport {
        template: template.name.clone(),
        html,
        queries_run,
    })
}

fn execute(
    engine: &Engine,
    db: &Arc<Database>,
    sql: &str,
    params: &BTreeMap<&str, Value>,
) -> ReportResult<odbis_sql::QueryResult> {
    let substituted = substitute(sql, params)?;
    engine
        .execute(db, &substituted)
        .map_err(|e| ReportError::Execution(format!("{substituted}: {e}")))
}

/// Replace `${name}` placeholders with SQL literals.
pub fn substitute(sql: &str, params: &BTreeMap<&str, Value>) -> ReportResult<String> {
    let mut out = String::with_capacity(sql.len());
    let mut rest = sql;
    while let Some(start) = rest.find("${") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        let end = after
            .find('}')
            .ok_or_else(|| ReportError::Parameter("unterminated ${ placeholder".to_string()))?;
        let name = &after[..end];
        let value = params
            .get(name)
            .ok_or_else(|| ReportError::Parameter(format!("undeclared parameter {name} in SQL")))?;
        out.push_str(&sql_literal(value));
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(_) => format!("DATE '{}'", v.render()),
        Value::Timestamp(_) => format!("TIMESTAMP '{}'", v.render()),
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChartKind;

    fn db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        Engine::new()
            .execute_script(
                &db,
                "CREATE TABLE visits (dept TEXT, year INT, patients INT);
                 INSERT INTO visits VALUES
                   ('Cardiology', 2009, 120), ('Cardiology', 2010, 150),
                   ('Oncology', 2009, 80), ('Oncology', 2010, 95);",
            )
            .unwrap();
        db
    }

    fn template() -> ReportTemplate {
        ReportTemplate {
            name: "dept-report".into(),
            title: "Department Report".into(),
            parameters: vec![
                ParamDef {
                    name: "year".into(),
                    data_type: DataType::Int,
                    default: Some(Value::Int(2010)),
                },
                ParamDef {
                    name: "dept".into(),
                    data_type: DataType::Text,
                    default: None,
                },
            ],
            sections: vec![
                Section::Heading("Patient volume".into()),
                Section::QueryTable {
                    sql:
                        "SELECT dept, patients FROM visits WHERE year = ${year} AND dept = ${dept}"
                            .into(),
                    spec: TableSpec {
                        title: "Volume".into(),
                        columns: vec![],
                        max_rows: None,
                    },
                },
                Section::QueryChart {
                    sql: "SELECT dept, SUM(patients) AS total FROM visits GROUP BY dept".into(),
                    spec: ChartSpec {
                        title: "All departments".into(),
                        kind: ChartKind::Bar,
                        category: "dept".into(),
                        series: vec!["total".into()],
                    },
                },
            ],
        }
    }

    #[test]
    fn renders_with_params_and_defaults() {
        let mut params = BTreeMap::new();
        params.insert("dept".to_string(), Value::from("Cardiology"));
        let r = run_template(&template(), &params, &db()).unwrap();
        assert_eq!(r.queries_run, 2);
        assert!(r.html.contains("<h1>Department Report</h1>"));
        assert!(r.html.contains("150")); // 2010 default applied
        assert!(r.html.contains("<svg"));
    }

    #[test]
    fn missing_required_parameter() {
        let err = run_template(&template(), &BTreeMap::new(), &db()).unwrap_err();
        assert!(matches!(err, ReportError::Parameter(_)));
        assert!(err.to_string().contains("dept"));
    }

    #[test]
    fn wrong_type_and_unknown_params_rejected() {
        let mut params = BTreeMap::new();
        params.insert("dept".to_string(), Value::from("Oncology"));
        params.insert("year".to_string(), Value::from("not a year"));
        assert!(matches!(
            run_template(&template(), &params, &db()),
            Err(ReportError::Parameter(_))
        ));
        let mut params = BTreeMap::new();
        params.insert("dept".to_string(), Value::from("Oncology"));
        params.insert("bogus".to_string(), Value::Int(1));
        assert!(matches!(
            run_template(&template(), &params, &db()),
            Err(ReportError::Parameter(_))
        ));
    }

    #[test]
    fn injection_is_neutralized_by_literal_quoting() {
        let mut params = BTreeMap::new();
        params.insert("dept".to_string(), Value::from("x'; DROP TABLE visits; --"));
        let db = db();
        // executes fine (no rows match) and the table survives
        let r = run_template(&template(), &params, &db).unwrap();
        assert!(r.html.contains("All departments"));
        assert!(db.has_table("visits"));
    }

    #[test]
    fn substitute_edge_cases() {
        let mut p: BTreeMap<&str, Value> = BTreeMap::new();
        p.insert("a", Value::Int(1));
        assert_eq!(substitute("x = ${a}", &p).unwrap(), "x = 1");
        assert!(substitute("x = ${missing}", &p).is_err());
        assert!(substitute("x = ${unclosed", &p).is_err());
        p.insert("s", Value::from("it's"));
        assert_eq!(substitute("${s}", &p).unwrap(), "'it''s'");
    }
}
