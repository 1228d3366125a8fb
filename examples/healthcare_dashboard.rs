//! Figure 6 reproduction: the healthcare dashboard built with ODBIS's
//! ad-hoc reporting module — charts, a data table and KPI tiles over a
//! synthetic hospital warehouse, via ETL, OLAP and the reporting service.
//!
//! Run with: `cargo run --example healthcare_dashboard`
//! The dashboard HTML is written to the system temp directory.

use std::sync::Arc;

use odbis_bench::workloads;
use odbis_etl::{AggFunc, EtlJob, Extractor, JobRunner, LoadMode, Loader, Transform};
use odbis_metadata::{DataSet, DataSource, MetadataService};
use odbis_olap::{
    parse_mdx, Aggregator, CubeDef, CubeEngine, CubeView, DimensionDef, LevelDef, LevelRef,
    MeasureDef,
};
use odbis_reporting::{
    ChartKind, ChartSpec, Dashboard, KpiSpec, ReportingService, TableSpec, Widget,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // synthetic hospital warehouse: 20k admissions over 2008-2010
    let warehouse = Arc::new(workloads::healthcare_db(20_000, 42));
    println!(
        "healthcare warehouse: {} admissions across {} departments",
        warehouse.row_count("fact_admission")?,
        warehouse.row_count("dim_department")?
    );

    // Integration Service: derive a monthly summary mart
    let runner = JobRunner::new(Arc::clone(&warehouse));
    let report = runner.run(&EtlJob {
        name: "monthly-mart".into(),
        extractor: Extractor::Table("fact_admission".into()),
        transforms: vec![
            Transform::Filter("cost > 0".into()),
            Transform::Aggregate {
                group_by: vec!["year".into(), "month".into()],
                aggs: vec![
                    (AggFunc::Count, "id".into(), "admissions".into()),
                    (AggFunc::Sum, "cost".into(), "total_cost".into()),
                    (AggFunc::Avg, "stay_days".into(), "avg_stay".into()),
                ],
            },
        ],
        loader: Loader {
            table: "mart_monthly".into(),
            mode: LoadMode::Replace,
        },
    })?;
    println!(
        "ETL: extracted {} rows, loaded {} monthly summaries",
        report.extracted, report.loaded
    );

    // Analysis Service: a cube over the admissions star schema
    let cube = CubeDef {
        name: "admissions".into(),
        fact_table: "fact_admission".into(),
        dimensions: vec![
            DimensionDef {
                name: "department".into(),
                table: Some("dim_department".into()),
                fact_fk: "dept_id".into(),
                dim_key: "dept_id".into(),
                levels: vec![LevelDef {
                    name: "name".into(),
                    column: "name".into(),
                }],
            },
            DimensionDef {
                name: "time".into(),
                table: None,
                fact_fk: String::new(),
                dim_key: String::new(),
                levels: vec![
                    LevelDef {
                        name: "year".into(),
                        column: "year".into(),
                    },
                    LevelDef {
                        name: "month".into(),
                        column: "month".into(),
                    },
                ],
            },
        ],
        measures: vec![
            MeasureDef {
                name: "total_cost".into(),
                column: "cost".into(),
                aggregator: Aggregator::Sum,
            },
            MeasureDef {
                name: "admissions".into(),
                column: "id".into(),
                aggregator: Aggregator::Count,
            },
        ],
    };
    cube.validate(&warehouse)?;
    let engine = Arc::new(CubeEngine::new(Arc::clone(&warehouse)));

    // MDX-lite and interactive navigation
    let stmt = parse_mdx("SELECT total_cost, admissions BY department.name FROM admissions")?;
    let by_dept = engine.query(&cube, &stmt.query)?;
    println!("\ncost by department (MDX-lite):");
    for (coords, measures) in &by_dept.cells {
        println!(
            "  {:<12} cost={:>12}  admissions={}",
            coords[0].render(),
            measures[0].render(),
            measures[1].render()
        );
    }
    let mut view = CubeView::new(
        Arc::clone(&engine),
        cube.clone(),
        vec![LevelRef::new("time", "year")],
        vec!["total_cost".into()],
    );
    println!("\ncost by year, then drill down into 2010 months:");
    for (coords, m) in &view.cells()?.cells {
        println!("  {}: {}", coords[0].render(), m[0].render());
    }
    view.drill_down("time")?;
    view.slice("time", "year", 2010i64);
    println!("  2010 monthly cells: {}", view.cells()?.len());

    // Meta-Data Service: data sets feeding the dashboard widgets
    let mds = Arc::new(MetadataService::new());
    mds.register_source(
        DataSource {
            name: "warehouse".into(),
            url: "odbis://hospital/warehouse".into(),
            user: "bi".into(),
            password: "secret".into(),
            driver: "odbis-storage".into(),
        },
        Arc::clone(&warehouse),
    )?;
    for (name, sql) in [
        (
            "cost_by_department",
            "SELECT d.name AS department, SUM(f.cost) AS total_cost \
             FROM fact_admission f JOIN dim_department d ON f.dept_id = d.dept_id \
             GROUP BY d.name ORDER BY total_cost DESC",
        ),
        (
            "admissions_by_year",
            "SELECT year, COUNT(*) AS admissions FROM fact_admission GROUP BY year ORDER BY year",
        ),
        (
            "monthly_trend",
            "SELECT month, SUM(total_cost) AS cost FROM mart_monthly GROUP BY month ORDER BY month",
        ),
        (
            "headline",
            "SELECT COUNT(*) AS total_admissions, ROUND(SUM(cost), 0) AS total_cost, \
             ROUND(AVG(stay_days), 2) AS avg_stay FROM fact_admission",
        ),
    ] {
        mds.define_dataset(DataSet {
            name: name.into(),
            source: "warehouse".into(),
            sql: sql.into(),
            description: format!("figure-6 dashboard feed: {name}"),
        })?;
    }

    // Reporting Service: the Figure 6 dashboard
    let rs = ReportingService::new(mds);
    let dashboard = Dashboard {
        name: "healthcare".into(),
        title: "Hospital Performance Dashboard (ODBIS Figure 6)".into(),
        rows: vec![
            vec![
                Widget::Kpi {
                    dataset: "headline".into(),
                    spec: KpiSpec {
                        title: "Total admissions".into(),
                        value_column: "total_admissions".into(),
                        unit: String::new(),
                    },
                },
                Widget::Kpi {
                    dataset: "headline".into(),
                    spec: KpiSpec {
                        title: "Total cost".into(),
                        value_column: "total_cost".into(),
                        unit: " EUR".into(),
                    },
                },
                Widget::Kpi {
                    dataset: "headline".into(),
                    spec: KpiSpec {
                        title: "Avg stay (days)".into(),
                        value_column: "avg_stay".into(),
                        unit: String::new(),
                    },
                },
            ],
            vec![
                Widget::Chart {
                    dataset: "cost_by_department".into(),
                    spec: ChartSpec {
                        title: "Cost by department".into(),
                        kind: ChartKind::Bar,
                        category: "department".into(),
                        series: vec!["total_cost".into()],
                    },
                },
                Widget::Chart {
                    dataset: "admissions_by_year".into(),
                    spec: ChartSpec {
                        title: "Admissions by year".into(),
                        kind: ChartKind::Pie,
                        category: "year".into(),
                        series: vec!["admissions".into()],
                    },
                },
            ],
            vec![
                Widget::Chart {
                    dataset: "monthly_trend".into(),
                    spec: ChartSpec {
                        title: "Monthly cost trend".into(),
                        kind: ChartKind::Line,
                        category: "month".into(),
                        series: vec!["cost".into()],
                    },
                },
                Widget::Table {
                    dataset: "cost_by_department".into(),
                    spec: TableSpec {
                        title: "Department detail".into(),
                        columns: vec![],
                        max_rows: Some(10),
                    },
                },
            ],
        ],
    };
    let html = rs.render_dashboard(&dashboard)?;
    let out = std::env::temp_dir().join("odbis-healthcare-dashboard.html");
    std::fs::write(&out, &html)?;
    println!(
        "\ndashboard rendered: {} widgets, {} bytes of HTML -> {}",
        dashboard.widget_count(),
        html.len(),
        out.display()
    );
    Ok(())
}
