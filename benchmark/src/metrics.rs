//! The metric catalogue: every name and unit `BENCHMARK.json` lists, in
//! the order they are printed. A test keeps the two in step.

use crate::mart::Mart;

/// End-to-end metrics: what a dashboard viewer, an ETL client or a tenant
/// sees. Reported by the untraced run on every workload.
///
/// `dash_p95_us`, `point_p95_us`, `fresh_p95_us` and `write_p95_us` are
/// measured and printed as diagnostics but not listed here: off a workload's
/// mix their ten-run spread passed a tenth of the median (see README,
/// "Demoted metrics").
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("dash_p50_us", "us"),
    ("export_json_p50_us", "us"),
    ("export_csv_p50_us", "us"),
    ("point_p50_us", "us"),
    ("proxy_p50_us", "us"),
    ("mdx_p50_us", "us"),
    ("write_p50_us", "us"),
    ("fresh_p50_us", "us"),
    ("recover_s", "s"),
    ("disk_bytes_per_row", "B"),
];

/// Op kinds the ladder reports a `web.self_us` / `core.self_us` for.
pub const LADDER_KINDS: [&str; 6] = ["dash", "export_json", "export_csv", "point", "mdx", "write"];

/// Per-layer metrics: what the traced run reports, layer by layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("web.rtt_floor_us", "us");
    add("web.parse_us", "us");
    add("web.encode_us", "us");
    add("web.resp_bytes", "B");
    add("web.admit_us", "us");
    for kind in LADDER_KINDS {
        add(&format!("web.self_us.{kind}"), "us");
    }
    for kind in LADDER_KINDS {
        add(&format!("core.self_us.{kind}"), "us");
    }
    add("core.gate_us", "us");
    add("core.publish_us", "us");
    add("core.watch_wake_us", "us");
    add("core.proxy_us", "us");
    add("security.authorize_us", "us");
    add("security.login_us", "us");
    add("tenancy.meter_us", "us");
    add("metadata.self_us", "us");
    add("sql.parse_us", "us");
    add("sql.plan_us", "us");
    add("sql.optimize_us", "us");
    for (dataset, _) in Mart::datasets() {
        add(&format!("sql.exec_us.{dataset}"), "us");
    }
    add("sql.pivot_us", "us");
    add("storage.scan_warm_us", "us");
    add("storage.scan_cold_us", "us");
    add("storage.insert_us", "us");
    add("storage.wal_append_us", "us");
    add("storage.wal_fsync_us", "us");
    add("storage.wal_bytes_per_row", "B");
    add("storage.wal_appends_per_stmt", "count");
    add("storage.checkpoint_us", "us");
    add("storage.checkpoint_bytes", "B");
    add("storage.tables_flushed", "count");
    add("storage.recover_us", "us");
    add("storage.recover_wal_bytes", "B");
    add("olap.mdx_us", "us");
    add("olap.fold_us", "us");
    add("olap.rebuild_us", "us");
    add("telemetry.span_pair_us", "us");
    add("telemetry.spans_per_op", "count");
    add("trace.overhead_share", "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let own_workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own_workloads);
        assert!(per_layer().len() <= 128);
    }
}
