//! Channel-specific formatting of report payloads.

use odbis_sql::QueryResult;
use odbis_storage::Value;

/// Client channels the IDS abstracts over (ODBIS §3.1: "an abstraction
/// level to support many client interfaces and technologies (e.g., web
/// browser, mobile, office tools). It can be also presented as a web
/// services").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Full HTML for desktop browsers.
    WebBrowser,
    /// JSON for web-service consumers.
    WebService,
    /// Compact JSON (top rows only) for mobile clients.
    Mobile,
    /// CSV for office tools (spreadsheets).
    OfficeTool,
    /// Plain-text digest for e-mail.
    Email,
}

impl Channel {
    /// All channels.
    pub const ALL: [Channel; 5] = [
        Channel::WebBrowser,
        Channel::WebService,
        Channel::Mobile,
        Channel::OfficeTool,
        Channel::Email,
    ];

    /// MIME type the channel produces.
    pub fn content_type(self) -> &'static str {
        match self {
            Channel::WebBrowser => "text/html; charset=utf-8",
            Channel::WebService | Channel::Mobile => "application/json",
            Channel::OfficeTool => "text/csv",
            Channel::Email => "text/plain; charset=utf-8",
        }
    }
}

/// A report payload ready for delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportPayload {
    /// Report title.
    pub title: String,
    /// Result data.
    pub data: QueryResult,
}

/// A formatted delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Channel it was formatted for.
    pub channel: Channel,
    /// MIME type.
    pub content_type: String,
    /// Body.
    pub body: String,
}

/// Rows included in mobile (compact) deliveries.
pub const MOBILE_ROW_CAP: usize = 20;

/// Format a payload for a channel.
pub fn format_for(channel: Channel, payload: &ReportPayload) -> Delivered {
    let body = match channel {
        Channel::WebBrowser => html_document(payload),
        Channel::WebService => json_body(payload, None),
        Channel::Mobile => json_body(payload, Some(MOBILE_ROW_CAP)),
        Channel::OfficeTool => csv_body(payload),
        Channel::Email => text_body(payload),
    };
    Delivered {
        channel,
        content_type: channel.content_type().to_string(),
        body,
    }
}

fn html_document(payload: &ReportPayload) -> String {
    let spec = odbis_reporting::TableSpec {
        title: payload.title.clone(),
        columns: vec![],
        max_rows: None,
    };
    let table = odbis_reporting::render_table_html(&spec, &payload.data)
        .unwrap_or_else(|e| format!("<p>render error: {e}</p>"));
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>{0}</title></head>\n\
         <body><h1>{0}</h1>\n{table}</body></html>\n",
        odbis_reporting::escape_html(&payload.title)
    )
}

fn value_to_json(v: &Value) -> serde_json::Value {
    match v {
        Value::Null => serde_json::Value::Null,
        Value::Bool(b) => serde_json::Value::Bool(*b),
        Value::Int(i) => serde_json::Value::from(*i),
        Value::Float(f) => serde_json::Number::from_f64(*f)
            .map(serde_json::Value::Number)
            .unwrap_or(serde_json::Value::Null),
        other => serde_json::Value::String(other.render()),
    }
}

fn json_body(payload: &ReportPayload, cap: Option<usize>) -> String {
    let limit = cap.unwrap_or(payload.data.rows.len());
    let rows: Vec<serde_json::Value> = payload
        .data
        .rows
        .iter()
        .take(limit)
        .map(|row| {
            let obj: serde_json::Map<String, serde_json::Value> = payload
                .data
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| (c.clone(), value_to_json(v)))
                .collect();
            serde_json::Value::Object(obj)
        })
        .collect();
    serde_json::json!({
        "title": payload.title,
        "columns": payload.data.columns,
        "rowCount": payload.data.rows.len(),
        "truncated": limit < payload.data.rows.len(),
        "rows": rows,
    })
    .to_string()
}

fn csv_body(payload: &ReportPayload) -> String {
    odbis_storage::csv_text(&payload.data.columns, &payload.data.rows)
}

fn text_body(payload: &ReportPayload) -> String {
    odbis_reporting::render_text(&payload.title, &payload.data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(rows: usize) -> ReportPayload {
        ReportPayload {
            title: "Sales".into(),
            data: QueryResult {
                columns: vec!["region".into(), "total".into()],
                rows: (0..rows)
                    .map(|i| vec![Value::from(format!("r{i}")), Value::Int(i as i64)])
                    .collect(),
                rows_affected: 0,
            },
        }
    }

    #[test]
    fn every_channel_produces_its_content_type() {
        for ch in Channel::ALL {
            let d = format_for(ch, &payload(3));
            assert_eq!(d.content_type, ch.content_type());
            assert!(!d.body.is_empty());
        }
    }

    #[test]
    fn web_html_contains_table() {
        let d = format_for(Channel::WebBrowser, &payload(2));
        assert!(d.body.contains("<!DOCTYPE html>"));
        assert!(d.body.contains("odbis-table"));
        assert!(d.body.contains("r1"));
    }

    #[test]
    fn webservice_json_is_parseable_and_typed() {
        let d = format_for(Channel::WebService, &payload(2));
        let v: serde_json::Value = serde_json::from_str(&d.body).unwrap();
        assert_eq!(v["title"], "Sales");
        assert_eq!(v["rowCount"], 2);
        assert_eq!(v["truncated"], false);
        assert_eq!(v["rows"][1]["total"], 1);
        assert_eq!(v["rows"][0]["region"], "r0");
    }

    #[test]
    fn mobile_caps_rows() {
        let d = format_for(Channel::Mobile, &payload(50));
        let v: serde_json::Value = serde_json::from_str(&d.body).unwrap();
        assert_eq!(v["rows"].as_array().unwrap().len(), MOBILE_ROW_CAP);
        assert_eq!(v["truncated"], true);
        assert_eq!(v["rowCount"], 50);
    }

    #[test]
    fn csv_and_email_bodies() {
        let d = format_for(Channel::OfficeTool, &payload(1));
        assert_eq!(d.body, "region,total\nr0,0\n");
        // RFC 4180: a header name or value holding a comma, a quote or a
        // line break (`\r` too) is quoted; NULL is an empty field
        let mut p = payload(0);
        p.data.columns[0] = "region, name".into();
        p.data.rows = vec![
            vec!["x\ry".into(), Value::Null],
            vec!["say \"hi\"".into(), Value::Int(2)],
        ];
        let d = format_for(Channel::OfficeTool, &p);
        assert_eq!(
            d.body,
            "\"region, name\",total\n\"x\ry\",\n\"say \"\"hi\"\"\",2\n"
        );
        let d = format_for(Channel::Email, &payload(1));
        assert!(d.body.starts_with("== Sales =="));
    }
}
