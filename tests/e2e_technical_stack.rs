//! E5 (Figure 5): every box of the ODBIS technical architecture has a
//! working substitute, exercised together in one wired scenario —
//! PostgreSQL→storage, JPA/Hibernate→ORM, JMI/MDR→metamodel repository,
//! Drools→rules, Spring Integration→an in-process call into the delivery
//! outbox, Spring Security→security, JSF/Tomcat→web.

use std::sync::Arc;

use odbis_delivery::{Channel, DeliveryService, ReportPayload};
use odbis_metamodel::{cwm, AttrValue, ModelRepository};
use odbis_orm::{Entity, EntityMeta, OrmResult, Repository};
use odbis_rules::{tconst, tvar, Action, Fact, Pattern, Rule, RuleEngine, TestOp, WorkingMemory};
use odbis_security::{Role, SecurityManager};
use odbis_storage::{DataType, Database, Value};
use odbis_web::{http_get, HttpResponse, HttpServer, Method, Router};

/// A domain object persisted through the ORM (the domain-model layer of
/// Figure 4).
#[derive(Debug, Clone, PartialEq)]
struct ReportEntity {
    id: i64,
    name: String,
    owner: String,
}

impl Entity for ReportEntity {
    fn meta() -> EntityMeta {
        EntityMeta::new("Report", "reports")
            .id_field("id")
            .required_field("name", DataType::Text)
            .required_field("owner", DataType::Text)
    }
    fn to_row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::Text(self.name.clone()),
            Value::Text(self.owner.clone()),
        ]
    }
    fn from_row(row: &[Value]) -> OrmResult<Self> {
        Ok(ReportEntity {
            id: row[0].as_i64().unwrap_or_default(),
            name: row[1].as_str().unwrap_or_default().to_string(),
            owner: row[2].as_str().unwrap_or_default().to_string(),
        })
    }
}

#[test]
fn all_stack_boxes_work_together() {
    // -- data layer (PostgreSQL substitute) + persistence layer (JPA) -----
    let db = Arc::new(Database::new());
    let repo: Repository<ReportEntity> = Repository::new(Arc::clone(&db)).unwrap();
    repo.insert(&ReportEntity {
        id: 1,
        name: "monthly-costs".into(),
        owner: "ana".into(),
    })
    .unwrap();

    // -- domain model on CWM via the metamodel repository (JMI/MDR) -------
    let mut models = ModelRepository::new("stack", cwm::cwm());
    let col = models
        .create(
            "RelationalColumn",
            vec![("name", "cost".into()), ("sqlType", "DOUBLE".into())],
        )
        .unwrap();
    models
        .create(
            "RelationalTable",
            vec![
                ("name", "fact_costs".into()),
                ("columns", AttrValue::RefList(vec![col])),
            ],
        )
        .unwrap();
    assert!(models.validate().is_empty());

    // -- security (Spring Security substitute) ----------------------------
    let sm = Arc::new(SecurityManager::new());
    sm.create_role(Role::new("ROLE_VIEWER").grant("REPORT_VIEW"))
        .unwrap();
    sm.create_user("ana", "pw").unwrap();
    sm.assign_role("ana", "ROLE_VIEWER").unwrap();
    let session = sm.login("ana", "pw").unwrap();

    // -- business rules (Drools substitute): flag expensive reports -------
    let mut rules = RuleEngine::new();
    rules
        .add_rule(
            Rule::new("flag-expensive")
                .when(
                    Pattern::on("ReportRun")
                        .test("cost", TestOp::Gt, 1000i64)
                        .bind("r", "report"),
                )
                .then(Action::Assert {
                    fact_type: "Alert".into(),
                    fields: vec![
                        ("report".into(), tvar("r")),
                        ("level".into(), tconst("WARN")),
                    ],
                }),
        )
        .unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(
        Fact::new("ReportRun")
            .with("report", "monthly-costs")
            .with("cost", 2500i64),
    );
    let fired = rules.run(&mut wm).unwrap();
    assert_eq!(fired.firings(), 1);

    // -- delivery (Spring Integration substitute): each alert is a call
    //    into the delivery service, landing in the on-call user's outbox
    let ids = DeliveryService::new();
    for id in wm.ids_of_type("Alert").to_vec() {
        let alert = wm.get(id).unwrap();
        let payload = ReportPayload {
            title: format!("alert for {}", alert.get("report").render()),
            data: odbis_sql::QueryResult {
                columns: vec![],
                rows: vec![],
                rows_affected: 0,
            },
        };
        ids.deliver("on-call", "alerts", Channel::Email, &payload);
    }
    let alerts = ids.read("on-call", 0);
    assert_eq!(alerts.entries.len(), 1);
    assert!(alerts.entries[0]
        .delivered
        .body
        .contains("alert for monthly-costs"));

    // -- web tier (Tomcat/JSF substitute): serve the report over HTTP -----
    let mut router = Router::new();
    let web_sm = Arc::clone(&sm);
    let web_repo = repo.clone();
    router.filter(move |req| {
        let Some(token) = req
            .header("authorization")
            .and_then(|h| h.strip_prefix("Bearer "))
            .map(str::to_string)
        else {
            return Some(HttpResponse::unauthorized("bearer token required"));
        };
        match web_sm.authenticate(&token) {
            Ok(user) => {
                req.attributes.insert("user".into(), user);
                None
            }
            Err(_) => Some(HttpResponse::unauthorized("bad token")),
        }
    });
    router.route(Method::Get, "/reports/:id", move |req, params| {
        let id: i64 = match params["id"].parse() {
            Ok(i) => i,
            Err(_) => return HttpResponse::bad_request("bad id"),
        };
        match web_repo.find(id) {
            Ok(Some(r)) => HttpResponse::json(format!(
                "{{\"name\":\"{}\",\"owner\":\"{}\",\"viewer\":\"{}\"}}",
                r.name,
                r.owner,
                req.attributes.get("user").cloned().unwrap_or_default()
            )),
            Ok(None) => HttpResponse::not_found(),
            Err(e) => HttpResponse::server_error(&e.to_string()),
        }
    });
    let server = HttpServer::start(router, 2).unwrap();
    let addr = server.addr().to_string();
    let bearer = format!("Bearer {}", session.token);
    // no token → 401 (filter short-circuit); the filter closure returns
    // None for missing header which falls through — so check real cases:
    let (status, body) = {
        let (s, _, b) = odbis_web::http_request(
            &addr,
            "GET",
            "/reports/1",
            &[("Authorization", bearer.as_str())],
            b"",
        )
        .unwrap();
        (s, b)
    };
    assert_eq!(status, 200);
    assert!(body.contains("monthly-costs"));
    assert!(body.contains("\"viewer\":\"ana\""));
    // missing token header → rejected by the security filter
    let (status, _) = http_get(&addr, "/reports/1").unwrap();
    assert_eq!(status, 401);
    // authenticated but unknown id → 404 from the handler
    let (status, _, _) = odbis_web::http_request(
        &addr,
        "GET",
        "/reports/999",
        &[("Authorization", bearer.as_str())],
        b"",
    )
    .unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}
