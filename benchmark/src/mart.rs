//! The telecom Order-To-Payment mart: a seeded generator and the plain-Rust
//! reference model every response is checked against.
//!
//! The program under test only ever sees the SQL text this module prints;
//! expected answers come from [`Mart`]'s own rows, tallied in ordered maps
//! (and recounted from scratch to check the tally). All measures are integers (cents, hours, 0/1 flags)
//! so sums are exact whatever order the engine's morsel workers merge in.

use std::collections::BTreeMap;

/// splitmix64: the generator's only source of randomness, so a seed maps
/// to the same mart and the same op stream on every toolchain.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `seed`: rows and ops are
    /// random-access, so an unbounded stream needs no stored state.
    pub fn at(seed: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub const OFFERS: u64 = 50;
pub const CHANNELS: [&str; 6] = [
    "agency",
    "callcenter",
    "partner",
    "retail",
    "selfcare",
    "web",
];
/// `detail` lists orders paid later than this many hours: about 2 % of rows.
pub const LATE_PAY_HOURS: i64 = 720;
/// Paid within this many hours counts as on time.
pub const ON_TIME_HOURS: i64 = 360;
/// The dimension key the `point` dataset looks up.
pub const POINT_CUSTOMER: i64 = 42;
const DAYS_IN_MONTH: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
const FIRST_YEAR: i64 = 2008;

/// The three dashboard tiles, in page order.
pub const DASHBOARD: [&str; 3] = ["lead_time_by_month", "ontime_by_channel", "top_customers"];
pub const MDX_QUERY: &str = "SELECT revenue, orders BY channel.name, time.year FROM o2p";

/// One `fact_order` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    pub order_id: i64,
    pub customer_id: i64,
    pub offer_id: i64,
    pub channel_id: i64,
    pub date_key: i64,
    pub amount: i64,
    pub lt_validate: i64,
    pub lt_deliver: i64,
    pub lt_invoice: i64,
    pub lt_pay: i64,
    pub paid_on_time: i64,
}

impl Fact {
    /// The row in `fact_order` column order.
    pub fn cells(&self) -> [i64; 11] {
        [
            self.order_id,
            self.customer_id,
            self.offer_id,
            self.channel_id,
            self.date_key,
            self.amount,
            self.lt_validate,
            self.lt_deliver,
            self.lt_invoice,
            self.lt_pay,
            self.paid_on_time,
        ]
    }

    fn values(&self) -> String {
        let cells: Vec<String> = self.cells().iter().map(i64::to_string).collect();
        format!("({})", cells.join(", "))
    }
}

/// `INSERT INTO fact_order VALUES (...), (...)` for `rows`.
pub fn insert_facts_sql(rows: &[Fact]) -> String {
    let values: Vec<String> = rows.iter().map(Fact::values).collect();
    format!("INSERT INTO fact_order VALUES {}", values.join(", "))
}

/// The calendar dimension: three years of `yyyymmdd` keys from 2008-01-01.
pub fn date_keys() -> Vec<i64> {
    let mut keys = Vec::with_capacity(1096);
    for year in FIRST_YEAR..FIRST_YEAR + 3 {
        for (m, &days) in DAYS_IN_MONTH.iter().enumerate() {
            let leap = m == 1 && year % 4 == 0;
            for day in 1..=days + leap as i64 {
                keys.push(year * 10_000 + (m as i64 + 1) * 100 + day);
            }
        }
    }
    keys
}

/// A column/rows answer, every cell already rendered the way the platform
/// renders it (integers in decimal, text verbatim).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Answer {
    fn new(columns: &[&str], rows: Vec<Vec<String>>) -> Answer {
        Answer {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// The `GET /api/v1/datasets/:name` JSON body for this answer.
    pub fn json_body(&self) -> String {
        serde_json::json!({
            "columns": self.columns,
            "rows": self.rows,
            "rowsAffected": 0,
        })
        .to_string()
    }

    /// The same answer as `text/csv` (no generated cell needs quoting).
    pub fn csv_body(&self) -> String {
        let mut out = self.columns.join(",");
        out.push_str("\r\n");
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push_str("\r\n");
        }
        out
    }
}

/// Running aggregates behind every expected answer. `add` folds one
/// row in; [`Mart::recount`] rebuilds the whole tally from the rows and
/// must agree, so the incremental path is only ever a shortcut.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tally {
    /// month → orders and the four summed lead times
    by_month: BTreeMap<i64, [i64; 5]>,
    /// channel → orders, paid on time
    by_channel: BTreeMap<&'static str, [i64; 2]>,
    revenue: BTreeMap<i64, i64>,
    /// late payers: order → customer, amount, pay hours
    late: BTreeMap<i64, [i64; 3]>,
    /// (channel, year) → revenue, orders
    cells: BTreeMap<(&'static str, i64), (i64, i64)>,
}

impl Tally {
    fn add(&mut self, f: &Fact) {
        let channel = CHANNELS[f.channel_id as usize - 1];
        let m = self.by_month.entry(f.date_key / 100).or_default();
        m[0] += 1;
        m[1] += f.lt_validate;
        m[2] += f.lt_deliver;
        m[3] += f.lt_invoice;
        m[4] += f.lt_pay;
        let c = self.by_channel.entry(channel).or_default();
        c[0] += 1;
        c[1] += f.paid_on_time;
        *self.revenue.entry(f.customer_id).or_default() += f.amount;
        if f.lt_pay > LATE_PAY_HOURS {
            self.late
                .insert(f.order_id, [f.customer_id, f.amount, f.lt_pay]);
        }
        let cell = self
            .cells
            .entry((channel, f.date_key / 10_000))
            .or_default();
        cell.0 += f.amount;
        cell.1 += 1;
    }
}

/// One tenant's mart: generator parameters plus the rows the program has
/// acknowledged so far. Dimensions are functions of the key, facts are
/// functions of `(seed, index)`.
#[derive(Clone)]
pub struct Mart {
    seed: u64,
    customers: i64,
    dates: Vec<i64>,
    pub facts: Vec<Fact>,
    tally: Tally,
}

impl Mart {
    /// An empty mart with `customers` customers.
    pub fn new(seed: u64, customers: i64) -> Mart {
        Mart {
            seed,
            customers,
            dates: date_keys(),
            facts: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// The `index`-th generated order (0-based; `order_id = index + 1`).
    pub fn fact_at(&self, index: u64) -> Fact {
        let mut r = Rng::at(self.seed, index);
        // quadratic skew: a few customers carry most of the revenue
        let u = r.unit();
        let customer_id = (u * u * self.customers as f64) as i64 + 1;
        let offer_id = r.below(OFFERS) as i64 + 1;
        let channel_id = [1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6, 6][r.below(12) as usize];
        let date_key = self.dates[r.below(self.dates.len() as u64) as usize];
        let amount = (500 + offer_id * 180) * (1 + r.below(3) as i64) + r.below(100) as i64;
        let lt_pay = if r.below(50) == 0 {
            LATE_PAY_HOURS + 1 + r.below(500) as i64
        } else {
            24 + r.below((LATE_PAY_HOURS - 23) as u64) as i64
        };
        Fact {
            order_id: index as i64 + 1,
            customer_id,
            offer_id,
            channel_id,
            date_key,
            amount,
            lt_validate: 1 + r.below(48) as i64,
            lt_deliver: 24 + r.below(217) as i64,
            lt_invoice: 1 + r.below(72) as i64,
            lt_pay,
            paid_on_time: (lt_pay <= ON_TIME_HOURS) as i64,
        }
    }

    /// Generate (and record as loaded) the next `n` orders.
    pub fn extend(&mut self, n: usize) -> &[Fact] {
        let start = self.facts.len();
        for i in start..start + n {
            self.push(self.fact_at(i as u64));
        }
        &self.facts[start..]
    }

    /// Record one acknowledged insert.
    pub fn push(&mut self, fact: Fact) {
        self.tally.add(&fact);
        self.facts.push(fact);
    }

    /// Recompute every aggregate from the rows, from scratch, and check
    /// the running tally against it.
    pub fn recount(&self) -> bool {
        let mut fresh = Tally::default();
        self.facts.iter().for_each(|f| fresh.add(f));
        fresh == self.tally
    }

    fn customer_row(&self, id: i64) -> Vec<String> {
        let mut r = Rng::at(self.seed ^ 0xC057, id as u64);
        vec![
            format!("Customer {id:05}"),
            ["consumer", "soho", "sme", "corporate"][r.below(4) as usize].to_string(),
            ["north", "south", "east", "west", "centre"][r.below(5) as usize].to_string(),
        ]
    }

    /// DDL for the star schema.
    pub fn schema_sql() -> Vec<String> {
        [
            "CREATE TABLE dim_customer (customer_id INT PRIMARY KEY, name TEXT, segment TEXT, region TEXT)",
            "CREATE TABLE dim_offer (offer_id INT PRIMARY KEY, name TEXT, family TEXT)",
            "CREATE TABLE dim_channel (channel_id INT PRIMARY KEY, name TEXT)",
            "CREATE TABLE dim_date (date_key INT PRIMARY KEY, year INT, month INT)",
            "CREATE TABLE fact_order (order_id INT PRIMARY KEY, customer_id INT, offer_id INT, \
             channel_id INT, date_key INT, amount INT, lt_validate INT, lt_deliver INT, \
             lt_invoice INT, lt_pay INT, paid_on_time INT)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Multi-row INSERTs loading the four dimensions, at most `chunk` rows each.
    pub fn dimension_sql(&self, chunk: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut emit = |table: &str, rows: Vec<String>| {
            for part in rows.chunks(chunk) {
                out.push(format!("INSERT INTO {table} VALUES {}", part.join(", ")));
            }
        };
        emit(
            "dim_customer",
            (1..=self.customers)
                .map(|id| {
                    let c = self.customer_row(id);
                    format!("({id}, '{}', '{}', '{}')", c[0], c[1], c[2])
                })
                .collect(),
        );
        emit(
            "dim_offer",
            (1..=OFFERS as i64)
                .map(|id| {
                    let family = ["mobile", "fixed", "fibre", "tv", "bundle"][(id % 5) as usize];
                    format!("({id}, 'Offer {id:02}', '{family}')")
                })
                .collect(),
        );
        emit(
            "dim_channel",
            CHANNELS
                .iter()
                .enumerate()
                .map(|(i, name)| format!("({}, '{name}')", i + 1))
                .collect(),
        );
        emit(
            "dim_date",
            self.dates
                .iter()
                .map(|k| format!("({k}, {}, {})", k / 10_000, k / 100))
                .collect(),
        );
        out
    }

    /// `(dataset name, SQL)` for every dataset the benchmark defines.
    pub fn datasets() -> Vec<(&'static str, String)> {
        vec![
            (
                "lead_time_by_month",
                "SELECT d.month, COUNT(*) AS orders, SUM(f.lt_validate) AS validate_h, \
                 SUM(f.lt_deliver) AS deliver_h, SUM(f.lt_invoice) AS invoice_h, \
                 SUM(f.lt_pay) AS pay_h FROM fact_order f JOIN dim_date d \
                 ON f.date_key = d.date_key GROUP BY d.month ORDER BY d.month"
                    .to_string(),
            ),
            (
                "ontime_by_channel",
                "SELECT c.name, COUNT(*) AS orders, SUM(f.paid_on_time) AS on_time \
                 FROM fact_order f JOIN dim_channel c ON f.channel_id = c.channel_id \
                 GROUP BY c.name ORDER BY c.name"
                    .to_string(),
            ),
            (
                "top_customers",
                "SELECT customer_id, SUM(amount) AS revenue FROM fact_order \
                 GROUP BY customer_id ORDER BY revenue DESC, customer_id LIMIT 20"
                    .to_string(),
            ),
            (
                "detail",
                format!(
                    "SELECT order_id, customer_id, amount, lt_pay FROM fact_order \
                     WHERE lt_pay > {LATE_PAY_HOURS} ORDER BY order_id"
                ),
            ),
            (
                "point",
                format!(
                    "SELECT name, segment, region FROM dim_customer WHERE customer_id = {POINT_CUSTOMER}"
                ),
            ),
        ]
    }

    /// The expected answer of dataset `name` over the acknowledged rows.
    pub fn answer(&self, name: &str) -> Answer {
        let s = |v: i64| v.to_string();
        match name {
            "lead_time_by_month" => Answer::new(
                &[
                    "month",
                    "orders",
                    "validate_h",
                    "deliver_h",
                    "invoice_h",
                    "pay_h",
                ],
                self.tally
                    .by_month
                    .iter()
                    .map(|(&m, &c)| std::iter::once(m).chain(c).map(s).collect())
                    .collect(),
            ),
            "ontime_by_channel" => Answer::new(
                &["name", "orders", "on_time"],
                self.tally
                    .by_channel
                    .iter()
                    .map(|(name, c)| vec![name.to_string(), s(c[0]), s(c[1])])
                    .collect(),
            ),
            "top_customers" => {
                let mut ranked: Vec<(i64, i64)> =
                    self.tally.revenue.iter().map(|(&c, &r)| (c, r)).collect();
                ranked.sort_by_key(|&(customer, rev)| (std::cmp::Reverse(rev), customer));
                ranked.truncate(20);
                Answer::new(
                    &["customer_id", "revenue"],
                    ranked.into_iter().map(|(c, r)| vec![s(c), s(r)]).collect(),
                )
            }
            "detail" => Answer::new(
                &["order_id", "customer_id", "amount", "lt_pay"],
                self.tally
                    .late
                    .iter()
                    .map(|(&order, &rest)| std::iter::once(order).chain(rest).map(s).collect())
                    .collect(),
            ),
            "point" => Answer::new(
                &["name", "segment", "region"],
                vec![self.customer_row(POINT_CUSTOMER)],
            ),
            other => panic!("the model has no dataset {other}"),
        }
    }

    /// The `POST /api/v1/mdx` JSON body for [`MDX_QUERY`], cells in
    /// coordinate order.
    pub fn mdx_body(&self) -> String {
        let cells: Vec<serde_json::Value> = self
            .tally
            .cells
            .iter()
            .map(|((channel, year), (revenue, orders))| {
                serde_json::json!({
                    "coords": vec![channel.to_string(), year.to_string()],
                    "measures": vec![revenue.to_string(), orders.to_string()],
                })
            })
            .collect();
        serde_json::json!({
            "axes": vec!["channel.name", "time.year"],
            "measures": vec!["revenue", "orders"],
            "cells": cells,
        })
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 20-row fixture small enough to aggregate by hand.
    fn fixture() -> Mart {
        let mut mart = Mart::new(1, 10);
        for i in 0..20i64 {
            mart.push(Fact {
                order_id: i + 1,
                customer_id: i % 4 + 1,
                offer_id: 1,
                channel_id: i % 2 + 1,
                date_key: if i < 10 { 20080115 } else { 20090220 },
                amount: 100 * (i + 1),
                lt_validate: 1,
                lt_deliver: 2,
                lt_invoice: 3,
                lt_pay: if i == 19 { 721 } else { 10 * (i + 1) },
                paid_on_time: 1,
            });
        }
        mart
    }

    fn cells(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| r.iter().map(|c| c.to_string()).collect())
            .collect()
    }

    #[test]
    fn model_matches_hand_computed_fixture() {
        let mart = fixture();
        // pay hours: 10+20+..+100 = 550; 110+..+190 = 1350, plus 721
        assert_eq!(
            mart.answer("lead_time_by_month").rows,
            cells(&[
                &["200801", "10", "10", "20", "30", "550"],
                &["200902", "10", "10", "20", "30", "2071"],
            ])
        );
        assert_eq!(
            mart.answer("ontime_by_channel").rows,
            cells(&[&["agency", "10", "10"], &["callcenter", "10", "10"]])
        );
        // customer k gets orders k, k+4, .., k+16: 100 * (5k + 40)
        assert_eq!(
            mart.answer("top_customers").rows,
            cells(&[
                &["4", "6000"],
                &["3", "5500"],
                &["2", "5000"],
                &["1", "4500"]
            ])
        );
        assert_eq!(
            mart.answer("detail").rows,
            cells(&[&["20", "4", "2000", "721"]])
        );
        // odd order ids (i even) go through agency: 100+300+..+900 in 2008
        let mdx: serde_json::Value = serde_json::from_str(&mart.mdx_body()).unwrap();
        let cells = mdx["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells[0].to_string(),
            r#"{"coords":["agency","2008"],"measures":["2500","5"]}"#
        );
        assert_eq!(
            cells[3].to_string(),
            r#"{"coords":["callcenter","2009"],"measures":["8000","5"]}"#
        );
        assert!(mart.recount());
    }

    #[test]
    fn bodies_have_the_wire_shape() {
        let mart = fixture();
        let a = mart.answer("ontime_by_channel");
        assert_eq!(
            a.csv_body(),
            "name,orders,on_time\r\nagency,10,10\r\ncallcenter,10,10\r\n"
        );
        let v: serde_json::Value = serde_json::from_str(&a.json_body()).unwrap();
        assert_eq!(v["rows"][1][0].as_str(), Some("callcenter"));
        assert_eq!(v["rowsAffected"].as_i64(), Some(0));
    }

    #[test]
    fn generator_is_a_function_of_seed_and_index() {
        let (a, b, c) = (
            Mart::new(11, 2000),
            Mart::new(11, 2000),
            Mart::new(12, 2000),
        );
        let rows = |m: &Mart| (0..200).map(|i| m.fact_at(i)).collect::<Vec<_>>();
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
        assert_eq!(a.dimension_sql(500), b.dimension_sql(500));
    }

    #[test]
    fn generated_rows_stay_in_range() {
        let mut mart = Mart::new(11, 2000);
        mart.extend(20_000);
        let late = mart
            .facts
            .iter()
            .filter(|f| f.lt_pay > LATE_PAY_HOURS)
            .count();
        assert!(
            (300..500).contains(&late),
            "about 2 % late payers, got {late}"
        );
        assert!(mart
            .facts
            .iter()
            .all(|f| (1..=2000).contains(&f.customer_id)
                && (1..=6).contains(&f.channel_id)
                && f.amount > 0));
        assert!(mart.recount());
        assert_eq!(date_keys().len(), 1096);
        assert_eq!(mart.answer("lead_time_by_month").rows.len(), 36);
    }
}
