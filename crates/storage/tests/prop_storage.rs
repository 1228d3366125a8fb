//! Property-based tests for storage-engine invariants.

use odbis_storage::{
    date_to_days, days_to_date, parse_date, Column, DataType, Database, DbError, Schema, Table,
    Value,
};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Text),
        (-100_000i32..100_000).prop_map(Value::Date),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

proptest! {
    /// Value ordering is a total order: antisymmetric and transitive on samples.
    #[test]
    fn value_order_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.cmp_total(&b);
        let ba = b.cmp_total(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Less && b.cmp_total(&c) == Ordering::Less {
            prop_assert_eq!(a.cmp_total(&c), Ordering::Less);
        }
        prop_assert_eq!(a.cmp_total(&a), Ordering::Equal);
    }

    /// Values that compare equal must hash equal (HashMap correctness).
    #[test]
    fn value_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// Civil-date <-> epoch-days conversion round-trips for all valid dates.
    #[test]
    fn date_round_trip(y in -9999i32..9999, m in 1u32..=12, d in 1u32..=31) {
        if let Some(days) = date_to_days(y, m, d) {
            prop_assert_eq!(days_to_date(days), (y, m, d));
        }
    }

    /// date parsing never panics on arbitrary input.
    #[test]
    fn parse_date_total(s in ".{0,24}") {
        let _ = parse_date(&s);
    }

    /// Inserted rows always come back unchanged through scan, modulo declared
    /// coercions; row_count always equals live inserts minus deletes.
    #[test]
    fn insert_delete_row_count(ops in prop::collection::vec((any::<i64>(), any::<bool>()), 0..60)) {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]).unwrap();
        let mut t = Table::new("t", schema);
        let mut live: Vec<u64> = Vec::new();
        for (v, del) in ops {
            if del && !live.is_empty() {
                let id = live.remove(0);
                t.delete(id).unwrap();
            } else {
                let id = t.insert(vec![v.into(), (v ^ 1).into()]).unwrap();
                live.push(id);
            }
            prop_assert_eq!(t.row_count(), live.len());
        }
        for &id in &live {
            prop_assert!(t.get(id).is_ok());
        }
    }

    /// An ordered index always returns ids whose rows actually match the key,
    /// and range scans return keys in sorted order.
    #[test]
    fn index_consistency(keys in prop::collection::vec(-50i64..50, 1..80)) {
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]).unwrap();
        let mut t = Table::new("t", schema);
        for k in &keys {
            t.insert(vec![(*k).into()]).unwrap();
        }
        t.create_index("ix", &["k"], false).unwrap();
        let idx = t.index("ix").unwrap();
        for k in &keys {
            let hits = idx.lookup(&[(*k).into()]);
            prop_assert!(!hits.is_empty());
            for id in hits {
                prop_assert_eq!(t.get(id).unwrap()[0].clone(), Value::Int(*k));
            }
        }
        // ordered_ids yields keys non-decreasing
        let ordered = idx.ordered_ids();
        let vals: Vec<i64> = ordered.iter().map(|&id| t.get(id).unwrap()[0].as_i64().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        prop_assert_eq!(vals, sorted);
    }

    /// A statement that applies random ops and then fails leaves the
    /// database byte-identical.
    #[test]
    fn rollback_restores_state(seed in prop::collection::vec((0i64..20, 0u8..3), 1..40)) {
        let db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]).unwrap();
        db.create_table("t", schema).unwrap();
        for i in 0..10i64 {
            db.insert("t", vec![i.into(), 0.into()]).unwrap();
        }
        // live rows with their row ids
        let image = || {
            db.read_table("t", |t| t.scan().map(|(id, r)| (id, r.to_vec())).collect::<Vec<_>>())
                .unwrap()
        };
        let before = image();
        let failed = db.write_table("t", |t| {
            for (v, op) in &seed {
                match op {
                    0 => { let _ = t.insert(vec![(*v + 100).into(), 1.into()]); }
                    1 => { let _ = t.update((*v % 10) as u64, vec![(*v % 10).into(), 99.into()]); }
                    _ => { let _ = t.delete((*v % 10) as u64); }
                }
            }
            Err::<(), _>(DbError::Invalid("the statement fails after its ops".into()))
        });
        prop_assert!(failed.is_err());
        prop_assert_eq!(image(), before);
    }
}
