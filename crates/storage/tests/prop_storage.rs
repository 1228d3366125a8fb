//! Property-based tests for storage-engine invariants.

use std::collections::BTreeMap;

use odbis_storage::{
    date_to_days, days_to_date, parse_date, Batch, Column, DataType, Database, DbError,
    DurableStore, FsyncPolicy, RowId, Schema, Table, Value, BLOCK_ROWS,
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
            prop_assert!(t.row(id).is_ok());
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
                prop_assert_eq!(t.row(id).unwrap()[0].clone(), Value::Int(*k));
            }
        }
        // ordered_ids yields keys non-decreasing
        let ordered = idx.ordered_ids();
        let vals: Vec<i64> = ordered.iter().map(|&id| t.row(id).unwrap()[0].as_i64().unwrap()).collect();
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

/// The reference model of one table: live rows by row id.
type Model = BTreeMap<RowId, Vec<Value>>;

fn model_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("grp", DataType::Int),
        Column::new("name", DataType::Text),
        Column::new("score", DataType::Float),
    ])
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap()
}

/// Row `pk` of the model table, its other values drawn from `x`.
fn model_row(pk: i64, x: u64) -> Vec<Value> {
    let name = match x % 5 {
        0 => Value::Null,
        n => Value::from(format!("n{}", x % (40 * n))),
    };
    vec![
        pk.into(),
        ((x % 17) as i64).into(),
        name,
        ((x % 1000) as f64 / 8.0).into(),
    ]
}

/// The live row ids of `model` picked by `x`: a run of up to `n` of them.
fn pick(model: &Model, x: u64, n: u64) -> Vec<RowId> {
    let ids: Vec<RowId> = model.keys().copied().collect();
    if ids.is_empty() {
        return Vec::new();
    }
    let at = (x % ids.len() as u64) as usize;
    ids[at..]
        .iter()
        .take(1 + (x / 7 % n) as usize)
        .copied()
        .collect()
}

/// The table `t` of `db` holds exactly `model`: the concatenated morsels,
/// `row(id)` for live and dead ids, and both indexes.
fn assert_matches_model(db: &Database, model: &Model, slots: usize) {
    db.read_table("t", |t| {
        let morsels = t.scan_partitions(None);
        assert!(morsels.iter().all(|m| m.num_rows() <= BLOCK_ROWS));
        let glued = Batch::concat(4, &morsels).unwrap().to_rows();
        assert_eq!(glued, model.values().cloned().collect::<Vec<_>>());
        let scanned: Model = t.scan().collect();
        assert_eq!(&scanned, model, "row ids preserved");
        assert_eq!(t.row_count(), model.len());
        assert_eq!(t.slot_count(), slots);
        for id in 0..slots as RowId {
            match model.get(&id) {
                Some(row) => assert_eq!(&t.row(id).unwrap(), row),
                None => assert!(matches!(t.row(id), Err(DbError::RowNotFound(_)))),
            }
        }
        let pk = t.index("pk_t").unwrap();
        let grp = t.index("ix_grp").unwrap();
        assert_eq!(pk.distinct_keys(), model.len());
        let mut by_grp: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
        for (&id, row) in model {
            assert_eq!(pk.lookup(&row[..1]), vec![id]);
            by_grp.entry(row[1].clone()).or_default().push(id);
        }
        assert_eq!(grp.distinct_keys(), by_grp.len());
        for (g, ids) in by_grp {
            let mut got = grp.lookup(&[g]);
            got.sort_unstable();
            assert_eq!(got, ids);
        }
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Column chunks against a row-map model, over more than two chunks:
    /// random multi-row inserts, updates, deletes, truncates and
    /// statements that fail after mutating. After every step the morsels,
    /// `row(id)` and the indexes match the model, and a segment round trip
    /// through a checkpoint and a reopen preserves every row id.
    #[test]
    fn chunked_table_matches_a_row_map_model(ops in prop::collection::vec((0u8..100, any::<u64>()), 30..60)) {
        let dir = std::env::temp_dir().join(format!(
            "odbis-prop-chunks-{}-{}",
            std::process::id(),
            ops.iter().fold(0u64, |h, &(k, x)| h.rotate_left(7) ^ x ^ k as u64)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (db, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        db.create_table("t", model_schema()).unwrap();
        db.write_table("t", |t| t.create_index("ix_grp", &["grp"], false)).unwrap();
        let mut model = Model::new();
        let mut next_pk = 0i64;
        let mut slots = 0usize;
        let mut insert = |db: &Database, model: &mut Model, slots: &mut usize, n: u64, x: u64| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| {
                    next_pk += 1;
                    model_row(next_pk, x.wrapping_add(i))
                })
                .collect();
            db.insert_many("t", rows.clone()).unwrap();
            for row in rows {
                model.insert(*slots as RowId, row);
                *slots += 1;
            }
        };
        insert(&db, &mut model, &mut slots, 2 * BLOCK_ROWS as u64 + 100, 1);
        for (kind, x) in ops {
            match kind {
                0..=29 => insert(&db, &mut model, &mut slots, 1 + x % 700, x),
                30..=54 => {
                    for id in pick(&model, x, 3) {
                        let row = model_row(model[&id][0].as_i64().unwrap(), x / 3);
                        db.write_table("t", |t| t.update(id, row.clone())).unwrap();
                        model.insert(id, row);
                    }
                }
                55..=79 => {
                    let ids = pick(&model, x, 60);
                    db.write_table("t", |t| ids.iter().try_for_each(|&id| t.delete(id))).unwrap();
                    for id in ids {
                        model.remove(&id);
                    }
                }
                80..=94 => {
                    // mutate every way, then fail: nothing may stay
                    let victims = pick(&model, x, 40);
                    let failed = db.write_table("t", |t| {
                        t.insert_all((0..1 + x % 300).map(|i| model_row(-1 - i as i64, i)).collect())?;
                        for &id in &victims {
                            t.update(id, model_row(model[&id][0].as_i64().unwrap(), x))?;
                            t.delete(id)?;
                        }
                        if x % 2 == 0 {
                            t.truncate();
                        }
                        Err::<(), _>(DbError::Invalid("the statement fails".into()))
                    });
                    prop_assert!(failed.is_err());
                }
                95..=97 => {
                    // a multi-row insert whose last row repeats a key
                    if let Some(dup) = model.values().next().map(|r| r[0].clone()) {
                        let mut rows: Vec<Vec<Value>> =
                            (0..x % 200).map(|i| model_row(-1 - i as i64, i)).collect();
                        rows.push(model_row(dup.as_i64().unwrap(), x));
                        prop_assert!(db.insert_many("t", rows).is_err());
                    }
                }
                _ => {
                    db.truncate("t").unwrap();
                    model.clear();
                    slots = 0;
                }
            }
            assert_matches_model(&db, &model, slots);
        }
        store.checkpoint(&db).unwrap();
        drop((db, store));
        let (back, _store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_matches_model(&back, &model, slots);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
