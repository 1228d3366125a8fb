//! Seeded property tests for the binary columnar segment codec.
//!
//! Two layers are swept:
//!
//! 1. **Block level** — random value blocks (typed, mixed, null-heavy,
//!    empty) round-trip through *every* encoding (`plain`, `rle`, `dict`,
//!    `bitpack`) plus the size-based automatic choice, bit-exactly, with
//!    zone maps that match a reference min/max.
//! 2. **Table level** — random schemas and mutation histories checkpointed
//!    as segments recover to exactly the live database (rows, row ids,
//!    indexes) across a crash boundary.
//!
//! The seed prints on start; rerun a failure with
//! `ODBIS_CHAOS_SEED=<seed> cargo test --test prop_segment`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odbis_storage::segment::{choose_encoding, decode_block, encode_block, Encoding};
use odbis_storage::{Column, DataType, DurableStore, FsyncPolicy, Schema, Value, WalSink};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn seed() -> u64 {
    std::env::var("ODBIS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5E6)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "odbis-propseg-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Bit-exact float equality with one carve-out: any NaN equals any NaN.
/// `-0.0` and `0.0` are *different* here — the codec must preserve bits.
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

fn values_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_eq(x, y))
}

// ------------------------------------------------------------- generators

fn gen_int(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..8i64) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => rng.random_range(-5..5), // tight spread: bitpack-friendly
        4 => rng.random_range(0..3) * 10, // few distincts: dict/rle-friendly
        _ => rng.random_range(i64::MIN / 2..i64::MAX / 2),
    }
}

fn gen_float(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8i64) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => rng.random_range(0..4) as f64, // repeats for rle/dict
        _ => rng.random_range(-1.0e12..1.0e12),
    }
}

fn gen_text(rng: &mut StdRng) -> String {
    const POOL: &[&str] = &["", "eu", "us", "apac", "zürich", "中文", "a\"b\\c", "😀"];
    match rng.random_range(0..3i64) {
        0 => POOL[rng.random_range(0..POOL.len() as i64) as usize].to_string(),
        _ => {
            let n = rng.random_range(0..10i64);
            (0..n)
                .map(|_| (b'a' + (rng.random_range(0..26i64) as u8)) as char)
                .collect()
        }
    }
}

fn gen_typed(rng: &mut StdRng, ty: DataType, null_pct: i64) -> Value {
    if rng.random_range(0..100i64) < null_pct {
        return Value::Null;
    }
    match ty {
        DataType::Bool => Value::Bool(rng.random_range(0..2i64) == 0),
        DataType::Int => Value::Int(gen_int(rng)),
        DataType::Float => Value::Float(gen_float(rng)),
        DataType::Text => Value::Text(gen_text(rng)),
        DataType::Date => Value::Date(rng.random_range(i32::MIN as i64..=i32::MAX as i64) as i32),
        DataType::Timestamp => Value::Timestamp(gen_int(rng)),
    }
}

const TYPES: &[DataType] = &[
    DataType::Bool,
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Date,
    DataType::Timestamp,
];

/// One random block: usually column-homogeneous (the shape segments see),
/// sometimes mixed-type, sometimes empty or all-null.
fn gen_block(rng: &mut StdRng) -> Vec<Value> {
    let n = match rng.random_range(0..10i64) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2..200i64) as usize,
    };
    let null_pct = [0, 0, 5, 30, 100][rng.random_range(0..5i64) as usize];
    if rng.random_range(0..5i64) == 0 {
        // mixed types in one block: legal for the codec even though real
        // segment columns are homogeneous
        (0..n)
            .map(|_| {
                let ty = TYPES[rng.random_range(0..TYPES.len() as i64) as usize];
                gen_typed(rng, ty, null_pct)
            })
            .collect()
    } else {
        let ty = TYPES[rng.random_range(0..TYPES.len() as i64) as usize];
        let mut vals: Vec<Value> = (0..n).map(|_| gen_typed(rng, ty, null_pct)).collect();
        if rng.random_range(0..3i64) == 0 {
            vals.sort_by(|a, b| a.cmp_total(b)); // sorted runs: rle territory
        }
        vals
    }
}

/// Reference zone map: min/max of the non-null values by total order,
/// computed independently of the codec.
fn reference_zone(values: &[Value]) -> (Option<Value>, Option<Value>) {
    let mut non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    if non_null.is_empty() {
        return (None, None);
    }
    non_null.sort_by(|a, b| a.cmp_total(b));
    (
        Some((*non_null.first().unwrap()).clone()),
        Some((*non_null.last().unwrap()).clone()),
    )
}

// ------------------------------------------------------------- properties

/// Every encoding — forced and chosen — is the identity on every block.
#[test]
fn blocks_round_trip_under_every_encoding() {
    let seed = seed();
    eprintln!("prop_segment blocks seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let forced = [
        None,
        Some(Encoding::Plain),
        Some(Encoding::Rle),
        Some(Encoding::Dict),
        Some(Encoding::BitPack),
    ];
    for case in 0..2_000 {
        let values = gen_block(&mut rng);
        let (ref_min, ref_max) = reference_zone(&values);
        for f in forced {
            let mut buf = Vec::new();
            encode_block(&mut buf, &values, f);
            let mut pos = 0usize;
            let block = decode_block(&buf, &mut pos).unwrap_or_else(|e| {
                panic!("case {case} (seed {seed}) forced={f:?}: decode failed: {e}")
            });
            assert_eq!(
                pos,
                buf.len(),
                "case {case} (seed {seed}) forced={f:?}: trailing bytes"
            );
            assert!(
                values_eq(&values, &block.values),
                "case {case} (seed {seed}) forced={f:?}: {values:?} != {:?}",
                block.values
            );
            // Zone maps must bracket the data exactly. NaN min/max compare
            // through value_eq (bitwise), matching cmp_total's total order.
            let zone_eq = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => value_eq(x, y),
                _ => false,
            };
            assert!(
                zone_eq(&ref_min, &block.min) && zone_eq(&ref_max, &block.max),
                "case {case} (seed {seed}) forced={f:?}: zone {:?}..{:?} want {ref_min:?}..{ref_max:?}",
                block.min,
                block.max
            );
            // A forced encoding sticks unless bitpack legitimately fell
            // back to plain on non-integer data.
            if let Some(want) = f {
                assert!(
                    block.encoding == want
                        || (want == Encoding::BitPack && block.encoding == Encoding::Plain),
                    "case {case} (seed {seed}): forced {want:?} stored as {:?}",
                    block.encoding
                );
            } else {
                assert_eq!(
                    block.encoding,
                    choose_encoding(&values),
                    "case {case} (seed {seed}): chosen encoding not recorded"
                );
            }
        }
    }
}

/// The automatic choice never loses on size to the encodings it actually
/// considers. Dict is excluded: `choose_encoding` deliberately stops
/// scanning high-cardinality blocks (a perf guard on its O(distinct·n)
/// dedup), so a forced dict can occasionally beat the chosen encoding on
/// a majority-distinct block — that trade is intentional.
#[test]
fn chosen_encoding_is_never_larger_than_considered_alternatives() {
    let seed = seed().wrapping_add(1);
    eprintln!("prop_segment sizes seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..500 {
        let values = gen_block(&mut rng);
        let mut auto = Vec::new();
        encode_block(&mut auto, &values, None);
        for f in [Encoding::Plain, Encoding::Rle, Encoding::BitPack] {
            let mut alt = Vec::new();
            encode_block(&mut alt, &values, Some(f));
            assert!(
                auto.len() <= alt.len(),
                "case {case} (seed {seed}): auto {}B > forced {f:?} {}B",
                auto.len(),
                alt.len()
            );
        }
    }
}

/// Random schemas + mutation histories checkpointed as segments recover to
/// the live database exactly: rows, row ids, indexes, all of it.
#[test]
fn random_tables_survive_segment_checkpoint_and_recovery() {
    let seed = seed().wrapping_add(2);
    eprintln!("prop_segment tables seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..25 {
        let dir = tmp_dir("tables");
        let (live, store) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);

        let ntables = rng.random_range(1..4i64);
        let mut t0_arity = 1usize;
        for t in 0..ntables {
            let ncols = rng.random_range(1..5i64) as usize;
            let types: Vec<DataType> = (0..ncols)
                .map(|_| TYPES[rng.random_range(0..TYPES.len() as i64) as usize])
                .collect();
            let mut cols = vec![Column::new("id", DataType::Int).not_null()];
            cols.extend(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, ty)| Column::new(format!("c{i}"), *ty)),
            );
            let schema = Schema::new(cols)
                .unwrap()
                .with_primary_key(&["id"])
                .unwrap();
            let name = format!("t{t}");
            live.create_table(&name, schema).unwrap();
            if t == 0 {
                t0_arity = 1 + types.len();
            }

            let nrows = rng.random_range(0..120i64);
            for i in 0..nrows {
                let mut row = vec![Value::Int(i)];
                // table rows avoid NaN so assert_eq on scans stays exact
                row.extend(types.iter().map(|ty| loop {
                    let v = gen_typed(&mut rng, *ty, 20);
                    if !matches!(v, Value::Float(f) if f.is_nan()) {
                        break v;
                    }
                }));
                live.insert(&name, row).unwrap();
            }
            // tombstones: deletes punch holes in the slot space that the
            // segment live-bitmap must reproduce
            for _ in 0..rng.random_range(0..4i64) {
                if nrows > 0 {
                    let id = rng.random_range(0..nrows) as u64;
                    let _ = live.write_table(&name, |tab| tab.delete(id));
                }
            }
            if rng.random_range(0..2i64) == 0 && !types.is_empty() {
                let _ = live.write_table(&name, |tab| {
                    tab.create_index(&format!("ix_{name}"), &["c0"], false)
                });
            }
        }

        store.checkpoint(&live).unwrap();
        // a post-checkpoint tail forces recovery to stack WAL replay on
        // top of the segment state
        if rng.random_range(0..2i64) == 0 {
            let mut row = vec![Value::Int(10_000)];
            row.resize(t0_arity, Value::Null);
            live.insert("t0", row)
                .unwrap_or_else(|e| panic!("case {case} (seed {seed}): tail insert: {e}"));
        }

        let (recovered, _) = DurableStore::open(&dir, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("case {case} (seed {seed}): recovery failed: {e}"));
        assert_eq!(
            live.table_names(),
            recovered.table_names(),
            "case {case} (seed {seed}): table set"
        );
        for name in live.table_names() {
            assert_eq!(
                live.scan(&name).unwrap(),
                recovered.scan(&name).unwrap(),
                "case {case} (seed {seed}): rows of {name}"
            );
            live.read_table(&name, |ta| {
                recovered
                    .read_table(&name, |tb| {
                        let ids_a: Vec<_> = ta.scan().map(|(id, _)| id).collect();
                        let ids_b: Vec<_> = tb.scan().map(|(id, _)| id).collect();
                        assert_eq!(ids_a, ids_b, "case {case} (seed {seed}): row ids of {name}");
                        assert_eq!(
                            ta.indexes().len(),
                            tb.indexes().len(),
                            "case {case} (seed {seed}): index count of {name}"
                        );
                        for ix in ta.indexes() {
                            let other = tb.index(&ix.name).expect("index survives recovery");
                            assert_eq!(ix.columns, other.columns);
                            assert_eq!(ix.unique, other.unique);
                            assert_eq!(ix.ordered_ids(), other.ordered_ids());
                        }
                    })
                    .unwrap();
            })
            .unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
