//! Seeded property tests for the one binary encoding of a [`WalRecord`]
//! (`encode_record`) and of a frame payload, a statement's records back to
//! back (`decode_records`): the byte format of every WAL frame.
//!
//! 1. **Round trip** — every variant, with pinned edge values and ~4 000
//!    seeded records, decodes bit-exactly (NaN payloads, `-0.0` and all),
//!    alone, as statements of 1..n records, and through
//!    `Wal::append_batch` + `read_wal` as one frame.
//! 2. **Totality and bounds** — random bytes, every truncation and every
//!    single-byte flip of valid one- and several-record payloads decode to
//!    `Ok` or `Err`, never a panic, and no decode reserves more than its
//!    payload can hold: the largest single allocation is measured by a
//!    counting allocator. An empty payload is `Corrupt`.
//! 3. **Hostile counts** — a `u32::MAX` value, row, column or text length
//!    in a 20-byte payload is `Corrupt` before anything is reserved.
//! 4. **Golden log** — a log written before a frame could hold more than
//!    one record recovers to the same table, and the same history written
//!    today is byte-identical.
//!
//! The seed prints on start; rerun a failure with
//! `ODBIS_CHAOS_SEED=<seed> cargo test --test prop_walcodec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use odbis_storage::{
    decode_records, encode_record, read_wal, Column, DataType, Database, DbError, DbResult,
    DurableStore, FsyncPolicy, Schema, Value, Wal, WalRecord, WalSink,
};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

fn seed() -> u64 {
    std::env::var("ODBIS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0DB15)
}

// ---------------------------------------------------- allocation bound

/// Tracks the largest single allocation request this thread makes, so
/// the decoder's reservation bound is measured, not assumed.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` guarantees are exactly `System`'s; `note` only
// touches a `const`-initialised thread-local `Cell<usize>` (no allocation,
// no destructor) through `try_with`, which cannot panic during teardown.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded caller contract (non-zero-size `layout`)
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded caller contract (non-zero-size `layout`)
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decode `bytes`, asserting that no single allocation exceeded what the
/// payload can justify: one `Value` per byte (every value is at least its
/// tag byte, and a record at least 5), plus a fixed floor for the schema
/// JSON parser's nodes.
fn decode_bounded(bytes: &[u8], ctx: &str) -> DbResult<Vec<WalRecord>> {
    PEAK.with(|p| p.set(0));
    let result = decode_records(bytes);
    let peak = PEAK.with(Cell::get);
    let cap = 4096.max(bytes.len() * std::mem::size_of::<Value>());
    assert!(
        peak <= cap,
        "{ctx}: {} bytes reserved {peak} at once",
        bytes.len()
    );
    result
}

/// A frame payload: the records' encodings back to back.
fn encode(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        encode_record(&mut out, r);
    }
    out
}

/// Bit- and type-exact equality: `Value`'s `==` compares floats with
/// `total_cmp` (so NaN payloads and `-0.0` count) but equates `Int(1)` with
/// `Float(1.0)`, which the `Debug` rendering tells apart.
fn same(a: &[WalRecord], b: &[WalRecord]) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

// ------------------------------------------------------------ fixtures

fn edge_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(f64::from_bits(0x7FF8_0000_0000_1234)), // quiet NaN, payload
        Value::Float(f64::from_bits(0xFFF0_0000_0000_0001)), // negative signalling NaN
        Value::Float(-0.0),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::MIN_POSITIVE / 4.0), // subnormal
        Value::Date(i32::MIN),
        Value::Date(i32::MAX),
        Value::Timestamp(i64::MIN),
        Value::Timestamp(i64::MAX),
        Value::Text(String::new()),
        Value::Text("héllo 中 € 𝄞 😀".into()),
        Value::Text("\0\u{1}\n\t\r\"\\\u{7f}\u{2028}".into()),
    ]
}

/// Every variant at least once, with every edge value, an empty row, an
/// empty `InsertMany` and edge names.
fn pinned_records() -> Vec<WalRecord> {
    let edges = edge_values();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("naïve \"name\"", DataType::Text).not_null(),
        Column::new("score", DataType::Float).with_default(Value::Float(f64::NEG_INFINITY)),
        Column::new("born", DataType::Date).with_default(Value::Date(i32::MIN)),
        Column::new("at", DataType::Timestamp).with_default(Value::Timestamp(i64::MAX)),
        Column::new("ok", DataType::Bool).with_default(Value::Bool(true)),
    ])
    .unwrap()
    .with_primary_key(&["id", "naïve \"name\""])
    .unwrap();
    let t = || "t".to_string();
    vec![
        WalRecord::CreateTable {
            name: "fact_sales".into(),
            schema,
        },
        WalRecord::DropTable {
            name: "日本".into(),
        },
        WalRecord::Insert {
            table: t(),
            row: edges.clone(),
        },
        WalRecord::Insert {
            table: String::new(),
            row: Vec::new(),
        },
        WalRecord::InsertMany {
            table: t(),
            rows: Vec::new(),
        },
        WalRecord::InsertMany {
            table: t(),
            rows: vec![Vec::new(), edges.clone(), vec![Value::Null]],
        },
        WalRecord::Update {
            table: t(),
            id: u64::MAX,
            row: edges,
        },
        WalRecord::Delete { table: t(), id: 0 },
        WalRecord::Truncate { table: "\n".into() },
        WalRecord::CreateIndex {
            table: t(),
            name: "ix_ünï".into(),
            columns: vec!["a".into(), "b c".into()],
            unique: true,
        },
        WalRecord::CreateIndex {
            table: t(),
            name: String::new(),
            columns: Vec::new(),
            unique: false,
        },
        WalRecord::DropIndex {
            table: t(),
            name: "ix".into(),
        },
    ]
}

// ---------------------------------------------------------- generators

fn gen_text(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a', 'B', ' ', '"', '\\', '\n', '\u{0}', 'é', '中', '𝄞', '😀',
    ];
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

fn gen_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..7u8) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_range(0..2u8) == 0),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Float(f64::from_bits(rng.next_u64())), // any bit pattern
        4 => Value::Text(gen_text(rng)),
        5 => Value::Date(rng.next_u64() as i32),
        _ => Value::Timestamp(rng.next_u64() as i64),
    }
}

fn gen_row(rng: &mut StdRng) -> Vec<Value> {
    (0..rng.random_range(0..6usize))
        .map(|_| gen_value(rng))
        .collect()
}

fn gen_record(rng: &mut StdRng) -> WalRecord {
    let table = gen_text(rng);
    let id = rng.next_u64();
    match rng.random_range(0..8u8) {
        0 => WalRecord::DropTable { name: table },
        1 => WalRecord::Insert {
            table,
            row: gen_row(rng),
        },
        2 => WalRecord::InsertMany {
            table,
            rows: (0..rng.random_range(0..5usize))
                .map(|_| gen_row(rng))
                .collect(),
        },
        3 => WalRecord::Update {
            table,
            id,
            row: gen_row(rng),
        },
        4 => WalRecord::Delete { table, id },
        5 => WalRecord::Truncate { table },
        6 => WalRecord::CreateIndex {
            table,
            name: gen_text(rng),
            columns: (0..rng.random_range(0..4usize))
                .map(|_| gen_text(rng))
                .collect(),
            unique: rng.random_range(0..2u8) == 0,
        },
        _ => WalRecord::DropIndex {
            table,
            name: gen_text(rng),
        },
    }
}

/// A statement of 1..=`max` random records.
fn gen_statement(rng: &mut StdRng, max: usize) -> Vec<WalRecord> {
    (0..rng.random_range(1..=max))
        .map(|_| gen_record(rng))
        .collect()
}

// ---------------------------------------------------------- properties

/// Every variant alone, then statements of 1..n records back to back,
/// decode to the same list, in order.
#[test]
fn every_variant_round_trips_bit_exactly() {
    let seed = seed();
    eprintln!("prop_walcodec round trip seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let singles = pinned_records().into_iter().map(|r| vec![r]);
    let random: Vec<_> = (0..4_000).map(|_| vec![gen_record(&mut rng)]).collect();
    let several: Vec<_> = (0..1_000).map(|_| gen_statement(&mut rng, 8)).collect();
    let statements = singles
        .chain(random)
        .chain(std::iter::once(pinned_records()))
        .chain(several);
    for (case, stmt) in statements.enumerate() {
        let ctx = format!("case {case} (seed {seed})");
        let back = decode_bounded(&encode(&stmt), &ctx).unwrap();
        assert!(same(&stmt, &back), "{ctx}: {stmt:?} -> {back:?}");
    }
}

/// An empty payload is no statement: `Corrupt`, never an empty `Ok`.
#[test]
fn empty_payload_is_corrupt() {
    let got = decode_bounded(&[], "empty payload");
    assert!(matches!(got, Err(DbError::Corrupt(_))), "{got:?}");
}

/// The log is the codec plus framing: `append_batch` writes the pinned
/// records as one frame with one LSN, and one record per append as one
/// frame each with consecutive LSNs; `read_wal` gives both back.
#[test]
fn pinned_records_round_trip_through_the_log() {
    let dir = std::env::temp_dir().join(format!("odbis-propwal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let _ = std::fs::remove_file(&path);
    let pinned = pinned_records();
    let wal = Wal::open(&path, FsyncPolicy::Never, 1).unwrap();
    wal.append_batch(&pinned).unwrap();
    for r in &pinned {
        wal.append_record(r).unwrap();
    }
    assert_eq!(wal.stats().appends, 1 + pinned.len() as u64);
    let (entries, valid) = read_wal(&path).unwrap();
    assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
    assert_eq!(entries.len(), 1 + pinned.len());
    assert_eq!(entries[0].lsn, 1);
    assert!(same(&entries[0].records, &pinned));
    for (i, (e, r)) in entries[1..].iter().zip(&pinned).enumerate() {
        assert_eq!(e.lsn, i as u64 + 2);
        assert!(same(&e.records, std::slice::from_ref(r)), "{e:?} != {r:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decoder_is_total_and_bounded_on_random_bytes() {
    let seed = seed();
    eprintln!("prop_walcodec random bytes seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..20_000 {
        let len = rng.random_range(0..64usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
        // mostly real op codes, so decoding gets past the first byte
        if len > 0 && rng.random_range(0..4u8) != 0 {
            bytes[0] = rng.random_range(1..=10u8);
        }
        let _ = decode_bounded(&bytes, &format!("case {case} (seed {seed}) {bytes:?}"));
    }
}

/// A cut of a payload decodes exactly when it ends on a record boundary,
/// to the records before the cut (one record is prefix-free), and every
/// single-byte flip decodes to `Ok` or `Err`. An `Ok` is canonical: it
/// re-encodes to exactly the flipped bytes (the schema JSON of
/// `CreateTable` only has to round-trip again). Statements of one record
/// and of several are both mutated.
#[test]
fn truncations_and_byte_flips_never_panic_or_over_reserve() {
    let seed = seed();
    eprintln!("prop_walcodec mutations seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let singles = pinned_records().into_iter().map(|r| vec![r]);
    let random: Vec<_> = (0..150).map(|_| vec![gen_record(&mut rng)]).collect();
    let several: Vec<_> = (0..40).map(|_| gen_statement(&mut rng, 4)).collect();
    for (case, stmt) in singles.chain(random).chain(several).enumerate() {
        let bytes = encode(&stmt);
        let boundaries: Vec<usize> = (1..=stmt.len()).map(|k| encode(&stmt[..k]).len()).collect();
        for cut in 0..bytes.len() {
            let ctx = format!("case {case} cut {cut} (seed {seed})");
            match boundaries.iter().position(|&b| b == cut) {
                Some(k) => {
                    let back = decode_bounded(&bytes[..cut], &ctx).unwrap();
                    assert!(same(&back, &stmt[..=k]), "{ctx}");
                }
                None => assert!(decode_bounded(&bytes[..cut], &ctx).is_err(), "{ctx}"),
            }
        }
        for (at, mask) in (0..bytes.len()).flat_map(|at| [(at, 0x01), (at, 0x80), (at, 0xFF)]) {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            let ctx = format!("case {case} flip {at}^{mask:#x} (seed {seed})");
            let Ok(back) = decode_bounded(&flipped, &ctx) else {
                continue;
            };
            if back
                .iter()
                .any(|r| matches!(r, WalRecord::CreateTable { .. }))
            {
                assert!(
                    same(&back, &decode_records(&encode(&back)).unwrap()),
                    "{ctx}"
                );
            } else {
                assert_eq!(encode(&back), flipped, "{ctx}: not canonical");
            }
        }
    }
}

/// The record list is bounded by the payload too: 1 025 five-byte
/// records (one past a power of two, where doubling would overshoot)
/// reserve no more than the bound allows.
#[test]
fn many_tiny_records_stay_inside_the_allocation_bound() {
    let tiny = WalRecord::Truncate {
        table: String::new(),
    };
    let stmt = vec![tiny; 1_025];
    let bytes = encode(&stmt);
    assert_eq!(bytes.len(), 5 * 1_025);
    let back = decode_bounded(&bytes, "1 025 tiny records").unwrap();
    assert!(same(&back, &stmt));
}

#[test]
fn u32_max_counts_are_corrupt_before_any_reservation() {
    let (max, one) = (u32::MAX.to_le_bytes(), 1u32.to_le_bytes());
    let id = 7u64.to_le_bytes();
    for (what, head) in [
        ("value count", [&[3][..], &one, b"t", &max].concat()),
        ("row count", [&[4][..], &one, b"t", &max].concat()),
        (
            "column count",
            [&[9][..], &one, b"t", &one, b"i", &max].concat(),
        ),
        (
            "update value count",
            [&[5][..], &one, b"t", &id, &max].concat(),
        ),
        (
            "text length",
            [&[3][..], &one, b"t", &one, &[4], &max].concat(),
        ),
        ("table name length", [&[8][..], &max].concat()),
    ] {
        let mut bytes = head;
        bytes.resize(20, 0);
        let got = decode_bounded(&bytes, what);
        assert!(matches!(got, Err(DbError::Corrupt(_))), "{what}: {got:?}");
    }
}

/// Op bytes outside the assigned set — 0, 7 (retired, never reused) and
/// anything above 10 — are `Corrupt` whatever follows them.
#[test]
fn unassigned_op_bytes_are_unknown_ops() {
    let update = encode(&[WalRecord::Update {
        table: "t".into(),
        id: 7,
        row: edge_values(),
    }]);
    for op in [0u8, 7, 11, 255] {
        let mut bytes = update.clone();
        bytes[0] = op;
        match decode_bounded(&bytes, "unassigned op") {
            Err(DbError::Corrupt(m)) => assert_eq!(m, format!("unknown wal op {op}")),
            other => panic!("op {op}: {other:?}"),
        }
    }
}

// ------------------------------------------------------------ golden log

/// `wal.log` as the build before one-frame statements wrote it (every
/// frame one record): CREATE TABLE orders, a 1-row INSERT, a 3-row INSERT,
/// an UPDATE of row 1 and a DELETE of row 2, LSNs 1 to 5.
const GOLDEN_LOG: &str = "\
bf000000e3dcde81010000000000000001060000006f7264657273a80000007b22636f6c756d6e73223a5b7b226e616d\
65223a226964222c2274797065223a22424947494e54222c226e6f745f6e756c6c223a747275657d2c7b226e616d6522\
3a226e616d65222c2274797065223a2254455854222c226e6f745f6e756c6c223a747275657d2c7b226e616d65223a22\
616d6f756e74222c2274797065223a22444f55424c45222c226e6f745f6e756c6c223a66616c73657d5d2c22706b223a\
5b226964225d7d310000001b18c0a1020000000000000003060000006f72646572730300000002010000000000000004\
03000000616e6103000000000000f83f670000000a02b8d3030000000000000004060000006f72646572730300000003\
0000000202000000000000000402000000626f000300000002030000000000000004020000006379030000000000000a\
400300000002040000000000000004030000006465650300000000000010c0390000006d177737040000000000000005\
060000006f72646572730100000000000000030000000202000000000000000403000000626f62030000000000003440\
1b000000f4a796f5050000000000000006060000006f72646572730200000000000000";

/// The golden history, run through a journaled database.
fn write_golden_history(db: &Database) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("name", DataType::Text).not_null(),
        Column::new("amount", DataType::Float),
    ])
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    db.create_table("orders", schema).unwrap();
    db.insert("orders", vec![1.into(), "ana".into(), 1.5.into()])
        .unwrap();
    db.insert_many(
        "orders",
        vec![
            vec![2.into(), "bo".into(), Value::Null],
            vec![3.into(), "cy".into(), 3.25.into()],
            vec![4.into(), "dee".into(), (-4.0).into()],
        ],
    )
    .unwrap();
    db.write_table("orders", |t| {
        t.update(1, vec![2.into(), "bob".into(), 20.0.into()])
    })
    .unwrap();
    db.write_table("orders", |t| t.delete(2)).unwrap();
}

/// Every log written before a frame could carry a statement is a log of
/// one-record statements: it recovers unchanged, and the same history
/// written now is the same bytes.
#[test]
fn a_log_of_one_record_frames_from_before_recovers_unchanged() {
    let golden: Vec<u8> = (0..GOLDEN_LOG.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_LOG[i..i + 2], 16).unwrap())
        .collect();
    let base = std::env::temp_dir().join(format!("odbis-golden-{}", std::process::id()));
    let (old, new) = (base.join("old"), base.join("new"));
    std::fs::create_dir_all(&old).unwrap();
    std::fs::write(old.join("wal.log"), &golden).unwrap();
    let (db, store) = DurableStore::open(&old, FsyncPolicy::Never).unwrap();
    assert_eq!(store.wal().last_lsn(), 5);
    assert_eq!(
        db.scan("orders").unwrap(),
        vec![
            vec![1.into(), "ana".into(), 1.5.into()],
            vec![2.into(), "bob".into(), 20.0.into()],
            vec![4.into(), "dee".into(), (-4.0).into()],
        ]
    );
    let (entries, _) = read_wal(old.join("wal.log")).unwrap();
    assert!(entries.iter().all(|e| e.records.len() == 1));
    assert_eq!(std::fs::read(old.join("wal.log")).unwrap(), golden);

    let (live, store) = DurableStore::open(&new, FsyncPolicy::Never).unwrap();
    live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
    write_golden_history(&live);
    assert_eq!(live.scan("orders").unwrap(), db.scan("orders").unwrap());
    assert!(std::fs::read(new.join("wal.log")).unwrap() == golden);
    let _ = std::fs::remove_dir_all(&base);
}
