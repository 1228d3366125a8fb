//! Seeded property tests for the one binary encoding of a [`WalRecord`]
//! (`encode_record` / `decode_record`), the byte format of every WAL frame
//! payload.
//!
//! 1. **Round trip** — every variant, with pinned edge values and ~4 000
//!    seeded records, decodes bit-exactly (NaN payloads, `-0.0` and all),
//!    directly and through `Wal::append_batch` + `read_wal`.
//! 2. **Totality and bounds** — random bytes, every truncation and every
//!    single-byte flip of valid encodings decode to `Ok` or `Err`, never a
//!    panic, and no decode reserves more than its payload can hold: the
//!    largest single allocation is measured by a counting allocator.
//! 3. **Hostile counts** — a `u32::MAX` value, row, column or text length
//!    in a 20-byte payload is `Corrupt` before anything is reserved.
//!
//! The seed prints on start; rerun a failure with
//! `ODBIS_CHAOS_SEED=<seed> cargo test --test prop_walcodec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odbis_storage::{
    decode_record, encode_record, read_wal, Column, DataType, DbError, DbResult, FsyncPolicy,
    Schema, Value, Wal, WalRecord,
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
/// tag byte), plus a fixed floor for the schema JSON parser's nodes.
fn decode_bounded(bytes: &[u8], ctx: &str) -> DbResult<WalRecord> {
    PEAK.with(|p| p.set(0));
    let result = decode_record(bytes);
    let peak = PEAK.with(Cell::get);
    let cap = 4096.max(bytes.len() * std::mem::size_of::<Value>());
    assert!(
        peak <= cap,
        "{ctx}: {} bytes reserved {peak} at once",
        bytes.len()
    );
    result
}

fn encode(r: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&mut out, r);
    out
}

/// Bit- and type-exact equality: `Value`'s `==` compares floats with
/// `total_cmp` (so NaN payloads and `-0.0` count) but equates `Int(1)` with
/// `Float(1.0)`, which the `Debug` rendering tells apart.
fn same(a: &WalRecord, b: &WalRecord) -> bool {
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

// ---------------------------------------------------------- properties

#[test]
fn every_variant_round_trips_bit_exactly() {
    let seed = seed();
    eprintln!("prop_walcodec round trip seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let random = (0..4_000).map(|_| gen_record(&mut rng));
    for (case, r) in pinned_records().into_iter().chain(random).enumerate() {
        let ctx = format!("case {case} (seed {seed})");
        let back = decode_bounded(&encode(&r), &ctx).unwrap();
        assert!(same(&r, &back), "{ctx}: {r:?} -> {back:?}");
    }
}

/// The log is the codec plus framing: the pinned records survive
/// `append_batch` + `read_wal` with consecutive LSNs.
#[test]
fn pinned_records_round_trip_through_the_log() {
    let dir = std::env::temp_dir().join(format!("odbis-propwal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let _ = std::fs::remove_file(&path);
    let pinned = pinned_records();
    Wal::open(&path, FsyncPolicy::Never, 1)
        .unwrap()
        .append_batch(&pinned)
        .unwrap();
    let (entries, valid) = read_wal(&path).unwrap();
    assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
    assert_eq!(entries.len(), pinned.len());
    for (i, (e, r)) in entries.iter().zip(&pinned).enumerate() {
        assert_eq!(e.lsn, i as u64 + 1);
        assert!(same(&e.record, r), "{:?} != {r:?}", e.record);
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

/// Every proper prefix of a valid encoding is an error (the format is
/// prefix-free), and every single-byte flip decodes to `Ok` or `Err`. An
/// `Ok` is canonical: it re-encodes to exactly the flipped bytes (the
/// schema JSON of `CreateTable` only has to round-trip again).
#[test]
fn truncations_and_byte_flips_never_panic_or_over_reserve() {
    let seed = seed();
    eprintln!("prop_walcodec mutations seed={seed} (rerun: ODBIS_CHAOS_SEED={seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let random = (0..150).map(|_| gen_record(&mut rng));
    for (case, r) in pinned_records().into_iter().chain(random).enumerate() {
        let bytes = encode(&r);
        for cut in 0..bytes.len() {
            let ctx = format!("case {case} cut {cut} (seed {seed})");
            assert!(decode_bounded(&bytes[..cut], &ctx).is_err(), "{ctx}");
        }
        for (at, mask) in (0..bytes.len()).flat_map(|at| [(at, 0x01), (at, 0x80), (at, 0xFF)]) {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            let ctx = format!("case {case} flip {at}^{mask:#x} (seed {seed})");
            let Ok(back) = decode_bounded(&flipped, &ctx) else {
                continue;
            };
            if matches!(back, WalRecord::CreateTable { .. }) {
                assert!(
                    same(&back, &decode_record(&encode(&back)).unwrap()),
                    "{ctx}"
                );
            } else {
                assert_eq!(encode(&back), flipped, "{ctx}: not canonical");
            }
        }
    }
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
    let update = encode(&WalRecord::Update {
        table: "t".into(),
        id: 7,
        row: edge_values(),
    });
    for op in [0u8, 7, 11, 255] {
        let mut bytes = update.clone();
        bytes[0] = op;
        match decode_bounded(&bytes, "unassigned op") {
            Err(DbError::Corrupt(m)) => assert_eq!(m, format!("unknown wal op {op}")),
            other => panic!("op {op}: {other:?}"),
        }
    }
}
