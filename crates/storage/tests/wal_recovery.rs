//! Crash-recovery torture tests for the WAL + checkpoint durability layer.
//!
//! The central invariant: recovery yields *exactly the committed prefix* of
//! the history — every fully-appended record is replayed, nothing after a
//! torn byte is, and the recovered database is indistinguishable (rows,
//! row ids, indexes) from a live database that executed the same prefix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odbis_storage::wal::crc32;
use odbis_storage::{
    encode_record, read_wal, Column, DataType, Database, DbError, DurableStore, FsyncPolicy,
    Schema, Value, WalRecord, WalSink,
};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "odbis-walrec-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Honors the same env knob the CI durability job sets, so the whole suite
/// runs under `fsync=always` there and the fast default elsewhere.
fn policy() -> FsyncPolicy {
    std::env::var("ODBIS_DURABILITY_FSYNC")
        .map(|v| FsyncPolicy::parse(&v))
        .unwrap_or(FsyncPolicy::Never)
}

fn orders_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("region", DataType::Text).not_null(),
        Column::new("amount", DataType::Float),
    ])
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap()
}

/// Run a representative mutation history against `db`. Returns after each
/// step has been journaled (the db must already have a sink attached).
fn run_history(db: &Database) {
    db.create_table("orders", orders_schema()).unwrap();
    for i in 0..5i64 {
        db.insert(
            "orders",
            vec![
                i.into(),
                if i % 2 == 0 { "eu" } else { "us" }.into(),
                (i as f64 * 1.5).into(),
            ],
        )
        .unwrap();
    }
    db.write_table("orders", |t| {
        t.create_index("ix_region", &["region"], false)
    })
    .unwrap();
    db.write_table("orders", |t| {
        t.update(1, vec![1.into(), "apac".into(), 99.0.into()])
    })
    .unwrap();
    db.write_table("orders", |t| t.delete(3)).unwrap();
}

/// Assert two databases hold identical state for `table`: same live rows at
/// the same row ids, same indexes with the same keyed entries.
fn assert_same_table(a: &Database, b: &Database, table: &str) {
    assert_eq!(a.scan(table).unwrap(), b.scan(table).unwrap());
    a.read_table(table, |ta| {
        b.read_table(table, |tb| {
            assert_eq!(ta.row_count(), tb.row_count());
            assert_eq!(ta.indexes().len(), tb.indexes().len(), "index count");
            for ix in ta.indexes() {
                let other = tb.index(&ix.name).expect("index present after recovery");
                assert_eq!(ix.columns, other.columns, "index {} columns", ix.name);
                assert_eq!(ix.unique, other.unique, "index {} uniqueness", ix.name);
                assert_eq!(
                    ix.distinct_keys(),
                    other.distinct_keys(),
                    "index {} keys",
                    ix.name
                );
                assert_eq!(
                    ix.ordered_ids(),
                    other.ordered_ids(),
                    "index {} ids",
                    ix.name
                );
            }
            // row ids must be stable, not just row contents
            let ids_a: Vec<_> = ta.scan().map(|(id, _)| id).collect();
            let ids_b: Vec<_> = tb.scan().map(|(id, _)| id).collect();
            assert_eq!(ids_a, ids_b, "row ids");
        })
        .unwrap();
    })
    .unwrap();
}

/// Build a reference database by replaying the first `keep` committed
/// records live (no journaling), for differential comparison.
fn reference_for_prefix(entries: &[odbis_storage::WalEntry], keep: usize) -> Database {
    let db = Database::new();
    for entry in entries.iter().take(keep) {
        odbis_storage::replay_record(&db, &entry.record).unwrap();
    }
    db
}

// ---------------------------------------------------------------- torture

/// Kill-point torture: truncate the log at *every byte length* from zero
/// through the full file and recover each time. Recovery must never error,
/// and must yield exactly the committed frame prefix for that length.
#[test]
fn recovery_at_every_byte_boundary_yields_committed_prefix() {
    let dir = tmp_dir("torture");
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&db);
    }
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let (entries, valid_len) = read_wal(&wal_path).unwrap();
    assert_eq!(valid_len, full.len() as u64, "log fully committed");
    assert!(
        entries.len() >= 8,
        "history produced {} frames",
        entries.len()
    );

    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        // frames committed within the first `cut` bytes
        let committed = entries
            .iter()
            .filter(|e| e.end_offset <= cut as u64)
            .count();
        let (db, _) = DurableStore::open(&dir, policy())
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let reference = reference_for_prefix(&entries, committed);
        if committed == 0 {
            assert!(db.table_names().is_empty(), "cut {cut}: no tables yet");
            continue;
        }
        assert_eq!(
            db.table_names(),
            reference.table_names(),
            "cut {cut}: table set"
        );
        for t in db.table_names() {
            assert_same_table(&db, &reference, &t);
        }
        // recovery must also have truncated the torn tail to a frame boundary
        let after = std::fs::metadata(&wal_path).unwrap().len();
        let boundary = entries
            .iter()
            .map(|e| e.end_offset)
            .filter(|&o| o <= cut as u64)
            .max()
            .unwrap_or(0);
        assert_eq!(after, boundary, "cut {cut}: torn tail repaired");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered store must accept new writes after tail repair: append after
/// a torn-tail recovery and reopen once more.
#[test]
fn recovery_after_torn_tail_accepts_new_writes() {
    let dir = tmp_dir("torn-append");
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.create_table("orders", orders_schema()).unwrap();
        db.insert("orders", vec![1.into(), "eu".into(), 10.0.into()])
            .unwrap();
        db.insert("orders", vec![2.into(), "us".into(), 20.0.into()])
            .unwrap();
    }
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    // tear the final frame in half
    std::fs::write(&wal_path, &full[..full.len() - 7]).unwrap();
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        assert_eq!(db.row_count("orders").unwrap(), 1); // torn insert lost
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.insert("orders", vec![3.into(), "apac".into(), 30.0.into()])
            .unwrap();
    }
    let (db, _) = DurableStore::open(&dir, policy()).unwrap();
    assert_eq!(db.row_count("orders").unwrap(), 2);
    db.read_table("orders", |t| {
        assert!(t.index("pk_orders").unwrap().lookup(&[3.into()]).len() == 1);
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ differential

/// Differential: a recovered database equals the live one that wrote the
/// history, in all three persistence regimes.
///
/// Every test here that checkpoints holds `odbis_chaos::exclusive()`:
/// `failed_manifest_swap_rolls_back_to_previous_checkpoint` arms
/// `manifest.rename` process-wide, and a sibling checkpoint running while
/// it is armed fails.
#[test]
fn recovered_database_matches_live_across_regimes() {
    let _x = odbis_chaos::exclusive();
    // regime 1: WAL only (no checkpoint ever taken)
    {
        let dir = tmp_dir("diff-wal");
        let (live, store) = DurableStore::open(&dir, policy()).unwrap();
        live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&live);
        let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
        assert_same_table(&live, &recovered, "orders");
        let _ = std::fs::remove_dir_all(&dir);
    }
    // regime 2: segments only (checkpoint taken, log empty afterwards)
    {
        let dir = tmp_dir("diff-snap");
        let (live, store) = DurableStore::open(&dir, policy()).unwrap();
        live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&live);
        let report = store.checkpoint(&live).unwrap();
        assert_eq!(report.tables, 1);
        assert!(report.wal_bytes_folded > 0);
        assert_eq!(store.wal().stats().file_len, 0);
        let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
        assert_same_table(&live, &recovered, "orders");
        let _ = std::fs::remove_dir_all(&dir);
    }
    // regime 3: segments + trailing WAL records
    {
        let dir = tmp_dir("diff-both");
        let (live, store) = DurableStore::open(&dir, policy()).unwrap();
        live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&live);
        store.checkpoint(&live).unwrap();
        live.insert("orders", vec![10.into(), "eu".into(), 1.0.into()])
            .unwrap();
        live.write_table("orders", |t| t.delete(0)).unwrap();
        live.write_table("orders", |t| {
            t.update(2, vec![2.into(), "latam".into(), 7.5.into()])
        })
        .unwrap();
        let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
        assert_same_table(&live, &recovered, "orders");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// DDL (drop table / drop index) must recover too, and a second checkpoint
/// after the drop must not resurrect anything.
#[test]
fn ddl_history_recovers_and_checkpoints() {
    let _x = odbis_chaos::exclusive();
    let dir = tmp_dir("ddl");
    let (live, store) = DurableStore::open(&dir, policy()).unwrap();
    live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
    run_history(&live);
    live.create_table(
        "tmp",
        Schema::new(vec![Column::new("x", DataType::Int)]).unwrap(),
    )
    .unwrap();
    live.insert("tmp", vec![Value::Int(1)]).unwrap();
    live.drop_table("tmp").unwrap();
    live.write_table("orders", |t| t.drop_index("ix_region"))
        .unwrap();
    let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
    assert_eq!(recovered.table_names(), vec!["orders".to_string()]);
    recovered
        .read_table("orders", |t| assert!(t.index("ix_region").is_none()))
        .unwrap();
    store.checkpoint(&live).unwrap();
    let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
    assert_eq!(recovered.table_names(), vec!["orders".to_string()]);
    assert_same_table(&live, &recovered, "orders");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash that kills the manifest swap leaves the *previous* manifest and
/// its segments intact; the WAL tail replays the rest. The swap really is
/// the single commit point.
#[test]
fn failed_manifest_swap_rolls_back_to_previous_checkpoint() {
    let _x = odbis_chaos::exclusive();
    odbis_chaos::clear();
    let dir = tmp_dir("maniswap");
    let (live, store) = DurableStore::open(&dir, policy()).unwrap();
    live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
    run_history(&live);
    store.checkpoint(&live).unwrap();
    live.insert("orders", vec![30.into(), "us".into(), 9.0.into()])
        .unwrap();
    odbis_chaos::apply_spec("manifest.rename=return-err").unwrap();
    assert!(store.checkpoint(&live).is_err(), "swap must fail");
    odbis_chaos::clear();
    // crash here: the old manifest + segments + un-truncated WAL remain
    let (recovered, _) = DurableStore::open(&dir, policy()).unwrap();
    assert_same_table(&live, &recovered, "orders");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk corruption inside a committed segment must surface as `Corrupt` at
/// recovery — never as silently wrong data.
#[test]
fn corrupted_segment_is_detected_at_recovery() {
    let _x = odbis_chaos::exclusive();
    let dir = tmp_dir("segcorrupt");
    {
        let (live, store) = DurableStore::open(&dir, policy()).unwrap();
        live.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&live);
        store.checkpoint(&live).unwrap();
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .find(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .expect("segment file present after checkpoint")
        .path();
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    match DurableStore::open(&dir, policy()) {
        Err(DbError::Corrupt(m)) => {
            assert!(m.contains("crc") || m.contains("segment"), "message: {m}")
        }
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("flipped byte in a segment must not recover cleanly"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// LSNs stay strictly increasing across checkpoints and reopens, so a
/// resurrected pre-checkpoint log can never alias a post-checkpoint record.
#[test]
fn lsns_monotonic_across_checkpoint_and_reopen() {
    let _x = odbis_chaos::exclusive();
    let dir = tmp_dir("lsn");
    let last = {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        db.create_table("orders", orders_schema()).unwrap();
        db.insert("orders", vec![1.into(), "eu".into(), 1.0.into()])
            .unwrap();
        store.checkpoint(&db).unwrap();
        db.insert("orders", vec![2.into(), "us".into(), 2.0.into()])
            .unwrap();
        store.wal().last_lsn()
    };
    let (db, store) = DurableStore::open(&dir, policy()).unwrap();
    db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
    db.insert("orders", vec![3.into(), "eu".into(), 3.0.into()])
        .unwrap();
    let (entries, _) = read_wal(dir.join("wal.log")).unwrap();
    let lsns: Vec<u64> = entries.iter().map(|e| e.lsn).collect();
    assert!(
        lsns.windows(2).all(|w| w[0] < w[1]),
        "lsns sorted: {lsns:?}"
    );
    assert!(lsns.last().copied().unwrap() > last);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ refuse, don't truncate

/// Every file in `dir` with its bytes, sorted by name.
fn dir_image(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// `open` must fail with `Corrupt` naming `needle`, leaving every file
/// byte-identical.
fn assert_refused(dir: &std::path::Path, needle: &str) {
    let before = dir_image(dir);
    match DurableStore::open(dir, policy()) {
        Err(DbError::Corrupt(m)) => {
            assert!(m.contains(needle), "message must name {needle}: {m}");
            assert!(
                m.contains("a759f95"),
                "message must say how to upgrade: {m}"
            );
        }
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("open must refuse, not recover"),
    }
    assert!(dir_image(dir) == before, "a refused open changed a file");
}

/// One `[len][crc][lsn][payload]` frame with a CRC that verifies.
fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = lsn.to_le_bytes().to_vec();
    body.extend_from_slice(payload);
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// A frame whose CRC verifies but whose payload does not decode is damage
/// or a JSON-era log, not a torn tail: recovery refuses it by LSN instead
/// of truncating it and every committed frame after it.
#[test]
fn crc_valid_frame_that_does_not_decode_is_refused_not_truncated() {
    let payload = |r: WalRecord| {
        let mut out = Vec::new();
        encode_record(&mut out, &r);
        out
    };
    let create = payload(WalRecord::CreateTable {
        name: "orders".into(),
        schema: orders_schema(),
    });
    let insert = payload(WalRecord::Insert {
        table: "orders".into(),
        row: vec![1.into(), "eu".into(), 1.0.into()],
    });
    let json_era = br#"{"op":"insert","table":"orders","row":[1,"eu",{"f":1.0}]}"#;
    for (case, log, needle) in [
        (
            "garbage",
            [frame(1, &create), frame(2, &[0xEE; 24]), frame(3, &insert)].concat(),
            "lsn 2",
        ),
        (
            "json-era",
            [frame(1, json_era), frame(2, &insert)].concat(),
            "lsn 1",
        ),
    ] {
        let dir = tmp_dir(case);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), log).unwrap();
        assert_refused(&dir, needle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `snapshot.json` — the JSON-era checkpoint — is refused by name, even
/// beside a valid segment checkpoint, and nothing is read past it.
#[test]
fn snapshot_json_is_refused_by_name() {
    let _x = odbis_chaos::exclusive();
    let dir = tmp_dir("snapshot-json");
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        run_history(&db);
        store.checkpoint(&db).unwrap();
        db.insert("orders", vec![9.into(), "eu".into(), 9.0.into()])
            .unwrap();
    }
    std::fs::write(
        dir.join("snapshot.json"),
        r#"{"version":1,"last_lsn":0,"tables":[]}"#,
    )
    .unwrap();
    assert_refused(&dir, "snapshot.json");
    let _ = std::fs::remove_dir_all(&dir);
}
