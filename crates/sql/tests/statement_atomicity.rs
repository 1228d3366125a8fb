//! A SQL DML statement is one storage statement: it applies every row and
//! journals them with one WAL append, or it leaves the table and the log as
//! they were — when a constraint fails part-way, when the log refuses the
//! append, and when the process dies in the middle of writing the frame.
//!
//! The crash case honours `ODBIS_DURABILITY_FSYNC` like the storage
//! recovery suite, so it also runs under `fsync=always`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use odbis_sql::{Engine, SqlError};
use odbis_storage::{
    read_wal, Database, DbError, DbResult, DurableStore, FsyncPolicy, Value, WalRecord, WalSink,
};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "odbis-stmt-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn policy() -> FsyncPolicy {
    std::env::var("ODBIS_DURABILITY_FSYNC")
        .map(|v| FsyncPolicy::parse(&v))
        .unwrap_or(FsyncPolicy::Never)
}

/// A log that accepts every record except those `refuses` picks out, which
/// fail the whole append like a full disk.
struct PickySink {
    refuses: fn(&WalRecord) -> bool,
    accepted: Mutex<Vec<WalRecord>>,
}

impl PickySink {
    fn attach(db: &Database, refuses: fn(&WalRecord) -> bool) -> Arc<PickySink> {
        let sink = Arc::new(PickySink {
            refuses,
            accepted: Mutex::new(Vec::new()),
        });
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        sink
    }
}

impl WalSink for PickySink {
    fn append(&self, records: &[WalRecord]) -> DbResult<()> {
        if records.iter().any(self.refuses) {
            return Err(DbError::Io("disk full".into()));
        }
        self.accepted
            .lock()
            .expect("sink lock")
            .extend_from_slice(records);
        Ok(())
    }
}

fn int(e: &Engine, db: &Database, sql: &str) -> Value {
    e.execute(db, sql).unwrap().rows[0][0].clone()
}

#[test]
fn insert_refused_by_the_log_leaves_no_row() {
    let (db, e) = (Database::new(), Engine::new());
    let sink = PickySink::attach(&db, |r| {
        matches!(r, WalRecord::Insert { .. } | WalRecord::InsertMany { .. })
    });
    e.execute(&db, "CREATE TABLE t (id INT PRIMARY KEY, k INT)")
        .unwrap();
    let err = e
        .execute(&db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap_err();
    assert!(matches!(err, SqlError::Storage(DbError::Io(_))), "{err:?}");
    assert_eq!(db.row_count("t").unwrap(), 0);
    assert_eq!(int(&e, &db, "SELECT COUNT(*) FROM t"), Value::Int(0));
    assert_eq!(sink.accepted.lock().unwrap().len(), 1, "only CREATE TABLE");
}

#[test]
fn update_refused_by_the_log_keeps_the_old_value() {
    let (db, e) = (Database::new(), Engine::new());
    let sink = PickySink::attach(&db, |r| matches!(r, WalRecord::Update { .. }));
    e.execute_script(
        &db,
        "CREATE TABLE t (id INT PRIMARY KEY, k INT);
         INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);",
    )
    .unwrap();
    let accepted = sink.accepted.lock().unwrap().len();
    assert!(e
        .execute(&db, "UPDATE t SET k = k + 1 WHERE id = 1")
        .is_err());
    assert!(e.execute(&db, "UPDATE t SET k = k * 2").is_err());
    let r = e.execute(&db, "SELECT k FROM t ORDER BY id").unwrap();
    assert_eq!(
        r.rows,
        [10, 20, 30].map(|k| vec![Value::Int(k)]).to_vec(),
        "refused updates undone"
    );
    assert_eq!(sink.accepted.lock().unwrap().len(), accepted);
}

/// `k + 1` moves row 1 to 11, then collides row 2 (21) with row 3: the
/// statement fails, and row 1's update must be gone from memory, from the
/// log and from what a reopen recovers.
#[test]
fn update_failing_part_way_leaves_no_prefix_in_memory_or_the_log() {
    let dir = tmp_dir("update-prefix");
    let e = Engine::new();
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        e.execute_script(
            &db,
            "CREATE TABLE t (id INT PRIMARY KEY, k INT);
             CREATE UNIQUE INDEX t_k ON t (k);
             INSERT INTO t VALUES (1, 10), (2, 20), (3, 21);",
        )
        .unwrap();
        let err = e.execute(&db, "UPDATE t SET k = k + 1").unwrap_err();
        assert!(
            matches!(err, SqlError::Storage(DbError::UniqueViolation { .. })),
            "{err:?}"
        );
        assert_eq!(int(&e, &db, "SELECT k FROM t WHERE id = 1"), Value::Int(10));
        // the unique index still finds every old key, and only those
        assert_eq!(int(&e, &db, "SELECT id FROM t WHERE k = 21"), Value::Int(3));
        assert!(e
            .execute(&db, "SELECT id FROM t WHERE k = 11")
            .unwrap()
            .rows
            .is_empty());
        let (entries, _) = read_wal(dir.join("wal.log")).unwrap();
        assert!(
            entries
                .iter()
                .all(|en| !matches!(en.record, WalRecord::Update { .. })),
            "no Update frame journaled"
        );
    }
    let (db, _store) = DurableStore::open(&dir, policy()).unwrap();
    assert_eq!(int(&e, &db, "SELECT k FROM t WHERE id = 1"), Value::Int(10));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-point: commit one row, then one 100-row INSERT, and cut `wal.log`
/// at every byte offset from the end of the first row's frame on. Each
/// reopen recovers exactly 1 or 101 rows: the INSERT is one frame.
#[test]
fn insert_is_atomic_under_a_crash_at_any_byte_offset() {
    let dir = tmp_dir("insert-cut");
    let e = Engine::new();
    {
        let (db, store) = DurableStore::open(&dir, policy()).unwrap();
        db.set_wal_sink(Arc::clone(store.wal()) as Arc<dyn WalSink>);
        e.execute(&db, "CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
            .unwrap();
        e.execute(&db, "INSERT INTO t VALUES (0, 'first')").unwrap();
        let values: Vec<String> = (1..=100).map(|i| format!("({i}, 'n{i}')")).collect();
        let r = e
            .execute(&db, &format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        assert_eq!(r.rows_affected, 100);
        assert_eq!(store.wal().stats().appends, 3, "create, row, statement");
    }
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    let (entries, _) = read_wal(&wal_path).unwrap();
    assert!(matches!(
        entries.last().map(|en| &en.record),
        Some(WalRecord::InsertMany { rows, .. }) if rows.len() == 100
    ));
    let first_row_end = entries[1].end_offset as usize;
    for cut in first_row_end..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (db, _store) = DurableStore::open(&dir, policy())
            .unwrap_or_else(|err| panic!("recovery failed at cut {cut}: {err}"));
        let want = if cut == full.len() { 101 } else { 1 };
        assert_eq!(
            int(&e, &db, "SELECT COUNT(*) FROM t"),
            Value::Int(want),
            "cut {cut} of {}",
            full.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
