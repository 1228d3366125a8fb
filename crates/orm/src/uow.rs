//! Unit of Work: batch entity changes and flush them atomically, as one
//! storage statement over every table they touch.

use std::sync::Arc;

use odbis_storage::{Database, Table, Value};

use crate::error::{OrmError, OrmResult};
use crate::meta::Entity;
use crate::repository::row_id;

/// Pending change kinds; inserts and updates carry the new row.
#[derive(Debug)]
enum ChangeKind {
    Insert(Vec<Value>),
    Update(Vec<Value>),
    Delete,
}

#[derive(Debug)]
struct Change {
    table: String,
    kind: ChangeKind,
    id: Value,
    id_index: usize,
}

impl Change {
    /// Apply the change to its (write-locked) table, resolving the
    /// entity's row id by primary key first.
    fn apply(self, t: &mut Table) -> OrmResult<()> {
        match (self.kind, row_id(t, self.id_index, &self.id)) {
            (ChangeKind::Insert(_), Some(_)) => Err(OrmError::Conflict(format!(
                "insert of existing id {} into {}",
                self.id.render(),
                self.table
            ))),
            (ChangeKind::Insert(row), None) => Ok(t.insert(row).map(drop)?),
            (ChangeKind::Update(row), Some(rid)) => Ok(t.update(rid, row)?),
            (ChangeKind::Delete, Some(rid)) => Ok(t.delete(rid)?),
            (ChangeKind::Update(_) | ChangeKind::Delete, None) => Err(OrmError::NotFound {
                entity: self.table,
                id: self.id.render(),
            }),
        }
    }
}

/// A unit of work (JPA `EntityManager` flush semantics): register new,
/// dirty and removed entities, then [`UnitOfWork::commit`] applies all of
/// them as one storage statement — either everything lands, journaled with
/// one WAL append, or nothing does and no reader ever saw any of it.
#[derive(Debug)]
pub struct UnitOfWork {
    db: Arc<Database>,
    changes: Vec<Change>,
}

impl UnitOfWork {
    /// Start an empty unit of work.
    pub fn new(db: Arc<Database>) -> Self {
        UnitOfWork {
            db,
            changes: Vec::new(),
        }
    }

    /// Number of pending changes.
    pub fn pending(&self) -> usize {
        self.changes.len()
    }

    fn register<E: Entity>(&mut self, entity: &E, kind: ChangeKind) {
        let meta = E::meta();
        self.changes.push(Change {
            table: meta.table.clone(),
            kind,
            id: entity.id_value(),
            id_index: meta.id_index(),
        });
    }

    /// Register a new entity for insertion.
    pub fn register_new<E: Entity>(&mut self, entity: &E) {
        self.register(entity, ChangeKind::Insert(entity.to_row()));
    }

    /// Register an existing entity whose state changed.
    pub fn register_dirty<E: Entity>(&mut self, entity: &E) {
        self.register(entity, ChangeKind::Update(entity.to_row()));
    }

    /// Register an entity for removal.
    pub fn register_removed<E: Entity>(&mut self, entity: &E) {
        self.register(entity, ChangeKind::Delete);
    }

    /// Apply all pending changes in registration order as one storage
    /// statement over every table they touch ([`Database::write_tables`]):
    /// each entity's row id is resolved under the statement's locks, and
    /// the changes are journaled with one WAL append. On any failure
    /// nothing is applied, journaled or visible to a reader, and the error
    /// is returned; the unit of work is left empty either way.
    pub fn commit(self) -> OrmResult<usize> {
        let changes = self.changes;
        let n = changes.len();
        let mut touched: Vec<String> = Vec::new();
        for ch in &changes {
            if !touched.iter().any(|t| t.eq_ignore_ascii_case(&ch.table)) {
                touched.push(ch.table.clone());
            }
        }
        let names: Vec<&str> = touched.iter().map(String::as_str).collect();
        self.db.write_tables(&names, |tables| {
            for ch in changes {
                let t = tables
                    .iter_mut()
                    .find(|t| t.name.eq_ignore_ascii_case(&ch.table))
                    .expect("every table of the unit is locked");
                ch.apply(t)?;
            }
            Ok(n)
        })
    }

    /// Discard all pending changes.
    pub fn clear(&mut self) {
        self.changes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::EntityMeta;
    use crate::repository::Repository;
    use odbis_storage::{DataType, DbResult, WalRecord, WalSink};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    #[derive(Debug, Clone, PartialEq)]
    struct Item {
        id: i64,
        label: String,
    }

    impl Entity for Item {
        fn meta() -> EntityMeta {
            EntityMeta::new("Item", "uow_items")
                .id_field("id")
                .required_field("label", DataType::Text)
        }
        fn to_row(&self) -> Vec<Value> {
            vec![Value::Int(self.id), Value::Text(self.label.clone())]
        }
        fn from_row(row: &[Value]) -> OrmResult<Self> {
            Ok(Item {
                id: row[0].as_i64().unwrap_or_default(),
                label: row[1].as_str().unwrap_or_default().to_string(),
            })
        }
    }

    /// A second entity on its own table.
    #[derive(Debug, Clone, PartialEq)]
    struct Tag {
        id: i64,
    }

    impl Entity for Tag {
        fn meta() -> EntityMeta {
            EntityMeta::new("Tag", "uow_tags").id_field("id")
        }
        fn to_row(&self) -> Vec<Value> {
            vec![Value::Int(self.id)]
        }
        fn from_row(row: &[Value]) -> OrmResult<Self> {
            Ok(Tag {
                id: row[0].as_i64().unwrap_or_default(),
            })
        }
    }

    fn setup() -> (Arc<Database>, Repository<Item>) {
        let db = Arc::new(Database::new());
        let repo = Repository::new(Arc::clone(&db)).unwrap();
        (db, repo)
    }

    /// Keeps every `append` call's records, one entry per call.
    #[derive(Default)]
    struct CaptureSink(Mutex<Vec<Vec<WalRecord>>>);

    impl WalSink for CaptureSink {
        fn append(&self, records: &[WalRecord]) -> DbResult<()> {
            self.0.lock().unwrap().push(records.to_vec());
            Ok(())
        }
    }

    fn capture(db: &Database) -> Arc<CaptureSink> {
        let sink = Arc::new(CaptureSink::default());
        db.set_wal_sink(Arc::clone(&sink) as Arc<dyn WalSink>);
        sink
    }

    #[test]
    fn unit_over_two_tables_is_one_append() {
        let (db, items) = setup();
        let tags: Repository<Tag> = Repository::new(Arc::clone(&db)).unwrap();
        items
            .insert(&Item {
                id: 1,
                label: "old".into(),
            })
            .unwrap();
        let sink = capture(&db);
        let mut uow = UnitOfWork::new(Arc::clone(&db));
        uow.register_new(&Tag { id: 7 });
        uow.register_dirty(&Item {
            id: 1,
            label: "new".into(),
        });
        uow.register_new(&Tag { id: 8 });
        assert_eq!(uow.commit().unwrap(), 3);
        let appends = sink.0.lock().unwrap();
        assert_eq!(appends.len(), 1, "one append for the whole unit");
        assert_eq!(appends[0].len(), 2, "the tag inserts coalesce: {appends:?}");
        assert_eq!(tags.count().unwrap(), 2);
        assert_eq!(items.get(1i64).unwrap().label, "new");
    }

    /// A unit whose last change fails journals nothing, and its first
    /// change is never visible: not to a reader polling while units run,
    /// not to a scan afterwards. (Applying each change as its own statement
    /// and compensating on failure journals the insert and then a delete,
    /// and shows the insert to a reader in between.)
    #[test]
    fn failed_unit_journals_nothing_and_is_never_visible() {
        let (db, repo) = setup();
        let keep = Item {
            id: 1,
            label: "keep".into(),
        };
        repo.insert(&keep).unwrap();
        let sink = capture(&db);
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (db, done) = (Arc::clone(&db), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut glimpses = 0;
                while !done.load(Ordering::Relaxed) {
                    glimpses += usize::from(db.row_count("uow_items").unwrap() != 1);
                }
                glimpses
            })
        };
        for i in 0..200 {
            let mut uow = UnitOfWork::new(Arc::clone(&db));
            uow.register_new(&Item {
                id: 2,
                label: format!("attempt {i}"),
            });
            uow.register_dirty(&Item {
                id: 99,
                label: "missing".into(),
            });
            assert!(matches!(uow.commit(), Err(OrmError::NotFound { .. })));
        }
        done.store(true, Ordering::Relaxed);
        assert_eq!(reader.join().unwrap(), 0, "a reader saw a failed unit");
        assert_eq!(*sink.0.lock().unwrap(), Vec::<Vec<WalRecord>>::new());
        assert_eq!(repo.find_all().unwrap(), vec![keep]);
    }

    #[test]
    fn commit_applies_everything_in_order() {
        let (db, repo) = setup();
        repo.insert(&Item {
            id: 1,
            label: "old".into(),
        })
        .unwrap();
        let mut uow = UnitOfWork::new(Arc::clone(&db));
        uow.register_new(&Item {
            id: 2,
            label: "new".into(),
        });
        uow.register_dirty(&Item {
            id: 1,
            label: "updated".into(),
        });
        assert_eq!(uow.pending(), 2);
        assert_eq!(uow.commit().unwrap(), 2);
        assert_eq!(repo.get(1i64).unwrap().label, "updated");
        assert_eq!(repo.count().unwrap(), 2);
    }

    #[test]
    fn failed_commit_rolls_back_all_changes() {
        let (db, repo) = setup();
        repo.insert(&Item {
            id: 1,
            label: "keep".into(),
        })
        .unwrap();
        let mut uow = UnitOfWork::new(db);
        uow.register_new(&Item {
            id: 2,
            label: "will be rolled back".into(),
        });
        // update of a missing entity fails the whole unit
        uow.register_dirty(&Item {
            id: 99,
            label: "nope".into(),
        });
        let err = uow.commit().unwrap_err();
        assert!(matches!(err, OrmError::NotFound { .. }));
        assert_eq!(repo.count().unwrap(), 1);
        assert_eq!(repo.get(1i64).unwrap().label, "keep");
    }

    #[test]
    fn duplicate_insert_conflicts_and_rolls_back() {
        let (db, repo) = setup();
        repo.insert(&Item {
            id: 1,
            label: "x".into(),
        })
        .unwrap();
        let mut uow = UnitOfWork::new(db);
        uow.register_removed(&Item {
            id: 1,
            label: "x".into(),
        });
        uow.register_new(&Item {
            id: 1,
            label: "x2".into(),
        });
        // delete then re-insert same id works (order preserved)
        uow.commit().unwrap();
        assert_eq!(repo.get(1i64).unwrap().label, "x2");
    }

    #[test]
    fn clear_discards() {
        let (db, repo) = setup();
        let mut uow = UnitOfWork::new(db);
        uow.register_new(&Item {
            id: 5,
            label: "z".into(),
        });
        uow.clear();
        assert_eq!(uow.pending(), 0);
        assert_eq!(uow.commit().unwrap(), 0);
        assert_eq!(repo.count().unwrap(), 0);
    }
}
