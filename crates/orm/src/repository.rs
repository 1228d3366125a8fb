//! The repository: typed CRUD over one entity type.

use std::marker::PhantomData;
use std::sync::Arc;

use odbis_sql::Engine;
use odbis_storage::{Database, DbError, RowId, Table, Value};

use crate::error::{OrmError, OrmResult};
use crate::meta::{Entity, EntityMeta};

/// The row holding the entity whose id column (position `id_index`) is
/// `id`: through the table's primary-key index, or a scan when it has
/// none. Called inside the statement or read that uses the row id, so the
/// id cannot move between the lookup and its use.
pub(crate) fn row_id(t: &Table, id_index: usize, id: &Value) -> Option<RowId> {
    match t.index(&format!("pk_{}", t.name)) {
        Some(pk) => pk.lookup(std::slice::from_ref(id)).first().copied(),
        None => t
            .scan()
            .find(|(_, row)| row[id_index] == *id)
            .map(|(rid, _)| rid),
    }
}

/// Data-access object for one entity type — the `JpaRepository` analogue in
/// the paper's data-access layer (Figure 4).
#[derive(Debug, Clone)]
pub struct Repository<E: Entity> {
    db: Arc<Database>,
    engine: Engine,
    meta: EntityMeta,
    _marker: PhantomData<E>,
}

impl<E: Entity> Repository<E> {
    /// Create a repository, creating the backing table if needed
    /// (schema-from-metadata, like `hbm2ddl auto`).
    pub fn new(db: Arc<Database>) -> OrmResult<Self> {
        let meta = E::meta();
        let schema = meta.derive_schema()?;
        if !db.has_table(&meta.table) {
            db.create_table(&meta.table, schema)?;
        }
        Ok(Repository {
            db,
            engine: Engine::new(),
            meta,
            _marker: PhantomData,
        })
    }

    /// The entity metadata this repository maps.
    pub fn meta(&self) -> &EntityMeta {
        &self.meta
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Map a storage error of a write of `id`: a duplicate key is a
    /// [`OrmError::Conflict`].
    fn write_err(&self, e: DbError, id: &Value) -> OrmError {
        match e {
            DbError::UniqueViolation { .. } => OrmError::Conflict(format!(
                "{} id {} already exists",
                self.meta.entity,
                id.render()
            )),
            other => OrmError::Storage(other),
        }
    }

    /// Persist a new entity. Fails with [`OrmError::Conflict`] if the id is
    /// taken.
    pub fn insert(&self, entity: &E) -> OrmResult<()> {
        self.db
            .insert(&self.meta.table, entity.to_row())
            .map_err(|e| self.write_err(e, &entity.id_value()))?;
        Ok(())
    }

    /// Insert or update by id (JPA `merge`/`save` semantics), as one
    /// statement: the id is resolved under the same lock that writes it.
    pub fn save(&self, entity: &E) -> OrmResult<()> {
        let id = entity.id_value();
        let idx = self.meta.id_index();
        self.db
            .write_table(&self.meta.table, |t| match row_id(t, idx, &id) {
                Some(rid) => t.update(rid, entity.to_row()),
                None => t.insert(entity.to_row()).map(drop),
            })
            .map_err(|e| self.write_err(e, &id))
    }

    /// Load an entity by id.
    pub fn find(&self, id: impl Into<Value>) -> OrmResult<Option<E>> {
        let id = id.into();
        let idx = self.meta.id_index();
        let row = self.db.read_table(&self.meta.table, |t| {
            row_id(t, idx, &id).and_then(|rid| t.row(rid).ok())
        })?;
        row.map(|r| E::from_row(&r)).transpose()
    }

    /// Load an entity by id, failing if absent.
    pub fn get(&self, id: impl Into<Value>) -> OrmResult<E> {
        let id = id.into();
        self.find(id.clone())?.ok_or_else(|| OrmError::NotFound {
            entity: self.meta.entity.clone(),
            id: id.render(),
        })
    }

    /// All entities, in row-id order.
    pub fn find_all(&self) -> OrmResult<Vec<E>> {
        let rows = self.db.scan(&self.meta.table)?;
        rows.iter().map(|r| E::from_row(r)).collect()
    }

    /// Entities matching a SQL `WHERE` fragment (e.g. `"name LIKE 'a%'"`).
    pub fn find_where(&self, condition: &str) -> OrmResult<Vec<E>> {
        let sql = format!("SELECT * FROM {} WHERE {}", self.meta.table, condition);
        let result = self.engine.execute(&self.db, &sql)?;
        result.rows.iter().map(|r| E::from_row(r)).collect()
    }

    /// Number of persisted entities.
    pub fn count(&self) -> OrmResult<usize> {
        Ok(self.db.row_count(&self.meta.table)?)
    }

    /// Delete by id, as one statement; returns whether an entity was
    /// removed.
    pub fn delete(&self, id: impl Into<Value>) -> OrmResult<bool> {
        let id = id.into();
        let idx = self.meta.id_index();
        let removed = self
            .db
            .write_table(&self.meta.table, |t| match row_id(t, idx, &id) {
                Some(rid) => t.delete(rid).map(|()| true),
                None => Ok(false),
            })?;
        Ok(removed)
    }

    /// Delete everything (truncate).
    pub fn delete_all(&self) -> OrmResult<()> {
        self.db.truncate(&self.meta.table)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::get_value;
    use odbis_storage::DataType;

    #[derive(Debug, Clone, PartialEq)]
    struct User {
        id: i64,
        name: String,
        score: Option<f64>,
    }

    impl Entity for User {
        fn meta() -> EntityMeta {
            EntityMeta::new("User", "orm_users")
                .id_field("id")
                .required_field("name", DataType::Text)
                .field("score", DataType::Float)
        }

        fn to_row(&self) -> Vec<Value> {
            vec![
                Value::Int(self.id),
                Value::Text(self.name.clone()),
                self.score.map_or(Value::Null, Value::Float),
            ]
        }

        fn from_row(row: &[Value]) -> OrmResult<Self> {
            Ok(User {
                id: get_value(row, 0, "id")?
                    .as_i64()
                    .ok_or_else(|| OrmError::Mapping("id must be an integer".into()))?,
                name: get_value(row, 1, "name")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                score: get_value(row, 2, "score")?.as_f64(),
            })
        }
    }

    fn repo() -> Repository<User> {
        Repository::new(Arc::new(Database::new())).unwrap()
    }

    #[test]
    fn crud_round_trip() {
        let r = repo();
        let u = User {
            id: 1,
            name: "ana".into(),
            score: Some(9.5),
        };
        r.insert(&u).unwrap();
        assert_eq!(r.get(1i64).unwrap(), u);
        assert_eq!(r.count().unwrap(), 1);
        let mut u2 = u.clone();
        u2.score = None;
        r.save(&u2).unwrap();
        assert_eq!(r.get(1i64).unwrap().score, None);
        assert!(r.delete(1i64).unwrap());
        assert!(!r.delete(1i64).unwrap());
        assert_eq!(r.find(1i64).unwrap(), None);
    }

    #[test]
    fn insert_conflict_detected() {
        let r = repo();
        let u = User {
            id: 1,
            name: "a".into(),
            score: None,
        };
        r.insert(&u).unwrap();
        assert!(matches!(r.insert(&u), Err(OrmError::Conflict(_))));
        // save is an upsert
        r.save(&u).unwrap();
    }

    #[test]
    fn find_where_uses_sql() {
        let r = repo();
        for i in 0..10 {
            r.insert(&User {
                id: i,
                name: format!("user{i}"),
                score: Some(i as f64),
            })
            .unwrap();
        }
        let hits = r.find_where("score >= 7 ORDER BY id").unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 7);
        assert!(r.find_where("garbage !!").is_err());
    }

    #[test]
    fn get_missing_is_not_found() {
        let r = repo();
        let err = r.get(42i64).unwrap_err();
        assert!(matches!(err, OrmError::NotFound { .. }));
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn two_repositories_share_table() {
        let db = Arc::new(Database::new());
        let r1: Repository<User> = Repository::new(Arc::clone(&db)).unwrap();
        let r2: Repository<User> = Repository::new(db).unwrap();
        r1.insert(&User {
            id: 1,
            name: "x".into(),
            score: None,
        })
        .unwrap();
        assert_eq!(r2.count().unwrap(), 1);
    }
}
