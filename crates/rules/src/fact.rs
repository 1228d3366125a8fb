//! Facts and working memory.

use std::collections::{BTreeMap, HashMap};

use odbis_storage::Value;

/// Handle to a fact in working memory.
pub type FactId = u64;

/// A fact: a typed bag of named values ("Order", "Tenant", "Invoice"...).
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Fact type name (the Drools "declared type").
    pub fact_type: String,
    /// Field values.
    pub fields: BTreeMap<String, Value>,
}

impl Fact {
    /// Start an empty fact of the given type.
    pub fn new(fact_type: impl Into<String>) -> Self {
        Fact {
            fact_type: fact_type.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Builder-style field setter.
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.insert(field.into(), value.into());
        self
    }

    /// Field accessor (`Value::Null` for missing fields).
    pub fn get(&self, field: &str) -> Value {
        self.fields.get(field).cloned().unwrap_or(Value::Null)
    }
}

/// Working memory: the set of facts the engine matches rules against.
///
/// Facts are addressed by [`FactId`]; insertion order is the recency used
/// for conflict resolution. An alpha index by fact type supports Rete-style
/// incremental matching.
#[derive(Debug, Default, Clone)]
pub struct WorkingMemory {
    facts: HashMap<FactId, Fact>,
    by_type: HashMap<String, Vec<FactId>>,
    next_id: FactId,
}

impl WorkingMemory {
    /// Empty working memory.
    pub fn new() -> Self {
        WorkingMemory::default()
    }

    /// Assert a fact; returns its handle.
    pub fn insert(&mut self, fact: Fact) -> FactId {
        let id = self.next_id;
        self.next_id += 1;
        self.by_type
            .entry(fact.fact_type.clone())
            .or_default()
            .push(id);
        self.facts.insert(id, fact);
        id
    }

    /// Retract a fact.
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        let fact = self.facts.remove(&id)?;
        if let Some(ids) = self.by_type.get_mut(&fact.fact_type) {
            ids.retain(|&x| x != id);
        }
        Some(fact)
    }

    /// Update one field of a fact in place. Returns false if the fact is
    /// gone.
    pub fn modify(&mut self, id: FactId, field: &str, value: Value) -> bool {
        match self.facts.get_mut(&id) {
            Some(f) => {
                f.fields.insert(field.to_string(), value);
                true
            }
            None => false,
        }
    }

    /// Fetch a fact.
    pub fn get(&self, id: FactId) -> Option<&Fact> {
        self.facts.get(&id)
    }

    /// Ids of all facts of a type, in assertion order.
    pub fn ids_of_type(&self, fact_type: &str) -> &[FactId] {
        self.by_type.get(fact_type).map_or(&[], |v| v.as_slice())
    }

    /// All `(id, fact)` pairs, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().map(|(&id, f)| (id, f))
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether memory is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_retract() {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(Fact::new("Order").with("amount", 100i64));
        assert_eq!(wm.get(id).unwrap().get("amount"), Value::Int(100));
        assert_eq!(wm.get(id).unwrap().get("missing"), Value::Null);
        assert_eq!(wm.ids_of_type("Order"), &[id]);
        let f = wm.retract(id).unwrap();
        assert_eq!(f.fact_type, "Order");
        assert!(wm.get(id).is_none());
        assert!(wm.ids_of_type("Order").is_empty());
        assert!(wm.retract(id).is_none());
    }

    #[test]
    fn modify_in_place() {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(Fact::new("T").with("x", 1i64));
        assert!(wm.modify(id, "x", Value::Int(2)));
        assert_eq!(wm.get(id).unwrap().get("x"), Value::Int(2));
        assert!(!wm.modify(999, "x", Value::Int(3)));
    }

    #[test]
    fn type_index_tracks_order() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(Fact::new("A"));
        let b = wm.insert(Fact::new("A"));
        wm.insert(Fact::new("B"));
        assert_eq!(wm.ids_of_type("A"), &[a, b]);
        assert_eq!(wm.len(), 3);
    }
}
