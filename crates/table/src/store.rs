//! The account-level table namespace and entity CRUD.

use azsim_storage::limits::{MAX_ENTITY_PROPERTIES, MAX_ENTITY_SIZE};
use azsim_storage::{ETag, Entity, EtagCondition, StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap};

type Key = (String, String); // (PartitionKey, RowKey)

/// All table state of one storage account.
///
/// Entities are kept in a `BTreeMap` ordered by `(PartitionKey, RowKey)` so
/// partition scans return deterministic row-key order, mirroring the real
/// service's clustered index.
#[derive(Clone, Debug, Default)]
pub struct TableStore {
    tables: HashMap<String, BTreeMap<Key, (Entity, ETag)>>,
    tag_counter: u64,
}

impl TableStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table; idempotent.
    pub fn create_table(&mut self, name: &str) -> StorageResult<()> {
        self.tables.entry(name.to_owned()).or_default();
        Ok(())
    }

    /// Delete a table and all its entities.
    pub fn delete_table(&mut self, name: &str) -> StorageResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// Whether a table exists.
    pub fn table_exists(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    fn table(&self, name: &str) -> StorageResult<&BTreeMap<Key, (Entity, ETag)>> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> StorageResult<&mut BTreeMap<Key, (Entity, ETag)>> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    fn validate(entity: &Entity) -> StorageResult<()> {
        let size = entity.size();
        if size > MAX_ENTITY_SIZE {
            return Err(StorageError::EntityTooLarge { size });
        }
        if entity.property_count() > MAX_ENTITY_PROPERTIES {
            return Err(StorageError::TooManyProperties {
                count: entity.property_count(),
            });
        }
        Ok(())
    }

    fn fresh_tag(&mut self) -> ETag {
        self.tag_counter += 1;
        ETag(self.tag_counter)
    }

    /// Insert a new entity; fails with `AlreadyExists` on a duplicate key.
    pub fn insert(&mut self, table: &str, entity: Entity) -> StorageResult<ETag> {
        Self::validate(&entity)?;
        let tag = self.fresh_tag();
        let t = self.table_mut(table)?;
        let key = (entity.partition_key.clone(), entity.row_key.clone());
        if t.contains_key(&key) {
            return Err(StorageError::AlreadyExists);
        }
        t.insert(key, (entity, tag));
        Ok(tag)
    }

    /// Point query by key pair. `Ok(None)` on a miss.
    pub fn query(
        &self,
        table: &str,
        partition: &str,
        row: &str,
    ) -> StorageResult<Option<(Entity, ETag)>> {
        Ok(self
            .table(table)?
            .get(&(partition.to_owned(), row.to_owned()))
            .cloned())
    }

    /// All entities of one partition, in row-key order.
    pub fn query_partition(
        &self,
        table: &str,
        partition: &str,
    ) -> StorageResult<Vec<(Entity, ETag)>> {
        let t = self.table(table)?;
        let lo = (partition.to_owned(), String::new());
        Ok(t.range(lo..)
            .take_while(|((pk, _), _)| pk == partition)
            .map(|(_, v)| v.clone())
            .collect())
    }

    /// Replace an existing entity's properties subject to an ETag
    /// condition; returns the new tag.
    pub fn update(
        &mut self,
        table: &str,
        entity: Entity,
        condition: EtagCondition,
    ) -> StorageResult<ETag> {
        Self::validate(&entity)?;
        let tag = self.fresh_tag();
        let t = self.table_mut(table)?;
        let key = (entity.partition_key.clone(), entity.row_key.clone());
        match t.get_mut(&key) {
            None => Err(StorageError::EntityNotFound),
            Some((stored, cur)) => {
                if !condition.admits(*cur) {
                    return Err(StorageError::PreconditionFailed);
                }
                *stored = entity;
                *cur = tag;
                Ok(tag)
            }
        }
    }

    /// Delete an entity subject to an ETag condition.
    pub fn delete(
        &mut self,
        table: &str,
        partition: &str,
        row: &str,
        condition: EtagCondition,
    ) -> StorageResult<()> {
        let t = self.table_mut(table)?;
        let key = (partition.to_owned(), row.to_owned());
        match t.get(&key) {
            None => Err(StorageError::EntityNotFound),
            Some((_, cur)) => {
                if !condition.admits(*cur) {
                    return Err(StorageError::PreconditionFailed);
                }
                t.remove(&key);
                Ok(())
            }
        }
    }

    /// Reinstate an entity with a specific tag (batch rollback only).
    pub(crate) fn restore(&mut self, table: &str, entity: Entity, tag: ETag) {
        if let Some(t) = self.tables.get_mut(table) {
            let key = (entity.partition_key.clone(), entity.row_key.clone());
            t.insert(key, (entity, tag));
        }
    }

    /// Number of entities in a table.
    pub fn entity_count(&self, table: &str) -> StorageResult<usize> {
        Ok(self.table(table)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchOp;
    use azsim_storage::PropValue;
    use bytes::Bytes;
    use std::collections::btree_map::Entry;

    fn store() -> TableStore {
        let mut s = TableStore::new();
        s.create_table("t").unwrap();
        s
    }

    fn entity(pk: &str, rk: &str, val: i64) -> Entity {
        Entity::new(pk, rk).with("v", PropValue::I64(val))
    }

    #[test]
    fn insert_query_roundtrip() {
        let mut s = store();
        let tag = s.insert("t", entity("p", "r", 5)).unwrap();
        let (e, t) = s.query("t", "p", "r").unwrap().unwrap();
        assert_eq!(e.properties["v"], PropValue::I64(5));
        assert_eq!(t, tag);
        assert!(s.query("t", "p", "other").unwrap().is_none());
        assert_eq!(s.entity_count("t").unwrap(), 1);
    }

    #[test]
    fn duplicate_insert_conflicts() {
        let mut s = store();
        s.insert("t", entity("p", "r", 1)).unwrap();
        assert_eq!(
            s.insert("t", entity("p", "r", 2)),
            Err(StorageError::AlreadyExists)
        );
        // Original untouched.
        let (e, _) = s.query("t", "p", "r").unwrap().unwrap();
        assert_eq!(e.properties["v"], PropValue::I64(1));
    }

    #[test]
    fn wildcard_update_always_applies_and_bumps_tag() {
        let mut s = store();
        let t1 = s.insert("t", entity("p", "r", 1)).unwrap();
        let t2 = s
            .update("t", entity("p", "r", 2), EtagCondition::Any)
            .unwrap();
        assert_ne!(t1, t2);
        let (e, cur) = s.query("t", "p", "r").unwrap().unwrap();
        assert_eq!(e.properties["v"], PropValue::I64(2));
        assert_eq!(cur, t2);
    }

    #[test]
    fn conditional_update_enforces_etag() {
        let mut s = store();
        let t1 = s.insert("t", entity("p", "r", 1)).unwrap();
        let t2 = s
            .update("t", entity("p", "r", 2), EtagCondition::Match(t1))
            .unwrap();
        // Lost-update protection: the stale tag no longer matches.
        assert_eq!(
            s.update("t", entity("p", "r", 3), EtagCondition::Match(t1)),
            Err(StorageError::PreconditionFailed)
        );
        s.update("t", entity("p", "r", 3), EtagCondition::Match(t2))
            .unwrap();
    }

    #[test]
    fn update_missing_entity_fails() {
        let mut s = store();
        assert_eq!(
            s.update("t", entity("p", "r", 1), EtagCondition::Any),
            Err(StorageError::EntityNotFound)
        );
    }

    #[test]
    fn delete_with_conditions() {
        let mut s = store();
        let t1 = s.insert("t", entity("p", "r", 1)).unwrap();
        assert_eq!(
            s.delete("t", "p", "r", EtagCondition::Match(ETag(t1.0 + 1))),
            Err(StorageError::PreconditionFailed)
        );
        s.delete("t", "p", "r", EtagCondition::Match(t1)).unwrap();
        assert_eq!(
            s.delete("t", "p", "r", EtagCondition::Any),
            Err(StorageError::EntityNotFound)
        );
    }

    #[test]
    fn partition_scan_is_row_key_ordered_and_scoped() {
        let mut s = store();
        s.insert("t", entity("p1", "b", 2)).unwrap();
        s.insert("t", entity("p1", "a", 1)).unwrap();
        s.insert("t", entity("p1", "c", 3)).unwrap();
        s.insert("t", entity("p2", "a", 9)).unwrap();
        let rows = s.query_partition("t", "p1").unwrap();
        let keys: Vec<&str> = rows.iter().map(|(e, _)| e.row_key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert_eq!(s.query_partition("t", "p2").unwrap().len(), 1);
        assert!(s.query_partition("t", "p0").unwrap().is_empty());
    }

    #[test]
    fn entity_limits_enforced() {
        let mut s = store();
        // Too large (1 MB of binary payload plus keys).
        let big = Entity::new("p", "r").with(
            "v",
            PropValue::Binary(Bytes::from(vec![0u8; MAX_ENTITY_SIZE as usize])),
        );
        assert!(matches!(
            s.insert("t", big),
            Err(StorageError::EntityTooLarge { .. })
        ));
        // Too many properties.
        let mut many = Entity::new("p", "r");
        for i in 0..MAX_ENTITY_PROPERTIES + 1 {
            many = many.with(format!("p{i}"), PropValue::Bool(true));
        }
        assert!(matches!(
            s.insert("t", many),
            Err(StorageError::TooManyProperties { .. })
        ));
        // Exactly at the property limit is fine.
        let mut ok = Entity::new("p", "r");
        for i in 0..MAX_ENTITY_PROPERTIES {
            ok = ok.with(format!("p{i}"), PropValue::Bool(true));
        }
        s.insert("t", ok).unwrap();
    }

    #[test]
    fn schemaless_entities_in_same_table() {
        // "Two entities in the same table can have different properties."
        let mut s = store();
        s.insert("t", Entity::new("p", "a").with("x", PropValue::I64(1)))
            .unwrap();
        s.insert(
            "t",
            Entity::new("p", "b").with("y", PropValue::Str("hello".into())),
        )
        .unwrap();
        let rows = s.query_partition("t", "p").unwrap();
        assert!(rows[0].0.properties.contains_key("x"));
        assert!(rows[1].0.properties.contains_key("y"));
    }

    #[test]
    fn missing_table_errors() {
        let mut s = TableStore::new();
        assert!(matches!(
            s.insert("nope", entity("p", "r", 1)),
            Err(StorageError::TableNotFound(_))
        ));
        assert!(matches!(
            s.query("nope", "p", "r"),
            Err(StorageError::TableNotFound(_))
        ));
        assert!(matches!(
            s.delete_table("nope"),
            Err(StorageError::TableNotFound(_))
        ));
    }

    #[test]
    fn table_recreate_is_idempotent_but_delete_clears() {
        let mut s = store();
        s.insert("t", entity("p", "r", 1)).unwrap();
        s.create_table("t").unwrap(); // no-op
        assert_eq!(s.entity_count("t").unwrap(), 1);
        s.delete_table("t").unwrap();
        s.create_table("t").unwrap();
        assert_eq!(s.entity_count("t").unwrap(), 0);
    }

    proptest::proptest! {
        /// CRUD, ETag-conditional updates, partition scans and batches
        /// agree with a sorted-map reference model.
        #[test]
        fn prop_matches_reference(
            ops in proptest::collection::vec((0u8..6, 0u8..4, 0usize..4, 0i64..100), 1..200)
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut s = store();
            // The model: `(partition, row) → (value, current tag)`, the
            // tags being the ones the store handed out.
            let mut reference: BTreeMap<(String, String), (i64, ETag)> = BTreeMap::new();
            let mut issued: Vec<ETag> = Vec::new();
            for (op, pn, rn, val) in ops {
                let pk = format!("p{pn}");
                let rk = format!("r{rn}");
                let key = (pk.clone(), rk.clone());
                let e = Entity::new(&pk, &rk).with("v", PropValue::I64(val));
                match op {
                    0 => {
                        let r = s.insert("t", e);
                        if let Entry::Vacant(slot) = reference.entry(key) {
                            prop_assert!(r.is_ok());
                            let tag = r.unwrap();
                            issued.push(tag);
                            slot.insert((val, tag));
                        } else {
                            prop_assert_eq!(r, Err(StorageError::AlreadyExists));
                        }
                    }
                    1 | 4 => {
                        // Op 4 is conditional: on the current tag half the
                        // time, else on an earlier tag (stale unless it
                        // happens to be the current one).
                        let current = reference.get(&key).map(|&(_, t)| t);
                        let condition = match current {
                            _ if op == 1 => EtagCondition::Any,
                            Some(t) if val % 2 == 0 => EtagCondition::Match(t),
                            _ => EtagCondition::Match(
                                issued.get(val as usize % issued.len().max(1)).copied().unwrap_or(ETag(0)),
                            ),
                        };
                        let r = s.update("t", e, condition);
                        match current {
                            None => prop_assert_eq!(r, Err(StorageError::EntityNotFound)),
                            Some(t) if !condition.admits(t) => {
                                prop_assert_eq!(r, Err(StorageError::PreconditionFailed))
                            }
                            Some(_) => {
                                prop_assert!(r.is_ok());
                                let tag = r.unwrap();
                                issued.push(tag);
                                reference.insert(key, (val, tag));
                            }
                        }
                    }
                    2 => {
                        let r = s.delete("t", &pk, &rk, EtagCondition::Any);
                        if reference.remove(&key).is_some() {
                            prop_assert!(r.is_ok());
                        } else {
                            prop_assert_eq!(r, Err(StorageError::EntityNotFound));
                        }
                    }
                    3 => {
                        let got = s.query("t", &pk, &rk).unwrap();
                        let got = got.map(|(e, t)| (e.properties["v"].clone(), t));
                        let want = reference.get(&key).map(|&(v, t)| (PropValue::I64(v), t));
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        // One to three ops on distinct rows of one
                        // partition: all apply, or a failing op leaves the
                        // store and the model unchanged.
                        let batch: Vec<BatchOp> = (0..1 + val as usize % 3)
                            .map(|j| {
                                let row = format!("r{}", (rn + j) % 4);
                                let e = Entity::new(&pk, &row).with("v", PropValue::I64(val));
                                match (val as usize / 3 + j) % 3 {
                                    0 => BatchOp::Insert(e),
                                    1 => BatchOp::Update(e, EtagCondition::Any),
                                    _ => BatchOp::Delete { row, condition: EtagCondition::Any },
                                }
                            })
                            .collect();
                        let r = s.execute_batch("t", &pk, &batch);
                        // Rows are distinct, so each op's precondition is
                        // read from the state before the batch.
                        let held = |row: &str| reference.contains_key(&(pk.clone(), row.to_owned()));
                        let refused = batch.iter().find_map(|op| match op {
                            BatchOp::Insert(e) if held(&e.row_key) => Some(StorageError::AlreadyExists),
                            BatchOp::Update(e, _) if !held(&e.row_key) => Some(StorageError::EntityNotFound),
                            BatchOp::Delete { row, .. } if !held(row) => Some(StorageError::EntityNotFound),
                            _ => None,
                        });
                        prop_assert_eq!(r.as_ref().err(), refused.as_ref());
                        for (op, tag) in batch.iter().zip(r.unwrap_or_default()) {
                            match (op, tag) {
                                (BatchOp::Insert(e) | BatchOp::Update(e, _), Some(tag)) => {
                                    issued.push(tag);
                                    reference.insert((pk.clone(), e.row_key.clone()), (val, tag));
                                }
                                (BatchOp::Delete { row, .. }, None) => {
                                    reference.remove(&(pk.clone(), row.clone()));
                                }
                                (op, tag) => prop_assert!(false, "{op:?} answered {tag:?}"),
                            }
                        }
                    }
                }
                // The partition scan is the model's sorted range, tags
                // included.
                let scan: Vec<(String, PropValue, ETag)> = s
                    .query_partition("t", &pk)
                    .unwrap()
                    .into_iter()
                    .map(|(e, t)| (e.row_key, e.properties["v"].clone(), t))
                    .collect();
                let want: Vec<(String, PropValue, ETag)> = reference
                    .range((pk.clone(), String::new())..)
                    .take_while(|((p, _), _)| *p == pk)
                    .map(|((_, r), &(v, t))| (r.clone(), PropValue::I64(v), t))
                    .collect();
                prop_assert_eq!(scan, want);
            }
            prop_assert_eq!(s.entity_count("t").unwrap(), reference.len());
        }
    }
}
