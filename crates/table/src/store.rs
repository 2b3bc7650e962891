//! The account-level table namespace and entity CRUD.

use azsim_storage::limits::{MAX_ENTITY_PROPERTIES, MAX_ENTITY_SIZE};
use azsim_storage::{ETag, Entity, EtagCondition, StorageError, StorageResult};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// One partition's entities, keyed and ordered by row key.
pub(crate) type Rows = BTreeMap<String, (Entity, ETag)>;

/// One table: its partitions by partition key, each a row map.
type Partitions = BTreeMap<String, Rows>;

/// All table state of one storage account.
///
/// A table is a map of partitions, each a `BTreeMap` of its rows ordered by
/// row key, mirroring the real service, which stores a partition together
/// under a clustered index: a lookup goes by `&str` without allocating, a
/// search is bounded by one partition, and a partition scan returns rows in
/// row-key order. A partition whose last row is deleted keeps its (empty)
/// map, so a partition that is drained and refilled does not reallocate;
/// an empty partition is indistinguishable from one never used.
#[derive(Clone, Debug, Default)]
pub struct TableStore {
    tables: HashMap<String, Partitions>,
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

    fn table(&self, name: &str) -> StorageResult<&Partitions> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> StorageResult<&mut Partitions> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// The row map of one partition, if the partition was ever written.
    pub(crate) fn rows(&self, table: &str, partition: &str) -> StorageResult<Option<&Rows>> {
        Ok(self.table(table)?.get(partition))
    }

    /// Put a saved row map back as `partition`'s whole content (batch
    /// rollback only).
    pub(crate) fn put_rows(&mut self, table: &str, partition: &str, rows: Rows) {
        if let Some(parts) = self.tables.get_mut(table) {
            parts.insert(partition.to_owned(), rows);
        }
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
        let parts = self.table_mut(table)?;
        // Clone the partition key only the first time the partition is seen.
        if let Some(rows) = parts.get_mut(&entity.partition_key) {
            return Self::insert_row(rows, entity, tag);
        }
        let rows = parts.entry(entity.partition_key.clone()).or_default();
        Self::insert_row(rows, entity, tag)
    }

    fn insert_row(rows: &mut Rows, entity: Entity, tag: ETag) -> StorageResult<ETag> {
        match rows.entry(entity.row_key.clone()) {
            Entry::Occupied(_) => Err(StorageError::AlreadyExists),
            Entry::Vacant(slot) => {
                slot.insert((entity, tag));
                Ok(tag)
            }
        }
    }

    /// Point query by key pair. `Ok(None)` on a miss.
    pub fn query(
        &self,
        table: &str,
        partition: &str,
        row: &str,
    ) -> StorageResult<Option<(Entity, ETag)>> {
        Ok(self
            .rows(table, partition)?
            .and_then(|rows| rows.get(row))
            .cloned())
    }

    /// All entities of one partition, in row-key order.
    pub fn query_partition(
        &self,
        table: &str,
        partition: &str,
    ) -> StorageResult<Vec<(Entity, ETag)>> {
        Ok(self
            .rows(table, partition)?
            .map(|rows| rows.values().cloned().collect())
            .unwrap_or_default())
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
        let slot = self
            .table_mut(table)?
            .get_mut(&entity.partition_key)
            .and_then(|rows| rows.get_mut(&entity.row_key));
        match slot {
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
        let Some(rows) = self.table_mut(table)?.get_mut(partition) else {
            return Err(StorageError::EntityNotFound);
        };
        match rows.get(row) {
            None => Err(StorageError::EntityNotFound),
            Some((_, cur)) => {
                if !condition.admits(*cur) {
                    return Err(StorageError::PreconditionFailed);
                }
                // The partition's map stays, even when this was its last row.
                rows.remove(row);
                Ok(())
            }
        }
    }

    /// Number of entities in a table.
    pub fn entity_count(&self, table: &str) -> StorageResult<usize> {
        Ok(self.table(table)?.values().map(BTreeMap::len).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchOp;
    use azsim_storage::PropValue;
    use bytes::Bytes;

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

    /// Partitions the reference proptest writes, plus one it never touches.
    const PARTITIONS: [&str; 5] = ["p0", "p1", "p2", "p3", "p-unused"];

    /// The model's rows of one partition as `(row, value, tag)`, in row order.
    fn model_scan(
        reference: &BTreeMap<(String, String), (i64, ETag)>,
        pk: &str,
    ) -> Vec<(String, PropValue, ETag)> {
        reference
            .range((pk.to_owned(), String::new())..)
            .take_while(|((p, _), _)| p == pk)
            .map(|((_, r), &(v, t))| (r.clone(), PropValue::I64(v), t))
            .collect()
    }

    proptest::proptest! {
        /// CRUD, ETag-conditional updates, partition drains, partition
        /// scans and batches agree with a sorted-map reference model over
        /// four partitions, ETag numbers included. Every sequence ends by
        /// deleting the last row of `p0` and inserting into it again.
        #[test]
        fn prop_matches_reference(
            ops in proptest::collection::vec((0u8..7, 0u8..4, 0usize..4, 0i64..100), 1..200)
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut s = store();
            // The model: `(partition, row) → (value, current tag)`, the
            // tags being the ones the store handed out.
            let mut reference: BTreeMap<(String, String), (i64, ETag)> = BTreeMap::new();
            let mut issued: Vec<ETag> = Vec::new();
            // The store's tag counter: every valid insert or update
            // attempt takes the next number, whether or not it applies.
            let mut counter = 0u64;
            let epilogue = [(0, 0, 0, 1), (6, 0, 0, 0), (0, 0, 1, 7)];
            for (op, pn, rn, val) in ops.into_iter().chain(epilogue) {
                let pk = format!("p{pn}");
                let rk = format!("r{rn}");
                let key = (pk.clone(), rk.clone());
                let e = Entity::new(&pk, &rk).with("v", PropValue::I64(val));
                match op {
                    0 => {
                        let r = s.insert("t", e);
                        counter += 1;
                        if let Entry::Vacant(slot) = reference.entry(key) {
                            prop_assert_eq!(r, Ok(ETag(counter)));
                            issued.push(ETag(counter));
                            slot.insert((val, ETag(counter)));
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
                        counter += 1;
                        match current {
                            None => prop_assert_eq!(r, Err(StorageError::EntityNotFound)),
                            Some(t) if !condition.admits(t) => {
                                prop_assert_eq!(r, Err(StorageError::PreconditionFailed))
                            }
                            Some(_) => {
                                prop_assert_eq!(r, Ok(ETag(counter)));
                                issued.push(ETag(counter));
                                reference.insert(key, (val, ETag(counter)));
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
                    5 => {
                        // One to four ops on distinct rows of one partition
                        // (four deletes empty it): all apply, or a failing
                        // op leaves the store and the model unchanged.
                        let batch: Vec<BatchOp> = (0..1 + val as usize % 4)
                            .map(|j| {
                                let row = format!("r{}", (rn + j) % 4);
                                let e = Entity::new(&pk, &row).with("v", PropValue::I64(val));
                                match (val as usize / 4 + j) % 3 {
                                    0 => BatchOp::Insert(e),
                                    1 => BatchOp::Update(e, EtagCondition::Any),
                                    _ => BatchOp::Delete { row, condition: EtagCondition::Any },
                                }
                            })
                            .collect();
                        let r = s.execute_batch("t", &pk, &batch);
                        // Rows are distinct, so each op's precondition is
                        // read from the state before the batch. Ops run in
                        // order up to the first refusal, and each insert or
                        // update among them takes a tag.
                        let held = |row: &str| reference.contains_key(&(pk.clone(), row.to_owned()));
                        let mut refused = None;
                        let mut want_tags = Vec::new();
                        for op in &batch {
                            want_tags.push(match op {
                                BatchOp::Insert(_) | BatchOp::Update(..) => {
                                    counter += 1;
                                    Some(ETag(counter))
                                }
                                BatchOp::Delete { .. } => None,
                            });
                            refused = match op {
                                BatchOp::Insert(e) if held(&e.row_key) => Some(StorageError::AlreadyExists),
                                BatchOp::Update(e, _) if !held(&e.row_key) => Some(StorageError::EntityNotFound),
                                BatchOp::Delete { row, .. } if !held(row) => Some(StorageError::EntityNotFound),
                                _ => None,
                            };
                            if refused.is_some() {
                                break;
                            }
                        }
                        match (r, refused) {
                            (Err(got), Some(want)) => prop_assert_eq!(got, want),
                            (Ok(tags), None) => {
                                prop_assert_eq!(&tags, &want_tags);
                                for (op, tag) in batch.iter().zip(tags) {
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
                            (r, want) => prop_assert!(false, "batch answered {r:?}, model {want:?}"),
                        }
                    }
                    _ => {
                        // Drain the partition row by row: its last row goes.
                        let rows: Vec<String> = model_scan(&reference, &pk)
                            .into_iter()
                            .map(|(row, _, _)| row)
                            .collect();
                        for row in rows {
                            prop_assert!(s.delete("t", &pk, &row, EtagCondition::Any).is_ok());
                            reference.remove(&(pk.clone(), row));
                        }
                    }
                }
                // Every partition's scan, the emptied and the never-used
                // ones included, is the model's sorted range, tags and all.
                for p in PARTITIONS {
                    let scan: Vec<(String, PropValue, ETag)> = s
                        .query_partition("t", p)
                        .unwrap()
                        .into_iter()
                        .map(|(e, t)| (e.row_key, e.properties["v"].clone(), t))
                        .collect();
                    prop_assert_eq!(scan, model_scan(&reference, p));
                }
                prop_assert_eq!(s.entity_count("t").unwrap(), reference.len());
            }
            // The epilogue refilled `p0` after draining it.
            prop_assert_eq!(model_scan(&reference, "p0").len(), 1);
        }
    }
}
