//! Entity-group transactions (the Table service's atomic batch).
//!
//! The 2011 Table service supports *entity group transactions*: up to 100
//! operations against entities **of the same partition**, executed
//! atomically — either every operation applies or none does. The paper
//! benchmarks single-entity operations only; batches are provided as the
//! natural extension (and are what Twister4Azure-style applications use to
//! amortize the per-operation cost the paper measures in Figure 9).

use crate::store::TableStore;
use azsim_storage::{ETag, StorageError, StorageResult, TableBatchOp};

/// Maximum operations in one entity-group transaction.
pub const MAX_BATCH_OPS: usize = 100;

/// The batch operation type (shared with the wire protocol).
pub type BatchOp = TableBatchOp;

fn row_key(op: &BatchOp) -> &str {
    match op {
        BatchOp::Insert(e) | BatchOp::Update(e, _) => &e.row_key,
        BatchOp::Delete { row, .. } => row,
    }
}

/// Result of one applied batch: the new ETag per mutating op (None for
/// deletes).
pub type BatchResult = Vec<Option<ETag>>;

impl TableStore {
    /// Execute an entity-group transaction atomically: all `ops` target
    /// `partition` of `table`; on any error nothing is applied.
    ///
    /// Rejections (mirroring the real service):
    /// * more than 100 operations,
    /// * an operation whose entity names a different partition key,
    /// * two operations addressing the same row key,
    /// * any constituent operation failing its own precondition.
    pub fn execute_batch(
        &mut self,
        table: &str,
        partition: &str,
        ops: &[BatchOp],
    ) -> StorageResult<BatchResult> {
        if ops.len() > MAX_BATCH_OPS {
            return Err(StorageError::BatchTooLarge { count: ops.len() });
        }
        // Same-partition and distinct-row validation.
        let mut seen = std::collections::HashSet::new();
        for op in ops {
            if let BatchOp::Insert(e) | BatchOp::Update(e, _) = op {
                if e.partition_key != partition {
                    return Err(StorageError::PreconditionFailed);
                }
            }
            if !seen.insert(row_key(op)) {
                return Err(StorageError::AlreadyExists);
            }
        }
        // Save the partition's row map for atomicity, then apply op by op.
        // The copy is cheap: entity payloads are refcounted `Bytes`.
        let saved = self.rows(table, partition)?.cloned().unwrap_or_default();
        let mut tags = Vec::with_capacity(ops.len());
        for op in ops {
            let r = match op {
                BatchOp::Insert(e) => self.insert(table, e.clone()).map(Some),
                BatchOp::Update(e, cond) => self.update(table, e.clone(), *cond).map(Some),
                BatchOp::Delete { row, condition } => {
                    self.delete(table, partition, row, *condition).map(|_| None)
                }
            };
            match r {
                Ok(t) => tags.push(t),
                Err(err) => {
                    // Roll back: put the saved row map back.
                    self.put_rows(table, partition, saved);
                    return Err(err);
                }
            }
        }
        Ok(tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_storage::{Entity, EtagCondition, PropValue};

    fn store() -> TableStore {
        let mut s = TableStore::new();
        s.create_table("t").unwrap();
        s
    }

    fn e(rk: &str, v: i64) -> Entity {
        Entity::new("p", rk).with("v", PropValue::I64(v))
    }

    #[test]
    fn batch_applies_all_ops_atomically() {
        let mut s = store();
        s.insert("t", e("existing", 1)).unwrap();
        let tags = s
            .execute_batch(
                "t",
                "p",
                &[
                    BatchOp::Insert(e("new1", 10)),
                    BatchOp::Insert(e("new2", 20)),
                    BatchOp::Update(e("existing", 99), EtagCondition::Any),
                ],
            )
            .unwrap();
        assert_eq!(tags.len(), 3);
        assert!(tags.iter().all(|t| t.is_some()));
        assert_eq!(s.entity_count("t").unwrap(), 3);
        let (got, _) = s.query("t", "p", "existing").unwrap().unwrap();
        assert_eq!(got.properties["v"], PropValue::I64(99));
    }

    #[test]
    fn failed_batch_rolls_back_everything() {
        let mut s = store();
        s.insert("t", e("a", 1)).unwrap();
        let err = s
            .execute_batch(
                "t",
                "p",
                &[
                    BatchOp::Insert(e("b", 2)),                     // would succeed
                    BatchOp::Update(e("a", 3), EtagCondition::Any), // would succeed
                    BatchOp::Insert(e("a", 4)),                     // duplicate → fails
                ],
            )
            .unwrap_err();
        assert_eq!(err, StorageError::AlreadyExists);
        // Nothing applied: b absent, a unmodified.
        assert_eq!(s.entity_count("t").unwrap(), 1);
        let (got, _) = s.query("t", "p", "a").unwrap().unwrap();
        assert_eq!(got.properties["v"], PropValue::I64(1));
    }

    #[test]
    fn rollback_preserves_etags() {
        let mut s = store();
        let tag = s.insert("t", e("a", 1)).unwrap();
        let _ = s.execute_batch(
            "t",
            "p",
            &[
                BatchOp::Update(e("a", 2), EtagCondition::Any),
                BatchOp::Delete {
                    row: "missing".into(),
                    condition: EtagCondition::Any,
                },
            ],
        );
        // The pre-batch tag still matches after rollback.
        s.update("t", e("a", 5), EtagCondition::Match(tag)).unwrap();
    }

    #[test]
    fn rollback_restores_a_partition_the_batch_had_emptied() {
        let mut s = store();
        let ta = s.insert("t", e("a", 1)).unwrap();
        let tb = s.insert("t", e("b", 2)).unwrap();
        let err = s
            .execute_batch(
                "t",
                "p",
                &[
                    BatchOp::Delete {
                        row: "a".into(),
                        condition: EtagCondition::Any,
                    },
                    BatchOp::Delete {
                        row: "b".into(),
                        condition: EtagCondition::Any,
                    },
                    // The partition is empty here; this op fails.
                    BatchOp::Update(e("c", 3), EtagCondition::Any),
                ],
            )
            .unwrap_err();
        assert_eq!(err, StorageError::EntityNotFound);
        let rows: Vec<(String, ETag)> = s
            .query_partition("t", "p")
            .unwrap()
            .into_iter()
            .map(|(e, t)| (e.row_key, t))
            .collect();
        assert_eq!(rows, vec![("a".into(), ta), ("b".into(), tb)]);
        // The restored tags are live: a conditional delete on each applies.
        s.delete("t", "p", "a", EtagCondition::Match(ta)).unwrap();
        s.delete("t", "p", "b", EtagCondition::Match(tb)).unwrap();
        // The failed update took a tag number, so the next one follows it.
        assert_eq!(s.insert("t", e("d", 4)).unwrap(), ETag(tb.0 + 2));
    }

    #[test]
    fn cross_partition_batch_rejected() {
        let mut s = store();
        let err = s
            .execute_batch(
                "t",
                "p",
                &[BatchOp::Insert(
                    Entity::new("other", "r").with("v", PropValue::I64(1)),
                )],
            )
            .unwrap_err();
        assert_eq!(err, StorageError::PreconditionFailed);
    }

    #[test]
    fn duplicate_rows_in_batch_rejected() {
        let mut s = store();
        let err = s
            .execute_batch(
                "t",
                "p",
                &[
                    BatchOp::Insert(e("x", 1)),
                    BatchOp::Update(e("x", 2), EtagCondition::Any),
                ],
            )
            .unwrap_err();
        assert_eq!(err, StorageError::AlreadyExists);
        assert_eq!(s.entity_count("t").unwrap(), 0);
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut s = store();
        let ops: Vec<BatchOp> = (0..MAX_BATCH_OPS + 1)
            .map(|i| BatchOp::Insert(e(&format!("r{i}"), i as i64)))
            .collect();
        let err = s.execute_batch("t", "p", &ops).unwrap_err();
        assert_eq!(err, StorageError::BatchTooLarge { count: 101 });
        // Reported as a batch error, not as an entity with 101 properties.
        assert_eq!(
            err.to_string(),
            "batch of 101 operations exceeds 100-operation limit"
        );
        assert_eq!(s.entity_count("t").unwrap(), 0);
        // Exactly at the limit is fine.
        assert_eq!(
            s.execute_batch("t", "p", &ops[..MAX_BATCH_OPS])
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn batch_deletes_work() {
        let mut s = store();
        s.insert("t", e("a", 1)).unwrap();
        s.insert("t", e("b", 2)).unwrap();
        let tags = s
            .execute_batch(
                "t",
                "p",
                &[
                    BatchOp::Delete {
                        row: "a".into(),
                        condition: EtagCondition::Any,
                    },
                    BatchOp::Insert(e("c", 3)),
                ],
            )
            .unwrap();
        assert_eq!(tags[0], None);
        assert!(tags[1].is_some());
        assert!(s.query("t", "p", "a").unwrap().is_none());
        assert!(s.query("t", "p", "c").unwrap().is_some());
    }
}
