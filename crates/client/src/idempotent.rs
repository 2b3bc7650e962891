//! Idempotent retry helpers for ambiguous outcomes.
//!
//! Under fault injection a client can observe `StorageError::Timeout` for
//! an operation that *did* execute server-side (a lost ack, or a crash
//! that cut an in-flight replicated write). Blindly re-issuing such an
//! operation duplicates it: a retried `AddRow` double-inserts and a retried
//! read-modify-write double-applies. The helpers here make the retry
//! loops safe:
//!
//! * [`insert_idempotent`] — a duplicate-key failure after an ambiguous
//!   insert is resolved by reading the row back: if it carries our exact
//!   payload, the first attempt executed and the insert *succeeded*;
//! * [`update_idempotent`] — read-modify-write under an `If-Match` ETag
//!   condition, with a per-mutation marker property so a re-issued update
//!   whose predecessor secretly executed is detected instead of applied
//!   twice.
//!
//! All helpers compose with [`crate::ResilientPolicy`]'s blind transient
//! retries: the policy handles clean rejections, these handle ambiguity.

use crate::env::Environment;
use crate::table::TableClient;
use azsim_storage::{ETag, Entity, EtagCondition, PropValue, StorageError, StorageResult};

/// Property name holding the id of the last logical mutation applied by
/// [`update_idempotent`]. Rows driven through that helper carry it.
pub const OP_MARKER: &str = "last_op";

/// Insert `entity`, treating an `AlreadyExists` answer after a possible
/// ambiguous retry as success *iff* the stored row carries our exact
/// payload (first attempt executed, ack was lost). A genuine conflict —
/// someone else's row under the same key — still surfaces as
/// `AlreadyExists`.
pub async fn insert_idempotent<E: Environment>(
    table: &TableClient<'_, E>,
    entity: &Entity,
) -> StorageResult<ETag> {
    match table.insert(entity.clone()).await {
        Ok(tag) => Ok(tag),
        Err(StorageError::AlreadyExists) => {
            let stored = table
                .query(&entity.partition_key, &entity.row_key)
                .await?
                .ok_or(StorageError::AlreadyExists)?;
            if stored.0 == *entity {
                Ok(stored.1)
            } else {
                Err(StorageError::AlreadyExists)
            }
        }
        Err(e) => Err(e),
    }
}

/// Read-modify-write one existing entity idempotently.
///
/// `op_id` must uniquely identify this *logical* mutation (e.g.
/// `"w3-incr17"`); `mutate` applies it to the current row. The helper
/// loops read → mutate → conditional `If-Match` update:
///
/// * if the stored row already carries `op_id` in its [`OP_MARKER`]
///   property, a previous ambiguous attempt executed — done, nothing is
///   applied twice;
/// * if the `If-Match` update fails with `PreconditionFailed`, the row
///   moved under us (a concurrent writer, or our own secretly-executed
///   re-issue) — re-read and re-decide;
/// * transient faults inside each step are absorbed by the client's
///   configured policy.
///
/// Returns the winning ETag. A caller that sees an ambiguous error can
/// safely re-invoke with the same `op_id`.
pub async fn update_idempotent<E, F>(
    table: &TableClient<'_, E>,
    partition: &str,
    row: &str,
    op_id: &str,
    mutate: F,
) -> StorageResult<ETag>
where
    E: Environment,
    F: Fn(&mut Entity),
{
    loop {
        let Some((mut entity, etag)) = table.query(partition, row).await? else {
            return Err(StorageError::EntityNotFound);
        };
        if entity.properties.get(OP_MARKER) == Some(&PropValue::Str(op_id.to_owned())) {
            return Ok(etag);
        }
        mutate(&mut entity);
        entity
            .properties
            .insert(OP_MARKER.to_owned(), PropValue::Str(op_id.to_owned()));
        match table.update_if(entity, EtagCondition::Match(etag)).await {
            Ok(tag) => return Ok(tag),
            Err(StorageError::PreconditionFailed) => continue,
            Err(e) => return Err(e),
        }
    }
}
