//! `CloudTableClient` analogue, bound to one table.

use crate::env::Environment;
use crate::resilience::ClientPolicy;
use azsim_storage::{
    ETag, Entity, EtagCondition, StorageOk, StorageRequest, StorageResult, TableBatchOp,
};

/// A client bound to one table.
pub struct TableClient<'e, E: Environment> {
    env: &'e E,
    table: String,
    policy: ClientPolicy,
}

impl<'e, E: Environment> TableClient<'e, E> {
    /// Bind a client to `table`.
    pub fn new(env: &'e E, table: impl Into<String>) -> Self {
        TableClient {
            env,
            table: table.into(),
            policy: ClientPolicy::default(),
        }
    }

    /// Replace the retry policy: a paper-faithful [`crate::RetryPolicy`] or a
    /// [`crate::ResilientPolicy`] (via [`ClientPolicy`]).
    pub fn with_policy(mut self, policy: impl Into<ClientPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// The bound table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    async fn run(&self, req: StorageRequest) -> StorageResult<StorageOk> {
        self.policy.run(self.env, req).await
    }

    /// Create the table (idempotent).
    pub async fn create_table(&self) -> StorageResult<()> {
        self.run(StorageRequest::CreateTable {
            table: self.table.clone(),
        })
        .await
        .map(|_| ())
    }

    /// Delete the table and all entities.
    pub async fn delete_table(&self) -> StorageResult<()> {
        self.run(StorageRequest::DeleteTable {
            table: self.table.clone(),
        })
        .await
        .map(|_| ())
    }

    /// Insert a new entity (`AddRow` in the paper's pseudocode).
    pub async fn insert(&self, entity: Entity) -> StorageResult<ETag> {
        match self
            .run(StorageRequest::InsertEntity {
                table: self.table.clone(),
                entity,
            })
            .await?
        {
            StorageOk::Tag(t) => Ok(t),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Point query by key pair (`Query` in the paper's pseudocode).
    pub async fn query(&self, partition: &str, row: &str) -> StorageResult<Option<(Entity, ETag)>> {
        match self
            .run(StorageRequest::QueryEntity {
                table: self.table.clone(),
                partition: partition.to_owned(),
                row: row.to_owned(),
            })
            .await?
        {
            StorageOk::Entity(e) => Ok(e),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// All entities of one partition, row-key ordered.
    pub async fn query_partition(&self, partition: &str) -> StorageResult<Vec<(Entity, ETag)>> {
        match self
            .run(StorageRequest::QueryPartition {
                table: self.table.clone(),
                partition: partition.to_owned(),
            })
            .await?
        {
            StorageOk::Entities(es) => Ok(es),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Unconditional update — the paper's wildcard-`*` ETag flavour.
    pub async fn update(&self, entity: Entity) -> StorageResult<ETag> {
        self.update_if(entity, EtagCondition::Any).await
    }

    /// Conditional update.
    pub async fn update_if(&self, entity: Entity, condition: EtagCondition) -> StorageResult<ETag> {
        match self
            .run(StorageRequest::UpdateEntity {
                table: self.table.clone(),
                entity,
                condition,
            })
            .await?
        {
            StorageOk::Tag(t) => Ok(t),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Execute an entity-group transaction: up to 100 operations against
    /// one partition, applied atomically (all or nothing).
    pub async fn execute_batch(
        &self,
        partition: &str,
        ops: Vec<TableBatchOp>,
    ) -> StorageResult<Vec<Option<ETag>>> {
        match self
            .run(StorageRequest::ExecuteBatch {
                table: self.table.clone(),
                partition: partition.to_owned(),
                ops,
            })
            .await?
        {
            StorageOk::BatchTags(tags) => Ok(tags),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Unconditional delete.
    pub async fn delete_entity(&self, partition: &str, row: &str) -> StorageResult<()> {
        self.delete_entity_if(partition, row, EtagCondition::Any)
            .await
    }

    /// Conditional delete.
    pub async fn delete_entity_if(
        &self,
        partition: &str,
        row: &str,
        condition: EtagCondition,
    ) -> StorageResult<()> {
        self.run(StorageRequest::DeleteEntity {
            table: self.table.clone(),
            partition: partition.to_owned(),
            row: row.to_owned(),
            condition,
        })
        .await
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::VirtualEnv;
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;
    use azsim_storage::PropValue;

    #[test]
    fn table_crud_via_client() {
        let sim = Simulation::new(Cluster::with_defaults(), 17);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let t = TableClient::new(&env, "results");
            t.create_table().await.unwrap();

            let e = Entity::new("p0", "r0").with("score", PropValue::I64(10));
            let tag = t.insert(e).await.unwrap();

            let (got, got_tag) = t.query("p0", "r0").await.unwrap().unwrap();
            assert_eq!(got.properties["score"], PropValue::I64(10));
            assert_eq!(got_tag, tag);

            let e2 = Entity::new("p0", "r0").with("score", PropValue::I64(20));
            let tag2 = t.update(e2).await.unwrap();
            assert_ne!(tag, tag2);

            // Stale conditional update fails.
            let e3 = Entity::new("p0", "r0").with("score", PropValue::I64(30));
            assert!(t.update_if(e3, EtagCondition::Match(tag)).await.is_err());

            t.delete_entity("p0", "r0").await.unwrap();
            assert!(t.query("p0", "r0").await.unwrap().is_none());
            t.delete_table().await.unwrap();
        });
    }

    #[test]
    fn per_worker_partitions_like_algorithm_5() {
        let n = 4usize;
        let rows = 20usize;
        let sim = Simulation::new(Cluster::with_defaults(), 23);
        let report = sim.run_workers(n, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let t = TableClient::new(&env, "bench");
            t.create_table().await.unwrap();
            let pk = format!("role-{}", env.instance());
            for r in 0..rows {
                t.insert(Entity::new(&pk, r.to_string()).with("v", PropValue::I64(r as i64)))
                    .await
                    .unwrap();
            }
            t.query_partition(&pk).await.unwrap().len()
        });
        assert!(report.results.iter().all(|&len| len == rows));
        assert_eq!(
            report.model.table_store().entity_count("bench").unwrap(),
            n * rows
        );
    }
}
