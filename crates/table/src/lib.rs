//! # azsim-table — the simulated Windows Azure Table storage service
//!
//! Semi-structured, schemaless storage (paper §IV-C): a table holds
//! entities of up to 1 MB and up to 255 properties each; the mandatory
//! `(PartitionKey, RowKey)` pair is the unique key and the only index.
//! Entities sharing a partition key live on one partition server — "a good
//! partitioning of a table can significantly boost the performance" —
//! and a single partition supports at most 500 entities/s (enforced by
//! `azsim-fabric`).
//!
//! Updates and deletes are conditional on ETags; the paper benchmarks the
//! unconditional flavour via the `*` wildcard.

#![forbid(unsafe_code)]

pub mod batch;
pub mod store;

pub use batch::{BatchOp, BatchResult, MAX_BATCH_OPS};
pub use store::TableStore;
