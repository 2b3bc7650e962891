//! # azsim-storage — shared vocabulary for the simulated Azure storage services
//!
//! Types used by every layer of the stack: documented service [`limits`],
//! the [`error`] model (including the `ServerBusy` throttle signal that
//! drives the paper's retry-after-one-second behaviour), [`etag`]s,
//! [`entity`] and [`message`] payload types, storage [`partition`] keys
//! (which determine which simulated partition server owns an object), and
//! the [`request`]/response enums spoken between the SDK clients and the
//! cluster model.
//!
//! The three service state machines live in `azsim-blob`, `azsim-queue` and
//! `azsim-table`; the latency/throttling model lives in `azsim-fabric`.

#![forbid(unsafe_code)]

pub mod cost;
pub mod entity;
pub mod error;
pub mod etag;
pub mod limits;
pub mod message;
pub mod partition;
pub mod request;

pub use cost::{OpClass, Service, SyncClass};
pub use entity::{Entity, PropValue};
pub use error::{StorageError, StorageResult};
pub use etag::{ETag, EtagCondition};
pub use message::QueueMessage;
pub use partition::{PartitionKey, PartitionRef};
pub use request::{StorageOk, StorageRequest, TableBatchOp};
