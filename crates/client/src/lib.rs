//! # azsim-client — SDK-style clients for the simulated Azure storage
//!
//! The counterpart of the 2011 Azure SDK's `CloudBlobClient`,
//! `CloudQueueClient` and `CloudTableClient`: typed, `async` wrappers over
//! the request protocol, with the paper's retry behaviour (sleep one second
//! on `ServerBusy`, then retry) built in.
//!
//! Clients are generic over an [`Environment`]:
//!
//! * [`VirtualEnv`] runs against the stackless-coroutine virtual-time
//!   simulation — awaiting a call or a sleep suspends the worker until the
//!   event heap delivers its wakeup (the benchmark mode);
//! * [`live::LiveEnv`] runs against the very same [`azsim_fabric::Cluster`]
//!   in real (optionally time-scaled) wall-clock time — its futures are
//!   already complete when returned, so drive them with
//!   [`azsim_core::block_on`] (the mode the interactive examples use).

#![forbid(unsafe_code)]

pub mod blob;
pub mod env;
pub mod idempotent;
pub mod live;
pub mod queue;
pub mod resilience;
pub mod retry;
pub mod table;

pub use blob::BlobClient;
pub use env::{Environment, FleetEnv, VirtualEnv};
pub use idempotent::{insert_idempotent, update_idempotent, OP_MARKER};
pub use live::{LiveCluster, LiveEnv};
pub use queue::QueueClient;
pub use resilience::{
    BackoffConfig, BreakerConfig, BreakerEvent, BreakerTransition, ClientPolicy, ErrorClass,
    ResilienceStats, ResilientPolicy, RetryBudgetConfig, RetrySpan,
};
pub use retry::RetryPolicy;
pub use table::TableClient;
