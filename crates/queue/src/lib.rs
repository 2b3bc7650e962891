//! # azsim-queue — the simulated Windows Azure Queue storage service
//!
//! Queues are the inter-role communication and coordination primitive of
//! the Azure platform (paper §IV-B): a shared task pool with built-in fault
//! tolerance. Distinguishing features faithfully modeled here:
//!
//! * **FIFO is not guaranteed.** Delivery order may deviate from insertion
//!   order (configurable deterministic fuzz), which is why the paper warns
//!   against using an ordinary task queue to signal termination and
//!   recommends a dedicated termination-indicator queue.
//! * **Visibility timeout.** `GetMessage` hides a message for a period; if
//!   the consumer crashes without deleting it, the message *reappears* —
//!   the fault-tolerance mechanism bag-of-tasks applications rely on.
//! * **Pop receipts.** Deleting a message requires the receipt from the
//!   dequeue that claimed it; a stale receipt (message re-delivered) fails.
//! * **TTL.** Messages older than 7 days vanish (2 hours under pre-2011
//!   APIs — the restriction that made Azure problematic for long-running
//!   scientific applications).
//! * **48 KB usable payload** out of the 64 KB raw message size.
//!
//! Timing (the 500 msg/s per-queue target, replication costs that make
//! Peek < Put < Get) lives in `azsim-fabric`.

#![forbid(unsafe_code)]

pub mod queue;
pub mod store;

pub use queue::{AuditedMessage, SimQueue};
pub use store::QueueStore;
