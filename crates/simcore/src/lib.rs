//! # azsim-core — discrete-event simulation kernel and virtual-time runtime
//!
//! This crate is the foundation of the AzureBench reproduction. It provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock value.
//! * [`EventHeap`] — a deterministic priority queue of timestamped events
//!   with total tie-breaking, so simulations are bit-reproducible.
//! * Queueing resources ([`resource::FifoServer`], [`resource::Pipe`],
//!   [`resource::TokenBucket`]) used by the cluster model to turn operation
//!   descriptions into virtual latencies.
//! * [`runtime::Simulation`] — a single-threaded stackless-coroutine
//!   virtual-time executor. Each simulated role instance is a future in one
//!   contiguous arena; the event heap drives polling directly (the popped
//!   event's actor is polled in place with a no-op waker), so a handoff
//!   between actors is a function call instead of an OS park/unpark. Same
//!   seed ⇒ identical results.
//! * [`shard::ShardedSimulation`] — a sharded conservative parallel
//!   executor: the event loop is partitioned across OS threads under a
//!   [`shard::ShardPlan`], synchronized in lookahead windows, and reproduces
//!   the serial `(time, actor, seq)` observable history bit-for-bit at every
//!   shard count. A `Simulation` is its one-shard case: one loop launches,
//!   drains and tears down both.
//! * [`rng`] — deterministic seed derivation so each simulated actor gets an
//!   independent, reproducible random stream.
//! * [`stats`] — small online-statistics helpers shared by the benchmark
//!   harness.
//!
//! The kernel knows nothing about Azure; the storage semantics live in the
//! `azsim-blob`/`azsim-queue`/`azsim-table` crates and the latency model in
//! `azsim-fabric`.

#![deny(unsafe_code)]

pub mod heap;
pub mod resource;
pub mod rng;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod time;
pub mod timeline;

pub use heap::EventHeap;
pub use rng::actor_rng;
pub use runtime::{actor, block_on, ActorCtx, ActorId, Model, SimReport, Simulation, WindowStats};
pub use shard::{ShardPlan, ShardableModel, ShardedSimulation, WindowTuning};
pub use time::SimTime;
pub use timeline::{CounterId, GaugeId, GaugeRecorder, SaturationTracker, TimeSeries};
