//! # azsim-framework — the paper's generic application framework
//!
//! Section III of the paper lays out a reusable structure for scientific
//! (bag-of-task) applications on Azure: a **web role** posts work to a
//! *task-assignment queue*; N **worker roles** poll it, fetch data from
//! storage, process, and signal completion on a dedicated
//! *termination-indicator queue* the web role polls for progress. Because
//! one role instance cannot query another's state, *all* coordination goes
//! through storage.
//!
//! This crate implements that framework over `azsim-client`:
//!
//! * [`termination::TerminationIndicator`] — the dedicated signaling queue
//!   (the paper warns a non-FIFO task queue must never carry the "end of
//!   work" marker);
//! * [`barrier::QueueBarrier`] — Algorithm 2's queue-as-shared-memory
//!   barrier, including the message-count accounting across repeated
//!   synchronization phases and the one-second polling back-off;
//! * [`taskqueue::TaskQueue`] — typed (serde-JSON) task envelopes over a
//!   queue, with visibility-timeout-based crash recovery, one dead-letter
//!   queue and one worker loop (process, then complete; stop on a sealed,
//!   empty queue);
//! * [`bag::BagOfTasks`] — the end-to-end pattern: submit and seal,
//!   process, track;
//! * [`mapreduce::MapReduce`] — a Twister4Azure-style (iterative) MapReduce
//!   runtime built purely from queues, blobs and the indicator pattern —
//!   the programming model the paper notes Azure lacks natively.

#![forbid(unsafe_code)]

pub mod bag;
pub mod barrier;
pub mod mapreduce;
pub mod taskqueue;
pub mod termination;

pub use bag::BagOfTasks;
pub use barrier::QueueBarrier;
pub use mapreduce::{MapReduce, MapReduceJob};
pub use taskqueue::{ClaimedTask, TaskOutcome, TaskQueue, WorkerReport};
pub use termination::TerminationIndicator;
