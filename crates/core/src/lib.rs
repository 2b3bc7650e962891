//! # azurebench — the AzureBench benchmark suite, reproduced in Rust
//!
//! This crate is the paper's primary contribution: the benchmark programs
//! of Algorithms 1–5 and the harness that regenerates every table and
//! figure of the evaluation (Section IV), running against the simulated
//! Windows Azure storage cluster (`azsim-*` crates) on the deterministic
//! virtual-time runtime.
//!
//! | Paper artifact | Module | Harness target |
//! |---|---|---|
//! | Table I (VM sizes) | `azsim_compute::vm` | `figures table1` |
//! | Fig. 4 (blob up/download) | [`alg1_blob`] | `figures fig4` |
//! | Fig. 5 (chunked download) | [`alg1_blob`] | `figures fig5` |
//! | Fig. 6 (queue, per-worker queues) | [`alg3_queue`] | `figures fig6` |
//! | Fig. 7 (queue, shared queue) | [`alg4_queue`] | `figures fig7` |
//! | Fig. 8 (table CRUD) | [`alg5_table`] | `figures fig8` |
//! | Fig. 9 (per-op comparison) | [`fig9`] | `figures fig9` |
//! | Alg. 2 (queue barrier) | `azsim_framework::barrier` | tests |
//!
//! Run `cargo run --release -p azurebench --bin figures -- all` to print
//! every series; pass `--scale 0.1` to shrink the workload for quick runs.

pub mod alg1_blob;
pub mod alg3_queue;
pub mod alg4_queue;
pub mod alg5_table;
pub mod bottleneck;
pub mod chaos;
pub mod config;
pub mod conformance;
pub mod exec;
pub mod fig9;
pub mod fleet;
pub mod latency;
pub mod payload;
pub mod profile;
pub mod report;
pub mod schema;
pub mod sweep;
pub mod timeline;
pub mod verify;
pub mod ycsb;

pub use config::BenchConfig;
pub use report::{Figure, Series};
