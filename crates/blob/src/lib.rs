//! # azsim-blob — the simulated Windows Azure Blob storage service
//!
//! Blob storage is "similar to the traditional file system" (paper §IV-A):
//! a storage account holds containers, a container holds blobs, and a blob
//! is either a **block blob** (content assembled from ≤ 4 MB blocks via a
//! staged-then-committed block list, up to 50 000 blocks) or a **page blob**
//! (fixed maximum size up to 1 TB, 512-byte-aligned random read/write,
//! introduced later precisely to allow fast random access).
//!
//! This crate implements the *semantics* only. Timing, partition placement
//! (container + blob name), the 60 MB/s per-blob pipe and every throttle
//! live in `azsim-fabric`.

#![forbid(unsafe_code)]

pub mod block;
pub mod page;
pub mod store;

pub use block::BlockBlob;
pub use page::PageBlob;
pub use store::{Blob, BlobStore};
