//! # azsim-compute — the compute side of the simulated Azure platform
//!
//! The paper's programming model consists of **web roles** (HTTP-facing
//! front ends) and **worker roles** (background processors) deployed as N
//! virtual-machine instances of a configured size (paper Table I). This
//! crate provides:
//!
//! * [`vm::VmSize`] — the Table I catalogue (cores, memory, disk) plus the
//!   era's NIC allocation, which is what actually matters to the storage
//!   benchmarks;
//! * [`roles`] — role metadata ([`roles::RoleEnvironment`]) and a
//!   [`roles::Deployment`] builder that runs a heterogeneous set of roles
//!   (e.g. one web role plus N worker roles) on the virtual-time runtime
//!   with per-instance NIC bandwidths wired into the cluster.
//!
//! Every instance starts at virtual time zero. VM provisioning times and
//! instance-local disks, which the paper names as future work, are not
//! modelled: no figure measures them.

#![forbid(unsafe_code)]

pub mod roles;
pub mod vm;

pub use roles::{Deployment, RoleEnvironment};
pub use vm::VmSize;
