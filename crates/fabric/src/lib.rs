//! # azsim-fabric — the simulated Windows Azure Storage cluster
//!
//! This crate turns the pure service state machines (`azsim-blob`,
//! `azsim-queue`, `azsim-table`) into a *cluster* with the architecture the
//! paper's measurements expose:
//!
//! * a fleet of **partition servers**; every partition (blob = container +
//!   blob name, queue = queue name, table partition = table + PartitionKey)
//!   is serialized on its own FIFO and placed on a server by stable hash;
//! * **three-replica strong consistency**: writes pay a replica
//!   synchronization term, `GetMessage` additionally pays invisibility-state
//!   propagation — which is exactly why the paper measures
//!   Peek < Put < Get;
//! * **per-blob data pipes** (the 60 MB/s per-blob throughput target, with a
//!   higher replica/cache-assisted read ceiling);
//! * **token-bucket throttles** for the documented scalability targets
//!   (500 msg/s per queue, 500 entities/s per table partition, 5 000 tx/s
//!   and 3 GB/s per account) that surface as `ServerBusy`;
//! * **per-VM NICs** sized by the role-instance VM size;
//! * a deliberately modeled **16 KB `GetMessage` anomaly**
//!   (`ClusterParams::quirk_get16k`) reproducing the consistent,
//!   unexplained slowdown the paper reports in Figure 6(c).
//!
//! [`cluster::Cluster`] implements [`azsim_core::Model`], so the whole thing
//! plugs into the virtual-time runtime; the same object can be driven in
//! real time by `azsim-client`'s live mode.

#![forbid(unsafe_code)]

pub mod backend;
pub mod cluster;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod params;
pub mod timeline;
pub mod trace;

pub use backend::{BackendKind, BackendProfile, ThrottleShape};
pub use cluster::Cluster;
pub use faults::{
    BusyStorm, FaultInjector, FaultMetrics, FaultPlan, PartitionBlackout, ServerCrash,
};
pub use fleet::{Fleet, FleetReq};
pub use metrics::{ClusterMetrics, MetricsSnapshot, OpCounter, PartitionHeat};
pub use params::ClusterParams;
pub use timeline::{ClusterTimeline, ResourceUsage};
pub use trace::{OpOutcome, OpRecord, Phase, PhaseAggregate, PhaseBreadcrumb, Tracer};
