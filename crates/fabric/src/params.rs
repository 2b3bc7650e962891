//! Cluster model parameters.
//!
//! Defaults are **calibrated** so the full-scale benchmark harness lands in
//! the neighbourhood of the paper's headline magnitudes (60 MB/s page-blob
//! upload ceiling, ~21 MB/s block-blob upload, ~165 MB/s aggregate blob
//! download at 96 workers, ~104 MB/s sequential block-wise and ~71 MB/s
//! random page-wise download, queue Peek < Put < Get with tens of
//! milliseconds per op). `EXPERIMENTS.md` records the resulting
//! paper-vs-measured comparison; the ablation benches toggle individual
//! mechanisms.

use crate::backend::BackendProfile;
use azsim_storage::limits;
use std::time::Duration;

/// All tunable constants of the cluster latency model.
#[derive(Clone, Debug)]
pub struct ClusterParams {
    /// Number of partition servers in the fleet.
    pub servers: usize,
    /// Master seed for every deterministic random stream in the cluster.
    pub seed: u64,
    /// Probability that a dequeue skips the oldest visible message
    /// (models "FIFO is not guaranteed").
    pub fifo_fuzz: f64,

    // ---- network ----
    /// Load balancer + front-end + datacenter round trip added to every
    /// request.
    pub frontend_rtt: Duration,
    /// Default per-VM NIC bandwidth in bytes/s (a Small instance; override
    /// per actor via [`crate::Cluster::set_actor_nic`]).
    pub default_nic_bandwidth: f64,

    // ---- partition servers ----
    /// Base CPU cost of any request on its partition server.
    pub server_base_service: Duration,
    /// Shared data-path bandwidth of one partition server (all partitions
    /// placed on it share this pipe).
    pub server_bandwidth: f64,

    // ---- replication ----
    /// Extra latency for synchronizing a write across the two secondary
    /// replicas (strong consistency).
    pub replica_sync: Duration,
    /// Extra latency for propagating per-message visibility state on
    /// `GetMessage` (on top of `replica_sync`).
    pub state_sync: Duration,

    // ---- blob ----
    /// Per-blob write pipe: the documented 60 MB/s single-blob target.
    pub blob_write_bandwidth: f64,
    /// Per-blob read ceiling (replica/cache-assisted; higher than the write
    /// target, which is how the paper measures 165 MB/s aggregate download
    /// from one blob).
    pub blob_read_bandwidth: f64,
    /// Per-request overhead of `PutPage` (small: pages index directly).
    pub page_write_overhead: Duration,
    /// Per-request overhead of `PutBlock` (staging + block-index work; this
    /// is what caps block-blob upload near 21 MB/s for 1 MB blocks).
    pub block_write_overhead: Duration,
    /// Overhead of `PutBlockList` (commit).
    pub block_commit_overhead: Duration,
    /// Per-request overhead of a sequential `GetBlock`.
    pub get_block_overhead: Duration,
    /// Per-request overhead of a random-offset `GetPage` (page locate).
    pub get_page_overhead: Duration,
    /// Setup overhead of a whole-blob streaming download.
    pub download_overhead: Duration,

    // ---- queue ----
    /// Base service time of queue data-plane operations.
    pub queue_op_service: Duration,
    /// Reproduce the paper's consistently observed 16 KB `GetMessage`
    /// anomaly (Figure 6(c)).
    pub quirk_get16k: bool,
    /// Service-time multiplier applied to `GetMessage` when the payload is
    /// in the 16 KB bucket.
    pub quirk_get16k_factor: f64,

    // ---- table ----
    /// Base service time (client-visible latency component) of table
    /// data-plane operations.
    pub table_op_service: Duration,
    /// Partition-server *occupancy* of one table operation — the slot time
    /// that serializes a partition. Must allow slightly more than the
    /// 500 entities/s scalability target so the documented token bucket
    /// (not raw server saturation) is what callers hit first, as on the
    /// real service.
    pub table_op_occupancy: Duration,
    /// Extra service time of `UpdateEntity` (server-side read-modify-write;
    /// the paper finds update the most expensive table operation).
    pub table_update_extra: Duration,
    /// Extra service time of `DeleteEntity` (tombstone + index update),
    /// keeping point queries the cheapest table operation as the paper
    /// reports.
    pub table_delete_extra: Duration,
    /// Shared table front-end bandwidth for one account. This shared data
    /// path is what degrades 32/64 KB entity workloads beyond ~4 workers in
    /// Figure 8.
    pub table_frontend_bandwidth: f64,

    // ---- documented scalability targets ----
    /// Messages per second a single queue handles before throttling.
    pub queue_rate: f64,
    /// Entities per second a single table partition handles.
    pub partition_rate: f64,
    /// Transactions per second a storage account handles.
    pub account_tx_rate: f64,
    /// Aggregate bandwidth of a storage account (bytes/s).
    pub account_bandwidth: f64,
    /// Burst capacity (in operations) of the rate buckets.
    pub throttle_burst: f64,
    /// Retry hint returned with `ServerBusy`.
    pub throttle_retry_hint: Duration,

    // ---- backend policy ----
    /// Which provider's declared semantics the cluster enforces: cap
    /// structure, throttle shape and listing visibility. The default is
    /// [`BackendProfile::was`], which reproduces Windows Azure Storage
    /// exactly as the committed golden CSVs pin it; the rate fields above
    /// stay authoritative unless the profile overrides or disables them.
    pub backend: BackendProfile,
}

impl Default for ClusterParams {
    fn default() -> Self {
        const MB: f64 = limits::MB as f64;
        ClusterParams {
            servers: 64,
            seed: 42,
            fifo_fuzz: 0.05,

            frontend_rtt: Duration::from_millis(2),
            // A Small VM's 100 Mbit/s NIC.
            default_nic_bandwidth: 12.5 * MB,

            server_base_service: Duration::from_micros(500),
            server_bandwidth: 250.0 * MB,

            replica_sync: Duration::from_millis(6),
            state_sync: Duration::from_millis(10),

            blob_write_bandwidth: 60.0 * MB,
            blob_read_bandwidth: 195.0 * MB,
            page_write_overhead: Duration::from_millis(1),
            block_write_overhead: Duration::from_millis(45),
            block_commit_overhead: Duration::from_millis(20),
            get_block_overhead: Duration::from_micros(8_850),
            get_page_overhead: Duration::from_micros(13_500),
            download_overhead: Duration::from_millis(15),

            queue_op_service: Duration::from_millis(1),
            quirk_get16k: true,
            quirk_get16k_factor: 2.5,

            table_op_service: Duration::from_millis(3),
            table_op_occupancy: Duration::from_micros(1_600),
            table_update_extra: Duration::from_millis(5),
            table_delete_extra: Duration::from_millis(3),
            table_frontend_bandwidth: 22.0 * MB,

            queue_rate: limits::QUEUE_MSGS_PER_SEC,
            partition_rate: limits::PARTITION_ENTITIES_PER_SEC,
            account_tx_rate: limits::ACCOUNT_TX_PER_SEC,
            account_bandwidth: limits::ACCOUNT_BANDWIDTH,
            throttle_burst: 50.0,
            throttle_retry_hint: Duration::from_secs(1),

            backend: BackendProfile::was(),
        }
    }
}

impl ClusterParams {
    /// A parameter set with replication reduced to a single replica (no
    /// sync terms) — the ablation that collapses the paper's
    /// Peek < Put < Get ordering.
    pub fn single_replica() -> Self {
        ClusterParams {
            replica_sync: Duration::ZERO,
            state_sync: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Default parameters with the given backend profile installed.
    pub fn for_backend(profile: BackendProfile) -> Self {
        ClusterParams {
            backend: profile,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_encode_documented_targets() {
        let p = ClusterParams::default();
        assert_eq!(p.queue_rate, 500.0);
        assert_eq!(p.partition_rate, 500.0);
        assert_eq!(p.account_tx_rate, 5_000.0);
        assert_eq!(p.account_bandwidth, 3.0 * limits::GB as f64);
        assert_eq!(p.blob_write_bandwidth, 60.0 * limits::MB as f64);
    }

    #[test]
    fn queue_cost_ordering_is_built_in() {
        // Peek pays neither sync; Put pays replica_sync; Get pays both.
        let p = ClusterParams::default();
        assert!(p.replica_sync > Duration::ZERO);
        assert!(p.state_sync > Duration::ZERO);
    }

    #[test]
    fn ablation_presets() {
        let s = ClusterParams::single_replica();
        assert_eq!(s.replica_sync, Duration::ZERO);
        assert_eq!(s.state_sync, Duration::ZERO);
        // Non-ablated fields keep their defaults.
        assert_eq!(s.servers, ClusterParams::default().servers);
    }

    #[test]
    fn default_backend_is_was() {
        use crate::backend::BackendKind;
        assert_eq!(ClusterParams::default().backend.kind, BackendKind::Was);
        let p = ClusterParams::for_backend(BackendKind::S3.profile());
        assert_eq!(p.backend.kind, BackendKind::S3);
        assert_eq!(p.servers, ClusterParams::default().servers);
    }
}
