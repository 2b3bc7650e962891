//! The cluster: request pipeline, partition placement, replication and
//! throttling.
//!
//! A request's virtual latency is assembled from the stages a real request
//! crosses (paper §IV, and the WAS SOSP'11 architecture it references):
//!
//! ```text
//! client NIC ─► LB/front-end ─► account buckets ─► partition throttle
//!   ─► partition-server FIFO (base + per-class overhead)
//!   ─► data pipes (per-blob 60 MB/s write / ~170 MB/s read, per-server,
//!       shared table front-end)
//!   ─► replica synchronization (writes; + visibility state for GetMessage)
//!   ─► response over the same pipes and NIC
//! ```
//!
//! All stages are non-preemptive FIFO resources, so each operation is
//! priced analytically at arrival (one event per op in the runtime).
//!
//! [`Cluster::submit`] runs three stages, each with one owner:
//! `admission` (injected front-end faults and the declared rate limits)
//! turns a request away with one rejection or admits it; the priced
//! pipeline in this module carries an admitted request from the NIC to
//! the downlink; `accounting` feeds every telemetry sink from the one
//! [`OpRecord`] either exit builds.

mod accounting;
mod admission;

use crate::faults::{FaultInjector, FaultPlan};
use crate::metrics::ClusterMetrics;
use crate::params::ClusterParams;
use crate::timeline::ClusterTimeline;
use crate::trace::{OpOutcome, OpRecord, Phase, PhaseBreadcrumb, Tracer};
use admission::ObjectUpdateLimiter;
use azsim_blob::BlobStore;
use azsim_core::resource::{FifoServer, Pipe, TokenBucket};
use azsim_core::runtime::{ActorId, Model};
use azsim_core::SimTime;
use azsim_queue::QueueStore;
use azsim_storage::{
    OpClass, PartitionKey, PartitionRef, Service, StorageError, StorageOk, StorageRequest,
    StorageResult, SyncClass,
};
use azsim_table::TableStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// All simulated resources of one partition, created the first time the
/// partition is addressed and thereafter reached through a dense interned
/// id — one hash of the *borrowed* key per operation instead of five owned
/// `HashMap<PartitionKey, _>` probes with per-op `String` clones.
///
/// Eager creation is sound because every resource's initial state is
/// creation-time independent: a [`FifoServer`] starts free, a [`Pipe`]
/// transfers zero-cost until first use, and a [`TokenBucket`] starts full
/// (refill is capped at burst, so "created long ago" ≡ "created now").
struct PartitionSlot {
    /// Owned key, materialized once (fault rules compare against it).
    key: PartitionKey,
    /// Cached partition-server placement.
    server: usize,
    /// Per-partition request serialization.
    fifo: FifoServer,
    /// Per-blob write pipe (blob partitions only).
    write_pipe: Option<Pipe>,
    /// Per-blob read pipe (blob partitions only).
    read_pipe: Option<Pipe>,
    /// 500 msg/s queue bucket or 500 entities/s table-partition bucket.
    bucket: Option<TokenBucket>,
    /// Operations addressed to this partition (hot-key heatmap).
    ops: u64,
    /// Operations rejected by this partition's throttle.
    throttled: u64,
}

/// The simulated storage cluster for one account.
pub struct Cluster {
    params: ClusterParams,
    blobs: BlobStore,
    queues: QueueStore,
    tables: TableStore,
    /// Stable hash → slot-id candidates (more than one only on a collision).
    intern: HashMap<u64, Vec<u32>>,
    /// Interned partition resources, indexed by slot id.
    slots: Vec<PartitionSlot>,
    server_rx: Vec<Pipe>,
    server_tx: Vec<Pipe>,
    table_frontend: Pipe,
    account_up: Pipe,
    account_down: Pipe,
    account_tx: TokenBucket,
    /// Consecutive account-scope throttle rejections — drives the S3
    /// `SlowDown` doubling curve and GCS pushback; reset whenever a
    /// request is admitted. Unused under WAS's deficit-hint shape.
    account_pushback: u32,
    /// Per-object mutation limiter, present iff the backend declares an
    /// object update rate (GCS).
    object_update: Option<ObjectUpdateLimiter>,
    /// Eventual list-after-write overlay, present iff the backend declares
    /// a listing visibility window (S3): `(container, blob)` → the time the
    /// blob becomes listable.
    list_visibility: Option<HashMap<(String, String), SimTime>>,
    /// Per-actor NICs, indexed by actor id (grown on demand; `None` until
    /// the actor's first request or its [`Cluster::set_actor_nic`]).
    nics: Vec<Option<Pipe>>,
    metrics: ClusterMetrics,
    tracer: Option<Tracer>,
    timeline: Option<ClusterTimeline>,
    faults: FaultInjector,
}

impl Cluster {
    /// Build a cluster from parameters.
    pub fn new(params: ClusterParams) -> Self {
        // Every shared pipe is full duplex (separate uplink and downlink
        // lanes): within one operation the uplink is crossed early and the
        // downlink late, so a half-duplex pipe would let late downlink
        // timestamps falsely delay the next operation's uplink.
        let server_rx = (0..params.servers)
            .map(|_| Pipe::new(params.server_bandwidth))
            .collect();
        let server_tx = (0..params.servers)
            .map(|_| Pipe::new(params.server_bandwidth))
            .collect();
        // The backend profile decides the account transaction rate: WAS
        // uses the documented 5 000 tx/s, peers may override it, and a
        // cap-free profile (`file`) gets a bucket so large it can never
        // engage — keeping the field non-optional so telemetry and
        // resource accounting are uniform across backends.
        let account_rate = if params.backend.account_cap {
            params
                .backend
                .account_rate_override
                .unwrap_or(params.account_tx_rate)
        } else {
            1e12
        };
        Cluster {
            blobs: BlobStore::new(),
            queues: QueueStore::new(params.seed, params.fifo_fuzz),
            tables: TableStore::new(),
            intern: HashMap::new(),
            slots: Vec::new(),
            server_rx,
            server_tx,
            table_frontend: Pipe::new(params.table_frontend_bandwidth),
            account_up: Pipe::new(params.account_bandwidth),
            account_down: Pipe::new(params.account_bandwidth),
            account_tx: TokenBucket::new(
                account_rate,
                params.throttle_burst.max(account_rate / 10.0),
            ),
            account_pushback: 0,
            object_update: params
                .backend
                .object_update_rate
                .map(ObjectUpdateLimiter::new),
            list_visibility: params
                .backend
                .list_visibility_window
                .map(|_| HashMap::new()),
            nics: Vec::new(),
            metrics: ClusterMetrics::new(),
            tracer: None,
            timeline: None,
            faults: FaultInjector::inert(),
            params,
        }
    }

    /// Dense id for a partition, creating its resources on first sight.
    fn intern(&mut self, pr: PartitionRef<'_>) -> usize {
        let h = pr.stable_hash();
        let ids = self.intern.entry(h).or_default();
        for &id in ids.iter() {
            if pr.matches(&self.slots[id as usize].key) {
                return id as usize;
            }
        }
        let id = self.slots.len() as u32;
        ids.push(id);
        let key = pr.to_key();
        let p = &self.params;
        let (write_pipe, read_pipe, bucket) = match &key {
            PartitionKey::Blob { .. } => (
                Some(Pipe::new(p.blob_write_bandwidth)),
                Some(Pipe::new(p.blob_read_bandwidth)),
                None,
            ),
            PartitionKey::Queue { .. } => (
                None,
                None,
                p.backend
                    .per_partition_caps
                    .then(|| TokenBucket::new(p.queue_rate, p.throttle_burst)),
            ),
            PartitionKey::Table { .. } => (
                None,
                None,
                p.backend
                    .per_partition_caps
                    .then(|| TokenBucket::new(p.partition_rate, p.throttle_burst)),
            ),
            PartitionKey::Control => (None, None, None),
        };
        self.slots.push(PartitionSlot {
            server: pr.server_index(p.servers),
            key,
            fifo: FifoServer::new(),
            write_pipe,
            read_pipe,
            bucket,
            ops: 0,
            throttled: 0,
        });
        id as usize
    }

    /// A cluster with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(ClusterParams::default())
    }

    /// Override one role instance's NIC bandwidth (bytes/s) — used by the
    /// compute layer to express VM sizes. Call it before the actor's first
    /// request: it installs a fresh pipe, and an unused pipe holds no state.
    pub fn set_actor_nic(&mut self, actor: usize, bytes_per_sec: f64) {
        *self.nic_entry(actor) = Some(Pipe::new(bytes_per_sec));
    }

    /// Cluster parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Install a fault plan. The default plan is inert; a non-inert plan
    /// makes the cluster inject the scheduled and probabilistic faults it
    /// describes. Install before the first request for reproducibility.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Ground-truth audit of one queue's live messages at `now` — the
    /// final-state evidence the verification layer checks invariants
    /// against (bypasses pricing, faults and metrics entirely).
    pub fn queue_audit(
        &self,
        now: SimTime,
        name: &str,
    ) -> azsim_storage::StorageResult<Vec<azsim_queue::AuditedMessage>> {
        self.queues.audit(now, name)
    }

    /// Ground-truth point read of one table entity (verification only;
    /// bypasses pricing, faults and metrics).
    pub fn table_entity(
        &self,
        table: &str,
        partition: &str,
        row: &str,
    ) -> Option<azsim_storage::Entity> {
        self.tables
            .query(table, partition, row)
            .ok()
            .flatten()
            .map(|(e, _)| e)
    }

    /// Read access to the blob namespace (tests, examples).
    pub fn blob_store(&self) -> &BlobStore {
        &self.blobs
    }

    /// Mutable access to the queue namespace (tests, fault injection).
    pub fn queue_store_mut(&mut self) -> &mut QueueStore {
        &mut self.queues
    }

    /// Read access to the table namespace.
    pub fn table_store(&self) -> &TableStore {
        &self.tables
    }

    fn nic_entry(&mut self, actor: usize) -> &mut Option<Pipe> {
        if actor >= self.nics.len() {
            self.nics.resize_with(actor + 1, || None);
        }
        &mut self.nics[actor]
    }

    /// The actor's NIC, created at the default bandwidth on first use.
    fn nic(&mut self, actor: usize) -> &mut Pipe {
        let bandwidth = self.params.default_nic_bandwidth;
        self.nic_entry(actor)
            .get_or_insert_with(|| Pipe::new(bandwidth))
    }

    /// Per-class service-time overhead on the partition server. This is
    /// where the blob-path asymmetries live (block staging vs page write,
    /// sequential block read vs random page locate).
    fn class_overhead(&self, class: OpClass) -> Duration {
        let p = &self.params;
        match class {
            OpClass::BlobPutPage => p.page_write_overhead,
            OpClass::BlobPutBlock | OpClass::BlobUploadSingle => p.block_write_overhead,
            OpClass::BlobPutBlockList => p.block_commit_overhead,
            OpClass::BlobGetBlock => p.get_block_overhead,
            OpClass::BlobGetPage => p.get_page_overhead,
            OpClass::BlobDownload => p.download_overhead,
            OpClass::BlobCreateContainer
            | OpClass::BlobCreatePage
            | OpClass::BlobDelete
            | OpClass::BlobList => Duration::from_millis(1),
            OpClass::QueueCreate | OpClass::QueueDelete | OpClass::QueueClear => {
                Duration::from_millis(1)
            }
            OpClass::QueuePut
            | OpClass::QueueGet
            | OpClass::QueuePeek
            | OpClass::QueueDeleteMsg
            | OpClass::QueueCount => p.queue_op_service,
            OpClass::TableCreate | OpClass::TableDelete => Duration::from_millis(1),
            // An entity-group transaction is one round trip and one log
            // append: base table service regardless of operation count
            // (per-row work is priced via occupancy in `submit`).
            OpClass::TableBatch => p.table_op_service,
            OpClass::TableUpdate => p.table_op_service + p.table_update_extra,
            OpClass::TableDeleteEntity => p.table_op_service + p.table_delete_extra,
            OpClass::TableInsert | OpClass::TableQuery | OpClass::TableQueryPartition => {
                p.table_op_service
            }
        }
    }

    /// Deterministic listing lag for one blob in `[0, window]`: FNV-1a over
    /// the blob address and cluster seed, scaled into the window. A fixed
    /// hash (not the std hasher) keeps the lag stable across toolchains, so
    /// per-backend golden CSVs stay bit-identical.
    fn listing_lag(&self, container: &str, blob: &str, window: Duration) -> Duration {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET ^ self.params.seed;
        for byte in container
            .as_bytes()
            .iter()
            .chain([0xffu8].iter())
            .chain(blob.as_bytes())
        {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        window.mul_f64((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Record when a freshly committed blob becomes listable (no-op unless
    /// the backend declares a visibility window). `entry().or_insert` keeps
    /// visibility monotonic: overwriting an already-listable blob never
    /// makes it flicker back out of listings.
    fn note_blob_listable(&mut self, now: SimTime, container: &str, blob: &str) {
        let Some(window) = self.params.backend.list_visibility_window else {
            return;
        };
        let lag = self.listing_lag(container, blob, window);
        if let Some(map) = self.list_visibility.as_mut() {
            map.entry((container.to_string(), blob.to_string()))
                .or_insert(now + lag);
        }
    }

    /// Execute the state transition at the partition's service-start time.
    fn apply(&mut self, now: SimTime, req: &StorageRequest) -> StorageResult<StorageOk> {
        use StorageRequest::*;
        match req {
            CreateContainer { container } => self
                .blobs
                .create_container(container)
                .map(|_| StorageOk::Ack),
            PutBlock {
                container,
                blob,
                block_id,
                data,
            } => self
                .blobs
                .put_block(container, blob, block_id.clone(), data.clone())
                .map(|_| StorageOk::Ack),
            PutBlockList {
                container,
                blob,
                block_ids,
            } => {
                let r = self.blobs.put_block_list(container, blob, block_ids);
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            UploadBlockBlob {
                container,
                blob,
                data,
            } => {
                let r = self.blobs.upload_block_blob(container, blob, data.clone());
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            GetBlock {
                container,
                blob,
                index,
            } => self
                .blobs
                .get_block(container, blob, *index)
                .map(StorageOk::Data),
            DownloadBlob { container, blob } => {
                self.blobs.download(container, blob).map(StorageOk::Data)
            }
            CreatePageBlob {
                container,
                blob,
                size,
            } => {
                let r = self.blobs.create_page_blob(container, blob, *size);
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            PutPage {
                container,
                blob,
                offset,
                data,
            } => self
                .blobs
                .put_page(container, blob, *offset, data.clone())
                .map(|_| StorageOk::Ack),
            GetPage {
                container,
                blob,
                offset,
                length,
            } => self
                .blobs
                .get_page(container, blob, *offset, *length)
                .map(StorageOk::Data),
            DeleteBlob { container, blob } => {
                let r = self.blobs.delete(container, blob);
                if r.is_ok() {
                    if let Some(map) = self.list_visibility.as_mut() {
                        map.remove(&(container.clone(), blob.clone()));
                    }
                }
                r.map(|_| StorageOk::Ack)
            }
            ListBlobs { container } => {
                let names = self.blobs.list_blobs(container)?;
                // Eventual list-after-write: suppress blobs whose listing
                // visibility time has not arrived yet. Blobs without an
                // entry predate the overlay's knowledge and list normally.
                let names = match &self.list_visibility {
                    Some(map) => names
                        .into_iter()
                        .filter(|b| {
                            map.get(&(container.clone(), b.clone()))
                                .is_none_or(|&visible_at| visible_at <= now)
                        })
                        .collect(),
                    None => names,
                };
                Ok(StorageOk::Names(names))
            }
            CreateQueue { queue } => self.queues.create_queue(queue).map(|_| StorageOk::Ack),
            DeleteQueue { queue } => self.queues.delete_queue(queue).map(|_| StorageOk::Ack),
            PutMessage { queue, data, ttl } => self
                .queues
                .put(now, queue, data.clone(), *ttl)
                .map(|_| StorageOk::Ack),
            GetMessage {
                queue,
                visibility_timeout,
            } => self
                .queues
                .get(now, queue, *visibility_timeout)
                .map(StorageOk::Message),
            PeekMessage { queue } => self.queues.peek(now, queue).map(StorageOk::Peeked),
            DeleteMessage {
                queue,
                id,
                pop_receipt,
            } => self
                .queues
                .delete_message(queue, *id, *pop_receipt)
                .map(|_| StorageOk::Ack),
            GetMessageCount { queue } => self
                .queues
                .approximate_count(now, queue)
                .map(StorageOk::Count),
            ClearQueue { queue } => self.queues.clear(now, queue).map(StorageOk::Count),
            CreateTable { table } => self.tables.create_table(table).map(|_| StorageOk::Ack),
            DeleteTable { table } => self.tables.delete_table(table).map(|_| StorageOk::Ack),
            InsertEntity { table, entity } => self
                .tables
                .insert(table, entity.clone())
                .map(StorageOk::Tag),
            QueryEntity {
                table,
                partition,
                row,
            } => self
                .tables
                .query(table, partition, row)
                .map(StorageOk::Entity),
            QueryPartition { table, partition } => self
                .tables
                .query_partition(table, partition)
                .map(StorageOk::Entities),
            UpdateEntity {
                table,
                entity,
                condition,
            } => self
                .tables
                .update(table, entity.clone(), *condition)
                .map(StorageOk::Tag),
            ExecuteBatch {
                table,
                partition,
                ops,
            } => self
                .tables
                .execute_batch(table, partition, ops)
                .map(StorageOk::BatchTags),
            DeleteEntity {
                table,
                partition,
                row,
                condition,
            } => self
                .tables
                .delete(table, partition, row, *condition)
                .map(|_| StorageOk::Ack),
        }
    }

    /// Whether the 16 KB `GetMessage` anomaly applies to this payload.
    fn quirk_applies(&self, class: OpClass, bytes_down: u64) -> bool {
        self.params.quirk_get16k
            && class == OpClass::QueueGet
            && (12 * 1024 < bytes_down && bytes_down <= 24 * 1024)
    }

    /// Price and execute one request arriving at `now` from `actor`.
    /// Returns `(completion_time, result)`.
    pub fn submit(
        &mut self,
        now: SimTime,
        actor: usize,
        req: &StorageRequest,
    ) -> (SimTime, StorageResult<StorageOk>) {
        let class = req.class();
        let slot = self.intern(req.partition_ref());
        self.slots[slot].ops += 1;
        if self.timeline.is_some() {
            self.sample_timeline(now, actor, slot);
        }
        let up = req.payload_bytes_up();

        // Uplink: client NIC, then LB/front-end.
        let t_front = self.nic(actor).transfer(now, up).1 + self.params.frontend_rtt;

        // Admission. A rejection answers from the front end: the time up to
        // it is client send, the rest the rejection round trip (or the
        // elapsed timeout of a drop).
        let mut ack_loss = match self.admit(t_front, class, slot, req) {
            Ok(ack_loss) => ack_loss,
            Err(rejection) => {
                let mut phases = PhaseBreadcrumb::new();
                phases.add(Phase::ClientSend, t_front.saturating_since(now));
                phases.add(
                    Phase::Rejection,
                    rejection.completed.saturating_since(t_front),
                );
                let op = OpRecord {
                    issued: now,
                    completed: rejection.completed,
                    actor,
                    class,
                    partition: slot as u32,
                    outcome: rejection.outcome,
                    throttled: rejection.throttled,
                    bytes_up: up,
                    bytes_down: 0,
                    phases,
                };
                return self.finish(op, Err(rejection.error));
            }
        };

        // Account + server data path for the uplink payload; blob writes
        // additionally cross the per-blob write pipe (the 60 MB/s
        // single-blob target).
        let sidx = self.slots[slot].server;
        let mut t = self.account_up.transfer(t_front, up).1;
        t = self.server_rx[sidx].transfer(t, up).1;
        let blob_write = matches!(
            class,
            OpClass::BlobPutBlock | OpClass::BlobPutPage | OpClass::BlobUploadSingle
        );
        if let Some(pipe) = self.slots[slot].write_pipe.as_mut().filter(|_| blob_write) {
            t = pipe.transfer(t, up).1;
        }

        // Partition-server FIFO, serialized per partition (the unit of
        // serialization in WAS). Partition servers pipeline requests, so a
        // request's *occupancy* (the slot time that limits partition
        // throughput) can be smaller than its client-visible service
        // latency; the residual is added after the FIFO as pure latency.
        // For table ops the occupancy is sized so the documented 500
        // entities/s bucket — not raw server saturation — binds first.
        let service = self.params.server_base_service + self.class_overhead(class);
        let occupancy = if class.service() == Service::Table && !class.is_control() {
            let base = self.params.server_base_service + self.params.table_op_occupancy;
            if let StorageRequest::ExecuteBatch { ops, .. } = req {
                // Batched rows share the slot but each adds a little
                // per-row work on the partition server.
                base + Duration::from_micros(200) * ops.len() as u32
            } else {
                base
            }
        } else {
            service
        };
        let latency_extra = service.saturating_sub(occupancy);
        let t_arrive = t;
        let (start, t_fifo) = self.slots[slot].fifo.admit(t, occupancy);
        let mut t = t_fifo + latency_extra;

        // Execute the state transition at service start.
        let result = self.apply(start, req);
        let down = result
            .as_ref()
            .map(|ok| ok.payload_bytes_down())
            .unwrap_or(0);

        // The paper's unexplained 16 KB GetMessage anomaly, modeled as a
        // server-side service-time pathology at that payload bucket (a
        // failed request carries no payload, so it never pays it).
        if self.quirk_applies(class, down) {
            t += (self.params.queue_op_service + self.params.replica_sync + self.params.state_sync)
                .mul_f64(self.params.quirk_get16k_factor - 1.0);
        }
        let t_service_end = t;
        let sync = class.sync_class();
        if result.is_ok() && sync != SyncClass::ReadPrimary {
            // Strong consistency: replicate writes; GetMessage also
            // propagates visibility state. An injected stall models a
            // slow secondary holding up the synchronous ack.
            t += self.params.replica_sync;
            if sync == SyncClass::ReplicateState {
                t += self.params.state_sync;
            }
            if let Some(stall) = self.faults.replica_stall() {
                t += stall;
            }
            // Mid-window crash semantics: a crash that begins while the
            // write is still syncing applies it on the primary, but the
            // ack never leaves the dying server — the client observes a
            // timeout for an operation that executed.
            if ack_loss.is_none() {
                ack_loss = self.faults.ack_cut_by_crash(sidx, start, t);
            }
        }
        let t_replica_end = t;

        // Downlink: blob reads cross the per-blob read path; table payloads
        // cross the shared table front-end; everything crosses the server,
        // account and NIC pipes.
        let blob_read = matches!(
            class,
            OpClass::BlobGetBlock | OpClass::BlobGetPage | OpClass::BlobDownload
        );
        if let Some(pipe) = self.slots[slot].read_pipe.as_mut().filter(|_| blob_read) {
            t = pipe.transfer(t, down).1;
        }
        if class.service() == Service::Table && !class.is_control() {
            t = self.table_frontend.transfer(t, up + down).1;
        }
        t = self.server_tx[sidx].transfer(t, down).1;
        t = self.account_down.transfer(t, down).1;
        t = self.nic(actor).transfer(t, down).1;

        // A lost ack: the operation ran to completion above (state
        // transition, replication, even the response transfers — the loss
        // happens en route), but the client's wait expires instead, and
        // no response bytes arrive. A request the state machine rejected
        // (e.g. AlreadyExists) changed nothing, and its definite answer
        // was lost with the ack.
        let ok = result.is_ok();
        let (outcome, completed, last_phase, bytes_down, result) = match ack_loss {
            None => (
                if ok { OpOutcome::Ok } else { OpOutcome::Error },
                t,
                Phase::Transfer,
                down,
                result,
            ),
            Some(elapsed) => (
                if ok {
                    OpOutcome::TimedOutExecuted
                } else {
                    OpOutcome::TimedOutLost
                },
                (t_front + elapsed).max(t),
                Phase::Rejection,
                0,
                Err(StorageError::Timeout { elapsed }),
            ),
        };

        // Stage boundaries partition [now, completed] exactly: client send
        // up to FIFO arrival, queue wait to service start, service through
        // the quirk, replica sync, then the downlink transfer (or the wait
        // for a lost ack).
        let mut phases = PhaseBreadcrumb::new();
        phases.add(Phase::ClientSend, t_arrive.saturating_since(now));
        phases.add(Phase::QueueWait, start.saturating_since(t_arrive));
        phases.add(Phase::Service, t_service_end.saturating_since(start));
        phases.add(
            Phase::ReplicaSync,
            t_replica_end.saturating_since(t_service_end),
        );
        phases.add(last_phase, completed.saturating_since(t_replica_end));
        let op = OpRecord {
            issued: now,
            completed,
            actor,
            class,
            partition: slot as u32,
            outcome,
            throttled: false,
            bytes_up: up,
            bytes_down,
            phases,
        };
        self.finish(op, result)
    }
}

/// A request travels as an `Arc` so a client's retry attempts share one
/// allocation; `Arc` rather than `Rc` because `Model::Req` must be `Send`.
impl Model for Cluster {
    type Req = Arc<StorageRequest>;
    type Resp = StorageResult<StorageOk>;

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        req: Arc<StorageRequest>,
    ) -> (SimTime, StorageResult<StorageOk>) {
        self.submit(now, actor.0, &req)
    }
}

impl azsim_core::ShardableModel for Cluster {
    /// One storage account is fully coupled — every request crosses the
    /// shared account pipes and transaction bucket — so a `Cluster` only
    /// splits into itself. Run single-account scenarios under
    /// `ShardPlan::colocated`; multi-account parallelism lives in
    /// [`crate::fleet::Fleet`], where the account boundary is the partition
    /// boundary.
    fn split(self, partitions: u32) -> Vec<Self> {
        assert_eq!(
            partitions, 1,
            "a Cluster models one account and cannot be split across \
             partitions (use Fleet for multi-account plans)"
        );
        vec![self]
    }

    fn merge(mut parts: Vec<Self>) -> Self {
        assert_eq!(parts.len(), 1, "Cluster::merge expects one partition");
        parts.pop().expect("one partition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn cluster() -> Cluster {
        Cluster::with_defaults()
    }

    fn put_msg(queue: &str, bytes: usize) -> StorageRequest {
        StorageRequest::PutMessage {
            queue: queue.into(),
            data: Bytes::from(vec![7u8; bytes]),
            ttl: None,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn queue_roundtrip_through_cluster() {
        let mut c = cluster();
        let (_, r) = c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() });
        r.unwrap();
        let (t1, r) = c.submit(at(10), 0, &put_msg("q", 100));
        r.unwrap();
        assert!(t1 > at(10));
        let (_, r) = c.submit(
            t1,
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(30),
            },
        );
        match r.unwrap() {
            StorageOk::Message(Some(m)) => assert_eq!(m.data.len(), 100),
            other => panic!("expected message, got {other:?}"),
        }
        assert_eq!(c.metrics().total_completed(), 3);
    }

    #[test]
    fn peek_put_get_cost_ordering() {
        // The paper's core queue finding: Peek < Put < Get.
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        // Preload two messages so both peek and get find one.
        c.submit(at(100), 0, &put_msg("q", 1024)).1.unwrap();
        let (t_put_end, _) = c.submit(at(200), 0, &put_msg("q", 1024));
        let put_cost = t_put_end - at(200);

        let (t_peek_end, r) = c.submit(
            at(300),
            0,
            &StorageRequest::PeekMessage { queue: "q".into() },
        );
        assert!(matches!(r.unwrap(), StorageOk::Peeked(Some(_))));
        let peek_cost = t_peek_end - at(300);

        let (t_get_end, r) = c.submit(
            at(400),
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(30),
            },
        );
        assert!(matches!(r.unwrap(), StorageOk::Message(Some(_))));
        let get_cost = t_get_end - at(400);

        assert!(
            peek_cost < put_cost && put_cost < get_cost,
            "expected peek {peek_cost:?} < put {put_cost:?} < get {get_cost:?}"
        );
    }

    #[test]
    fn queue_throttles_at_500_per_second() {
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        // Slam far more than burst + rate ops into one virtual instant.
        let mut throttled = 0;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &put_msg("q", 16));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                throttled += 1;
            }
        }
        assert!(throttled > 0, "500 msg/s target must engage");
        assert_eq!(c.metrics().total_throttled(), throttled);
        // After a second of virtual idle time the bucket refills.
        let (_, r) = c.submit(at(1_500), 0, &put_msg("q", 16));
        r.unwrap();
    }

    #[test]
    fn throttle_retry_hint_is_a_floor_not_a_cap() {
        // A tiny refill rate makes the bucket's computed wait exceed the 1 s
        // hint: the client must be told the real deficit.
        let mut c = Cluster::new(ClusterParams {
            queue_rate: 0.5,
            throttle_burst: 1.0,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        match r {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert!(
                    retry_after > Duration::from_secs(1),
                    "computed wait {retry_after:?} must exceed the configured floor"
                );
            }
            other => panic!("expected ServerBusy, got {other:?}"),
        }
        // A mild deficit is still clamped up to the configured floor.
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 1.0,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        match r {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert_eq!(retry_after, c.params().throttle_retry_hint);
            }
            other => panic!("expected ServerBusy, got {other:?}"),
        }
    }

    #[test]
    fn interner_reuses_partition_slots() {
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        for i in 0..10 {
            c.submit(at(10 + i), 0, &put_msg("q", 16)).1.unwrap();
        }
        // One slot for the control partition, one for queue "q" — repeated
        // operations reuse the interned slot instead of re-keying maps.
        assert_eq!(c.slots.len(), 2);
        assert_eq!(c.slots[1].key, PartitionKey::Queue { queue: "q".into() });
        assert!(c.slots[1].bucket.is_some());
        assert!(c.slots[1].write_pipe.is_none());
    }

    #[test]
    fn separate_queues_do_not_share_throttle() {
        let mut c = cluster();
        for q in ["a", "b"] {
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.into() })
                .1
                .unwrap();
        }
        // Exhaust queue a's bucket.
        let mut a_throttled = false;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &put_msg("a", 16));
            a_throttled |= matches!(r, Err(StorageError::ServerBusy { .. }));
        }
        assert!(a_throttled);
        // Queue b is unaffected.
        let (_, r) = c.submit(at(1), 0, &put_msg("b", 16));
        r.unwrap();
    }

    #[test]
    fn table_partition_throttles_independently() {
        use azsim_storage::{Entity, PropValue};
        let mut c = Cluster::new(ClusterParams {
            // Make the account bucket irrelevant for this test.
            account_tx_rate: 1e9,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateTable { table: "t".into() })
            .1
            .unwrap();
        let insert = |pk: &str, rk: usize| StorageRequest::InsertEntity {
            table: "t".into(),
            entity: Entity::new(pk, rk.to_string()).with("v", PropValue::I64(1)),
        };
        let mut hot_throttled = 0;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &insert("hot", i));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                hot_throttled += 1;
            }
        }
        assert!(
            hot_throttled > 0,
            "500 entities/s per partition must engage"
        );
        // A different partition of the same table is fine.
        let (_, r) = c.submit(at(1), 0, &insert("cold", 0));
        r.unwrap();
    }

    #[test]
    fn block_upload_slower_than_page_upload() {
        // Figure 4's asymmetry: page-blob writes are cheap, block staging is
        // expensive.
        let mut c = cluster();
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(0),
            0,
            &StorageRequest::CreatePageBlob {
                container: "c".into(),
                blob: "p".into(),
                size: 4 * 1024 * 1024,
            },
        )
        .1
        .unwrap();
        let mb = Bytes::from(vec![1u8; 1024 * 1024]);
        let (t_end, r) = c.submit(
            at(1_000),
            0,
            &StorageRequest::PutPage {
                container: "c".into(),
                blob: "p".into(),
                offset: 0,
                data: mb.clone(),
            },
        );
        r.unwrap();
        let page_cost = t_end - at(1_000);
        let (t_end, r) = c.submit(
            at(2_000),
            0,
            &StorageRequest::PutBlock {
                container: "c".into(),
                blob: "b".into(),
                block_id: "0".into(),
                data: mb,
            },
        );
        r.unwrap();
        let block_cost = t_end - at(2_000);
        assert!(
            block_cost > page_cost + Duration::from_millis(20),
            "block {block_cost:?} must be well above page {page_cost:?}"
        );
    }

    #[test]
    fn get16k_quirk_is_togglable() {
        let run = |quirk: bool| {
            let mut c = Cluster::new(ClusterParams {
                quirk_get16k: quirk,
                ..ClusterParams::default()
            });
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            c.submit(at(10), 0, &put_msg("q", 16 * 1024)).1.unwrap();
            let (t_end, r) = c.submit(
                at(2_000),
                0,
                &StorageRequest::GetMessage {
                    queue: "q".into(),
                    visibility_timeout: Duration::from_secs(30),
                },
            );
            assert!(matches!(r.unwrap(), StorageOk::Message(Some(_))));
            t_end - at(2_000)
        };
        let with_quirk = run(true);
        let without = run(false);
        assert!(
            with_quirk > without + Duration::from_millis(10),
            "quirk on {with_quirk:?} must exceed off {without:?}"
        );
    }

    #[test]
    fn quirk_spares_other_sizes() {
        let cost_for = |payload: usize| {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            c.submit(at(10), 0, &put_msg("q", payload)).1.unwrap();
            let (t_end, _) = c.submit(
                at(2_000),
                0,
                &StorageRequest::GetMessage {
                    queue: "q".into(),
                    visibility_timeout: Duration::from_secs(30),
                },
            );
            t_end - at(2_000)
        };
        let c4 = cost_for(4 * 1024);
        let c16 = cost_for(16 * 1024);
        let c48 = cost_for(48 * 1024);
        // The anomaly: 16 KB is slower than both smaller AND larger sizes.
        assert!(c16 > c4, "16K {c16:?} must exceed 4K {c4:?}");
        assert!(c16 > c48, "16K {c16:?} must exceed 48K {c48:?}");
    }

    #[test]
    fn errors_do_not_pay_replication() {
        let mut c = cluster();
        // Miss: queue exists but is empty — still a fast primary read.
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_end, r) = c.submit(
            at(100),
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(1),
            },
        );
        assert!(matches!(r.unwrap(), StorageOk::Message(None)));
        // Semantic error: unknown queue.
        let (t_err, r) = c.submit(
            at(200),
            0,
            &StorageRequest::PutMessage {
                queue: "nope".into(),
                data: Bytes::new(),
                ttl: None,
            },
        );
        assert!(matches!(r, Err(StorageError::QueueNotFound(_))));
        assert!(t_end > at(100) && t_err > at(200));
        assert_eq!(c.metrics().counter(OpClass::QueuePut).unwrap().failed, 1);
    }

    #[test]
    fn nic_override_changes_transfer_time() {
        let mut slow = cluster();
        slow.set_actor_nic(0, 1_000_000.0); // 1 MB/s
        slow.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_slow, _) = slow.submit(at(100), 0, &put_msg("q", 48 * 1024));

        let mut fast = cluster();
        fast.set_actor_nic(0, 1e9); // 1 GB/s
        fast.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_fast, _) = fast.submit(at(100), 0, &put_msg("q", 48 * 1024));
        assert!(t_slow - at(100) > t_fast - at(100));
    }

    #[test]
    fn tracing_records_operations_when_enabled() {
        let mut c = cluster();
        assert!(c.tracer().is_none(), "tracing is off by default");
        c.enable_tracing(100);
        c.submit(at(0), 3, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(10), 3, &put_msg("q", 256)).1.unwrap();
        c.submit(
            at(20),
            4,
            &StorageRequest::PutMessage {
                queue: "missing".into(),
                data: Bytes::new(),
                ttl: None,
            },
        )
        .1
        .unwrap_err();
        let tr = c.tracer().unwrap();
        assert_eq!(tr.records().len(), 3);
        let r = &tr.records()[1];
        assert_eq!(r.actor, 3);
        assert_eq!(r.class, OpClass::QueuePut);
        assert_eq!(r.outcome, OpOutcome::Ok);
        assert_eq!(r.bytes_up, 256);
        assert!(r.latency() > Duration::ZERO);
        assert_eq!(c.partition_key(r.partition).to_string(), "queue:q");
        assert_eq!(tr.records()[2].outcome, OpOutcome::Error);
    }

    /// The recorder's two switches compose: the buffer keeps the largest
    /// capacity requested (a history asks for every op), and the aggregate
    /// sees every op whatever the buffer keeps.
    #[test]
    fn tracing_history_and_profiling_share_one_recorder() {
        let ops = 40;
        for profiled in [false, true] {
            let mut c = cluster();
            c.enable_tracing(16);
            c.enable_history();
            if profiled {
                c.enable_phase_profiling();
            }
            c.enable_tracing(8);
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            for i in 1..ops {
                c.submit(at(i), 0, &put_msg("q", 64)).1.unwrap();
            }
            let tr = c.tracer().unwrap();
            assert_eq!(tr.records().len(), ops as usize, "history keeps every op");
            assert_eq!(tr.dropped(), 0);
            assert_eq!(
                tr.phase_stats().map(|a| a.total_records()),
                profiled.then_some(ops)
            );
        }
    }

    #[test]
    fn tracing_marks_throttled_ops() {
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 1.0,
            queue_rate: 1.0,
            ..ClusterParams::default()
        });
        c.enable_tracing(100);
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        assert!(matches!(r, Err(StorageError::ServerBusy { .. })));
        let outcomes: Vec<_> = c
            .tracer()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.outcome)
            .collect();
        assert!(outcomes.contains(&OpOutcome::Throttled));
    }

    #[test]
    fn timeline_sampling_never_changes_completion_times() {
        // A mix of block and page blob writes and reads, queue ops and
        // table ops that the account, queue and table buckets all throttle,
        // with and without the timeline: every virtual completion time and
        // result must be bit-identical, because sampling reads only
        // side-effect-free accessors.
        use azsim_storage::Entity;
        let run = |sampled: bool| {
            let mut c = Cluster::new(ClusterParams {
                throttle_burst: 3.0,
                queue_rate: 25.0,
                partition_rate: 12.0,
                account_tx_rate: 100.0,
                ..ClusterParams::default()
            });
            if sampled {
                c.enable_timeline(Duration::from_millis(50));
            }
            for setup in [
                StorageRequest::CreateQueue { queue: "q".into() },
                StorageRequest::CreateTable { table: "t".into() },
                StorageRequest::CreateContainer {
                    container: "c".into(),
                },
                StorageRequest::CreatePageBlob {
                    container: "c".into(),
                    blob: "p".into(),
                    size: 1 << 20,
                },
            ] {
                c.submit(at(0), 0, &setup).1.unwrap();
            }
            let mut ends = Vec::new();
            for i in 0..400u64 {
                let page = (i % 32) * 4096;
                let req = match i % 10 {
                    0 => put_msg("q", 900),
                    1 => StorageRequest::GetMessage {
                        queue: "q".into(),
                        visibility_timeout: Duration::from_secs(30),
                    },
                    2 => StorageRequest::PeekMessage { queue: "q".into() },
                    3 => StorageRequest::PutBlock {
                        container: "c".into(),
                        blob: "b".into(),
                        block_id: format!("{i:05}"),
                        data: Bytes::from(vec![1u8; 64 * 1024]),
                    },
                    4 => StorageRequest::UploadBlockBlob {
                        container: "c".into(),
                        blob: "u".into(),
                        data: Bytes::from(vec![2u8; 256 * 1024]),
                    },
                    5 => StorageRequest::DownloadBlob {
                        container: "c".into(),
                        blob: "u".into(),
                    },
                    6 => StorageRequest::PutPage {
                        container: "c".into(),
                        blob: "p".into(),
                        offset: page,
                        data: Bytes::from(vec![3u8; 4096]),
                    },
                    7 => StorageRequest::GetPage {
                        container: "c".into(),
                        blob: "p".into(),
                        offset: page,
                        length: 4096,
                    },
                    8 => StorageRequest::InsertEntity {
                        table: "t".into(),
                        entity: Entity::new("p", format!("r{i}")),
                    },
                    _ => StorageRequest::QueryPartition {
                        table: "t".into(),
                        partition: "p".into(),
                    },
                };
                let (done, r) = c.submit(at(1 + i * 7), (i % 5) as usize, &req);
                ends.push((done, r.map(|_| ())));
            }
            ends
        };
        let plain = run(false);
        let busy = |r: &Result<(), StorageError>| matches!(r, Err(StorageError::ServerBusy { .. }));
        assert!(plain.iter().filter(|(_, r)| busy(r)).count() > 10);
        assert!(plain.iter().filter(|(_, r)| r.is_ok()).count() > 300);
        assert_eq!(plain, run(true));
    }

    #[test]
    fn timeline_collects_gauges_and_usage() {
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 2.0,
            queue_rate: 10.0,
            ..ClusterParams::default()
        });
        assert!(c.timeline().is_none(), "sampling is off by default");
        c.enable_timeline(Duration::from_millis(20));
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let mut end = SimTime::ZERO;
        for i in 0..100u64 {
            let (done, _) = c.submit(at(1 + i), 0, &put_msg("q", 64));
            end = end.max(done);
        }
        let tl = c.timeline().unwrap();
        let fill = tl
            .recorder()
            .gauges()
            .iter()
            .find(|g| g.name == "bucket_fill:queue:q")
            .expect("per-queue fill gauge registered");
        assert!(fill.series.sample_count() >= 100);
        // Slamming 100 ops into 100 ms against a 10/s bucket saturates it.
        let usage = c.resource_usage(end);
        let bucket = usage
            .iter()
            .find(|u| u.resource == "bucket:queue:q")
            .unwrap();
        assert!(bucket.saturation > 0.8, "saturation {}", bucket.saturation);
        assert!(bucket.throttled > 0);
        // The FIFO barely worked in comparison.
        let fifo = usage.iter().find(|u| u.resource == "fifo:queue:q").unwrap();
        assert!(fifo.saturation < bucket.saturation);
    }

    /// Every way `submit` can end, as every sink sees it: the class
    /// counter, the partition heat, the op record and the timeline
    /// counters, plus the completion time and the result.
    #[test]
    fn every_submit_exit_feeds_every_sink() {
        use crate::faults::{BusyStorm, PartitionBlackout};
        /// Class counter (completed, throttled, failed, bytes up, bytes
        /// down, latency samples), partition heat, and timeline counters
        /// (submitted, throttled, ambiguous).
        fn sinks(c: &Cluster, probe: &StorageRequest) -> [u64; 10] {
            let k = c.metrics().counter(probe.class()).cloned();
            let k = k.unwrap_or_default();
            let heat = c
                .slots
                .iter()
                .find(|s| probe.partition_ref().matches(&s.key));
            let timeline = |name: &str| {
                let counters = c.timeline().unwrap().recorder().counters();
                let s = counters.iter().find(|s| s.name == name).unwrap();
                s.series.series().iter().map(|(_, b)| b.sum).sum::<f64>() as u64
            };
            [
                k.completed,
                k.throttled,
                k.failed,
                k.bytes_up,
                k.bytes_down,
                k.latency.count(),
                heat.map_or(0, |s| s.throttled),
                timeline("ops.submitted"),
                timeline("ops.throttled"),
                timeline("ops.ambiguous"),
            ]
        }

        let hour = Duration::from_secs(3_600);
        let storm = FaultPlan {
            busy_storms: vec![BusyStorm {
                at: SimTime::ZERO,
                duration: hour,
                retry_after: Duration::from_secs(2),
            }],
            ..FaultPlan::default()
        };
        let blackout = FaultPlan {
            blackouts: vec![PartitionBlackout {
                partition: PartitionKey::Queue { queue: "q".into() },
                at: SimTime::ZERO,
                duration: hour,
            }],
            ..FaultPlan::default()
        };
        let drop = FaultPlan {
            timeout_prob: 1.0,
            ..FaultPlan::default()
        };
        let ack = FaultPlan {
            ack_loss_prob: 1.0,
            ..FaultPlan::default()
        };
        let none = FaultPlan::default();
        let get = StorageRequest::GetMessage {
            queue: "q".into(),
            visibility_timeout: Duration::from_secs(30),
        };
        let put = |queue| put_msg(queue, 16);
        let put_block = StorageRequest::PutBlock {
            container: "c".into(),
            blob: "b".into(),
            block_id: "0".into(),
            data: Bytes::from(vec![7u8; 16]),
        };
        // The profiles each bucket site fires under; every throttled one
        // holds one token, which the setup below spends.
        let was = ClusterParams::default();
        let hot_queue = ClusterParams {
            throttle_burst: 1.0,
            queue_rate: 1.0,
            ..ClusterParams::default()
        };
        let hot_account = ClusterParams {
            throttle_burst: 2.0,
            account_tx_rate: 0.5,
            ..ClusterParams::default()
        };
        let s3 = ClusterParams {
            throttle_burst: 2.0,
            ..ClusterParams::for_backend(BackendProfile {
                account_rate_override: Some(1.0),
                ..BackendProfile::s3()
            })
        };
        let gcs = ClusterParams::for_backend(BackendProfile::gcs());
        // (exit, fault plan, params, probe, what the sinks saw): the `sinks`
        // deltas, record outcome / bytes down, latency in ns and the result.
        let exits = [
            (
                "busy storm",
                &storm,
                &was,
                put("q"),
                "[0, 1, 0, 0, 0, 0, 0, 1, 1, 0] Throttled/0 3001221 Err(ServerBusy { retry_after: 2s })",
            ),
            (
                "blackout",
                &blackout,
                &was,
                put("q"),
                "[0, 0, 1, 0, 0, 0, 0, 1, 0, 0] Faulted/0 3001221 Err(ServerFault { retry_after: 3599.987998779s })",
            ),
            (
                "dropped request",
                &drop,
                &was,
                put("q"),
                "[0, 0, 1, 0, 0, 0, 0, 1, 0, 1] TimedOutLost/0 30002001221 Err(Timeout { elapsed: 30s })",
            ),
            (
                "queue bucket throttle",
                &none,
                &hot_queue,
                put("q"),
                "[0, 1, 0, 0, 0, 0, 1, 1, 1, 0] Throttled/0 3001221 Err(ServerBusy { retry_after: 1s })",
            ),
            (
                "account bucket throttle",
                &none,
                &hot_account,
                put("q"),
                "[0, 1, 0, 0, 0, 0, 1, 1, 1, 0] Throttled/0 3001221 Err(ServerBusy { retry_after: 1.99s })",
            ),
            (
                "s3 account SlowDown",
                &none,
                &s3,
                put("q"),
                "[0, 1, 0, 0, 0, 0, 1, 1, 1, 0] Throttled/0 3001221 Err(SlowDown { retry_after: 100ms })",
            ),
            (
                "gcs per-object pushback",
                &none,
                &gcs,
                put_block.clone(),
                "[0, 1, 0, 0, 0, 0, 1, 1, 1, 0] Throttled/0 3001221 Err(ServerBusy { retry_after: 400ms })",
            ),
            (
                "throttle with a lost ack",
                &ack,
                &hot_queue,
                put("q"),
                "[0, 1, 0, 0, 0, 0, 1, 1, 1, 1] TimedOutLost/0 30002001221 Err(Timeout { elapsed: 30s })",
            ),
            (
                "lost ack after an executed write",
                &ack,
                &was,
                put("q"),
                "[1, 0, 0, 16, 0, 0, 0, 1, 0, 1] TimedOutExecuted/0 30002001221 Err(Timeout { elapsed: 30s })",
            ),
            (
                "lost ack after a semantic error",
                &ack,
                &was,
                put("nope"),
                "[0, 0, 1, 0, 0, 0, 0, 1, 0, 1] TimedOutLost/0 30002001221 Err(Timeout { elapsed: 30s })",
            ),
            (
                "plain ok",
                &none,
                &was,
                get,
                "[1, 0, 0, 0, 16, 1, 0, 1, 0, 0] Ok/16 19501288 Ok(())",
            ),
            (
                "plain error",
                &none,
                &was,
                put("nope"),
                "[0, 0, 1, 0, 0, 0, 0, 1, 0, 0] Error/0 3501288 Err(QueueNotFound(\"nope\"))",
            ),
        ];
        for (name, plan, params, probe, want) in exits {
            let mut c = Cluster::new(params.clone());
            c.enable_tracing(16);
            c.enable_history();
            c.enable_timeline(Duration::from_millis(1));
            // A message for the read to find, a token spent in every bucket.
            for setup in [
                StorageRequest::CreateQueue { queue: "q".into() },
                StorageRequest::CreateContainer {
                    container: "c".into(),
                },
                put("q"),
                put_block.clone(),
            ] {
                c.submit(SimTime::ZERO, 0, &setup).1.unwrap();
            }
            c.set_fault_plan(plan.clone());
            let before = sinks(&c, &probe);
            let (done, r) = c.submit(at(10), 1, &probe);
            let mut d = sinks(&c, &probe);
            d.iter_mut().zip(before).for_each(|(a, b)| *a -= b);
            let rec = *c.tracer().unwrap().records().last().unwrap();
            let (lat, r) = ((done - at(10)).as_nanos(), r.map(|_| ()));
            let (outcome, down) = (rec.outcome, rec.bytes_down);
            let seen = format!("{d:?} {outcome:?}/{down} {lat} {r:?}");
            assert_eq!(seen, want, "{name}");
            let span = (rec.issued, rec.completed, rec.phases.total());
            assert_eq!(span, (at(10), done, done - at(10)), "{name}: span");
            assert_eq!((rec.actor, rec.class), (1, probe.class()), "{name}");
            assert_eq!(rec.bytes_up, probe.payload_bytes_up(), "{name}");
            let throttled = d[1] == 1;
            assert_eq!(rec.throttled, throttled, "{name}");
            let key = c.partition_key(rec.partition);
            assert!(probe.partition_ref().matches(key), "{name}: partition");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// A sequential client's completions are strictly increasing, every
        /// op costs at least the front-end round trip, and the metrics'
        /// byte counters exactly equal the payloads moved.
        #[test]
        fn prop_sequential_latency_and_byte_accounting(
            sizes in proptest::collection::vec(1usize..48_000, 1..40)
        ) {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            let mut t = SimTime::from_millis(10);
            let mut last_done = t;
            let mut bytes = 0u64;
            for s in &sizes {
                let (done, r) = c.submit(t, 0, &put_msg("q", *s));
                match r {
                    Ok(_) => {
                        bytes += *s as u64;
                        proptest::prop_assert!(done > last_done);
                        proptest::prop_assert!(
                            done.saturating_since(t) >= c.params().frontend_rtt
                        );
                        last_done = done;
                        t = done;
                    }
                    Err(StorageError::ServerBusy { .. }) => {
                        // Back off like the SDK would.
                        t = done + Duration::from_secs(1);
                    }
                    Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                        format!("unexpected error {e}"))),
                }
            }
            let put = c.metrics().counter(OpClass::QueuePut).unwrap();
            proptest::prop_assert_eq!(put.bytes_up, bytes);
            proptest::prop_assert_eq!(put.bytes_down, 0);
        }

        /// A saturated per-blob write pipe never admits more than its
        /// bandwidth allows over the busy window.
        #[test]
        fn prop_blob_pipe_respects_bandwidth(
            n_chunks in 4usize..24,
        ) {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateContainer { container: "c".into() })
                .1
                .unwrap();
            c.submit(
                at(0),
                0,
                &StorageRequest::CreatePageBlob {
                    container: "c".into(),
                    blob: "p".into(),
                    size: (n_chunks as u64) << 20,
                },
            )
            .1
            .unwrap();
            // Saturate: many actors write 1 MB pages at the same instant.
            let mut last_end = SimTime::ZERO;
            for i in 0..n_chunks {
                let (done, r) = c.submit(
                    at(100),
                    i,
                    &StorageRequest::PutPage {
                        container: "c".into(),
                        blob: "p".into(),
                        offset: (i as u64) << 20,
                        data: Bytes::from(vec![0u8; 1 << 20]),
                    },
                );
                r.unwrap();
                last_end = last_end.max(done);
            }
            let window = last_end.saturating_since(at(100)).as_secs_f64();
            let mb_s = n_chunks as f64 / window;
            // The documented 60 MB/s single-blob target binds (allow the
            // first in-flight chunk as slack).
            proptest::prop_assert!(
                mb_s <= 62.0,
                "blob pipe over-admitted: {mb_s:.1} MB/s over {window:.3}s"
            );
        }
    }

    #[test]
    fn account_tx_bucket_spans_services() {
        let mut c = Cluster::new(ClusterParams {
            account_tx_rate: 100.0,
            throttle_burst: 5.0,
            queue_rate: 1e9,
            partition_rate: 1e9,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let mut throttled = 0;
        for i in 0..20 {
            // Spread over many queues: only the ACCOUNT bucket can throttle.
            let q = format!("q{}", i % 3);
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.clone() })
                .1
                .ok();
            let (_, r) = c.submit(at(1), i, &put_msg(&q, 16));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                throttled += 1;
            }
        }
        assert!(
            throttled > 0,
            "account-level 5000 tx/s analogue must engage"
        );
    }

    // ---- backend profiles ----

    use crate::backend::BackendProfile;

    #[test]
    fn s3_backend_throttles_at_account_scope_with_slowdown_curve() {
        // Shrink the account rate so the cap engages quickly; shape and
        // scope are what this test pins.
        let mut profile = BackendProfile::s3();
        profile.account_rate_override = Some(50.0);
        let mut c = Cluster::new(ClusterParams::for_backend(profile));
        for q in ["a", "b"] {
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.into() })
                .1
                .unwrap();
        }
        let mut hints = Vec::new();
        for i in 0..120 {
            match c.submit(at(1), i, &put_msg("a", 16)).1 {
                Ok(_) => {}
                Err(StorageError::SlowDown { retry_after }) => hints.push(retry_after),
                Err(other) => panic!("s3 throttle must be SlowDown, got {other}"),
            }
        }
        assert!(hints.len() >= 3, "the shrunk account cap must engage");
        // Consecutive rejections escalate along the declared doubling
        // curve: 100 ms, 200 ms, 400 ms, … capped at 5 s.
        assert_eq!(hints[0], Duration::from_millis(100));
        assert_eq!(hints[1], Duration::from_millis(200));
        assert_eq!(hints[2], Duration::from_millis(400));
        assert!(hints.iter().all(|h| *h <= Duration::from_secs(5)));
        // No per-partition caps: a *fresh* queue is rejected just the same,
        // because the scope is the account (WAS would admit it).
        let (_, r) = c.submit(at(1), 0, &put_msg("b", 16));
        assert!(matches!(r, Err(StorageError::SlowDown { .. })));
        // An admitted request resets the curve back to its base.
        c.submit(at(10_000), 0, &put_msg("a", 16)).1.unwrap();
        let mut c2_hint = None;
        for i in 0..120 {
            if let Err(StorageError::SlowDown { retry_after }) =
                c.submit(at(10_001), i, &put_msg("a", 16)).1
            {
                c2_hint = Some(retry_after);
                break;
            }
        }
        assert_eq!(c2_hint, Some(Duration::from_millis(100)));
    }

    #[test]
    fn gcs_object_update_limit_is_per_object_with_exponential_pushback() {
        use azsim_storage::{Entity, EtagCondition, PropValue};
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::gcs()));
        c.submit(at(0), 0, &StorageRequest::CreateTable { table: "t".into() })
            .1
            .unwrap();
        let entity = |rk: &str, v: i64| Entity::new("p", rk).with("v", PropValue::I64(v));
        for rk in ["r1", "r2"] {
            c.submit(
                at(100),
                0,
                &StorageRequest::InsertEntity {
                    table: "t".into(),
                    entity: entity(rk, 0),
                },
            )
            .1
            .unwrap();
        }
        let update = |rk: &str, v: i64| StorageRequest::UpdateEntity {
            table: "t".into(),
            entity: entity(rk, v),
            condition: EtagCondition::Any,
        };
        // One update per second per object: the first is admitted, rapid
        // consecutive retries push back exponentially (400, 800, 1600 ms).
        c.submit(at(5_000), 0, &update("r1", 1)).1.unwrap();
        let mut hints = Vec::new();
        for v in 2..5 {
            match c.submit(at(5_000), 0, &update("r1", v)).1 {
                Err(StorageError::ServerBusy { retry_after }) => hints.push(retry_after),
                other => panic!("expected per-object pushback, got {other:?}"),
            }
        }
        assert_eq!(
            hints,
            vec![
                Duration::from_millis(400),
                Duration::from_millis(800),
                Duration::from_millis(1_600),
            ]
        );
        // A different row of the *same* partition is a different object and
        // is untouched by r1's pushback.
        c.submit(at(5_000), 0, &update("r2", 1)).1.unwrap();
        // After the object's bucket refills, r1 admits again and the
        // pushback counter resets.
        c.submit(at(8_000), 0, &update("r1", 9)).1.unwrap();
        match c.submit(at(8_000), 0, &update("r1", 10)).1 {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(400));
            }
            other => panic!("expected pushback restart, got {other:?}"),
        }
    }

    #[test]
    fn file_backend_never_throttles() {
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::file()));
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        for i in 0..600 {
            c.submit(at(1), i, &put_msg("q", 16)).1.unwrap();
        }
        assert_eq!(c.metrics().total_throttled(), 0);
        assert_eq!(c.metrics().total_completed(), 601);
    }

    #[test]
    fn s3_listing_hides_fresh_blobs_for_at_most_the_declared_window() {
        let window = BackendProfile::s3().list_visibility_window.unwrap();
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        let mut acked = Vec::new();
        for i in 0..16 {
            let (done, r) = c.submit(
                at(100),
                0,
                &StorageRequest::UploadBlockBlob {
                    container: "c".into(),
                    blob: format!("b{i}"),
                    data: Bytes::from_static(b"x"),
                },
            );
            r.unwrap();
            acked.push(done);
        }
        let list = |c: &mut Cluster, t: SimTime| -> Vec<String> {
            match c
                .submit(
                    t,
                    1,
                    &StorageRequest::ListBlobs {
                        container: "c".into(),
                    },
                )
                .1
                .unwrap()
            {
                StorageOk::Names(names) => names,
                other => panic!("expected names, got {other:?}"),
            }
        };
        // Immediately after the writes some blobs lag out of the listing —
        // the declared deviation from WAS must be observable.
        let fresh = list(&mut c, *acked.iter().max().unwrap());
        assert!(
            fresh.len() < 16,
            "with a 2 s window, 16 fresh blobs must not all list instantly"
        );
        // One declared window later every blob lists.
        let horizon = *acked.iter().max().unwrap() + window + Duration::from_millis(1);
        assert_eq!(list(&mut c, horizon).len(), 16);
        // WAS lists everything immediately (strong list-after-write).
        let mut was = Cluster::with_defaults();
        was.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        let mut done_max = SimTime::ZERO;
        for i in 0..16 {
            let (done, r) = was.submit(
                at(100),
                0,
                &StorageRequest::UploadBlockBlob {
                    container: "c".into(),
                    blob: format!("b{i}"),
                    data: Bytes::from_static(b"x"),
                },
            );
            r.unwrap();
            done_max = done_max.max(done);
        }
        assert_eq!(list(&mut was, done_max).len(), 16);
    }

    #[test]
    fn deleted_blob_leaves_the_visibility_overlay() {
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(100),
            0,
            &StorageRequest::UploadBlockBlob {
                container: "c".into(),
                blob: "b".into(),
                data: Bytes::from_static(b"x"),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(200),
            0,
            &StorageRequest::DeleteBlob {
                container: "c".into(),
                blob: "b".into(),
            },
        )
        .1
        .unwrap();
        assert!(c
            .list_visibility
            .as_ref()
            .expect("s3 declares a window")
            .is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The S3-style backend's declared eventual list-after-write,
        /// property-checked over random write/probe schedules: a committed
        /// blob (1) lists no later than its declared window after the ack,
        /// (2) is never lost, and (3) never flickers back out of listings
        /// once observed (monotonic per key).
        #[test]
        fn prop_s3_list_after_write_is_bounded_lossless_monotonic(
            n_blobs in 1usize..12,
            upload_ms in proptest::collection::vec(0u64..3_000, 12),
            probe_ms in proptest::collection::vec(0u64..8_000, 1..24),
        ) {
            let window = BackendProfile::s3().list_visibility_window.unwrap();
            let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
            c.submit(at(0), 0, &StorageRequest::CreateContainer { container: "c".into() })
                .1
                .unwrap();

            // Interleave uploads and list probes in virtual-time order.
            enum Act { Upload(usize), Probe }
            let mut sched: Vec<(u64, Act)> = (0..n_blobs)
                .map(|i| (10 + upload_ms[i], Act::Upload(i)))
                .chain(probe_ms.iter().map(|&ms| (10 + ms, Act::Probe)))
                .collect();
            sched.sort_by_key(|(ms, act)| (*ms, matches!(act, Act::Probe)));

            let mut acked: Vec<(String, SimTime)> = Vec::new();
            let mut seen: std::collections::HashSet<String> = Default::default();
            for (ms, act) in sched {
                match act {
                    Act::Upload(i) => {
                        let name = format!("b{i}");
                        let (done, r) = c.submit(at(ms), 0, &StorageRequest::UploadBlockBlob {
                            container: "c".into(),
                            blob: name.clone(),
                            data: Bytes::from_static(b"x"),
                        });
                        r.unwrap();
                        acked.push((name, done));
                    }
                    Act::Probe => {
                        let names = match c
                            .submit(at(ms), 1, &StorageRequest::ListBlobs { container: "c".into() })
                            .1
                            .unwrap()
                        {
                            StorageOk::Names(names) => names,
                            other => panic!("expected names, got {other:?}"),
                        };
                        for s in &seen {
                            proptest::prop_assert!(
                                names.contains(s),
                                "blob {s} flickered out of the listing"
                            );
                        }
                        for (name, done) in &acked {
                            if at(ms).saturating_since(*done) > window {
                                proptest::prop_assert!(
                                    names.contains(name),
                                    "blob {name} still unlisted past the declared window"
                                );
                            }
                        }
                        seen.extend(names);
                    }
                }
            }

            // Never lost: one declared window past the last ack, every
            // committed blob lists.
            let horizon = acked
                .iter()
                .map(|(_, done)| *done)
                .max()
                .unwrap_or(SimTime::ZERO)
                + window
                + Duration::from_millis(1);
            let names = match c
                .submit(horizon, 1, &StorageRequest::ListBlobs { container: "c".into() })
                .1
                .unwrap()
            {
                StorageOk::Names(names) => names,
                other => panic!("expected names, got {other:?}"),
            };
            for (name, _) in &acked {
                proptest::prop_assert!(names.contains(name), "blob {name} was lost");
            }
        }
    }
}
