//! `file://` live backend: the real client stack over a local directory.
//!
//! Where [`crate::LiveEnv`] prices requests through the simulated
//! [`Cluster`](azsim_fabric::Cluster) and sleeps out the modeled latency,
//! [`FileEnv`] executes them against an actual filesystem tree — real
//! `create_dir`/`write`/`rename` syscalls, real bytes on disk. It is the
//! live counterpart of the simulated `file` backend profile
//! ([`azsim_fabric::BackendKind::File`]): no throttles, no visibility
//! lag, strong listings — exactly what a local filesystem provides — so
//! an integration test can run the same reduced workload against both
//! and reconcile the final states.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! blob/<container>/<blob>             committed blob bytes
//! blob/<container>/.meta/<blob>.blocks   committed block index (id \t len)
//! blob/<container>/.staged/<blob>/<id>   staged, uncommitted blocks
//! queue/<queue>/<seq>.msg             message payload
//! queue/<queue>/<seq>.meta            id/visibility/receipt sidecar
//! ```
//!
//! Names are percent-encoded so arbitrary container/blob/queue names are
//! filesystem-safe. Commits are write-temp-then-rename, so a committed
//! blob is never observable half-written. The store supports the blob
//! (block) and queue surface the benchmark algorithms use; table and
//! page-blob requests panic loudly — this backend exists to validate the
//! client stack against a real medium, not to reimplement every service.
//!
//! Like live mode, `file://` is *not* deterministic (host clock, OS
//! scheduling); figures stay on the virtual runtime.

use crate::env::Environment;
use azsim_core::SimTime;
use azsim_storage::message::{MessageId, PeekedMessage, PopReceipt};
use azsim_storage::{QueueMessage, StorageError, StorageOk, StorageRequest, StorageResult};
use bytes::Bytes;
use std::future::{ready, Future};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default message time-to-live (the service's 7 days).
const DEFAULT_TTL: Duration = Duration::from_secs(7 * 24 * 3600);

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Percent-encode a service-level name into a filesystem-safe component.
fn enc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, b) in name.bytes().enumerate() {
        let plain = b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || (b == b'.' && i > 0); // no leading dot: dot-entries are store metadata
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

/// Inverse of [`enc`].
fn dec(name: &str) -> String {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = &name[i + 1..i + 3];
            if let Ok(b) = u8::from_str_radix(hex, 16) {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Message sidecar state, serialized as one `key value` line each.
#[derive(Clone, Copy)]
struct MsgMeta {
    id: u64,
    insertion_ns: u64,
    next_visible_ns: u64,
    expires_ns: u64,
    dequeue_count: u32,
    pop_receipt: u64,
}

impl MsgMeta {
    fn render(&self) -> String {
        format!(
            "id {}\ninsertion_ns {}\nnext_visible_ns {}\nexpires_ns {}\ndequeue_count {}\npop_receipt {}\n",
            self.id,
            self.insertion_ns,
            self.next_visible_ns,
            self.expires_ns,
            self.dequeue_count,
            self.pop_receipt
        )
    }

    fn parse(text: &str) -> Option<MsgMeta> {
        let mut m = MsgMeta {
            id: 0,
            insertion_ns: 0,
            next_visible_ns: 0,
            expires_ns: u64::MAX,
            dequeue_count: 0,
            pop_receipt: 0,
        };
        for line in text.lines() {
            let (k, v) = line.split_once(' ')?;
            let v: u64 = v.parse().ok()?;
            match k {
                "id" => m.id = v,
                "insertion_ns" => m.insertion_ns = v,
                "next_visible_ns" => m.next_visible_ns = v,
                "expires_ns" => m.expires_ns = v,
                "dequeue_count" => m.dequeue_count = v as u32,
                "pop_receipt" => m.pop_receipt = v,
                _ => return None,
            }
        }
        Some(m)
    }
}

/// The `file://` store: a root directory plus the clock and counters the
/// queue semantics need. Share one store across role instances via
/// [`FileStore::env`].
pub struct FileStore {
    root: PathBuf,
    epoch: Instant,
    time_scale: f64,
    owns_root: bool,
    /// Serializes multi-file operations (commit, dequeue) so concurrent
    /// envs see consistent state — the moral equivalent of the service's
    /// per-partition serialization.
    lock: Mutex<Counters>,
}

struct Counters {
    next_msg: u64,
    next_receipt: u64,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `root`. `time_scale`
    /// maps virtual to real seconds exactly like live mode (`1.0` = real
    /// time; tests use large factors so visibility windows pass quickly).
    pub fn new(root: impl Into<PathBuf>, time_scale: f64) -> Arc<Self> {
        assert!(time_scale > 0.0, "time_scale must be positive");
        let root = root.into();
        std::fs::create_dir_all(&root).expect("create file:// store root");
        Arc::new(FileStore {
            root,
            epoch: Instant::now(),
            time_scale,
            owns_root: false,
            lock: Mutex::new(Counters {
                next_msg: 1,
                next_receipt: 1,
            }),
        })
    }

    /// A store over a fresh private directory under the system temp dir,
    /// removed again when the store is dropped.
    pub fn new_temp(time_scale: f64) -> Arc<Self> {
        let dir = std::env::temp_dir().join(format!(
            "azurebench-file-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create file:// temp root");
        let mut store = Arc::try_unwrap(Self::new(dir, time_scale)).ok().unwrap();
        store.owns_root = true;
        Arc::new(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current virtual time (epoch-relative, scaled).
    pub fn now(&self) -> SimTime {
        SimTime((self.epoch.elapsed().as_nanos() as f64 * self.time_scale) as u64)
    }

    /// Create an environment handle for one role instance.
    pub fn env(self: &Arc<Self>, instance: usize) -> FileEnv {
        FileEnv {
            store: Arc::clone(self),
            instance,
        }
    }

    fn virtual_to_real(&self, d: Duration) -> Duration {
        d.mul_f64(1.0 / self.time_scale)
    }

    /// Take the store lock. A panic while it was held is recovered, not
    /// propagated: the counters only ever step up by one, and a commit
    /// lands on disk by rename, so neither is left half-written.
    fn counters(&self) -> MutexGuard<'_, Counters> {
        self.lock.lock().unwrap_or_else(|p| p.into_inner())
    }

    // ---- path helpers ----

    fn container_dir(&self, container: &str) -> PathBuf {
        self.root.join("blob").join(enc(container))
    }

    fn queue_dir(&self, queue: &str) -> PathBuf {
        self.root.join("queue").join(enc(queue))
    }

    fn blob_path(&self, container: &str, blob: &str) -> PathBuf {
        self.container_dir(container).join(enc(blob))
    }

    fn index_path(&self, container: &str, blob: &str) -> PathBuf {
        self.container_dir(container)
            .join(".meta")
            .join(format!("{}.blocks", enc(blob)))
    }

    fn staged_dir(&self, container: &str, blob: &str) -> PathBuf {
        self.container_dir(container)
            .join(".staged")
            .join(enc(blob))
    }

    // ---- blob ops ----

    fn require_container(&self, container: &str) -> StorageResult<PathBuf> {
        let dir = self.container_dir(container);
        if dir.is_dir() {
            Ok(dir)
        } else {
            Err(StorageError::ContainerNotFound(container.to_owned()))
        }
    }

    fn put_block(
        &self,
        container: &str,
        blob: &str,
        block_id: &str,
        data: &Bytes,
    ) -> StorageResult<StorageOk> {
        self.require_container(container)?;
        let dir = self.staged_dir(container, blob);
        std::fs::create_dir_all(&dir).map_err(io_fault)?;
        std::fs::write(dir.join(enc(block_id)), data).map_err(io_fault)?;
        Ok(StorageOk::Ack)
    }

    /// Read one committed block's bytes by id via the committed index.
    fn committed_block(&self, container: &str, blob: &str, id: &str) -> Option<Vec<u8>> {
        let index = std::fs::read_to_string(self.index_path(container, blob)).ok()?;
        let body = std::fs::read(self.blob_path(container, blob)).ok()?;
        let mut offset = 0usize;
        for line in index.lines() {
            let (bid, len) = line.split_once('\t')?;
            let len: usize = len.parse().ok()?;
            if bid == id {
                return body.get(offset..offset + len).map(<[u8]>::to_vec);
            }
            offset += len;
        }
        None
    }

    fn put_block_list(
        &self,
        container: &str,
        blob: &str,
        block_ids: &[String],
    ) -> StorageResult<StorageOk> {
        self.require_container(container)?;
        let _guard = self.counters();
        let staged = self.staged_dir(container, blob);
        let mut body: Vec<u8> = Vec::new();
        let mut index = String::new();
        for id in block_ids {
            let bytes = match std::fs::read(staged.join(enc(id))) {
                Ok(b) => b,
                Err(_) => self
                    .committed_block(container, blob, id)
                    .ok_or_else(|| StorageError::UnknownBlockId(id.clone()))?,
            };
            index.push_str(&format!("{id}\t{}\n", bytes.len()));
            body.extend_from_slice(&bytes);
        }
        // Commit atomically: bytes first, then the index, each via rename,
        // so a reader never sees a half-written blob.
        let meta_dir = self.container_dir(container).join(".meta");
        std::fs::create_dir_all(&meta_dir).map_err(io_fault)?;
        let blob_path = self.blob_path(container, blob);
        let tmp = blob_path.with_extension("tmp-commit");
        std::fs::write(&tmp, &body).map_err(io_fault)?;
        std::fs::rename(&tmp, &blob_path).map_err(io_fault)?;
        std::fs::write(self.index_path(container, blob), index).map_err(io_fault)?;
        let _ = std::fs::remove_dir_all(&staged);
        Ok(StorageOk::Ack)
    }

    fn get_block(&self, container: &str, blob: &str, index: usize) -> StorageResult<StorageOk> {
        self.require_container(container)?;
        let idx = std::fs::read_to_string(self.index_path(container, blob))
            .map_err(|_| StorageError::BlobNotFound(blob.to_owned()))?;
        let mut offset = 0usize;
        for (i, line) in idx.lines().enumerate() {
            let len: usize = line
                .split_once('\t')
                .and_then(|(_, l)| l.parse().ok())
                .ok_or_else(|| StorageError::BlobNotFound(blob.to_owned()))?;
            if i == index {
                let body = std::fs::read(self.blob_path(container, blob))
                    .map_err(|_| StorageError::BlobNotFound(blob.to_owned()))?;
                let slice = body
                    .get(offset..offset + len)
                    .ok_or_else(|| StorageError::BlobNotFound(blob.to_owned()))?;
                return Ok(StorageOk::Data(Bytes::from(slice.to_vec())));
            }
            offset += len;
        }
        Err(StorageError::UnknownBlockId(format!("#{index}")))
    }

    fn download(&self, container: &str, blob: &str) -> StorageResult<StorageOk> {
        self.require_container(container)?;
        std::fs::read(self.blob_path(container, blob))
            .map(|b| StorageOk::Data(Bytes::from(b)))
            .map_err(|_| StorageError::BlobNotFound(blob.to_owned()))
    }

    fn list_blobs(&self, container: &str) -> StorageResult<StorageOk> {
        let dir = self.require_container(container)?;
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .map_err(io_fault)?
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name().into_string().ok()?;
                // Dot-entries are store metadata, and a crash may leave a
                // commit temp file behind; neither is a blob.
                (e.file_type().ok()?.is_file()
                    && !name.starts_with('.')
                    && !name.ends_with(".tmp-commit"))
                .then(|| dec(&name))
            })
            .collect();
        names.sort();
        Ok(StorageOk::Names(names))
    }

    fn delete_blob(&self, container: &str, blob: &str) -> StorageResult<StorageOk> {
        self.require_container(container)?;
        std::fs::remove_file(self.blob_path(container, blob))
            .map_err(|_| StorageError::BlobNotFound(blob.to_owned()))?;
        let _ = std::fs::remove_file(self.index_path(container, blob));
        let _ = std::fs::remove_dir_all(self.staged_dir(container, blob));
        Ok(StorageOk::Ack)
    }

    // ---- queue ops ----

    fn require_queue(&self, queue: &str) -> StorageResult<PathBuf> {
        let dir = self.queue_dir(queue);
        if dir.is_dir() {
            Ok(dir)
        } else {
            Err(StorageError::QueueNotFound(queue.to_owned()))
        }
    }

    /// Sorted `(seq, meta)` pairs of every live (unexpired) message.
    fn messages(&self, dir: &Path, now: SimTime) -> Vec<(u64, MsgMeta)> {
        let mut out: Vec<(u64, MsgMeta)> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let seq: u64 = name.strip_suffix(".meta")?.parse().ok()?;
                let meta = MsgMeta::parse(&std::fs::read_to_string(dir.join(&name)).ok()?)?;
                Some((seq, meta))
            })
            .filter(|(_, m)| m.expires_ns > now.as_nanos())
            .collect();
        out.sort_by_key(|&(seq, _)| seq);
        out
    }

    fn put_message(
        &self,
        queue: &str,
        data: &Bytes,
        ttl: Option<Duration>,
    ) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        let now = self.now();
        let seq = {
            let mut c = self.counters();
            let s = c.next_msg;
            c.next_msg += 1;
            s
        };
        let meta = MsgMeta {
            id: seq,
            insertion_ns: now.as_nanos(),
            next_visible_ns: now.as_nanos(),
            expires_ns: (now + ttl.unwrap_or(DEFAULT_TTL)).as_nanos(),
            dequeue_count: 0,
            pop_receipt: 0,
        };
        // Payload first, sidecar last: a message without a sidecar does
        // not exist yet, so a crash between the writes loses nothing.
        std::fs::write(dir.join(format!("{seq:012}.msg")), data).map_err(io_fault)?;
        std::fs::write(dir.join(format!("{seq:012}.meta")), meta.render()).map_err(io_fault)?;
        Ok(StorageOk::Ack)
    }

    fn get_message(&self, queue: &str, visibility: Duration) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        let mut guard = self.counters();
        let now = self.now();
        for (seq, mut meta) in self.messages(&dir, now) {
            if meta.next_visible_ns > now.as_nanos() {
                continue;
            }
            let receipt = guard.next_receipt;
            guard.next_receipt += 1;
            meta.dequeue_count += 1;
            meta.next_visible_ns = (now + visibility).as_nanos();
            meta.pop_receipt = receipt;
            std::fs::write(dir.join(format!("{seq:012}.meta")), meta.render()).map_err(io_fault)?;
            let data = std::fs::read(dir.join(format!("{seq:012}.msg"))).map_err(io_fault)?;
            return Ok(StorageOk::Message(Some(QueueMessage {
                id: MessageId(meta.id),
                pop_receipt: PopReceipt(receipt),
                data: Bytes::from(data),
                dequeue_count: meta.dequeue_count,
                insertion_time: SimTime(meta.insertion_ns),
                next_visible: SimTime(meta.next_visible_ns),
            })));
        }
        Ok(StorageOk::Message(None))
    }

    fn peek_message(&self, queue: &str) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        let now = self.now();
        for (seq, meta) in self.messages(&dir, now) {
            if meta.next_visible_ns > now.as_nanos() {
                continue;
            }
            let data = std::fs::read(dir.join(format!("{seq:012}.msg"))).map_err(io_fault)?;
            return Ok(StorageOk::Peeked(Some(PeekedMessage {
                id: MessageId(meta.id),
                data: Bytes::from(data),
                dequeue_count: meta.dequeue_count,
                insertion_time: SimTime(meta.insertion_ns),
            })));
        }
        Ok(StorageOk::Peeked(None))
    }

    fn delete_message(
        &self,
        queue: &str,
        id: MessageId,
        receipt: PopReceipt,
    ) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        let _guard = self.counters();
        let now = self.now();
        for (seq, meta) in self.messages(&dir, now) {
            if meta.id != id.0 {
                continue;
            }
            // A receipt is only good while the message is still invisible
            // under *that* dequeue — once it re-surfaced (or was claimed
            // again), the old receipt is dead. Same rule as the service.
            if meta.pop_receipt != receipt.0 || meta.next_visible_ns <= now.as_nanos() {
                return Err(StorageError::PopReceiptMismatch);
            }
            std::fs::remove_file(dir.join(format!("{seq:012}.meta"))).map_err(io_fault)?;
            let _ = std::fs::remove_file(dir.join(format!("{seq:012}.msg")));
            return Ok(StorageOk::Ack);
        }
        Err(StorageError::PopReceiptMismatch)
    }

    fn message_count(&self, queue: &str) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        Ok(StorageOk::Count(self.messages(&dir, self.now()).len()))
    }

    fn clear_queue(&self, queue: &str) -> StorageResult<StorageOk> {
        let dir = self.require_queue(queue)?;
        let _guard = self.counters();
        for entry in std::fs::read_dir(&dir).map_err(io_fault)?.flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
        Ok(StorageOk::Ack)
    }

    /// Execute one request against the filesystem.
    fn apply(&self, req: &StorageRequest) -> StorageResult<StorageOk> {
        use StorageRequest::*;
        match req {
            CreateContainer { container } => {
                std::fs::create_dir_all(self.container_dir(container)).map_err(io_fault)?;
                Ok(StorageOk::Ack)
            }
            PutBlock {
                container,
                blob,
                block_id,
                data,
            } => self.put_block(container, blob, block_id, data),
            PutBlockList {
                container,
                blob,
                block_ids,
            } => self.put_block_list(container, blob, block_ids),
            UploadBlockBlob {
                container,
                blob,
                data,
            } => {
                self.put_block(container, blob, "0", data)?;
                self.put_block_list(container, blob, std::slice::from_ref(&"0".to_owned()))
            }
            GetBlock {
                container,
                blob,
                index,
            } => self.get_block(container, blob, *index),
            DownloadBlob { container, blob } => self.download(container, blob),
            DeleteBlob { container, blob } => self.delete_blob(container, blob),
            ListBlobs { container } => self.list_blobs(container),
            CreateQueue { queue } => {
                std::fs::create_dir_all(self.queue_dir(queue)).map_err(io_fault)?;
                Ok(StorageOk::Ack)
            }
            DeleteQueue { queue } => {
                let dir = self.require_queue(queue)?;
                std::fs::remove_dir_all(dir).map_err(io_fault)?;
                Ok(StorageOk::Ack)
            }
            PutMessage { queue, data, ttl } => self.put_message(queue, data, *ttl),
            GetMessage {
                queue,
                visibility_timeout,
            } => self.get_message(queue, *visibility_timeout),
            PeekMessage { queue } => self.peek_message(queue),
            DeleteMessage {
                queue,
                id,
                pop_receipt,
            } => self.delete_message(queue, *id, *pop_receipt),
            GetMessageCount { queue } => self.message_count(queue),
            ClearQueue { queue } => self.clear_queue(queue),
            other => unimplemented!(
                "the file:// live backend covers the blob/queue surface the \
                 benchmark algorithms use; request not supported: {other:?}"
            ),
        }
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.owns_root {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// Map an unexpected I/O failure onto the transient server-fault error —
/// the closest service analogue of "the medium hiccupped, retry".
fn io_fault(e: std::io::Error) -> StorageError {
    let _ = e;
    StorageError::ServerFault {
        retry_after: Duration::from_millis(100),
    }
}

/// One role instance's handle onto a [`FileStore`].
pub struct FileEnv {
    store: Arc<FileStore>,
    instance: usize,
}

impl Environment for FileEnv {
    fn now(&self) -> SimTime {
        self.store.now()
    }

    fn sleep(&self, d: Duration) -> impl Future<Output = ()> {
        std::thread::sleep(self.store.virtual_to_real(d));
        ready(())
    }

    fn execute(&self, req: StorageRequest) -> impl Future<Output = StorageResult<StorageOk>> {
        ready(self.store.apply(&req))
    }

    fn instance(&self) -> usize {
        self.instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::block_on;

    const FAST: f64 = 10_000.0;

    #[test]
    fn names_roundtrip_through_encoding() {
        for name in [
            "plain",
            "has/slash",
            "dot.mid",
            ".leading",
            "ünïcode",
            "a%b",
        ] {
            assert_eq!(dec(&enc(name)), name, "{name:?}");
        }
    }

    #[test]
    fn blob_block_lifecycle_on_disk() {
        let store = FileStore::new_temp(FAST);
        let env = store.env(0);
        block_on(env.execute(StorageRequest::CreateContainer {
            container: "c".into(),
        }))
        .unwrap();
        for (i, chunk) in [b"aaaa".as_slice(), b"bb", b"cccccc"].iter().enumerate() {
            block_on(env.execute(StorageRequest::PutBlock {
                container: "c".into(),
                blob: "b".into(),
                block_id: format!("blk{i}"),
                data: Bytes::from(chunk.to_vec()),
            }))
            .unwrap();
        }
        block_on(env.execute(StorageRequest::PutBlockList {
            container: "c".into(),
            blob: "b".into(),
            block_ids: (0..3).map(|i| format!("blk{i}")).collect(),
        }))
        .unwrap();
        // Whole-blob download is the concatenation, in commit order.
        match block_on(env.execute(StorageRequest::DownloadBlob {
            container: "c".into(),
            blob: "b".into(),
        }))
        .unwrap()
        {
            StorageOk::Data(d) => assert_eq!(&d[..], b"aaaabbcccccc"),
            other => panic!("expected data, got {other:?}"),
        }
        // Indexed block read sees the middle block exactly.
        match block_on(env.execute(StorageRequest::GetBlock {
            container: "c".into(),
            blob: "b".into(),
            index: 1,
        }))
        .unwrap()
        {
            StorageOk::Data(d) => assert_eq!(&d[..], b"bb"),
            other => panic!("expected data, got {other:?}"),
        }
        // Listing is strong and hides metadata entries.
        match block_on(env.execute(StorageRequest::ListBlobs {
            container: "c".into(),
        }))
        .unwrap()
        {
            StorageOk::Names(n) => assert_eq!(n, vec!["b".to_owned()]),
            other => panic!("expected names, got {other:?}"),
        }
        // Unknown block ids are rejected like the service rejects them.
        let err = block_on(env.execute(StorageRequest::PutBlockList {
            container: "c".into(),
            blob: "b".into(),
            block_ids: vec!["ghost".into()],
        }))
        .unwrap_err();
        assert!(matches!(err, StorageError::UnknownBlockId(id) if id == "ghost"));
    }

    #[test]
    fn recommit_reuses_committed_blocks() {
        let store = FileStore::new_temp(FAST);
        let env = store.env(0);
        block_on(env.execute(StorageRequest::CreateContainer {
            container: "c".into(),
        }))
        .unwrap();
        for (id, data) in [("x", b"1111".as_slice()), ("y", b"2222")] {
            block_on(env.execute(StorageRequest::PutBlock {
                container: "c".into(),
                blob: "b".into(),
                block_id: id.into(),
                data: Bytes::from(data.to_vec()),
            }))
            .unwrap();
        }
        for ids in [vec!["x", "y"], vec!["y", "x"]] {
            block_on(env.execute(StorageRequest::PutBlockList {
                container: "c".into(),
                blob: "b".into(),
                block_ids: ids.iter().map(|s| s.to_string()).collect(),
            }))
            .unwrap();
        }
        // Second commit reordered the *committed* blocks (staging was
        // consumed by the first): 2222 now leads.
        match block_on(env.execute(StorageRequest::DownloadBlob {
            container: "c".into(),
            blob: "b".into(),
        }))
        .unwrap()
        {
            StorageOk::Data(d) => assert_eq!(&d[..], b"22221111"),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn queue_lifecycle_with_receipts() {
        let store = FileStore::new_temp(FAST);
        let env = store.env(0);
        block_on(env.execute(StorageRequest::CreateQueue { queue: "q".into() })).unwrap();
        // A panic under the store lock does not poison it for the ops below.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.counters();
                panic!("poison it")
            })
            .join()
        });
        assert!(poisoner.is_err());
        for i in 0..3u8 {
            block_on(env.execute(StorageRequest::PutMessage {
                queue: "q".into(),
                data: Bytes::from(vec![i]),
                ttl: None,
            }))
            .unwrap();
        }
        // FIFO delivery with receipts; peek does not take ownership.
        match block_on(env.execute(StorageRequest::PeekMessage { queue: "q".into() })).unwrap() {
            StorageOk::Peeked(Some(p)) => assert_eq!(&p.data[..], &[0]),
            other => panic!("expected peeked message, got {other:?}"),
        }
        let m = match block_on(env.execute(StorageRequest::GetMessage {
            queue: "q".into(),
            visibility_timeout: Duration::from_secs(3_600),
        }))
        .unwrap()
        {
            StorageOk::Message(Some(m)) => m,
            other => panic!("expected message, got {other:?}"),
        };
        assert_eq!(&m.data[..], &[0]);
        assert_eq!(m.dequeue_count, 1);
        // While invisible, the next get sees the *next* message.
        match block_on(env.execute(StorageRequest::GetMessage {
            queue: "q".into(),
            visibility_timeout: Duration::from_secs(3_600),
        }))
        .unwrap()
        {
            StorageOk::Message(Some(m2)) => assert_eq!(&m2.data[..], &[1]),
            other => panic!("expected message, got {other:?}"),
        }
        // A stale receipt is refused; the current one deletes.
        let err = block_on(env.execute(StorageRequest::DeleteMessage {
            queue: "q".into(),
            id: m.id,
            pop_receipt: PopReceipt(m.pop_receipt.0 + 999),
        }))
        .unwrap_err();
        assert!(matches!(err, StorageError::PopReceiptMismatch));
        block_on(env.execute(StorageRequest::DeleteMessage {
            queue: "q".into(),
            id: m.id,
            pop_receipt: m.pop_receipt,
        }))
        .unwrap();
        match block_on(env.execute(StorageRequest::GetMessageCount { queue: "q".into() })).unwrap()
        {
            StorageOk::Count(c) => assert_eq!(c, 2),
            other => panic!("expected count, got {other:?}"),
        }
    }

    #[test]
    fn temp_store_cleans_up_after_itself() {
        let root;
        {
            let store = FileStore::new_temp(FAST);
            root = store.root().to_path_buf();
            assert!(root.is_dir());
        }
        assert!(!root.exists(), "temp root must be removed on drop");
    }

    #[test]
    fn missing_resources_surface_service_errors() {
        let store = FileStore::new_temp(FAST);
        let env = store.env(0);
        let err = block_on(env.execute(StorageRequest::DownloadBlob {
            container: "nope".into(),
            blob: "b".into(),
        }))
        .unwrap_err();
        assert!(matches!(err, StorageError::ContainerNotFound(_)));
        let err = block_on(env.execute(StorageRequest::GetMessage {
            queue: "nope".into(),
            visibility_timeout: Duration::from_secs(1),
        }))
        .unwrap_err();
        assert!(matches!(err, StorageError::QueueNotFound(_)));
    }
}
