//! Block blobs: staged blocks, committed block lists.
//!
//! The two creation paths the paper describes:
//!
//! 1. Blobs under 64 MB may be uploaded in a single call.
//! 2. Larger blobs are built from blocks of up to 4 MB each, staged with
//!    `PutBlock` and atomically assembled with `PutBlockList`. A blob holds
//!    at most 50 000 committed blocks (≈ 200 GB).
//!
//! A blob with only staged (uncommitted) blocks is not yet readable — it
//! comes into existence at the first commit (or single-shot upload).

use azsim_storage::limits::{MAX_BLOCKS_PER_BLOB, MAX_BLOCK_BLOB_SIZE, MAX_BLOCK_SIZE};
use azsim_storage::{StorageError, StorageResult};
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;

/// A block blob's state: committed content plus a staging area.
#[derive(Clone, Debug, Default)]
pub struct BlockBlob {
    committed: Vec<(String, Bytes)>,
    staged: HashMap<String, Bytes>,
    committed_size: u64,
    /// Whether a block list has ever been committed. Not the same as
    /// `committed` being non-empty: committing `[]` creates an empty blob.
    has_commit: bool,
    /// Lazily assembled full content. Shared (`Bytes` is refcounted) by
    /// every concurrent whole-blob download — without this, N workers
    /// downloading the same 100 MB blob would hold N separate copies in
    /// the simulator's event heap.
    download_cache: Option<Bytes>,
}

impl BlockBlob {
    /// An empty, uncommitted block blob (exists only as a staging target).
    pub fn new() -> Self {
        Self::default()
    }

    /// A blob created by a single-shot upload: one implicit committed block.
    pub fn from_single_upload(data: Bytes) -> Self {
        let size = data.len() as u64;
        BlockBlob {
            committed: vec![(String::from("\u{0}single"), data)],
            staged: HashMap::new(),
            committed_size: size,
            has_commit: true,
            download_cache: None,
        }
    }

    /// Whether any block list has been committed (an uncommitted blob is
    /// invisible to readers).
    pub fn is_committed(&self) -> bool {
        self.has_commit
    }

    /// Stage one block.
    pub fn put_block(&mut self, block_id: String, data: Bytes) -> StorageResult<()> {
        if data.len() as u64 > MAX_BLOCK_SIZE {
            return Err(StorageError::BlockTooLarge {
                size: data.len() as u64,
            });
        }
        self.staged.insert(block_id, data);
        Ok(())
    }

    /// Atomically commit `ids` as the blob's new content. Each id is
    /// resolved against the staging area first, then against the committed
    /// list (matching the real service's latest/committed search order).
    /// On success the staging area is cleared.
    pub fn put_block_list(&mut self, ids: &[String]) -> StorageResult<()> {
        if ids.len() > MAX_BLOCKS_PER_BLOB {
            return Err(StorageError::TooManyBlocks { count: ids.len() });
        }
        // Validate everything before mutating: commits are atomic.
        let mut resolved: Vec<(String, Bytes)> = Vec::with_capacity(ids.len());
        let mut total: u64 = 0;
        for id in ids {
            let data = if let Some(d) = self.staged.get(id) {
                d.clone()
            } else if let Some((_, d)) = self.committed.iter().find(|(cid, _)| cid == id) {
                d.clone()
            } else {
                return Err(StorageError::UnknownBlockId(id.clone()));
            };
            total += data.len() as u64;
            resolved.push((id.clone(), data));
        }
        if total > MAX_BLOCK_BLOB_SIZE {
            return Err(StorageError::BlobTooLarge { size: total });
        }
        self.committed = resolved;
        self.committed_size = total;
        self.has_commit = true;
        self.staged.clear();
        self.download_cache = None;
        Ok(())
    }

    /// Read the `index`-th committed block (the paper's sequential
    /// block-at-a-time download path).
    pub fn get_block(&self, index: usize) -> StorageResult<Bytes> {
        self.committed
            .get(index)
            .map(|(_, d)| d.clone())
            .ok_or_else(|| StorageError::UnknownBlockId(format!("#{index}")))
    }

    /// Number of committed blocks.
    pub fn block_count(&self) -> usize {
        self.committed.len()
    }

    /// Number of staged (uncommitted) blocks.
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }

    /// Total committed size in bytes.
    pub fn size(&self) -> u64 {
        self.committed_size
    }

    /// The full committed content (`DownloadText()` path). Cached: all
    /// concurrent downloads share one buffer.
    pub fn download(&mut self) -> Bytes {
        if self.committed.len() == 1 {
            return self.committed[0].1.clone();
        }
        if let Some(c) = &self.download_cache {
            return c.clone();
        }
        let mut out = BytesMut::with_capacity(self.committed_size as usize);
        for (_, d) in &self.committed {
            out.extend_from_slice(d);
        }
        let out = out.freeze();
        self.download_cache = Some(out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn stage_then_commit_in_list_order() {
        let mut b = BlockBlob::new();
        b.put_block("b".into(), bytes("world")).unwrap();
        b.put_block("a".into(), bytes("hello ")).unwrap();
        assert!(!b.is_committed());
        b.put_block_list(&["a".into(), "b".into()]).unwrap();
        assert!(b.is_committed());
        assert_eq!(b.download(), bytes("hello world"));
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.size(), 11);
        assert_eq!(b.staged_count(), 0, "commit clears staging");
    }

    #[test]
    fn commit_can_reuse_committed_blocks() {
        let mut b = BlockBlob::new();
        b.put_block("x".into(), bytes("ab")).unwrap();
        b.put_block_list(&["x".into()]).unwrap();
        // Recommit referencing the already-committed block plus a new one.
        b.put_block("y".into(), bytes("cd")).unwrap();
        b.put_block_list(&["x".into(), "y".into(), "x".into()])
            .unwrap();
        assert_eq!(b.download(), bytes("abcdab"));
    }

    #[test]
    fn staged_version_shadows_committed_same_id() {
        let mut b = BlockBlob::new();
        b.put_block("x".into(), bytes("old")).unwrap();
        b.put_block_list(&["x".into()]).unwrap();
        b.put_block("x".into(), bytes("new")).unwrap();
        b.put_block_list(&["x".into()]).unwrap();
        assert_eq!(b.download(), bytes("new"));
    }

    #[test]
    fn unknown_block_id_fails_commit_atomically() {
        let mut b = BlockBlob::new();
        b.put_block("a".into(), bytes("aa")).unwrap();
        b.put_block_list(&["a".into()]).unwrap();
        b.put_block("b".into(), bytes("bb")).unwrap();
        let err = b.put_block_list(&["a".into(), "nope".into()]).unwrap_err();
        assert_eq!(err, StorageError::UnknownBlockId("nope".into()));
        // Old content intact, staging preserved (commit failed atomically).
        assert_eq!(b.download(), bytes("aa"));
        assert_eq!(b.staged_count(), 1);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut b = BlockBlob::new();
        let big = Bytes::from(vec![0u8; (MAX_BLOCK_SIZE + 1) as usize]);
        assert!(matches!(
            b.put_block("big".into(), big),
            Err(StorageError::BlockTooLarge { .. })
        ));
        // Exactly 4 MB is fine.
        let ok = Bytes::from(vec![0u8; MAX_BLOCK_SIZE as usize]);
        b.put_block("ok".into(), ok).unwrap();
    }

    #[test]
    fn too_many_blocks_rejected() {
        let mut b = BlockBlob::new();
        let ids: Vec<String> = (0..MAX_BLOCKS_PER_BLOB + 1)
            .map(|i| i.to_string())
            .collect();
        assert!(matches!(
            b.put_block_list(&ids),
            Err(StorageError::TooManyBlocks { .. })
        ));
    }

    #[test]
    fn get_block_by_index() {
        let mut b = BlockBlob::new();
        for (i, s) in ["x", "y", "z"].iter().enumerate() {
            b.put_block(i.to_string(), bytes(s)).unwrap();
        }
        b.put_block_list(&["0".into(), "1".into(), "2".into()])
            .unwrap();
        assert_eq!(b.get_block(1).unwrap(), bytes("y"));
        assert!(matches!(
            b.get_block(3),
            Err(StorageError::UnknownBlockId(_))
        ));
    }

    #[test]
    fn single_upload_is_one_block() {
        let mut b = BlockBlob::from_single_upload(bytes("payload"));
        assert!(b.is_committed());
        assert_eq!(b.block_count(), 1);
        assert_eq!(b.download(), bytes("payload"));
    }

    #[test]
    fn empty_commit_produces_empty_committed_blob() {
        let mut b = BlockBlob::new();
        b.put_block("a".into(), bytes("data")).unwrap();
        b.put_block_list(&[]).unwrap();
        assert!(b.is_committed(), "an empty commit is a blob");
        assert_eq!(b.block_count(), 0);
        assert_eq!(b.download(), Bytes::new());
        assert_eq!(b.size(), 0);
        assert_eq!(b.staged_count(), 0);

        // Staging nothing at all and committing `[]` is a blob too.
        let mut b = BlockBlob::new();
        assert!(!b.is_committed());
        b.put_block_list(&[]).unwrap();
        assert!(b.is_committed());
        assert_eq!(b.download(), Bytes::new());
    }

    /// The naive block blob the proptest below compares against: the
    /// committed list (`None` until the first commit), the staging area,
    /// and no cache.
    #[derive(Default)]
    struct Model {
        committed: Option<Vec<(String, Vec<u8>)>>,
        staged: HashMap<String, Vec<u8>>,
    }

    impl Model {
        fn blocks(&self) -> &[(String, Vec<u8>)] {
            self.committed.as_deref().unwrap_or_default()
        }

        /// Staged first, then committed; `false` (and no change) if any id
        /// resolves to neither.
        fn put_block_list(&mut self, ids: &[String]) -> bool {
            let resolve = |id: &String| {
                let old = self.blocks().iter().find(|(cid, _)| cid == id);
                self.staged.get(id).or(old.map(|(_, d)| d)).cloned()
            };
            let Some(new) = ids.iter().map(resolve).collect::<Option<Vec<_>>>() else {
                return false;
            };
            self.committed = Some(ids.iter().cloned().zip(new).collect());
            self.staged.clear();
            true
        }

        fn content(&self) -> Vec<u8> {
            self.blocks().iter().flat_map(|(_, d)| d.clone()).collect()
        }
    }

    proptest::proptest! {
        /// Interleaved staging, commits (empty lists, ids that resolve from
        /// the committed list, unknown ids), block reads and downloads
        /// match the model after every step. Ids 0–5 are staged at some
        /// point; 6 and 7 never are, so a list naming one must fail and
        /// leave everything as it was.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..6, 0usize..48, 0u8..=255,
                 proptest::collection::vec(0u8..8, 0..5)), 0..60)
        ) {
            let mut blob = BlockBlob::new();
            let mut model = Model::default();
            for (kind, id, len, fill, list) in ops {
                match kind {
                    0..=2 => {
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        model.staged.insert(id.to_string(), data.clone());
                        blob.put_block(id.to_string(), Bytes::from(data)).unwrap();
                    }
                    3 | 4 => {
                        let ids: Vec<String> = list.iter().map(u8::to_string).collect();
                        let got = blob.put_block_list(&ids);
                        if model.put_block_list(&ids) {
                            proptest::prop_assert_eq!(got, Ok(()));
                        } else {
                            proptest::prop_assert!(
                                matches!(got, Err(StorageError::UnknownBlockId(_))));
                        }
                    }
                    _ => {
                        let index = id as usize;
                        match model.blocks().get(index) {
                            Some((_, d)) => proptest::prop_assert_eq!(
                                blob.get_block(index).unwrap().as_ref(), d.as_slice()),
                            None => proptest::prop_assert!(blob.get_block(index).is_err()),
                        }
                    }
                }
                // A download after every step, so a stale cache cannot hide
                // behind a later commit.
                let content = model.content();
                let got = blob.download();
                proptest::prop_assert_eq!(got.as_ref(), content.as_slice());
                proptest::prop_assert_eq!(blob.size() as usize, content.len());
                proptest::prop_assert_eq!(blob.is_committed(), model.committed.is_some());
                proptest::prop_assert_eq!(blob.block_count(), model.blocks().len());
                proptest::prop_assert_eq!(blob.staged_count(), model.staged.len());
            }
        }

        /// However blocks are staged (order, restaging, shadowing), the
        /// committed content equals the concatenation of the final staged
        /// values in list order.
        #[test]
        fn prop_commit_equals_concat(
            chunks in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..64), 1..20),
            order in proptest::collection::vec(0usize..20, 1..30)
        ) {
            let mut b = BlockBlob::new();
            for (i, c) in chunks.iter().enumerate() {
                b.put_block(i.to_string(), Bytes::from(c.clone())).unwrap();
            }
            let ids: Vec<String> = order.iter()
                .map(|&i| (i % chunks.len()).to_string())
                .collect();
            b.put_block_list(&ids).unwrap();
            let mut expect = Vec::new();
            for &i in &order {
                expect.extend_from_slice(&chunks[i % chunks.len()]);
            }
            let got = b.download();
            proptest::prop_assert_eq!(got.as_ref(), expect.as_slice());
            proptest::prop_assert_eq!(b.size() as usize, expect.len());
        }
    }
}
