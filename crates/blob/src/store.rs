//! The account-level blob namespace: containers of blobs.

use crate::block::BlockBlob;
use crate::page::PageBlob;
use azsim_storage::limits::MAX_SINGLE_SHOT_UPLOAD;
use azsim_storage::{StorageError, StorageResult};
use bytes::Bytes;
use std::collections::HashMap;

/// A blob is either a block blob or a page blob; the type is fixed at
/// creation and operations of the wrong flavour fail with
/// [`StorageError::WrongBlobType`].
#[derive(Clone, Debug)]
pub enum Blob {
    /// Block blob.
    Block(BlockBlob),
    /// Page blob.
    Page(PageBlob),
}

impl Blob {
    /// Committed size in bytes (a page blob's fixed size).
    pub fn size(&self) -> u64 {
        match self {
            Blob::Block(b) => b.size(),
            Blob::Page(p) => p.size(),
        }
    }

    /// Whether readers can see the blob: a block blob with only staged
    /// blocks does not exist yet.
    fn is_committed(&self) -> bool {
        match self {
            Blob::Block(b) => b.is_committed(),
            Blob::Page(_) => true,
        }
    }
}

/// All blob state of one storage account.
#[derive(Clone, Debug, Default)]
pub struct BlobStore {
    containers: HashMap<String, HashMap<String, Blob>>,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a container; idempotent (`CreateIfNotExist` semantics).
    pub fn create_container(&mut self, name: &str) -> StorageResult<()> {
        self.containers.entry(name.to_owned()).or_default();
        Ok(())
    }

    /// Whether a container exists.
    pub fn container_exists(&self, name: &str) -> bool {
        self.containers.contains_key(name)
    }

    /// Names of the committed blobs in a container (sorted, for
    /// determinism).
    pub fn list_blobs(&self, container: &str) -> StorageResult<Vec<String>> {
        let c = self.container(container)?;
        let mut names: Vec<String> = c
            .iter()
            .filter(|(_, b)| b.is_committed())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        Ok(names)
    }

    fn container(&self, name: &str) -> StorageResult<&HashMap<String, Blob>> {
        self.containers
            .get(name)
            .ok_or_else(|| StorageError::ContainerNotFound(name.to_owned()))
    }

    fn container_mut(&mut self, name: &str) -> StorageResult<&mut HashMap<String, Blob>> {
        self.containers
            .get_mut(name)
            .ok_or_else(|| StorageError::ContainerNotFound(name.to_owned()))
    }

    /// A reader's view of a blob: staging-only block blobs are not found.
    fn blob(&self, container: &str, blob: &str) -> StorageResult<&Blob> {
        self.container(container)?
            .get(blob)
            .filter(|b| b.is_committed())
            .ok_or_else(|| StorageError::BlobNotFound(blob.to_owned()))
    }

    /// Stage a block against a (possibly not-yet-committed) block blob.
    pub fn put_block(
        &mut self,
        container: &str,
        blob: &str,
        block_id: String,
        data: Bytes,
    ) -> StorageResult<()> {
        let c = self.container_mut(container)?;
        match c
            .entry(blob.to_owned())
            .or_insert_with(|| Blob::Block(BlockBlob::new()))
        {
            Blob::Block(b) => b.put_block(block_id, data),
            Blob::Page(_) => Err(StorageError::WrongBlobType),
        }
    }

    /// Commit a block list. A commit that fails against a name never seen
    /// before leaves no entry behind.
    pub fn put_block_list(
        &mut self,
        container: &str,
        blob: &str,
        ids: &[String],
    ) -> StorageResult<()> {
        let c = self.container_mut(container)?;
        match c.get_mut(blob) {
            Some(Blob::Block(b)) => b.put_block_list(ids),
            Some(Blob::Page(_)) => Err(StorageError::WrongBlobType),
            None => {
                let mut b = BlockBlob::new();
                b.put_block_list(ids)?;
                c.insert(blob.to_owned(), Blob::Block(b));
                Ok(())
            }
        }
    }

    /// Single-shot upload of a block blob ≤ 64 MB (replaces existing
    /// block-blob content).
    pub fn upload_block_blob(
        &mut self,
        container: &str,
        blob: &str,
        data: Bytes,
    ) -> StorageResult<()> {
        if data.len() as u64 > MAX_SINGLE_SHOT_UPLOAD {
            return Err(StorageError::UploadTooLarge {
                size: data.len() as u64,
            });
        }
        let c = self.container_mut(container)?;
        if let Some(Blob::Page(_)) = c.get(blob) {
            return Err(StorageError::WrongBlobType);
        }
        c.insert(
            blob.to_owned(),
            Blob::Block(BlockBlob::from_single_upload(data)),
        );
        Ok(())
    }

    /// Read one committed block by index.
    pub fn get_block(&self, container: &str, blob: &str, index: usize) -> StorageResult<Bytes> {
        match self.blob(container, blob)? {
            Blob::Block(b) => b.get_block(index),
            Blob::Page(_) => Err(StorageError::WrongBlobType),
        }
    }

    /// Download a whole blob of either type.
    pub fn download(&mut self, container: &str, blob: &str) -> StorageResult<Bytes> {
        let c = self.container_mut(container)?;
        match c.get_mut(blob).filter(|b| b.is_committed()) {
            Some(Blob::Block(b)) => Ok(b.download()),
            Some(Blob::Page(p)) => Ok(p.download()),
            None => Err(StorageError::BlobNotFound(blob.to_owned())),
        }
    }

    /// Create a page blob of fixed size. Re-creating an existing page blob
    /// resets it; creating over a block blob fails.
    pub fn create_page_blob(
        &mut self,
        container: &str,
        blob: &str,
        size: u64,
    ) -> StorageResult<()> {
        let c = self.container_mut(container)?;
        if let Some(Blob::Block(_)) = c.get(blob) {
            return Err(StorageError::WrongBlobType);
        }
        c.insert(blob.to_owned(), Blob::Page(PageBlob::create(size)?));
        Ok(())
    }

    /// Write a page range.
    pub fn put_page(
        &mut self,
        container: &str,
        blob: &str,
        offset: u64,
        data: Bytes,
    ) -> StorageResult<()> {
        let c = self.container_mut(container)?;
        match c.get_mut(blob) {
            Some(Blob::Page(p)) => p.put_page(offset, data),
            Some(Blob::Block(_)) => Err(StorageError::WrongBlobType),
            None => Err(StorageError::BlobNotFound(blob.to_owned())),
        }
    }

    /// Read a page range.
    pub fn get_page(
        &self,
        container: &str,
        blob: &str,
        offset: u64,
        length: u64,
    ) -> StorageResult<Bytes> {
        match self.blob(container, blob)? {
            Blob::Page(p) => p.get_page(offset, length),
            Blob::Block(_) => Err(StorageError::WrongBlobType),
        }
    }

    /// Delete a blob of either type.
    pub fn delete(&mut self, container: &str, blob: &str) -> StorageResult<()> {
        let c = self.container_mut(container)?;
        c.remove(blob)
            .map(|_| ())
            .ok_or_else(|| StorageError::BlobNotFound(blob.to_owned()))
    }

    /// Size of a committed blob.
    pub fn blob_size(&self, container: &str, blob: &str) -> StorageResult<u64> {
        Ok(self.blob(container, blob)?.size())
    }

    /// Total committed bytes across the account (capacity accounting).
    pub fn total_bytes(&self) -> u64 {
        self.containers
            .values()
            .flat_map(|c| c.values())
            .map(|b| match b {
                Blob::Block(b) => b.size(),
                // Count written pages, not the sparse maximum size.
                Blob::Page(p) => p.written_pages() as u64 * 512,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_container() -> BlobStore {
        let mut s = BlobStore::new();
        s.create_container("c").unwrap();
        s
    }

    #[test]
    fn container_lifecycle() {
        let mut s = BlobStore::new();
        assert!(!s.container_exists("c"));
        s.create_container("c").unwrap();
        s.create_container("c").unwrap(); // idempotent
        assert!(s.container_exists("c"));
        assert!(matches!(
            s.list_blobs("missing"),
            Err(StorageError::ContainerNotFound(_))
        ));
        assert_eq!(s.list_blobs("c").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn block_blob_end_to_end() {
        let mut s = store_with_container();
        s.put_block("c", "b", "0".into(), Bytes::from_static(b"he"))
            .unwrap();
        s.put_block("c", "b", "1".into(), Bytes::from_static(b"llo"))
            .unwrap();
        // Uncommitted blob is not downloadable.
        assert!(matches!(
            s.download("c", "b"),
            Err(StorageError::BlobNotFound(_))
        ));
        s.put_block_list("c", "b", &["0".into(), "1".into()])
            .unwrap();
        assert_eq!(s.download("c", "b").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(
            s.get_block("c", "b", 1).unwrap(),
            Bytes::from_static(b"llo")
        );
        assert_eq!(s.blob_size("c", "b").unwrap(), 5);
        s.delete("c", "b").unwrap();
        assert!(matches!(
            s.download("c", "b"),
            Err(StorageError::BlobNotFound(_))
        ));
    }

    #[test]
    fn page_blob_end_to_end() {
        let mut s = store_with_container();
        s.create_page_blob("c", "p", 4096).unwrap();
        s.put_page("c", "p", 1024, Bytes::from(vec![5u8; 512]))
            .unwrap();
        let r = s.get_page("c", "p", 1024, 512).unwrap();
        assert!(r.iter().all(|&x| x == 5));
        assert_eq!(s.download("c", "p").unwrap().len(), 4096);
        // Recreating resets content.
        s.create_page_blob("c", "p", 2048).unwrap();
        assert!(s.download("c", "p").unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let mut s = store_with_container();
        s.create_page_blob("c", "p", 1024).unwrap();
        assert!(matches!(
            s.put_block("c", "p", "0".into(), Bytes::from_static(b"x")),
            Err(StorageError::WrongBlobType)
        ));
        assert!(matches!(
            s.upload_block_blob("c", "p", Bytes::from_static(b"x")),
            Err(StorageError::WrongBlobType)
        ));
        s.upload_block_blob("c", "b", Bytes::from_static(b"x"))
            .unwrap();
        assert!(matches!(
            s.put_page("c", "b", 0, Bytes::from(vec![0u8; 512])),
            Err(StorageError::WrongBlobType)
        ));
        assert!(matches!(
            s.get_page("c", "b", 0, 512),
            Err(StorageError::WrongBlobType)
        ));
        assert!(matches!(
            s.create_page_blob("c", "b", 512),
            Err(StorageError::WrongBlobType)
        ));
    }

    #[test]
    fn single_shot_upload_respects_64mb_limit() {
        let mut s = store_with_container();
        let too_big = Bytes::from(vec![0u8; (MAX_SINGLE_SHOT_UPLOAD + 1) as usize]);
        assert!(matches!(
            s.upload_block_blob("c", "b", too_big),
            Err(StorageError::UploadTooLarge { .. })
        ));
    }

    #[test]
    fn operations_on_missing_blob_or_container() {
        let mut s = store_with_container();
        assert!(matches!(
            s.put_page("c", "nope", 0, Bytes::from(vec![0u8; 512])),
            Err(StorageError::BlobNotFound(_))
        ));
        assert!(matches!(
            s.delete("c", "nope"),
            Err(StorageError::BlobNotFound(_))
        ));
        assert!(matches!(
            s.put_block("nope", "b", "0".into(), Bytes::new()),
            Err(StorageError::ContainerNotFound(_))
        ));
    }

    #[test]
    fn staging_only_blobs_are_invisible_to_readers() {
        let mut s = store_with_container();
        s.upload_block_blob("c", "done", Bytes::from_static(b"x"))
            .unwrap();
        s.put_block("c", "staged", "0".into(), Bytes::from_static(b"abc"))
            .unwrap();
        assert_eq!(s.list_blobs("c").unwrap(), vec!["done"]);
        assert_eq!(
            s.blob_size("c", "staged"),
            Err(StorageError::BlobNotFound("staged".into()))
        );
        assert!(matches!(
            s.get_page("c", "staged", 0, 512),
            Err(StorageError::BlobNotFound(_))
        ));
        // The first commit brings it into the namespace.
        s.put_block_list("c", "staged", &["0".into()]).unwrap();
        assert_eq!(s.list_blobs("c").unwrap(), vec!["done", "staged"]);
        assert_eq!(s.blob_size("c", "staged").unwrap(), 3);
    }

    #[test]
    fn failed_first_commit_leaves_no_entry() {
        let mut s = store_with_container();
        assert_eq!(
            s.put_block_list("c", "ghost", &["nope".into()]),
            Err(StorageError::UnknownBlockId("nope".into()))
        );
        assert_eq!(s.list_blobs("c").unwrap(), Vec::<String>::new());
        assert!(matches!(
            s.delete("c", "ghost"),
            Err(StorageError::BlobNotFound(_))
        ));
        // A page blob may take the name: no phantom block blob owns it.
        s.create_page_blob("c", "ghost", 512).unwrap();
    }

    #[test]
    fn empty_commit_creates_an_empty_blob() {
        let mut s = store_with_container();
        s.put_block_list("c", "empty", &[]).unwrap();
        assert_eq!(s.download("c", "empty").unwrap(), Bytes::new());
        assert_eq!(s.blob_size("c", "empty").unwrap(), 0);
        assert_eq!(s.list_blobs("c").unwrap(), vec!["empty"]);
    }

    #[test]
    fn list_blobs_sorted_and_total_bytes() {
        let mut s = store_with_container();
        s.upload_block_blob("c", "zz", Bytes::from(vec![0u8; 10]))
            .unwrap();
        s.upload_block_blob("c", "aa", Bytes::from(vec![0u8; 20]))
            .unwrap();
        s.create_page_blob("c", "mm", 1024 * 1024).unwrap();
        s.put_page("c", "mm", 0, Bytes::from(vec![1u8; 512]))
            .unwrap();
        assert_eq!(s.list_blobs("c").unwrap(), vec!["aa", "mm", "zz"]);
        // 10 + 20 committed block bytes + one written page.
        assert_eq!(s.total_bytes(), 30 + 512);
    }
}
