//! `CloudBlobClient` analogue, bound to one container.

use crate::env::Environment;
use crate::resilience::ClientPolicy;
use azsim_storage::{StorageOk, StorageRequest, StorageResult};
use bytes::Bytes;

/// A client bound to one blob container.
pub struct BlobClient<'e, E: Environment> {
    env: &'e E,
    container: String,
    policy: ClientPolicy,
}

impl<'e, E: Environment> BlobClient<'e, E> {
    /// Bind a client to `container`.
    pub fn new(env: &'e E, container: impl Into<String>) -> Self {
        BlobClient {
            env,
            container: container.into(),
            policy: ClientPolicy::default(),
        }
    }

    /// Replace the retry policy: a paper-faithful [`crate::RetryPolicy`] or a
    /// [`crate::ResilientPolicy`] (via [`ClientPolicy`]).
    pub fn with_policy(mut self, policy: impl Into<ClientPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// The bound container name.
    pub fn container(&self) -> &str {
        &self.container
    }

    async fn run(&self, req: StorageRequest) -> StorageResult<StorageOk> {
        self.policy.run(self.env, req).await
    }

    /// Create the container (idempotent).
    pub async fn create_container(&self) -> StorageResult<()> {
        self.run(StorageRequest::CreateContainer {
            container: self.container.clone(),
        })
        .await
        .map(|_| ())
    }

    /// `PutBlock`: stage one ≤ 4 MB block against `blob`.
    pub async fn put_block(
        &self,
        blob: &str,
        block_id: impl Into<String>,
        data: Bytes,
    ) -> StorageResult<()> {
        self.run(StorageRequest::PutBlock {
            container: self.container.clone(),
            blob: blob.to_owned(),
            block_id: block_id.into(),
            data,
        })
        .await
        .map(|_| ())
    }

    /// `PutBlockList`: commit the staged blocks in order.
    pub async fn put_block_list(&self, blob: &str, ids: Vec<String>) -> StorageResult<()> {
        self.run(StorageRequest::PutBlockList {
            container: self.container.clone(),
            blob: blob.to_owned(),
            block_ids: ids,
        })
        .await
        .map(|_| ())
    }

    /// Single-shot upload of a block blob ≤ 64 MB.
    pub async fn upload(&self, blob: &str, data: Bytes) -> StorageResult<()> {
        self.run(StorageRequest::UploadBlockBlob {
            container: self.container.clone(),
            blob: blob.to_owned(),
            data,
        })
        .await
        .map(|_| ())
    }

    /// `GetBlock`: read the `index`-th committed block (sequential path).
    pub async fn get_block(&self, blob: &str, index: usize) -> StorageResult<Bytes> {
        self.run(StorageRequest::GetBlock {
            container: self.container.clone(),
            blob: blob.to_owned(),
            index,
        })
        .await
        .map(StorageOk::into_data)
    }

    /// Download a whole blob (`DownloadText()` / `openRead()` path).
    pub async fn download(&self, blob: &str) -> StorageResult<Bytes> {
        self.run(StorageRequest::DownloadBlob {
            container: self.container.clone(),
            blob: blob.to_owned(),
        })
        .await
        .map(StorageOk::into_data)
    }

    /// Create a page blob with fixed maximum `size`.
    pub async fn create_page_blob(&self, blob: &str, size: u64) -> StorageResult<()> {
        self.run(StorageRequest::CreatePageBlob {
            container: self.container.clone(),
            blob: blob.to_owned(),
            size,
        })
        .await
        .map(|_| ())
    }

    /// `PutPage`: write a 512-aligned range (≤ 4 MB).
    pub async fn put_page(&self, blob: &str, offset: u64, data: Bytes) -> StorageResult<()> {
        self.run(StorageRequest::PutPage {
            container: self.container.clone(),
            blob: blob.to_owned(),
            offset,
            data,
        })
        .await
        .map(|_| ())
    }

    /// `GetPage`: read a 512-aligned range (random-access path).
    pub async fn get_page(&self, blob: &str, offset: u64, length: u64) -> StorageResult<Bytes> {
        self.run(StorageRequest::GetPage {
            container: self.container.clone(),
            blob: blob.to_owned(),
            offset,
            length,
        })
        .await
        .map(StorageOk::into_data)
    }

    /// Sorted names of blobs in the container.
    pub async fn list_blobs(&self) -> StorageResult<Vec<String>> {
        match self
            .run(StorageRequest::ListBlobs {
                container: self.container.clone(),
            })
            .await?
        {
            StorageOk::Names(n) => Ok(n),
            other => unreachable!("unexpected response {other:?}"),
        }
    }

    /// Whether a (committed) blob exists.
    pub async fn exists(&self, blob: &str) -> StorageResult<bool> {
        Ok(self.list_blobs().await?.iter().any(|b| b == blob))
    }

    /// Delete a blob.
    pub async fn delete(&self, blob: &str) -> StorageResult<()> {
        self.run(StorageRequest::DeleteBlob {
            container: self.container.clone(),
            blob: blob.to_owned(),
        })
        .await
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::VirtualEnv;
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;

    #[test]
    fn block_blob_lifecycle_via_client() {
        let sim = Simulation::new(Cluster::with_defaults(), 9);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let c = BlobClient::new(&env, "data");
            c.create_container().await.unwrap();
            c.put_block("b", "00", Bytes::from_static(b"hello "))
                .await
                .unwrap();
            c.put_block("b", "01", Bytes::from_static(b"blob"))
                .await
                .unwrap();
            c.put_block_list("b", vec!["00".into(), "01".into()])
                .await
                .unwrap();
            assert_eq!(
                c.download("b").await.unwrap(),
                Bytes::from_static(b"hello blob")
            );
            assert_eq!(
                c.get_block("b", 1).await.unwrap(),
                Bytes::from_static(b"blob")
            );
            c.delete("b").await.unwrap();
            assert!(c.download("b").await.is_err());
        });
    }

    #[test]
    fn page_blob_lifecycle_via_client() {
        let sim = Simulation::new(Cluster::with_defaults(), 9);
        sim.run_workers(1, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let c = BlobClient::new(&env, "data");
            c.create_container().await.unwrap();
            c.create_page_blob("p", 8192).await.unwrap();
            let page = Bytes::from(vec![3u8; 1024]);
            c.put_page("p", 2048, page.clone()).await.unwrap();
            assert_eq!(c.get_page("p", 2048, 1024).await.unwrap(), page);
            let whole = c.download("p").await.unwrap();
            assert_eq!(whole.len(), 8192);
            assert_eq!(&whole[2048..3072], &page[..]);
        });
    }

    #[test]
    fn shared_blob_concurrent_writers() {
        // The paper's Algorithm 1: all workers write chunks of the SAME
        // blob, then everyone downloads it.
        let n = 8usize;
        let sim = Simulation::new(Cluster::with_defaults(), 11);
        let report = sim.run_workers(n, move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let c = BlobClient::new(&env, "shared");
            c.create_container().await.unwrap();
            let me = env.instance();
            c.put_block("blob", format!("{me:04}"), Bytes::from(vec![me as u8; 128]))
                .await
                .unwrap();
            ctx.now()
        });
        // One committer assembles the full list afterwards.
        let mut model = report.model;
        let ids: Vec<String> = (0..n).map(|i| format!("{i:04}")).collect();
        let (_, r) = model.submit(
            report.end_time,
            0,
            &StorageRequest::PutBlockList {
                container: "shared".into(),
                blob: "blob".into(),
                block_ids: ids,
            },
        );
        r.unwrap();
        assert_eq!(
            model.blob_store().blob_size("shared", "blob").unwrap(),
            (n * 128) as u64
        );
    }
}
