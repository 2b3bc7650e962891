//! Operation classification consumed by the latency model.
//!
//! Each storage request maps to an [`OpClass`]; the fabric turns the class
//! plus payload sizes into a virtual latency. The [`SyncClass`] encodes the
//! replication work the paper uses to explain why queue operations differ in
//! cost: *Put* synchronizes the write across the three replicas, *Peek*
//! reads from the primary only, and *Get* additionally propagates the
//! message's invisibility state to all copies, making it the most expensive.

/// Which storage service an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Service {
    /// Blob storage.
    Blob,
    /// Queue storage.
    Queue,
    /// Table storage.
    Table,
}

/// Replication/synchronization work an operation entails on the server side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncClass {
    /// Read served by the primary replica; no cross-replica coordination.
    ReadPrimary,
    /// Write synchronized across all three replicas before acknowledging
    /// (Windows Azure Storage offers strong consistency).
    Replicate,
    /// Write-class synchronization *plus* extra per-message state (the
    /// visibility change of `GetMessage`) maintained across all copies.
    ReplicateState,
}

/// Fine-grained operation class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    // --- Blob ---
    /// Create a blob container (control plane).
    BlobCreateContainer,
    /// Stage one block of a block blob.
    BlobPutBlock,
    /// Commit a block list.
    BlobPutBlockList,
    /// Single-shot upload of a block blob ≤ 64 MB.
    BlobUploadSingle,
    /// Read one committed block (sequential access path).
    BlobGetBlock,
    /// Download a whole blob via the streaming path
    /// (`DownloadText()` / `openRead()`).
    BlobDownload,
    /// Create (and reserve the maximum size of) a page blob.
    BlobCreatePage,
    /// Write a page range.
    BlobPutPage,
    /// Read a page range at a random offset (pays a locate step).
    BlobGetPage,
    /// Delete a blob.
    BlobDelete,
    /// List blob names in a container (control plane).
    BlobList,
    // --- Queue ---
    /// Create a queue (control plane).
    QueueCreate,
    /// Delete a queue (control plane).
    QueueDelete,
    /// `PutMessage`.
    QueuePut,
    /// `GetMessage` (dequeue with visibility timeout).
    QueueGet,
    /// `PeekMessage`.
    QueuePeek,
    /// `DeleteMessage`.
    QueueDeleteMsg,
    /// Read the approximate message count.
    QueueCount,
    /// Remove every message from a queue.
    QueueClear,
    // --- Table ---
    /// Create a table (control plane).
    TableCreate,
    /// Delete a table (control plane).
    TableDelete,
    /// Insert an entity.
    TableInsert,
    /// Point query by (PartitionKey, RowKey).
    TableQuery,
    /// Range query over one partition.
    TableQueryPartition,
    /// Update an entity (conditional or wildcard ETag).
    TableUpdate,
    /// Entity-group transaction (atomic same-partition batch).
    TableBatch,
    /// Delete an entity.
    TableDeleteEntity,
}

impl OpClass {
    /// Number of operation classes (the length of [`OpClass::ALL`]).
    pub const COUNT: usize = 27;

    /// Every class, in declaration order — the canonical report order, and
    /// the index space of [`OpClass::index`].
    pub const ALL: [OpClass; OpClass::COUNT] = {
        use OpClass::*;
        [
            BlobCreateContainer,
            BlobPutBlock,
            BlobPutBlockList,
            BlobUploadSingle,
            BlobGetBlock,
            BlobDownload,
            BlobCreatePage,
            BlobPutPage,
            BlobGetPage,
            BlobDelete,
            BlobList,
            QueueCreate,
            QueueDelete,
            QueuePut,
            QueueGet,
            QueuePeek,
            QueueDeleteMsg,
            QueueCount,
            QueueClear,
            TableCreate,
            TableDelete,
            TableInsert,
            TableQuery,
            TableQueryPartition,
            TableUpdate,
            TableBatch,
            TableDeleteEntity,
        ]
    };

    /// Dense index of this class in `0..OpClass::COUNT`, suitable for
    /// array-backed per-class tables on the metrics hot path.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The service the class belongs to.
    pub fn service(self) -> Service {
        use OpClass::*;
        match self {
            BlobCreateContainer | BlobPutBlock | BlobPutBlockList | BlobUploadSingle
            | BlobGetBlock | BlobDownload | BlobCreatePage | BlobPutPage | BlobGetPage
            | BlobDelete | BlobList => Service::Blob,
            QueueCreate | QueueDelete | QueuePut | QueueGet | QueuePeek | QueueDeleteMsg
            | QueueCount | QueueClear => Service::Queue,
            TableCreate | TableDelete | TableInsert | TableQuery | TableQueryPartition
            | TableUpdate | TableBatch | TableDeleteEntity => Service::Table,
        }
    }

    /// The replication work class.
    pub fn sync_class(self) -> SyncClass {
        use OpClass::*;
        match self {
            // GetMessage: write-sync plus invisibility-state propagation.
            QueueGet => SyncClass::ReplicateState,
            // Reads from the primary.
            BlobGetBlock | BlobDownload | BlobGetPage | BlobList | QueuePeek | QueueCount
            | TableQuery | TableQueryPartition => SyncClass::ReadPrimary,
            // Everything else mutates state and must replicate.
            _ => SyncClass::Replicate,
        }
    }

    /// Whether the operation is control-plane (hits the partition master,
    /// not a data partition's scalability target).
    pub fn is_control(self) -> bool {
        use OpClass::*;
        matches!(
            self,
            BlobCreateContainer | BlobList | QueueCreate | QueueDelete | TableCreate | TableDelete
        )
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        use OpClass::*;
        match self {
            BlobCreateContainer => "blob.create_container",
            BlobPutBlock => "blob.put_block",
            BlobPutBlockList => "blob.put_block_list",
            BlobUploadSingle => "blob.upload_single",
            BlobGetBlock => "blob.get_block",
            BlobDownload => "blob.download",
            BlobCreatePage => "blob.create_page",
            BlobPutPage => "blob.put_page",
            BlobGetPage => "blob.get_page",
            BlobDelete => "blob.delete",
            BlobList => "blob.list",
            QueueCreate => "queue.create",
            QueueDelete => "queue.delete",
            QueuePut => "queue.put",
            QueueGet => "queue.get",
            QueuePeek => "queue.peek",
            QueueDeleteMsg => "queue.delete_msg",
            QueueCount => "queue.count",
            QueueClear => "queue.clear",
            TableCreate => "table.create",
            TableDelete => "table.delete",
            TableInsert => "table.insert",
            TableQuery => "table.query",
            TableQueryPartition => "table.query_partition",
            TableUpdate => "table.update",
            TableBatch => "table.batch",
            TableDeleteEntity => "table.delete_entity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_ops_have_paper_cost_ordering_classes() {
        // Peek: primary read. Put: replicate. Get: replicate + state.
        assert_eq!(OpClass::QueuePeek.sync_class(), SyncClass::ReadPrimary);
        assert_eq!(OpClass::QueuePut.sync_class(), SyncClass::Replicate);
        assert_eq!(OpClass::QueueGet.sync_class(), SyncClass::ReplicateState);
    }

    #[test]
    fn services_partition_the_classes() {
        assert_eq!(OpClass::BlobPutPage.service(), Service::Blob);
        assert_eq!(OpClass::QueueCount.service(), Service::Queue);
        assert_eq!(OpClass::TableUpdate.service(), Service::Table);
    }

    #[test]
    fn control_plane_classification() {
        assert!(OpClass::QueueCreate.is_control());
        assert!(OpClass::TableDelete.is_control());
        assert!(!OpClass::QueuePut.is_control());
        assert!(!OpClass::BlobPutBlock.is_control());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = OpClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), OpClass::ALL.len());
    }

    #[test]
    fn indices_are_dense_and_match_declaration_order() {
        for (i, class) in OpClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
        assert_eq!(OpClass::ALL.len(), OpClass::COUNT);
    }
}
